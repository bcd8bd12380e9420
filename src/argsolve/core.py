"""Finite argumentation frameworks: arguments, attacks, and argument sets.

A framework is an immutable directed graph whose nodes are arguments and
whose edges are attacks. Arguments are identified by text names at the
boundary and by dense integer indices internally; declaration order fixes
the index order and every canonical ordering downstream.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterable, Iterator, Optional, Sequence, Union


class ArgsolveError(Exception):
    """Base class for every error raised by this library."""


class EmptyName(ArgsolveError):
    """An argument was declared with an empty name."""


class InvalidName(ArgsolveError):
    """An argument name that TGF, APX, DOT or a rendered set cannot delimit."""

    def __init__(self, name: str):
        super().__init__(
            f"invalid argument name {name!r}: a name may not be '#' or contain "
            "whitespace or any of , [ ] ( ) \" \\ %"
        )
        self.name = name


class DuplicateArgument(ArgsolveError):
    """The same argument name was declared twice in one framework."""

    def __init__(self, name: str):
        super().__init__(f"duplicate argument name: {name!r}")
        self.name = name


class UnknownEndpoint(ArgsolveError):
    """An attack endpoint does not appear among the declared arguments."""

    def __init__(self, name: str):
        super().__init__(f"attack endpoint is not a declared argument: {name!r}")
        self.name = name


class UnknownArgument(ArgsolveError):
    """A query referred to an argument the framework does not contain."""

    def __init__(self, name: str):
        super().__init__(f"unknown argument: {name!r}")
        self.name = name


class FrameworkMismatch(ArgsolveError):
    """An argument set was used with a framework other than its own."""


@dataclass(frozen=True)
class ArgumentId:
    """Handle for one argument: dense 0-based index plus its unique name."""

    index: int
    name: str

    def __repr__(self) -> str:
        return f"ArgumentId({self.index}, {self.name!r})"


_UNWRITABLE = re.compile(r'[\s,\[\]()"\\%]')


def _iter_bits(mask: int) -> Iterator[int]:
    """Yield the set bit positions of ``mask`` in ascending order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _render(framework: "Framework", mask: int) -> str:
    """Member names of ``mask`` in declaration order, as ``[n1,n2,...]``.

    This is both how a set prints and the key of the canonical order of
    extension lists. Each nonzero 8-bit chunk renders once per framework: its
    names, comma-joined, are memoised in ``_chunk_names`` as ``chunk << 8 | byte``.
    """
    memo, parts, base = framework._chunk_names, [], 0
    while mask:
        byte = mask & 255
        if byte:
            try:
                parts.append(memo[base | byte])
            except KeyError:  # the chunk's first argument has index chunk * 8 == base >> 5
                block = framework.arguments[base >> 5 : (base >> 5) + 8]
                text = memo[base | byte] = ",".join(block[i].name for i in _iter_bits(byte))
                parts.append(text)
        mask >>= 8
        base += 256
    return f"[{','.join(parts)}]"


def _two_slot_constructor(cls):
    """``cls(first, second)`` for a frozen slotted dataclass, skipping its ``__init__``."""
    new = object.__new__
    set_first, set_second = (getattr(cls, name).__set__ for name in cls.__slots__)

    def make(first, second):
        record = new(cls)
        set_first(record, first)
        set_second(record, second)
        return record

    return make


class Framework:
    """Immutable finite digraph of arguments and attacks.

    The attack relation is stored once, as bit masks in both directions:
    ``successors(a)`` is the set of arguments attacked by ``a`` and
    ``predecessors(a)`` the set attacking it. Duplicate attack pairs
    collapse silently; duplicate argument names are an error. Instances
    are safe to share across threads once constructed: the rendering memo
    only gains entries, each the same text whichever thread writes it, and
    the coloured SCCs, memoised in ``_sccs``, are the same whichever thread stores them.
    """

    __slots__ = (
        "arguments",
        "_name_to_index",
        "_succ_masks",
        "_pred_masks",
        "_full_mask",
        "_self_loop_mask",
        "_chunk_names",
        "_sccs",
    )

    def __init__(self, names: Sequence[str], attack_pairs: Iterable[tuple[str, str]]):
        name_to_index: dict[str, int] = {}
        arguments = []
        for index, name in enumerate(names):
            if name == "":
                raise EmptyName("argument names must be nonempty")
            if name == "#" or _UNWRITABLE.search(name):
                raise InvalidName(name)
            if name in name_to_index:
                raise DuplicateArgument(name)
            name_to_index[name] = index
            arguments.append(ArgumentId(index, name))

        n = len(arguments)
        succ = [0] * n
        pred = [0] * n
        for src, dst in attack_pairs:
            if src not in name_to_index:
                raise UnknownEndpoint(src)
            if dst not in name_to_index:
                raise UnknownEndpoint(dst)
            i, j = name_to_index[src], name_to_index[dst]
            succ[i] |= 1 << j
            pred[j] |= 1 << i

        self.arguments: tuple[ArgumentId, ...] = tuple(arguments)
        self._name_to_index = name_to_index
        self._succ_masks = tuple(succ)
        self._pred_masks = tuple(pred)
        self._full_mask = (1 << n) - 1
        self._self_loop_mask = sum(1 << i for i in range(n) if succ[i] >> i & 1)
        self._chunk_names: dict[int, str] = {}
        self._sccs: Optional[dict[int, int]] = None

    def __len__(self) -> int:
        return len(self.arguments)

    def __repr__(self) -> str:
        return f"<Framework |A|={len(self)} |R|={sum(map(int.bit_count, self._succ_masks))}>"

    @property
    def attacks(self) -> frozenset[tuple[ArgumentId, ArgumentId]]:
        """The attack pairs, built anew from the masks on every read."""
        arguments = self.arguments
        return frozenset(
            (a, arguments[j]) for a, targets in zip(arguments, self._succ_masks)
            for j in _iter_bits(targets)
        )

    def argument(self, name: str) -> ArgumentId:
        """Resolve a name to its ArgumentId, raising UnknownArgument."""
        try:
            return self.arguments[self._name_to_index[name]]
        except KeyError:
            raise UnknownArgument(name) from None

    def resolve(self, arg: Union[ArgumentId, str]) -> ArgumentId:
        """Accept an ArgumentId of this framework or a name; anything else is a TypeError."""
        if isinstance(arg, str):
            return self.argument(arg)
        if not isinstance(arg, ArgumentId):
            raise TypeError(f"an argument is a name (str) or an ArgumentId, not {arg!r}")
        if not 0 <= arg.index < len(self.arguments) or self.arguments[arg.index] != arg:
            raise UnknownArgument(arg.name)
        return arg

    def has_attack(self, src: Union[ArgumentId, str], dst: Union[ArgumentId, str]) -> bool:
        a, b = self.resolve(src), self.resolve(dst)
        return bool(self._succ_masks[a.index] >> b.index & 1)

    def successors(self, arg: Union[ArgumentId, str]) -> "ArgSet":
        """Arguments attacked by ``arg``."""
        return ArgSet(self, self._succ_masks[self.resolve(arg).index])

    def predecessors(self, arg: Union[ArgumentId, str]) -> "ArgSet":
        """Arguments attacking ``arg``."""
        return ArgSet(self, self._pred_masks[self.resolve(arg).index])

    def empty_set(self) -> "ArgSet":
        return ArgSet(self, 0)

    def full_set(self) -> "ArgSet":
        return ArgSet(self, self._full_mask)

    def set_of(self, members: Iterable[Union[ArgumentId, str]]) -> "ArgSet":
        """Build the subset of this framework holding the given members."""
        mask = 0
        for member in members:
            mask |= 1 << self.resolve(member).index
        return ArgSet(self, mask)

    def structurally_equal(self, other: "Framework") -> bool:
        """Same argument names in the same order and the same attack pairs."""
        return (
            tuple(a.name for a in self.arguments) == tuple(a.name for a in other.arguments)
            and self._succ_masks == other._succ_masks
        )


@dataclass(frozen=True, slots=True)
class ArgSet:
    """A subset of one framework's arguments, stored as a bit mask.

    Set operations are only defined between sets tagged with the same
    framework; mixing frameworks raises FrameworkMismatch.
    """

    framework: Framework
    mask: int

    def __post_init__(self) -> None:
        if not isinstance(self.mask, int):
            raise TypeError(f"mask must be an int, not {type(self.mask).__name__}")
        if not 0 <= self.mask <= self.framework._full_mask:
            raise ValueError(f"mask {self.mask} has bits beyond {len(self.framework)} arguments")

    def _require_same(self, other: "ArgSet") -> None:
        if self.framework is not other.framework:
            raise FrameworkMismatch("argument sets belong to different frameworks")

    def __or__(self, other: "ArgSet") -> "ArgSet":
        self._require_same(other)
        return ArgSet(self.framework, self.mask | other.mask)

    def __and__(self, other: "ArgSet") -> "ArgSet":
        self._require_same(other)
        return ArgSet(self.framework, self.mask & other.mask)

    def __sub__(self, other: "ArgSet") -> "ArgSet":
        self._require_same(other)
        return ArgSet(self.framework, self.mask & ~other.mask)

    def __le__(self, other: "ArgSet") -> bool:
        self._require_same(other)
        return self.mask & ~other.mask == 0

    def __lt__(self, other: "ArgSet") -> bool:
        return self <= other and self.mask != other.mask

    def __contains__(self, arg: Union[ArgumentId, str]) -> bool:
        resolved = self.framework.resolve(arg)
        return bool(self.mask >> resolved.index & 1)

    def __iter__(self) -> Iterator[ArgumentId]:
        arguments = self.framework.arguments
        return (arguments[i] for i in _iter_bits(self.mask))

    def __len__(self) -> int:
        return self.mask.bit_count()

    def __bool__(self) -> bool:
        return self.mask != 0

    def complement(self) -> "ArgSet":
        return ArgSet(self.framework, self.framework._full_mask & ~self.mask)

    def names(self) -> tuple[str, ...]:
        """Member names in declaration order."""
        return tuple(a.name for a in self)

    def __str__(self) -> str:
        return _render(self.framework, self.mask)

    def __repr__(self) -> str:
        return f"ArgSet{str(self)}"


_argset = _two_slot_constructor(ArgSet)


def build_framework(
    names: Sequence[str], attack_pairs: Iterable[tuple[str, str]]
) -> Framework:
    """Construct a framework from argument names and attack pairs.

    Declaration order is preserved and defines the canonical argument
    order. Attack endpoints must be declared names.
    """
    return Framework(names, attack_pairs)


def _require_tagged(framework: Framework, members: ArgSet) -> None:
    if members.framework is not framework:
        raise FrameworkMismatch("argument set is tagged with a different framework")


def _forward_mask(framework: Framework, mask: int) -> int:
    succ = framework._succ_masks
    out = 0
    for i in _iter_bits(mask):
        out |= succ[i]
    return out


def _backward_mask(framework: Framework, mask: int) -> int:
    pred = framework._pred_masks
    out = 0
    for i in _iter_bits(mask):
        out |= pred[i]
    return out


def _finishing_order(framework: Framework) -> list[int]:
    """The arguments in the order a depth-first search along the attacks finishes them,
    roots and successors lowest first, on a stack (Kosaraju and Sharir's first sweep)."""
    succ = framework._succ_masks
    unseen = framework._full_mask
    order: list[int] = []
    while unseen:
        low = unseen & -unseen
        unseen ^= low
        stack = [low.bit_length() - 1]
        while stack:
            ahead = succ[stack[-1]] & unseen
            if ahead:
                low = ahead & -ahead
                unseen ^= low
                stack.append(low.bit_length() - 1)
            else:
                order.append(stack.pop())
    return order


def _weak_components(framework: Framework) -> list[list[int]]:
    """Each weakly connected component's SCCs, sources first."""
    succ, pred = framework._succ_masks, framework._pred_masks
    components: list[list[int]] = []
    owner: list[list[int]] = [[]] * len(succ)  # each argument's component's SCCs
    unseen = framework._full_mask
    while unseen:
        component = frontier = unseen & -unseen
        sccs: list[int] = []
        while frontier:
            i = frontier.bit_length() - 1
            owner[i] = sccs
            reached = (succ[i] | pred[i]) & ~component
            component |= reached
            frontier = frontier ^ 1 << i | reached
        unseen &= ~component
        components.append(sccs)
    for scc in _scc_order(framework):  # one pass: each SCC joins its lowest member's
        owner[(scc & -scc).bit_length() - 1].append(scc)
    return components


def _scc_order(framework: Framework) -> dict[int, int]:
    """Every SCC, sources first, as a dict ``members: odd`` of masks; made once, in ``_sccs``.

    Each root not yet placed, in reverse finishing order, begins a source SCC of the arguments
    left: those that reach it. One parity breadth-first sweep against the attacks finds them
    and ``odd``, those that reach the root by an odd walk: all of them when the SCC holds an
    odd closed walk, else ``odd`` and ``members & ~odd`` 2-colour it, each inner attack
    crossing colours. ``structure._controversial_mask`` alone reads the SCCs sinks first.
    """
    if framework._sccs is None:
        sources_first, left = [], framework._full_mask
        for root in reversed(_finishing_order(framework)):
            frontier = 1 << root
            if frontier & left:
                reached, parity = [frontier, 0], 0  # reaching the root by an even, an odd walk
                while frontier:
                    parity ^= 1
                    frontier = _backward_mask(framework, frontier) & left & ~reached[parity]
                    reached[parity] |= frontier
                members = reached[0] | reached[1]
                left &= ~members
                sources_first.append((members, reached[1]))
        framework._sccs = dict(sources_first)
    return framework._sccs


def forward_set(framework: Framework, members: ArgSet) -> ArgSet:
    """All arguments attacked by some member of the set."""
    _require_tagged(framework, members)
    return ArgSet(framework, _forward_mask(framework, members.mask))


def backward_set(framework: Framework, members: ArgSet) -> ArgSet:
    """All arguments attacking some member of the set."""
    _require_tagged(framework, members)
    return ArgSet(framework, _backward_mask(framework, members.mask))


def unattacked(framework: Framework) -> ArgSet:
    """The arguments with no attacker at all: n(A), what the whole set leaves unattacked."""
    full = framework._full_mask
    return ArgSet(framework, full & ~_forward_mask(framework, full))


def self_attackers(framework: Framework) -> ArgSet:
    """The arguments that attack themselves."""
    return ArgSet(framework, framework._self_loop_mask)
