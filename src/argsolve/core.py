"""Finite argumentation frameworks: arguments, attacks, and argument sets.

A framework is an immutable directed graph whose nodes are arguments and
whose edges are attacks. Arguments are identified by text names at the
boundary and by dense integer indices internally; declaration order fixes
the index order and every canonical ordering downstream.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence, Union


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
    extension lists.
    """
    arguments = framework.arguments
    names = []
    while mask:
        low = mask & -mask
        names.append(arguments[low.bit_length() - 1].name)
        mask ^= low
    return "[" + ",".join(names) + "]"


class Framework:
    """Immutable finite digraph of arguments and attacks.

    Stores adjacency in both directions: ``successors(a)`` is the set of
    arguments attacked by ``a`` and ``predecessors(a)`` the set attacking
    it. Duplicate attack pairs collapse silently (the attack relation is a
    set); duplicate argument names are an error. Instances are safe to
    share across threads once constructed.
    """

    __slots__ = (
        "arguments",
        "attacks",
        "_name_to_index",
        "_succ_masks",
        "_pred_masks",
        "_full_mask",
        "_self_loop_mask",
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
        loops = 0
        for src, dst in attack_pairs:
            if src not in name_to_index:
                raise UnknownEndpoint(src)
            if dst not in name_to_index:
                raise UnknownEndpoint(dst)
            i, j = name_to_index[src], name_to_index[dst]
            succ[i] |= 1 << j
            pred[j] |= 1 << i
            if i == j:
                loops |= 1 << i

        self.arguments: tuple[ArgumentId, ...] = tuple(arguments)
        self.attacks: frozenset[tuple[ArgumentId, ArgumentId]] = frozenset(
            (self.arguments[i], self.arguments[j])
            for i in range(n)
            for j in _iter_bits(succ[i])
        )
        self._name_to_index = name_to_index
        self._succ_masks = tuple(succ)
        self._pred_masks = tuple(pred)
        self._full_mask = (1 << n) - 1
        self._self_loop_mask = loops

    def __len__(self) -> int:
        return len(self.arguments)

    def __repr__(self) -> str:
        return f"<Framework |A|={len(self.arguments)} |R|={len(self.attacks)}>"

    def argument(self, name: str) -> ArgumentId:
        """Resolve a name to its ArgumentId, raising UnknownArgument."""
        try:
            return self.arguments[self._name_to_index[name]]
        except KeyError:
            raise UnknownArgument(name) from None

    def resolve(self, arg: Union[ArgumentId, str]) -> ArgumentId:
        """Accept an ArgumentId of this framework or a name; validate it."""
        if isinstance(arg, str):
            return self.argument(arg)
        known = self.arguments[arg.index] if 0 <= arg.index < len(self.arguments) else None
        if known != arg:
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


@dataclass(frozen=True)
class ArgSet:
    """A subset of one framework's arguments, stored as a bit mask.

    Set operations are only defined between sets tagged with the same
    framework; mixing frameworks raises FrameworkMismatch.
    """

    framework: Framework
    mask: int

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


def forward_set(framework: Framework, members: ArgSet) -> ArgSet:
    """All arguments attacked by some member of the set."""
    _require_tagged(framework, members)
    return ArgSet(framework, _forward_mask(framework, members.mask))


def backward_set(framework: Framework, members: ArgSet) -> ArgSet:
    """All arguments attacking some member of the set."""
    _require_tagged(framework, members)
    return ArgSet(framework, _backward_mask(framework, members.mask))


def unattacked(framework: Framework) -> ArgSet:
    """The arguments with no attacker at all."""
    pred = framework._pred_masks
    mask = 0
    for i in range(len(framework.arguments)):
        if pred[i] == 0:
            mask |= 1 << i
    return ArgSet(framework, mask)


def self_attackers(framework: Framework) -> ArgSet:
    """The arguments that attack themselves."""
    return ArgSet(framework, framework._self_loop_mask)


def induced_subframework(framework: Framework, members: ArgSet) -> Framework:
    """Restrict the framework to the given arguments.

    The result keeps the original declaration order and drops every attack
    with an endpoint outside the restriction.
    """
    _require_tagged(framework, members)
    names = [a.name for a in framework.arguments]
    pairs = [
        (names[i], names[j])
        for i in _iter_bits(members.mask)
        for j in _iter_bits(framework._succ_masks[i] & members.mask)
    ]
    return Framework(members.names(), pairs)
