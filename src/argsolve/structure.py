"""Structural and meta-semantic classification of a framework.

Cycle and controversy queries read the SCCs, each 2-coloured along its
attacks or found to hold an odd closed walk, computed once per framework
(``core._scc_order``). "Path" here means walk, repeats allowed: a self-loop
traversed twice is an even walk, which is exactly how controversy behaves.
The well-foundedness and limited-controversy predicates implement the
finite specialisations (acyclicity, absence of odd cycles); they are only
meaningful for the finite frameworks this library represents.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from math import prod
from operator import and_, or_
from typing import Optional, Union

from .core import (
    ArgSet, ArgumentId, Framework, _forward_mask, _iter_bits, _scc_order, _weak_components
)
from .semantics import SemanticsKind, TooLarge, _count_masks, _factors, grounded


@dataclass(frozen=True)
class ClassificationReport:
    """Structural and semantic predicates of one framework.

    Semantic fields are None when the framework exceeds the enumeration
    bound; structural fields are always populated. Finite frameworks are
    always finitary, so that field is constant.
    """

    is_empty: bool
    is_trivial: bool
    is_symmetric: bool
    is_finitary: bool
    has_self_attack: bool
    is_acyclic: bool
    is_well_founded: bool
    has_odd_cycle: bool
    has_even_cycle: bool
    is_controversial: bool
    is_limited_controversial: bool
    grounded_size: int
    is_coherent: Optional[bool]
    is_relatively_grounded: Optional[bool]
    preferred_covers_all: Optional[bool]
    all_dung_semantics_coincide: Optional[bool]
    extension_counts: Optional[dict[SemanticsKind, int]]


def strongly_connected_components(framework: Framework) -> list[list[int]]:
    """Components as index lists, sinks first; members in ascending order."""
    return [list(_iter_bits(members)) for members in _scc_order(framework)]


def _controversial_mask(framework: Framework) -> int:
    """Arguments reaching some argument by both an even and an odd walk.

    ``reach[a]``: what ``a`` reaches by an even walk (the empty one counts)
    and by an odd one, filled SCC by SCC from the sinks up. A member of a
    2-coloured SCC outside ``odd`` reaches its members by colour and, through
    each attack u -> w leaving it, w's pair, swapped unless u is odd-coloured;
    members in ``odd`` take that pair swapped. An odd SCC reaches
    all it reaches at both parities. Its members are controversial when its
    two masks meet.
    """
    reach: list[tuple[int, int]] = [(0, 0)] * len(framework.arguments)
    out = 0
    for members, odd in _scc_order(framework).items():
        sides = (members & ~odd, odd)
        pair = list(sides)
        for colour, side in enumerate(sides):
            for w in _iter_bits(_forward_mask(framework, side) & ~members):
                pair[colour ^ 1] |= reach[w][0]
                pair[colour] |= reach[w][1]
        if odd == members:
            pair[0] = pair[1] = pair[0] | pair[1]
        if pair[0] & pair[1]:
            out |= members
        for colour, side in enumerate(sides):
            for v in _iter_bits(side):
                reach[v] = pair[colour], pair[colour ^ 1]
    return out


def has_directed_cycle(framework: Framework) -> bool:
    """True when some directed cycle (including a self-loop) exists: when some
    SCC member reaches the SCC's root by an odd walk, which closes one."""
    return any(_scc_order(framework).values())


def odd_cycle_exists(framework: Framework) -> bool:
    """True when some simple directed cycle of odd length exists.

    An odd closed walk splits into simple cycles whose lengths sum to its
    own, one of them odd; so this asks whether some SCC fails its 2-colouring.
    """
    return any(odd == members for members, odd in _scc_order(framework).items())


def even_cycle_exists(framework: Framework) -> bool:
    """True when some simple directed cycle of even length exists.

    Unlike the odd case, even closed walks do not force even simple cycles
    (two odd cycles sharing a node give even walks). A 2-coloured SCC of two
    or more arguments has cycles, all even. An SCC with an odd closed walk is
    checked for a mutual attack (a 2-cycle) and for being one odd cycle (k
    arguments, k attacks among them); any other falls back to a depth-first
    search over simple paths from each argument, smallest index first, that
    stops at the first even cycle: exponential on large sparse SCCs.
    """
    succ, pred = framework._succ_masks, framework._pred_masks
    sccs = _scc_order(framework)  # ``odd`` is nonzero exactly when the SCC has a cycle
    if any(odd and odd != inside for inside, odd in sccs.items()):
        return True  # a 2-coloured SCC with a cycle
    for inside in filter(None, sccs.values()):  # the rest with a cycle: odd == inside
        component = list(_iter_bits(inside))
        if any(succ[i] & pred[i] & ~(1 << i) for i in component):
            return True  # a mutual attack
        if sum((succ[i] & inside).bit_count() for i in component) == len(component):
            continue  # one directed cycle, of odd length
        for start in component:
            allowed = inside & ~((1 << start) - 1)  # indices >= start only
            # stack of (node, visited-mask); simple paths from start, and an
            # attack back to start closes a cycle of visited.bit_count() attacks
            stack = [(start, 1 << start)]
            while stack:
                node, visited = stack.pop()
                for nxt in _iter_bits(succ[node] & allowed):
                    if nxt == start:
                        if visited.bit_count() % 2 == 0:
                            return True
                        continue
                    bit = 1 << nxt
                    if visited & bit:
                        continue
                    stack.append((nxt, visited | bit))
    return False


def is_well_founded(framework: Framework) -> bool:
    """Finite frameworks are well-founded exactly when they are acyclic."""
    return not has_directed_cycle(framework)


_EVEN, _ODD = 1, 2  # bit ``1 << p`` stands for walk parity ``p``


def _has_walks(
    framework: Framework, a: Union[ArgumentId, str], b: Union[ArgumentId, str], parities: int
) -> bool:
    """Whether walks of every parity in ``parities`` lead from ``a`` to ``b``.

    A breadth-first search over (argument, walk parity) pairs from ``a`` at
    even parity, one layer per walk length, that stops once it has reached
    ``b`` at every parity asked for.
    """
    src, dst = framework.resolve(a).index, framework.resolve(b).index
    reached = [1 << src, 0]  # arguments reached by an even, an odd walk
    frontier, parity = 1 << src, 0
    while frontier:
        if frontier >> dst & 1:
            parities &= ~(1 << parity)
            if not parities:
                return True
        parity ^= 1
        frontier = _forward_mask(framework, frontier) & ~reached[parity]
        reached[parity] |= frontier
    return False


def indirectly_attacks(
    framework: Framework, a: Union[ArgumentId, str], b: Union[ArgumentId, str]
) -> bool:
    """Whether an odd-length directed walk leads from ``a`` to ``b``."""
    return _has_walks(framework, a, b, _ODD)


def indirectly_defends(
    framework: Framework, a: Union[ArgumentId, str], b: Union[ArgumentId, str]
) -> bool:
    """Whether an even-length directed walk leads from ``a`` to ``b``.

    The length-0 walk counts, so every argument indirectly defends itself.
    """
    return _has_walks(framework, a, b, _EVEN)


def is_controversial_wrt(
    framework: Framework, a: Union[ArgumentId, str], b: Union[ArgumentId, str]
) -> bool:
    """Whether ``a`` both indirectly attacks and indirectly defends ``b``."""
    return _has_walks(framework, a, b, _EVEN | _ODD)


def controversial_arguments(framework: Framework) -> ArgSet:
    """All arguments controversial with respect to something."""
    return ArgSet(framework, _controversial_mask(framework))


def is_limited_controversial(framework: Framework) -> bool:
    """Finite equivalence: no odd directed cycle."""
    return not odd_cycle_exists(framework)


def _preferred_meet(factors: list[list[int]]) -> int:
    """Intersection of the preferred product: each (nonempty) factor's, joined."""
    return reduce(or_, (reduce(and_, factor) for factor in factors), 0)


def is_coherent(framework: Framework, max_args: Optional[int] = None) -> bool:
    """Whether the preferred and stable families are equal: by Lemma 15, equally large."""
    preferred = _factors(framework, SemanticsKind.PREFERRED, max_args)
    stable = _factors(framework, SemanticsKind.STABLE, max_args)
    return prod(map(len, preferred)) == prod(map(len, stable))


def is_relatively_grounded(framework: Framework, max_args: Optional[int] = None) -> bool:
    """Whether the intersection of preferred extensions is the grounded one."""
    preferred = _factors(framework, SemanticsKind.PREFERRED, max_args)
    return _preferred_meet(preferred) == grounded(framework).members.mask


def is_symmetric(framework: Framework) -> bool:
    """Nonempty attack relation equal to its own converse."""
    succ = framework._succ_masks
    return any(succ) and succ == framework._pred_masks


def classify(framework: Framework, max_args: Optional[int] = None) -> ClassificationReport:
    """Populate the full report; semantic fields go absent when too large."""
    cyclic = has_directed_cycle(framework)
    odd = odd_cycle_exists(framework)
    grounded_mask = grounded(framework).members.mask

    coherent: Optional[bool]
    relatively_grounded: Optional[bool]
    covers: Optional[bool]
    coincide: Optional[bool]
    counts: Optional[dict[SemanticsKind, int]]
    counted = (SemanticsKind.CONFLICT_FREE, SemanticsKind.SELF_DEFENDING, SemanticsKind.ADMISSIBLE)
    try:  # _factors checks the bound before anything is counted
        factors = {k: _factors(framework, k, max_args) for k in SemanticsKind if k not in counted}
        sccs = [scc for component in _weak_components(framework) for scc in component]
        counts = {k: _count_masks(framework, k, sccs) if k in counted
                  else prod(map(len, factors[k])) for k in SemanticsKind}
        preferred = factors[SemanticsKind.PREFERRED]
        # Dung 1995: stable lies inside preferred (Lemma 15), so equal counts are equal
        # families; a sole complete extension is grounded (Thm 25) and the sole preferred
        # one (Cor 12), so a sole stable extension is that same set
        coherent = counts[SemanticsKind.PREFERRED] == counts[SemanticsKind.STABLE]
        relatively_grounded = _preferred_meet(preferred) == grounded_mask
        covers = reduce(or_, (mask for f in preferred for mask in f), 0) == framework._full_mask
        coincide = counts[SemanticsKind.COMPLETE] == counts[SemanticsKind.STABLE] == 1
    except TooLarge:
        coherent = relatively_grounded = covers = coincide = None
        counts = None

    return ClassificationReport(
        is_empty=len(framework.arguments) == 0,
        is_trivial=not any(framework._succ_masks),
        is_symmetric=is_symmetric(framework),
        is_finitary=True,
        has_self_attack=framework._self_loop_mask != 0,
        is_acyclic=not cyclic,
        is_well_founded=not cyclic,
        has_odd_cycle=odd,
        has_even_cycle=even_cycle_exists(framework),
        is_controversial=_controversial_mask(framework) != 0,
        is_limited_controversial=not odd,
        grounded_size=grounded_mask.bit_count(),
        is_coherent=coherent,
        is_relatively_grounded=relatively_grounded,
        preferred_covers_all=covers,
        all_dung_semantics_coincide=coincide,
        extension_counts=counts,
    )
