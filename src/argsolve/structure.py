"""Structural and meta-semantic classification of a framework.

Cycle and controversy queries work on walk parity: a reachability closure
over (argument, parity) pairs answers whole-framework queries. "Path"
here means walk, repeats allowed: a self-loop traversed twice is an even
walk, which is exactly how controversy behaves. The well-foundedness and
limited-controversy predicates implement the finite specialisations
(acyclicity, absence of odd cycles); they are only meaningful for the
finite frameworks this library represents.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from math import prod
from operator import and_, or_
from typing import Optional, Union

from .core import ArgSet, ArgumentId, Framework, _components, _forward_mask, _iter_bits
from .semantics import SemanticsKind, TooLarge, _factors, grounded


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
    """Components as index lists, sinks first."""
    return _components([list(_iter_bits(mask)) for mask in framework._succ_masks])


def _parity_closure(framework: Framework) -> tuple[list[int], bool]:
    """For each argument ``a``, every (argument, walk parity) it reaches.

    Bit ``w`` of entry ``a`` is set when a walk of even length leads from
    ``a`` to ``w`` (the empty walk counts, so bit ``a`` always is); bit
    ``n + w`` when a walk of odd length does. Node ``w + p*n`` of the
    parity-doubled graph is argument ``w`` at walk parity ``p``; its
    components come sinks first, so each one takes its members' bits and
    the finished masks of the components its edges lead to. A cycle of k
    attacks doubles into one of k or 2k nodes, so the second value, whether
    some component has two members, says whether the framework has a cycle.
    """
    n = len(framework.arguments)
    succ = [list(_iter_bits(mask)) for mask in framework._succ_masks]
    doubled = [[w + n for w in targets] for targets in succ] + succ
    reach = [0] * (2 * n)
    components = _components(doubled)
    for component in components:
        mask = 0
        for node in component:
            mask |= 1 << node
            for nxt in doubled[node]:
                mask |= reach[nxt]
        for node in component:
            reach[node] = mask
    return reach[:n], len(components) < 2 * n


def _has_odd_closed_walk(closure: list[int]) -> bool:
    return any(reach >> (len(closure) + a) & 1 for a, reach in enumerate(closure))


def _controversial_mask(closure: list[int]) -> int:
    """Arguments reaching some argument by both an even and an odd walk."""
    return sum(1 << a for a, reach in enumerate(closure) if reach & reach >> len(closure))


def has_directed_cycle(framework: Framework) -> bool:
    """True when some directed cycle (including a self-loop) exists."""
    if framework._self_loop_mask:
        return True
    return any(len(c) > 1 for c in strongly_connected_components(framework))


def odd_cycle_exists(framework: Framework) -> bool:
    """True when some simple directed cycle of odd length exists.

    A closed walk of odd length decomposes into simple cycles whose
    lengths sum to it, so an odd closed walk forces an odd simple cycle;
    the converse is immediate. So this asks the parity closure whether
    some argument reaches itself by an odd walk.
    """
    return _has_odd_closed_walk(_parity_closure(framework)[0])


def even_cycle_exists(framework: Framework) -> bool:
    """True when some simple directed cycle of even length exists.

    Unlike the odd case, even closed walks do not force even simple cycles
    (two odd cycles sharing a node give even walks). Each strongly
    connected component is first checked for a mutual attack, which is a
    simple cycle of length 2; then for being one directed cycle, which it is
    when its k arguments carry exactly k attacks among them, and which
    answers by the parity of k. Any other component falls back to a
    depth-first search over simple paths from each of its arguments,
    smallest index first, that stops at the first even cycle; that search
    is exponential on large sparse components.
    """
    succ, pred = framework._succ_masks, framework._pred_masks
    for component in strongly_connected_components(framework):
        if len(component) < 2:
            continue  # a single node can only carry an odd (length-1) cycle
        if any(succ[i] & pred[i] & ~(1 << i) for i in component):
            return True  # a mutual attack
        inside = sum(1 << i for i in component)
        if sum((succ[i] & inside).bit_count() for i in component) == len(component):
            if len(component) % 2 == 0:
                return True  # one directed cycle, of even length
            continue  # one directed cycle, of odd length
        for start in _iter_bits(inside):
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
    return ArgSet(framework, _controversial_mask(_parity_closure(framework)[0]))


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
    closure, cyclic = _parity_closure(framework)
    odd = _has_odd_closed_walk(closure)
    grounded_mask = grounded(framework).members.mask

    coherent: Optional[bool]
    relatively_grounded: Optional[bool]
    covers: Optional[bool]
    coincide: Optional[bool]
    counts: Optional[dict[SemanticsKind, int]]
    try:
        factors = {kind: _factors(framework, kind, max_args) for kind in SemanticsKind}
        counts = {kind: prod(map(len, f)) for kind, f in factors.items()}
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
        has_even_cycle=cyclic and even_cycle_exists(framework),
        is_controversial=_controversial_mask(closure) != 0,
        is_limited_controversial=not odd,
        grounded_size=grounded_mask.bit_count(),
        is_coherent=coherent,
        is_relatively_grounded=relatively_grounded,
        preferred_covers_all=covers,
        all_dung_semantics_coincide=coincide,
        extension_counts=counts,
    )
