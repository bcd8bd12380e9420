"""Structural and meta-semantic classification of a framework.

Cycle and controversy queries work on walk parity: one reachability
closure over (argument, parity) pairs answers every odd/even query. "Path"
here means walk, repeats allowed: a self-loop traversed twice is an even
walk, which is exactly how controversy behaves. The well-foundedness and
limited-controversy predicates implement the finite specialisations
(acyclicity, absence of odd cycles); they are only meaningful for the
finite frameworks this library represents.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from operator import and_, or_
from typing import Optional, Union

from .core import ArgSet, ArgumentId, Framework, _iter_bits
from .semantics import SemanticsKind, TooLarge, _family_masks, grounded


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


def _components(succ: list[list[int]]) -> list[list[int]]:
    """Tarjan's algorithm, iterative; components come out sinks first.

    Every edge stays inside its component or leads to an earlier one.
    """
    n = len(succ)
    index_of = [-1] * n
    lowlink = [0] * n
    on_stack = [False] * n
    stack: list[int] = []
    components: list[list[int]] = []
    counter = 0

    for root in range(n):
        if index_of[root] != -1:
            continue
        work = [(root, 0)]
        while work:
            node, edge_pos = work.pop()
            if edge_pos == 0:
                index_of[node] = lowlink[node] = counter
                counter += 1
                stack.append(node)
                on_stack[node] = True
            advanced = False
            for pos in range(edge_pos, len(succ[node])):
                nxt = succ[node][pos]
                if index_of[nxt] == -1:
                    work.append((node, pos + 1))
                    work.append((nxt, 0))
                    advanced = True
                    break
                if on_stack[nxt]:
                    lowlink[node] = min(lowlink[node], index_of[nxt])
            if advanced:
                continue
            if lowlink[node] == index_of[node]:
                component = []
                while True:
                    member = stack.pop()
                    on_stack[member] = False
                    component.append(member)
                    if member == node:
                        break
                components.append(component)
            if work:
                parent = work[-1][0]
                lowlink[parent] = min(lowlink[parent], lowlink[node])
    return components


def strongly_connected_components(framework: Framework) -> list[list[int]]:
    """Components as index lists, sinks first."""
    return _components([list(_iter_bits(mask)) for mask in framework._succ_masks])


def _parity_closure(framework: Framework) -> list[int]:
    """For each argument ``a``, every (argument, walk parity) it reaches.

    Bit ``w`` of entry ``a`` is set when a walk of even length leads from
    ``a`` to ``w`` (the empty walk counts, so bit ``a`` always is); bit
    ``n + w`` when a walk of odd length does. Node ``w + p*n`` of the
    parity-doubled graph is argument ``w`` at walk parity ``p``; its
    components come sinks first, so each one takes its members' bits and
    the finished masks of the components its edges lead to.
    """
    n = len(framework.arguments)
    succ = [list(_iter_bits(mask)) for mask in framework._succ_masks]
    doubled = [[w + n for w in targets] for targets in succ] + succ
    reach = [0] * (2 * n)
    for component in _components(doubled):
        mask = 0
        for node in component:
            mask |= 1 << node
            for nxt in doubled[node]:
                mask |= reach[nxt]
        for node in component:
            reach[node] = mask
    return reach[:n]


def _has_odd_closed_walk(closure: list[int]) -> bool:
    n = len(closure)
    return any(reach >> (n + a) & 1 for a, reach in enumerate(closure))


def _controversial_mask(closure: list[int]) -> int:
    """Arguments reaching some argument by both an even and an odd walk."""
    n = len(closure)
    return sum(1 << a for a, reach in enumerate(closure) if reach & reach >> n)


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
    return _has_odd_closed_walk(_parity_closure(framework))


def even_cycle_exists(framework: Framework) -> bool:
    """True when some simple directed cycle of even length exists.

    Unlike the odd case, even closed walks do not force even simple cycles
    (two odd cycles sharing a node give even walks), so this enumerates
    simple cycles by depth-first search, stopping at the first even one.
    Cycles are searched within strongly connected components only, from
    each component's smallest index upward.
    """
    succ = framework._succ_masks
    for component in strongly_connected_components(framework):
        if len(component) < 2:
            continue  # a single node can only carry an odd (length-1) cycle
        inside = 0
        for i in component:
            inside |= 1 << i
        for start in _iter_bits(inside):
            allowed = inside & ~((1 << start) - 1)  # indices >= start only
            # stack of (node, depth, visited-mask); simple paths from start
            stack = [(start, 0, 1 << start)]
            while stack:
                node, depth, visited = stack.pop()
                for nxt in _iter_bits(succ[node] & allowed):
                    if nxt == start:
                        if (depth + 1) % 2 == 0:
                            return True
                        continue
                    bit = 1 << nxt
                    if visited & bit:
                        continue
                    stack.append((nxt, depth + 1, visited | bit))
    return False


def is_well_founded(framework: Framework) -> bool:
    """Finite frameworks are well-founded exactly when they are acyclic."""
    return not has_directed_cycle(framework)


def indirectly_attacks(
    framework: Framework, a: Union[ArgumentId, str], b: Union[ArgumentId, str]
) -> bool:
    """Whether an odd-length directed walk leads from ``a`` to ``b``."""
    src = framework.resolve(a)
    dst = framework.resolve(b)
    return bool(_parity_closure(framework)[src.index] >> (len(framework) + dst.index) & 1)


def indirectly_defends(
    framework: Framework, a: Union[ArgumentId, str], b: Union[ArgumentId, str]
) -> bool:
    """Whether an even-length directed walk leads from ``a`` to ``b``.

    The length-0 walk counts, so every argument indirectly defends itself.
    """
    src = framework.resolve(a)
    dst = framework.resolve(b)
    return bool(_parity_closure(framework)[src.index] >> dst.index & 1)


def is_controversial_wrt(
    framework: Framework, a: Union[ArgumentId, str], b: Union[ArgumentId, str]
) -> bool:
    """Whether ``a`` both indirectly attacks and indirectly defends ``b``."""
    src = framework.resolve(a)
    dst = framework.resolve(b)
    reach = _parity_closure(framework)[src.index]
    return bool(reach >> dst.index & reach >> (len(framework) + dst.index) & 1)


def controversial_arguments(framework: Framework) -> ArgSet:
    """All arguments controversial with respect to something."""
    return ArgSet(framework, _controversial_mask(_parity_closure(framework)))


def is_limited_controversial(framework: Framework) -> bool:
    """Finite equivalence: no odd directed cycle."""
    return not odd_cycle_exists(framework)


def _meet(framework: Framework, masks) -> int:
    """Intersection of a family of masks; the full set for an empty family."""
    return reduce(and_, masks, framework._full_mask)


def is_coherent(framework: Framework, max_args: Optional[int] = None) -> bool:
    """Whether the preferred and stable families are equal."""
    return set(_family_masks(framework, SemanticsKind.PREFERRED, max_args)) == set(
        _family_masks(framework, SemanticsKind.STABLE, max_args)
    )


def is_relatively_grounded(framework: Framework, max_args: Optional[int] = None) -> bool:
    """Whether the intersection of preferred extensions is the grounded one."""
    preferred = _family_masks(framework, SemanticsKind.PREFERRED, max_args)
    return _meet(framework, preferred) == grounded(framework).members.mask


def is_symmetric(framework: Framework) -> bool:
    """Nonempty attack relation equal to its own converse."""
    succ = framework._succ_masks
    return any(succ) and succ == framework._pred_masks


def classify(framework: Framework, max_args: Optional[int] = None) -> ClassificationReport:
    """Populate the full report; semantic fields go absent when too large."""
    acyclic = not has_directed_cycle(framework)
    closure = _parity_closure(framework)
    odd = _has_odd_closed_walk(closure)
    grounded_mask = grounded(framework).members.mask

    coherent: Optional[bool]
    relatively_grounded: Optional[bool]
    covers: Optional[bool]
    coincide: Optional[bool]
    counts: Optional[dict[SemanticsKind, int]]
    try:
        families = {
            kind: set(_family_masks(framework, kind, max_args)) for kind in SemanticsKind
        }
        counts = {kind: len(families[kind]) for kind in SemanticsKind}
        preferred = families[SemanticsKind.PREFERRED]
        stable = families[SemanticsKind.STABLE]
        coherent = preferred == stable
        relatively_grounded = _meet(framework, preferred) == grounded_mask
        covers = reduce(or_, preferred, 0) == framework._full_mask
        coincide = families[SemanticsKind.COMPLETE] == preferred == stable == {grounded_mask}
    except TooLarge:
        coherent = relatively_grounded = covers = coincide = None
        counts = None

    return ClassificationReport(
        is_empty=len(framework.arguments) == 0,
        is_trivial=len(framework.attacks) == 0,
        is_symmetric=is_symmetric(framework),
        is_finitary=True,
        has_self_attack=framework._self_loop_mask != 0,
        is_acyclic=acyclic,
        is_well_founded=acyclic,
        has_odd_cycle=odd,
        has_even_cycle=even_cycle_exists(framework),
        is_controversial=_controversial_mask(closure) != 0,
        is_limited_controversial=not odd,
        grounded_size=grounded_mask.bit_count(),
        is_coherent=coherent,
        is_relatively_grounded=relatively_grounded,
        preferred_covers_all=covers,
        all_dung_semantics_coincide=coincide,
        extension_counts=counts,
    )
