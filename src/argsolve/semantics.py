"""Extension families and justification queries.

Every searched family comes from one depth-first search over a list of
SCCs, ``_search_masks``, which takes its pruning from the family's
definition: conflict-free, self-defending, or both. ``_layout`` states what
the list must hold. The search walks it sources first; complete, preferred
and stable are tested as each SCC closes, so a chain of SCCs prunes at
every boundary; preferred, a maximal admissible set, needs no filter
afterwards, and grounded needs no search. Every definition looks only at
an argument's attackers, so a family is the product of the families of
the weakly connected components, each searched over its own SCCs.

Families are kept as their components' factors, each a list of unordered
bit masks (``_factors``), read without expanding the product; conflict-free,
self-defending and admissible sets are counted by ``_count_masks`` instead.
``enumerate_extensions`` is the one place that expands the product, and the
one place that orders a family: lexicographically by each set's rendering
``[n1,n2,...]``, members in declaration order.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Optional, Union

from .core import (
    ArgSet,
    ArgsolveError,
    ArgumentId,
    Framework,
    _argset,
    _backward_mask,
    _forward_mask,
    _iter_bits,
    _render,
    _require_tagged,
    _two_slot_constructor,
    _weak_components,
)
from .operators import _defence_mask, _grounded_labelling, _neutrality_mask

DEFAULT_MAX_ARGS = 24


class TooLarge(ArgsolveError):
    """The framework exceeds the enumeration bound."""

    def __init__(self, argument_count: int, bound: int):
        super().__init__(
            f"framework has {argument_count} arguments, enumeration bound is "
            f"{bound}; raise the bound explicitly to proceed"
        )
        self.argument_count = argument_count
        self.bound = bound


class SemanticsKind(Enum):
    """The named families of argument sets."""

    CONFLICT_FREE = "conflict-free"
    NAIVE = "naive"
    SELF_DEFENDING = "self-defending"
    ADMISSIBLE = "admissible"
    COMPLETE = "complete"
    PREFERRED = "preferred"
    STABLE = "stable"
    GROUNDED = "grounded"


@dataclass(frozen=True, slots=True)
class Extension:
    """An argument set certified under a named semantics."""

    members: ArgSet
    kind: SemanticsKind


_extension = _two_slot_constructor(Extension)


@dataclass(frozen=True)
class JustificationStatus:
    """Acceptance verdict for one argument under one semantics."""

    argument: ArgumentId
    semantics: SemanticsKind
    credulous: bool
    sceptical: bool

    @property
    def overruled(self) -> bool:
        return not self.credulous


def is_conflict_free(framework: Framework, members: ArgSet) -> bool:
    """No member attacks a member."""
    _require_tagged(framework, members)
    return _forward_mask(framework, members.mask) & members.mask == 0


def is_self_defending(framework: Framework, members: ArgSet) -> bool:
    """Every attacker of the set is attacked by the set."""
    _require_tagged(framework, members)
    fwd = _forward_mask(framework, members.mask)
    return _backward_mask(framework, members.mask) & ~fwd == 0


def is_admissible(framework: Framework, members: ArgSet) -> bool:
    """Conflict-free and self-defending."""
    return is_conflict_free(framework, members) and is_self_defending(framework, members)


def is_complete(framework: Framework, members: ArgSet) -> bool:
    """Conflict-free and exactly the arguments the set defends."""
    mask = members.mask
    return is_conflict_free(framework, members) and _defence_mask(framework, mask) == mask


def is_stable(framework: Framework, members: ArgSet) -> bool:
    """The set is exactly what it leaves unattacked."""
    _require_tagged(framework, members)
    return _neutrality_mask(framework, members.mask) == members.mask


def grounded(framework: Framework) -> Extension:
    """The least fixed point of the defence operator; always unique."""
    in_mask, _ = _grounded_labelling(framework)
    return Extension(_argset(framework, in_mask), SemanticsKind.GROUNDED)


def _layout(framework: Framework, sccs: list[int]) -> tuple:
    """Both engines' one input: ``sccs``, each after its attackers' SCCs and together holding
    their members' attackers, so an engine finds the family of the framework cut down to them,
    in its bits. The positions are their arguments in that order; ``closes[k]`` is the SCC
    position k - 1 ends, else 0; ``unanswerable[k]`` is every argument no position >= k attacks."""
    positions, closes = [], [0]
    for scc in sccs:
        positions += _iter_bits(scc)
        closes += [0] * (scc.bit_count() - 1) + [scc]
    succ, unanswerable = framework._succ_masks, [-1] * (len(positions) + 1)
    for k in range(len(positions) - 1, -1, -1):
        unanswerable[k] = unanswerable[k + 1] & ~succ[positions[k]]
    return positions, closes, unanswerable


def _count_masks(framework: Framework, kind: SemanticsKind, sccs: list[int]) -> int:
    """How many conflict-free, self-defending or admissible sets ``_search_masks`` finds.

    A dynamic program over the same positions counts the prefixes reaching each state:
    the later positions a prefix blocks, its attacks on their attackers and its attackers
    not yet attacked, each kept where the kind tests it. One state's prefixes have as many
    completions, so each step merges them; a state dies where the search's branch would.
    A component ends in the empty state alone, so several count as their product.
    """
    positions, _, unanswerable = _layout(framework, sccs)
    succ, pred = framework._succ_masks, framework._pred_masks
    blocks = 0 if kind is SemanticsKind.SELF_DEFENDING else -1  # the kind tests conflicts
    opens = 0 if kind is SemanticsKind.CONFLICT_FREE else -1  # the kind tests defence
    loops = framework._self_loop_mask & blocks
    ahead = [(0, 0)]  # last first: the later positions and their attackers
    for i in reversed(positions[1:]):
        later, attackers = ahead[-1]
        ahead.append((later | 1 << i & blocks, attackers | pred[i] & opens))
    counts = {(0, 0, 0): 1}
    for k, i in enumerate(positions, 1):
        (later, attackers), unattacked = ahead.pop(), unanswerable[k]
        bit, attacks, attacked_by = 1 << i, succ[i], pred[i]
        step: dict[tuple[int, int, int], int] = {}
        for (blocked, fwd, open_), count in counts.items():
            if not open_ & unattacked:
                key = (blocked & later, fwd & attackers, open_)
                step[key] = step.get(key, 0) + count
            if not (blocked | loops) & bit:
                open_ = (open_ | attacked_by & ~fwd) & ~attacks & opens
                if not open_ & unattacked:
                    blocked |= attacks | attacked_by
                    key = (blocked & later, (fwd | attacks) & attackers, open_)
                    step[key] = step.get(key, 0) + count
        counts = step
    return sum(counts.values())


def _search_masks(framework: Framework, kind: SemanticsKind, sccs: list[int]) -> list[int]:
    """DFS over the positions ``_layout`` makes of ``sccs``, pruned and tested as ``kind`` says.

    Every kind but self-defending is conflict-free: a branch may not add an
    argument that attacks, or is attacked by, itself or the current set.
    Every kind but conflict-free and naive defends itself: a branch dies as
    soon as some current attacker can never be counterattacked by any
    argument still undecided, which at a leaf is exactly self-defence.

    Every kind goes SCC by SCC, sources first. Complete, preferred and
    stable test each SCC once its last argument is decided. The decided
    prefix U holds its members' attackers, so the attacker test says
    ``cur`` is admissible in the framework cut down to U, and nothing
    undecided attacks or defends a member of U. Cut down to U, an extension
    of these kinds is one of the same kind (directionality, Baroni and
    Giacomin 2007), so each test is exact, and together they are the leaf
    test: complete fails if a member left out is defended, stable if one is
    not attacked. Naive is not directional, so it fails only at the leaf,
    if a member left out could join. Preferred fails a set inside one
    kept at the same SCC, as include-first order finds admissible supersets
    first; a set kept under another, hence incomparable, preferred prefix
    never contains ``cur``, so the list empties when the SCC before accepts.
    The search is one loop over a stack of pending branches, not recursion.
    """
    loops, attackers = framework._self_loop_mask, framework._pred_masks
    conflict_free = kind is not SemanticsKind.SELF_DEFENDING
    defends = kind is not SemanticsKind.CONFLICT_FREE and kind is not SemanticsKind.NAIVE
    naive = kind is SemanticsKind.NAIVE
    complete = kind is SemanticsKind.COMPLETE
    stable = kind is SemanticsKind.STABLE
    preferred = kind is SemanticsKind.PREFERRED
    if not sccs:  # the framework cut down to nothing has one set, the empty one
        return [0]
    positions, closes, unanswerable = _layout(framework, sccs)
    n, scope = len(positions), sum(sccs)  # the SCCs are disjoint
    bits = [1 << i for i in positions]
    succ = [framework._succ_masks[i] for i in positions]
    pred = [framework._pred_masks[i] for i in positions]
    kept = [[] for _ in closes] if preferred else []  # the sets kept at an SCC, by its first position
    results: list[int] = []

    # a branch (index, cur, fwd, bwd) goes on by including ``index`` and stacks the one
    # excluding it, so of two leaves the one holding the first index they differ in comes first
    stack = [(0, 0, 0, 0)]
    while stack:
        index, cur, fwd, bwd = stack.pop()
        while not (defends and bwd & ~fwd & unanswerable[index]):
            closed = closes[index]
            if closed:
                if complete:  # a member cur attacks is undefended, as cur is conflict-free
                    if any(not attackers[i] & ~fwd for i in _iter_bits(closed & ~(cur | fwd))):
                        break
                elif stable:
                    if closed & ~(cur | fwd):
                        break
                elif preferred:  # kept unless a set kept at this SCC contains it
                    sets = kept[index - closed.bit_count()]
                    for other in sets:
                        if cur | other == other:
                            break
                    else:
                        sets.append(cur)
                    if sets[-1] != cur:  # the scan stopped at a superset
                        break
                    kept[index].clear()  # the next SCC starts here, under the prefix just accepted
                if index == n:  # naive is not directional: its maximality is tested only here
                    if not naive or scope & ~(cur | fwd | bwd | loops) == 0:
                        results.append(cur)
                    break
            if not (conflict_free and (fwd | bwd | loops) & bits[index]):
                stack.append((index + 1, cur, fwd, bwd))
                cur, fwd, bwd = cur | bits[index], fwd | succ[index], bwd | pred[index]
            index += 1
    return results


def _factors(
    framework: Framework, kind: SemanticsKind, max_args: Optional[int]
) -> list[list[int]]:
    """The family of ``kind`` as one list of masks per weakly connected component.

    An argument's attackers share its component, so the family is the product
    of the factors: every union of one mask from each. Grounded needs no search
    and is the one factor ``[[grounded mask]]``, exempt from the bound; above
    it a searched kind raises TooLarge. A negative bound, or a ``kind`` that is
    not a SemanticsKind, is a ValueError.
    """
    if max_args is not None and max_args < 0:
        raise ValueError(f"max_args must be nonnegative, got {max_args}")
    if not isinstance(kind, SemanticsKind):
        raise ValueError(f"unknown semantics kind: {kind!r}")
    if kind is SemanticsKind.GROUNDED:
        return [[grounded(framework).members.mask]]
    bound = DEFAULT_MAX_ARGS if max_args is None else max_args
    if len(framework.arguments) > bound:
        raise TooLarge(len(framework.arguments), bound)
    return [_search_masks(framework, kind, sccs) for sccs in _weak_components(framework)]


def enumerate_extensions(
    framework: Framework,
    kind: SemanticsKind,
    *,
    max_args: Optional[int] = None,
) -> list[Extension]:
    """Enumerate every extension of the given kind, in canonical order.

    The canonical order sorts the rendered member lists lexicographically.
    The whole family is always returned; a caller wanting the first ``n``
    slices the list. The grounded kind is exempt from the enumeration bound
    because it needs no search.
    """
    masks = [0]
    for factor in _factors(framework, kind, max_args):
        masks = [mask | member for member in factor for mask in masks]
    masks.sort(key=lambda m: _render(framework, m))
    return [_extension(_argset(framework, m), kind) for m in masks]


_JUSTIFICATION_KINDS = (
    SemanticsKind.COMPLETE,
    SemanticsKind.PREFERRED,
    SemanticsKind.STABLE,
    SemanticsKind.GROUNDED,
)


def justification(
    framework: Framework,
    arg: Union[ArgumentId, str],
    semantics: SemanticsKind,
    max_args: Optional[int] = None,
) -> JustificationStatus:
    """Credulous and sceptical acceptance of one argument.

    Credulous: the argument sits in some extension of the semantics.
    Sceptical: extensions exist and the argument sits in all of them.
    With no stable extension, nothing is justified under stable semantics;
    under grounded semantics both modes coincide with membership in the
    grounded extension.
    """
    resolved = framework.resolve(arg)
    if semantics not in _JUSTIFICATION_KINDS:
        raise ValueError(
            f"justification is defined for {[k.value for k in _JUSTIFICATION_KINDS]}, "
            f"not {getattr(semantics, 'value', semantics)!r}"
        )
    bit = 1 << resolved.index
    factors = _factors(framework, semantics, max_args)
    # only the factor of the argument's component holds its bit; an empty
    # factor (stable) empties the whole family
    exists = all(factors)
    credulous = exists and any(mask & bit for factor in factors for mask in factor)
    sceptical = exists and any(all(mask & bit for mask in factor) for factor in factors)
    return JustificationStatus(resolved, semantics, credulous, sceptical)
