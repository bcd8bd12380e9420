"""Extension families and justification queries.

Every family is enumerated by a depth-first search over argument indices.
Branches that already violate conflict-freeness are discarded for the
conflict-free based families; self-defending sets use a threat check
instead, because they need not be conflict-free. Preferred extensions are
obtained by maximality filtering over the complete extensions, which is
never a larger family than the admissible sets.

The searches return unordered bit masks (``_family_masks``); queries that
only count or test membership read those directly. ``enumerate_extensions``
is the one place that orders a family: lexicographically by each set's
rendering ``[n1,n2,...]``, members in declaration order.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from enum import Enum
from typing import Optional, Union

from .core import (
    ArgSet,
    ArgsolveError,
    ArgumentId,
    Framework,
    _backward_mask,
    _forward_mask,
    _render,
    _require_tagged,
)
from .operators import kleene_least_fixpoint, _defence_mask, _neutrality_mask

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


class IncompleteEnumerationWarning(UserWarning):
    """Emitted when a result list was truncated by an explicit limit."""


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


@dataclass(frozen=True)
class Extension:
    """An argument set certified under a named semantics."""

    members: ArgSet
    kind: SemanticsKind


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
    _require_tagged(framework, members)
    mask = members.mask
    if _forward_mask(framework, mask) & mask != 0:
        return False
    return _defence_mask(framework, mask) == mask


def is_stable(framework: Framework, members: ArgSet) -> bool:
    """The set is exactly what it leaves unattacked."""
    _require_tagged(framework, members)
    return _neutrality_mask(framework, members.mask) == members.mask


def grounded(framework: Framework) -> Extension:
    """The least fixed point of the defence operator; always unique."""
    trace = kleene_least_fixpoint(framework)
    return Extension(trace.fixpoint, SemanticsKind.GROUNDED)


def _conflict_free_masks(framework: Framework, leaf: str) -> list[int]:
    """DFS over indices, pruning any branch that breaks conflict-freeness.

    ``leaf`` selects the test applied to each conflict-free leaf:
    every leaf (``cf``), maximality (``naive``), self-defence
    (``admissible``), defence fixpoint (``complete``) or neutrality
    fixpoint (``stable``).
    """
    n = len(framework.arguments)
    succ = framework._succ_masks
    pred = framework._pred_masks
    full = framework._full_mask
    loops = framework._self_loop_mask
    results: list[int] = []

    def recurse(index: int, cur: int, conflicted: int, fwd: int, bwd: int) -> None:
        if index == n:
            if leaf == "cf":
                results.append(cur)
            elif leaf == "naive":
                if full & ~(cur | conflicted | loops) == 0:
                    results.append(cur)
            elif leaf == "admissible":
                if bwd & ~fwd == 0:
                    results.append(cur)
            elif leaf == "complete":
                if _defence_mask(framework, cur) == cur:
                    results.append(cur)
            else:  # stable
                if full & ~fwd == cur:
                    results.append(cur)
            return
        recurse(index + 1, cur, conflicted, fwd, bwd)
        bit = 1 << index
        if conflicted & bit or loops & bit:
            return
        recurse(
            index + 1,
            cur | bit,
            conflicted | succ[index] | pred[index],
            fwd | succ[index],
            bwd | pred[index],
        )

    recurse(0, 0, 0, 0, 0)
    return results


def _self_defending_masks(framework: Framework) -> list[int]:
    """DFS over indices with a forward check on unanswerable attackers.

    A partial choice dies as soon as some current attacker can never be
    counterattacked by any argument still undecided.
    """
    n = len(framework.arguments)
    succ = framework._succ_masks
    pred = framework._pred_masks
    results: list[int] = []

    # suffix_attacks[k] = everything attackable using only indices >= k
    suffix_attacks = [0] * (n + 1)
    for k in range(n - 1, -1, -1):
        suffix_attacks[k] = suffix_attacks[k + 1] | succ[k]

    def recurse(index: int, cur: int, fwd: int, bwd: int) -> None:
        threats = bwd & ~fwd
        if threats & ~suffix_attacks[index]:
            return
        if index == n:
            results.append(cur)
            return
        recurse(index + 1, cur, fwd, bwd)
        bit = 1 << index
        recurse(index + 1, cur | bit, fwd | succ[index], bwd | pred[index])

    recurse(0, 0, 0, 0)
    return results


def _maximal_masks(masks: list[int]) -> list[int]:
    """Filter a family of bit masks down to its inclusion-maximal members."""
    maximal: list[int] = []
    for mask in sorted(masks, key=lambda m: m.bit_count(), reverse=True):
        if not any(mask | kept == kept for kept in maximal):
            maximal.append(mask)
    return maximal


def _family_masks(
    framework: Framework, kind: SemanticsKind, max_args: Optional[int]
) -> list[int]:
    """Every extension of ``kind`` as a bit mask, in no particular order.

    The grounded kind is exempt from the enumeration bound because it
    needs no search; every other kind raises TooLarge above it.
    """
    if kind is SemanticsKind.GROUNDED:
        return [grounded(framework).members.mask]
    bound = DEFAULT_MAX_ARGS if max_args is None else max_args
    if len(framework.arguments) > bound:
        raise TooLarge(len(framework.arguments), bound)
    if kind is SemanticsKind.CONFLICT_FREE:
        return _conflict_free_masks(framework, "cf")
    if kind is SemanticsKind.NAIVE:
        return _conflict_free_masks(framework, "naive")
    if kind is SemanticsKind.SELF_DEFENDING:
        return _self_defending_masks(framework)
    if kind is SemanticsKind.ADMISSIBLE:
        return _conflict_free_masks(framework, "admissible")
    if kind is SemanticsKind.COMPLETE:
        return _conflict_free_masks(framework, "complete")
    if kind is SemanticsKind.PREFERRED:
        return _maximal_masks(_conflict_free_masks(framework, "complete"))
    if kind is SemanticsKind.STABLE:
        return _conflict_free_masks(framework, "stable")
    raise ValueError(f"unknown semantics kind: {kind!r}")


def enumerate_extensions(
    framework: Framework,
    kind: SemanticsKind,
    limit: Optional[int] = None,
    max_args: Optional[int] = None,
) -> list[Extension]:
    """Enumerate every extension of the given kind, in canonical order.

    The canonical order sorts the rendered member lists lexicographically.
    A ``limit`` truncates the sorted list and waives completeness, which is
    flagged with an IncompleteEnumerationWarning; a negative ``limit`` is a
    ValueError. The grounded kind is exempt from the enumeration bound
    because it needs no search.
    """
    if limit is not None and limit < 0:
        raise ValueError(f"limit must be nonnegative, got {limit}")
    masks = _family_masks(framework, kind, max_args)
    masks.sort(key=lambda m: _render(framework, m))
    if limit is not None and len(masks) > limit:
        warnings.warn(
            f"{kind.value} enumeration truncated to {limit} of {len(masks)} "
            "extensions; the list is incomplete",
            IncompleteEnumerationWarning,
            stacklevel=2,
        )
        masks = masks[:limit]
    return [Extension(ArgSet(framework, m), kind) for m in masks]


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
            f"not {semantics.value!r}"
        )
    bit = 1 << resolved.index
    masks = _family_masks(framework, semantics, max_args)
    credulous = any(mask & bit for mask in masks)
    sceptical = bool(masks) and all(mask & bit for mask in masks)
    return JustificationStatus(resolved, semantics, credulous, sceptical)
