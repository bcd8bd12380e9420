"""The two set-valued operators of a framework and their fixed points.

``neutrality`` maps a set to the arguments it does not attack;
``defence`` maps a set to the arguments whose every attacker it attacks.
The defence operator is monotone, so iterating it from the empty set
climbs to its least fixed point, which is the grounded extension.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

from .core import (
    ArgSet,
    ArgumentId,
    Framework,
    _argset,
    _forward_mask,
    _require_tagged,
)


@dataclass(frozen=True)
class IterationTrace:
    """The Kleene chain of the defence operator, from the empty set up.

    ``steps`` holds the empty set followed by each new value, and applying
    defence to the last step returns it unchanged. ``converged`` is always
    true: a monotone operator started from the empty set on a finite
    framework climbs a strictly ascending chain to its least fixed point.
    """

    steps: tuple[ArgSet, ...]
    converged: bool

    @property
    def fixpoint(self) -> ArgSet:
        return self.steps[-1]


def _neutrality_mask(framework: Framework, mask: int) -> int:
    return framework._full_mask & ~_forward_mask(framework, mask)


def _defence_mask(framework: Framework, mask: int) -> int:
    # n(n(mask)), scanned: the Kleene loop ran 1.4-2.5x slower through n∘n (ROADMAP item 1)
    fwd = _forward_mask(framework, mask)
    pred = framework._pred_masks
    out = 0
    for i in range(len(framework.arguments)):
        if pred[i] & fwd == pred[i]:
            out |= 1 << i
    return out


def neutrality(framework: Framework, members: ArgSet) -> ArgSet:
    """Arguments not attacked by the given set."""
    _require_tagged(framework, members)
    return ArgSet(framework, _neutrality_mask(framework, members.mask))


def defence(framework: Framework, members: ArgSet) -> ArgSet:
    """Arguments whose every attacker is attacked by the given set."""
    _require_tagged(framework, members)
    return ArgSet(framework, _defence_mask(framework, members.mask))


def neutrality_squared(framework: Framework, members: ArgSet) -> ArgSet:
    """The neutrality operator applied twice; pointwise equal to defence."""
    _require_tagged(framework, members)
    return ArgSet(
        framework,
        _neutrality_mask(framework, _neutrality_mask(framework, members.mask)),
    )


def defends(framework: Framework, members: ArgSet, arg: Union[ArgumentId, str]) -> bool:
    """Whether the set counterattacks every attacker of ``arg``."""
    _require_tagged(framework, members)
    resolved = framework.resolve(arg)
    fwd = _forward_mask(framework, members.mask)
    return framework._pred_masks[resolved.index] & ~fwd == 0


def kleene_least_fixpoint(framework: Framework) -> IterationTrace:
    """Iterate the defence operator from the empty set to its least fixed point.

    This is Dung's grounded trace: the final step is the grounded extension.
    Defence is the one operator iterated: neutrality squared equals it
    pointwise, and raw neutrality is antitone and may oscillate forever.
    """
    steps = [0]
    while (nxt := _defence_mask(framework, steps[-1])) != steps[-1]:
        steps.append(nxt)
    return IterationTrace(tuple(_argset(framework, m) for m in steps), True)
