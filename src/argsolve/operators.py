"""The two set-valued operators of a framework and their fixed points.

``neutrality`` maps a set to the arguments it does not attack;
``defence`` maps a set to the arguments whose every attacker it attacks.
The defence operator is monotone, so iterating it from the empty set
climbs to its least fixed point, which is the grounded extension.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

from .core import (
    ArgSet,
    ArgumentId,
    Framework,
    _argset,
    _forward_mask,
    _iter_bits,
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
    return _neutrality_mask(framework, _neutrality_mask(framework, mask))


def _grounded_labelling(framework: Framework, steps: Optional[list] = None) -> tuple[int, int]:
    """The grounded labelling ``(in_mask, out_mask)``; OUT is what IN attacks.

    Counting each argument's attackers not yet OUT, a round labels IN those at
    zero and OUT what they attack. Round r's IN is F^r(∅) (Modgil and Caminada
    2009), so each round's IN appended to ``steps`` extends ``[0]`` to the chain.
    """
    succ = framework._succ_masks
    live = [m.bit_count() for m in framework._pred_masks]
    frontier = [i for i, count in enumerate(live) if not count]
    in_mask = out_mask = 0
    while frontier:
        hit = 0
        for i in frontier:
            in_mask |= 1 << i
            hit |= succ[i]
        frontier = []
        for j in _iter_bits(hit & ~out_mask):
            for k in _iter_bits(succ[j]):
                live[k] -= 1
                if not live[k]:
                    frontier.append(k)
        out_mask |= hit
        if steps is not None:
            steps.append(in_mask)
    return in_mask, out_mask


def neutrality(framework: Framework, members: ArgSet) -> ArgSet:
    """Arguments not attacked by the given set."""
    _require_tagged(framework, members)
    return ArgSet(framework, _neutrality_mask(framework, members.mask))


def defence(framework: Framework, members: ArgSet) -> ArgSet:
    """Arguments whose every attacker is attacked by the given set."""
    _require_tagged(framework, members)
    return ArgSet(framework, _defence_mask(framework, members.mask))


def defends(framework: Framework, members: ArgSet, arg: Union[ArgumentId, str]) -> bool:
    """Whether the set counterattacks every attacker of ``arg``."""
    _require_tagged(framework, members)
    resolved = framework.resolve(arg)
    fwd = _forward_mask(framework, members.mask)
    return framework._pred_masks[resolved.index] & ~fwd == 0


def kleene_least_fixpoint(framework: Framework) -> IterationTrace:
    """The chain of defence iterates from the empty set to its least fixed point.

    This is Dung's grounded trace: the final step is the grounded extension.
    The steps are the rounds of one labelling pass, linear in the framework's
    size, not repeated applications of defence.
    """
    steps = [0]
    _grounded_labelling(framework, steps)
    return IterationTrace(tuple(_argset(framework, m) for m in steps), True)
