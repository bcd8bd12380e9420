"""Brute-force reference semantics by exhaustive power-set sweep.

Everything here is computed from the raw attack list with plain sets of
names, one subset at a time, sharing no search machinery with the fast
enumerators. Slow and simple on purpose: it exists to check the fast path
on small frameworks.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .core import ArgSet, ArgsolveError, Framework
from .semantics import SemanticsKind

ORACLE_MAX_ARGS = 16


class TooLargeForOracle(ArgsolveError):
    """The framework exceeds the hard cap of the exhaustive sweep."""

    def __init__(self, argument_count: int, cap: int):
        super().__init__(
            f"oracle sweeps all subsets; {argument_count} arguments exceed "
            f"its hard cap of {cap}"
        )
        self.argument_count = argument_count
        self.cap = cap


@dataclass(frozen=True)
class OracleResult:
    """Extensions of one kind computed by the exhaustive sweep."""

    kind: SemanticsKind
    extensions: list[ArgSet]


def oracle_enumerate(framework: Framework, kind: SemanticsKind) -> OracleResult:
    """Test the defining predicate of ``kind`` on every subset of arguments."""
    names = [a.name for a in framework.arguments]
    if len(names) > ORACLE_MAX_ARGS:
        raise TooLargeForOracle(len(names), ORACLE_MAX_ARGS)

    universe = frozenset(names)
    attack_list = [(src.name, dst.name) for src, dst in framework.attacks]

    # per-argument attacker sets, read off the attack list once
    attacker_table = {
        x: {src for src, dst in attack_list if dst == x} for x in universe
    }

    def attacked_by(subset):  # S+
        return {dst for src, dst in attack_list if src in subset}

    def attackers_of(subset):  # S-
        return {src for src, dst in attack_list if dst in subset}

    def neutral_to(subset):  # n(S)
        return universe - attacked_by(subset)

    def defended_by(subset):  # d(S)
        hit = attacked_by(subset)
        return {x for x in universe if attacker_table[x] <= hit}

    all_subsets = [
        frozenset(combo)
        for size in range(len(names) + 1)
        for combo in combinations(names, size)
    ]

    def conflict_free(subset):
        return not (subset & attacked_by(subset))

    def self_defending(subset):
        return attackers_of(subset) <= attacked_by(subset)

    if kind is SemanticsKind.CONFLICT_FREE:
        chosen = [s for s in all_subsets if conflict_free(s)]
    elif kind is SemanticsKind.NAIVE:
        family = [s for s in all_subsets if conflict_free(s)]
        chosen = [s for s in family if not any(s < t for t in family)]
    elif kind is SemanticsKind.SELF_DEFENDING:
        chosen = [s for s in all_subsets if self_defending(s)]
    elif kind is SemanticsKind.ADMISSIBLE:
        chosen = [s for s in all_subsets if conflict_free(s) and self_defending(s)]
    elif kind is SemanticsKind.COMPLETE:
        chosen = [s for s in all_subsets if conflict_free(s) and defended_by(s) == s]
    elif kind is SemanticsKind.PREFERRED:
        family = [
            s for s in all_subsets if conflict_free(s) and self_defending(s)
        ]
        chosen = [s for s in family if not any(s < t for t in family)]
    elif kind is SemanticsKind.STABLE:
        chosen = [s for s in all_subsets if neutral_to(s) == s]
    elif kind is SemanticsKind.GROUNDED:
        complete = [
            s for s in all_subsets if conflict_free(s) and defended_by(s) == s
        ]
        least = [s for s in complete if all(s <= t for t in complete)]
        assert len(least) == 1, "the least complete extension must be unique"
        chosen = least
    else:
        raise ValueError(f"unknown semantics kind: {kind!r}")

    as_sets = [framework.set_of(sorted(s)) for s in chosen]
    # the rendering spelled out from names(), not the renderer under test
    as_sets.sort(key=lambda s: "[" + ",".join(s.names()) + "]")
    return OracleResult(kind, as_sets)
