"""The exhaustive-sweep reference implementation."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import af_examples as ex
from argsolve import (
    SemanticsKind,
    TooLargeForOracle,
    build_framework,
    classify,
    enumerate_extensions,
    is_coherent,
    is_relatively_grounded,
    justification,
    kleene_least_fixpoint,
    oracle_enumerate,
)
from random_frameworks import random_framework, random_shuffled_names_framework


class TestGoldenValues:
    def test_floating_complete(self):
        f = ex.floating_reinstatement()
        result = oracle_enumerate(f, SemanticsKind.COMPLETE)
        assert {s.names() for s in result.extensions} == {(), ("a", "e"), ("b", "e")}

    def test_mixed_five_stable(self):
        f = ex.mixed_five()
        result = oracle_enumerate(f, SemanticsKind.STABLE)
        assert [s.names() for s in result.extensions] == [("a", "f")]

    def test_fingerprint_distinguishes_frameworks(self):
        a = oracle_enumerate(ex.nixon_diamond(), SemanticsKind.STABLE)
        b = oracle_enumerate(ex.single_attack(), SemanticsKind.STABLE)
        c = oracle_enumerate(ex.nixon_diamond(), SemanticsKind.COMPLETE)
        assert a.fingerprint != b.fingerprint
        assert a.fingerprint == c.fingerprint


class TestCap:
    def test_too_large(self):
        f = build_framework([f"x{i}" for i in range(17)], [])
        with pytest.raises(TooLargeForOracle):
            oracle_enumerate(f, SemanticsKind.CONFLICT_FREE)

    def test_at_cap_is_fine(self):
        names = [f"x{i}" for i in range(16)]
        pairs = [(a, b) for a in names for b in names if a != b]
        f = build_framework(names, pairs)
        result = oracle_enumerate(f, SemanticsKind.STABLE)
        assert len(result.extensions) == 16


def _assert_same_lists(f):
    """Same families in the same (canonical) order as the oracle's."""
    for kind in SemanticsKind:
        fast = [e.members for e in enumerate_extensions(f, kind)]
        slow = oracle_enumerate(f, kind).extensions
        assert fast == slow, (kind, f.arguments, f.attacks)


def _oracle_families(f):
    return {
        kind: {frozenset(s.names()) for s in oracle_enumerate(f, kind).extensions}
        for kind in SemanticsKind
    }


@st.composite
def _sparse_frameworks(draw):
    """n <= 12, attack density 0.05-0.4, self-loops allowed.

    Sparse attacks leave most attackers unanswered by the arguments still
    undecided, so the search's self-defence prune fires often.
    """
    n = draw(st.integers(0, 12))
    names = [f"x{i}" for i in range(n)]
    cells = [(src, dst) for src in names for dst in names]
    count = round(draw(st.floats(0.05, 0.4)) * len(cells))
    pairs = []
    if cells:
        pairs = draw(
            st.lists(st.sampled_from(cells), min_size=count, max_size=count, unique=True)
        )
    return build_framework(names, pairs)


class TestAgainstFastPath:
    def test_random_frameworks_all_kinds(self):
        rng = random.Random(51)
        for _ in range(60):
            _assert_same_lists(random_framework(rng, max_size=6))

    def test_random_frameworks_all_kinds_shuffled_names(self):
        rng = random.Random(53)
        sizes = set()
        for _ in range(60):
            f = random_shuffled_names_framework(rng, max_size=12)
            sizes.add(len(f))
            _assert_same_lists(f)
        # name order and declaration order disagree, x10 sorting before x2
        assert max(sizes) >= 11

    @settings(max_examples=100, derandomize=True, deadline=None, database=None)
    @given(_sparse_frameworks())
    def test_sparse_frameworks_all_kinds(self, f):
        _assert_same_lists(f)

    def test_grounded_matches_iteration(self):
        rng = random.Random(52)
        for _ in range(60):
            f = random_framework(rng, max_size=8)
            slow = oracle_enumerate(f, SemanticsKind.GROUNDED).extensions
            assert slow == [kleene_least_fixpoint(f).fixpoint]


class TestConsumersAgainstOracle:
    """Queries that read the unordered mask layer, against oracle families."""

    def test_justification(self):
        rng = random.Random(54)
        for _ in range(60):
            f = random_framework(rng, max_size=8)
            families = _oracle_families(f)
            for kind in (
                SemanticsKind.COMPLETE,
                SemanticsKind.PREFERRED,
                SemanticsKind.STABLE,
                SemanticsKind.GROUNDED,
            ):
                family = families[kind]
                for a in f.arguments:
                    status = justification(f, a, kind)
                    credulous = any(a.name in s for s in family)
                    sceptical = bool(family) and all(a.name in s for s in family)
                    assert (status.credulous, status.sceptical) == (
                        credulous,
                        sceptical,
                    ), (kind, a, f.attacks)

    def test_classify(self):
        rng = random.Random(55)
        for _ in range(60):
            f = random_framework(rng, max_size=8)
            families = _oracle_families(f)
            everything = frozenset(a.name for a in f.arguments)
            preferred = families[SemanticsKind.PREFERRED]
            stable = families[SemanticsKind.STABLE]
            (ground,) = families[SemanticsKind.GROUNDED]
            report = classify(f)
            assert report.extension_counts == {
                kind: len(family) for kind, family in families.items()
            }
            assert report.is_coherent == (preferred == stable)
            assert report.is_relatively_grounded == (
                frozenset.intersection(*preferred) == ground
            )
            assert report.preferred_covers_all == (
                frozenset.union(*preferred) == everything
            )
            assert report.all_dung_semantics_coincide == (
                families[SemanticsKind.COMPLETE] == preferred == stable == {ground}
            )

    def test_standalone_coherence_predicates(self):
        rng = random.Random(56)
        for _ in range(60):
            f = random_framework(rng, max_size=8)
            families = _oracle_families(f)
            preferred = families[SemanticsKind.PREFERRED]
            (ground,) = families[SemanticsKind.GROUNDED]
            assert is_coherent(f) == (preferred == families[SemanticsKind.STABLE])
            assert is_relatively_grounded(f) == (
                frozenset.intersection(*preferred) == ground
            )
