"""The exhaustive-sweep reference implementation."""

import math
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
from argsolve import core, semantics
from argsolve.structure import strongly_connected_components
from random_frameworks import (
    random_framework,
    random_scc_chain_framework,
    random_shuffled_names_framework,
)


class TestGoldenValues:
    def test_floating_complete(self):
        f = ex.floating_reinstatement()
        result = oracle_enumerate(f, SemanticsKind.COMPLETE)
        assert {s.names() for s in result.extensions} == {(), ("a", "e"), ("b", "e")}

    def test_mixed_five_stable(self):
        f = ex.mixed_five()
        result = oracle_enumerate(f, SemanticsKind.STABLE)
        assert [s.names() for s in result.extensions] == [("a", "f")]


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


def _oracle_lists(f):
    """Every kind's oracle extensions, in the oracle's order: one sweep per kind."""
    return {kind: oracle_enumerate(f, kind).extensions for kind in SemanticsKind}


def _assert_same_lists(f, lists=None):
    """Same families in the same (canonical) order as the oracle's."""
    for kind, slow in (lists or _oracle_lists(f)).items():
        fast = [e.members for e in enumerate_extensions(f, kind)]
        assert fast == slow, (kind, f.arguments, f.attacks)


def _oracle_families(f, lists=None):
    return {
        kind: {frozenset(s.names()) for s in slow}
        for kind, slow in (lists or _oracle_lists(f)).items()
    }


JUSTIFIED_KINDS = (
    SemanticsKind.COMPLETE,
    SemanticsKind.PREFERRED,
    SemanticsKind.STABLE,
    SemanticsKind.GROUNDED,
)


def _assert_justification(f, families):
    """Both acceptance modes of every argument, against oracle families."""
    for kind in JUSTIFIED_KINDS:
        family = families[kind]
        for a in f.arguments:
            status = justification(f, a, kind)
            credulous = any(a.name in s for s in family)
            sceptical = bool(family) and all(a.name in s for s in family)
            assert (status.credulous, status.sceptical) == (
                credulous,
                sceptical,
            ), (kind, a, f.attacks)


def _assert_classify(f, families):
    """Every semantic field of the report against oracle families."""
    everything = frozenset(a.name for a in f.arguments)
    preferred = families[SemanticsKind.PREFERRED]
    stable = families[SemanticsKind.STABLE]
    (ground,) = families[SemanticsKind.GROUNDED]
    report = classify(f)
    assert report.extension_counts == {kind: len(family) for kind, family in families.items()}
    assert report.is_coherent == (preferred == stable)
    assert report.is_relatively_grounded == (frozenset.intersection(*preferred) == ground)
    assert report.preferred_covers_all == (frozenset.union(*preferred) == everything)
    assert report.all_dung_semantics_coincide == (
        families[SemanticsKind.COMPLETE] == preferred == stable == {ground}
    )


def _assert_coherence_predicates(f, families):
    """The standalone is_coherent and is_relatively_grounded against oracle families."""
    preferred = families[SemanticsKind.PREFERRED]
    (ground,) = families[SemanticsKind.GROUNDED]
    assert is_coherent(f) == (preferred == families[SemanticsKind.STABLE])
    assert is_relatively_grounded(f) == (frozenset.intersection(*preferred) == ground)


def _assert_product_of_parts(parts, union):
    """The union's families, every consumer and counts against its parts' and the oracle."""
    lists = _oracle_lists(union)
    _assert_same_lists(union, lists)
    families = _oracle_families(union, lists)
    _assert_justification(union, families)
    _assert_classify(union, families)
    _assert_coherence_predicates(union, families)
    counts = classify(union).extension_counts
    part_counts = [classify(part).extension_counts for part in parts]
    for kind in SemanticsKind:
        assert counts[kind] == math.prod(c[kind] for c in part_counts), kind


def _union(parts, order):
    """The disjoint union of ``parts``, its arguments declared in ``order``."""
    pairs = [(s.name, d.name) for part in parts for s, d in part.attacks]
    return build_framework(order, pairs)


@st.composite
def _disjoint_unions(draw):
    """2-4 parts, 12 arguments in all at most, declared interleaved.

    A part is a directed cycle or random attacks with at most one
    self-loop. A one-argument part is isolated or self-attacking; an odd
    cycle has no stable extension, so neither has the union.
    """
    count = draw(st.integers(2, 4))
    left = 12
    parts = []
    for j in range(count):
        size = draw(st.integers(1, min(6, left - (count - j - 1))))
        left -= size
        names = [f"p{j}x{i}" for i in range(size)]
        if draw(st.integers(0, 2)) == 0:
            pairs = [(names[i], names[(i + 1) % size]) for i in range(size)]
        else:
            cells = [(src, dst) for src in names for dst in names if src != dst]
            pairs = draw(st.lists(st.sampled_from(cells), unique=True)) if cells else []
            pairs += [(x, x) for x in draw(st.lists(st.sampled_from(names), max_size=1))]
        parts.append(build_framework(names, pairs))
    order = draw(st.permutations([a.name for part in parts for a in part.arguments]))
    return parts, _union(parts, order)


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

    @settings(max_examples=60, derandomize=True, deadline=None, database=None)
    @given(_disjoint_unions())
    def test_disjoint_unions(self, parts_and_union):
        _assert_product_of_parts(*parts_and_union)

    @settings(max_examples=60, derandomize=True, deadline=None, database=None)
    @given(_disjoint_unions(), st.data())
    def test_search_on_a_scope(self, parts_and_union, data):
        # a scope of some parts: neither one component nor the whole framework
        parts, union = parts_and_union
        chosen = data.draw(st.sets(st.integers(0, len(parts) - 1), min_size=1))
        names = [a.name for j in sorted(chosen) for a in parts[j].arguments]
        scope = union.set_of(names)
        pairs = [(s.name, d.name) for s, d in union.attacks if s in scope and d in scope]
        sub = build_framework(scope.names(), pairs)
        for kind in SemanticsKind:
            if kind is SemanticsKind.GROUNDED:
                continue
            expected = [
                union.set_of(s.names()).mask for s in oracle_enumerate(sub, kind).extensions
            ]
            found = semantics._search_masks(union, kind, scope.mask)
            assert sorted(found) == sorted(expected), (kind, names, union.attacks)

    def test_disjoint_union_of_every_part_shape(self):
        parts = [
            build_framework(["a", "b"], [("a", "b"), ("b", "a")]),
            build_framework(["i"], []),
            build_framework(["s"], [("s", "s")]),
            build_framework(["x", "y", "z"], [("x", "y"), ("y", "z"), ("z", "x")]),
        ]
        union = _union(parts, ["x", "a", "s", "y", "i", "b", "z"])
        assert enumerate_extensions(union, SemanticsKind.STABLE) == []
        _assert_product_of_parts(parts, union)

    @pytest.mark.parametrize("k", range(1, 8))
    def test_preferred_on_one_component_with_many_complete_sets(self, k):
        # k mutual pairs a_i <-> b_i and one argument every a_i attacks: one
        # weak component with 3^k complete and 2^k preferred sets, where the
        # preferred leaf test must meet every strict superset before the set
        names = [f"{side}{i}" for i in range(k) for side in "ab"] + ["c"]
        pairs = [(f"a{i}", f"b{i}") for i in range(k)]
        pairs += [(b, a) for a, b in pairs] + [(f"a{i}", "c") for i in range(k)]
        rng = random.Random(57 + k)
        for _ in range(4):
            rng.shuffle(names)
            f = build_framework(names, pairs)
            fast = [e.members for e in enumerate_extensions(f, SemanticsKind.PREFERRED)]
            assert fast == oracle_enumerate(f, SemanticsKind.PREFERRED).extensions
            assert len(fast) == 2**k
            found = semantics._search_masks(f, SemanticsKind.PREFERRED, f._full_mask)
            assert len(set(found)) == len(found), names

    @pytest.mark.parametrize("n, p, seed", [(13, 0.1, 58), (14, 0.2, 59), (13, 0.3, 60)])
    def test_one_strongly_connected_component_past_twelve(self, n, p, seed):
        # a Hamiltonian cycle in shuffled order plus random chords: one SCC,
        # so neither components nor SCC layers split the search
        rng = random.Random(seed)
        names = [f"x{i}" for i in range(n)]
        cycle = rng.sample(names, n)
        pairs = [(cycle[i - 1], cycle[i]) for i in range(n)]
        pairs += [(s, d) for s in names for d in names if s != d and rng.random() < p]
        f = build_framework(names, pairs)
        assert len(strongly_connected_components(f)) == 1
        lists = _oracle_lists(f)
        families = _oracle_families(f, lists)
        _assert_same_lists(f, lists)
        _assert_justification(f, families)
        _assert_classify(f, families)

    def test_grounded_matches_iteration(self):
        rng = random.Random(52)
        for _ in range(60):
            f = random_framework(rng, max_size=8)
            slow = oracle_enumerate(f, SemanticsKind.GROUNDED).extensions
            assert slow == [kleene_least_fixpoint(f).fixpoint]


SEARCHED_KINDS = [kind for kind in SemanticsKind if kind is not SemanticsKind.GROUNDED]


class TestSccChains:
    """Chains of SCCs, which every searched kind walks sources first; complete,
    preferred and stable test each SCC as it closes."""

    @pytest.mark.parametrize("seed, count, low, high", [(61, 200, 0, 12), (62, 4, 13, 16)])
    def test_families_and_justification(self, seed, count, low, high):
        rng = random.Random(seed)
        ordered = 0
        for _ in range(count):
            f = random_scc_chain_framework(rng, max_size=high, min_size=low)
            # some weak component has two SCCs or more
            ordered += len(core._scc_order(f)) > len(core._weak_components(f))
            for kind in SEARCHED_KINDS:
                slow = oracle_enumerate(f, kind).extensions
                assert [e.members for e in enumerate_extensions(f, kind)] == slow, (kind, f.attacks)
                if kind not in JUSTIFIED_KINDS:
                    continue
                for a in f.arguments:
                    status = justification(f, a, kind)
                    credulous = any(a in s for s in slow)
                    sceptical = bool(slow) and all(a in s for s in slow)
                    assert (status.credulous, status.sceptical) == (credulous, sceptical), (kind, a)
        assert ordered >= count // 2


class TestConsumersAgainstOracle:
    """Queries that read the unordered mask layer, against oracle families."""

    def test_justification(self):
        rng = random.Random(54)
        for _ in range(60):
            f = random_framework(rng, max_size=8)
            _assert_justification(f, _oracle_families(f))

    def test_classify(self):
        rng = random.Random(55)
        for _ in range(60):
            f = random_framework(rng, max_size=8)
            _assert_classify(f, _oracle_families(f))

    def test_standalone_coherence_predicates(self):
        rng = random.Random(56)
        for _ in range(60):
            f = random_framework(rng, max_size=8)
            _assert_coherence_predicates(f, _oracle_families(f))
