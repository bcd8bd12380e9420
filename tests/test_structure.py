"""Cycles, walk parity, controversy, and the classification report."""

import random
import time
import tracemalloc

import pytest

import af_examples as ex
from argsolve import (
    SemanticsKind,
    TooLarge,
    build_framework,
    classify,
    defence,
    controversial_arguments,
    enumerate_extensions,
    even_cycle_exists,
    grounded,
    has_directed_cycle,
    indirectly_attacks,
    indirectly_defends,
    is_coherent,
    is_controversial_wrt,
    is_limited_controversial,
    is_relatively_grounded,
    is_symmetric,
    is_well_founded,
    justification,
    odd_cycle_exists,
)
from argsolve import structure
from random_frameworks import (
    random_acyclic_framework,
    random_framework,
    random_odd_cycle_free_framework,
    random_symmetric_framework,
)


def _family(framework, kind):
    return {e.members.names() for e in enumerate_extensions(framework, kind)}


class TestCycles:
    def test_self_loop_is_odd_cycle(self):
        f = ex.self_attack_pair()
        assert has_directed_cycle(f) and odd_cycle_exists(f)

    def test_two_cycle_is_even_only(self):
        f = ex.nixon_diamond()
        assert has_directed_cycle(f)
        assert not odd_cycle_exists(f)
        assert even_cycle_exists(f)

    def test_three_cycle(self):
        f = ex.cycle_with_tail()
        assert odd_cycle_exists(f)
        assert not even_cycle_exists(f)

    def test_acyclic(self):
        f = ex.chain_of_four()
        assert not has_directed_cycle(f)
        assert not odd_cycle_exists(f) and not even_cycle_exists(f)

    def test_two_odd_cycles_sharing_a_node_make_no_even_cycle(self):
        # closed walks of even length exist, yet every simple cycle is odd
        f = build_framework(
            ["a", "b", "c", "p", "q"],
            [("a", "b"), ("b", "c"), ("c", "a"), ("a", "p"), ("p", "q"), ("q", "a")],
        )
        assert odd_cycle_exists(f)
        assert not even_cycle_exists(f)

    def test_odd_cycle_with_a_mutual_pair_in_one_component(self):
        # a 3-cycle through a, and a mutual attack between a and d
        f = build_framework(
            ["a", "b", "c", "d"],
            [("a", "b"), ("b", "c"), ("c", "a"), ("a", "d"), ("d", "a")],
        )
        assert len(structure.strongly_connected_components(f)) == 1
        assert odd_cycle_exists(f) and even_cycle_exists(f)

    def test_self_loop_is_no_mutual_attack(self):
        f = build_framework(
            ["a", "b", "c"], [("a", "a"), ("a", "b"), ("b", "c"), ("c", "a")]
        )
        assert not even_cycle_exists(f)

    def test_mutual_attack_in_a_large_sparse_component_answers_at_once(self):
        # 80 arguments and 240 random attacks: a simple-path search from the
        # smallest index first runs past 10 s on this graph
        rng = random.Random(41)
        pairs = set()
        while len(pairs) < 240:
            a, b = rng.randrange(80), rng.randrange(80)
            if a != b:
                pairs.add((a, b))
        names = [f"x{i}" for i in range(80)]
        f = build_framework(names, [(names[a], names[b]) for a, b in sorted(pairs)])
        start = time.process_time()
        assert even_cycle_exists(f)
        assert time.process_time() - start < 1.0

    def test_directed_cycles_by_parity(self):
        for n in range(1, 41):
            f = ex.directed_cycle(n)
            assert even_cycle_exists(f) == (n % 2 == 0), n
            assert odd_cycle_exists(f) == (n % 2 == 1), n

    def test_long_odd_cycle_is_certified_without_path_search(self):
        f = ex.directed_cycle(3001)
        start = time.process_time()
        assert not even_cycle_exists(f)
        assert time.process_time() - start < 0.5


class TestStronglyConnectedComponents:
    @staticmethod
    def _assert_components(f):
        n = len(f.arguments)
        succ = [[d.index for s, d in f.attacks if s.index == i] for i in range(n)]
        reach = []
        for i in range(n):  # brute force: everything reachable from i, i included
            seen, todo = {i}, [i]
            while todo:
                for nxt in succ[todo.pop()]:
                    if nxt not in seen:
                        seen.add(nxt)
                        todo.append(nxt)
            reach.append(seen)
        components = structure.strongly_connected_components(f)
        assert sorted(i for c in components for i in c) == list(range(n))
        position = {i: k for k, c in enumerate(components) for i in c}
        for c in components:
            assert set(c) == {j for j in reach[c[0]] if c[0] in reach[j]}
        for s, d in f.attacks:
            assert position[d.index] <= position[s.index]

    def test_mutual_reachability_classes_sinks_first(self):
        rng = random.Random(79)
        for _ in range(300):
            n = rng.randint(0, 30)
            p = rng.choice([0.03, 0.08, 0.15, 0.3])
            names = [f"x{i}" for i in range(n)]
            pairs = [(a, b) for a in names for b in names if rng.random() < p]
            self._assert_components(build_framework(names, pairs))

    def test_long_chain_and_cycle(self):
        names = [f"x{i}" for i in range(20000)]
        chain = build_framework(names, list(zip(names, names[1:])))
        sinks_first = [[i] for i in range(19999, -1, -1)]
        assert structure.strongly_connected_components(chain) == sinks_first
        cycle = build_framework(names, list(zip(names, names[1:] + names[:1])))
        (component,) = structure.strongly_connected_components(cycle)
        assert sorted(component) == list(range(20000))


class TestWellFounded:
    def test_chain(self):
        assert is_well_founded(ex.chain_of_four())

    def test_mutual_pair(self):
        assert not is_well_founded(ex.nixon_diamond())

    def test_empty(self):
        assert is_well_founded(ex.empty())

    def test_matches_acyclicity(self):
        rng = random.Random(41)
        for _ in range(100):
            f = random_framework(rng, max_size=8)
            assert is_well_founded(f) == (not has_directed_cycle(f))

    def test_classify_reads_cycles_off_the_parity_closure(self):
        rng = random.Random(49)
        for i in range(400):
            f = (random_acyclic_framework if i % 2 else random_framework)(rng, max_size=9)
            report = classify(f)
            assert report.is_acyclic == report.is_well_founded == (not has_directed_cycle(f))
            assert report.has_odd_cycle == odd_cycle_exists(f)
            assert report.has_even_cycle == even_cycle_exists(f)


class TestWalkParity:
    def test_odd_walk_along_chain(self):
        f = ex.chain_of_four()
        assert indirectly_attacks(f, "e", "a")  # length 3
        assert not indirectly_attacks(f, "a", "e")

    def test_even_walk_back_to_self(self):
        f = ex.nixon_diamond()
        assert indirectly_defends(f, "b", "b")

    def test_self_attacker_both_ways(self):
        f = ex.self_attack_pair()
        assert indirectly_attacks(f, "a", "a")
        assert indirectly_defends(f, "a", "a")

    def test_every_argument_defends_itself(self):
        rng = random.Random(42)
        for _ in range(50):
            f = random_framework(rng, max_size=7)
            for a in f.arguments:
                assert indirectly_defends(f, a, a)


class TestControversy:
    def test_shortcut_triangle(self):
        f = ex.transitive_triangle()
        assert is_controversial_wrt(f, "a", "c")
        assert "a" in controversial_arguments(f)

    def test_self_attacker_controversial_wrt_itself(self):
        f = ex.self_attack_pair()
        assert is_controversial_wrt(f, "a", "a")

    def test_incoherent_five_example(self):
        f = ex.incoherent_five()
        assert is_controversial_wrt(f, "a0", "a4")

    def test_limited_controversial_cases(self):
        assert is_limited_controversial(ex.transitive_triangle())
        assert not is_limited_controversial(ex.self_attack_pair())
        assert not is_limited_controversial(ex.incoherent_five())


class TestCoherence:
    def test_tailed_three_cycle_coherent(self):
        f = ex.tailed_three_cycle()
        assert is_coherent(f)
        assert _family(f, SemanticsKind.PREFERRED) == {("b", "e")}

    def test_incoherent_six(self):
        assert not is_coherent(ex.incoherent_six())

    def test_mutual_triangle_plus_isolated(self):
        f = ex.mutual_triangle_plus_isolated()
        assert is_coherent(f) and is_relatively_grounded(f)
        assert grounded(f).members.names() == ("a2",)

    def test_floating_not_relatively_grounded(self):
        f = ex.floating_reinstatement()
        assert not is_relatively_grounded(f)

    def test_incoherent_five_relatively_grounded(self):
        f = ex.incoherent_five()
        assert is_relatively_grounded(f)
        assert _family(f, SemanticsKind.PREFERRED) == {("a1",), ("a0", "a3")}
        assert _family(f, SemanticsKind.STABLE) == {("a0", "a3")}


class TestClassify:
    def test_mutual_pair(self):
        report = classify(ex.nixon_diamond())
        assert report.is_symmetric
        assert not report.is_well_founded
        assert report.is_coherent  # preferred and stable agree on both camps
        assert report.extension_counts[SemanticsKind.PREFERRED] == 2
        assert report.extension_counts[SemanticsKind.STABLE] == 2
        assert not report.all_dung_semantics_coincide

    def test_guarded_pair_all_coincide(self):
        report = classify(ex.mutual_pair_guarded())
        assert report.all_dung_semantics_coincide
        assert report.grounded_size == 2

    def test_empty_framework(self):
        report = classify(ex.empty())
        assert report.is_empty and report.is_trivial
        assert report.all_dung_semantics_coincide
        assert not report.is_symmetric
        assert report.is_finitary

    def test_semantic_fields_absent_when_too_large(self):
        names = [f"x{i}" for i in range(30)]
        f = build_framework(names, [(names[0], names[1])])
        report = classify(f)
        assert report.is_coherent is None
        assert report.extension_counts is None
        assert report.grounded_size == 29  # structural side still works
        with pytest.raises(TooLarge):
            is_coherent(f)

    def test_twelve_mutual_pairs_are_counted_from_factors(self):
        # 24 arguments, inside the default bound: every family is the 12th power
        # of one pair's, and counting it must not expand the product
        names = [f"{side}{i}" for i in range(12) for side in "ab"]
        pairs = [(f"a{i}", f"b{i}") for i in range(12)]
        f = build_framework(names, pairs + [(b, a) for a, b in pairs])
        tracemalloc.start()
        try:
            report = classify(f)
            _, classify_peak = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            assert is_coherent(f) and is_relatively_grounded(f)
            _, predicates_peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        K = SemanticsKind
        assert report.extension_counts == {
            K.CONFLICT_FREE: 3**12,
            K.NAIVE: 2**12,
            K.SELF_DEFENDING: 4**12,
            K.ADMISSIBLE: 3**12,
            K.COMPLETE: 3**12,
            K.PREFERRED: 2**12,
            K.STABLE: 2**12,
            K.GROUNDED: 1,
        }
        assert report.is_coherent and report.is_relatively_grounded
        assert report.preferred_covers_all and not report.all_dung_semantics_coincide
        assert classify_peak < 5_000_000 and predicates_peak < 5_000_000

    def test_grounded_and_classify_are_not_quadratic_on_a_long_chain(self):
        # far above a linear pass, far below a quadratic one (about 4 s for each call)
        names = [f"x{i}" for i in range(5000)]
        f = build_framework(names, list(zip(names, names[1:])))
        start = time.process_time()
        assert len(grounded(f).members) == 2500
        assert time.process_time() - start < 1.0
        start = time.process_time()
        assert classify(f).grounded_size == 2500
        assert time.process_time() - start < 1.0

    def test_negative_bound_is_rejected(self):
        for f in (ex.mixed_five(), ex.empty()):
            with pytest.raises(ValueError, match="max_args"):
                classify(f, max_args=-1)

    def test_self_attack_and_trivial_flags(self):
        report = classify(ex.self_attack_pair())
        assert report.has_self_attack and not report.is_trivial
        assert report.has_odd_cycle and not report.is_limited_controversial


def _reachability(framework):
    """Transitive closure by repeated squaring-free propagation."""
    n = len(framework)
    edges = {(s.index, d.index) for s, d in framework.attacks}
    reach = {(i, j) for i, j in edges}
    changed = True
    while changed:
        changed = False
        for i, k in list(reach):
            for j in range(n):
                if (k, j) in reach and (i, j) not in reach:
                    reach.add((i, j))
                    changed = True
    return reach


def _walks_by_parity(framework, max_len):
    """For each start, the (node, parity) pairs hit by walks of length >= 1."""
    n = len(framework)
    succ = [set() for _ in range(n)]
    for s, d in framework.attacks:
        succ[s.index].add(d.index)
    out = []
    for start in range(n):
        hit = set()
        frontier = {start}
        for length in range(1, max_len + 1):
            frontier = {j for i in frontier for j in succ[i]}
            hit |= {(j, length % 2) for j in frontier}
        out.append(hit)
    return out


def _assert_walk_parity_predicates(f):
    n = len(f)
    walks = _walks_by_parity(f, 2 * n + 2)
    for a in f.arguments:
        for b in f.arguments:
            expect_attack = (b.index, 1) in walks[a.index]
            expect_defend = a == b or (b.index, 0) in walks[a.index]
            assert indirectly_attacks(f, a, b) == expect_attack
            assert indirectly_defends(f, a, b) == expect_defend
            assert is_controversial_wrt(f, a, b) == (expect_attack and expect_defend)


def _simple_cycle_lengths(framework):
    """Every simple directed cycle length, by brute-force path extension."""
    n = len(framework)
    succ = [set() for _ in range(n)]
    for s, d in framework.attacks:
        succ[s.index].add(d.index)
    lengths = set()

    def extend(path, start):
        node = path[-1]
        for nxt in succ[node]:
            if nxt == start:
                lengths.add(len(path))
            elif nxt not in path and nxt > start:
                extend(path + [nxt], start)

    for start in range(n):
        extend([start], start)
    return lengths


def _random_frameworks(seed, count, max_sizes):
    """``count`` random frameworks per size cap; each may carry self-loops."""
    rng = random.Random(seed)
    for max_size in max_sizes:
        for _ in range(count):
            yield random_framework(rng, max_size=max_size)


def _renamed(framework, prefix, order=None):
    """The same attacks under prefixed names, declared in ``order``."""
    names = [a.name for a in framework.arguments]
    order = names if order is None else order
    pairs = [(prefix + s.name, prefix + d.name) for s, d in framework.attacks]
    return build_framework([prefix + name for name in order], pairs)


class TestAgainstBruteForce:
    def test_cycle_parities(self):
        # the simple-cycle brute force is exponential, so sizes stop at 8
        for f in _random_frameworks(71, 200, (6, 8)):
            lengths = _simple_cycle_lengths(f)
            assert has_directed_cycle(f) == bool(lengths)
            assert odd_cycle_exists(f) == any(k % 2 == 1 for k in lengths)
            assert even_cycle_exists(f) == any(k % 2 == 0 for k in lengths)

    def test_even_cycles_up_to_fourteen_arguments(self):
        # a simple-path search that stops at the first even cycle, as reference
        def has_even_simple_cycle(f):
            succ = [[d.index for s, d in f.attacks if s.index == i] for i in range(len(f))]

            def extend(path, start):
                for nxt in succ[path[-1]]:
                    if nxt == start and len(path) % 2 == 0:
                        return True
                    if nxt > start and nxt not in path and extend(path + [nxt], start):
                        return True
                return False

            return any(extend([start], start) for start in range(len(f)))

        for f in _random_frameworks(77, 100, (10, 12, 14)):
            assert even_cycle_exists(f) == has_even_simple_cycle(f)

    def test_walk_parity_predicates(self):
        for f in _random_frameworks(72, 100, (6, 12)):
            _assert_walk_parity_predicates(f)

    def test_pair_queries_build_no_closure(self, monkeypatch):
        def refuse(framework):
            raise AssertionError("a pair query built the whole parity closure")

        monkeypatch.setattr(structure, "_parity_closure", refuse)
        for f in _random_frameworks(76, 30, (6, 12)):
            _assert_walk_parity_predicates(f)
        names = [f"x{i}" for i in range(3000)]
        chain = build_framework(names, list(zip(names, names[1:])))
        assert indirectly_attacks(chain, "x0", "x2999")
        assert not indirectly_defends(chain, "x0", "x2999")
        assert indirectly_defends(chain, "x1", "x2999")
        assert not is_controversial_wrt(chain, "x0", "x2999")

    def test_controversial_argument_collection(self):
        for f in _random_frameworks(73, 100, (6, 12)):
            expected = {
                a.name
                for a in f.arguments
                if any(is_controversial_wrt(f, a, b) for b in f.arguments)
            }
            assert set(controversial_arguments(f).names()) == expected

    def test_well_foundedness_against_reachability(self):
        rng = random.Random(74)
        for _ in range(100):
            f = random_framework(rng, max_size=6)
            reach = _reachability(f)
            cyclic = any((i, i) in reach for i in range(len(f)))
            assert has_directed_cycle(f) == cyclic
            assert is_well_founded(f) == (not cyclic)


class TestParityClosureLaws:
    def test_closed_forms_at_scale(self):
        names = [f"c{i}" for i in range(3000)]
        chain = build_framework(names, list(zip(names[1:], names)))
        assert not odd_cycle_exists(chain)
        assert not controversial_arguments(chain)
        odd = ex.directed_cycle(3001)
        assert odd_cycle_exists(odd)
        assert controversial_arguments(odd).mask == odd._full_mask
        even = ex.directed_cycle(3000)
        assert not odd_cycle_exists(even)
        assert not controversial_arguments(even)

    def test_disjoint_union(self):
        rng = random.Random(75)
        for _ in range(100):
            left = _renamed(random_framework(rng, max_size=8), "l")
            right = _renamed(random_framework(rng, max_size=8), "r")
            union = build_framework(
                [a.name for a in left.arguments + right.arguments],
                [(s.name, d.name) for s, d in left.attacks | right.attacks],
            )
            assert set(controversial_arguments(union).names()) == set(
                controversial_arguments(left).names()
            ) | set(controversial_arguments(right).names())
            assert odd_cycle_exists(union) == (
                odd_cycle_exists(left) or odd_cycle_exists(right)
            )

    def test_declaration_order_is_irrelevant(self):
        rng = random.Random(76)
        for _ in range(100):
            f = random_framework(rng, max_size=12)
            order = [a.name for a in f.arguments]
            rng.shuffle(order)
            shuffled = _renamed(f, "", order)
            assert set(controversial_arguments(shuffled).names()) == set(
                controversial_arguments(f).names()
            )
            assert odd_cycle_exists(shuffled) == odd_cycle_exists(f)


_JUSTIFICATION_KINDS = (
    SemanticsKind.COMPLETE,
    SemanticsKind.PREFERRED,
    SemanticsKind.STABLE,
    SemanticsKind.GROUNDED,
)


class TestRenamingLaw:
    """Renaming the arguments and permuting their declaration order commute
    with every semantics, every justification and every classify field."""

    def test_renaming_commutes_with_every_query(self):
        rng = random.Random(77)
        for _ in range(100):
            f = random_framework(rng, max_size=12)
            names = [a.name for a in f.arguments]
            new = dict(zip(names, (f"y{k}" for k in rng.sample(range(100), len(names)))))
            order = rng.sample(names, len(names))
            g = build_framework(
                [new[name] for name in order],
                [(new[s.name], new[d.name]) for s, d in f.attacks],
            )
            for kind in SemanticsKind:
                assert {
                    frozenset(new[name] for name in e.members.names())
                    for e in enumerate_extensions(f, kind)
                } == {frozenset(e.members.names()) for e in enumerate_extensions(g, kind)}, (
                    kind,
                    f.attacks,
                )
            for kind in _JUSTIFICATION_KINDS:
                for name in names:
                    before = justification(f, name, kind)
                    after = justification(g, new[name], kind)
                    assert (before.credulous, before.sceptical) == (
                        after.credulous,
                        after.sceptical,
                    ), (kind, name, f.attacks)
            assert classify(f) == classify(g), f.attacks


class TestStructuralImplications:
    def test_well_founded_implies_everything(self):
        rng = random.Random(43)
        for _ in range(150):
            f = random_acyclic_framework(rng, max_size=8)
            report = classify(f)
            assert report.is_well_founded
            assert report.is_coherent and report.is_relatively_grounded
            assert report.all_dung_semantics_coincide

    def test_no_odd_cycle_implies_coherent_with_stable(self):
        rng = random.Random(44)
        for _ in range(150):
            f = random_odd_cycle_free_framework(rng, max_size=8)
            assert not odd_cycle_exists(f)
            assert is_coherent(f)
            assert _family(f, SemanticsKind.STABLE)

    def test_grounded_stable_collapses_semantics(self):
        rng = random.Random(45)
        for _ in range(150):
            f = random_framework(rng, max_size=8)
            g = grounded(f).members
            stable = _family(f, SemanticsKind.STABLE)
            if g.names() in stable:
                assert _family(f, SemanticsKind.COMPLETE) == {g.names()}
                assert _family(f, SemanticsKind.PREFERRED) == {g.names()}
                assert stable == {g.names()}

    def test_preferred_cover_forces_relative_groundedness(self):
        rng = random.Random(46)
        covered = 0
        for _ in range(300):
            f = random_framework(rng, max_size=7)
            report = classify(f)
            if report.preferred_covers_all:
                covered += 1
                assert report.is_relatively_grounded
                preferred = enumerate_extensions(f, SemanticsKind.PREFERRED)
                meet = f.full_set()
                for e in preferred:
                    meet = meet & e.members
                assert meet == defence(f, f.empty_set())  # the unattacked core
        assert covered > 0

    def test_symmetric_frameworks(self):
        rng = random.Random(47)
        for _ in range(150):
            f = random_symmetric_framework(rng, max_size=8)
            assert is_symmetric(f)
            assert not is_well_founded(f)
            report = classify(f)
            assert report.preferred_covers_all and report.is_coherent

    def test_no_self_attack_coherence_equivalence(self):
        rng = random.Random(48)
        for _ in range(150):
            f = random_framework(rng, max_size=7)
            if classify(f).has_self_attack:
                continue
            pref = _family(f, SemanticsKind.PREFERRED)
            nai = _family(f, SemanticsKind.NAIVE)
            assert (pref <= nai) == is_coherent(f)
