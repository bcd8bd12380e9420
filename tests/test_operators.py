"""Neutrality and defence operators plus fixed-point iteration."""

import random

import pytest

import af_examples as ex
import argsolve
from argsolve import (
    FrameworkMismatch,
    SemanticsKind,
    build_framework,
    defence,
    defends,
    enumerate_extensions,
    kleene_least_fixpoint,
    neutrality,
    oracle_enumerate,
    self_attackers,
    unattacked,
)
from random_frameworks import random_framework


def _random_subset(rng, framework):
    return framework.set_of(
        [a.name for a in framework.arguments if rng.random() < 0.5]
    )


class TestNeutrality:
    def test_mutual_pair_table(self):
        f = ex.nixon_diamond()
        assert neutrality(f, f.empty_set()) == f.full_set()
        assert neutrality(f, f.set_of(["a"])).names() == ("a",)
        assert neutrality(f, f.set_of(["b"])).names() == ("b",)
        assert not neutrality(f, f.full_set())

    def test_chain_table(self):
        f = ex.simple_reinstatement()
        assert neutrality(f, f.set_of(["b", "c"])).names() == ("c",)

    def test_whole_set_gives_unattacked(self):
        rng = random.Random(11)
        for _ in range(100):
            f = random_framework(rng, max_size=8)
            assert neutrality(f, f.full_set()) == unattacked(f)

    def test_mismatch(self):
        f, g = ex.nixon_diamond(), ex.nixon_diamond()
        with pytest.raises(FrameworkMismatch):
            neutrality(f, g.empty_set())


class TestDefence:
    def test_mutual_pair_table(self):
        f = ex.nixon_diamond()
        assert not defence(f, f.empty_set())
        assert defence(f, f.set_of(["a"])).names() == ("a",)
        assert defence(f, f.full_set()) == f.full_set()

    def test_chain_table(self):
        f = ex.simple_reinstatement()
        assert defence(f, f.set_of(["c"])).names() == ("a", "c")

    def test_self_loop_interaction(self):
        f = ex.loop_and_mutual()
        assert defence(f, f.set_of(["a"])).names() == ("a", "b")


class TestDefends:
    def test_outside_defender(self):
        f = ex.defended_mutual_pair()
        assert defends(f, f.set_of(["a"]), "c")

    def test_non_defender(self):
        f = ex.defended_mutual_pair()
        assert not defends(f, f.set_of(["b"]), "c")

    def test_unattacked_needs_nothing(self):
        rng = random.Random(12)
        for _ in range(50):
            f = random_framework(rng, max_size=8)
            for a in unattacked(f):
                assert defends(f, f.empty_set(), a)


class TestKleene:
    def test_guarded_pair_trace(self):
        f = ex.mutual_pair_guarded()
        trace = kleene_least_fixpoint(f)
        assert [str(s) for s in trace.steps] == ["[]", "[c]", "[a,c]"]
        assert trace.converged
        assert trace.fixpoint.names() == ("a", "c")

    def test_defence_fixes_the_least_fixpoint(self):
        # started at its fixed point, the iteration would stop after one step
        f = ex.mutual_pair_guarded()
        fix = kleene_least_fixpoint(f).fixpoint
        assert defence(f, fix) == fix
        assert fix.names() == ("a", "c")

    def test_no_unattacked_gives_empty(self):
        trace = kleene_least_fixpoint(ex.nixon_diamond())
        assert [str(s) for s in trace.steps] == ["[]"]
        assert not trace.fixpoint

    def test_half_defended_chain(self):
        trace = kleene_least_fixpoint(ex.half_defended_chain())
        assert trace.fixpoint.names() == ("a",)

    def test_fixpoint_is_fixed(self):
        rng = random.Random(13)
        for _ in range(100):
            f = random_framework(rng, max_size=9)
            trace = kleene_least_fixpoint(f)
            assert defence(f, trace.fixpoint) == trace.fixpoint
            assert len(trace.steps) <= len(f) + 1

    def test_trace_is_ascending(self):
        rng = random.Random(14)
        for _ in range(100):
            f = random_framework(rng, max_size=9)
            steps = kleene_least_fixpoint(f).steps
            for earlier, later in zip(steps, steps[1:]):
                assert earlier < later

    def test_chain_from_empty(self):
        f = ex.simple_reinstatement()
        trace = kleene_least_fixpoint(f)
        assert trace.steps[0] == f.empty_set()
        assert trace.converged
        assert trace.fixpoint.names() == ("a", "c")

    def test_neutrality_squared_is_gone(self):
        # it returned defence; neutrality(f, neutrality(f, s)) is the same set
        assert not hasattr(argsolve, "neutrality_squared")
        assert not hasattr(argsolve.operators, "neutrality_squared")

    def test_iterate_to_fixpoint_is_gone(self):
        # kleene_least_fixpoint is the one defence iteration; it starts at the empty set
        assert not hasattr(argsolve, "iterate_to_fixpoint")
        assert "iterate_to_fixpoint" not in argsolve.__all__
        assert not hasattr(argsolve.operators, "iterate_to_fixpoint")


class TestOperatorLaws:
    def test_squared_neutrality_is_defence(self):
        rng = random.Random(15)
        for _ in range(100):
            f = random_framework(rng, max_size=8)
            s = _random_subset(rng, f)
            assert neutrality(f, neutrality(f, s)) == defence(f, s)
            steps = [f.empty_set()]
            while True:
                nxt = neutrality(f, neutrality(f, steps[-1]))
                if nxt == steps[-1]:
                    break
                steps.append(nxt)
            assert tuple(steps) == kleene_least_fixpoint(f).steps

    def test_defence_can_oscillate_off_the_empty_chain(self):
        # defence swaps {q1} and {q3}, so iterating it from {q1} never settles;
        # only the chain from the empty set is guaranteed to climb to a fixed point
        f = build_framework(
            ["q0", "q1", "q2", "q3"],
            [
                ("q0", "q0"), ("q0", "q2"), ("q0", "q3"), ("q1", "q0"),
                ("q2", "q1"), ("q2", "q2"), ("q3", "q2"),
            ],
        )
        assert defence(f, f.set_of(["q1"])).names() == ("q3",)
        assert defence(f, f.set_of(["q3"])).names() == ("q1",)
        assert [str(s) for s in kleene_least_fixpoint(f).steps] == ["[]"]

    def test_defence_is_neutrality_squared(self):
        rng = random.Random(16)
        for _ in range(200):
            f = random_framework(rng)
            s = _random_subset(rng, f)
            assert defence(f, s) == neutrality(f, neutrality(f, s))

    def test_commutation(self):
        rng = random.Random(17)
        for _ in range(200):
            f = random_framework(rng)
            s = _random_subset(rng, f)
            assert defence(f, neutrality(f, s)) == neutrality(f, defence(f, s))

    def test_antitone_and_monotone(self):
        rng = random.Random(18)
        for _ in range(200):
            f = random_framework(rng)
            small = _random_subset(rng, f)
            big = small | _random_subset(rng, f)
            assert neutrality(f, big) <= neutrality(f, small)
            assert defence(f, small) <= defence(f, big)

    def test_family_laws(self):
        rng = random.Random(19)
        for _ in range(100):
            f = random_framework(rng, max_size=8)
            family = [_random_subset(rng, f) for _ in range(rng.randint(1, 4))]
            union = f.empty_set()
            for s in family:
                union = union | s
            meet_n = f.full_set()
            union_d = f.empty_set()
            for s in family:
                meet_n = meet_n & neutrality(f, s)
                union_d = union_d | defence(f, s)
            assert neutrality(f, union) == meet_n
            assert union_d <= defence(f, union)

    def test_unattacked_below_defence(self):
        # F(∅) = n(A): the arguments with no attacker, self-attackers never among them
        rng = random.Random(20)
        with_loops = 0
        for _ in range(300):
            f = random_framework(rng, max_size=14)
            with_loops += bool(self_attackers(f))
            no_attacker = [a for a in f.arguments if not f.predecessors(a)]
            assert unattacked(f) == defence(f, f.empty_set()) == f.set_of(no_attacker)
            assert unattacked(f) <= defence(f, _random_subset(rng, f))
        assert with_loops > 100

    def test_least_fixpoint_against_oracle(self):
        rng = random.Random(21)
        for _ in range(60):
            f = random_framework(rng, max_size=8)
            fast = kleene_least_fixpoint(f).fixpoint
            slow = oracle_enumerate(f, SemanticsKind.GROUNDED).extensions
            assert [fast] == slow
            # least among all fixed points of the defence operator
            for size_mask in range(2 ** len(f)):
                candidate = f.set_of(
                    [a.name for a in f.arguments if size_mask >> a.index & 1]
                )
                if defence(f, candidate) == candidate:
                    assert fast <= candidate
