"""Framework construction, forward/backward sets, sub-frameworks."""

import random

import pytest

import af_examples as ex
from argsolve import (
    DuplicateArgument,
    EmptyName,
    FrameworkMismatch,
    InvalidName,
    UnknownArgument,
    UnknownEndpoint,
    backward_set,
    build_framework,
    forward_set,
    induced_subframework,
    self_attackers,
    unattacked,
)
from random_frameworks import random_framework


class TestBuildFramework:
    def test_mutual_pair(self):
        f = build_framework(["a", "b"], [("a", "b"), ("b", "a")])
        assert [arg.name for arg in f.arguments] == ["a", "b"]
        assert f.has_attack("a", "b") and f.has_attack("b", "a")

    def test_empty(self):
        f = build_framework([], [])
        assert len(f) == 0 and not f.attacks

    def test_unknown_endpoint(self):
        with pytest.raises(UnknownEndpoint):
            build_framework(["a"], [("a", "x")])
        with pytest.raises(UnknownEndpoint):
            build_framework(["a"], [("x", "a")])

    def test_duplicate_argument(self):
        with pytest.raises(DuplicateArgument):
            build_framework(["a", "a"], [])

    def test_empty_name(self):
        with pytest.raises(EmptyName):
            build_framework(["a", ""], [])

    def test_unwritable_names_rejected(self):
        for name in ["x y", "#", "c,d", 'a"b', "a\\b", "p%", "[x]", "f(x)", "t\tu"]:
            with pytest.raises(InvalidName) as info:
                build_framework(["a", name], [])
            assert info.value.name == name
        build_framework(["#a", "a#", "a.b", "x'", "n:1", "é"], [])

    def test_duplicate_attacks_collapse(self):
        f = build_framework(["a", "b"], [("a", "b"), ("a", "b")])
        assert len(f.attacks) == 1

    def test_declaration_order_defines_index(self):
        f = build_framework(["z", "y", "x"], [])
        assert [a.index for a in f.arguments] == [0, 1, 2]
        assert f.argument("x").index == 2

    def test_unknown_argument_lookup(self):
        f = ex.nixon_diamond()
        with pytest.raises(UnknownArgument):
            f.argument("zzz")


class TestForwardBackward:
    def test_singleton_forward(self):
        f = ex.nixon_diamond()
        assert forward_set(f, f.set_of(["a"])).names() == ("b",)

    def test_empty_set_both_ways(self):
        f = ex.floating_reinstatement()
        assert not forward_set(f, f.empty_set())
        assert not backward_set(f, f.empty_set())

    def test_forward_of_pair(self):
        f = ex.floating_reinstatement()
        assert forward_set(f, f.set_of(["a", "b"])).names() == ("a", "b", "c")

    def test_backward_contains_outside_attacker(self):
        f = ex.mutual_pair_guarded()
        back = backward_set(f, f.set_of(["a", "b"]))
        assert "c" in back
        assert back.names() == ("a", "b", "c")

    def test_backward_of_pair(self):
        f = ex.double_reinstatement()
        assert backward_set(f, f.set_of(["a", "b"])).names() == ("b", "c", "e")

    def test_framework_mismatch(self):
        f, g = ex.nixon_diamond(), ex.nixon_diamond()
        with pytest.raises(FrameworkMismatch):
            forward_set(f, g.set_of(["a"]))
        with pytest.raises(FrameworkMismatch):
            f.set_of(["a"]) | g.set_of(["b"])


class TestUnattacked:
    def test_chain_of_four(self):
        f = ex.chain_of_four()
        assert unattacked(f).names() == ("e",)

    def test_all_attacked(self):
        assert not unattacked(ex.floating_reinstatement())

    def test_trivial(self):
        f = ex.trivial_pair()
        assert unattacked(f).names() == ("a", "b")


class TestSelfAttackers:
    def test_with_loop(self):
        assert self_attackers(ex.self_attack_pair()).names() == ("a",)

    def test_without_loop(self):
        assert not self_attackers(ex.nixon_diamond())

    def test_mixed_five(self):
        assert self_attackers(ex.mixed_five()).names() == ("e",)


class TestInducedSubframework:
    def test_restriction_keeps_inner_attack(self):
        f = ex.simple_reinstatement()
        sub = induced_subframework(f, f.set_of(["a", "b"]))
        assert [a.name for a in sub.arguments] == ["a", "b"]
        assert {(s.name, d.name) for s, d in sub.attacks} == {("b", "a")}

    def test_restrict_to_empty(self):
        f = ex.simple_reinstatement()
        sub = induced_subframework(f, f.empty_set())
        assert len(sub) == 0

    def test_attacks_with_outside_endpoint_drop(self):
        f = build_framework(
            ["a", "b0", "b1", "c0", "c1"],
            [("b0", "a"), ("b1", "a"), ("c0", "b0"), ("c1", "b1")],
        )
        sub = induced_subframework(f, f.set_of(["a", "b0", "c1"]))
        assert {(s.name, d.name) for s, d in sub.attacks} == {("b0", "a")}

    def test_full_restriction_is_identity(self):
        f = ex.floating_reinstatement()
        assert induced_subframework(f, f.full_set()).structurally_equal(f)

    def test_idempotent(self):
        f = ex.floating_reinstatement()
        keep = f.set_of(["a", "b", "c"])
        once = induced_subframework(f, keep)
        twice = induced_subframework(once, once.full_set())
        assert once.structurally_equal(twice)


class TestArgSetBasics:
    def test_render_and_iter(self):
        f = ex.simple_reinstatement()
        s = f.set_of(["c", "a"])
        assert str(s) == "[a,c]"
        assert [a.name for a in s] == ["a", "c"]
        assert len(s) == 2

    def test_membership_by_name_and_id(self):
        f = ex.simple_reinstatement()
        s = f.set_of(["a"])
        assert "a" in s and f.argument("a") in s
        assert "b" not in s
        with pytest.raises(UnknownArgument):
            "nope" in s

    def test_set_algebra(self):
        f = ex.chain_of_four()
        s, t = f.set_of(["a", "b"]), f.set_of(["b", "c"])
        assert (s | t).names() == ("a", "b", "c")
        assert (s & t).names() == ("b",)
        assert (s - t).names() == ("a",)
        assert f.set_of(["b"]) <= t and not (s <= t)


class TestRandomisedInvariants:
    def test_forward_backward_duality(self):
        rng = random.Random(101)
        for _ in range(100):
            f = random_framework(rng, max_size=8)
            for a in f.arguments:
                for b in f.arguments:
                    assert (b in f.predecessors(a)) == (a in f.successors(b))

    def test_monotonicity(self):
        rng = random.Random(102)
        for _ in range(100):
            f = random_framework(rng, max_size=8)
            if not len(f):
                continue
            members = [a.name for a in f.arguments if rng.random() < 0.5]
            small = f.set_of(rng.sample(members, rng.randint(0, len(members))) if members else [])
            big = small | f.set_of(members)
            assert forward_set(f, small) <= forward_set(f, big)
            assert backward_set(f, small) <= backward_set(f, big)

    def test_union_intersection_distribution(self):
        rng = random.Random(103)
        for _ in range(100):
            f = random_framework(rng, max_size=8)
            family = [
                f.set_of([a.name for a in f.arguments if rng.random() < 0.4])
                for _ in range(3)
            ]
            union = f.empty_set()
            meet = f.full_set()
            for s in family:
                union, meet = union | s, meet & s
            fwd_union = f.empty_set()
            fwd_meet = None
            for s in family:
                fwd_union = fwd_union | forward_set(f, s)
                part = forward_set(f, s)
                fwd_meet = part if fwd_meet is None else fwd_meet & part
            assert forward_set(f, union) == fwd_union
            assert forward_set(f, meet) <= fwd_meet
            bwd_union = f.empty_set()
            for s in family:
                bwd_union = bwd_union | backward_set(f, s)
            assert backward_set(f, union) == bwd_union
