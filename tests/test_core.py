"""Framework construction, forward/backward sets, sub-frameworks."""

import dataclasses
import itertools
import random

import pytest

import af_examples as ex
from argsolve import (
    ArgSet,
    DuplicateArgument,
    EmptyName,
    Extension,
    Framework,
    FrameworkMismatch,
    InvalidName,
    SemanticsKind,
    UnknownArgument,
    UnknownEndpoint,
    backward_set,
    build_framework,
    enumerate_extensions,
    forward_set,
    grounded,
    kleene_least_fixpoint,
    self_attackers,
    unattacked,
)
import argsolve
from argsolve.core import _render
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
        # an id of another framework, whose index names another argument here
        g = build_framework(["c"], [])
        with pytest.raises(UnknownArgument):
            f.resolve(g.argument("c"))

    def test_argument_of_another_type_is_a_type_error(self):
        f = ex.nixon_diamond()
        for value in (0, None, 1.5, b"a", ("a",)):
            with pytest.raises(TypeError, match="name .str. or an ArgumentId"):
                f.resolve(value)
        with pytest.raises(TypeError):
            f.set_of([0])
        with pytest.raises(TypeError):
            0 in f.full_set()


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


def _restrict(framework, members):
    """The framework cut down to ``members``: what replaced ``induced_subframework``."""
    pairs = [(s.name, d.name) for s, d in framework.attacks if s in members and d in members]
    return build_framework(members.names(), pairs)


class TestInducedSubframework:
    def test_restriction_keeps_inner_attack(self):
        f = ex.simple_reinstatement()
        sub = _restrict(f, f.set_of(["a", "b"]))
        assert [a.name for a in sub.arguments] == ["a", "b"]
        assert {(s.name, d.name) for s, d in sub.attacks} == {("b", "a")}

    def test_restrict_to_empty(self):
        f = ex.simple_reinstatement()
        sub = _restrict(f, f.empty_set())
        assert len(sub) == 0

    def test_attacks_with_outside_endpoint_drop(self):
        f = build_framework(
            ["a", "b0", "b1", "c0", "c1"],
            [("b0", "a"), ("b1", "a"), ("c0", "b0"), ("c1", "b1")],
        )
        sub = _restrict(f, f.set_of(["a", "b0", "c1"]))
        assert {(s.name, d.name) for s, d in sub.attacks} == {("b0", "a")}

    def test_full_restriction_is_identity(self):
        f = ex.floating_reinstatement()
        assert _restrict(f, f.full_set()).structurally_equal(f)

    def test_idempotent(self):
        f = ex.floating_reinstatement()
        keep = f.set_of(["a", "b", "c"])
        once = _restrict(f, keep)
        twice = _restrict(once, once.full_set())
        assert once.structurally_equal(twice)

    def test_induced_subframework_is_gone(self):
        # only tests called it; build_framework over the members' names is the same restriction
        assert not hasattr(argsolve, "induced_subframework")
        assert not hasattr(argsolve.core, "induced_subframework")


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
        assert s.complement().names() == ("c", "e")
        assert s.complement().complement() == s
        assert s | s.complement() == f.full_set()
        assert s & s.complement() == f.empty_set()

    def test_mask_outside_the_framework_is_rejected(self):
        f = ex.nixon_diamond()
        assert ArgSet(f, 0) == f.empty_set() and ArgSet(f, 3) == f.full_set()
        for mask in (-1, -4, 4, 1 << 5):
            with pytest.raises(ValueError, match="beyond 2 arguments"):
                ArgSet(f, mask)
        with pytest.raises(ValueError, match="beyond 0 arguments"):
            ArgSet(ex.empty(), 1)

    def test_mask_that_is_not_an_int_is_rejected(self):
        f = ex.nixon_diamond()
        for mask, type_name in ((1.0, "float"), ("1", "str"), (None, "NoneType")):
            with pytest.raises(TypeError, match=f"mask must be an int, not {type_name}"):
                ArgSet(f, mask)

    def test_set_records_are_slotted_frozen_values(self):
        f = ex.simple_reinstatement()
        s = f.set_of(["a", "c"])
        e = grounded(f)
        for record in (s, e):
            assert not hasattr(record, "__dict__")
        with pytest.raises(dataclasses.FrozenInstanceError):
            s.mask = 0
        with pytest.raises(dataclasses.FrozenInstanceError):
            e.members = s
        assert s == ArgSet(f, s.mask) and hash(s) == hash(ArgSet(f, s.mask))
        assert s != f.set_of(["a"]) and s != ArgSet(ex.simple_reinstatement(), s.mask)
        assert e == Extension(s, e.kind) and hash(e) == hash(Extension(s, e.kind))
        assert e != Extension(f.set_of(["a"]), e.kind)


    def test_bulk_built_records_equal_constructed_ones(self):
        # enumerate_extensions and the Kleene iteration build their records
        # without the dataclass __init__; nothing may tell them apart
        def assert_same(record, built):
            assert type(record) is type(built)
            assert record == built and hash(record) == hash(built)
            assert repr(record) == repr(built)
            assert not hasattr(record, "__dict__")

        for f in (ex.floating_reinstatement(), ex.mixed_five(), ex.incoherent_six()):
            for kind in SemanticsKind:
                for e in enumerate_extensions(f, kind):
                    assert_same(e.members, ArgSet(f, e.members.mask))
                    assert_same(e, Extension(ArgSet(f, e.members.mask), kind))
                    with pytest.raises(dataclasses.FrozenInstanceError):
                        e.kind = kind
                    with pytest.raises(dataclasses.FrozenInstanceError):
                        e.members.mask = 0
        names = [f"c{i}" for i in range(9)]
        chain = build_framework(names, list(zip(names, names[1:])))
        steps = kleene_least_fixpoint(chain).steps
        assert len(steps) == 6
        for step in steps:
            assert_same(step, ArgSet(chain, step.mask))
            with pytest.raises(dataclasses.FrozenInstanceError):
                step.framework = chain


def _reference_rendering(framework, mask):
    """A set's text written out here: member names joined in declaration order."""
    names = [a.name for a in framework.arguments]
    return "[" + ",".join(names[i] for i in range(len(names)) if mask >> i & 1) + "]"


def _awkward_names(rng, n):
    """``n`` names that sort below ',' or are prefixes of one another, shuffled."""
    pool = ["".join(t) for k in (1, 2, 3) for t in itertools.product("ab!#+'", repeat=k)]
    pool = [name for name in pool if name not in ("#", "a", "a!", "ab")]
    names = ["a", "a!", "ab"] + rng.sample(pool, n - 3)
    rng.shuffle(names)
    return names


class TestChunkRenderer:
    """Sets render in 8-bit chunks; the text must be the names joined in order."""

    SIZES = (7, 8, 9, 16, 17, 24, 25, 26)

    @pytest.mark.parametrize("n", SIZES)
    def test_str_matches_the_reference(self, n):
        rng = random.Random(200 + n)
        f = build_framework(_awkward_names(rng, n), [])
        masks = [(1 << k) - 1 for k in range(n + 1)] + [3 << k for k in range(n - 1)]
        masks += [rng.getrandbits(n) for _ in range(300)]
        for mask in masks + masks:  # the second pass reads the memo
            assert str(ArgSet(f, mask)) == _reference_rendering(f, mask), (n, bin(mask))

    @pytest.mark.parametrize("n", SIZES)
    def test_extension_order_is_the_reference_order(self, n):
        # mutual pairs between shuffled positions, so pairs straddle chunk edges;
        # an odd n leaves one isolated argument in every extension
        rng = random.Random(300 + n)
        names = _awkward_names(rng, n)
        order = rng.sample(names, n)
        pairs = [(order[i], order[i + 1]) for i in range(0, n - 1, 2)]
        f = build_framework(names, pairs + [(b, a) for a, b in pairs])
        k = n // 2
        counts = {SemanticsKind.STABLE: 2**k, SemanticsKind.PREFERRED: 2**k}
        if n <= 17:  # the isolated argument may stay out of an admissible set
            counts[SemanticsKind.COMPLETE] = 3**k
            counts[SemanticsKind.ADMISSIBLE] = 3**k * 2 ** (n % 2)
        for kind, count in counts.items():
            family = enumerate_extensions(f, kind, max_args=n)
            assert len({e.members.mask for e in family}) == len(family) == count
            texts = [_reference_rendering(f, e.members.mask) for e in family]
            assert [str(e.members) for e in family] == texts
            assert texts == sorted(texts), (n, kind)

    def test_sparse_and_dense_masks_on_4000_arguments(self):
        rng = random.Random(400)
        n = 4000
        f = build_framework([f"x{i}" for i in range(n - 4)] + ["x!", "x", "x+", "x'"], [])
        assert _render(f, 1 << (n - 1)) == "[x']"
        assert len(f._chunk_names) == 1  # the memo holds only the chunks rendered
        masks = [0, 1, 1 << (n - 1), 1 << 255 | 1 << 256, (1 << n) - 1, f._full_mask >> 1]
        masks += [sum(1 << i for i in rng.sample(range(n), k)) for k in (2, 30)]
        masks += [f._full_mask & ~sum(1 << i for i in rng.sample(range(n), 40)) for _ in range(2)]
        for mask in masks + masks:
            assert _render(f, mask) == _reference_rendering(f, mask), bin(mask).count("1")


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


class TestAttackRelation:
    """The masks are the only stored form of the attack relation."""

    def test_pairs_are_derived_from_the_masks(self):
        rng = random.Random(104)
        for _ in range(100):
            names = [f"x{i}" for i in range(rng.randint(0, 9))]
            pairs = [(rng.choice(names), rng.choice(names))
                     for _ in range(rng.randint(0, 3 * len(names)))]
            pairs += [(x, x) for x in names if rng.random() < 0.2]
            f = build_framework(names, pairs + pairs[: len(pairs) // 2])
            assert isinstance(f.attacks, frozenset)
            assert f.attacks == {(a, b) for a in f.arguments for b in f.successors(a)}
            assert {(a.name, b.name) for a, b in f.attacks} == set(pairs)
            assert repr(f) == f"<Framework |A|={len(names)} |R|={len(set(pairs))}>"
        assert "attacks" not in Framework.__slots__

    def test_no_library_path_reads_the_pairs(self, monkeypatch):
        from argsolve import (
            SemanticsKind, classify, controversial_arguments, emit_apx, emit_dot,
            emit_tgf, enumerate_extensions, even_cycle_exists, grounded,
            has_directed_cycle, indirectly_attacks, indirectly_defends, is_coherent,
            is_controversial_wrt, is_limited_controversial, is_relatively_grounded,
            is_symmetric, is_well_founded, justification, odd_cycle_exists, parse_apx,
            parse_tgf,
        )
        from argsolve.semantics import _JUSTIFICATION_KINDS

        # a mutual pair, a three-cycle, a self-loop and a tail
        f = build_framework(
            ["a", "b", "c", "d", "e", "f", "g"],
            [("a", "b"), ("b", "a"), ("b", "c"), ("c", "d"), ("d", "e"), ("e", "c"),
             ("f", "f"), ("f", "g")],
        )

        def refuse(framework):
            raise AssertionError("Framework.attacks read by the library")

        monkeypatch.setattr(Framework, "attacks", property(refuse))
        assert repr(f) == "<Framework |A|=7 |R|=8>"
        assert parse_tgf(emit_tgf(f)).structurally_equal(f)
        assert parse_apx(emit_apx(f)).structurally_equal(f)
        assert emit_dot(f)
        for kind in SemanticsKind:
            enumerate_extensions(f, kind)
        for kind in _JUSTIFICATION_KINDS:
            justification(f, "c", kind)
        grounded(f)
        classify(f)
        for query in (has_directed_cycle, odd_cycle_exists, even_cycle_exists,
                      is_well_founded, is_limited_controversial, controversial_arguments,
                      is_symmetric, is_coherent, is_relatively_grounded):
            query(f)
        for query in (indirectly_attacks, indirectly_defends, is_controversial_wrt):
            query(f, "b", "e")
