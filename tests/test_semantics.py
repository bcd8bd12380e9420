"""Membership predicates, enumeration, and justification queries."""

import math
import os
import random
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import af_examples as ex
from argsolve import (
    FrameworkMismatch,
    SemanticsKind,
    TooLarge,
    UnknownArgument,
    build_framework,
    classify,
    controversial_arguments,
    defence,
    enumerate_extensions,
    grounded,
    is_admissible,
    is_coherent,
    is_complete,
    is_conflict_free,
    is_limited_controversial,
    is_relatively_grounded,
    is_self_defending,
    is_stable,
    is_well_founded,
    justification,
    oracle_enumerate,
    unattacked,
)
from argsolve import core, semantics
from random_frameworks import (
    random_framework,
    random_scc_chain_framework,
    random_shuffled_names_framework,
)


def _family(framework, kind, **kwargs):
    return {
        e.members.names() for e in enumerate_extensions(framework, kind, **kwargs)
    }


class TestPredicates:
    def test_conflict_free(self):
        f = ex.simple_reinstatement()
        assert is_conflict_free(f, f.set_of(["a", "c"]))
        assert is_conflict_free(f, f.empty_set())
        g = ex.nixon_diamond()
        assert not is_conflict_free(g, g.full_set())

    def test_self_defending(self):
        f = ex.cycle_with_tail()
        assert is_self_defending(f, f.set_of(["b", "c", "e"]))
        assert is_self_defending(f, f.empty_set())
        g = ex.simple_reinstatement()
        assert not is_self_defending(g, g.set_of(["b"]))

    def test_admissible(self):
        f = ex.half_defended_chain()
        assert not is_admissible(f, f.set_of(["c"]))
        g = ex.self_attack_blocker()
        assert not is_admissible(g, g.set_of(["a"]))
        rng = random.Random(31)
        for _ in range(50):
            h = random_framework(rng, max_size=8)
            free = [a.name for a in unattacked(h)]
            subset = h.set_of(rng.sample(free, rng.randint(0, len(free))))
            assert is_admissible(h, subset)

    def test_complete(self):
        f = ex.floating_reinstatement()
        assert is_complete(f, f.set_of(["a", "e"]))
        assert not is_complete(f, f.set_of(["a"]))
        g = ex.mutual_pair_with_odd_loop()
        assert is_complete(g, g.empty_set())
        with pytest.raises(FrameworkMismatch):
            is_complete(f, ex.floating_reinstatement().set_of(["a", "e"]))

    def test_stable(self):
        f = ex.mixed_five()
        assert is_stable(f, f.set_of(["a", "f"]))
        loop = build_framework(["a"], [("a", "a")])
        assert not is_stable(loop, loop.empty_set())
        assert not is_stable(loop, loop.full_set())
        void = ex.empty()
        assert is_stable(void, void.empty_set())


class TestGrounded:
    def test_simple_reinstatement(self):
        f = ex.simple_reinstatement()
        result = grounded(f)
        assert result.kind is SemanticsKind.GROUNDED
        assert result.members.names() == ("a", "c")

    def test_self_attack_blocker(self):
        assert grounded(ex.self_attack_blocker()).members.names() == ("b", "e")

    def test_empty_unattacked_forces_empty(self):
        rng = random.Random(32)
        for _ in range(100):
            f = random_framework(rng, max_size=8)
            if not unattacked(f):
                assert not grounded(f).members


# Runs in a child process, so the lowered recursion limit cannot reach the suite:
# on a 400-chain the deepest searched path includes 200 arguments, twice the limit.
_DEEP_CHAIN = """
import sys
from argsolve import SemanticsKind, build_framework, enumerate_extensions
from argsolve.cli import main

names = [f"x{i}" for i in range(400)]
chain = build_framework(names, list(zip(names, names[1:])))
with open(sys.argv[1], "w") as out:
    out.write("\\n".join(names + ["#"] + [f"{a} {b}" for a, b in zip(names, names[1:])]))
sys.setrecursionlimit(100)
even = "[" + ",".join(names[::2]) + "]"
for kind in ("complete", "preferred", "stable"):
    found = enumerate_extensions(chain, SemanticsKind(kind), max_args=400)
    assert [str(e.members) for e in found] == [even], kind
admissible = enumerate_extensions(chain, SemanticsKind.ADMISSIBLE, max_args=400)
assert len(admissible) == 201  # the prefixes x0, x2, ..., x2k of the even arguments
argv = ["justify", "-f", sys.argv[1], "-s", "stable", "-a", "x0", "--mode", "credulous"]
sys.exit(main(argv + ["--max-args", "400"]))
"""


class TestDeepComponents:
    def test_search_and_cli_below_a_recursion_limit_of_100(self, tmp_path):
        env = {**os.environ, "PYTHONPATH": str(Path(__file__).parents[1] / "src")}
        done = subprocess.run(
            [sys.executable, "-c", _DEEP_CHAIN, str(tmp_path / "chain.tgf")],
            env=env, capture_output=True, text=True,
        )
        assert (done.returncode, done.stdout, done.stderr) == (0, "YES\n", "")


class TestEnumerate:
    def test_floating_naive(self):
        f = ex.floating_reinstatement()
        assert _family(f, SemanticsKind.NAIVE) == {("c",), ("a", "e"), ("b", "e")}

    def test_mixed_five_admissible(self):
        f = ex.mixed_five()
        assert _family(f, SemanticsKind.ADMISSIBLE) == {
            (),
            ("a",),
            ("c",),
            ("a", "c"),
            ("f",),
            ("a", "f"),
        }

    def test_incoherent_six_preferred_and_stable(self):
        f = ex.incoherent_six()
        assert _family(f, SemanticsKind.PREFERRED) == {("a2",), ("a4", "a5")}
        assert _family(f, SemanticsKind.STABLE) == {("a4", "a5")}

    def test_grounded_kind_yields_single(self):
        f = ex.nixon_diamond()
        result = enumerate_extensions(f, SemanticsKind.GROUNDED)
        assert len(result) == 1 and not result[0].members

    def test_defended_mutual_pair_families(self):
        f = ex.defended_mutual_pair()
        assert _family(f, SemanticsKind.COMPLETE) == {("a", "c")}
        assert _family(f, SemanticsKind.PREFERRED) == {("a", "c")}
        assert _family(f, SemanticsKind.STABLE) == {("a", "c")}

    def test_half_defended_chain_families(self):
        f = ex.half_defended_chain()
        assert _family(f, SemanticsKind.COMPLETE) == {
            ("a",), ("a", "c", "f"), ("a", "e")
        }
        assert _family(f, SemanticsKind.PREFERRED) == {("a", "c", "f"), ("a", "e")}
        assert _family(f, SemanticsKind.STABLE) == {("a", "c", "f"), ("a", "e")}

    def test_self_attack_blocker_families(self):
        f = ex.self_attack_blocker()
        assert _family(f, SemanticsKind.COMPLETE) == {("b", "e")}
        assert _family(f, SemanticsKind.PREFERRED) == {("b", "e")}
        assert _family(f, SemanticsKind.STABLE) == set()

    def test_mutual_pair_with_odd_loop_families(self):
        f = ex.mutual_pair_with_odd_loop()
        assert _family(f, SemanticsKind.COMPLETE) == {(), ("a",), ("b", "e")}
        assert _family(f, SemanticsKind.PREFERRED) == {("a",), ("b", "e")}
        assert _family(f, SemanticsKind.STABLE) == {("b", "e")}

    def test_canonical_order(self):
        f = ex.floating_reinstatement()
        rendered = [
            str(e.members) for e in enumerate_extensions(f, SemanticsKind.CONFLICT_FREE)
        ]
        assert rendered == sorted(rendered)
        assert rendered[0] == "[]"

    def test_too_large(self):
        names = [f"x{i}" for i in range(25)]
        pairs = [(a, b) for a in names for b in names if a != b]
        f = build_framework(names, pairs)
        with pytest.raises(TooLarge):
            enumerate_extensions(f, SemanticsKind.CONFLICT_FREE)
        # explicit override lifts the bound; grounded never needs one
        assert enumerate_extensions(f, SemanticsKind.GROUNDED)
        assert len(enumerate_extensions(f, SemanticsKind.PREFERRED, max_args=25)) == 25

    def test_limit_and_positional_bound_are_gone(self):
        f = ex.mixed_five()
        for call in (
            lambda: enumerate_extensions(f, SemanticsKind.ADMISSIBLE, 3),
            lambda: enumerate_extensions(f, SemanticsKind.ADMISSIBLE, limit=3),
        ):
            with pytest.raises(TypeError):
                call()

    def test_negative_bound_is_rejected(self):
        f = ex.mixed_five()
        for kind in SemanticsKind:
            with pytest.raises(ValueError, match="max_args"):
                enumerate_extensions(f, kind, max_args=-1)
        # zero is a valid bound: this framework is simply too large for it
        with pytest.raises(TooLarge):
            enumerate_extensions(f, SemanticsKind.ADMISSIBLE, max_args=0)

    def test_string_kind_is_rejected(self):
        # the kind is checked before the bound: 25 arguments are not TooLarge here
        large = build_framework([f"x{i}" for i in range(25)], [])
        for f in (ex.floating_reinstatement(), large):
            for kind in SemanticsKind:
                with pytest.raises(ValueError, match="unknown semantics kind"):
                    enumerate_extensions(f, kind.value)

    def test_complete_search_on_a_scope_leaves_out_what_lies_outside(self):
        # i is unattacked but outside the scope: n(n(S)) taken over the whole
        # framework would always hold i, so no set of the scope would be complete
        f = build_framework(
            ["i", "a", "b", "c", "j"], [("a", "b"), ("b", "a"), ("b", "c"), ("i", "j")]
        )
        scope = f.set_of(["a", "b", "c"]).mask
        sccs = [scc for scc in core._scc_order(f) if scc & scope]
        found = semantics._search_masks(f, SemanticsKind.COMPLETE, sccs)
        assert sorted(core.ArgSet(f, m).names() for m in found) == [(), ("a", "c"), ("b",)]
        # the search went SCC by SCC, sources first: {a, b} before c, and i before j
        order = [core.ArgSet(f, m).names() for m in core._scc_order(f)]
        assert order.index(("a", "b")) < order.index(("c",)) and order.index(("i",)) < order.index(("j",))
        assert _family(f, SemanticsKind.COMPLETE) == {("i",), ("i", "a", "c"), ("i", "b")}

    def test_empty_framework_families(self):
        f = ex.empty()
        for kind in SemanticsKind:
            assert _family(f, kind) == {()}

    def test_no_search_builds_a_framework(self, monkeypatch):
        # every component is searched on the framework's own masks
        single = ex.floating_reinstatement()
        multi = build_framework(
            ["a", "x", "b", "i", "y", "c"],
            [("a", "b"), ("b", "a"), ("x", "y"), ("y", "x"), ("b", "c")],
        )

        def answers(f):
            families = [
                [e.members.names() for e in enumerate_extensions(f, kind)]
                for kind in SemanticsKind
            ]
            statuses = [
                justification(f, a, kind)
                for a in f.arguments
                for kind in (
                    SemanticsKind.COMPLETE,
                    SemanticsKind.PREFERRED,
                    SemanticsKind.STABLE,
                )
            ]
            return families, statuses

        expected = [answers(f) for f in (single, multi)]

        def refuse(self, names, attack_pairs):
            raise AssertionError("a search built a Framework")

        monkeypatch.setattr(core.Framework, "__init__", refuse)
        assert [answers(f) for f in (single, multi)] == expected


_SEARCHED = [kind for kind in SemanticsKind if kind is not SemanticsKind.GROUNDED]
_COUNTED = (SemanticsKind.CONFLICT_FREE, SemanticsKind.SELF_DEFENDING, SemanticsKind.ADMISSIBLE)


def _hub(k):
    # k mutual pairs a_i <-> b_i, every a_i attacks z; names in shuffled order
    names = [f"{side}{i}" for i in range(k) for side in "ab"] + ["z"]
    pairs = [(f"a{i}", f"b{i}") for i in range(k)] + [(f"b{i}", f"a{i}") for i in range(k)]
    random.Random(21).shuffle(names)
    return build_framework(names, pairs + [(f"a{i}", "z") for i in range(k)])


class TestCountMasks:
    """``_count_masks`` counts the sets ``_search_masks`` lists, without listing them."""

    @pytest.mark.parametrize(
        "make, seed",
        [
            (random_framework, 251),
            (random_scc_chain_framework, 252),
            (random_shuffled_names_framework, 253),
        ],
    )
    def test_counts_equal_the_search_on_every_weak_component(self, make, seed):
        # 1000 frameworks per generator; random_framework draws self-loops, and the
        # SCC chains and shuffled names put declaration order apart from the SCC order
        rng = random.Random(seed)
        for _ in range(1000):
            f = make(rng)
            components = core._weak_components(f)
            grouped = [scc for sccs in components for scc in sccs]
            assert sorted(grouped) == sorted(core._scc_order(f))
            for sccs in components:
                scope = sum(sccs)  # no attack leaves a component
                assert (core._forward_mask(f, scope) | core._backward_mask(f, scope)) & ~scope == 0
                assert sccs == [scc for scc in core._scc_order(f) if scc & scope]
                for kind in _COUNTED:
                    found = semantics._search_masks(f, kind, sccs)
                    assert semantics._count_masks(f, kind, sccs) == len(found), (kind, f.attacks)
            for kind in _COUNTED:  # every component at once: the product of their counts
                counts = [semantics._count_masks(f, kind, sccs) for sccs in components]
                assert semantics._count_masks(f, kind, grouped) == math.prod(counts)

    def test_empty_framework_has_one_set_of_each_kind(self):
        f = ex.empty()
        assert core._weak_components(f) == []
        for kind in _COUNTED:
            assert semantics._count_masks(f, kind, []) == 1 == len(enumerate_extensions(f, kind))
            assert classify(f).extension_counts[kind] == 1

    def test_twelve_mutual_pairs(self):
        # per pair: 3 conflict-free, 4 self-defending and 3 admissible sets; the whole
        # framework, twelve components at once, is counted without listing 4^12 sets
        names = [f"{side}{i}" for i in range(12) for side in "ab"]
        pairs = [(f"a{i}", f"b{i}") for i in range(12)]
        f = build_framework(names, pairs + [(b, a) for a, b in pairs])
        components = core._weak_components(f)
        for sccs in components:
            for kind in _COUNTED:
                count = semantics._count_masks(f, kind, sccs)
                assert count == len(semantics._search_masks(f, kind, sccs))
        for kind, base in zip(_COUNTED, (3, 4, 3)):
            assert semantics._count_masks(f, kind, sum(components, [])) == base**12

    def test_ten_pair_hub_self_defending_count(self):
        # one weak component of 1,049,600 self-defending sets, which a listing search
        # took about 0.7-0.8 s to build
        hub = _hub(10)
        (sccs,) = core._weak_components(hub)
        start = time.process_time()
        count = semantics._count_masks(hub, SemanticsKind.SELF_DEFENDING, sccs)
        assert count == 1_049_600 and time.process_time() - start < 0.1


class TestSccListInput:
    """Both engines take a list of SCCs, each after its attackers' SCCs, that together hold
    their members' attackers, and find the family of the framework cut down to that list."""

    @pytest.mark.parametrize(
        "make, seed",
        [
            (random_framework, 261),
            (random_scc_chain_framework, 262),
            (random_shuffled_names_framework, 263),
        ],
    )
    def test_the_arguments_that_reach_one_argument(self, make, seed):
        # 500 frameworks per generator, n <= 10: the arguments that reach a given one hold
        # their own attackers, yet need not be a union of weak components
        rng = random.Random(seed)
        for _ in range(500):
            f = make(rng, max_size=10)
            scopes = set()
            for a in range(len(f.arguments)):
                reach = frontier = 1 << a
                while frontier:
                    frontier = core._backward_mask(f, frontier) & ~reach
                    reach |= frontier
                scopes.add(reach)
            for scope in scopes:
                sccs = [scc for scc in core._scc_order(f) if scc & scope]
                names = core.ArgSet(f, scope).names()
                pairs = [(s.name, d.name) for s, d in f.attacks if {s.name, d.name} <= set(names)]
                sub = build_framework(names, pairs)
                for kind in _SEARCHED:
                    oracle = oracle_enumerate(sub, kind).extensions
                    expected = [f.set_of(s.names()).mask for s in oracle]
                    found = semantics._search_masks(f, kind, sccs)
                    assert sorted(found) == sorted(expected), (kind, names, f.attacks)
                    if kind in _COUNTED:
                        assert semantics._count_masks(f, kind, sccs) == len(expected)

    def test_an_empty_list(self):
        # the framework cut down to nothing has one set of every kind: the empty one
        for f in (ex.empty(), ex.mixed_five()):
            for kind in _SEARCHED:
                assert semantics._search_masks(f, kind, []) == [0]
                assert semantics._count_masks(f, kind, []) == 1


class TestSccOrderSpeed:
    """Complete, preferred and stable prune at every SCC boundary, not only at the leaf."""

    @pytest.mark.parametrize("k", [10, 12])
    def test_hub_preferred(self, k):
        # k mutual pairs a_i <-> b_i, every a_i attacks z: 2^k preferred extensions among
        # 3^k + 1 admissible sets. A leaf-only search took about 0.6 s at k = 10; kept
        # lists never emptied at the SCC boundaries took about 0.9 s at k = 12
        hub = _hub(k)
        start = time.process_time()
        (factor,) = semantics._factors(hub, SemanticsKind.PREFERRED, 2 * k + 1)
        assert len(factor) == 2**k and time.process_time() - start < 0.1
        start = time.process_time()
        status = justification(hub, "a0", SemanticsKind.PREFERRED, max_args=2 * k + 1)
        assert status.credulous and not status.sceptical
        assert time.process_time() - start < 0.1

    @pytest.mark.parametrize("kind", ["complete", "preferred", "stable"])
    def test_long_chain(self, kind):
        # one extension, every other argument; a leaf-only search took 2.5-3.9 s
        names = [f"x{i}" for i in range(3000)]
        f = build_framework(names, list(zip(names, names[1:])))
        start = time.process_time()
        (extension,) = enumerate_extensions(f, SemanticsKind(kind), max_args=3000)
        assert len(extension.members) == 1500 and time.process_time() - start < 0.5


class TestJustification:
    def test_sceptical_preferred(self):
        f = ex.floating_reinstatement()
        status = justification(f, "e", SemanticsKind.PREFERRED)
        assert status.sceptical and status.credulous and not status.overruled

    def test_credulous_only(self):
        f = ex.floating_reinstatement()
        status = justification(f, "a", SemanticsKind.PREFERRED)
        assert status.credulous and not status.sceptical

    def test_grounded_overruled(self):
        f = ex.nixon_diamond()
        status = justification(f, "a", SemanticsKind.GROUNDED)
        assert not status.credulous and not status.sceptical and status.overruled

    def test_no_stable_extensions_justify_nothing(self):
        f = ex.self_attack_blocker()  # stable family is empty here
        assert enumerate_extensions(f, SemanticsKind.STABLE) == []
        for name in ("a", "b", "c", "e"):
            status = justification(f, name, SemanticsKind.STABLE)
            assert not status.credulous and not status.sceptical

    def test_sceptical_complete_is_grounded_membership(self):
        rng = random.Random(33)
        for _ in range(50):
            f = random_framework(rng, max_size=7)
            g = grounded(f).members
            for a in f.arguments:
                status = justification(f, a, SemanticsKind.COMPLETE)
                assert status.sceptical == (a in g)

    def test_unknown_argument(self):
        with pytest.raises(UnknownArgument):
            justification(ex.nixon_diamond(), "zzz", SemanticsKind.PREFERRED)
        with pytest.raises(TypeError, match="name .str. or an ArgumentId"):
            justification(ex.nixon_diamond(), 0, SemanticsKind.GROUNDED)

    def test_negative_bound_is_rejected(self):
        f = ex.mixed_five()
        for kind in (SemanticsKind.PREFERRED, SemanticsKind.GROUNDED):
            with pytest.raises(ValueError, match="max_args"):
                justification(f, f.arguments[0], kind, max_args=-1)

    def test_string_kind_is_rejected(self):
        f = ex.floating_reinstatement()
        for kind in SemanticsKind:
            with pytest.raises(ValueError, match=re.escape(repr(kind.value))):
                justification(f, "e", kind.value)

    def test_stable_needs_every_component(self):
        # the self-attacker's component has no stable extension, so no part does
        f = build_framework(["a", "b", "s"], [("a", "b"), ("b", "a"), ("s", "s")])
        for name in ("a", "b"):
            status = justification(f, name, SemanticsKind.STABLE)
            assert (status.credulous, status.sceptical) == (False, False)
        assert justification(f, "a", SemanticsKind.PREFERRED).credulous

    def test_non_justification_kind_rejected(self):
        with pytest.raises(ValueError):
            justification(ex.nixon_diamond(), "a", SemanticsKind.NAIVE)


class TestFamilyLaws:
    def test_inclusion_chain(self):
        rng = random.Random(34)
        for _ in range(100):
            f = random_framework(rng, max_size=8)
            stab = _family(f, SemanticsKind.STABLE)
            pref = _family(f, SemanticsKind.PREFERRED)
            comp = _family(f, SemanticsKind.COMPLETE)
            adm = _family(f, SemanticsKind.ADMISSIBLE)
            cf = _family(f, SemanticsKind.CONFLICT_FREE)
            assert stab <= pref <= comp <= adm <= cf

    def test_admissible_extends_to_preferred(self):
        rng = random.Random(35)
        for _ in range(60):
            f = random_framework(rng, max_size=7)
            adm = _family(f, SemanticsKind.ADMISSIBLE)
            pref = _family(f, SemanticsKind.PREFERRED)
            for s in adm:
                assert any(set(s) <= set(p) for p in pref)

    def test_stable_subset_of_naive(self):
        rng = random.Random(36)
        for _ in range(100):
            f = random_framework(rng, max_size=8)
            assert _family(f, SemanticsKind.STABLE) <= _family(f, SemanticsKind.NAIVE)

    def test_fundamental_lemma(self):
        rng = random.Random(37)
        checked = 0
        while checked < 100:
            f = random_framework(rng, max_size=7)
            adm = enumerate_extensions(f, SemanticsKind.ADMISSIBLE)
            s = rng.choice(adm).members
            defended = list(defence(f, s))
            if not defended:
                continue
            a, b = rng.choice(defended), rng.choice(defended)
            extended = s | f.set_of([a])
            assert is_admissible(f, extended)
            assert b in defence(f, extended)
            checked += 1

    def test_generalised_fundamental_lemma(self):
        rng = random.Random(38)
        for _ in range(100):
            f = random_framework(rng, max_size=7)
            adm = enumerate_extensions(f, SemanticsKind.ADMISSIBLE)
            s = rng.choice(adm).members
            defended = list(defence(f, s))
            w = f.set_of(rng.sample(defended, rng.randint(0, len(defended))))
            v = f.set_of(rng.sample(defended, rng.randint(0, len(defended))))
            widened = s | w
            assert is_admissible(f, widened)
            assert v <= defence(f, widened)

    def test_defence_closed_on_each_family(self):
        rng = random.Random(39)
        predicates = {
            SemanticsKind.CONFLICT_FREE: is_conflict_free,
            SemanticsKind.SELF_DEFENDING: is_self_defending,
            SemanticsKind.ADMISSIBLE: is_admissible,
            SemanticsKind.COMPLETE: is_complete,
        }
        for _ in range(60):
            f = random_framework(rng, max_size=7)
            for kind, predicate in predicates.items():
                for e in enumerate_extensions(f, kind):
                    assert predicate(f, defence(f, e.members))

    def test_conflict_free_union_of_admissible_is_admissible(self):
        rng = random.Random(40)
        for _ in range(100):
            f = random_framework(rng, max_size=7)
            adm = enumerate_extensions(f, SemanticsKind.ADMISSIBLE)
            picked = rng.sample(adm, rng.randint(0, min(3, len(adm))))
            union = f.empty_set()
            for e in picked:
                union = union | e.members
            if is_conflict_free(f, union):
                assert is_admissible(f, union)

    def test_maximal_families_are_antichains(self):
        rng = random.Random(41)
        for _ in range(80):
            f = random_framework(rng, max_size=7)
            for kind in (SemanticsKind.NAIVE, SemanticsKind.PREFERRED,
                         SemanticsKind.STABLE):
                family = [e.members for e in enumerate_extensions(f, kind)]
                for i, s in enumerate(family):
                    for t in family[i + 1:]:
                        assert not (s <= t) and not (t <= s)


def _some_of(draw, cells):
    """A share of 0.02-0.4 of the attack ``cells``, drawn without repeats."""
    if not cells:
        return []
    count = round(draw(st.floats(0.02, 0.4)) * len(cells))
    return draw(st.lists(st.sampled_from(cells), min_size=count, max_size=count, unique=True))


@st.composite
def _frameworks(draw):
    """n <= 14, self-loops allowed."""
    names = [f"x{i}" for i in range(draw(st.integers(0, 14)))]
    return build_framework(names, _some_of(draw, [(s, d) for s in names for d in names]))


@st.composite
def _acyclic_frameworks(draw):
    """n <= 14; every attack runs forward in a drawn order, so no cycle."""
    names = [f"x{i}" for i in range(draw(st.integers(0, 14)))]
    rank = dict(zip(names, draw(st.permutations(range(len(names))))))
    cells = [(s, d) for s in names for d in names if rank[s] < rank[d]]
    return build_framework(names, _some_of(draw, cells))


@st.composite
def _uncontroversial_frameworks(draw):
    """n <= 14; attacks only between layers an odd distance apart.

    Every attack changes the layer's parity, so all walks between two
    arguments have one parity and no argument is controversial; even
    cycles, such as mutual attacks between adjacent layers, still occur.
    """
    names = [f"x{i}" for i in range(draw(st.integers(0, 14)))]
    layer = {name: draw(st.integers(0, 3)) for name in names}
    cells = [(s, d) for s in names for d in names if (layer[s] - layer[d]) % 2]
    return build_framework(names, _some_of(draw, cells))


@st.composite
def _odd_cycle_free_frameworks(draw):
    """n <= 14, no odd cycle, yet controversial arguments may occur.

    Each argument has a rank and one of two colours. An attack runs to a
    higher rank, or within a rank between colours, so every cycle stays in
    one rank and alternates colours. Attacks across ranks are free, so one
    argument may reach another by walks of both parities.
    """
    names = [f"x{i}" for i in range(draw(st.integers(0, 14)))]
    rank = {name: draw(st.integers(0, 3)) for name in names}
    colour = {name: draw(st.integers(0, 1)) for name in names}
    cells = [
        (s, d)
        for s in names
        for d in names
        if rank[s] < rank[d] or (rank[s] == rank[d] and colour[s] != colour[d])
    ]
    return build_framework(names, _some_of(draw, cells))


def _masks(f, kind):
    return {e.members.mask for e in enumerate_extensions(f, kind)}


class TestDungTheorems:
    """Dung 1995, Section 2, on the fast path; numbering as in the paper."""

    @settings(max_examples=100, derandomize=True, deadline=None, database=None)
    @given(_frameworks())
    def test_fundamental_lemma(self, f):
        # Lemma 10: for S admissible and A, A' acceptable w.r.t. S, S + A is
        # admissible and A' is acceptable w.r.t. S + A
        for e in enumerate_extensions(f, SemanticsKind.ADMISSIBLE):
            acceptable = defence(f, e.members)
            for a in acceptable:
                extended = e.members | f.set_of([a])
                assert is_admissible(f, extended), (e, a, f.attacks)
                assert acceptable <= defence(f, extended), (e, a, f.attacks)

    @settings(max_examples=100, derandomize=True, deadline=None, database=None)
    @given(_frameworks())
    def test_stable_inside_preferred_inside_complete(self, f):
        # Lemma 15 and Theorem 25(1)
        stable = _masks(f, SemanticsKind.STABLE)
        preferred = _masks(f, SemanticsKind.PREFERRED)
        assert stable <= preferred <= _masks(f, SemanticsKind.COMPLETE), f.attacks

    @settings(max_examples=100, derandomize=True, deadline=None, database=None)
    @given(_frameworks())
    def test_grounded_is_the_least_complete_extension(self, f):
        # Theorem 25(2)
        g = grounded(f).members
        complete = [e.members for e in enumerate_extensions(f, SemanticsKind.COMPLETE)]
        assert is_complete(f, g)
        assert all(g <= c for c in complete), f.attacks
        meet = f.full_set()
        for c in complete:
            meet = meet & c
        assert meet == g, f.attacks

    @settings(max_examples=100, derandomize=True, deadline=None, database=None)
    @given(_acyclic_frameworks())
    def test_well_founded_semantics_coincide(self, f):
        # Theorem 30: one complete extension, grounded, preferred and stable
        assert is_well_founded(f)
        only = {grounded(f).members.mask}
        for kind in (SemanticsKind.COMPLETE, SemanticsKind.PREFERRED, SemanticsKind.STABLE):
            assert _masks(f, kind) == only, (kind, f.attacks)
        assert classify(f).all_dung_semantics_coincide is True

    @settings(max_examples=100, derandomize=True, deadline=None, database=None)
    @given(_frameworks())
    def test_admissible_sets_lie_in_preferred_extensions(self, f):
        # Theorem 11
        preferred = [e.members for e in enumerate_extensions(f, SemanticsKind.PREFERRED)]
        for e in enumerate_extensions(f, SemanticsKind.ADMISSIBLE):
            assert any(e.members <= p for p in preferred), (e, f.attacks)

    @settings(max_examples=100, derandomize=True, deadline=None, database=None)
    @given(_frameworks())
    def test_preferred_family_is_never_empty(self, f):
        # Corollary 12
        assert enumerate_extensions(f, SemanticsKind.PREFERRED)

    @settings(max_examples=100, derandomize=True, deadline=None, database=None)
    @given(_uncontroversial_frameworks())
    def test_uncontroversial_is_coherent_and_relatively_grounded(self, f):
        # Theorem 33(2)
        assert not controversial_arguments(f)
        assert is_coherent(f), f.attacks
        assert is_relatively_grounded(f), f.attacks

    @settings(max_examples=100, derandomize=True, deadline=None, database=None)
    @given(_odd_cycle_free_frameworks())
    def test_limited_controversial_is_coherent(self, f):
        # Theorem 33(1)
        assert is_limited_controversial(f), f.attacks
        assert is_coherent(f), f.attacks
        assert classify(f).is_coherent, f.attacks
