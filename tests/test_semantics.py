"""Membership predicates, enumeration, and justification queries."""

import random

import pytest

import af_examples as ex
from argsolve import (
    IncompleteEnumerationWarning,
    SemanticsKind,
    TooLarge,
    UnknownArgument,
    build_framework,
    defence,
    enumerate_extensions,
    grounded,
    is_admissible,
    is_complete,
    is_conflict_free,
    is_self_defending,
    is_stable,
    justification,
    unattacked,
)
from random_frameworks import random_framework


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

    def test_limit_truncates_and_warns(self):
        f = ex.floating_reinstatement()
        with pytest.warns(IncompleteEnumerationWarning):
            result = enumerate_extensions(f, SemanticsKind.CONFLICT_FREE, limit=3)
        assert len(result) == 3
        full = enumerate_extensions(f, SemanticsKind.CONFLICT_FREE)
        assert [e.members for e in result] == [e.members for e in full[:3]]

    def test_negative_limit_is_rejected(self):
        f = ex.mixed_five()
        assert len(enumerate_extensions(f, SemanticsKind.ADMISSIBLE)) == 6
        with pytest.raises(ValueError, match="limit"):
            enumerate_extensions(f, SemanticsKind.ADMISSIBLE, limit=-1)
        with pytest.warns(IncompleteEnumerationWarning):
            assert enumerate_extensions(f, SemanticsKind.ADMISSIBLE, limit=0) == []

    def test_negative_bound_is_rejected(self):
        f = ex.mixed_five()
        for kind in SemanticsKind:
            with pytest.raises(ValueError, match="max_args"):
                enumerate_extensions(f, kind, max_args=-1)
        # zero is a valid bound: this framework is simply too large for it
        with pytest.raises(TooLarge):
            enumerate_extensions(f, SemanticsKind.ADMISSIBLE, max_args=0)

    def test_empty_framework_families(self):
        f = ex.empty()
        for kind in SemanticsKind:
            assert _family(f, kind) == {()}


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

    def test_negative_bound_is_rejected(self):
        f = ex.mixed_five()
        for kind in (SemanticsKind.PREFERRED, SemanticsKind.GROUNDED):
            with pytest.raises(ValueError, match="max_args"):
                justification(f, f.arguments[0], kind, max_args=-1)

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
