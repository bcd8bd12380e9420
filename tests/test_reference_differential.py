"""The library against the benchmark's reference, past the oracle's cap.

``argsolve.oracle_enumerate`` stops at 16 arguments and the random
differentials at 12-14, but the default enumeration bound lets the fast
path run up to 24. ``bench/reference.py`` computes every family from the
definitions by its own search and imports nothing from argsolve;
``bench/tests`` checks it against the oracle. Here the library meets it on
structured frameworks of 17-24 arguments (every kind, justification and
the ``classify`` report) and, for grounded, on thousands of arguments.
"""

import random
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))

import reference as ref  # noqa: E402
from argsolve import (  # noqa: E402
    SemanticsKind,
    build_framework,
    classify,
    defence,
    enumerate_extensions,
    grounded,
    justification,
    kleene_least_fixpoint,
)
from argsolve.core import _forward_mask  # noqa: E402
from argsolve.formats import classification_to_data  # noqa: E402
from argsolve.operators import _grounded_labelling  # noqa: E402
from random_frameworks import random_framework, random_scc_chain_framework  # noqa: E402

JUSTIFICATION_KINDS = (
    SemanticsKind.COMPLETE,
    SemanticsKind.PREFERRED,
    SemanticsKind.STABLE,
    SemanticsKind.GROUNDED,
)


def _hub(rng):
    """8 mutual pairs a_i <-> b_i, and every a_i attacks z: 17 arguments."""
    names = [f"{side}{i}" for i in range(8) for side in "ab"] + ["z"]
    pairs = [(f"a{i}", f"b{i}") for i in range(8)] + [(f"b{i}", f"a{i}") for i in range(8)]
    return names, pairs + [(f"a{i}", "z") for i in range(8)]


def _cycle_chain(rng):
    """Three 2-cycles and five 3-cycles in a shuffled row, each attacking the next."""
    lengths = [2, 2, 2, 3, 3, 3, 3, 3]
    rng.shuffle(lengths)
    names, pairs = [], []
    for c, length in enumerate(lengths):
        cycle = [f"c{c}_{k}" for k in range(length)]
        pairs += [(cycle[k], cycle[(k + 1) % length]) for k in range(length)]
        if names:
            pairs.append((names[-1], rng.choice(cycle)))
        names += cycle
    return names, pairs


def _sparse_scc(rng):
    """One 20-cycle plus four random chords: a single sparse SCC."""
    names = [f"s{i}" for i in range(20)]
    pairs = [(names[i], names[(i + 1) % 20]) for i in range(20)]
    pairs += [tuple(rng.sample(names, 2)) for _ in range(4)]
    return names, pairs


def _chain_with_cyclic_tail(rng):
    """An 18-argument chain whose last argument attacks into a 3-cycle."""
    names = [f"p{i}" for i in range(18)] + ["t0", "t1", "t2"]
    pairs = [(f"p{i}", f"p{i + 1}") for i in range(17)]
    pairs += [("t0", "t1"), ("t1", "t2"), ("t2", "t0"), ("p17", rng.choice(["t0", "t1", "t2"]))]
    return names, pairs


def _awkward_names(rng):
    """Prefixes of one another and characters that sort below ',', one self-attack:
    18 arguments."""
    names = ["a", "a!", "ab", "'x", "!", "a+", "b", "b'", "ba"] + [f"n{i}" for i in range(9)]
    pairs = [(x, y) for x in names for y in names if x != y and rng.random() < 0.12]
    return names, pairs + [(names[-1], names[-1])]


def _scc_chain(rng):
    """Blocks of 1-4 arguments, each one SCC, attacked only from blocks before it:
    17-21 arguments."""
    f = random_scc_chain_framework(rng, max_size=21, min_size=17)
    return [a.name for a in f.arguments], [(s.name, d.name) for s, d in f.attacks]


SHAPES = {
    "hub": _hub,
    "scc-chain-a": _scc_chain,
    "scc-chain-b": _scc_chain,
    "scc-chain-c": _scc_chain,
    "cycle-chain": _cycle_chain,
    "sparse-scc": _sparse_scc,
    "chain-cyclic-tail": _chain_with_cyclic_tail,
    "awkward-names": _awkward_names,
}


def _instance(shape):
    """The library's framework and the reference's graph of one seeded shape,
    with its names declared in shuffled order."""
    rng = random.Random(shape)
    names, pairs = SHAPES[shape](rng)
    rng.shuffle(names)
    index = {name: i for i, name in enumerate(names)}
    g = ref.Graph(len(names), [(index[a], index[b]) for a, b in pairs])
    return build_framework(names, pairs), g, names


@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_families_justification_and_classify_match_the_reference(shape):
    f, g, names = _instance(shape)
    assert 17 <= len(names) <= 24
    families = ref.families(g)
    for kind in SemanticsKind:
        found = enumerate_extensions(f, kind)
        expected = sorted(set(families[kind.value]))
        assert sorted(e.members.mask for e in found) == expected, kind
        if shape == "awkward-names":  # the canonical order of names that prefix one another
            assert [str(e.members) for e in found] == ref.canonical(names, expected), kind

    for kind in JUSTIFICATION_KINDS:
        family = families[kind.value]
        union, meet = 0, g.full
        for mask in family:
            union |= mask
            meet &= mask
        for i in range(len(names)):
            status = justification(f, names[i], kind)
            assert status.credulous == bool(union >> i & 1), (kind, names[i])
            assert status.sceptical == bool(family and meet >> i & 1), (kind, names[i])

    expected = ref.classification(g, families, ref.structure_facts(g))
    assert classification_to_data(classify(f)) == expected


def _chain(n, _rng):
    return [(i, i + 1) for i in range(n - 1)]


def _random_dag(n, rng):
    return [(i, j) for i in range(n) for j in rng.sample(range(i + 1, n), min(2, n - 1 - i))]


@pytest.mark.parametrize(
    "shape, n, length", [(_chain, 1000, 501), (_random_dag, 2000, None)], ids=["chain", "dag"]
)
def test_grounded_matches_the_worklist_reference_on_thousands(shape, n, length):
    rng = random.Random(n)
    attacks = shape(n, rng)
    order = list(range(n))
    rng.shuffle(order)  # declaration order is not topological order
    names = [f"x{i}" for i in order]
    position = {v: k for k, v in enumerate(order)}
    g = ref.Graph(n, [(position[i], position[j]) for i, j in attacks])
    f = build_framework(names, [(f"x{i}", f"x{j}") for i, j in attacks])
    expected = ref.grounded_mask(g)
    assert grounded(f).members.mask == expected

    # the Kleene trace behind grounded and `grounded --trace`: F^0 = {}, F^(k+1) = F(F^k)
    trace = kleene_least_fixpoint(f)
    assert not trace.steps[0]
    for earlier, later in zip(trace.steps, trace.steps[1:]):
        assert defence(f, earlier) == later
    assert defence(f, trace.fixpoint) == trace.fixpoint and trace.converged
    assert trace.fixpoint.mask == expected
    if length is not None:  # a chain takes in one more even link per step
        assert len(trace.steps) == length


def test_kleene_steps_and_the_labelling_match_the_reference_step_for_step():
    # each labelling round must be one defence step: the whole chain, not only its end
    rng = random.Random(2009)
    with_loops = 0
    for _ in range(600):
        f = random_framework(rng, max_size=14)
        with_loops += bool(f._self_loop_mask)
        g = ref.Graph(len(f), [(a.index, b.index) for a, b in f.attacks])
        steps = [s.mask for s in kleene_least_fixpoint(f).steps]
        assert steps == ref.kleene_steps(g)
        in_mask, out_mask = _grounded_labelling(f)
        assert in_mask == steps[-1]
        assert out_mask == _forward_mask(f, in_mask) and in_mask & out_mask == 0
    assert with_loops > 100
