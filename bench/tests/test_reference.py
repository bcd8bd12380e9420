"""The benchmark's references, checked so that none is trusted on faith.

Closed forms and the benchmark's own search are compared with
``argsolve.oracle_enumerate`` on small instances of every family; the
structural references are compared with brute force over walks and
simple cycles. Run from the repository root:

    python3 -m pytest bench/tests -q
"""

import random
import sys
from itertools import permutations
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import checks  # noqa: E402
import reference as ref  # noqa: E402
import workloads  # noqa: E402
from argsolve import SemanticsKind, build_framework, oracle_enumerate  # noqa: E402


def oracle(inst, kind):
    af = build_framework(inst.names, [(inst.names[i], inst.names[j]) for i, j in inst.attacks])
    return sorted(s.mask for s in oracle_enumerate(af, SemanticsKind(kind)).extensions)


def random_instance(rng, n, p, loops=True):
    edges = workloads._random_edges(rng, n, p, loops)
    return workloads._permuted(rng, rng, "random", n, edges, "tgf", f"random-{n}")


def small_family(name, rng, **spec):
    return workloads.SMALL_FAMILIES[name](rng, rng, {"format": "tgf", **spec}, name)


# brute force over walks and simple cycles, for a handful of arguments


def walk_parities(g, source):
    """Nodes reached from ``source`` by walks of even and of odd length."""
    even, odd, frontier = 1 << source, 0, 1 << source
    for length in range(1, 2 * g.n + 2):
        frontier = g.forward(frontier)
        if length % 2:
            odd |= frontier
        else:
            even |= frontier
    return even, odd


def simple_cycle_lengths(g):
    lengths = set()
    nodes = range(g.n)
    for size in range(1, g.n + 1):
        for cyc in permutations(nodes, size):
            if cyc[0] != min(cyc):
                continue
            if all(g.succ[cyc[i]] >> cyc[(i + 1) % size] & 1 for i in range(size)):
                lengths.add(size)
    return lengths


# ------------------------------------------------------------------ closed forms


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
def test_mutual_pairs_closed_form_matches_oracle(k):
    inst = small_family("mutual-pairs", random.Random(k), k=k)
    closed = ref.mutual_pairs_families(inst.closed["pairs"])
    for kind, masks in closed.items():
        assert sorted(masks) == oracle(inst, kind), kind
    assert len(closed["preferred"]) == 2**k and len(closed["complete"]) == 3**k
    for index in range(inst.n):  # credulous yes, sceptical no, for every argument
        assert any(m >> index & 1 for m in closed["preferred"])
        assert not all(m >> index & 1 for m in closed["stable"])


@pytest.mark.parametrize("n", [1, 2, 5, 8])
def test_chain_closed_form_matches_oracle(n):
    rng = random.Random(n)
    expected = checks.Expected(workloads.chain(rng, n, "tgf", "chain", ""), None)
    steps = expected.kleene_steps()
    assert steps == ref.kleene_steps(expected.g)
    assert [steps[-1]] == oracle(expected.inst, "grounded")
    assert not simple_cycle_lengths(expected.g)
    facts = expected.structure()
    assert facts == ref.structure_facts(expected.g)
    assert facts["controversial"] == 0 and not facts["cycle"]


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7, 8])
def test_cycle_closed_forms_match_oracle(n):
    expected = checks.Expected(workloads.cycle(random.Random(n), n, "apx", "cycle", ""), None)
    stable = oracle(expected.inst, "stable")
    assert len(stable) == (0 if n % 2 else 2)
    assert oracle(expected.inst, "grounded") == [0] == [expected.kleene_steps()[-1]]
    facts = expected.structure()
    assert facts == ref.structure_facts(expected.g)
    assert simple_cycle_lengths(expected.g) == {n}


@pytest.mark.parametrize("seed", range(4))
def test_dag_closed_form(seed):
    dag = checks.Expected(workloads.dag(random.Random(seed), 7, "tgf", "dag", "", 2), None)
    assert not simple_cycle_lengths(dag.g)
    assert dag.structure() == ref.structure_facts(dag.g)


# ------------------------------------------------------------- own references


@pytest.mark.parametrize("seed", range(40))
def test_search_reference_matches_oracle(seed):
    rng = random.Random(seed)
    inst = random_instance(rng, rng.randint(0, 9), rng.choice([0.1, 0.2, 0.35]))
    families = ref.families(ref.Graph(inst.n, inst.attacks))
    for kind in ref.KINDS:
        assert sorted(families[kind]) == oracle(inst, kind), kind


@pytest.mark.parametrize("family,spec", [
    ("cycle-chain", {"two_cycles": 2, "three_cycles": 2}),
    ("layered-grid", {"layers": 3, "width": 3, "down_p": 0.5}),
    ("sparse", {"n": 12, "p": 0.08, "min_decided": 0.5}),
    ("dense", {"n": 9, "p": 0.3}),
])
def test_search_reference_matches_oracle_on_workload_families(family, spec):
    inst = small_family(family, random.Random(7), **spec)
    families = ref.families(ref.Graph(inst.n, inst.attacks))
    for kind in ref.KINDS:
        assert sorted(families[kind]) == oracle(inst, kind), kind


@pytest.mark.parametrize("seed", range(60))
def test_structure_references_match_brute_force(seed):
    rng = random.Random(1000 + seed)
    inst = random_instance(rng, rng.randint(1, 7), rng.choice([0.15, 0.3, 0.5]))
    g = ref.Graph(inst.n, inst.attacks)
    lengths = simple_cycle_lengths(g)
    assert ref.has_cycle(g) == bool(lengths)
    assert ref.has_odd_cycle(g) == any(x % 2 for x in lengths)
    assert ref.has_even_cycle(g) == any(x % 2 == 0 for x in lengths)
    controversial = 0
    for a in range(g.n):
        even, odd = walk_parities(g, a)
        if even & odd:
            controversial |= 1 << a
    assert ref.controversial_mask(g) == controversial
    assert ref.grounded_mask(g) == oracle(inst, "grounded")[0]
    assert ref.kleene_steps(g)[-1] == ref.grounded_mask(g)


# ------------------------------------------------------------------ generators


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_generators_are_deterministic_in_the_seed(workload):
    first, again, other = (workloads.build(workload, s) for s in (3, 3, 4))
    assert first == again
    assert [i.names for i in first.instances] != [i.names for i in other.instances]
    for inst in first.instances:
        assert len(set(inst.names)) == inst.n
        assert all(0 <= i < inst.n and 0 <= j < inst.n for i, j in inst.attacks)
