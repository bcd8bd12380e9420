"""Seeded generators for the benchmark's workloads.

``build(workload, seed)`` returns the frameworks of one workload and the
list of operations one pass runs on them. The same seed gives the same
frameworks, names, declaration order and operations. Generator parameters
and the reason each workload exists are kept in ``workloads.json``.

Nothing here imports argsolve: the program under test sees only the files
written from these instances.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from pathlib import Path

import reference as ref

PARAMS = json.loads((Path(__file__).with_name("workloads.json")).read_text())
WORKLOADS = tuple(PARAMS)


@dataclass
class Instance:
    """One framework: names in declaration order and attacks as index pairs."""

    key: str
    family: str
    names: list[str]
    attacks: list[tuple[int, int]]
    fmt: str
    size: str = ""  # "N" or "2.5N" for the scaling pairs of structure-large
    closed: dict = field(default_factory=dict)  # facts known by construction

    @property
    def n(self) -> int:
        return len(self.names)

    def text(self) -> str:
        """The file contents, written without the program under test."""
        if self.fmt == "tgf":
            lines = list(self.names) + ["#"]
            lines += [f"{self.names[i]} {self.names[j]}" for i, j in self.attacks]
        else:
            lines = [f"arg({x})." for x in self.names]
            lines += [f"att({self.names[i]},{self.names[j]})." for i, j in self.attacks]
        return "\n".join(lines) + "\n"


@dataclass
class Op:
    """One timed call. ``call`` names a library function or ``cli``."""

    id: str
    instance: str
    call: str
    kind: str = ""  # semantics kind
    arg: str = ""  # the argument a justification asks about
    argv: list[str] = field(default_factory=list)  # cli only; "{file}" is replaced


@dataclass
class Plan:
    workload: str
    seed: int
    instances: list[Instance]
    ops: list[Op]


# ------------------------------------------------------------------ families


def _permuted(shape, rng, family, n, edges, fmt, key, size="", closed=None):
    """Shuffle the declaration order (drawn from ``shape``) and give every
    argument a name drawn from the run seed."""
    perm = list(range(n))
    shape.shuffle(perm)
    names = [""] * n
    for local in range(n):
        names[perm[local]] = f"{rng.choice('abcdefghkmnpqrstuvwxyz')}{local}"
    attacks = sorted({(perm[i], perm[j]) for i, j in edges})
    closed = closed(perm) if closed else {}
    return Instance(key, family, names, attacks, fmt, size, closed)


def _random_edges(rng, n, p, loops):
    return [(i, j) for i in range(n) for j in range(n) if (i != j or loops) and rng.random() < p]


def _exact_edges(rng, n, m, forward_only):
    edges: set[tuple[int, int]] = set()
    while len(edges) < m:
        i, j = rng.randrange(n), rng.randrange(n)
        if i == j:
            continue
        if forward_only and i > j:
            i, j = j, i
        edges.add((i, j))
    return sorted(edges)


def mutual_pairs(shape, rng, spec, key):
    k = spec["k"]
    edges = [e for i in range(k) for e in ((2 * i, 2 * i + 1), (2 * i + 1, 2 * i))]
    closed = lambda perm: {"pairs": [(perm[2 * i], perm[2 * i + 1]) for i in range(k)]}
    return _permuted(shape, rng, "mutual-pairs", 2 * k, edges, spec["format"], key, closed=closed)


def cycle_chain(shape, rng, spec, key):
    """2- and 3-cycles in random order, each joined to the next by one attack."""
    sizes = [2] * spec["two_cycles"] + [3] * spec["three_cycles"]
    shape.shuffle(sizes)
    edges, blocks, start = [], [], 0
    for size in sizes:
        block = list(range(start, start + size))
        edges += [(block[i], block[(i + 1) % size]) for i in range(size)]
        blocks.append(block)
        start += size
    for left, right in zip(blocks, blocks[1:]):
        edges.append((shape.choice(left), shape.choice(right)))
    return _permuted(shape, rng, "cycle-chain", start, edges, spec["format"], key)


def layered_grid(shape, rng, spec, key):
    """Each layer a directed cycle; some cells attack the cell below them."""
    layers, width = spec["layers"], spec["width"]
    cell = lambda layer, col: layer * width + col
    edges = [(cell(l, c), cell(l, (c + 1) % width)) for l in range(layers) for c in range(width)]
    for l in range(layers - 1):
        down = [c for c in range(width) if shape.random() < spec["down_p"]] or [shape.randrange(width)]
        edges += [(cell(l, c), cell(l + 1, c)) for c in down]
    return _permuted(shape, rng, "layered-grid", layers * width, edges, spec["format"], key)


def sparse(shape, rng, spec, key):
    """Random attacks with probability p; at least ``min_decided`` of the
    arguments are in the grounded extension or attacked by it."""
    n = spec["n"]
    while True:
        edges = _random_edges(shape, n, spec["p"], loops=False)
        g = ref.Graph(n, edges)
        decided = g.forward(ground := ref.grounded_mask(g)) | ground
        if decided.bit_count() >= spec["min_decided"] * n:
            return _permuted(shape, rng, "sparse", n, edges, spec["format"], key)


def dense(shape, rng, spec, key):
    """Random attacks (self-attacks included), regenerated until the graph
    is strongly connected."""
    n = spec["n"]
    while True:
        edges = _random_edges(shape, n, spec["p"], loops=True)
        if len(ref.sccs(ref.Graph(n, edges))) == 1:
            return _permuted(shape, rng, "dense", n, edges, spec["format"], key)


def chain(rng, n, fmt, key, size):
    edges = [(i, i + 1) for i in range(n - 1)]
    closed = lambda perm: {"chain": perm}
    return _permuted(rng, rng, "chain", n, edges, fmt, key, size, closed)


def cycle(rng, n, fmt, key, size):
    edges = [(i, (i + 1) % n) for i in range(n)]
    family = "odd-cycle" if n % 2 else "even-cycle"
    return _permuted(rng, rng, family, n, edges, fmt, key, size, lambda perm: {"cycle": n})


def sparse_large(rng, n, fmt, key, size, per_arg):
    """Exactly per_arg * n attacks, self-attacks excluded."""
    edges = _exact_edges(rng, n, per_arg * n, forward_only=False)
    return _permuted(rng, rng, "sparse-large", n, edges, fmt, key, size)


def dag(rng, n, fmt, key, size, per_arg):
    edges = _exact_edges(rng, n, per_arg * n, forward_only=True)
    return _permuted(rng, rng, "dag", n, edges, fmt, key, size, lambda perm: {"acyclic": True})


SMALL_FAMILIES = {
    "mutual-pairs": mutual_pairs,
    "cycle-chain": cycle_chain,
    "layered-grid": layered_grid,
    "sparse": sparse,
    "dense": dense,
}


def _instances(workload: str, rng: random.Random) -> list[Instance]:
    out = []
    for number, spec in enumerate(PARAMS[workload]["instances"]):
        family = spec["family"]
        if family in SMALL_FAMILIES:
            # Search cost grows exponentially with structure and declaration
            # order, so a fixed structure seed fixes both and keeps the work
            # the same on every run; the run seed picks the names (hence the
            # canonical output order) and the arguments queried.
            shape = random.Random(f"{family}/{spec['structure_seed']}") if "structure_seed" in spec else rng
            out.append(SMALL_FAMILIES[family](shape, rng, spec, f"{family}-{number}"))
            continue
        sizes = spec["n"] if isinstance(spec["n"], list) else [spec["n"]]
        for tag, n in zip(("N", "2.5N"), sizes):
            key = f"{family}-{n}"
            tag = tag if len(sizes) == 2 else ""
            if family == "chain":
                out.append(chain(rng, n, spec["format"], key, tag))
            elif family in ("odd-cycle", "even-cycle"):
                out.append(cycle(rng, n, spec["format"], key, tag))
            elif family == "sparse-large":
                out.append(sparse_large(rng, n, spec["format"], key, tag, spec["edges_per_arg"]))
            else:
                out.append(dag(rng, n, spec["format"], key, tag, spec["edges_per_arg"]))
    return out


# ---------------------------------------------------------------------- ops

DECOMPOSABLE_KINDS = ("complete", "preferred", "stable", "admissible")
JUSTIFIED_KINDS = ("complete", "preferred", "stable")
STRUCTURE_CALLS = (
    "grounded",
    "kleene_least_fixpoint",
    "has_directed_cycle",
    "odd_cycle_exists",
    "even_cycle_exists",
    "controversial_arguments",
    "classify",
)
CLI_EXTENSION_KINDS = ("conflict-free", "naive", "admissible", "complete", "preferred", "stable", "grounded")
CLI_JUSTIFY_KINDS = ("complete", "preferred", "stable", "grounded")


def _ops(workload: str, instances: list[Instance], rng: random.Random) -> list[Op]:
    ops: list[Op] = []

    def add(inst: Instance, call: str, **kw) -> None:
        label = " ".join([call, kw.get("kind", ""), kw.get("arg", "")]).strip()
        if call == "cli":
            label = " ".join(a for a in kw["argv"] if a != "{file}")
        ops.append(Op(f"{inst.key}:{label}", inst.key, call, **kw))

    if workload == "search-decomposable":
        for inst in instances:
            for kind in DECOMPOSABLE_KINDS:
                add(inst, "enumerate_extensions", kind=kind)
            target = rng.choice(inst.names)
            for kind in JUSTIFIED_KINDS:
                add(inst, "justification", kind=kind, arg=target)
    elif workload == "search-dense":
        for inst in instances:
            for kind in ref.SEARCHED_KINDS:
                add(inst, "enumerate_extensions", kind=kind)
            add(inst, "classify")
    elif workload == "structure-large":
        excluded = {s["family"]: s.get("excluded_ops", []) for s in PARAMS[workload]["instances"]}
        for inst in instances:
            for call in STRUCTURE_CALLS:
                if call not in excluded[inst.family]:
                    add(inst, call)
    else:
        small_a, small_b, pairs5, pairs8, big_tgf, big_apx = instances
        for kind in CLI_EXTENSION_KINDS:
            add(small_a, "cli", argv=["extensions", "-f", "{file}", "-s", kind])
        for inst, kind in ((small_b, "complete"), (pairs5, "preferred"), (pairs8, "complete")):
            add(inst, "cli", argv=["extensions", "-f", "{file}", "-s", kind, "--json"])
        target = rng.choice(small_b.names)
        for kind in CLI_JUSTIFY_KINDS:
            for mode in ("credulous", "sceptical"):
                argv = ["justify", "-f", "{file}", "-s", kind, "-a", target, "--mode", mode]
                add(small_b, "cli", argv=argv)
        add(small_a, "cli", argv=["classify", "-f", "{file}"])
        add(small_b, "cli", argv=["classify", "-f", "{file}", "--json"])
        add(small_a, "cli", argv=["grounded", "-f", "{file}", "--trace"])
        add(small_b, "cli", argv=["grounded", "-f", "{file}"])
        add(small_b, "cli", argv=["dot", "-f", "{file}"])
        add(small_a, "cli", argv=["validate", "-f", "{file}"])
        for inst in (big_tgf, big_apx):
            add(inst, "cli", argv=["validate", "-f", "{file}"])
            add(inst, "cli", argv=["dot", "-f", "{file}"])
            add(inst, "cli", argv=["grounded", "-f", "{file}", "--trace"])
    return ops


def build(workload: str, seed: int) -> Plan:
    if workload not in PARAMS:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    rng = random.Random(f"{workload}/{seed}")
    instances = _instances(workload, rng)
    return Plan(workload, seed, instances, _ops(workload, instances, rng))
