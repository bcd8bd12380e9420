"""Reference answers the benchmark checks the program against.

Nothing here imports argsolve. Frameworks are plain data: ``n`` arguments
numbered in declaration order and a list of ``(src, dst)`` index pairs.
Argument sets are bit masks over those indices. Three kinds of reference
live here:

* closed forms for the families whose answers are known in advance
  (disjoint mutual pairs, chains, odd and even cycles);
* a small search that computes every extension family directly from the
  definitions, for frameworks the brute-force oracle cannot sweep
  (more than 16 arguments);
* structural answers (cycles, controversy, classification) computed by
  methods other than the ones the library uses.

``bench/tests/test_reference.py`` checks every one of them against
``argsolve.oracle_enumerate`` on small instances.
"""

from __future__ import annotations

import json
from itertools import product

KINDS = (
    "conflict-free",
    "naive",
    "self-defending",
    "admissible",
    "complete",
    "preferred",
    "stable",
    "grounded",
)
SEARCHED_KINDS = KINDS[:-1]
# the fields of the classify report, in the order the CLI prints them
REPORT_FIELDS = (
    "is_empty",
    "is_trivial",
    "is_symmetric",
    "is_finitary",
    "has_self_attack",
    "is_acyclic",
    "is_well_founded",
    "has_odd_cycle",
    "has_even_cycle",
    "is_controversial",
    "is_limited_controversial",
    "grounded_size",
    "is_coherent",
    "is_relatively_grounded",
    "preferred_covers_all",
    "all_dung_semantics_coincide",
)
# the library refuses to enumerate above this many arguments by default
ENUMERATION_BOUND = 24


def bits(mask: int):
    """Set bit positions, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def render(names, mask: int) -> str:
    """A set as the CLI prints it: members in declaration order."""
    return "[" + ",".join(names[i] for i in bits(mask)) + "]"


def canonical(names, masks) -> list[str]:
    """Rendered sets in the canonical order: sorted by their rendering."""
    return sorted(render(names, m) for m in masks)


class Graph:
    """Successor and predecessor masks of one framework."""

    def __init__(self, n: int, attacks):
        self.n = n
        self.full = (1 << n) - 1
        self.succ = [0] * n
        self.pred = [0] * n
        self.edges = sorted(set(attacks))
        for i, j in self.edges:
            self.succ[i] |= 1 << j
            self.pred[j] |= 1 << i
        self.loops = sum(1 << i for i, j in self.edges if i == j)

    def forward(self, mask: int) -> int:
        out = 0
        for i in bits(mask):
            out |= self.succ[i]
        return out

    def defended(self, mask: int) -> int:
        hit = self.forward(mask)
        return sum(1 << x for x in range(self.n) if self.pred[x] & ~hit == 0)


# ---------------------------------------------------------------- semantics


def kleene_steps(g: Graph) -> list[int]:
    """Defence iterates from the empty set up to the least fixed point."""
    steps = [0]
    while True:
        nxt = g.defended(steps[-1])
        if nxt == steps[-1]:
            return steps
        steps.append(nxt)


def grounded_mask(g: Graph) -> int:
    """Least fixed point by counting undefeated attackers (a worklist)."""
    live = [g.pred[x].bit_count() for x in range(g.n)]
    succ_lists = [list(bits(g.succ[x])) for x in range(g.n)]
    inside = out = 0
    queue = [x for x in range(g.n) if live[x] == 0]
    while queue:
        x = queue.pop()
        inside |= 1 << x
        for y in succ_lists[x]:
            if out >> y & 1:
                continue
            out |= 1 << y
            for z in succ_lists[y]:
                live[z] -= 1
                if live[z] == 0 and not (inside >> z & 1):
                    queue.append(z)
    return inside


def _maximal(masks) -> list[int]:
    kept: list[int] = []
    for m in sorted(masks, key=int.bit_count, reverse=True):
        if all(m & ~k for k in kept):
            kept.append(m)
    return kept


def families(g: Graph) -> dict[str, list[int]]:
    """Every extension family, from the definitions, by one search.

    Conflict-free sets are listed by choosing, in turn, each admissible
    next member above the last one chosen; every other family except
    self-defending is a filter over that list.
    """
    n, succ, pred, full = g.n, g.succ, g.pred, g.full
    clash = [succ[i] | pred[i] | (1 << i) for i in range(n)]
    conflict_free: list[tuple[int, int, int]] = []

    def extend(start: int, cur: int, banned: int, fwd: int, bwd: int) -> None:
        conflict_free.append((cur, fwd, bwd))
        for i in range(start, n):
            if (banned >> i) & 1 or (g.loops >> i) & 1:
                continue
            extend(i + 1, cur | 1 << i, banned | clash[i], fwd | succ[i], bwd | pred[i])

    extend(0, 0, 0, 0, 0)
    allowed = full & ~g.loops
    out: dict[str, list[int]] = {k: [] for k in KINDS}
    for cur, fwd, bwd in conflict_free:
        out["conflict-free"].append(cur)
        if all((clash[x] & cur) for x in bits(allowed & ~cur)):
            out["naive"].append(cur)
        if bwd & ~fwd == 0:
            out["admissible"].append(cur)
            defended = sum(1 << x for x in range(n) if pred[x] & ~fwd == 0)
            if defended == cur:
                out["complete"].append(cur)
        if cur | fwd == full:
            out["stable"].append(cur)
    out["preferred"] = _maximal(out["admissible"])
    out["self-defending"] = self_defending(g)
    out["grounded"] = [grounded_mask(g)]
    return out


def self_defending(g: Graph) -> list[int]:
    """Sets S whose attackers S attacks: S- within S+.

    Decides arguments from the highest index down. A branch dies when an
    attacker of the chosen set can no longer be attacked by anything
    still undecided.
    """
    n, succ, pred = g.n, g.succ, g.pred
    reach_below = [0] * (n + 1)  # attacked by some index < k
    for k in range(n):
        reach_below[k + 1] = reach_below[k] | succ[k]
    found: list[int] = []

    def decide(k: int, cur: int, fwd: int, bwd: int) -> None:
        if (bwd & ~fwd) & ~reach_below[k]:
            return
        if k == 0:
            found.append(cur)
            return
        i = k - 1
        decide(i, cur, fwd, bwd)
        decide(i, cur | 1 << i, fwd | succ[i], bwd | pred[i])

    decide(n, 0, 0, 0)
    return found


def mutual_pairs_families(pairs) -> dict[str, list[int]]:
    """Closed form for k disjoint mutual pairs (a <-> b).

    Preferred and stable: one member of each pair, 2^k sets. Complete and
    admissible: one member or neither, 3^k sets.
    """
    choose_one = [(1 << a, 1 << b) for a, b in pairs]
    one_or_none = [(0, 1 << a, 1 << b) for a, b in pairs]
    two = [sum(c) for c in product(*choose_one)]
    three = [sum(c) for c in product(*one_or_none)]
    return {"preferred": two, "stable": list(two), "complete": three, "admissible": list(three)}


# ---------------------------------------------------------------- structure


def sccs(g: Graph) -> list[list[int]]:
    """Kosaraju's two-pass algorithm, iterative."""
    succ_lists = [list(bits(g.succ[x])) for x in range(g.n)]
    pred_lists = [list(bits(g.pred[x])) for x in range(g.n)]
    order: list[int] = []
    seen = [False] * g.n
    for root in range(g.n):
        if seen[root]:
            continue
        seen[root] = True
        stack = [(root, iter(succ_lists[root]))]
        while stack:
            node, it = stack[-1]
            for nxt in it:
                if not seen[nxt]:
                    seen[nxt] = True
                    stack.append((nxt, iter(succ_lists[nxt])))
                    break
            else:
                stack.pop()
                order.append(node)
    comp = [-1] * g.n
    groups: list[list[int]] = []
    for root in reversed(order):
        if comp[root] != -1:
            continue
        comp[root] = len(groups)
        members = [root]
        stack = [root]
        while stack:
            node = stack.pop()
            for nxt in pred_lists[node]:
                if comp[nxt] == -1:
                    comp[nxt] = len(groups)
                    members.append(nxt)
                    stack.append(nxt)
        groups.append(members)
    return groups


def has_cycle(g: Graph) -> bool:
    return bool(g.loops) or any(len(c) > 1 for c in sccs(g))


def has_odd_cycle(g: Graph) -> bool:
    """A strongly connected digraph has an odd directed cycle exactly when
    its underlying undirected graph is not bipartite (2-colouring test)."""
    if g.loops:
        return True
    for comp in sccs(g):
        inside = sum(1 << x for x in comp)
        colour = {comp[0]: 0}
        stack = [comp[0]]
        while stack:
            x = stack.pop()
            for y in bits((g.succ[x] | g.pred[x]) & inside):
                if y not in colour:
                    colour[y] = 1 - colour[x]
                    stack.append(y)
                elif colour[y] == colour[x]:
                    return True
    return False


def even_cycle_witness(g: Graph):
    """A simple cycle of length 2 or 4, or None when there is none."""
    for a in range(g.n):
        for b in bits(g.succ[a]):
            if b == a:
                continue
            if g.succ[b] >> a & 1:
                return (a, b)
            for c in bits(g.succ[b]):
                if c in (a, b):
                    continue
                for d in bits(g.succ[c]):
                    if d not in (a, b, c) and g.succ[d] >> a & 1:
                        return (a, b, c, d)
    return None


def has_even_cycle(g: Graph) -> bool:
    """Short witnesses first, then every simple cycle (small graphs only)."""
    if even_cycle_witness(g) is not None:
        return True
    if g.n > 24:
        raise ValueError("no short even cycle; exhaustive search is for n <= 24")

    def walk(start: int, node: int, length: int, visited: int) -> bool:
        for nxt in bits(g.succ[node]):
            if nxt == start and length % 2 == 1:
                return True
            if nxt > start and not visited >> nxt & 1:
                if walk(start, nxt, length + 1, visited | 1 << nxt):
                    return True
        return False

    return any(walk(s, s, 0, 1 << s) for s in range(g.n))


def controversial_mask(g: Graph) -> int:
    """Arguments that reach some argument by an odd walk and by an even one.

    Even here counts the empty walk of an argument to itself. Reachability
    is propagated as two masks, one per walk parity, until nothing changes.
    """
    result = 0
    for a in range(g.n):
        even, odd = 1 << a, 0
        frontier_even, frontier_odd = even, 0
        while frontier_even or frontier_odd:
            new_odd = g.forward(frontier_even) & ~odd
            new_even = g.forward(frontier_odd) & ~even
            odd |= new_odd
            even |= new_even
            frontier_even, frontier_odd = new_even, new_odd
        if even & odd:
            result |= 1 << a
    return result


def is_symmetric(g: Graph) -> bool:
    edges = set(g.edges)
    return bool(edges) and all((j, i) in edges for i, j in edges)


def structure_facts(g: Graph, known: dict | None = None) -> dict:
    """Cycle and controversy answers; ``known`` supplies closed forms."""
    facts = dict(known or {})
    if "cycle" not in facts:
        facts["cycle"] = has_cycle(g)
    if "odd" not in facts:
        facts["odd"] = has_odd_cycle(g)
    if "even" not in facts:
        facts["even"] = has_even_cycle(g)
    if "controversial" not in facts:
        facts["controversial"] = controversial_mask(g)
    return facts


def classification(g: Graph, fams, facts: dict) -> dict:
    """The ``classify`` report as the CLI's JSON prints it.

    ``fams`` is every extension family, or None above the enumeration
    bound; ``facts`` comes from ``structure_facts``.
    """
    acyclic = not facts["cycle"]
    odd, even, contr = facts["odd"], facts["even"], facts["controversial"]
    ground = grounded_mask(g)
    report = {
        "is_empty": g.n == 0,
        "is_trivial": not g.edges,
        "is_symmetric": is_symmetric(g),
        "is_finitary": True,
        "has_self_attack": bool(g.loops),
        "is_acyclic": acyclic,
        "is_well_founded": acyclic,
        "has_odd_cycle": odd,
        "has_even_cycle": even,
        "is_controversial": contr != 0,
        "is_limited_controversial": not odd,
        "grounded_size": ground.bit_count(),
        "is_coherent": None,
        "is_relatively_grounded": None,
        "preferred_covers_all": None,
        "all_dung_semantics_coincide": None,
        "extension_counts": None,
    }
    if fams is not None:
        preferred = set(fams["preferred"])
        meet, join = g.full, 0
        for m in preferred:
            meet &= m
            join |= m
        report.update(
            is_coherent=preferred == set(fams["stable"]),
            is_relatively_grounded=meet == ground,
            preferred_covers_all=join == g.full,
            all_dung_semantics_coincide=set(fams["complete"])
            == preferred
            == set(fams["stable"])
            == {ground},
            extension_counts={k: len(set(fams[k])) for k in sorted(KINDS)},
        )
    return report


# ---------------------------------------------------------------- CLI text


def classification_text(report: dict) -> str:
    def show(value) -> str:
        if value is None:
            return "absent"
        if isinstance(value, bool):
            return "true" if value else "false"
        return str(value)

    lines = [f"{k}: {show(v)}" for k, v in report.items() if k != "extension_counts"]
    counts = report["extension_counts"]
    if counts is None:
        lines.append("extension_counts: absent")
    else:
        lines.extend(f"extension_counts[{k}]: {v}" for k, v in counts.items())
    return "\n".join(lines) + "\n"


def extensions_text(names, masks, as_json: bool) -> str:
    ordered = sorted(masks, key=lambda m: render(names, m))
    if as_json:
        return json.dumps([[names[i] for i in bits(m)] for m in ordered]) + "\n"
    if not ordered:
        return "NO EXTENSIONS\n"
    return "\n".join(render(names, m) for m in ordered) + "\n"


def grounded_text(names, steps, trace: bool) -> str:
    lines = [render(names, m) for m in steps[1:]] + [render(names, steps[-1])] if trace else []
    lines.append(render(names, steps[-1]))
    return "\n".join(lines) + "\n"


def dot_text(names, g: Graph) -> str:
    lines = ["digraph framework {"]
    lines += [f'  "{x}";' for x in names]
    lines += [f'  "{names[i]}" -> "{names[j]}";' for i, j in g.edges]
    lines.append("}")
    return "\n".join(lines) + "\n"
