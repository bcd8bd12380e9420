"""Expected answers for every op of a plan, and the comparison with what
the worker reported.

Which reference answers an op:

* frameworks of at most 16 arguments: ``argsolve.oracle_enumerate``;
* disjoint mutual pairs, chains, odd and even cycles and DAGs: closed
  forms;
* everything else: the small search and structural references in
  ``reference.py``.

Expected answers are rendered here from the instance data the benchmark
generated, never from the program's own output.
"""

from __future__ import annotations

import hashlib
import json
import sys

import reference as ref

ORACLE_MAX_ARGS = 16


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:32]


class Expected:
    """Lazily computed reference facts about one instance."""

    def __init__(self, inst, oracle):
        self.inst = inst
        self.names = inst.names
        self.g = ref.Graph(inst.n, inst.attacks)
        self._oracle = oracle
        self._families: dict[str, list[int]] = {}
        self._structure = None

    def family(self, kind: str) -> list[int]:
        if kind not in self._families:
            if self.inst.n <= ORACLE_MAX_ARGS:
                self._families[kind] = self._oracle(self.inst, kind)
            elif "pairs" in self.inst.closed and kind in ("complete", "preferred", "stable", "admissible"):
                self._families.update(ref.mutual_pairs_families(self.inst.closed["pairs"]))
            else:
                self._families.update(ref.families(self.g))
        return self._families[kind]

    def families(self):
        if self.inst.n > ref.ENUMERATION_BOUND:
            return None
        return {kind: self.family(kind) for kind in ref.KINDS}

    def kleene_steps(self) -> list[int]:
        closed = self.inst.closed
        if "chain" in closed:  # every other argument from the unattacked end
            order = closed["chain"]
            steps, mask = [0], 0
            for position in range(0, len(order), 2):
                mask |= 1 << order[position]
                steps.append(mask)
            return steps
        if "cycle" in closed:
            return [0]
        return ref.kleene_steps(self.g)

    def structure(self) -> dict:
        """Cycle and controversy facts: closed forms where the family has
        them, the structural references otherwise."""
        if self._structure is None:
            closed, n = self.inst.closed, self.inst.n
            known = {}
            if "chain" in closed:
                known = {"cycle": False, "odd": False, "even": False, "controversial": 0}
            elif "acyclic" in closed:
                known = {"cycle": False, "odd": False, "even": False}
            elif "cycle" in closed:
                odd = n % 2 == 1
                known = {"cycle": True, "odd": odd, "even": not odd, "controversial": self.g.full if odd else 0}
            self._structure = ref.structure_facts(self.g, known)
        return self._structure

    def answer(self, op) -> str:
        call = op.call
        if call == "enumerate_extensions":
            return "\n".join(ref.canonical(self.names, self.family(op.kind)))
        if call == "justification":
            index = self.names.index(op.arg)
            family = self.family(op.kind)
            credulous = any(m >> index & 1 for m in family)
            sceptical = bool(family) and all(m >> index & 1 for m in family)
            return f"{credulous},{sceptical}"
        if call == "grounded":
            return ref.render(self.names, self.kleene_steps()[-1])
        if call == "kleene_least_fixpoint":
            return "|".join(ref.render(self.names, m) for m in self.kleene_steps()) + ";True"
        facts = {
            "has_directed_cycle": "cycle",
            "odd_cycle_exists": "odd",
            "even_cycle_exists": "even",
        }
        if call in facts:
            return str(self.structure()[facts[call]])
        if call == "controversial_arguments":
            return ref.render(self.names, self.structure()["controversial"])
        if call == "classify":
            return json.dumps(self.report())
        if call == "cli":
            code, stdout = self.cli(op.argv)
            return f"exit={code}\n{stdout}"
        raise ValueError(f"no reference for {call!r}")

    def report(self) -> dict:
        return ref.classification(self.g, self.families(), self.structure())

    def cli(self, argv: list[str]) -> tuple[int, str]:
        command = argv[0]
        option = lambda flag: argv[argv.index(flag) + 1]
        if command == "extensions":
            kind = option("-s")
            return 0, ref.extensions_text(self.names, self.family(kind), "--json" in argv)
        if command == "justify":
            kind, index = option("-s"), self.names.index(option("-a"))
            family = [self.kleene_steps()[-1]] if kind == "grounded" else self.family(kind)
            if option("--mode") == "credulous":
                answer = any(m >> index & 1 for m in family)
            else:
                answer = bool(family) and all(m >> index & 1 for m in family)
            return (0, "YES\n") if answer else (1, "NO\n")
        if command == "classify":
            report = self.report()
            return 0, json.dumps(report) + "\n" if "--json" in argv else ref.classification_text(report)
        if command == "grounded":
            return 0, ref.grounded_text(self.names, self.kleene_steps(), "--trace" in argv)
        if command == "dot":
            return 0, ref.dot_text(self.names, self.g)
        if command == "validate":
            return 0, ""
        raise ValueError(f"no reference for CLI command {command!r}")


def oracle_from(src) -> callable:
    """``oracle_enumerate`` as a function of an instance and a kind name."""
    sys.path.insert(0, str(src))
    from argsolve import SemanticsKind, build_framework, oracle_enumerate

    def oracle(inst, kind: str) -> list[int]:
        af = build_framework(inst.names, [(inst.names[i], inst.names[j]) for i, j in inst.attacks])
        return [s.mask for s in oracle_enumerate(af, SemanticsKind(kind)).extensions]

    return oracle


def check(plan, digests: dict, src) -> tuple[int, int, list[str]]:
    """Compare every reported answer with its reference.

    Returns ops attempted, ops failed, and a description of each mismatch.
    """
    oracle = oracle_from(src)
    expected = {inst.key: Expected(inst, oracle) for inst in plan.instances}
    attempted = failed = 0
    mismatches = []
    for op in plan.ops:
        reported = digests.get(op.id, {})
        want = _digest(expected[op.instance].answer(op))
        for got, count in reported.items():
            attempted += count
            if got != want:
                failed += count
                mismatches.append(f"{op.id}: {count} answer(s) differ from the reference")
    return attempted, failed, mismatches
