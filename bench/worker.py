"""One benchmark worker process: set up, run timed passes, report.

Started by ``run.py`` with a plan file. It imports argsolve from the
source directory named in the plan, loads every input file (the set-up
that ``setup_s`` times), then runs passes over the plan's op list until
the time budget is spent. Each op is timed alone; its answer is reduced
to a digest after the clock stops, and the digests go back to ``run.py``,
which checks them against references. One JSON object is printed on
stdout.

With ``--setup-only`` it stops after the set-up. With ``--trace`` it runs
untraced passes, then traced rounds (a load of every file plus a pass)
with spans around every public library call, and reports per-layer
metrics instead of latencies.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import reference as ref
from tracing import Tracer, median_metrics, round_metrics

CHILD_TIMEOUT_S = 120
PROBE_REPEATS = 5


def child_env(src: str) -> dict:
    """The environment of a CLI child: the imported sources, not an install."""
    env = dict(os.environ)
    env["PYTHONPATH"] = src
    return env


def canonical_answer(call: str, result, names) -> str:
    """The answer of one op as text, rendered by the benchmark itself."""
    if call == "enumerate_extensions":
        return "\n".join(ref.render(names, e.members.mask) for e in result)
    if call == "justification":
        return f"{result.credulous},{result.sceptical}"
    if call == "grounded":
        return ref.render(names, result.members.mask)
    if call == "kleene_least_fixpoint":
        return "|".join(ref.render(names, s.mask) for s in result.steps) + f";{result.converged}"
    if call == "controversial_arguments":
        return ref.render(names, result.mask)
    if call == "classify":
        report = {name: getattr(result, name) for name in ref.REPORT_FIELDS}
        counts = result.extension_counts
        report["extension_counts"] = None if counts is None else {
            k.value: v for k, v in sorted(counts.items(), key=lambda kv: kv[0].value)
        }
        return json.dumps(report)
    if call == "cli":
        code, stdout = result
        return f"exit={code}\n{stdout}"
    return str(result)


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:32]


class Runner:
    def __init__(self, plan: dict, argsolve, frameworks: dict, in_process_cli: bool):
        self.plan = plan
        self.argsolve = argsolve
        self.frameworks = frameworks
        self.names = {k: tuple(a.name for a in f.arguments) for k, f in frameworks.items()}
        self.files = {f["key"]: f["path"] for f in plan["files"]}
        self.env = child_env(plan["src"])
        self.thunks = [self._thunk(op, in_process_cli) for op in plan["ops"]]
        self.digests: dict[str, dict[str, int]] = {op["id"]: {} for op in plan["ops"]}

    def _thunk(self, op: dict, in_process_cli: bool):
        lib = self.argsolve
        call = op["call"]
        if call == "cli":
            argv = [self.files[op["instance"]] if a == "{file}" else a for a in op["argv"]]
            if in_process_cli:
                return lambda: self._cli_in_process(argv)
            command = [sys.executable, "-m", "argsolve", *argv]
            return lambda: self._cli_child(command)
        af = self.frameworks[op["instance"]]
        if call == "enumerate_extensions":
            kind = lib.SemanticsKind(op["kind"])
            return lambda: lib.enumerate_extensions(af, kind)
        if call == "justification":
            kind = lib.SemanticsKind(op["kind"])
            return lambda: lib.justification(af, op["arg"], kind)
        return lambda: getattr(lib, call)(af)

    def _cli_child(self, command):
        proc = subprocess.run(command, capture_output=True, env=self.env, timeout=CHILD_TIMEOUT_S)
        return proc.returncode, proc.stdout.decode()

    def _cli_in_process(self, argv):
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = self.argsolve.cli.main(argv)
        return code, out.getvalue()

    def one_pass(self, tracer=None) -> list[float]:
        """Run every op once; return the latency of each, in seconds."""
        latencies = []
        clock = time.perf_counter
        for op, thunk in zip(self.plan["ops"], self.thunks):
            if tracer is not None:
                tracer.op = op["id"]
            start = clock()
            try:
                result = thunk()
            except Exception as exc:  # a failed op is counted, not fatal
                latencies.append(clock() - start)
                text = f"error:{type(exc).__name__}:{exc}"
            else:
                latencies.append(clock() - start)
                text = canonical_answer(op["call"], result, self.names.get(op["instance"]))
                del result
            seen = self.digests[op["id"]]
            key = digest(text)
            seen[key] = seen.get(key, 0) + 1
        return latencies

    def passes(self, seconds: float, min_passes: int) -> list:
        out = []
        start = time.perf_counter()
        while len(out) < min_passes or time.perf_counter() - start < seconds:
            out.append(self.one_pass())
        return out


def probe_ms(command, env) -> float:
    """Median wall time of a short child process, in milliseconds."""
    times = []
    for _ in range(PROBE_REPEATS):
        start = time.perf_counter()
        subprocess.run(command, env=env, check=True, capture_output=True, timeout=CHILD_TIMEOUT_S)
        times.append((time.perf_counter() - start) * 1000)
    return statistics.median(times)


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("plan")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()
    plan = json.loads(Path(args.plan).read_text())
    sys.path.insert(0, plan["src"])

    start = time.perf_counter()
    import argsolve

    frameworks = {f["key"]: argsolve.load_framework(f["path"]) for f in plan["files"]}
    setup_s = time.perf_counter() - start
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    cli_workload = any(op["call"] == "cli" for op in plan["ops"])
    if args.trace:
        import argsolve.cli  # noqa: F401  (run in process and wrapped by the tracer)
    seconds, min_passes = plan["seconds"], plan["min_passes"]
    runner = Runner(plan, argsolve, frameworks, in_process_cli=args.trace)
    result: dict = {"setup_s": setup_s}

    if not args.trace:
        result["passes"] = runner.passes(seconds, min_passes)
        who = resource.RUSAGE_CHILDREN if cli_workload else resource.RUSAGE_SELF
        result["peak_rss_mb"] = resource.getrusage(who).ru_maxrss / 1024
    else:
        # untraced passes and traced rounds alternate, so that a drift in
        # machine speed does not show up as tracing overhead
        tracer = Tracer()
        untraced, traced, bounds = [], [], []
        started = time.perf_counter()
        while len(traced) < min_passes or time.perf_counter() - started < seconds:
            untraced.append(runner.one_pass())
            first = len(tracer.spans)
            tracer.install()
            try:
                tracer.op = "load"
                for f in plan["files"]:
                    argsolve.load_framework(f["path"])
                traced.append(runner.one_pass(tracer))
            finally:
                tracer.uninstall()
            bounds.append((first, len(tracer.spans)))
        sizes = {op["id"]: op["size"] for op in plan["ops"]}
        rounds = [
            round_metrics(tracer.spans[a:b], a, lambda op: sizes.get(op, ""))
            for a, b in bounds
        ]
        metrics = median_metrics(rounds)
        untraced_wall = statistics.median(sum(p) for p in untraced)
        metrics["trace.overhead_s"] = statistics.median(sum(p) for p in traced) - untraced_wall
        metrics["cli.main_ms"] = (
            statistics.median(x for p in untraced for x in p) * 1000 if cli_workload else 0.0
        )
        metrics["cli.interp_ms"] = probe_ms([sys.executable, "-c", "pass"], runner.env)
        metrics["cli.import_ms"] = probe_ms([sys.executable, "-c", "import argsolve"], runner.env)
        result["layer_metrics"] = metrics
        Path(plan["spans_path"]).write_text(
            json.dumps({"fields": ["name", "start", "end", "parent", "op", "attribute"], "spans": tracer.spans})
        )
    result["digests"] = runner.digests
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
