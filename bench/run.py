"""Benchmark entry point for argsolve.

Usage, from the root of a source checkout:

    python3 bench/run.py --workload search-dense --seed 1 --seconds 25 --trace 0

It generates the workload's frameworks from the seed, writes them as TGF
and APX files under ``.bench_work/``, and starts worker processes one at
a time (a closed loop with a single client): several that only time the
set-up, then one that runs the timed passes. Afterwards it checks every
answer the worker reported against a reference the program under test did
not compute, prints one line per metric, and prints as its last line a
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
``--trace 0`` reports the end-to-end metrics of BENCHMARK.json,
``--trace 1`` its per-layer metrics from a traced run.
"""

from __future__ import annotations

import argparse
import json
import math
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import workloads  # noqa: E402

SETUP_REPEATS = 4  # set-up-only workers; the timed worker adds one more sample
MIN_PASSES = 3
WORKER_TIMEOUT_S = 170


def fail(message: str) -> int:
    print(f"bench: {message}", file=sys.stderr)
    return 2


def run_worker(plan_path: Path, *flags: str) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), str(plan_path), *flags],
        capture_output=True,
        text=True,
        timeout=WORKER_TIMEOUT_S,
        cwd=ROOT,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def tail_percentile(samples_per_pass: int) -> int:
    """Highest whole percentile with at least ten samples beyond it, taken
    at the minimum pass count so it is the same on every run."""
    return math.floor(100 * (1 - 10 / (samples_per_pass * MIN_PASSES)))


def nearest_rank(values: list[float], percentile: float) -> float:
    ordered = sorted(values)
    rank = max(1, math.ceil(percentile / 100 * len(ordered)))
    return ordered[rank - 1]


def end_to_end(result: dict, setup: list[float], ops: int, attempted: int, failed: int):
    latencies = [x for p in result["passes"] for x in p]
    pct = tail_percentile(ops)
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "wall_s": (statistics.median(sum(p) for p in result["passes"]), "s"),
        "op_p50_ms": (statistics.median(latencies) * 1000, "ms"),
        "op_tail_ms": (nearest_rank(latencies, pct) * 1000, "ms"),
        "peak_rss_mb": (result["peak_rss_mb"], "MB"),
        "ok_ratio": ((attempted - failed) / attempted, "ratio"),
    }
    notes = {
        "op_tail_ms": f"p{pct} of {len(latencies)} samples, {len(result['passes'])} passes",
        "ok_ratio": f"failed_ratio {failed / attempted:.4f} ({failed} of {attempted} ops)",
    }
    return metrics, notes


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (SRC / "argsolve" / "__init__.py").is_file():
        return fail(f"no argsolve sources under {SRC}; run from a source checkout")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    work = ROOT / ".bench_work" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    plan = workloads.build(args.workload, args.seed)
    files = []
    (work / "inputs").mkdir()
    for inst in plan.instances:
        path = work / "inputs" / f"{inst.key}.{inst.fmt}"
        path.write_text(inst.text())
        files.append({"key": inst.key, "path": str(path)})
    sizes = {inst.key: inst.size for inst in plan.instances}
    plan_path = work / "plan.json"
    plan_path.write_text(
        json.dumps(
            {
                "src": str(SRC),
                "seconds": args.seconds,
                "min_passes": MIN_PASSES if not args.trace else 1,
                "files": files,
                "ops": [dict(vars(op), size=sizes[op.instance]) for op in plan.ops],
                "spans_path": str(work / "spans.json"),
            }
        )
    )

    try:
        setup = [] if args.trace else [run_worker(plan_path, "--setup-only")["setup_s"] for _ in range(SETUP_REPEATS)]
        started = time.perf_counter()
        result = run_worker(plan_path, *(["--trace"] if args.trace else []))
        measured_s = time.perf_counter() - started
    except (RuntimeError, subprocess.TimeoutExpired, json.JSONDecodeError) as exc:
        return fail(str(exc))

    attempted, failed, mismatches = checks.check(plan, result["digests"], SRC)
    for line in mismatches[:20]:
        print(f"MISMATCH {line}")

    if args.trace:
        layer = result["layer_metrics"]
        metrics = {m["name"]: (layer.get(m["name"], 0.0), m["unit"]) for m in spec["per_layer"]}
        notes = {}
    else:
        setup.append(result["setup_s"])
        metrics, notes = end_to_end(result, setup, len(plan.ops), attempted, failed)

    print(f"workload {args.workload} seed {args.seed}: {len(plan.instances)} frameworks, "
          f"{len(plan.ops)} ops per pass, worker ran {measured_s:.1f} s")
    for name, (value, unit) in metrics.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"  {name:40s} {value:14.6f} {unit}{note}")
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            }
        )
    )
    shutil.rmtree(work / "inputs", ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
