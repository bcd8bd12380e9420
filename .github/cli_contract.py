"""Print one line per CLI invocation: argv, exit code, output digests, first stderr line.

Usage: python .github/cli_contract.py SRC DATA_DIR

Imports ``argsolve.cli`` from the source tree SRC and calls ``main``
in-process on a fixed list of invocations: every subcommand, ``--json``,
``--trace`` and ``--max-args 1``, on each file in DATA_DIR and on seeded
random TGF and APX files of 0-25 arguments written to a temporary
directory. Run it on two source trees and diff the outputs to see whether
a change kept the CLI's bytes and exit codes. Standard library only.
"""

import contextlib
import hashlib
import io
import os
import random
import sys
import tempfile
import warnings
from pathlib import Path

EXTENSION_KINDS = [
    "conflict-free", "naive", "admissible", "complete", "preferred", "stable", "grounded",
]
JUSTIFY_KINDS = ["complete", "preferred", "stable", "grounded"]


def invocations(path: str, argument: str) -> list[list[str]]:
    """The fixed argv list for one framework file."""
    file = ["-f", path]
    runs = [
        ["validate", *file],
        ["dot", *file],
        ["grounded", *file],
        ["grounded", *file, "--trace"],
    ]
    for extra in ([], ["--json"], ["--max-args", "1"], ["--max-args", "1", "--json"]):
        runs.append(["classify", *file, *extra])
    runs += [["extensions", *file, "-s", kind] for kind in EXTENSION_KINDS]
    runs.append(["extensions", *file, "-s", "preferred", "--json"])
    runs.append(["extensions", *file, "-s", "preferred", "--max-args", "1"])
    for kind in JUSTIFY_KINDS:
        for mode in ("credulous", "sceptical"):
            runs.append(["justify", *file, "-s", kind, "-a", argument, "--mode", mode])
    return runs


def write_random_files(directory: Path, seed: int = 14, count: int = 10) -> list[Path]:
    """Seeded random frameworks of 0-25 arguments, alternately TGF (some labelled) and APX."""
    rng = random.Random(seed)
    paths = []
    for k in range(count):
        n = 0 if k == 0 else rng.randint(1, 25)
        names = [f"x{i}" for i in range(n)]
        density = rng.uniform(0.1, 0.4)
        pairs = [(s, d) for s in names for d in names if rng.random() < density]
        if k % 2 == 0:
            nodes = [f"{a} label{a}" if rng.random() < 0.2 else a for a in names]
            edges = [f"{s} {d} w" if rng.random() < 0.1 else f"{s} {d}" for s, d in pairs]
            path, text = directory / f"r{k}.tgf", "\n".join([*nodes, "#", *edges]) + "\n"
        else:
            facts = [f"arg({a})." for a in names] + [f"att({s},{d})." for s, d in pairs]
            path, text = directory / f"r{k}.apx", "\n".join(facts) + "\n"
        path.write_text(text)
        paths.append(path)
    return paths


def digest(text: str) -> str:
    """A short sha256 of the text."""
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def run(main, argv: list[str]) -> tuple[str, str, str]:
    """Exit code, stdout and stderr of one in-process call of ``main``."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = str(main(argv))
        except Exception as error:  # a crash is part of the contract too
            code = f"raised {type(error).__name__}"
    return code, out.getvalue(), err.getvalue()


def main() -> int:
    if len(sys.argv) != 3:
        print(__doc__.splitlines()[2], file=sys.stderr)
        return 2
    src, data = Path(sys.argv[1]).resolve(), Path(sys.argv[2]).resolve()
    sys.path.insert(0, str(src))
    from argsolve.cli import main as cli_main

    os.environ.pop("ARGSOLVE_MAX_ARGS", None)
    warnings.simplefilter("always")  # each call warns as a fresh process would
    with tempfile.TemporaryDirectory() as tmp:
        files = [(p, "a") for p in sorted(data.iterdir()) if p.is_file()]
        files += [(p, "x0") for p in write_random_files(Path(tmp))]
        def mask(text: str) -> str:
            return text.replace(tmp, "<tmp>").replace(str(data), "<data>")

        for path, argument in files:
            for argv in invocations(str(path), argument):
                code, out, err = run(cli_main, argv)
                err = mask(err)
                first = err.splitlines()[0] if err else ""
                print(f"{mask(' '.join(argv))} | exit {code} | ", end="")
                print(f"out {digest(out)} | err {digest(err)} | {first}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
