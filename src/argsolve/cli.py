"""Command-line interface.

Exit codes: 0 success (YES for justify), 1 justify answered NO, 2 usage or
parse error, 3 framework too large for the requested computation. The
enumeration bound comes from --max-args when given, else the
ARGSOLVE_MAX_ARGS environment variable, else the library default.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import warnings
from typing import Optional, Sequence

from .core import ArgsolveError
from .formats import (
    InputFormat,
    classification_to_data,
    emit_classification,
    emit_dot,
    emit_extensions,
    extensions_to_data,
    load_framework,
)
from .operators import kleene_least_fixpoint
from .semantics import (
    _JUSTIFICATION_KINDS,
    SemanticsKind,
    TooLarge,
    enumerate_extensions,
    grounded,
    justification,
)
from .structure import classify

MAX_ARGS_ENV_VAR = "ARGSOLVE_MAX_ARGS"

_EXTENSION_SEMANTICS = [
    k.value for k in SemanticsKind if k is not SemanticsKind.SELF_DEFENDING
]
_JUSTIFY_SEMANTICS = [k.value for k in _JUSTIFICATION_KINDS]


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="argsolve",
        description="Solve finite argumentation frameworks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name: str, summary: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=summary)
        p.add_argument("-f", "--file", required=True, help="framework file")
        p.add_argument(
            "--format",
            choices=[f.value for f in InputFormat],
            help="input format; inferred from the extension when omitted",
        )
        return p

    p = command("extensions", "enumerate extensions of one semantics")
    p.add_argument("-s", "--semantics", required=True, choices=_EXTENSION_SEMANTICS)
    p.add_argument("--max-args", type=int, help="override the enumeration bound")
    p.add_argument("--json", action="store_true", help="structured output")

    p = command("justify", "decide acceptance of one argument")
    p.add_argument("-s", "--semantics", required=True, choices=_JUSTIFY_SEMANTICS)
    p.add_argument("-a", "--argument", required=True, help="argument name")
    p.add_argument("--mode", required=True, choices=["credulous", "sceptical"])
    p.add_argument("--max-args", type=int, help="override the enumeration bound")

    p = command("classify", "report structural and semantic properties")
    p.add_argument("--max-args", type=int, help="override the enumeration bound")
    p.add_argument("--json", action="store_true", help="structured output")

    p = command("grounded", "compute the grounded extension")
    p.add_argument(
        "--trace", action="store_true", help="print each iteration step first"
    )

    command("dot", "render the framework as a DOT digraph")
    command("validate", "parse the input and report success")
    return parser


def _effective_max_args(flag_value: Optional[int]) -> Optional[int]:
    source, value = "--max-args", flag_value
    if value is None:
        env_value = os.environ.get(MAX_ARGS_ENV_VAR)
        if env_value is None:
            return None
        try:
            source, value = MAX_ARGS_ENV_VAR, int(env_value)
        except ValueError:
            raise ArgsolveError(
                f"{MAX_ARGS_ENV_VAR} must be an integer, got {env_value!r}"
            ) from None
    if value < 0:
        raise ArgsolveError(f"{source} must be nonnegative, got {value}")
    return value


def _show_warning(message, category, filename, lineno, file=None, line=None) -> None:
    print(f"argsolve: warning: {message}", file=sys.stderr)


def _run(args: argparse.Namespace) -> tuple[str, int]:
    """Load the file, compute, and return the command's stdout and exit code.

    The one place that branches on the subcommand. Each parser warning
    prints as one stderr line. Only the commands that take --max-args read the
    enumeration bound, and only once the file has loaded.
    """
    with warnings.catch_warnings():
        warnings.showwarning = _show_warning
        framework = load_framework(args.file, args.format)
    if "max_args" in vars(args):
        max_args = _effective_max_args(args.max_args)
    if args.command == "extensions":
        kind = SemanticsKind(args.semantics)
        found = enumerate_extensions(framework, kind, max_args=max_args)
        if args.json:
            return json.dumps(extensions_to_data(found)) + "\n", 0
        return emit_extensions(found), 0
    if args.command == "justify":
        kind = SemanticsKind(args.semantics)
        status = justification(framework, args.argument, kind, max_args=max_args)
        answer = status.sceptical if args.mode == "sceptical" else status.credulous
        return ("YES\n", 0) if answer else ("NO\n", 1)
    if args.command == "classify":
        report = classify(framework, max_args=max_args)
        if args.json:
            return json.dumps(classification_to_data(report)) + "\n", 0
        return emit_classification(report), 0
    if args.command == "grounded":
        if not args.trace:
            return f"{grounded(framework).members}\n", 0
        trace = kleene_least_fixpoint(framework)  # one line per step, confirmation included
        return "".join(f"{s}\n" for s in [*trace.steps[1:], trace.fixpoint, trace.fixpoint]), 0
    if args.command == "dot":
        return emit_dot(framework), 0
    return "", 0  # validate: the load above is the whole check


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse exits on --help and on usage errors
        return int(exc.code or 0)
    try:
        out, code = _run(args)
        if out:  # validate writes nothing: even an empty write fails on a full device
            print(out, end="")
    except TooLarge as exc:
        print(f"argsolve: {exc}", file=sys.stderr)
        return 3
    except (ArgsolveError, OSError) as exc:
        print(f"argsolve: {exc}", file=sys.stderr)
        return 2
    return code


if __name__ == "__main__":
    sys.exit(main())
