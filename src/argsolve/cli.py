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
    justification,
)
from .structure import classify

MAX_ARGS_ENV_VAR = "ARGSOLVE_MAX_ARGS"

_EXTENSION_SEMANTICS = [
    k.value for k in SemanticsKind if k is not SemanticsKind.SELF_DEFENDING
]
_JUSTIFY_SEMANTICS = [k.value for k in _JUSTIFICATION_KINDS]


def _add_input_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("-f", "--file", required=True, help="framework file")
    parser.add_argument(
        "--format",
        choices=[f.value for f in InputFormat],
        help="input format; inferred from the extension when omitted",
    )


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="argsolve",
        description="Solve finite argumentation frameworks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("extensions", help="enumerate extensions of one semantics")
    _add_input_options(p)
    p.add_argument("-s", "--semantics", required=True, choices=_EXTENSION_SEMANTICS)
    p.add_argument("--max-args", type=int, help="override the enumeration bound")
    p.add_argument("--json", action="store_true", help="structured output")

    p = sub.add_parser("justify", help="decide acceptance of one argument")
    _add_input_options(p)
    p.add_argument("-s", "--semantics", required=True, choices=_JUSTIFY_SEMANTICS)
    p.add_argument("-a", "--argument", required=True, help="argument name")
    p.add_argument("--mode", required=True, choices=["credulous", "sceptical"])
    p.add_argument("--max-args", type=int, help="override the enumeration bound")

    p = sub.add_parser("classify", help="report structural and semantic properties")
    _add_input_options(p)
    p.add_argument("--max-args", type=int, help="override the enumeration bound")
    p.add_argument("--json", action="store_true", help="structured output")

    p = sub.add_parser("grounded", help="compute the grounded extension")
    _add_input_options(p)
    p.add_argument(
        "--trace", action="store_true", help="print each iteration step first"
    )

    p = sub.add_parser("dot", help="render the framework as a DOT digraph")
    _add_input_options(p)

    p = sub.add_parser("validate", help="parse the input and report success")
    _add_input_options(p)

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


def _load(args: argparse.Namespace):
    """Parse the input file; each parser warning prints as one stderr line."""
    forced = InputFormat(args.format) if args.format else None
    with warnings.catch_warnings():
        warnings.showwarning = _show_warning
        return load_framework(args.file, forced)


def _output(args: argparse.Namespace, result, emit, to_data) -> str:
    """Render ``result`` in the one form the command prints."""
    return json.dumps(to_data(result)) + "\n" if args.json else emit(result)


def _run_extensions(args: argparse.Namespace) -> str:
    framework = _load(args)
    kind = SemanticsKind(args.semantics)
    result = enumerate_extensions(
        framework, kind, max_args=_effective_max_args(args.max_args)
    )
    return _output(args, result, emit_extensions, extensions_to_data)


def _run_classify(args: argparse.Namespace) -> str:
    framework = _load(args)
    report = classify(framework, max_args=_effective_max_args(args.max_args))
    return _output(args, report, emit_classification, classification_to_data)


def _run_grounded(args: argparse.Namespace) -> str:
    framework = _load(args)
    trace = kleene_least_fixpoint(framework)
    lines = []
    if args.trace:
        # one line per operator application, confirmation step included
        lines.extend(str(step) for step in trace.steps[1:])
        lines.append(str(trace.fixpoint))
    lines.append(str(trace.fixpoint))
    return "\n".join(lines) + "\n"


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)

    try:
        if args.command == "extensions":
            print(_run_extensions(args), end="")
        elif args.command == "justify":
            framework = _load(args)
            status = justification(
                framework,
                args.argument,
                SemanticsKind(args.semantics),
                max_args=_effective_max_args(args.max_args),
            )
            answer = status.sceptical if args.mode == "sceptical" else status.credulous
            print("YES" if answer else "NO")
            return 0 if answer else 1
        elif args.command == "classify":
            print(_run_classify(args), end="")
        elif args.command == "grounded":
            print(_run_grounded(args), end="")
        elif args.command == "dot":
            print(emit_dot(_load(args)), end="")
        elif args.command == "validate":
            _load(args)
    except TooLarge as exc:
        print(f"argsolve: {exc}", file=sys.stderr)
        return 3
    except (ArgsolveError, OSError) as exc:
        print(f"argsolve: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
