"""Input parsing (TGF, APX) and output emission (text, DOT).

TGF: one node token per line, a separator line holding exactly "#", then
edge lines "src dst". APX: facts of the forms ``arg(name).`` and
``att(src,dst).``; whitespace is insignificant, ``%`` starts a comment.

Extension members render in declaration order as ``[n1,n2,...]``.
Extension lists render in the order given; ``enumerate_extensions``
returns them in canonical order. Arguments and attacks are written in
declaration (index) order, so output is byte-stable for identical inputs.
"""

from __future__ import annotations

import re
import warnings
from dataclasses import fields
from enum import Enum
from pathlib import Path
from typing import Union

from .core import (
    ArgsolveError,
    DuplicateArgument,
    Framework,
    InvalidName,
    UnknownEndpoint,
    _iter_bits,
    build_framework,
)
from .semantics import Extension
from .structure import ClassificationReport


class ParseError(ArgsolveError):
    """Base class for malformed framework input."""


class MissingSeparator(ParseError):
    """TGF input has no '#' line between nodes and edges."""


class _LineError(ParseError):
    """A parse error that names its 1-based line as ``.lineno``."""

    def __init__(self, lineno: int, message: str):
        super().__init__(f"line {lineno}: {message}")
        self.lineno = lineno


class MalformedLine(_LineError):
    """A TGF line could not be interpreted."""


class MalformedFact(_LineError):
    """An APX fact could not be interpreted."""


class InputFormat(Enum):
    TGF = "tgf"
    APX = "apx"

    @classmethod
    def for_path(cls, path: Union[str, Path]) -> "InputFormat":
        """Infer the format from the file extension."""
        suffix = Path(path).suffix.lower().lstrip(".")
        for fmt in cls:
            if fmt.value == suffix:
                return fmt
        raise ParseError(
            f"cannot infer input format from {str(path)!r}; pass it explicitly"
        )


def _build(names: list[tuple[int, str]], pairs: list[tuple[int, str, str]]) -> Framework:
    """``build_framework`` on ``(line, name)`` and ``(line, src, dst)`` records.

    A rejected name or attack keeps its error class and ``.name`` and gains
    ``.lineno``: the line of the invalid name, of the repeated declaration,
    or of the first attack naming the undeclared endpoint.
    """
    try:
        return build_framework([name for _, name in names], ((s, d) for _, s, d in pairs))
    except (InvalidName, DuplicateArgument, UnknownEndpoint) as error:
        if isinstance(error, UnknownEndpoint):
            error.lineno = next(line for line, *ends in pairs if error.name in ends)
        else:
            lines = [line for line, name in names if name == error.name]
            error.lineno = lines[1] if isinstance(error, DuplicateArgument) else lines[0]
        error.args = (f"line {error.lineno}: {error}",)
        raise


def parse_tgf(text: str) -> Framework:
    """Parse Trivial Graph Format into a framework.

    Labels after a node's name or an edge's two names are ignored with a
    warning, and blank lines skipped. Nodes are declared in line order.
    """
    names: list[tuple[int, str]] = []
    pairs: list[tuple[int, str, str]] = []
    records, width, label = names, 1, "node"
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if line == "#":
            if records is pairs:
                raise MalformedLine(lineno, "second '#' separator")
            records, width, label = pairs, 2, "edge"
            continue
        tokens = line.split()
        if len(tokens) != width:
            if len(tokens) < width:  # a node line has at least its one token
                raise MalformedLine(lineno, f"edge line needs two tokens: {line!r}")
            warnings.warn(
                f"TGF line {lineno}: ignoring {label} label {' '.join(tokens[width:])!r}",
                stacklevel=2,
            )
            del tokens[width:]
        records.append((lineno, *tokens))
    if records is names:
        raise MissingSeparator("TGF input has no '#' separator line")
    return _build(names, pairs)


_APX_FACT = re.compile(r"(arg|att)\s*\(([^()]*)\)\s*\.")


def parse_apx(text: str) -> Framework:
    """Parse aspartix-style facts into a framework.

    Multiple facts may share a line; ``%`` comments and blank lines are
    ignored. Every attack endpoint must be declared by an ``arg`` fact.
    """
    names: list[tuple[int, str]] = []
    pairs: list[tuple[int, str, str]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("%", 1)[0].strip()
        if not line:
            continue
        consumed = 0
        for match in _APX_FACT.finditer(line):
            between = line[consumed : match.start()].strip()
            if between:
                raise MalformedFact(lineno, f"unrecognised text {between!r}")
            functor, body = match.group(1), match.group(2)
            terms = [t.strip() for t in body.split(",")]
            if any(len(t.split()) > 1 for t in terms):
                raise MalformedFact(lineno, f"whitespace inside a name: {match.group(0)!r}")
            if functor == "arg":
                if len(terms) != 1 or not terms[0]:
                    raise MalformedFact(lineno, f"arg fact needs one name: {match.group(0)!r}")
                names.append((lineno, terms[0]))
            else:
                if len(terms) != 2 or not all(terms):
                    raise MalformedFact(lineno, f"att fact needs two names: {match.group(0)!r}")
                pairs.append((lineno, terms[0], terms[1]))
            consumed = match.end()
        rest = line[consumed:].strip()
        if rest:
            raise MalformedFact(lineno, f"unrecognised text {rest!r}")
    return _build(names, pairs)


def load_framework(path: Union[str, Path], fmt: Union[InputFormat, str, None] = None) -> Framework:
    """Read and parse a framework file, inferring the format if needed.

    ``fmt`` is an InputFormat or its value; anything else is a ValueError.
    The file is UTF-8 and a leading byte-order mark is dropped; any other
    bytes are a ParseError that names the file and the byte offset.
    """
    fmt = InputFormat.for_path(path) if fmt is None else InputFormat(fmt)
    parse = parse_tgf if fmt is InputFormat.TGF else parse_apx
    try:
        text = Path(path).read_bytes().decode("utf-8")
    except UnicodeDecodeError as error:
        raise ParseError(f"{path}: not UTF-8 at byte {error.start}") from None
    return parse(text.removeprefix("\ufeff"))


def _edges(framework: Framework):
    """Attack pairs as (attacker, target) names, by attacker then target index."""
    arguments = framework.arguments
    for i, targets in enumerate(framework._succ_masks):
        for j in _iter_bits(targets):
            yield arguments[i].name, arguments[j].name


def emit_tgf(framework: Framework) -> str:
    """Inverse writer for parse_tgf: nodes, '#', edges, deterministic order."""
    lines = [a.name for a in framework.arguments]
    lines.append("#")
    lines.extend(f"{src} {dst}" for src, dst in _edges(framework))
    return "\n".join(lines) + "\n"


def emit_apx(framework: Framework) -> str:
    """Inverse writer for parse_apx, one fact per line."""
    lines = [f"arg({a.name})." for a in framework.arguments]
    lines.extend(f"att({src},{dst})." for src, dst in _edges(framework))
    return "\n".join(lines) + "\n" if lines else ""


def emit_extensions(extensions: list[Extension]) -> str:
    """Render one extension per line, in the order given.

    The empty set renders as ``[]``; an empty list renders as the single
    line ``NO EXTENSIONS``.
    """
    if not extensions:
        return "NO EXTENSIONS\n"
    return "\n".join(str(e.members) for e in extensions) + "\n"


def extensions_to_data(extensions: list[Extension]) -> list[list[str]]:
    """Structured mirror of emit_extensions: arrays of member names, in order."""
    return [list(e.members.names()) for e in extensions]


def emit_dot(framework: Framework) -> str:
    """Render the framework as a DOT digraph, deterministically ordered."""
    lines = ["digraph framework {"]
    for a in framework.arguments:
        lines.append(f'  "{a.name}";')
    lines.extend(f'  "{src}" -> "{dst}";' for src, dst in _edges(framework))
    lines.append("}")
    return "\n".join(lines) + "\n"


def classification_to_data(report: ClassificationReport) -> dict:
    """The report's fields in declaration order; counts keyed by sorted kind name."""
    data = {f.name: getattr(report, f.name) for f in fields(report)}
    if report.extension_counts is not None:
        counts = report.extension_counts.items()
        data["extension_counts"] = dict(sorted((kind.value, n) for kind, n in counts))
    return data


def emit_classification(report: ClassificationReport) -> str:
    """Render classification_to_data as ``name: value`` lines, in its order.

    A dict gives one ``name[key]: value`` line per entry; ``None`` reads
    ``absent`` and a bool ``true`` or ``false``.
    """
    lines = []
    for name, value in classification_to_data(report).items():
        if isinstance(value, dict):
            lines.extend(f"{name}[{key}]: {n}" for key, n in value.items())
            continue
        if value is None:
            value = "absent"
        elif isinstance(value, bool):
            value = "true" if value else "false"
        lines.append(f"{name}: {value}")
    return "\n".join(lines) + "\n"
