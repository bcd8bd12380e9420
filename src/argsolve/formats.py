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
from enum import Enum
from pathlib import Path
from typing import Optional, Union

from .core import ArgsolveError, Framework, _iter_bits, build_framework
from .semantics import Extension
from .structure import ClassificationReport


class ParseError(ArgsolveError):
    """Base class for malformed framework input."""


class MissingSeparator(ParseError):
    """TGF input has no '#' line between nodes and edges."""


class MalformedLine(ParseError):
    """A TGF line could not be interpreted."""

    def __init__(self, lineno: int, message: str):
        super().__init__(f"line {lineno}: {message}")
        self.lineno = lineno


class MalformedFact(ParseError):
    """An APX fact could not be interpreted."""

    def __init__(self, lineno: int, message: str):
        super().__init__(f"line {lineno}: {message}")
        self.lineno = lineno


class InputFormat(Enum):
    TGF = "tgf"
    APX = "apx"

    @classmethod
    def for_path(cls, path: Union[str, Path], forced: Optional["InputFormat"] = None):
        """Infer the format from the file extension unless forced."""
        if forced is not None:
            return forced
        suffix = Path(path).suffix.lower().lstrip(".")
        for fmt in cls:
            if fmt.value == suffix:
                return fmt
        raise ParseError(
            f"cannot infer input format from {str(path)!r}; pass it explicitly"
        )


def parse_tgf(text: str) -> Framework:
    """Parse Trivial Graph Format into a framework.

    Node labels after the first token are ignored with a warning; blank
    lines are skipped. Declaration order follows the node-line order.
    """
    names: list[str] = []
    pairs: list[tuple[str, str]] = []
    seen_separator = False
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if line == "#":
            if seen_separator:
                raise MalformedLine(lineno, "second '#' separator")
            seen_separator = True
            continue
        tokens = line.split()
        if not seen_separator:
            if len(tokens) > 1:
                warnings.warn(
                    f"TGF line {lineno}: ignoring node label {' '.join(tokens[1:])!r}",
                    stacklevel=2,
                )
            names.append(tokens[0])
        else:
            if len(tokens) < 2:
                raise MalformedLine(lineno, f"edge line needs two tokens: {line!r}")
            if len(tokens) > 2:
                warnings.warn(
                    f"TGF line {lineno}: ignoring edge label {' '.join(tokens[2:])!r}",
                    stacklevel=2,
                )
            pairs.append((tokens[0], tokens[1]))
    if not seen_separator:
        raise MissingSeparator("TGF input has no '#' separator line")
    return build_framework(names, pairs)


_APX_FACT = re.compile(r"(arg|att)\s*\(([^()]*)\)\s*\.")


def parse_apx(text: str) -> Framework:
    """Parse aspartix-style facts into a framework.

    Multiple facts may share a line; ``%`` comments and blank lines are
    ignored. Every attack endpoint must be declared by an ``arg`` fact.
    """
    names: list[str] = []
    pairs: list[tuple[str, str]] = []
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
                names.append(terms[0])
            else:
                if len(terms) != 2 or not all(terms):
                    raise MalformedFact(lineno, f"att fact needs two names: {match.group(0)!r}")
                pairs.append((terms[0], terms[1]))
            consumed = match.end()
        rest = line[consumed:].strip()
        if rest:
            raise MalformedFact(lineno, f"unrecognised text {rest!r}")
    return build_framework(names, pairs)


def parse_framework(text: str, fmt: InputFormat) -> Framework:
    if fmt is InputFormat.TGF:
        return parse_tgf(text)
    return parse_apx(text)


def load_framework(path: Union[str, Path], fmt: Optional[InputFormat] = None) -> Framework:
    """Read and parse a framework file, inferring the format if needed."""
    resolved = InputFormat.for_path(path, fmt)
    return parse_framework(Path(path).read_text(encoding="utf-8"), resolved)


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


_REPORT_FIELDS = (
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


def classification_to_data(report: ClassificationReport) -> dict:
    """Structured mirror of the classification text rendering."""
    data: dict = {name: getattr(report, name) for name in _REPORT_FIELDS}
    if report.extension_counts is None:
        data["extension_counts"] = None
    else:
        data["extension_counts"] = {
            kind.value: report.extension_counts[kind]
            for kind in sorted(report.extension_counts, key=lambda k: k.value)
        }
    return data


def emit_classification(report: ClassificationReport) -> str:
    """Render the report as ``name: value`` lines; absent fields say so."""

    def render(value) -> str:
        if value is None:
            return "absent"
        if isinstance(value, bool):
            return "true" if value else "false"
        return str(value)

    data = classification_to_data(report)
    lines = []
    for name in _REPORT_FIELDS:
        lines.append(f"{name}: {render(data[name])}")
    counts = data["extension_counts"]
    if counts is None:
        lines.append("extension_counts: absent")
    else:
        for kind_name, count in counts.items():
            lines.append(f"extension_counts[{kind_name}]: {count}")
    return "\n".join(lines) + "\n"
