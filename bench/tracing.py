"""Spans around the public functions of each argsolve module.

``Tracer.install`` rebinds every public function of the layer modules, in
every argsolve namespace that refers to it, to a wrapper that records a
span: name, start, end, parent span and op id. Calls from one library
function to another therefore nest. Spans stay in memory until the run
writes them out. Nothing in the program is changed on disk, and
``uninstall`` puts the original functions back.
"""

from __future__ import annotations

import importlib
import inspect
import statistics
import sys
import time
from collections import defaultdict

LAYERS = ("cli", "formats", "core", "operators", "semantics", "structure")
EMITTERS = {
    "formats.emit_extensions",
    "formats.emit_dot",
    "formats.emit_classification",
    "formats.emit_tgf",
    "formats.emit_apx",
    "formats.extensions_to_data",
    "formats.classification_to_data",
}
CYCLE_CALLS = {"structure.has_directed_cycle", "structure.odd_cycle_exists", "structure.even_cycle_exists"}


def _kind(args, kwargs, position):
    kind = kwargs.get("kind", kwargs.get("semantics"))
    if kind is None and len(args) > position:
        kind = args[position]
    return getattr(kind, "value", None)


# what a span records beside its times: (args, kwargs, result) -> value;
# the result is None when the call raised
_ATTRIBUTES = {
    "semantics.enumerate_extensions": lambda a, k, r: (_kind(a, k, 1), len(r or ())),
    "semantics.justification": lambda a, k, r: (_kind(a, k, 2), 0),
    "operators.kleene_least_fixpoint": lambda a, k, r: len(r.steps) - 1 if r else 0,
    "core.build_framework": lambda a, k, r: (len(r.arguments), len(r.attacks)) if r else (0, 0),
    "formats.parse_tgf": lambda a, k, r: len(a[0].encode()),
    "formats.parse_apx": lambda a, k, r: len(a[0].encode()),
}
for _name in EMITTERS:
    _ATTRIBUTES[_name] = lambda a, k, r: len(r.encode()) if isinstance(r, str) else 0


class Tracer:
    """Records spans as tuples (name, start, end, parent, op, attribute)."""

    def __init__(self) -> None:
        self.spans: list = []
        self.op = ""
        self._stack: list[int] = []
        self._patched: list = []

    def _wrap(self, label: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        attribute = _ATTRIBUTES.get(label)

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            result = None
            start = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = clock()
                stack.pop()
                value = attribute(args, kwargs, result) if attribute is not None else None
                spans[index] = (label, start, end, parent, self.op, value)

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        wrappers = {}
        for layer in LAYERS:
            module = importlib.import_module(f"argsolve.{layer}")
            for name, obj in vars(module).items():
                if inspect.isfunction(obj) and not name.startswith("_") and obj.__module__ == module.__name__:
                    wrappers[obj] = self._wrap(f"{layer}.{name}", obj)
        for module_name, module in list(sys.modules.items()):
            if module_name != "argsolve" and not module_name.startswith("argsolve."):
                continue
            for name, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._patched.append((module, name, obj))
                    setattr(module, name, wrappers[obj])

    def uninstall(self) -> None:
        for module, name, obj in self._patched:
            setattr(module, name, obj)
        self._patched.clear()


def self_times(spans, offset: int = 0) -> list[float]:
    """Each span's duration minus the time its direct children cover.

    ``spans`` may be a slice of a longer list that starts at ``offset``;
    a root span of the slice has a parent before it, or -1.
    """
    own = [end - start for _, start, end, _, _, _ in spans]
    for _, start, end, parent, _, _ in spans:
        if parent >= offset:
            own[parent - offset] -= end - start
    return own


def round_metrics(spans, offset: int, size_of_op) -> dict[str, float]:
    """Per-layer totals over the spans of one traced round.

    ``spans`` is the round's slice of the tracer's list, starting at
    ``offset``. ``size_of_op`` maps an op id to "N", "2.5N" or "" so that
    the scaling pairs of structure-large can be told apart.
    """
    out: dict[str, float] = defaultdict(float)
    own = self_times(spans, offset)
    labels = [s[0] for s in spans]
    by_size: dict[tuple[str, str], float] = defaultdict(float)
    for index, (label, start, end, parent, op, value) in enumerate(spans):
        span = end - start
        layer = label.split(".", 1)[0]
        out[f"{layer}.self_s"] += own[index]
        parent_label = labels[parent - offset] if parent >= offset else ""
        size = size_of_op(op)
        if label == "semantics.enumerate_extensions":
            kind, count = value or (None, 0)
            out["semantics.extensions"] += count
            if kind and not (kind == "grounded" and parent_label == "semantics.grounded"):
                out[f"semantics.enumerate_s.{kind}"] += span
        elif label == "semantics.grounded":
            if parent_label != "semantics.enumerate_extensions":
                out["semantics.enumerate_s.grounded"] += span
        elif label == "semantics.justification":
            out["semantics.justify_s"] += span
        elif label == "operators.kleene_least_fixpoint":
            out["operators.kleene_s"] += span
            out["operators.kleene_steps"] += value or 0
            by_size["kleene", size] += span
        elif label == "structure.classify":
            out["structure.classify_s"] += span
        elif label == "structure.controversial_arguments":
            out["structure.controversial_s"] += span
            by_size["controversial", size] += span
        elif label in CYCLE_CALLS:
            out["structure.cycles_s"] += span
            by_size["cycles", size] += span
        elif label == "core.build_framework":
            out["core.build_s"] += span
            arguments, attacks = value or (0, 0)
            out["core.arguments"] += arguments
            out["core.attacks"] += attacks
        elif label == "formats.load_framework":
            out["formats.parse_s"] += span
        elif label in ("formats.parse_tgf", "formats.parse_apx"):
            out["formats.input_bytes"] += value or 0
        elif label in EMITTERS and parent_label not in EMITTERS:
            out["formats.emit_s"] += span
            out["formats.output_bytes"] += value or 0
        if label == "core.build_framework" and parent_label.startswith("formats.parse_"):
            out["formats.build_in_parse_s"] += span
    out["formats.parse_self_s"] = out["formats.parse_s"] - out.pop("formats.build_in_parse_s", 0.0)
    for name, metric in (
        ("kleene", "operators.kleene_scaling"),
        ("controversial", "structure.controversial_scaling"),
        ("cycles", "structure.cycles_scaling"),
    ):
        small, large = by_size[name, "N"], by_size[name, "2.5N"]
        out[metric] = large / small if small > 0 else 0.0
    return dict(out)


def median_metrics(rounds: list[dict[str, float]]) -> dict[str, float]:
    names = {name for r in rounds for name in r}
    return {name: statistics.median(r.get(name, 0.0) for r in rounds) for name in names}
