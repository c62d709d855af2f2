"""Spans around the package's public functions, recorded from outside.

``instrument`` replaces every public function of each infotherm module,
in every module namespace that holds it, with a wrapper that opens a span
named ``<layer>.<function>``. Nothing inside the package changes: the
wrappers sit at the layer boundaries, and ``restore`` puts the originals
back. Spans stay in memory and are written out once, at the end of a run.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from collections import Counter

from stats import self_times

#: The package's modules; each is one layer.
LAYERS = ("core", "rng", "twolevel", "bitstream", "ledger", "fiber", "landauer", "cli")

#: Work counted at a layer boundary: (layer, function) -> (counter, amount in the call's result).
COUNTED = {
    ("rng", "random_words"): ("rng.words_drawn", len),
    ("bitstream", "generate"): ("bitstream.bits_processed", lambda result: result.length),
    ("bitstream", "analyze"): ("bitstream.bits_processed", lambda result: result.length),
    ("fiber", "simulate_chain"): ("fiber.records_built", lambda result: len(result.records)),
}


class Tracer:
    """Spans of one run, kept in memory.

    A span is a dict: ``id``, ``name``, ``layer`` (None for the benchmark's
    own workload and command spans), ``start`` and ``end`` in seconds,
    ``parent`` id, ``run`` id, and ``failed``.
    """

    def __init__(self):
        self.spans: list[dict] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self.run_id = ""

    def open(self, name: str, layer: str | None = None) -> dict:
        span = {"id": len(self.spans), "name": name, "layer": layer,
                "parent": self._stack[-1] if self._stack else None,
                "run": self.run_id, "start": time.perf_counter(), "end": None, "failed": False}
        self.spans.append(span)
        self._stack.append(span["id"])
        return span

    def close(self, span: dict, failed: bool = False) -> None:
        span["end"] = time.perf_counter()
        span["failed"] = failed
        self._stack.pop()

    def call(self, layer: str, name: str, fn, args, kwargs):
        span = self.open(f"{layer}.{name}", layer)
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            self.close(span, failed=True)
            raise
        self.close(span)
        counted = COUNTED.get((layer, name))
        if counted is not None:
            self.counts[counted[0]] += counted[1](result)
        return result

    def layer_totals(self, run_id: str) -> dict[str, dict[str, float]]:
        """Self time, calls and failures per layer over the spans of one run."""
        spans = [s for s in self.spans if s["run"] == run_id]
        own = self_times(spans)
        totals = {layer: {"self_s": 0.0, "calls": 0, "failures": 0} for layer in LAYERS}
        for s in spans:
            if s["layer"] is not None:
                t = totals[s["layer"]]
                t["self_s"] += own[s["id"]]
                t["calls"] += 1
                t["failures"] += s["failed"]
        return totals


def _wrap(tracer: Tracer, layer: str, name: str, fn):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        return tracer.call(layer, name, fn, args, kwargs)
    return traced


def instrument(tracer: Tracer) -> list[tuple[object, str, object]]:
    """Wrap each layer's public functions wherever they are bound.

    Returns the (namespace, attribute, original) triples that ``restore``
    needs. Binding sites include imports such as ``bitstream.uniforms``,
    so calls from one layer into another are seen too.
    """
    modules = {layer: importlib.import_module(f"infotherm.{layer}") for layer in LAYERS}
    wrappers = {}
    for layer, mod in modules.items():
        for name, obj in vars(mod).items():
            if inspect.isfunction(obj) and obj.__module__ == mod.__name__ and not name.startswith("_"):
                wrappers[obj] = _wrap(tracer, layer, name, obj)
    replaced = []
    for mod in [importlib.import_module("infotherm"), *modules.values()]:
        for attr, obj in list(vars(mod).items()):
            if inspect.isfunction(obj) and obj in wrappers:
                replaced.append((mod, attr, obj))
                setattr(mod, attr, wrappers[obj])
    return replaced


def restore(replaced) -> None:
    for mod, attr, original in replaced:
        setattr(mod, attr, original)
