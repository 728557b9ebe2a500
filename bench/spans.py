"""Span recording for the traced run, installed from outside the library.

A wrapper replaces a qensemble function at each module attribute through
which another module or the benchmark calls it, so no library source
changes.  Calls a function makes to itself inside its own module are
traced only where the benchmark also calls that name.  Each call becomes a
span (function, parent span, start, end) kept in flat arrays in memory;
``save`` writes them when the run ends.  A layer is the qensemble module
that defines the function, and its self time is the time its spans cover
minus the time covered by their child spans.
"""

from __future__ import annotations

import functools
import inspect
import json
import math
from array import array
from dataclasses import dataclass
from time import perf_counter
from types import ModuleType
from typing import Callable

import numpy as np

LAYERS = ("qcore", "combinat", "moments", "orthopoly", "asymptotics", "density", "cli", "verify")

#: Attributes wrapped with a call counter only: hot inner calls where a span
#: would cost more than the work it measures, and scipy's ``quad``.
COUNTED = (("combinat", "path_weight"), ("orthopoly", "density_n"), ("density", "quad"))


@dataclass(frozen=True)
class Mark:
    """Position in the span record and the counters at that moment."""

    span: int
    counts: dict[str, int]
    errors: tuple[int, ...]
    nonfinite: tuple[int, ...]


class Tracer:
    def __init__(self, modules: dict[str, ModuleType], direct: dict[str, tuple[str, ...]]):
        """``modules`` maps each layer name to its module; ``direct`` names,
        per layer, the functions the benchmark calls in that module."""
        self.names: list[str] = []  # function id -> "layer.function"
        self.layer_of: list[int] = []  # function id -> index into LAYERS
        self.fid = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counts = {f"{m}.{n}": 0 for m, n in COUNTED}
        self.errors = [0] * len(LAYERS)  # ArithmeticError leaving the layer
        self.nonfinite = [0] * len(LAYERS)  # NaN or inf float results
        self._stack = [-1]
        self._wrappers: list[tuple[ModuleType, str, Callable, Callable]] = []
        ids: dict[Callable, int] = {}
        for layer, mod in modules.items():
            for name, obj in list(vars(mod).items()):
                if (layer, name) in COUNTED:
                    self._wrappers.append((mod, name, obj, self._counter(obj, f"{layer}.{name}")))
                    continue
                if name.startswith("_") or not inspect.isfunction(obj):
                    continue
                home = obj.__module__.rpartition(".")[2]
                if not obj.__module__.startswith("qensemble.") or home not in LAYERS:
                    continue
                if home == layer and name not in direct.get(layer, ()):
                    continue
                if obj not in ids:
                    ids[obj] = len(self.names)
                    self.names.append(f"{home}.{obj.__name__}")
                    self.layer_of.append(LAYERS.index(home))
                self._wrappers.append((mod, name, obj, self._span(obj, ids[obj])))

    def install(self) -> None:
        for mod, name, _, wrapper in self._wrappers:
            setattr(mod, name, wrapper)

    def uninstall(self) -> None:
        for mod, name, original, _ in self._wrappers:
            setattr(mod, name, original)

    def mark(self) -> Mark:
        return Mark(len(self.fid), dict(self.counts), tuple(self.errors), tuple(self.nonfinite))

    def _counter(self, fn: Callable, key: str) -> Callable:
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return counted

    def _span(self, fn: Callable, fid: int) -> Callable:
        layer = self.layer_of[fid]
        layer_of, fids, stack = self.layer_of, self.fid, self._stack
        parents, starts, ends = self.parent, self.start, self.end
        errors, nonfinite = self.errors, self.nonfinite

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(fids)
            parent = stack[-1]
            fids.append(fid)
            parents.append(parent)
            ends.append(0.0)
            stack.append(idx)
            starts.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            except ArithmeticError:
                if parent < 0 or layer_of[fids[parent]] != layer:
                    errors[layer] += 1
                raise
            finally:
                ends[idx] = perf_counter()
                stack.pop()
            if isinstance(result, float) and not math.isfinite(result):
                nonfinite[layer] += 1
            return result

        return traced

    def summary(self, lo: Mark, hi: Mark) -> "Summary":
        """Aggregate the spans and counters recorded between two marks."""
        a, b = lo.span, hi.span
        fid = np.frombuffer(self.fid, dtype=np.int32)[a:b].copy()
        parent = np.frombuffer(self.parent, dtype=np.int32)[a:b].copy()
        dur = np.frombuffer(self.end)[a:b] - np.frombuffer(self.start)[a:b]
        inner = parent >= a
        covered = np.bincount(parent[inner] - a, weights=dur[inner], minlength=b - a)
        layer = np.asarray(self.layer_of, dtype=np.int64)[fid]
        nfun, nlay = len(self.names), len(LAYERS)
        return Summary(
            names=self.names,
            calls=np.bincount(fid, minlength=nfun),
            total_s=np.bincount(fid, weights=dur, minlength=nfun),
            layer_calls=np.bincount(layer, minlength=nlay),
            layer_self_s=np.bincount(layer, weights=dur - covered, minlength=nlay),
            counts={k: hi.counts[k] - lo.counts[k] for k in self.counts},
            errors=[y - x for x, y in zip(lo.errors, hi.errors)],
            nonfinite=[y - x for x, y in zip(lo.nonfinite, hi.nonfinite)],
        )

    def save(self, path: str, provenance: dict) -> None:
        """Write every span with its function-name table."""
        np.savez_compressed(
            path,
            names=np.array(self.names),
            layers=np.array(LAYERS),
            layer_of=np.array(self.layer_of, dtype=np.int32),
            fid=np.frombuffer(self.fid, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            start=np.frombuffer(self.start),
            end=np.frombuffer(self.end),
            provenance=np.array(json.dumps(provenance)),
        )


@dataclass
class Summary:
    names: list[str]
    calls: np.ndarray
    total_s: np.ndarray
    layer_calls: np.ndarray
    layer_self_s: np.ndarray
    counts: dict[str, int]
    errors: list[int]
    nonfinite: list[int]

    def function_calls(self, name: str) -> int:
        return int(self.calls[self.names.index(name)]) if name in self.names else 0

    def function_s(self, name: str) -> float:
        return float(self.total_s[self.names.index(name)]) if name in self.names else 0.0
