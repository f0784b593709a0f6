"""Per-layer tracing from outside the program.

``Tracer.install`` wraps the public functions of every fivevertex layer
module and rebinds each wrapper in every fivevertex module namespace that
holds the original (``from .symfunc import grothendieck_eval`` copies the
binding, so patching the defining module alone would miss most calls).
Nothing under ``src/`` is edited.

A wrapped call is a span: its self time is its duration minus that of the
wrapped calls it makes.  Calls in the hot inner layers (symfunc, confluent,
ratfunc, linalg, partitions) are only aggregated; the others are also kept
as span records (id, parent id, name, start, end) in memory and written out
when the run ends.  The two scalar helpers are counted, not timed: they are
called far too often for a timer to stay out of the measurement.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from collections import defaultdict

LAYERS = ["cli", "acceptance", "tasep.bethe_solve", "tasep.spectral", "tasep.master_oracle",
          "identities", "symfunc", "confluent", "ratfunc", "linalg", "sector", "wavefunc",
          "scalarprod", "vertex", "partitions"]
MODULES = ["cli", "acceptance", "tasep", "identities", "symfunc", "confluent", "ratfunc",
           "linalg", "sector", "wavefunc", "scalarprod", "vertex", "partitions"]
HOT = {"symfunc", "confluent", "ratfunc", "linalg", "partitions"}
RATFUNC_METHODS = ("derivative", "nth_derivative", "__call__")


def _layer(module: str, name: str) -> str:
    if module != "tasep":
        return module
    if name == "bethe_solve":
        return "tasep.bethe_solve"
    if name in ("master_oracle", "sector_generator"):
        return "tasep.master_oracle"
    return "tasep.spectral"


def _is_sympy(x) -> bool:
    return type(x).__module__.partition(".")[0] == "sympy"


class Tracer:
    def __init__(self):
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.errors = defaultdict(int)
        self.counts = defaultdict(int)
        self.layer_of = {}
        self.spans = []
        self._stack = []  # per open span: [seconds spent in child spans, nearest recorded span id]
        self._next_id = 0

    def timed(self, fn, layer: str, key: str, key_of=None):
        """Wrap ``fn`` as a span named ``key`` (or ``key_of(args)``) in ``layer``."""
        calls, self_s, errors, spans, stack = (self.calls, self.self_s, self.errors,
                                               self.spans, self._stack)
        record = layer not in HOT
        perf = time.perf_counter
        self.layer_of[key] = layer

        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                it = fn(*args, **kwargs)
                calls[key] += 1
                while True:
                    frame = [0.0, stack[-1][1] if stack else None]
                    stack.append(frame)
                    t0 = perf()
                    try:
                        value = next(it)
                    except StopIteration:
                        return
                    finally:
                        dur = perf() - t0
                        stack.pop()
                        self_s[key] += dur - frame[0]
                        if stack:
                            stack[-1][0] += dur
                    yield value
            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            name = key_of(args) if key_of else key
            parent = stack[-1][1] if stack else None
            if record:
                span_id = self._next_id
                self._next_id += 1
            else:
                span_id = parent
            frame = [0.0, span_id]
            stack.append(frame)
            t0 = perf()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                errors[name] += 1
                raise
            finally:
                dur = perf() - t0
                stack.pop()
                calls[name] += 1
                self_s[name] += dur - frame[0]
                if stack:
                    stack[-1][0] += dur
                if record:
                    spans.append((span_id, parent, name, t0, t0 + dur))
        return wrapper

    def counted(self, fn, key: str, sympy_key: str = None):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[key] += 1
            if sympy_key and any(_is_sympy(a) for a in args):
                counts[sympy_key] += 1
            return fn(*args, **kwargs)
        return wrapper

    def install(self):
        """Wrap every layer's public functions and rebind them everywhere."""
        from fivevertex import linalg, ratfunc, scalars
        from fivevertex.scalars import is_inexact

        def det_kind(args):
            m = args[0]
            rows = m.data if isinstance(m, linalg.Matrix) else m
            inexact = any(is_inexact(x) for row in rows for x in row)
            return "linalg.det.complex" if inexact else "linalg.det.exact"

        wrapped = {}
        for short in MODULES:
            mod = sys.modules[f"fivevertex.{short}"]
            for name, obj in vars(mod).items():
                if name.startswith("_") or not inspect.isfunction(obj) \
                        or obj.__module__ != mod.__name__:
                    continue
                layer = _layer(short, name)
                if obj is linalg.det:
                    self.layer_of["linalg.det.exact"] = self.layer_of["linalg.det.complex"] = layer
                    wrapped[obj] = self.timed(obj, layer, "linalg.det", det_kind)
                else:
                    wrapped[obj] = self.timed(obj, layer, f"{short}.{name}")
        wrapped[scalars.is_zero] = self.counted(scalars.is_zero, "scalars.is_zero")
        wrapped[scalars.exact_div] = self.counted(scalars.exact_div, "scalars.exact_div",
                                                  "scalars.exact_div.sympy")
        for cls in (ratfunc.Poly, ratfunc.RatFunc):
            for name in RATFUNC_METHODS:
                if name not in vars(cls):
                    continue
                setattr(cls, name, self.timed(vars(cls)[name], "ratfunc",
                                              f"ratfunc.{cls.__name__}.{name}"))
        for mod_name, mod in list(sys.modules.items()):
            if mod_name != "fivevertex" and not mod_name.startswith("fivevertex."):
                continue
            for name, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrapped:
                    setattr(mod, name, wrapped[obj])

    def metrics(self) -> dict:
        """The per-layer metrics; every name is present on every workload."""
        calls, self_s = defaultdict(int), defaultdict(float)
        for key, n in self.calls.items():
            calls[self.layer_of[key]] += n
            self_s[self.layer_of[key]] += self.self_s[key]
        out = {}
        for layer in LAYERS:
            out[f"{layer}.calls"] = calls[layer]
            out[f"{layer}.self_s"] = self_s[layer]
        for key in ("linalg.det.exact", "linalg.det.complex", "identities.cauchy_rhs"):
            out[f"{key}.calls"] = self.calls[key]
            out[f"{key}.self_s"] = self.self_s[key]
        for name in ("grothendieck_eval", "dual_grothendieck_eval", "schur_eval"):
            out[f"symfunc.{name}.calls"] = self.calls[f"symfunc.{name}"]
        solves = self.calls["tasep.bethe_solve"]
        out["tasep.bethe_solve.ok_frac"] = (
            (solves - self.errors["tasep.bethe_solve"]) / solves if solves else 0.0)
        out["scalars.is_zero.calls"] = self.counts["scalars.is_zero"]
        out["scalars.exact_div.calls"] = self.counts["scalars.exact_div"]
        out["scalars.exact_div.sympy_calls"] = self.counts["scalars.exact_div.sympy"]
        out["scalars.calls"] = out["scalars.is_zero.calls"] + out["scalars.exact_div.calls"]
        return out

    def call_counts(self) -> dict:
        """Every call count, for the exact-repeat check between traced runs."""
        return {**{k: self.calls[k] for k in sorted(self.calls)},
                **{k: self.counts[k] for k in sorted(self.counts)}}

    def write(self, path):
        with open(path, "w") as fh:
            json.dump({"fields": ["id", "parent", "name", "start_s", "end_s"],
                       "spans": self.spans, "calls": self.call_counts()}, fh)
