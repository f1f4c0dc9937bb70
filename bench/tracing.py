"""Spans and per-layer counters, recorded from outside the program.

``Tracer.install()`` replaces every public function of every ``nhtopo``
module with a timing wrapper, in every namespace that holds a reference
(``nhtopo.cli.band_invariant`` as well as ``nhtopo.winding.band_invariant``),
and wraps the factorizing entry points of ``numpy.linalg``.  A layer is a
module of ``src/nhtopo``; time inside ``numpy.linalg`` is charged to the
layer that called it as ``<layer>.linalg_s``.  ``uninstall()`` restores the
originals, so untraced and traced passes can alternate in one process.

Each span is (id, parent id, name, layer, parent layer, start, end,
request, error).  A request is one top-level CLI command.  Spans opened on a worker thread of
the CLI's pool with nothing open on that thread take the innermost span of
the installing thread as parent.  Spans stay in memory until ``write``.
"""

from __future__ import annotations

import functools
import hashlib
import inspect
import itertools
import json
import os
import sys
import threading
import types
from collections import Counter
from time import perf_counter

import numpy as np
import numpy.linalg

PACKAGE = "nhtopo"
LINALG_ENTRY_POINTS = (
    "cholesky", "cond", "det", "eig", "eigh", "eigvals", "eigvalsh", "inv", "lstsq",
    "matrix_power", "matrix_rank", "pinv", "qr", "slogdet", "solve", "svd", "svdvals",
    "tensorinv", "tensorsolve",
)
EIGENSOLVERS = ("eig", "eigh", "eigvals", "eigvalsh")
# invariant calls whose per-call latency is reported as winding.point_*_ms
POINT_CALLS = ("nhtopo.winding.band_invariant", "nhtopo.winding.state_invariant")


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.counters: Counter = Counter()
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._root_stack: list = []
        self._patches: list = []
        self._request = 0
        self._decomposed: set = set()

    # -- recording ---------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, fn, name: str, layer: str, hook=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            outer = stack or tracer._root_stack
            parent, parent_layer = outer[-1] if outer else (None, None)
            if layer == "cli" and not outer:
                tracer._new_request()
            sid = next(tracer._ids)
            stack.append((sid, layer))
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                end = perf_counter()
                stack.pop()
                # count an exception once per layer, where it first leaves it
                layers = exc.__dict__.setdefault("_traced_layers", set())
                tracer._record(sid, parent, name, layer, parent_layer, start, end, layer not in layers)
                layers.add(layer)
                raise
            end = perf_counter()
            stack.pop()
            tracer._record(sid, parent, name, layer, parent_layer, start, end, False)
            if hook is not None:
                hook(args, kwargs, result, parent_layer)
            return result

        return wrapper

    def _record(self, sid, parent, name, layer, parent_layer, start, end, error):
        self.spans.append((sid, parent, name, layer, parent_layer, start, end, self._request, error))
        self.counters[f"{name}.calls"] += 1

    def _new_request(self):
        self._request += 1
        self._decomposed.clear()

    # -- hooks: counts taken at the same boundaries as the spans -----------

    def _hooks(self):
        winding_sig = inspect.signature(sys.modules[PACKAGE + ".winding"].winding_number)

        def lattice(args, kwargs, result, _):
            self.counters["model.lattice_bytes"] += int(result.nbytes)

        def winding(args, kwargs, result, _):
            bound = winding_sig.bind(*args, **kwargs)
            bound.apply_defaults()
            self.counters["winding.grid_points"] += result.grid_size
            self.counters["winding.refined"] += result.grid_size != bound.arguments["grid_size"]

        def biortho(args, kwargs, result, _):
            h = np.ascontiguousarray(args[0] if args else kwargs["h"])
            digest = hashlib.blake2b(h.tobytes(), digest_size=16).digest() + str(h.shape).encode()
            self.counters["biortho.repeats"] += digest in self._decomposed
            self._decomposed.add(digest)

        def load(args, kwargs, result, _):
            self.counters["matrixio.bytes_read"] += os.path.getsize(args[0] if args else kwargs["path"])

        return {
            "nhtopo.model.lattice_hamiltonian": lattice,
            "nhtopo.winding.winding_number": winding,
            "nhtopo.biortho.biorthogonal_eig": biortho,
            "nhtopo.matrixio.load": load,
        }

    def _linalg_hook(self, fname):
        def hook(args, kwargs, result, parent_layer):
            if fname in EIGENSOLVERS and parent_layer:
                shape = np.shape(args[0] if args else kwargs["a"])
                self.counters[f"{parent_layer}.eig_n3"] += int(np.prod(shape[:-2], dtype=np.int64)) * shape[-1] ** 3
        return hook

    # -- patching ----------------------------------------------------------

    def install(self) -> None:
        """Wrap the package's public functions and numpy.linalg entry points."""
        if self._patches:
            return
        self._root_stack = self._stack()
        hooks = self._hooks()
        wrappers = {}
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == PACKAGE or n.startswith(PACKAGE + "."))]
        for module in modules:
            for attr, obj in list(vars(module).items()):
                if not (isinstance(obj, types.FunctionType) and obj.__module__.startswith(PACKAGE + ".")
                        and not obj.__name__.startswith("_")):
                    continue
                if obj not in wrappers:
                    name = f"{obj.__module__}.{obj.__name__}"
                    layer = obj.__module__.split(".")[1]
                    wrappers[obj] = self._wrap(obj, name, layer, hooks.get(name))
                self._patches.append((module, attr, obj))
                setattr(module, attr, wrappers[obj])
        for fname in LINALG_ENTRY_POINTS:
            original = getattr(numpy.linalg, fname)
            self._patches.append((numpy.linalg, fname, original))
            setattr(numpy.linalg, fname,
                    self._wrap(original, f"numpy.linalg.{fname}", "linalg", self._linalg_hook(fname)))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()

    # -- results -----------------------------------------------------------

    def write(self, path: str) -> None:
        """Write every span as one JSON array per line, times in seconds."""
        t0 = min((span[5] for span in self.spans), default=0.0)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write('["id", "parent", "name", "layer", "parent_layer", "start", "end", "request", "error"]\n')
            for sid, parent, name, layer, player, start, end, req, err in self.spans:
                fh.write(json.dumps([sid, parent, name, layer, player,
                                     round(start - t0, 9), round(end - t0, 9), req, err]) + "\n")


def _covered(intervals) -> float:
    """Length of the union of (start, end) intervals."""
    total, reach = 0.0, float("-inf")
    for start, end in sorted(intervals):
        if end > reach:
            total += end - max(start, reach)
            reach = end
    return total


# Per-layer metrics of a traced run, with their units.  BENCHMARK.json lists
# the same names; run.py adds cli.bytes_out, trace.overhead_s, fail_frac and
# oracle_miss_frac, which are not measured from spans.
SPAN_METRICS = {
    "cli.self_s": "s",
    "model.self_s": "s",
    "model.lattice_hamiltonian.calls": "count",
    "model.lattice_bytes": "bytes",
    "effective.self_s": "s",
    "effective.linalg_s": "s",
    "effective.effective_spectrum.calls": "count",
    "effective.density_profile.calls": "count",
    "effective.state_components.calls": "count",
    "effective.eig_n3": "count",
    "effective.errors": "count",
    "winding.self_s": "s",
    "winding.linalg_s": "s",
    "winding.winding_number.calls": "count",
    "winding.grid_points": "count",
    "winding.refined_frac": "ratio",
    "winding.point_p50_ms": "ms",
    "winding.point_p99_ms": "ms",
    "winding.errors": "count",
    "statmech.self_s": "s",
    "statmech.linalg_s": "s",
    "statmech.solve_metric.calls": "count",
    "statmech.theorem3_check.calls": "count",
    "statmech.errors": "count",
    "biortho.self_s": "s",
    "biortho.linalg_s": "s",
    "biortho.biorthogonal_eig.calls": "count",
    "biortho.repeat_frac": "ratio",
    "symmetry.self_s": "s",
    "symmetry.build_report.calls": "count",
    "matrixio.self_s": "s",
    "matrixio.bytes_read": "bytes",
    "trace.spans": "count",
}


def layer_metrics(spans, counters) -> dict:
    """SPAN_METRICS of one traced pass, from its spans and counters only."""
    children: dict = {}
    for span in spans:
        children.setdefault(span[1], []).append((span[5], span[6]))
    out = Counter(counters)
    point_ms = []
    for sid, parent, name, layer, parent_layer, start, end, _, error in spans:
        if layer == "linalg":
            if parent_layer:
                out[f"{parent_layer}.linalg_s"] += end - start
            continue
        out[f"{layer}.self_s"] += (end - start) - _covered(children.get(sid, ()))
        out[f"{layer}.errors"] += error
        if name in POINT_CALLS:
            point_ms.append(1e3 * (end - start))
    for key, value in counters.items():
        if key.startswith(PACKAGE + "."):
            out[key[len(PACKAGE) + 1:]] = value
    calls = out["winding.winding_number.calls"]
    out["winding.refined_frac"] = out["winding.refined"] / calls if calls else 0.0
    calls = out["biortho.biorthogonal_eig.calls"]
    out["biortho.repeat_frac"] = out["biortho.repeats"] / calls if calls else 0.0
    if point_ms:
        out["winding.point_p50_ms"], out["winding.point_p99_ms"] = np.percentile(point_ms, [50, 99])
    out["trace.spans"] = len(spans)
    return {name: float(out[name]) for name in SPAN_METRICS}
