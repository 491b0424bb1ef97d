"""Per-layer tracing of ``devrating`` from outside the package.

``Tracer`` wraps each layer's public function wherever a ``devrating``
module binds it, found by identity so that a renamed import is still
wrapped, and restores every binding on exit.  ``scipy.optimize.linprog``
(the solve layer) and the ``scipy.sparse`` module (the assembly layer)
are wrapped the same way.  A layer function that is gone, or a solver or
sparse module that ``devrating.rating`` no longer binds, raises
``TraceError`` instead of silently reporting zero.

Each call records one span (layer, operation, parent, start, end) plus
its counts.  A span's self time is its duration minus its children's.
"""
from __future__ import annotations

import functools
import sys
import time
import types

import numpy as np
import scipy.optimize
import scipy.sparse

import devrating as dr

# (defining module, function name) -> layer
LAYERS = {
    ("games", "build_game"): "games.build",
    ("gamify", "game_from_table_3p"): "games.build",
    ("cce", "cce_constraint_matrix"): "cce.matrix",
    ("rating", "deviation_rating"): "rating.engine_self",
    ("rating", "detect_active"): "rating.detect",
    ("rating", "rating_certificate"): "rating.certificate",
    ("improve", "run_improvement_loop"): "improve.loop_self",
    ("improve", "meta_game"): "improve.meta_game",
    ("improve", "lift_to_full"): "improve.lift",
    ("cce", "cce_gap"): "improve.gap",
}
COUNT_KEYS = ("ratings", "stages", "rows_frozen", "lp_calls", "simplex_iters", "lp_nnz")
SOLVE = "rating.solve"
ASSEMBLY = "rating.assembly"
LAYER_NAMES = tuple(dict.fromkeys([*LAYERS.values(), SOLVE, ASSEMBLY]))


class TraceError(RuntimeError):
    """A traced layer is no longer bound where the tracer looks for it."""


def _nnz(matrix) -> int:
    if matrix is None:
        return 0
    if scipy.sparse.issparse(matrix):
        return int(matrix.nnz)
    return int(np.count_nonzero(matrix))


def _linprog_counts(args, kwargs, res) -> dict:
    a_ub = kwargs.get("A_ub", args[1] if len(args) > 1 else None)
    a_eq = kwargs.get("A_eq", args[3] if len(args) > 3 else None)
    return {"lp_calls": 1, "simplex_iters": int(getattr(res, "nit", 0) or 0), "lp_nnz": _nnz(a_ub) + _nnz(a_eq)}


def _rating_counts(args, kwargs, result) -> dict:
    frozen = sum(len(rec.rows) for rec in result.freeze_log if rec.stage > 0)
    return {"ratings": 1, "stages": int(result.stage_count), "rows_frozen": frozen}


def _matrix_counts(args, kwargs, matrix) -> dict:
    rows, joints = matrix.values.shape
    return {"matrix_mb": rows * joints * 8 / 1e6}


COUNTS = {
    "rating.engine_self": _rating_counts,
    "cce.matrix": _matrix_counts,
    SOLVE: _linprog_counts,
}


class _SparseProxy(types.ModuleType):
    """Stands in for ``scipy.sparse`` in a ``devrating`` module; every
    callable taken from it is timed as matrix assembly."""

    def __init__(self, tracer):
        super().__init__(scipy.sparse.__name__)
        self._tracer = tracer
        self._wrapped = {}

    def __getattr__(self, name):
        value = getattr(scipy.sparse, name)
        if not callable(value):
            return value
        if name not in self._wrapped:
            self._wrapped[name] = self._tracer.wrap(ASSEMBLY, value)
        return self._wrapped[name]


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self.op = None  # identifier shared by the spans of one operation
        self._stack: list[list] = []  # [span index, child seconds]
        self._patched: list[tuple[object, str, object]] = []

    def wrap(self, layer, fn):
        counts = COUNTS.get(layer)
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = {"id": len(spans), "op": self.op, "parent": spans[stack[-1][0]]["id"] if stack else None, "layer": layer}
            spans.append(span)
            frame = [span["id"], 0.0]
            stack.append(frame)
            start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                span["start"], span["end"] = start, end
                span["self"] = (end - start) - frame[1]
                if stack:
                    stack[-1][1] += end - start
            if counts is not None:
                span.update(counts(args, kwargs, out))
            return out

        return traced

    def __enter__(self):
        modules = [m for name, m in sys.modules.items() if name == "devrating" or name.startswith("devrating.")]
        targets = {}
        for (module, name), layer in LAYERS.items():
            fn = getattr(getattr(dr, module), name, None)
            if fn is None:
                raise TraceError(f"devrating.{module}.{name} is gone; update perfbench/tracing.py")
            targets[id(fn)] = self.wrap(layer, fn)
        targets[id(scipy.optimize.linprog)] = self.wrap(SOLVE, scipy.optimize.linprog)
        targets[id(scipy.sparse)] = _SparseProxy(self)
        engine = {id(value) for value in vars(dr.rating).values()}
        for what, obj in (("scipy.optimize.linprog", scipy.optimize.linprog), ("scipy.sparse", scipy.sparse)):
            if id(obj) not in engine:
                raise TraceError(f"devrating.rating no longer binds {what}; update perfbench/tracing.py")
        for module in modules:
            for attr, value in list(vars(module).items()):
                wrapper = targets.get(id(value))
                if wrapper is not None:
                    self._patched.append((module, attr, value))
                    setattr(module, attr, wrapper)
        return self

    def __exit__(self, *exc):
        for module, attr, value in reversed(self._patched):
            setattr(module, attr, value)
        self._patched.clear()
        return False

    def totals(self) -> dict:
        """Self seconds per layer and summed counts over all spans."""
        out = {f"{layer}_s": 0.0 for layer in LAYER_NAMES}
        out.update({key: 0 for key in COUNT_KEYS}, matrix_mb=0.0)
        for span in self.spans:
            out[f"{span['layer']}_s"] += span["self"]
            for key in COUNT_KEYS:
                out[key] += span.get(key, 0)
            out["matrix_mb"] = max(out["matrix_mb"], span.get("matrix_mb", 0.0))
        return out
