"""Per-layer timings and counts, taken around calls into cliffrep's modules.

The tracer wraps public functions of cliffrep from the outside: every module
global and class attribute that refers to a wrapped function is swapped for
a wrapper while the tracer is installed, so calls are seen wherever callers
look the function up.  cliffrep's own code is not changed.

A ``_ms`` figure is inclusive wall time summed over the outermost calls of
that layer (a layer calling itself is timed once); ``_calls`` counts those
outermost calls.
"""
from __future__ import annotations

import json
import os
import sys
import time
from collections import defaultdict

from cliffrep import (cli, clifford, constructors, documents, linalg, polymat,
                      ulrich)
from cliffrep.poly import Poly
from cliffrep.reports import Report


def _count_unknowns(tracer, args, kwargs, result):
    tracer.values["clifford.intertwiner_unknowns"] += len(result[1])


def _count_cells(tracer, args, kwargs, result):
    mat = args[1]
    tracer.values["linalg.rank_cells"] += len(mat) * (len(mat[0]) if mat else 0)


def _det_size(tracer, args, kwargs, result):
    size = len(args[0])
    if size > tracer.values["polymat.det_max_size"]:
        tracer.values["polymat.det_max_size"] = size


def _corank_points(tracer, args, kwargs, result):
    tracer.values["ulrich.off_points"] += result.off_points
    tracer.values["ulrich.on_points"] += result.on_points
    tracer.values["ulrich.on_smooth"] += result.on_smooth


def _search_samples(tracer, args, kwargs, result):
    budget = kwargs["budget"] if "budget" in kwargs else args[5]
    tracer.values["constructors.samples"] += budget


def _survivor(tracer, args, kwargs, result):
    if tracer.active("constructors.search"):
        tracer.values["constructors.survivors"] += 1


# (owner, attribute names, layer, timed?, hook run after each outermost call)
_SPECS = (
    (cli, ("cli_dispatch",), "cli.dispatch", True, None),
    (documents, ("read_pencil",), "documents.read", True, None),
    (Report, ("to_json",), "reports.to_json", True, None),
    (constructors, ("hyperplane_rep", "clock_shift_rep", "gamma_quadric_rep",
                    "gamma_quadric_rep_from_form", "block_from_mf",
                    "cyclic_block_rep"), "constructors.build", True, None),
    (clifford, ("verify_relation",), "clifford.verify", True, _survivor),
    (clifford, ("det_factorization",), "clifford.det", True, None),
    (polymat, ("poly_matrix_det",), "polymat.det", True, _det_size),
    (ulrich, ("hilbert_function",), "ulrich.hilbert", True, None),
    (linalg, ("rank_field_matrix", "rank"), "linalg.rank", True, _count_cells),
    (ulrich, ("corank_sampling",), "ulrich.corank", True, _corank_points),
    (Poly, ("evaluate",), "poly.evaluate", False, None),
    (Poly, ("__mul__",), "poly.mul", False, None),
    (clifford, ("irreducibility_check",), "clifford.irreducible", True, None),
    (clifford, ("equivalence_test",), "clifford.equiv", True, None),
    (clifford, ("intertwiner_basis", "hom_space_dim"), "clifford.intertwiner",
     True, None),
    (clifford, ("intertwiner_system",), "clifford.intertwiner_system", False,
     _count_unknowns),
    (linalg, ("nullspace",), "linalg.nullspace", True, None),
    (linalg, ("mat_mul",), "linalg.mat_mul", False, None),
    (constructors, ("random_search",), "constructors.search", True,
     _search_samples),
    (linalg, ("modp_mat_pow",), "linalg.modp_pow", True, None),
)


class Tracer:
    """Wraps cliffrep's layer boundaries and sums their time and work."""

    def __init__(self):
        self.values = defaultdict(float)
        self._depth = defaultdict(int)
        self._undo = []

    def active(self, layer):
        return self._depth[layer] > 0

    def reset(self):
        self.values = defaultdict(float)

    def _wrap(self, fn, layer, timed, hook):
        depth = self._depth
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            if depth[layer]:
                return fn(*args, **kwargs)
            depth[layer] += 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                depth[layer] -= 1
                if timed:
                    self.values[layer + "_ms"] += (clock() - start) * 1000.0
            self.values[layer + "_calls"] += 1
            if hook is not None:
                hook(self, args, kwargs, result)
            return result

        return wrapper

    def install(self):
        modules = [m for name, m in sys.modules.items()
                   if m is not None and (name == "cliffrep"
                                         or name.startswith("cliffrep."))]
        for owner, names, layer, timed, hook in _SPECS:
            for name in names:
                original = owner.__dict__[name]
                wrapped = self._wrap(original, layer, timed, hook)
                if isinstance(owner, type):
                    self._swap(owner, name, wrapped)
                for module in modules:
                    for key, value in list(vars(module).items()):
                        if value is original:
                            self._swap(module, key, wrapped)

    def _swap(self, owner, key, value):
        self._undo.append((owner, key, getattr(owner, key)))
        setattr(owner, key, value)

    def uninstall(self):
        while self._undo:
            owner, key, value = self._undo.pop()
            setattr(owner, key, value)

    def snapshot(self):
        return dict(self.values)


def per_layer_units():
    """Name and unit of every per-layer metric, as BENCHMARK.json lists them."""
    path = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(
        __file__))), "BENCHMARK.json")
    with open(path, encoding="utf-8") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)["per_layer"]}


def layer_metrics(setup, passes, pass_count, overhead_pct):
    """(value, unit) per metric: set-up totals plus one pass's share."""
    units = per_layer_units()
    values = {}
    for name, unit in units.items():
        if name == "polymat.det_max_size":
            value = max(setup.get(name, 0), passes.get(name, 0))
        else:
            value = setup.get(name, 0.0) + passes.get(name, 0.0) / pass_count
        values[name] = int(round(value)) if unit == "count" else value
    on_points = values["ulrich.on_points"]
    values["ulrich.smooth_yield"] = (values["ulrich.on_smooth"] / on_points
                                     if on_points else 0.0)
    values["trace.overhead_pct"] = overhead_pct
    return {name: (value, units[name]) for name, value in values.items()}
