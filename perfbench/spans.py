"""Span tracer for the traced benchmark run.

The traced run wraps infalex's public functions from outside the package:
each wrapped call records one span (layer name, start, end, parent span) in
flat in-memory arrays.  Nothing is written until the run ends.  Self time of
a span is its duration minus the durations of its child spans; calls are
single-threaded, so children nest strictly inside their parent.

Layer names follow ``<module>.<function>``; the per-layer metrics are
``<layer>.calls`` and ``<layer>.self_s`` for every entry of ``LAYERS`` plus
the few work counters in ``COUNTERS``.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from array import array

# (layer name, infalex module, attribute path of the wrapped callable)
LAYERS = (
    ("exact_linalg.echelon_add", "exact_linalg", "EchelonBasis.add"),
    ("exact_linalg.echelon_reduce", "exact_linalg", "EchelonBasis.reduce"),
    ("exact_linalg.rank", "exact_linalg", "RationalMatrix.rank"),
    # kernel_basis delegates to kernel_basis_with_free, which johnson also
    # calls directly: wrapping the latter counts every kernel exactly once
    ("exact_linalg.kernel_basis", "exact_linalg", "RationalMatrix.kernel_basis_with_free"),
    ("exact_linalg.matvec", "exact_linalg", "RationalMatrix.matvec"),
    ("exact_linalg.matmul", "exact_linalg", "RationalMatrix.matmul"),
    ("exact_linalg.cyclotomic_mul", "exact_linalg", "CyclotomicScalar.__mul__"),
    ("exact_linalg.cyclotomic_inverse", "exact_linalg", "CyclotomicScalar.inverse"),
    ("alex_module.coker_dims", "alex_module", "coker_dims"),
    ("alex_module.weighted_rank", "alex_module", "_weighted_rank"),
    ("alex_module.instantiate", "alex_module", "GradedMap.instantiate"),
    ("alex_module.coker_multiplication_action", "alex_module", "coker_multiplication_action"),
    ("rep_semisimple.fundamental_module", "rep_semisimple", "fundamental_module"),
    ("rep_semisimple.wedge_power", "rep_semisimple", "wedge_power"),
    ("rep_semisimple.casimir_blocks", "rep_semisimple", "casimir_blocks"),
    ("rep_semisimple.highest_weight_vectors", "rep_semisimple", "highest_weight_vectors"),
    ("rep_semisimple.dense_block_polynomial", "rep_semisimple", "_dense_block_polynomial"),
    ("johnson.context", "johnson", "johnson_context"),
    ("johnson.q_map", "johnson", "JohnsonContext.q_map"),
    ("johnson.weight_data", "johnson", "JohnsonContext.weight_data"),
    ("quad_lie.bb_direct", "quad_lie", "bb_direct"),
    ("quad_lie.ideal", "quad_lie", "_ideal_echelon"),
    ("free_lie.basis_bracket", "free_lie", "basis_bracket"),
    ("free_lie.ad_generator_matrix", "free_lie", "ad_generator_matrix"),
    ("nilpotent_transport.exp_transport", "nilpotent_transport", "exp_transport"),
    ("nilpotent_transport.log_transport", "nilpotent_transport", "log_transport"),
    ("nilpotent_transport.annihilator_exponent_match", "nilpotent_transport",
     "annihilator_exponent_match"),
    ("fox_alex.alexander_matrix", "fox_alex", "alexander_matrix"),
    ("fox_alex.evaluate", "fox_alex", "LaurentMatrix.evaluate"),
    ("fox_alex.twisted_h1_dim", "fox_alex", "twisted_h1_dim"),
    ("fox_alex.torsion_sweep", "fox_alex", "torsion_sweep"),
)


def _count_useful(counters, result, args):
    # a count of adds that grew the rank; metrics() divides it by all adds
    counters["exact_linalg.echelon_add.useful_ratio"] += bool(result)


def _count_instantiated(counters, result, args):
    counters["alex_module.instantiate.columns"] += result.cols
    counters["alex_module.instantiate.nnz"] += len(result.entries)


def _count_sweep(counters, result, args):
    presentation, order = args[0], args[1]
    counters["fox_alex.torsion_sweep.characters"] += order ** presentation.num_generators
    counters["fox_alex.torsion_sweep.members"] += len(result)


# layer -> observer of (result, positional args) feeding the work counters
OBSERVERS = {
    "exact_linalg.echelon_add": _count_useful,
    "alex_module.instantiate": _count_instantiated,
    "fox_alex.torsion_sweep": _count_sweep,
}

# work counters: name -> (unit, better)
COUNTERS = {
    "exact_linalg.echelon_add.useful_ratio": ("ratio", "higher"),
    "alex_module.instantiate.columns": ("count", "lower"),
    "alex_module.instantiate.nnz": ("count", "lower"),
    "fox_alex.torsion_sweep.characters": ("count", "lower"),
    "fox_alex.torsion_sweep.members": ("count", "higher"),
}

ROOT_SPAN = "bench.item"

# Bypass check.  "work": layers that must record spans on the workload;
# "idle": layer-name prefixes that must record none, because the workload
# is predicted to do no work there.
EXPECTED = {
    "johnson-g4": {
        "work": ["exact_linalg.echelon_add", "exact_linalg.kernel_basis",
                 "alex_module.coker_dims", "alex_module.weighted_rank",
                 "rep_semisimple.fundamental_module", "rep_semisimple.wedge_power",
                 "rep_semisimple.casimir_blocks", "rep_semisimple.highest_weight_vectors",
                 "rep_semisimple.dense_block_polynomial",
                 "johnson.context", "johnson.q_map", "johnson.weight_data"],
        "idle": ["exact_linalg.cyclotomic_", "alex_module.instantiate",
                 "alex_module.coker_multiplication_action", "quad_lie.", "free_lie.",
                 "nilpotent_transport.", "fox_alex."],
    },
    "bb-direct": {
        "work": ["quad_lie.bb_direct", "quad_lie.ideal", "free_lie.basis_bracket",
                 "free_lie.ad_generator_matrix", "exact_linalg.echelon_add",
                 "exact_linalg.echelon_reduce", "exact_linalg.matvec"],
        "idle": ["exact_linalg.cyclotomic_", "alex_module.coker_multiplication_action",
                 "rep_semisimple.", "johnson.", "nilpotent_transport.", "fox_alex."],
    },
    "bb-nabla": {
        "work": ["alex_module.coker_dims", "alex_module.instantiate",
                 "alex_module.coker_multiplication_action", "exact_linalg.echelon_add",
                 "exact_linalg.echelon_reduce", "exact_linalg.rank", "exact_linalg.matmul",
                 "nilpotent_transport.exp_transport", "nilpotent_transport.log_transport",
                 "nilpotent_transport.annihilator_exponent_match"],
        "idle": ["exact_linalg.cyclotomic_", "alex_module.weighted_rank", "quad_lie.",
                 "free_lie.", "rep_semisimple.", "johnson.", "fox_alex."],
    },
    "cv-torsion": {
        "work": ["fox_alex.alexander_matrix", "fox_alex.evaluate", "fox_alex.twisted_h1_dim",
                 "fox_alex.torsion_sweep", "exact_linalg.cyclotomic_mul",
                 "exact_linalg.cyclotomic_inverse", "exact_linalg.rank",
                 "exact_linalg.echelon_add"],
        "idle": ["alex_module.", "quad_lie.", "free_lie.", "rep_semisimple.", "johnson.",
                 "nilpotent_transport."],
    },
}


def layer_metric_names() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every per-layer metric the traced run reports."""
    out = []
    for layer, _module, _attr in LAYERS:
        out.append((f"{layer}.calls", "count", "lower"))
        out.append((f"{layer}.self_s", "s", "lower"))
    out.extend((name, unit, better) for name, (unit, better) in COUNTERS.items())
    out.extend([("trace.wall_s", "s", "lower"),
                ("trace.untraced_wall_s", "s", "lower"),
                ("trace.overhead_s", "s", "lower"),
                ("trace.spans", "count", "lower")])
    return out


class Tracer:
    """Records spans of the wrapped infalex callables while installed."""

    def __init__(self):
        self.names: list[str] = [ROOT_SPAN] + [layer for layer, _m, _a in LAYERS]
        self.name_id = array("H")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.counters = {name: 0 for name in COUNTERS}
        self._restore: list[tuple[object, str, object]] = []

    # -- recording ------------------------------------------------------------

    def _open(self, nid: int) -> int:
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1])
        self.start.append(0.0)
        self.end.append(0.0)
        self._stack.append(idx)
        return idx

    def _wrap(self, nid: int, fn, observe):
        open_span, stack, start, end = self._open, self._stack, self.start, self.end
        counters, clock = self.counters, time.perf_counter

        def traced(*args, **kwargs):
            idx = open_span(nid)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                start[idx] = t0
                end[idx] = t1
            if observe is not None:
                observe(counters, result, args)
            return result

        return traced

    def item(self, fn, *args):
        """Call fn(*args) under a root span, so every item's spans share one root."""
        return self._wrap(0, fn, None)(*args)

    # -- installing the wrappers ------------------------------------------------

    def install(self):
        infalex_modules = [m for name, m in sys.modules.items()
                           if name == "infalex" or name.startswith("infalex.")]
        for nid, (layer, module_name, attr) in enumerate(LAYERS, start=1):
            owner = importlib.import_module(f"infalex.{module_name}")
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part)
            original = getattr(owner, leaf)
            wrapped = self._wrap(nid, original, OBSERVERS.get(layer))
            # rebind every alias: __rmul__ = __mul__ on a class, and names
            # imported with "from .module import f" in other modules
            holders = [owner] if path else infalex_modules
            for holder in holders:
                for key, value in list(vars(holder).items()):
                    if value is original:
                        self._restore.append((holder, key, original))
                        setattr(holder, key, wrapped)

    def uninstall(self):
        for holder, key, original in reversed(self._restore):
            setattr(holder, key, original)
        self._restore.clear()

    # -- results ------------------------------------------------------------------

    def layer_stats(self) -> dict[str, tuple[int, float]]:
        """layer -> (calls, self seconds) over every recorded span."""
        n = len(self.start)
        start, end, parent, name_id = self.start, self.end, self.parent, self.name_id
        child = array("d", bytes(8 * n))
        for i in range(n):
            p = parent[i]
            if p >= 0:
                child[p] += end[i] - start[i]
        calls = [0] * len(self.names)
        self_s = [0.0] * len(self.names)
        for i in range(n):
            k = name_id[i]
            calls[k] += 1
            self_s[k] += end[i] - start[i] - child[i]
        return {name: (calls[k], self_s[k]) for k, name in enumerate(self.names)}

    def metrics(self, stats: dict[str, tuple[int, float]]) -> dict[str, float]:
        """Per-layer metric values from layer_stats() and the work counters."""
        out: dict[str, float] = {}
        for layer, _m, _a in LAYERS:
            calls, self_s = stats[layer]
            out[f"{layer}.calls"] = calls
            out[f"{layer}.self_s"] = self_s
        out.update(self.counters)
        adds = stats["exact_linalg.echelon_add"][0]
        useful = "exact_linalg.echelon_add.useful_ratio"
        out[useful] = out[useful] / adds if adds else 0.0
        return out

    def write(self, path):
        """Spans as one JSON header line followed by the raw arrays."""
        header = {"names": self.names, "spans": len(self.start),
                  "arrays": [["name_id", "H"], ["parent", "i"], ["start", "d"], ["end", "d"]],
                  "byteorder": sys.byteorder}
        with open(path, "wb") as f:
            f.write(json.dumps(header).encode() + b"\n")
            for arr in (self.name_id, self.parent, self.start, self.end):
                arr.tofile(f)


def bypass_problems(workload: str, stats: dict[str, tuple[int, float]]) -> list[str]:
    """Layers without spans where work is predicted, and spans where none is."""
    expected = EXPECTED[workload]
    problems = [f"no spans in {layer}" for layer in expected["work"] if not stats[layer][0]]
    for layer, (calls, _s) in stats.items():
        if calls and any(layer.startswith(prefix) for prefix in expected["idle"]):
            problems.append(f"{calls} unexpected spans in {layer}")
    return problems
