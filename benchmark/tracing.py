"""Spans and counts around the benchmark's calls into each weilgap layer.

The tracer is installed from outside the program: every traced public
function is replaced by a wrapper on each module attribute that holds it,
because the modules bind one another's functions through ``from .x import
f`` and look them up in their own globals.  Methods are wrapped on their
class.  Nested public calls (``decompose_gamma0`` inside
``pretend_constraints``, ``MultiplierSystem.evaluate`` inside the Eisenstein
sum, ``bareiss_echelon`` inside ``solve_pretend``) therefore get spans of
their own.

Spans are kept in memory as ``[name, start, end, parent]`` and written out
when the run ends.  A layer's self time is the time its spans cover minus
the part their child spans cover.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import math
import statistics
import sys
import time
from collections import Counter

LAYERS = ("presentation", "matrices", "characters", "multiplier", "linalg", "series", "analytic")


def _euler_phi(n: int) -> int:
    return sum(1 for d in range(1, n + 1) if math.gcd(d, n) == 1)


def _count_build(tracer, bound, gens):
    tracer.count("presentation.generators", len(gens.labels))
    tracer.count(
        "presentation.rewriting_log_tokens", sum(len(w) for w in gens.rewriting_log.values())
    )


def _count_decompose(tracer, bound, word):
    tracer.count("presentation.decompose_gamma0.tokens", len(word.tokens))


def _count_constraints(tracer, bound, cs):
    tracer.count("multiplier.pretend_constraints.rows", cs.row_count())


def _count_solve(tracer, bound, sol):
    tracer.count("multiplier.solve_pretend.kernel_dim", sol.kernel_dim)


def _count_eisenstein(tracer, bound, series):
    args = bound.arguments
    p, M = args["p"], args["M"]
    c_max = args["c_max"] if args["c_max"] is not None else 200 * p
    moduli = range(p, c_max + 1, p)
    tracer.count("series.eisenstein_multiplier_coeffs.c_moduli", len(moduli))
    tracer.count(
        "series.eisenstein_multiplier_coeffs.kloosterman_terms",
        M * sum(_euler_phi(c) for c in moduli),
    )


def _count_fourier(tracer, bound, series):
    M = bound.arguments["M"]
    tracer.count("series.coeffs_via_fourier_extraction.nodes", max(4 * M, 64))


# (module, attribute or Class.method, counter hook run on the result)
TRACED = (
    ("presentation", "build_presentation", _count_build),
    ("presentation", "decompose_gamma0", _count_decompose),
    ("presentation", "compute_Q", None),
    ("presentation", "abelianize", None),
    ("matrices", "decompose_sl2", None),
    ("characters", "DirichletChar.angle", None),
    ("multiplier", "pretend_constraints", _count_constraints),
    ("multiplier", "solve_pretend", _count_solve),
    ("multiplier", "char_multiplier", None),
    ("multiplier", "MultiplierSystem.evaluate", None),
    ("linalg", "bareiss_echelon", None),
    ("linalg", "nullspace", None),
    ("series", "delta_coeffs", None),
    ("series", "delta_delta_p", None),
    ("series", "multiply", None),
    ("series", "twisted_kloosterman", None),
    ("series", "eisenstein_multiplier_coeffs", _count_eisenstein),
    ("series", "coeffs_via_fourier_extraction", _count_fourier),
    ("series", "CoeffSeries.eval_many", None),
    ("series", "CoeffSeries.tail_bound", None),
    ("analytic", "check_fe_additive", None),
    ("analytic", "lambda_additive", None),
    ("analytic", "upper_incomplete_gamma", None),
    ("analytic", "check_modular_relation", None),
    ("analytic", "certify_modularity", None),
    ("analytic", "check_fe_multiplicative", None),
)

# The per-layer metrics a traced run reports, with their units; the
# per_layer list of BENCHMARK.json is this table.
PER_LAYER = (
    ("presentation.build_presentation.busy_s", "s"),
    ("presentation.build_presentation.self_s", "s"),
    ("presentation.generators", "count"),
    ("presentation.rewriting_log_tokens", "count"),
    ("presentation.decompose_gamma0.calls", "count"),
    ("presentation.decompose_gamma0.busy_s", "s"),
    ("presentation.decompose_gamma0.p50_ms", "ms"),
    ("presentation.decompose_gamma0.p90_ms", "ms"),
    ("presentation.decompose_gamma0.tokens", "count"),
    ("matrices.decompose_sl2.calls", "count"),
    ("matrices.decompose_sl2.busy_s", "s"),
    ("multiplier.pretend_constraints.busy_s", "s"),
    ("multiplier.pretend_constraints.rows", "count"),
    ("multiplier.solve_pretend.busy_s", "s"),
    ("multiplier.solve_pretend.kernel_dim", "count"),
    ("linalg.bareiss_echelon.calls", "count"),
    ("linalg.bareiss_echelon.busy_s", "s"),
    ("linalg.nullspace.busy_s", "s"),
    ("multiplier.MultiplierSystem.evaluate.calls", "count"),
    ("multiplier.MultiplierSystem.evaluate.busy_s", "s"),
    ("multiplier.MultiplierSystem.evaluate.p50_us", "us"),
    ("multiplier.MultiplierSystem.evaluate.p90_us", "us"),
    ("characters.DirichletChar.angle.calls", "count"),
    ("characters.DirichletChar.angle.busy_s", "s"),
    ("series.delta_coeffs.busy_s", "s"),
    ("series.delta_delta_p.busy_s", "s"),
    ("series.multiply.calls", "count"),
    ("series.multiply.busy_s", "s"),
    ("series.eisenstein_multiplier_coeffs.busy_s", "s"),
    ("series.eisenstein_multiplier_coeffs.c_moduli", "count"),
    ("series.eisenstein_multiplier_coeffs.kloosterman_terms", "count"),
    ("series.eisenstein_multiplier_coeffs.error_bound", "abs"),
    ("series.coeffs_via_fourier_extraction.busy_s", "s"),
    ("series.coeffs_via_fourier_extraction.nodes", "count"),
    ("series.coeffs_via_fourier_extraction.dps", "digits"),
    ("series.coeffs_via_fourier_extraction.horner_terms", "count"),
    ("series.coeffs_via_fourier_extraction.error_bound", "abs"),
    ("series.CoeffSeries.eval_many.calls", "count"),
    ("series.CoeffSeries.eval_many.busy_s", "s"),
    ("series.CoeffSeries.tail_bound.calls", "count"),
    ("series.CoeffSeries.tail_bound.busy_s", "s"),
    ("analytic.check_fe_additive.calls", "count"),
    ("analytic.check_fe_additive.busy_s", "s"),
    ("analytic.lambda_additive.calls", "count"),
    ("analytic.lambda_additive.busy_s", "s"),
    ("analytic.upper_incomplete_gamma.calls", "count"),
    ("analytic.certify_modularity.busy_s", "s"),
    ("analytic.check_fe_multiplicative.busy_s", "s"),
    ("analytic.relative_defect_max", "rel"),
    ("analytic.window_error_max", "rel"),
    ("analytic.quadrature_error_max", "rel"),
    ("analytic.truncation_max", "abs"),
) + tuple((f"{layer}.self_s", "s") for layer in LAYERS) + (
    ("unattributed.self_s", "s"),
    ("trace.spans", "count"),
    ("trace.traced_time_to_result_s", "s"),
    ("trace.untraced_time_to_result_s", "s"),
    ("trace.overhead_s", "s"),
)


class Tracer:
    """In-memory spans and counts; records only while ``active``."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.counts: Counter = Counter()
        self.active = False
        self._stack: list[int] = []

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent])
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._stack.pop()

    def count(self, name: str, n: int = 1) -> None:
        if self.active:
            self.counts[name] += n

    def record_max(self, name: str, value: float) -> None:
        if self.active:
            self.counts[name] = max(self.counts.get(name, value), value)

    def call(self, name: str, fn, *args, **kwargs):
        """Run fn inside a span named name (used from the benchmark's own code)."""
        if not self.active:
            return fn(*args, **kwargs)
        index = self.open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self.close(index)


def _wrap(tracer: Tracer, name: str, fn, hook):
    signature = inspect.signature(fn) if hook is not None else None

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if not tracer.active:
            return fn(*args, **kwargs)
        index = tracer.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(index)
        if hook is not None:
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            hook(tracer, bound, result)
        return result

    return wrapper


def install(tracer: Tracer) -> None:
    """Wrap every TRACED function wherever weilgap looks it up."""
    modules = [m for n, m in list(sys.modules.items()) if n == "weilgap" or n.startswith("weilgap.")]
    for module_name, attr, hook in TRACED:
        module = importlib.import_module(f"weilgap.{module_name}")
        name = f"{module_name}.{attr}"
        if "." in attr:
            cls_name, method = attr.split(".")
            cls = getattr(module, cls_name)
            setattr(cls, method, _wrap(tracer, name, cls.__dict__[method], hook))
            continue
        original = getattr(module, attr)
        wrapper = _wrap(tracer, name, original, hook)
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapper)


def _percentile(values: list[float], q: int) -> float:
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def summarize(tracer: Tracer, total_s: float) -> dict:
    """Per-function calls/busy/self, per-layer self time and the span tree.

    total_s is the traced job's wall time; time inside it that no span
    covers is reported as unattributed (the benchmark's own glue).
    """
    spans = tracer.spans
    child_time = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child_time[parent] += end - start
    calls: Counter = Counter()
    busy: Counter = Counter()
    own: Counter = Counter()
    durations: dict[str, list[float]] = {}
    tree: dict[tuple, list] = {}
    paths: list[tuple] = []
    for i, (name, start, end, parent) in enumerate(spans):
        dur = end - start
        self_s = dur - child_time[i]
        calls[name] += 1
        busy[name] += dur
        own[name] += self_s
        durations.setdefault(name, []).append(dur)
        path = (paths[parent] if parent >= 0 else ()) + (name,)
        paths.append(path)
        node = tree.setdefault(path, [0, 0.0, 0.0])
        node[0] += 1
        node[1] += dur
        node[2] += self_s
    layer_self = {layer: 0.0 for layer in LAYERS}
    for name, value in own.items():
        layer_self[name.split(".")[0]] += value
    top = sum(end - start for name, start, end, parent in spans if parent < 0)
    return {
        "calls": calls,
        "busy": busy,
        "self": own,
        "durations": durations,
        "layer_self": layer_self,
        "unattributed": total_s - top,
        "tree": [(path, *node) for path, node in tree.items()],
    }


def per_layer_metrics(summary: dict, counts: Counter, budget: dict,
                      traced_s: float, untraced_s: float, n_spans: int) -> dict:
    """Fill every PER_LAYER metric; layers a workload does not use read 0."""
    calls, busy, own, durations = summary["calls"], summary["busy"], summary["self"], summary["durations"]
    values: dict[str, float] = {}
    for metric, unit in PER_LAYER:
        head, _, quantity = metric.rpartition(".")
        if metric in counts:
            values[metric] = counts[metric]
        elif metric in budget:
            values[metric] = budget[metric]
        elif quantity == "calls":
            values[metric] = calls[head]
        elif quantity == "busy_s":
            values[metric] = busy[head]
        elif quantity == "self_s" and head in LAYERS:
            values[metric] = summary["layer_self"][head]
        elif quantity == "self_s" and head in calls:
            values[metric] = own[head]
        elif quantity in ("p50_ms", "p90_ms", "p50_us", "p90_us"):
            scale = 1e3 if quantity.endswith("ms") else 1e6
            values[metric] = _percentile(durations.get(head, []), int(quantity[1:3])) * scale
        else:
            values[metric] = 0
    values["unattributed.self_s"] = summary["unattributed"]
    values["trace.spans"] = n_spans
    values["trace.traced_time_to_result_s"] = traced_s
    values["trace.untraced_time_to_result_s"] = untraced_s
    values["trace.overhead_s"] = traced_s - untraced_s
    return {metric: {"value": values[metric], "unit": unit} for metric, unit in PER_LAYER}


def format_tree(tree: list, total_s: float) -> list[str]:
    """Indented span tree: calls, busy and self seconds per call path.

    Paths under 0.1% of the job's time are left out.
    """
    lines = [f"{'span':<64} {'calls':>8} {'busy_s':>9} {'self_s':>9}"]
    first = {entry[0]: i for i, entry in enumerate(tree)}
    # depth-first order: each path sorts by the first appearance of its prefixes
    ordered = sorted(tree, key=lambda e: tuple(first[e[0][: i + 1]] for i in range(len(e[0]))))
    for path, n, dur, self_s in ordered:
        if dur < 0.001 * total_s:
            continue
        label = "  " * (len(path) - 1) + path[-1]
        lines.append(f"{label:<64} {n:>8} {dur:>9.3f} {self_s:>9.3f}")
    return lines
