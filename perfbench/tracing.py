"""Spans and work counters around the public functions of lowdisc, installed
from outside the package by rebinding module attributes.

Each wrapped call records a span [name, start, end, parent index] in memory.
A layer's self time is the sum over its spans of the duration minus the
time covered by child spans.  Counters are updated at the same boundaries
from arguments and return values; each is labelled "exact" (read from what
the program returned or wrote) or "computed" (derived by the benchmark from
the inputs of a call).
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from collections import defaultdict

import numpy as np

from lowdisc.quality import BudgetError

CRITERIA = range(1, 12)

# function -> metric that receives its spans' self time; None traces the
# function only so that its own time is not charged to its caller
TIMED = {
    "cli.main": "cli.self_s",
    "pointsets.lattice_points": "pointsets.construct_s",
    "pointsets.kronecker": "pointsets.construct_s",
    "pointsets.halton": "pointsets.construct_s",
    "pointsets.hybrid": "pointsets.construct_s",
    "pointsets.digital_points": "pointsets.construct_s",
    "pointsets.digital_net": "pointsets.construct_s",
    "pointsets.niederreiter_net": "pointsets.construct_s",
    "pointsets.polynomial_lattice": "pointsets.construct_s",
    "pointsets.niederreiter_matrices": "pointsets.matrices_s",
    "pointsets.polynomial_lattice_matrices": "pointsets.matrices_s",
    "pointsets.pointset_to_csv": "pointsets.csv_render_s",
    "pointsets.pointset_from_csv": "pointsets.csv_parse_s",
    "algebra.laurent_expand": "algebra.laurent_s",
    "algebra.nullspace_mod_p": "algebra.nullspace_s",
    "quality.minimal_t_geometric": "quality.t_geometric_s",
    "quality.net_property": "quality.t_geometric_s",
    "quality.minimal_t_dual": "quality.t_dual_s",
    "quality.dual_space": "quality.t_dual_s",
    "quality.star_discrepancy": "quality.star_s",
    "quality.sampled_deviation_lower_bound": "quality.sampled_bound_s",
    "quality.p_alpha": "quality.p2_s",
    "quality.p2_dual_sum": "quality.p2_s",
    "quality.assess": None,
    "factorizer.factor": "factorizer.factor_s",
    "generators.audit_bound": "generators.audit_s",
    "diophantine.zaremba_table": "diophantine.zaremba_s",
    "diophantine.zaremba_search": "diophantine.zaremba_s",
    "permutations.fb_sweep": "permutations.check_s",
    "permutations.is_complete_mapping": "permutations.check_s",
    "permutations.detection_report": "permutations.check_s",
    "permutations.isbn10_weighted_sum": "permutations.check_s",
    "acceptance.run_criterion": None,  # inclusive time goes to acceptance.c<n>_s
}

# per-layer metric -> (unit, label); timings are self time except
# acceptance.c<n>_s, which is the criterion's whole span
LAYER_METRICS = {
    "cli.self_s": ("s", "exact"),
    "cli.artifact_bytes": ("bytes", "exact"),
    "pointsets.construct_s": ("s", "exact"),
    "pointsets.points_built": ("count", "exact"),
    "pointsets.matrices_s": ("s", "exact"),
    "pointsets.csv_render_s": ("s", "exact"),
    "pointsets.csv_parse_s": ("s", "exact"),
    "pointsets.csv_bytes": ("bytes", "exact"),
    "algebra.laurent_s": ("s", "exact"),
    "algebra.laurent_calls": ("count", "exact"),
    "algebra.nullspace_s": ("s", "exact"),
    "algebra.nullspace_calls": ("count", "exact"),
    "quality.t_geometric_s": ("s", "exact"),
    "quality.net_property_calls": ("count", "exact"),
    "quality.t_levels_failed": ("count", "exact"),
    "quality.t_dual_s": ("s", "exact"),
    "quality.dual_vectors": ("count", "exact"),
    "quality.dual_refused": ("count", "exact"),
    "quality.dual_useful_frac": ("fraction", "exact"),
    "quality.star_s": ("s", "exact"),
    "quality.star_calls": ("count", "exact"),
    "quality.star_corners": ("count", "computed"),
    "quality.star_refused": ("count", "exact"),
    "quality.sampled_bound_s": ("s", "exact"),
    "quality.sample_compares": ("count", "computed"),
    "quality.p2_s": ("s", "exact"),
    "quality.p2_dual_terms": ("count", "computed"),
    "factorizer.factor_s": ("s", "exact"),
    "factorizer.calls": ("count", "exact"),
    "generators.audit_s": ("s", "exact"),
    "generators.audit_checks": ("count", "exact"),
    "diophantine.zaremba_s": ("s", "exact"),
    "diophantine.search_calls": ("count", "exact"),
    "permutations.check_s": ("s", "exact"),
    "permutations.calls": ("count", "exact"),
    **{f"acceptance.c{cid}_s": ("s", "exact") for cid in CRITERIA},
    "acceptance.budget_headroom_min": ("fraction", "exact"),
    "trace.overhead_s": ("s", "exact"),
}

_CONSTRUCT = {k for k, v in TIMED.items() if v == "pointsets.construct_s"}


def _arg(fn, args, kwargs, name):
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments[name]


class Tracer:
    """Installs wrappers on lowdisc's modules and keeps spans and counters."""

    def __init__(self):
        self.spans: list[list] = []
        self.counters: dict[str, float] = defaultdict(float)
        self.star_inputs = []  # point sets of completed star sweeps
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        owners = {q: importlib.import_module("lowdisc." + q.split(".")[0]) for q in TIMED}
        modules = [m for n, m in sys.modules.items() if n.startswith("lowdisc.") and m]
        for qualname, owner in owners.items():
            original = getattr(owner, qualname.split(".")[1])
            wrapper = self._wrap(qualname, original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        self._patched.append((module, attr, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def _wrap(self, name, fn):
        spans, stack = self.spans, self._stack
        hook = getattr(self, "_on_" + name.replace(".", "_"), None)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span[2] = time.perf_counter()
                stack.pop()
                if hook:
                    hook(fn, span, args, kwargs, None, exc)
                raise
            span[2] = time.perf_counter()
            stack.pop()
            if hook:
                hook(fn, span, args, kwargs, result, None)
            return result

        return traced

    # -- counters, one hook per traced function that feeds one -------------

    def _count_points(self, fn, span, a, k, result, exc):
        # a construction called by another (digital_net -> digital_points)
        # builds its points once
        parent = span[3]
        if result is not None and (parent < 0 or self.spans[parent][0] not in _CONSTRUCT):
            self.counters["pointsets.points_built"] += result.count

    _on_pointsets_lattice_points = _count_points
    _on_pointsets_kronecker = _count_points
    _on_pointsets_halton = _count_points
    _on_pointsets_hybrid = _count_points
    _on_pointsets_digital_points = _count_points
    _on_pointsets_digital_net = _count_points
    _on_pointsets_niederreiter_net = _count_points
    _on_pointsets_polynomial_lattice = _count_points

    def _on_pointsets_pointset_to_csv(self, fn, span, a, k, result, exc):
        if result is not None:
            self.counters["pointsets.csv_bytes"] += len(result)

    def _on_pointsets_pointset_from_csv(self, fn, span, a, k, result, exc):
        self.counters["pointsets.csv_bytes"] += len(_arg(fn, a, k, "text"))

    def _on_algebra_laurent_expand(self, fn, span, a, k, result, exc):
        self.counters["algebra.laurent_calls"] += 1

    def _on_algebra_nullspace_mod_p(self, fn, span, a, k, result, exc):
        self.counters["algebra.nullspace_calls"] += 1

    def _on_quality_net_property(self, fn, span, a, k, result, exc):
        self.counters["quality.net_property_calls"] += 1
        if result is False:
            self.counters["quality.t_levels_failed"] += 1

    def _on_quality_dual_space(self, fn, span, a, k, result, exc):
        self.counters["dual_attempts"] += 1
        if isinstance(exc, BudgetError):
            self.counters["quality.dual_refused"] += 1
        elif result is not None:
            self.counters["quality.dual_vectors"] += result.b ** result.dimension

    def _on_quality_star_discrepancy(self, fn, span, a, k, result, exc):
        self.counters["quality.star_calls"] += 1
        if isinstance(exc, BudgetError):
            self.counters["quality.star_refused"] += 1
        elif result is not None:
            self.star_inputs.append(_arg(fn, a, k, "ps"))

    def _on_quality_sampled_deviation_lower_bound(self, fn, span, a, k, result, exc):
        ps = _arg(fn, a, k, "ps")
        # strict and weak comparison of every sample corner with every coordinate
        self.counters["quality.sample_compares"] += 2 * _arg(fn, a, k, "samples") * ps.count * ps.dim

    def _on_quality_p2_dual_sum(self, fn, span, a, k, result, exc):
        h, s = _arg(fn, a, k, "h_bound"), len(_arg(fn, a, k, "a"))
        self.counters["quality.p2_dual_terms"] += (2 * h + 1) ** s

    def _on_factorizer_factor(self, fn, span, a, k, result, exc):
        self.counters["factorizer.calls"] += 1

    def _on_generators_audit_bound(self, fn, span, a, k, result, exc):
        if result is not None:
            self.counters["generators.audit_checks"] += result.checks

    def _on_diophantine_zaremba_search(self, fn, span, a, k, result, exc):
        self.counters["diophantine.search_calls"] += 1

    def _count_permutation_call(self, fn, span, a, k, result, exc):
        self.counters["permutations.calls"] += 1

    _on_permutations_fb_sweep = _count_permutation_call
    _on_permutations_is_complete_mapping = _count_permutation_call
    _on_permutations_detection_report = _count_permutation_call
    _on_permutations_isbn10_weighted_sum = _count_permutation_call

    def _on_acceptance_run_criterion(self, fn, span, a, k, result, exc):
        cid = _arg(fn, a, k, "cid")
        self.counters[f"acceptance.c{cid}_s"] += span[2] - span[1]

    # -- results -------------------------------------------------------------

    def layer_metrics(self) -> dict[str, float]:
        """Every per-layer metric except the ones the caller measures itself
        (cli.artifact_bytes, acceptance.budget_headroom_min, trace.overhead_s)."""
        covered = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        out = {name: 0.0 for name in LAYER_METRICS}
        for i, (name, start, end, parent) in enumerate(self.spans):
            metric = TIMED[name]
            if metric:
                out[metric] += end - start - covered[i]
        for name, value in self.counters.items():
            if name in out:
                out[name] = value
        attempts = self.counters["dual_attempts"]
        out["quality.dual_useful_frac"] = (
            (attempts - self.counters["quality.dual_refused"]) / attempts if attempts else 0.0
        )
        out["quality.star_corners"] = float(sum(_corners(ps) for ps in self.star_inputs))
        return out


def _corners(ps) -> int:
    """Grid corners of the exact sweep: distinct values per axis, plus 1."""
    rows = np.array(ps.numerators if ps.is_exact else ps.float_rows)
    total = 1
    for j in range(ps.dim):
        total *= len(np.unique(rows[:, j])) + 1
    return total
