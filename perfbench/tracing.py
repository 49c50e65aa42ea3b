"""Span tracing for the traced benchmark run.

The tracer wraps the public functions of each proxilift module from the
outside: every binding of a wrapped function in any loaded proxilift module
(for example ``from .core_spaces import solve_lp`` in selection_engine) is
replaced by one wrapper, so a call is traced whichever module makes it.
Leaf helpers (``norm``, ``Space.check``) are deliberately left unwrapped.

Spans live in flat in-memory arrays while the workload runs and are written
to disk only after the traced pass has ended.
"""

from __future__ import annotations

import functools
import os
import sys
from array import array
from collections import Counter
from time import perf_counter

LAYERS = (
    "core_spaces",
    "metric_projection",
    "selection_engine",
    "quotient_lifting",
    "function_space",
    "cli_reports",
)

# find_linear_selection outcomes reported as exact counts.
OUTCOMES = (
    "coordinate_projection",
    "hyperplane",
    "linf2_closed_form",
    "deutsch_search",
    "witness",
    "inconclusive",
    "other",
)


def _obs_metric_projection(counts, result, args):
    counts["metric_projection.face_nontrivial"] += result.face_dim >= 1


def _obs_is_chebyshev(counts, result, args):
    counts["metric_projection.is_chebyshev.samples_checked"] += result.samples_checked


def _obs_verify_selection(counts, result, args):
    counts["selection_engine.verify_selection.certified"] += result.certified
    counts["selection_engine.verify_selection.sampled"] += (
        result.status.name == "CERTIFIED_SAMPLED"
    )


def _obs_find_linear_selection(counts, result, args):
    method = getattr(result, "method", None)
    if method is None:
        outcome = "inconclusive" if result.witness is None else "witness"
    elif not result.certified:
        outcome = "other"
    else:
        outcome = method if method in OUTCOMES else "other"
    counts[f"selection_engine.outcome.{outcome}"] += 1


def _obs_star_1d(counts, result, args):
    counts["function_space.star_selection_1d.points"] += result.grid_n


def _obs_star_2d(counts, result, args):
    counts["function_space.star_selection_2d.points"] += result.f1.grid_n ** 2


def _obs_csv(counts, result, args):
    counts["function_space.csv.bytes"] += os.path.getsize(args[0])


def _obs_analysis_report(counts, result, args):
    counts["cli_reports.build_analysis_report.inconclusive"] += result.qlp == "INCONCLUSIVE"


# (module, attribute, span name, observer, skip directly nested self-calls)
WRAPPED = (
    ("core_spaces", "solve_lp", "core_spaces.solve_lp", None, False),
    ("core_spaces", "optimal_face", "core_spaces.optimal_face", None, False),
    ("core_spaces", "project_onto_subspace", "core_spaces.project_onto_subspace", None, False),
    ("core_spaces", "operator_norm", "core_spaces.operator_norm", None, False),
    ("metric_projection", "distance", "metric_projection.distance", None, False),
    ("metric_projection", "metric_projection", "metric_projection.metric_projection",
     _obs_metric_projection, False),
    ("metric_projection", "in_metric_complement", "metric_projection.in_metric_complement",
     None, False),
    ("metric_projection", "is_chebyshev", "metric_projection.is_chebyshev",
     _obs_is_chebyshev, False),
    ("selection_engine", "find_linear_selection", "selection_engine.find_linear_selection",
     _obs_find_linear_selection, False),
    ("selection_engine", "verify_selection", "selection_engine.verify_selection",
     _obs_verify_selection, False),
    ("selection_engine", "validate_witness", "selection_engine.validate_witness", None, False),
    ("quotient_lifting", "lift_operator", "quotient_lifting.lift_operator", None, False),
    ("quotient_lifting", "iso_from_selection", "quotient_lifting.iso_from_selection", None, False),
    ("quotient_lifting", "selection_from_lift", "quotient_lifting.selection_from_lift",
     None, False),
    ("quotient_lifting", "lift_from_l1", "quotient_lifting.lift_from_l1", None, False),
    ("quotient_lifting", "duality_lift", "quotient_lifting.duality_lift", None, False),
    ("quotient_lifting", "QuotientSpace.quotient_norm", "quotient_lifting.quotient_norm",
     None, False),
    ("function_space", "star_selection_1d", "function_space.star_selection_1d",
     _obs_star_1d, False),
    ("function_space", "star_selection_2d", "function_space.star_selection_2d",
     _obs_star_2d, False),
    ("function_space", "aligned_grid_for", "function_space.aligned_grid_for", None, False),
    ("function_space", "write_grid_csv", "function_space.csv", _obs_csv, False),
    ("function_space", "write_grid2d_csv", "function_space.csv", _obs_csv, False),
    ("cli_reports", "build_analysis_report", "cli_reports.build_analysis_report",
     _obs_analysis_report, False),
    # dumps recurses through its module-level name; only the outer call is a span
    ("cli_reports", "dumps", "cli_reports.dumps", None, True),
    ("cli_reports", "main", "cli_reports.main", None, False),
)


class Tracer:
    """Records spans (name, start, end, parent, operation id) in flat arrays."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_of = array("l")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.op_of = array("l")
        self.stack: list[int] = []
        self.op = -1
        self.counts: Counter = Counter()
        self.errors: Counter = Counter()
        self._patches: list[tuple] = []

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def wrap(self, fn, name: str, observe=None, no_recurse: bool = False):
        nid = self._name_id(name)
        stack = self.stack
        name_of, start, end, parent, op_of = (
            self.name_of, self.start, self.end, self.parent, self.op_of)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            # outside an operation (checks between operations) nothing is traced
            if self.op < 0 or (no_recurse and stack and name_of[stack[-1]] == nid):
                return fn(*args, **kwargs)
            sid = len(start)
            name_of.append(nid)
            parent.append(stack[-1] if stack else -1)
            op_of.append(self.op)
            end.append(0.0)
            stack.append(sid)
            start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                end[sid] = perf_counter()
                stack.pop()
                self.errors[name] += 1
                raise
            end[sid] = perf_counter()
            stack.pop()
            if observe is not None:
                observe(self.counts, result, args)
            return result

        return wrapper

    def install(self) -> None:
        """Replace every binding of each wrapped function in the loaded
        proxilift modules (and the package namespace) with its wrapper."""
        mods = [m for k, m in sys.modules.items()
                if m is not None and (k == "proxilift" or k.startswith("proxilift."))]
        for modname, attr, name, observe, no_recurse in WRAPPED:
            home = sys.modules[f"proxilift.{modname}"]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(home, cls_name)
                orig = cls.__dict__[meth]
                self._patches.append((cls, meth, orig))
                setattr(cls, meth, self.wrap(orig, name, observe, no_recurse))
                continue
            orig = getattr(home, attr)
            wrapper = self.wrap(orig, name, observe, no_recurse)
            for m in mods:
                for key, val in list(vars(m).items()):
                    if val is orig:
                        self._patches.append((m, key, orig))
                        setattr(m, key, wrapper)

    def uninstall(self) -> None:
        for obj, key, orig in reversed(self._patches):
            setattr(obj, key, orig)
        self._patches.clear()

    # ------------------------------------------------------------------
    # Aggregation

    def aggregate(self) -> dict:
        """Per-function calls / self time / errors, per-module self time, and
        the ratios named in the benchmark's per-layer metrics."""
        nspans = len(self.start)
        child = [0.0] * nspans
        dur = [self.end[i] - self.start[i] for i in range(nspans)]
        for i in range(nspans):
            p = self.parent[i]
            if p >= 0:
                child[p] += dur[i]
        calls: Counter = Counter()
        self_s: Counter = Counter()
        for i in range(nspans):
            name = self.names[self.name_of[i]]
            calls[name] += 1
            self_s[name] += dur[i] - child[i]

        m: dict = {}
        for modname, attr, name, _, _ in WRAPPED:
            m[f"{name}.calls"] = calls[name]
            m[f"{name}.self_s"] = self_s[name]
        for layer in LAYERS:
            m[f"{layer}.self_s"] = sum(v for k, v in self_s.items()
                                       if k.split(".", 1)[0] == layer)
        m["core_spaces.solve_lp.errors"] = self.errors["core_spaces.solve_lp"]

        face_id = self._name_ids.get("core_spaces.optimal_face")
        lp_id = self._name_ids.get("core_spaces.solve_lp")
        lp_in_face = 0
        if face_id is not None and lp_id is not None:
            lp_in_face = sum(1 for i in range(nspans)
                             if self.name_of[i] == lp_id and self.parent[i] >= 0
                             and self.name_of[self.parent[i]] == face_id)
        m["core_spaces.lp_per_face"] = _ratio(lp_in_face, calls["core_spaces.optimal_face"])

        c = self.counts
        m["metric_projection.is_chebyshev.samples_checked"] = c[
            "metric_projection.is_chebyshev.samples_checked"]
        m["metric_projection.face_nontrivial_ratio"] = _ratio(
            c["metric_projection.face_nontrivial"],
            calls["metric_projection.metric_projection"])
        vs_calls = calls["selection_engine.verify_selection"]
        m["selection_engine.verify_selection.certified_ratio"] = _ratio(
            c["selection_engine.verify_selection.certified"], vs_calls)
        m["selection_engine.verify_selection.sampled_ratio"] = _ratio(
            c["selection_engine.verify_selection.sampled"], vs_calls)
        for outcome in OUTCOMES:
            key = f"selection_engine.outcome.{outcome}"
            m[key] = c[key]
        m["cli_reports.build_analysis_report.inconclusive"] = c[
            "cli_reports.build_analysis_report.inconclusive"]
        m["function_space.star_selection_1d.points"] = c["function_space.star_selection_1d.points"]
        m["function_space.star_selection_2d.points"] = c["function_space.star_selection_2d.points"]
        m["function_space.csv.bytes"] = c["function_space.csv.bytes"]
        return m

    def write(self, path: str) -> int:
        """Write all spans as CSV (times relative to the first span)."""
        nspans = len(self.start)
        t0 = self.start[0] if nspans else 0.0
        os.makedirs(os.path.dirname(path), exist_ok=True)
        names = self.names
        with open(path, "w") as fh:
            fh.write("span,name,start_s,end_s,parent,op\n")
            for i in range(nspans):
                fh.write(f"{i},{names[self.name_of[i]]},{self.start[i] - t0:.9f},"
                         f"{self.end[i] - t0:.9f},{self.parent[i]},{self.op_of[i]}\n")
        return nspans


def _ratio(num, den) -> float:
    return float(num) / float(den) if den else 0.0
