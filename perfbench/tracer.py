"""Outside-in span tracer for fglab's public functions and methods.

The tracer replaces each listed function or method with a wrapper that
records one span per call: name, start, end, parent span and sample id.  A
module-level function is replaced on its own module and on every other
``fglab`` module that imported the same object (``fglab.verify`` binds most
of them by name), so calls through either name are seen.  Spans are kept in
flat in-memory arrays and written out by ``save`` when the run ends;
``uninstall`` puts every original back.

Nothing here is imported during untraced runs.
"""

from __future__ import annotations

import contextlib
import functools
import sys
import time
from array import array

import numpy as np

import fglab.bigseries
import fglab.descent
import fglab.dvr
import fglab.fgl
import fglab.isogeny
import fglab.report
import fglab.scalars
import fglab.schema
import fglab.series
import fglab.verify


def _mul_terms(tracer, args, result):
    lhs, rhs = args[0], args[1]
    tracer.counters["series.mul_pairs"] += len(lhs.terms) * len(rhs.terms)
    tracer.counters["series.mul_result_terms"] += len(result.terms)


def _grid_terms(tracer, args, result):
    tracer.counters["bigseries.grid_terms"] += (
        len(result.p_series_a)
        + sum(len(g) for g in result.series_a.values())
        + len(result.slab)
        + len(result.p_series_x)
    )


def _descent_trace(tracer, args, result):
    tracer.counters["descent.steps"] += len(result.steps)
    tracer.counters["descent.horizon_flagged"] += int(result.horizon_flagged)


# (span name, owner, attribute, result hook).  The owner is a module for a
# function and a class for a method.
TARGETS = [
    ("fgl.build_fgl", fglab.fgl, "build_fgl", None),
    ("fgl.verify_fgl_congruences", fglab.fgl, "verify_fgl_congruences", None),
    ("fgl.fgl_axiom_checks", fglab.fgl, "fgl_axiom_checks", None),
    ("series.mul", fglab.series.MultiSeries, "__mul__", _mul_terms),
    ("series.compose", fglab.series.MultiSeries, "compose", None),
    ("series.pow", fglab.series.MultiSeries, "__pow__", None),
    ("series.reversion", fglab.series.MultiSeries, "reversion", None),
    ("scalars.useries_mul", fglab.scalars.USeries, "__mul__", None),
    ("scalars.useries_inverse", fglab.scalars.USeries, "inverse", None),
    ("bigseries.build_reduced_law_data", fglab.bigseries, "build_reduced_law_data", _grid_terms),
    ("bigseries.reduced_exp_rows", fglab.bigseries, "reduced_exp_rows", None),
    ("dvr.weierstrass_from_rows", fglab.dvr, "weierstrass_from_rows", None),
    ("dvr.compute_psi", fglab.dvr, "compute_psi", None),
    ("dvr.compute_psi_negative", fglab.dvr, "compute_psi_negative", None),
    ("dvr.elem_mul", fglab.dvr.DvrElement, "__mul__", None),
    ("dvr.divide_exact", fglab.dvr.DvrElement, "divide_exact", None),
    ("isogeny.quotient_p_series", fglab.isogeny, "quotient_p_series", None),
    ("isogeny.translate_series", fglab.isogeny, "translate_series", None),
    ("isogeny.frac_mul", fglab.isogeny.FracElement, "__mul__", None),
    ("isogeny.extract_un_image", fglab.isogeny, "extract_un_image", None),
    ("isogeny.un_image_by_division", fglab.isogeny, "un_image_by_division", None),
    ("isogeny.sign_check", fglab.isogeny, "sign_check", None),
    ("descent.descent_run", fglab.descent, "descent_run", _descent_trace),
    ("descent.descent_step", fglab.descent, "descent_step", None),
    ("descent.apply", fglab.descent.ReducedPowerOperator, "apply", None),
    ("descent.power", fglab.descent.ReducedPowerOperator, "power", None),
    ("verify.build_pipeline", fglab.verify, "build_pipeline", None),
    ("verify.reduced_series_rows", fglab.verify, "reduced_series_rows", None),
    ("verify.weierstrass_rows", fglab.verify, "weierstrass_rows", None),
    ("verify.dvr_rows", fglab.verify, "dvr_rows", None),
    ("verify.isogeny_rows", fglab.verify, "isogeny_rows", None),
    ("verify.descent_rows", fglab.verify, "descent_rows", None),
    ("report.to_dict", fglab.report.RunReport, "to_dict", None),
    ("report.canonical_json", fglab.report, "canonical_json", None),
    ("schema.validate_report", fglab.schema, "validate_report", None),
]

CHECK_ROW_SPANS = [
    "verify.reduced_series_rows",
    "verify.weierstrass_rows",
    "verify.dvr_rows",
    "verify.isogeny_rows",
    "verify.descent_rows",
]
EMIT_SPANS = ["report.to_dict", "schema.validate_report", "report.canonical_json"]


class Tracer:
    """Flat span store plus the patch table that feeds it."""

    def __init__(self):
        self.names: list[str] = []
        self.name_ids: dict[str, int] = {}
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self.name = array("i")
        self.nested = array("i")  # open spans of the same name when this one began
        self.sample = array("i")
        self.stack = [-1]
        self.current_sample = -1  # the cold verify; batch k sets k
        self.counters: dict[str, int] = {
            "series.mul_pairs": 0,
            "series.mul_result_terms": 0,
            "bigseries.grid_terms": 0,
            "descent.steps": 0,
            "descent.horizon_flagged": 0,
        }
        self._restore: list[tuple[object, str, object]] = []

    def _name_id(self, name: str) -> int:
        if name not in self.name_ids:
            self.name_ids[name] = len(self.names)
            self.names.append(name)
        return self.name_ids[name]

    def _open(self, name_id: int, depth: int) -> int:
        sid = len(self.start)
        self.parent.append(self.stack[-1])
        self.name.append(name_id)
        self.nested.append(depth)
        self.sample.append(self.current_sample)
        self.end.append(0)
        self.stack.append(sid)
        self.start.append(time.perf_counter_ns())
        return sid

    def _close(self, sid: int):
        self.end[sid] = time.perf_counter_ns()
        self.stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself, around a call into fglab."""
        sid = self._open(self._name_id(name), 0)
        try:
            yield
        finally:
            self._close(sid)

    def _wrap(self, name: str, fn, hook):
        name_id = self._name_id(name)
        depth = [0]

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = self._open(name_id, depth[0])
            depth[0] += 1
            try:
                result = fn(*args, **kwargs)
            finally:
                depth[0] -= 1
                self._close(sid)
            if hook is not None:
                hook(self, args, result)
            return result

        return wrapper

    def install(self):
        modules = [m for k, m in sys.modules.items() if k.startswith("fglab") and m]
        for name, owner, attr, hook in TARGETS:
            if isinstance(owner, type):
                original = owner.__dict__[attr]
                self._restore.append((owner, attr, original))
                setattr(owner, attr, self._wrap(name, original, hook))
                continue
            original = getattr(owner, attr)
            wrapper = self._wrap(name, original, hook)
            for mod in modules:
                if getattr(mod, attr, None) is original:
                    self._restore.append((mod, attr, original))
                    setattr(mod, attr, wrapper)

    def uninstall(self):
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    # -- results ---------------------------------------------------------

    def arrays(self) -> dict:
        return {
            "start_ns": np.frombuffer(self.start, dtype=np.int64),
            "end_ns": np.frombuffer(self.end, dtype=np.int64),
            "parent": np.frombuffer(self.parent, dtype=np.int64),
            "name": np.frombuffer(self.name, dtype=np.int32),
            "nested": np.frombuffer(self.nested, dtype=np.int32),
            "sample": np.frombuffer(self.sample, dtype=np.int32),
        }

    def save(self, path):
        np.savez_compressed(path, names=np.array(self.names), **self.arrays())

    def summary(self, root: str | None = None) -> dict:
        """Per-layer metrics from the recorded spans.

        ``*_s`` metrics are inclusive time of the outermost span of that name
        (recursive calls are not counted twice); ``*_self_s`` subtract the time
        covered by child spans.  With ``root`` given, ``trace.stage_coverage``
        is the share of the root spans' time covered by their direct children.
        """
        a = self.arrays()
        dur = (a["end_ns"] - a["start_ns"]) / 1e9
        parent, name, nested = a["parent"], a["name"], a["nested"]
        has_parent = parent >= 0
        child_time = np.bincount(
            parent[has_parent], weights=dur[has_parent], minlength=len(dur)
        )
        self_time = dur - child_time

        def ids(span):
            return self.name_ids.get(span, -1)

        def mask(span):
            return name == ids(span)

        def calls(span):
            return int(mask(span).sum())

        def incl(*spans):
            return float(sum(dur[mask(s) & (nested == 0)].sum() for s in spans))

        def self_s(span):
            return float(self_time[mask(span)].sum())

        def under(span, parent_span):
            m = mask(span) & has_parent
            m[m] = name[parent[m]] == ids(parent_span)
            return float(dur[m].sum())

        c = self.counters
        runs = calls("descent.descent_run")
        out = {
            "fgl.build_s": incl("fgl.build_fgl"),
            "fgl.congruences_s": incl("fgl.verify_fgl_congruences"),
            "fgl.axiom_checks_calls": calls("fgl.fgl_axiom_checks"),
            "fgl.axiom_checks_s": incl("fgl.fgl_axiom_checks"),
            "series.mul_calls": calls("series.mul"),
            "series.mul_self_s": self_s("series.mul"),
            "series.mul_keep_ratio": (
                c["series.mul_result_terms"] / c["series.mul_pairs"]
                if c["series.mul_pairs"]
                else 0.0
            ),
            "series.compose_calls": calls("series.compose"),
            "series.compose_s": incl("series.compose"),
            "series.pow_calls": calls("series.pow"),
            "series.reversion_s": incl("series.reversion"),
            "scalars.useries_mul_calls": calls("scalars.useries_mul"),
            "scalars.useries_mul_s": incl("scalars.useries_mul"),
            "scalars.useries_inverse_calls": calls("scalars.useries_inverse"),
            "scalars.useries_inverse_s": incl("scalars.useries_inverse"),
            "bigseries.build_s": incl("bigseries.build_reduced_law_data"),
            "bigseries.exp_rows_s": incl("bigseries.reduced_exp_rows"),
            "bigseries.grid_terms": c["bigseries.grid_terms"],
            "dvr.weierstrass_calls": calls("dvr.weierstrass_from_rows"),
            "dvr.weierstrass_s": incl("dvr.weierstrass_from_rows"),
            "dvr.psi_s": incl("dvr.compute_psi", "dvr.compute_psi_negative"),
            "dvr.elem_mul_calls": calls("dvr.elem_mul"),
            "dvr.elem_mul_self_s": self_s("dvr.elem_mul"),
            "dvr.divide_exact_s": incl("dvr.divide_exact"),
            "isogeny.quotient_s": incl("isogeny.quotient_p_series"),
            "isogeny.frac_reversion_s": under("series.reversion", "isogeny.quotient_p_series"),
            "isogeny.frac_compose_s": under("series.compose", "isogeny.quotient_p_series"),
            "isogeny.frac_mul_calls": calls("isogeny.frac_mul"),
            "isogeny.translate_s": incl("isogeny.translate_series"),
            "isogeny.un_image_s": incl(
                "isogeny.extract_un_image", "isogeny.un_image_by_division"
            ),
            "isogeny.sign_check_s": incl("isogeny.sign_check"),
            "descent.run_calls": runs,
            "descent.steps": c["descent.steps"],
            "descent.horizon_share": c["descent.horizon_flagged"] / runs if runs else 0.0,
            "descent.step_s": incl("descent.descent_step"),
            "descent.apply_calls": calls("descent.apply"),
            "descent.apply_s": incl("descent.apply"),
            "descent.power_s": incl("descent.power"),
            "verify.pipeline_s": incl("verify.build_pipeline"),
            "verify.check_rows_s": incl(*CHECK_ROW_SPANS),
            "report.emit_s": incl(*EMIT_SPANS),
        }
        if root is not None:
            roots = np.flatnonzero(mask(root))
            root_time = float(dur[roots].sum())
            stage_time = float(child_time[roots].sum())
            out["trace.stage_coverage"] = stage_time / root_time if root_time else 0.0
        return out
