"""Spans and counters around the program's public functions, installed from
the benchmark's own files.

``Tracer.install`` rebinds each traced public name in every ``orliczkit``
module that imported it (``orliczkit.duality.validate`` as well as
``orliczkit.risk.validate``), wraps ``OrliczFunction.values``, and wraps the
risk-functional constructors so that the ``evaluate`` and
``closed_form_conjugate`` fields of every functional built afterwards record
spans too. Nothing under ``src/`` changes.

A span is (name, parent, start, end) with ``time.perf_counter`` stamps;
the process runs one thread and reads only small files, so wall time
stands in for its CPU time. Spans of one pass are kept in memory;
``end_pass`` reduces them to per-name call counts, total time and self
time (duration minus the time direct children cover) and keeps the first
pass's spans for writing out at the end.
"""

from __future__ import annotations

import dataclasses
import json
import math
import statistics
import sys
import time
from collections import defaultdict

import numpy as np

_clock = time.perf_counter
_UNITS = {"ms": 1e3, "us": 1e6}


class Tracer:
    def __init__(self) -> None:
        self._names: dict[str, int] = {}
        self._new_pass()
        self.first_pass: tuple | None = None
        # per name: call count, and per pass the scaled total and self time
        self.calls: dict[str, int] = {}
        self.totals: dict[str, list[float]] = defaultdict(list)
        self.selfs: dict[str, list[float]] = defaultdict(list)
        self.counters: dict[str, float] = {}

    def _new_pass(self) -> None:
        self.span_name: list[int] = []
        self.span_parent: list[int] = []
        self.span_start: list[float] = []
        self.span_end: list[float] = []
        self.stack: list[int] = []
        self.pass_counters: dict[str, float] = defaultdict(float)

    # -- recording -----------------------------------------------------------

    def _open(self, name: str) -> int:
        idx = len(self.span_name)
        self.span_name.append(self._names.setdefault(name, len(self._names)))
        self.span_parent.append(self.stack[-1] if self.stack else -1)
        self.span_start.append(0.0)
        self.span_end.append(0.0)
        self.stack.append(idx)
        return idx

    def call(self, name: str, fn, args, kwargs):
        idx = self._open(name)
        t0 = _clock()
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = _clock()
            self.stack.pop()
            self.span_start[idx] = t0
            self.span_end[idx] = t1

    def count(self, key: str, amount: float = 1.0) -> None:
        self.pass_counters[key] += amount

    def peak(self, key: str, value: float) -> None:
        self.pass_counters[key] = max(self.pass_counters[key], value)

    def wrap(self, name: str, fn, after=None):
        """``fn`` inside a span; ``after(tracer, result, args)`` updates
        counters."""
        tracer = self

        def traced(*args, **kwargs):
            result = tracer.call(name, fn, args, kwargs)
            if after is not None:
                after(tracer, result, args)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    # -- per-pass reduction ----------------------------------------------------

    def end_pass(self, scale: float) -> None:
        """Reduce the pass's spans; times are multiplied by ``scale``, the
        pass's machine-speed factor (see run.py)."""
        names = np.asarray(self.span_name, dtype=np.int64)
        parents = np.asarray(self.span_parent, dtype=np.int64)
        dur = (np.asarray(self.span_end) - np.asarray(self.span_start))
        covered = np.zeros(len(dur))
        has_parent = parents >= 0
        np.add.at(covered, parents[has_parent], dur[has_parent])
        self_time = dur - covered
        for name, nid in self._names.items():
            mask = names == nid
            calls = int(mask.sum())
            if calls == 0:
                continue
            self.calls[name] = calls
            self.totals[name].append(float(dur[mask].sum()) * scale)
            self.selfs[name].append(float(self_time[mask].sum()) * scale)
        self.counters = dict(self.pass_counters)
        if self.first_pass is None:
            self.first_pass = (list(self._names), self.span_name, self.span_parent,
                               self.span_start, self.span_end)
        self._new_pass()

    def write(self, path: str) -> int:
        """Write the first pass's spans as JSON lines; returns the count."""
        if self.first_pass is None:
            return 0
        labels, names, parents, starts, ends = self.first_pass
        t0 = starts[0] if starts else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            for i, (n, p, s, e) in enumerate(zip(names, parents, starts, ends)):
                fh.write(json.dumps({"id": i, "name": labels[n], "parent": p,
                                     "start_ms": (s - t0) * 1e3,
                                     "end_ms": (e - t0) * 1e3}) + "\n")
        return len(names)

    # -- installation ----------------------------------------------------------

    def install(self) -> None:
        from orliczkit import (cli, convergence, duality, io, measure, norms,
                               orlicz, risk, specs)

        def rebind(module, attr: str, wrapped) -> None:
            original = getattr(module, attr)
            for name, mod in list(sys.modules.items()):
                if name == "orliczkit" or name.startswith("orliczkit."):
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, key, wrapped)

        def ascent(t, res, _args):
            t.count("maximize_dual.evaluations", res.evaluations)
            t.count("maximize_dual.sweeps", res.sweeps)

        def norm_iters(key):
            return lambda t, res, _args: t.count(key, res.iterations)

        def family_size(t, fam, _args):
            t.peak("convergence.family_bytes",
                   8.0 * len(fam.terms) * fam.limit.space.n_atoms)

        def rows(t, terms, _args):
            t.count("io.read_stacked_rvs.rows",
                    len(terms) * (terms[0].space.n_atoms if terms else 0))

        plain = [
            (risk, "validate", "risk.validate", None),
            (duality, "maximize_dual", "duality.maximize_dual", ascent),
            (duality, "fenchel_conjugate_value",
             "duality.fenchel_conjugate_value", None),
            (duality, "reconstruct", "duality.reconstruct", None),
            (norms, "luxemburg_norm", "norms.luxemburg_norm",
             norm_iters("norms.luxemburg_norm.iterations")),
            (norms, "amemiya_norm", "norms.amemiya_norm",
             norm_iters("norms.amemiya_norm.iterations")),
            (measure, "strictly_positive_witness",
             "measure.strictly_positive_witness", None),
            (measure, "ae_converges", "measure.ae_converges", None),
            (convergence, "generate_sequence", "convergence.generate_sequence",
             family_size),
            (convergence, "extract_ae_subsequence",
             "convergence.extract_ae_subsequence", None),
            (convergence, "wstar_limit_check", "convergence.wstar_limit_check",
             None),
            (convergence, "fatou_check", "convergence.fatou_check", None),
            (io, "read_stacked_rvs", "io.read_stacked_rvs", rows),
            (io, "render_record", "io.render", None),
            (io, "render_table", "io.render", None),
            (specs, "parse_orlicz_spec", "specs.parse", None),
            (specs, "parse_risk_spec", "specs.parse", None),
            (cli, "main", "cli.main", None),
        ]
        for module, attr, span, after in plain:
            rebind(module, attr, self.wrap(span, getattr(module, attr), after))

        def elements(t, _res, args):
            t.count("orlicz.values.elements", int(np.size(args[1])))

        orlicz.OrliczFunction.values = self.wrap(
            "orlicz.values", orlicz.OrliczFunction.values, elements)

        def finite(t, value, _args):
            if math.isfinite(value):
                t.count("risk.conjugate.finite")

        def traced_functional(phi):
            conj = phi.closed_form_conjugate
            return dataclasses.replace(
                phi,
                evaluate=self.wrap("risk.evaluate", phi.evaluate),
                closed_form_conjugate=(None if conj is None else
                                       self.wrap("risk.conjugate", conj, finite)))

        # increasing_catalog calls these through risk's globals, so its
        # members come out traced too
        for attr in ("entropic", "average_value_at_risk", "worst_case",
                     "expectation", "non_monotone_control"):
            ctor = getattr(risk, attr)
            rebind(risk, attr,
                   lambda *a, _c=ctor, **k: traced_functional(_c(*a, **k)))


def layer_metrics(tracer: Tracer, n_ops: int, import_s: float) -> dict:
    """The per-layer metrics from a finished traced run.

    Times are the median over passes of each layer's scaled per-pass total;
    counts repeat exactly from pass to pass. A layer the workload never
    calls reads 0.
    """
    calls = tracer.calls
    c = tracer.counters

    def per(x, d):
        return x / d if d else 0.0

    def n(name):
        return calls.get(name, 0)

    def total(name):
        return statistics.median(tracer.totals[name]) if name in calls else 0.0

    def own(name):
        return statistics.median(tracer.selfs[name]) if name in calls else 0.0

    def time_per_call(name, unit):
        return per(total(name), n(name)) * _UNITS[unit], unit

    def time_per_op(seconds, unit):
        return per(seconds, n_ops) * _UNITS[unit], unit

    def count_per_call(key, name):
        return per(c.get(key, 0.0), n(name)), "count"

    return {
        "setup.import_s": (import_s, "s"),
        "risk.validate.ms_per_op": time_per_op(total("risk.validate"), "ms"),
        "risk.evaluate.calls_per_op": (per(n("risk.evaluate"), n_ops), "count"),
        "risk.evaluate.us_per_call": time_per_call("risk.evaluate", "us"),
        "risk.conjugate.calls_per_op": (per(n("risk.conjugate"), n_ops), "count"),
        "risk.conjugate.us_per_call": time_per_call("risk.conjugate", "us"),
        "risk.conjugate.finite_ratio": (
            per(c.get("risk.conjugate.finite", 0.0), n("risk.conjugate")), "ratio"),
        "duality.maximize_dual.evaluations_per_op": (
            per(c.get("maximize_dual.evaluations", 0.0), n_ops), "count"),
        "duality.maximize_dual.sweeps_per_call": count_per_call(
            "maximize_dual.sweeps", "duality.maximize_dual"),
        "duality.maximize_dual.self_ms_per_op": time_per_op(
            own("duality.maximize_dual"), "ms"),
        "duality.fenchel_conjugate_value.ms_per_call": time_per_call(
            "duality.fenchel_conjugate_value", "ms"),
        "duality.reconstruct.self_ms_per_op": time_per_op(
            own("duality.reconstruct"), "ms"),
        "norms.luxemburg_norm.us_per_call": time_per_call(
            "norms.luxemburg_norm", "us"),
        "norms.luxemburg_norm.iterations_per_call": count_per_call(
            "norms.luxemburg_norm.iterations", "norms.luxemburg_norm"),
        "norms.amemiya_norm.us_per_call": time_per_call("norms.amemiya_norm", "us"),
        "norms.amemiya_norm.iterations_per_call": count_per_call(
            "norms.amemiya_norm.iterations", "norms.amemiya_norm"),
        "orlicz.values.calls_per_op": (per(n("orlicz.values"), n_ops), "count"),
        "orlicz.values.ns_per_element": (
            per(total("orlicz.values"), c.get("orlicz.values.elements", 0.0)) * 1e9,
            "ns"),
        "measure.strictly_positive_witness.ms_per_call": time_per_call(
            "measure.strictly_positive_witness", "ms"),
        "measure.ae_converges.ms_per_call": time_per_call(
            "measure.ae_converges", "ms"),
        "convergence.generate_sequence.ms_per_call": time_per_call(
            "convergence.generate_sequence", "ms"),
        "convergence.extract_ae_subsequence.ms_per_call": time_per_call(
            "convergence.extract_ae_subsequence", "ms"),
        "convergence.family_mb": (
            c.get("convergence.family_bytes", 0.0) / 1e6, "MB"),
        "convergence.wstar_limit_check.ms_per_call": time_per_call(
            "convergence.wstar_limit_check", "ms"),
        "convergence.fatou_check.ms_per_call": time_per_call(
            "convergence.fatou_check", "ms"),
        "io.read_stacked_rvs.ms_per_call": time_per_call(
            "io.read_stacked_rvs", "ms"),
        "io.read_stacked_rvs.rows_per_s": (
            per(c.get("io.read_stacked_rvs.rows", 0.0),
                total("io.read_stacked_rvs")), "1/s"),
        "io.render.ms_per_op": time_per_op(total("io.render"), "ms"),
        "specs.parse.us_per_call": time_per_call("specs.parse", "us"),
        "cli.main.self_ms_per_op": time_per_op(own("cli.main"), "ms"),
    }
