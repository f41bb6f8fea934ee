"""Spans around calls into robustsysid's public layer functions.

The tracer wraps module attributes from the outside: every loaded robustsysid
module that holds a reference to a wrapped function (the defining module and
every module that imported the name) gets the wrapper, so calls made inside
the package are recorded too. Nothing in the package changes; ``uninstall``
restores the original attributes.

A span is (name, parent span, op, start, end). A layer's busy time is the sum
of its spans' self time: the span's duration minus the part its direct child
spans cover, so a polish step is not charged for the certificate it calls.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import Counter

# (module, attribute) -> layer name. The two CSV functions share one layer.
LAYERS = {
    ("lti", "simulate"): "lti.simulate",
    ("lti", "save_trajectory_csv"): "lti.csv",
    ("lti", "load_trajectory_csv"): "lti.csv",
    ("estimators", "least_squares"): "estimators.least_squares",
    ("estimators", "solve_subgradient"): "estimators.solve_subgradient",
    ("estimators", "polish_estimate"): "estimators.polish_estimate",
    ("certificates", "kkt_certificate"): "certificates.kkt_certificate",
    ("certificates", "farkas_feasible"): "certificates.farkas_feasible",
    ("certificates", "_ball_feasible"): "certificates.ball_check",
    ("complexity", "phase_transition"): "complexity.phase_transition",
    ("experiments", "run_experiment"): "experiments.run_experiment",
}

# Per-layer metric -> (unit, total it reads[, total it is divided by]).
# Without a divisor the value is a mean per traced op. Every metric is
# reported on every workload; a layer that made no calls reports 0.
METRICS = {
    "lti.simulate.calls": ("count/op", "lti.simulate.calls"),
    "lti.simulate.busy_ms": ("ms/op", "lti.simulate.self_ms"),
    "lti.csv.busy_ms": ("ms/op", "lti.csv.self_ms"),
    "estimators.least_squares.calls":
        ("count/op", "estimators.least_squares.calls"),
    "estimators.least_squares.busy_ms":
        ("ms/op", "estimators.least_squares.self_ms"),
    "estimators.solve_subgradient.calls":
        ("count/op", "estimators.solve_subgradient.calls"),
    "estimators.solve_subgradient.busy_ms":
        ("ms/op", "estimators.solve_subgradient.self_ms"),
    "estimators.solve_subgradient.iterations": ("count/op", "fit.iterations"),
    "estimators.solve_subgradient.max_iter_stops":
        ("count/op", "fit.max_iter_stops"),
    "estimators.polish_estimate.calls":
        ("count/op", "estimators.polish_estimate.calls"),
    "estimators.polish_estimate.busy_ms":
        ("ms/op", "estimators.polish_estimate.self_ms"),
    "estimators.polish_estimate.certified_ratio":
        ("ratio", "polish.certified", "estimators.polish_estimate.calls"),
    "estimators.subgradient_discarded_ratio":
        ("ratio", "fit.discarded", "estimators.solve_subgradient.calls"),
    "certificates.kkt_certificate.calls":
        ("count/op", "certificates.kkt_certificate.calls"),
    "certificates.kkt_certificate.busy_ms":
        ("ms/op", "certificates.kkt_certificate.self_ms"),
    "certificates.kkt_certificate.ball_checks":
        ("count/op", "certificates.ball_check.calls"),
    "certificates.kkt_certificate.ball_busy_ms":
        ("ms/op", "certificates.ball_check.self_ms"),
    "certificates.kkt_certificate.inconclusive":
        ("count/op", "kkt.inconclusive"),
    "certificates.farkas_feasible.calls":
        ("count/op", "certificates.farkas_feasible.calls"),
    "certificates.farkas_feasible.busy_ms":
        ("ms/op", "certificates.farkas_feasible.self_ms"),
    "complexity.phase_transition.self_ms":
        ("ms/op", "complexity.phase_transition.self_ms"),
    "experiments.run_experiment.self_ms":
        ("ms/op", "experiments.run_experiment.self_ms"),
    "cli.startup_ms": ("ms/op", "cli.startup_ms"),
    "cli.dispatch.self_ms": ("ms/op", "cli.dispatch.self_ms"),
}


class Tracer:
    """In-memory spans plus counters taken at the same layer boundaries."""

    def __init__(self):
        self.spans = []      # [name, parent index or None, op, start, end]
        self.counts = Counter()
        self.op = None
        self._stack = []
        self._last_fit = None
        self._installed = []

    def wrap(self, name: str, fn, after=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(self.spans)
            parent = self._stack[-1] if self._stack else None
            span = [name, parent, self.op, time.perf_counter(), None]
            self.spans.append(span)
            self._stack.append(sid)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[4] = time.perf_counter()
                self._stack.pop()
            if after is not None:
                after(args, kwargs, result)
            return result
        return traced

    # counters read from the wrapped functions' own return values

    def _after_fit(self, args, kwargs, res):
        self.counts["fit.iterations"] += res.iterations_used
        self.counts["fit.max_iter_stops"] += res.stop_reason == "max-iters"
        self._last_fit = res

    def _after_polish(self, args, kwargs, res):
        if res is None:
            return
        self.counts["polish.certified"] += res.stop_reason == "polish-certified"
        A0 = args[1] if len(args) > 1 else kwargs.get("A0")
        fit = self._last_fit
        # every caller keeps the polished result exactly when it beats the fit
        if fit is not None and A0 is fit.A_hat and res.objective < fit.objective:
            self.counts["fit.discarded"] += 1

    def _after_kkt(self, args, kwargs, cert):
        self.counts["kkt.inconclusive"] += cert.verdict == "inconclusive"

    def install(self, package: str = "robustsysid") -> None:
        hooks = {"estimators.solve_subgradient": self._after_fit,
                 "estimators.polish_estimate": self._after_polish,
                 "certificates.kkt_certificate": self._after_kkt}
        mods = [m for name, m in list(sys.modules.items())
                if name == package or name.startswith(package + ".")]
        for (mod_name, attr), layer in LAYERS.items():
            orig = getattr(importlib.import_module(f"{package}.{mod_name}"), attr)
            wrapped = self.wrap(layer, orig, hooks.get(layer))
            for mod in mods:
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        setattr(mod, key, wrapped)
                        self._installed.append((mod, key, orig))

    def uninstall(self) -> None:
        for mod, key, orig in reversed(self._installed):
            setattr(mod, key, orig)
        self._installed.clear()

    def totals(self) -> dict:
        """Calls and self time (ms) per span name, plus the counters."""
        child = [0.0] * len(self.spans)
        for name, parent, _op, start, end in self.spans:
            if parent is not None:
                child[parent] += end - start
        out = Counter()
        for i, (name, _parent, _op, start, end) in enumerate(self.spans):
            out[f"{name}.calls"] += 1
            out[f"{name}.self_ms"] += 1e3 * (end - start - child[i])
        out.update(self.counts)
        return dict(out)

    def export(self) -> dict:
        """Spans and counters as JSON-safe data (see ``absorb``)."""
        return {"counts": dict(self.counts),
                "spans": [{"name": n, "parent": p, "op": op, "start": s, "end": e}
                          for n, p, op, s, e in self.spans]}

    def absorb(self, payload: dict) -> None:
        """Add another process's export, filed under the current op. Times
        compare across processes: perf_counter reads the system-wide
        monotonic clock."""
        base = len(self.spans)
        for sp in payload["spans"]:
            parent = None if sp["parent"] is None else base + sp["parent"]
            self.spans.append([sp["name"], parent, self.op, sp["start"],
                               sp["end"]])
        self.counts.update(payload["counts"])


def layer_metrics(totals: dict, ops: int, overhead_pct: float) -> dict:
    """Per-layer metrics from summed totals, plus the tracing overhead."""
    t = Counter(totals)
    out = {}
    for name, (unit, key, *divisor) in METRICS.items():
        den = t[divisor[0]] if divisor else ops
        out[name] = {"value": float(t[key] / den if den else 0.0), "unit": unit}
    out["trace.overhead_pct"] = {"value": float(overhead_pct), "unit": "%"}
    return out
