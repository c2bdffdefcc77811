"""In-memory spans and counters around the calls into each layer.

``install`` wraps the entry points of every layer in the namespace of the
module that calls them (``oeeforecast.pipeline.window_features``,
``oeeforecast.tda.extract.vr_persistence``, ``oeeforecast.sarimax.fit``, ...),
so the program itself is unchanged. A span is recorded as
``(span_id, parent_id, op_id, name, start, end)``; a span opened with no
enclosing span starts a new operation. Counters are kept per operation.
Both stay in memory until ``dump`` or ``write`` hands them out at the end
of a run, and ``summarize`` turns them into the per-layer metrics.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time
from collections import defaultdict

# The layers, named after the package's modules; a span's layer is the part
# of its name before the first dot.
LAYERS = ("series", "decompose", "stat_features", "tda", "selection",
          "sarimax", "forecasters", "pipeline", "service")


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self.counts: dict[tuple, float] = defaultdict(float)  # (op_id, name) -> sum
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patched: list[tuple] = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def inside(self, name: str) -> bool:
        """Whether the calling thread is inside a span called ``name``."""
        return any(entry[2] == name for entry in self._stack())

    def count(self, name: str, amount: float = 1.0) -> None:
        """Add to a counter of the calling thread's current operation."""
        stack = self._stack()
        op = stack[-1][1] if stack else 0
        with self._lock:
            self.counts[(op, name)] += amount

    def wrap(self, fn, name: str, on_result=None):
        """``fn`` recording one span per call. ``on_result(result, args,
        kwargs)`` runs inside the span and may update counters."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            span_id = next(self._ids)
            parent, op = (stack[-1][0], stack[-1][1]) if stack else (0, span_id)
            stack.append((span_id, op, name))
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                if on_result is not None:
                    on_result(result, args, kwargs)
                return result
            finally:
                end = time.perf_counter()
                stack.pop()
                self.spans.append((span_id, parent, op, name, start, end))

        return traced

    def patch(self, owner, attr: str, name: str | None, on_result=None) -> None:
        """Replace ``owner.attr`` by a traced wrapper; with ``name`` None the
        wrapper records no span and only runs ``on_result``."""
        original = getattr(owner, attr)
        self._patched.append((owner, attr, original))
        if name is not None:
            setattr(owner, attr, self.wrap(original, name, on_result))
            return

        @functools.wraps(original)
        def counted(*args, **kwargs):
            result = original(*args, **kwargs)
            on_result(result, args, kwargs)
            return result

        setattr(owner, attr, counted)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def dump(self) -> dict:
        counts = [[op, name, v] for (op, name), v in self.counts.items()]
        return {"counts": counts, "spans": list(self.spans)}

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.dump(), fh)


def install(tracer: Tracer) -> None:
    """Wrap every layer's entry points; ``tracer.uninstall()`` undoes it."""
    from oeeforecast import pipeline, sarimax, service
    from oeeforecast.selection import PsoConfig
    from oeeforecast.tda import extract

    def feature_rows(layer):
        def on_result(result, args, kwargs):
            n = getattr(result, "n_rows", 1)  # window_features returns one row
            tracer.count(f"{layer}.rows", n)
            # rows of the evaluation's forecasts; a repeated forecast has no harness
            if tracer.inside("pipeline.forecast") and tracer.inside("pipeline.harness"):
                tracer.count(f"{layer}.forecast_rows", n)

        return on_result

    def fit_done(result, args, kwargs):
        tracer.count("sarimax.fit.exog_cols", result.spec.n_exog)
        if not result.converged:
            tracer.count("sarimax.fit.nonconverged")

    def minimize_done(result, args, kwargs):
        tracer.count("sarimax.objective_evals", result.nfev)

    def pso_done(result, args, kwargs):
        cfg = kwargs.get("cfg", args[3] if len(args) > 3 else None) or PsoConfig()
        evals = sum(cfg.swarm_size * (run["iterations"] + 1) for run in result.per_run)
        tracer.count("selection.pso.fitness_evals", evals)

    def evaluated(report, args, kwargs):
        tracer.count("pipeline.origins_scored", report.n_forecasts)
        tracer.count("pipeline.origins_skipped", report.n_skipped)

    patch = tracer.patch
    patch(pipeline, "decompose", "decompose")
    patch(service, "decompose", "decompose")
    stat_rows = feature_rows("stat_features")
    patch(pipeline, "window_features", "stat_features.window_features", stat_rows)
    patch(pipeline, "extract_stat_features", "stat_features.extract", stat_rows)
    patch(pipeline, "extract_tda_features", "tda.extract", feature_rows("tda"))
    patch(pipeline, "fit_diagram_scale", "tda.fit_diagram_scale")
    patch(extract, "vr_persistence", "tda.vr_persistence")
    patch(extract, "_vectorize", "tda.vectorize")
    for fname in ("variance_filter", "correlation_filter", "collinearity_prune"):
        patch(pipeline, fname, "selection.filters")
    patch(pipeline, "rfe_sarimax", "selection.rfe")
    patch(pipeline, "pso_bic", "selection.pso", pso_done)
    patch(sarimax, "fit", "sarimax.fit", fit_done)
    patch(sarimax, "apply_params", "sarimax.apply_params")
    patch(sarimax, "forecast", "sarimax.forecast")
    patch(sarimax, "minimize", None, minimize_done)
    patch(pipeline, "ets_fit", "forecasters.ets_fit")
    patch(pipeline, "ets_update", "forecasters.ets_update")
    patch(pipeline, "ets_forecast", "forecasters.ets_forecast")
    patch(pipeline, "seasonal_naive_forecast", "forecasters.seasonal_naive")
    patch(pipeline.DecomposedStrategy, "refit", "pipeline.refit")
    patch(pipeline.DecomposedStrategy, "forecast", "pipeline.forecast")
    patch(pipeline.DecomposedStrategy, "train_one_step", "pipeline.train_one_step")
    # rolling_forecast's own time is the rolling-origin harness loop
    patch(pipeline, "rolling_forecast", "pipeline.harness", evaluated)
    patch(service, "rolling_forecast", "pipeline.harness", evaluated)
    patch(service, "load_csv", "series.load_csv")
    patch(service._EquipmentCache, "entry", "service.entry")
    patch(service._Handler, "do_GET", "service.request")


def since(dump: dict, start: float) -> dict:
    """The operations of ``dump`` that began at or after ``start``.

    perf_counter reads the system's monotonic clock, so a start taken in
    the benchmark process filters spans recorded in the server process."""
    ops = {s[0] for s in dump["spans"] if not s[1] and s[4] >= start}
    return {"counts": [c for c in dump["counts"] if c[0] in ops],
            "spans": [s for s in dump["spans"] if s[2] in ops]}


def self_times(spans) -> dict[int, float]:
    """Span id -> its duration minus the time its child spans cover."""
    own = {s[0]: s[5] - s[4] for s in spans}
    for s in spans:
        if s[1]:
            own[s[1]] -= s[5] - s[4]
    return own


def summarize(dump: dict, ops_wall_s: float, work_per_s: float) -> dict[str, float]:
    """Per-layer metrics from one run's spans and counters.

    ``ops_wall_s`` is the wall time of the run's operations as the benchmark
    timed them, ``work_per_s`` the throughput measured with tracing on.
    """
    spans, counters = dump["spans"], defaultdict(float)
    for _op, name, amount in dump["counts"]:
        counters[name] += amount
    own = self_times(spans)
    by_id = {s[0]: s for s in spans}
    calls, self_s = defaultdict(int), defaultdict(float)
    for s in spans:
        calls[s[3]] += 1
        self_s[s[3]] += own[s[0]]

    def layer_self(prefix):
        return sum(v for k, v in self_s.items() if k == prefix or k.startswith(prefix + "."))

    def fits_under(stage):
        n = 0
        for s in spans:
            if s[3] != "sarimax.fit":
                continue
            parent = s[1]
            while parent:
                if by_id[parent][3] == stage:
                    n += 1
                    break
                parent = by_id[parent][1]
        return n

    def ratio(num, den):
        return num / den if den else 0.0

    loaders = {s[1] for s in spans if s[3] == "series.load_csv"}
    rebuilds = [s for s in spans if s[3] == "service.entry" and s[0] in loaders]
    origins = counters["pipeline.origins_scored"]
    n_fits = calls["sarimax.fit"]
    pso_evals = counters["selection.pso.fitness_evals"]
    pso_fits = fits_under("selection.pso")
    roots_wall = sum(s[5] - s[4] for s in spans if not s[1])
    return {
        "stat_features.rows": counters["stat_features.rows"],
        "stat_features.self_s": layer_self("stat_features"),
        "stat_features.rows_per_origin": ratio(counters["stat_features.forecast_rows"], origins),
        "tda.rows": counters["tda.rows"],
        "tda.self_s": layer_self("tda"),
        "tda.vr_persistence.calls": calls["tda.vr_persistence"],
        "tda.vr_persistence.self_s": self_s["tda.vr_persistence"],
        "tda.vectorize.self_s": self_s["tda.vectorize"],
        "tda.rows_per_origin": ratio(counters["tda.forecast_rows"], origins),
        "sarimax.fit.calls": n_fits,
        "sarimax.fit.self_s": self_s["sarimax.fit"],
        "sarimax.fit.nonconverged": counters["sarimax.fit.nonconverged"],
        "sarimax.fit.exog_cols_mean": ratio(counters["sarimax.fit.exog_cols"], n_fits),
        "sarimax.objective_evals": counters["sarimax.objective_evals"],
        "sarimax.evals_per_fit": ratio(counters["sarimax.objective_evals"], n_fits),
        "sarimax.apply_params.calls": calls["sarimax.apply_params"],
        "sarimax.apply_params.self_s": self_s["sarimax.apply_params"],
        "sarimax.forecast.self_s": self_s["sarimax.forecast"],
        "selection.filters.self_s": self_s["selection.filters"],
        "selection.rfe.fits": fits_under("selection.rfe"),
        "selection.pso.fitness_evals": pso_evals,
        "selection.pso.fits": pso_fits,
        "selection.pso.cache_hit_ratio": ratio(pso_evals - pso_fits, pso_evals),
        "decompose.calls": calls["decompose"],
        "decompose.self_s": self_s["decompose"],
        "forecasters.ets_fit.self_s": self_s["forecasters.ets_fit"],
        "series.load_csv.calls": calls["series.load_csv"],
        "series.load_csv.self_s": self_s["series.load_csv"],
        "service.rebuilds": len(rebuilds),
        "service.rebuild_s": sum(s[5] - s[4] for s in rebuilds),
        "service.cache_hit_ratio": ratio(calls["service.entry"] - len(rebuilds),
                                         calls["service.entry"]),
        "service.entry.self_s": self_s["service.entry"],  # mostly waiting for a rebuild
        "service.request.self_s": self_s["service.request"],
        "pipeline.refit.self_s": self_s["pipeline.refit"],
        "pipeline.forecast.self_s": self_s["pipeline.forecast"],
        "pipeline.harness.self_s": self_s["pipeline.harness"],
        "pipeline.origins_scored": origins,
        "pipeline.origins_skipped": counters["pipeline.origins_skipped"],
        "trace.spans": len(spans),
        "trace.ops_wall_s": ops_wall_s,
        "trace.accounted_ratio": ratio(roots_wall, ops_wall_s),
        "trace.work_per_s": work_per_s,
    }



def layer_table(dump: dict) -> dict[str, float]:
    """Self seconds per layer; they sum to the traced operations' wall time."""
    own = self_times(dump["spans"])
    table = dict.fromkeys(LAYERS, 0.0)
    for s in dump["spans"]:
        table[s[3].split(".")[0]] += own[s[0]]
    return table
