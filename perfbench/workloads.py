"""The benchmark workloads.

Each ``measure_*`` function runs one workload from one process, checks
every output, and returns a ``Measurement``. Operations are never
interrupted. A rolling or refit run makes its evaluations or selection
refits once, then repeats one short operation from the fitted state for
``seconds`` of its own time, and at least a set number of times; the
service clients send for ``seconds`` and wait for their last answer.

``Measurement.op_ms`` holds the times of the repeated operation, whose
fastest is the bounded ``op_ms.min``: a one-hour-ahead forecast 12 hours
after the refit (rolling and refit), one request on a kept-alive
connection (service).
"""

from __future__ import annotations

import http.client
import json
import math
import random
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from datetime import datetime, timedelta
from pathlib import Path

import numpy as np

import checkout
import inputs

REFERENCE = json.loads((checkout.BENCH_DIR / "reference.json").read_text(encoding="utf-8"))
REL_TOL = 1e-6  # stored MAEs are compared to this relative tolerance

# Test span of rolling_statistical: one whole refit interval (README
# defaults would take over two minutes per evaluation).
STAT_ORIGINS = 24
# The operation repeated after the rolling_statistical evaluation and the
# refit_select selection refit: the fitted model's one-hour-ahead forecast
# HOURS_AFTER_REFIT hours after its refit (the middle of the 24 origins),
# made at least REPEATS times. Timings of one short call, repeated, give a
# fastest time that other tenants of the machine move far less than a long
# one; README.md, "Why the fastest time", has the measurements.
HOURS_AFTER_REFIT = 12
REPEATS = 150
# refit_select makes the selection refit (RFE and PSO) of these stand-ins;
# reference.json holds all three.
REFIT_IDS = ("gh2",)
SERVICE_IDS = ("gh2", "h2", "gm2")

# Service traffic. The repository holds no request log, so the numbers
# below are assumptions; README.md, "Service traffic", says what each one is
# chosen to exercise.
# Share of each kind of request; forecast horizons and ids are uniform.
REQUEST_MIX = {"listing": 0.1, "forecast": 0.7, "decomposition": 0.2}
# Requests per hour of data, all clients together: each id is asked about
# 25 times per hour, once every 2.4 minutes, as by a dashboard refreshing one
# panel per id. Every id gets one new row per hour, the ids' rows spread
# evenly through the hour, so one row arrives every 75 / 3 = 25 requests.
REQUESTS_PER_HOUR = 75
APPEND_EVERY = REQUESTS_PER_HOUR // len(SERVICE_IDS)
NEW_ROWS = 500  # distinct appended values per id; a run appends far fewer
MAX_HORIZON = 8
TAIL_POINTS = 168
SERIES_START = datetime(2000, 1, 1)  # start of a CSV without timestamps
FORECAST_FIELDS = {"id", "origin", "horizon", "values", "model_label", "mae_backtest"}
COMPONENTS = {"trend", "seasonal_8", "seasonal_24", "seasonal_168", "residual"}


@dataclass
class Measurement:
    attempted: int = 0
    failed: int = 0
    mismatches: list = field(default_factory=list)  # failed output checks
    errors: list = field(default_factory=list)  # exception texts
    work: float = 0.0  # origins, refits or requests completed and checked
    wall_s: float = 0.0  # wall time of the counted work
    op_ms: list = field(default_factory=list)  # wall time of each repeated operation
    eval_ms: list = field(default_factory=list)  # of each rolling evaluation
    latency_ms: list = field(default_factory=list)  # of every service request
    cold_ms: list = field(default_factory=list)  # of refits, or of requests that rebuilt
    forecast_ms: list = field(default_factory=list)  # of each origin's forecast
    started_at: float = 0.0  # perf_counter when the measured loop began
    trace: dict | None = None  # spans and counters of a traced run
    notes: list = field(default_factory=list)  # printed with the result
    mae: dict = field(default_factory=dict)  # stand-in -> MAE of its last evaluation

    def fail(self, text: str, mismatch: bool) -> None:
        self.failed += 1
        (self.mismatches if mismatch else self.errors).append(text)


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= REL_TOL * max(1.0, abs(b))


# ---------------------------------------------------------------------------
# rolling-origin evaluations


class TimedStrategy:
    """Forwards to a strategy and times its refits and forecasts."""

    def __init__(self, inner):
        self.inner = inner
        self.label = inner.label
        self.refit_ms: list[float] = []
        self.forecast_ms: list[float] = []

    def refit(self, past):
        t0 = time.perf_counter()
        self.inner.refit(past)
        self.refit_ms.append((time.perf_counter() - t0) * 1e3)

    def forecast(self, past, horizon):
        t0 = time.perf_counter()
        values = self.inner.forecast(past, horizon)
        self.forecast_ms.append((time.perf_counter() - t0) * 1e3)
        return values

    def train_one_step(self, train):
        return self.inner.train_one_step(train)


def _repeat(m: Measurement, label: str, op, seconds: float, at_least: int, pauses: list) -> None:
    """Time ``op()`` for ``seconds`` of its own time and at least
    ``at_least`` times.

    ``op`` returns None when its output is right, else what is wrong; each
    call is an attempted operation. The callables in ``pauses`` (the run's
    set-ups) are taken out and run between calls, evenly through the
    ``seconds``, untimed: they widen the stretch of the run the repeats are
    drawn from, so that one spell of contention is less likely to cover it.
    """
    every = seconds / (len(pauses) + 1)
    start = time.perf_counter()
    paused = 0.0
    taken = 0
    done = 0
    while True:
        busy = time.perf_counter() - start - paused
        if pauses and busy >= every * (taken + 1):
            t0 = time.perf_counter()
            pauses.pop(0)()
            paused += time.perf_counter() - t0
            taken += 1
            continue
        if done >= at_least and busy >= seconds:
            break
        done += 1
        m.attempted += 1
        t0 = time.perf_counter()
        try:
            problem = op()
        except Exception as exc:
            m.fail(f"{label}: {type(exc).__name__}: {exc}", False)
            continue
        m.op_ms.append((time.perf_counter() - t0) * 1e3)
        if problem is not None:
            m.fail(f"{label}: {problem}", True)
    m.notes.append(f"{label}: {done} repeats")


def _rolling_config(workload: str, n: int):
    from oeeforecast.pipeline import PipelineConfig

    if workload == "rolling_statistical":
        return PipelineConfig(
            feature_mode="statistical",
            selection_mode="none",
            test_fraction=(STAT_ORIGINS - 0.5) / n,
        )
    return PipelineConfig(feature_mode="topological")


def _rolling_names(workload: str):
    return ("gh2",) if workload == "rolling_statistical" else SERVICE_IDS


def _report_problem(workload: str, name: str, report, n: int, cfg) -> str | None:
    """What is wrong with a rolling evaluation's report, or None."""
    origins = n - math.floor(n * (1.0 - cfg.test_fraction))
    preds = np.array([r[3] for r in report.records])
    if not (np.all(np.isfinite(preds)) and preds.min() >= 1.0 and preds.max() <= 60.0):
        return f"{name}: forecasts outside [1, 60] or not finite"
    if report.n_forecasts + report.n_skipped != origins:
        return (f"{name}: {report.n_forecasts} forecasts + {report.n_skipped} skipped "
                f"!= {origins} origins")
    ref = REFERENCE[workload].get(name)
    got = {"mae": report.mae, "n_forecasts": report.n_forecasts, "n_skipped": report.n_skipped}
    if ref is not None and not (_close(got["mae"], ref["mae"])
                                and got["n_forecasts"] == ref["n_forecasts"]
                                and got["n_skipped"] == ref["n_skipped"]):
        return f"{name}: got {got}, reference {ref}"
    return None


def _repeat_forecast(strategy, ts, report, cfg, m: Measurement, seconds: float,
                     at_least: int, pauses: list) -> None:
    """Forecast one hour ahead again HOURS_AFTER_REFIT hours after the
    evaluation's first origin, where it refit; every answer must equal the
    evaluation's own."""
    origin = math.floor(len(ts) * (1.0 - cfg.test_fraction)) - 1 + HOURS_AFTER_REFIT
    expected = [r[3] for r in report.records if r[0] == origin and r[1] == 1]
    if not expected:
        m.notes.append(f"{ts.name}: origin {origin} was skipped, no repeats")
        return
    past = ts.slice(0, origin + 1)

    def op():
        values = strategy.forecast(past, 1)
        if list(map(float, values)) != expected:
            return f"gave {list(values)}, the evaluation {expected}"
        return None

    _repeat(m, f"{ts.name}: forecast at origin {origin}", op, seconds, at_least, pauses)


def measure_rolling(workload: str, seconds: float, traced: bool, pauses: list) -> Measurement:
    """One rolling evaluation of each stand-in, each followed by
    ``seconds`` of repeats of a forecast from it, with ``pauses`` run
    among them (see ``_repeat``); a traced run makes one repeat, so that
    its trace shows the repeated call's layers.

    rolling_topological, which is not a benchmark workload, makes no
    repeats, so that its failed_ratio counts evaluations alone."""
    from oeeforecast import pipeline
    from oeeforecast.series import TimeSeries

    m = Measurement()
    seconds, at_least = (0.0, 1) if traced else (seconds, REPEATS)
    for name in _rolling_names(workload):
        ts = TimeSeries(inputs.stand_in(name), name=name)
        cfg = _rolling_config(workload, len(ts))
        strategy = TimedStrategy(pipeline.DecomposedStrategy(cfg))
        m.attempted += 1
        t0 = time.perf_counter()
        try:
            report = pipeline.rolling_forecast(cfg, series=ts, strategy=strategy)
        except Exception as exc:  # a failed evaluation is a failed operation
            m.fail(f"{name}: {type(exc).__name__}: {exc}", False)
            report = None
        m.eval_ms.append((time.perf_counter() - t0) * 1e3)
        m.forecast_ms += strategy.forecast_ms
        m.cold_ms += strategy.refit_ms
        if report is None:
            continue
        m.mae[name] = report.mae
        m.notes.append(f"{name}: mae {report.mae!r} n_forecasts {report.n_forecasts} "
                       f"n_skipped {report.n_skipped}")
        problem = _report_problem(workload, name, report, len(ts), cfg)
        if problem is None:
            m.work += report.n_forecasts
        else:
            m.fail(problem, True)
        if workload == "rolling_statistical":
            _repeat_forecast(strategy.inner, ts, report, cfg, m, seconds, at_least, pauses)
    m.wall_s = sum(m.eval_ms) / 1e3
    return m


# ---------------------------------------------------------------------------
# selection refits


def measure_refit_select(seconds: float, traced: bool, pauses: list) -> Measurement:
    """A selection refit of each of REFIT_IDS, each followed by ``seconds``
    of repeats of a forecast from it, with ``pauses`` run among them; one
    repeat when ``traced``."""
    from oeeforecast.pipeline import DecomposedStrategy, PipelineConfig
    from oeeforecast.series import TimeSeries

    cfg = PipelineConfig(feature_mode="topological", selection_mode="rfe+pso")
    m = Measurement()
    seconds, at_least = (0.0, 1) if traced else (seconds, REPEATS)
    for name in REFIT_IDS:
        values = inputs.stand_in(name)
        split = math.floor(values.size * (1.0 - cfg.test_fraction))
        train = TimeSeries(values, name=name).slice(0, split)
        m.attempted += 1
        t0 = time.perf_counter()
        try:
            strategy = DecomposedStrategy(cfg)
            strategy.refit(train)
        except Exception as exc:
            m.cold_ms.append((time.perf_counter() - t0) * 1e3)
            m.fail(f"{name}: {type(exc).__name__}: {exc}", False)
            continue
        m.cold_ms.append((time.perf_counter() - t0) * 1e3)
        kept = list(strategy.selection_reports[-1].kept_columns)
        pso = strategy.pso_result  # None when selection left one column
        best = list(pso.best_subset) if pso is not None else []
        m.notes.append(f"{name}: kept {kept} best_subset {best}")
        ref = REFERENCE["refit_select"].get(name)
        if not kept or not set(best) <= set(kept):
            m.fail(f"{name}: best subset {best} not within kept columns {kept}", True)
            continue
        if ref is not None and (kept, best) != (ref["kept"], ref["best_subset"]):
            m.fail(f"{name}: got kept {kept} best {best}, reference {ref}", True)
            continue
        m.work += 1
        past = TimeSeries(values, name=name).slice(0, split + HOURS_AFTER_REFIT)
        first = []  # the first call's forecast, which every later one must equal

        def op(strategy=strategy, past=past, first=first):
            got = list(map(float, strategy.forecast(past, 1)))
            if not first:
                first += got
                if not all(math.isfinite(v) and 1.0 <= v <= 60.0 for v in got):
                    return f"forecast {got} outside [1, 60] or not finite"
            return None if got == first else f"gave {got}, the first call {first}"

        _repeat(m, f"{name}: forecast {HOURS_AFTER_REFIT} h after the refit", op, seconds,
                at_least, pauses)
    m.wall_s = sum(m.cold_ms) / 1e3
    return m


# ---------------------------------------------------------------------------
# HTTP service under new data


class Server:
    """The forecast service in its own process, started by serve.py."""

    def __init__(self, registry: Path, trace_path: Path | None):
        cmd = [sys.executable, str(checkout.BENCH_DIR / "serve.py"), "--registry", str(registry)]
        if trace_path is not None:
            cmd += ["--trace-out", str(trace_path)]
        self.proc = subprocess.Popen(
            cmd, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
            env=checkout.child_env(), cwd=checkout.ROOT,
        )
        try:
            line = self.proc.stdout.readline()
            if not line.startswith("port "):
                raise RuntimeError(f"service did not start: {line!r}")
            self.port = int(line.split()[1])
            conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=60)
            try:
                conn.request("GET", "/")  # any answer shows the server is serving
                conn.getresponse().read()
            finally:
                conn.close()
        except BaseException:
            self.stop()
            raise

    def stop(self) -> None:
        """Close the server's stdin, which shuts it down, and wait for it."""
        try:
            self.proc.stdin.close()
            self.proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        finally:
            self.proc.stdout.close()


def write_service_inputs(workdir: Path) -> dict:
    datasets = {}
    for eid in SERVICE_IDS:
        datasets[eid] = workdir / f"{eid}.csv"
        inputs.write_csv(datasets[eid], inputs.stand_in(eid))
    inputs.write_registry(workdir / "registry.conf", datasets)
    return datasets


def start_service(workdir: Path, trace_path: Path | None = None) -> Server:
    write_service_inputs(workdir)
    return Server(workdir / "registry.conf", trace_path)


class _Traffic:
    """Shared state of the two closed-loop clients.

    Rows arrive on a request schedule: once APPEND_EVERY requests have been
    sent since the last append and the rebuild it caused has finished, the
    next request first appends one row to the next CSV in turn. Waiting for
    the rebuild stretches the simulated hour; in exchange rebuilds never
    overlap, and each one is timed alone.
    """

    def __init__(self, datasets: dict, seed: int, deadline: float):
        self.datasets = datasets
        self.deadline = deadline
        self.lock = threading.Lock()
        self.since_append = 0
        self.appends = 0
        self.rows = {eid: inputs.STAND_INS[eid][0] for eid in SERVICE_IDS}
        self.stale = None  # id whose CSV changed and which nobody asked for yet
        self.cold_pending = False  # a request that rebuilds is in flight
        self.tails = {eid: inputs.new_rows(eid, seed, NEW_ROWS) for eid in SERVICE_IDS}
        # (answered at, latency_ms, cold, first on its connection,
        #  problem or None, problem is a bad body)
        self.results = []

    def next_request(self, rng: random.Random):
        """(path, id or None, whether it rebuilds, row counts when sent)."""
        u = rng.random()
        eid = rng.choice(SERVICE_IDS)
        if u < REQUEST_MIX["listing"]:
            path, eid = "/equipment", None
        elif u < REQUEST_MIX["listing"] + REQUEST_MIX["forecast"]:
            path = f"/equipment/{eid}/forecast?horizon={rng.randint(1, MAX_HORIZON)}"
        else:
            path = f"/equipment/{eid}/decomposition"
        with self.lock:
            self.since_append += 1
            if (self.since_append >= APPEND_EVERY and self.stale is None
                    and not self.cold_pending):
                target = SERVICE_IDS[self.appends % len(SERVICE_IDS)]
                added = self.rows[target] - inputs.STAND_INS[target][0]
                inputs.append_row(self.datasets[target], self.tails[target][added % NEW_ROWS])
                self.appends += 1
                self.since_append = 0
                self.rows[target] += 1
                self.stale = target
            cold = eid is not None and eid == self.stale
            if cold:
                self.stale, self.cold_pending = None, True
            return path, eid, cold, dict(self.rows)

    def done(self, cold: bool) -> dict:
        """Row counts when an answer arrived; ends the rebuild of a cold one."""
        with self.lock:
            if cold:
                self.cold_pending = False
            return dict(self.rows)


def _stamp(rows: int) -> str:
    return (SERIES_START + timedelta(hours=rows - 1)).isoformat()


def check_body(path: str, eid, body: bytes, before: dict, after: dict):
    """None when a 200 response is right, else what is wrong with it.

    ``before`` and ``after`` are the row counts of each CSV when the request
    was sent and when its answer arrived; a fresh answer reflects one of them.
    """
    doc = json.loads(body)

    def fresh(e, stamp):
        return stamp in {_stamp(r) for r in range(before[e], after[e] + 1)}

    if eid is None:
        listing = doc.get("equipment")
        if not isinstance(listing, list) or [d.get("id") for d in listing] != sorted(SERVICE_IDS):
            return f"{path}: bad listing {doc!r:.200}"
        for d in listing:
            if set(d) != {"id", "last_timestamp"} or not fresh(d["id"], d["last_timestamp"]):
                return f"{path}: stale or malformed entry {d!r}"
        return None
    if path.endswith("/decomposition"):
        comps = doc.get("components", {})
        if set(doc) != {"id", "components"} or doc["id"] != eid or set(comps) != COMPONENTS:
            return f"{path}: fields {sorted(doc)} components {sorted(comps)}"
        for name, tail in comps.items():
            if len(tail) != TAIL_POINTS or not all(math.isfinite(v) for v in tail):
                return f"{path}: component {name} has {len(tail)} points or non-finite values"
        return None
    horizon = int(path.rsplit("=", 1)[1])
    values = doc.get("values", [])
    if set(doc) != FORECAST_FIELDS or doc["id"] != eid or doc["horizon"] != horizon:
        return f"{path}: fields {sorted(doc)}"
    if len(values) != horizon or not all(math.isfinite(v) and 1.0 <= v <= 60.0 for v in values):
        return f"{path}: values {values}"
    if not fresh(eid, doc["origin"]):
        return f"{path}: origin {doc['origin']} is not the last observed hour"
    if not math.isfinite(doc["mae_backtest"]):
        return f"{path}: mae_backtest {doc['mae_backtest']}"
    return None


def _client(traffic: _Traffic, port: int, rng: random.Random) -> None:
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=120)
    try:
        while time.perf_counter() < traffic.deadline:
            path, eid, cold, before = traffic.next_request(rng)
            first = conn.sock is None  # http.client connects on this request
            t0 = time.perf_counter()
            try:
                conn.request("GET", path)
                resp = conn.getresponse()
                body = resp.read()
            except (OSError, http.client.HTTPException) as exc:
                answered = time.perf_counter()
                traffic.done(cold)
                problem = f"{path}: {type(exc).__name__}: {exc}"
                traffic.results.append((answered, (answered - t0) * 1e3, cold, first,
                                        problem, False))
                conn.close()
                conn = http.client.HTTPConnection("127.0.0.1", port, timeout=120)
                continue
            answered = time.perf_counter()
            after = traffic.done(cold)
            if resp.status != 200:
                problem, bad_body = f"{path}: status {resp.status}: {body[:200]!r}", False
            else:
                try:
                    problem = check_body(path, eid, body, before, after)
                except (ValueError, KeyError, TypeError, AttributeError) as exc:
                    problem = f"{path}: malformed body ({type(exc).__name__}: {exc})"
                bad_body = True
            traffic.results.append((answered, (answered - t0) * 1e3, cold, first,
                                    problem, bad_body))
    finally:
        conn.close()


def fill_cache(server: Server) -> None:
    """Fit every id once, as the first requests after a start do."""
    conn = http.client.HTTPConnection("127.0.0.1", server.port, timeout=120)
    try:
        for eid in SERVICE_IDS:
            conn.request("GET", f"/equipment/{eid}/decomposition")
            resp = conn.getresponse()
            body = resp.read()
            if resp.status != 200:
                raise RuntimeError(f"filling the cache of {eid}: {resp.status} {body[:200]!r}")
    finally:
        conn.close()


def run_traffic(server: Server, datasets: dict, seed: int, seconds: float) -> Measurement:
    """Two closed-loop clients for ``seconds`` against a filled cache,
    appending rows on schedule.

    Every answer is checked and timed; the work rate counts the correct
    answers that arrived within the ``seconds`` window, so a rebuild still
    running at its end does not stretch the window. ``op_ms`` leaves out the
    first request on each connection: Linux acknowledges a new connection's
    first segments at once, so that request skips the delayed-ACK wait that
    every later one pays (README.md, "Baseline")."""
    fill_cache(server)
    start = time.perf_counter()
    traffic = _Traffic(datasets, seed, start + seconds)
    clients = [
        threading.Thread(target=_client, args=(traffic, server.port, random.Random(seed * 2 + i)))
        for i in range(2)
    ]
    for c in clients:
        c.start()
    for c in clients:
        c.join()
    m = Measurement(started_at=start, wall_s=seconds)
    for answered, latency, cold, first, problem, bad_body in traffic.results:
        m.attempted += 1
        m.latency_ms.append(latency)
        if not first:
            m.op_ms.append(latency)
        if cold:
            m.cold_ms.append(latency)
        if problem is not None:
            m.fail(problem, bad_body)
        elif answered <= traffic.deadline:
            m.work += 1
    m.notes.append(f"{traffic.appends} rows appended, {len(m.cold_ms)} cold requests")
    return m
