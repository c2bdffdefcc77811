"""Read-only HTTP forecast service over registered equipment CSV files.

Endpoints (JSON bodies, frozen field names):

    GET /equipment
        {"equipment": [{"id": ..., "last_timestamp": ...}, ...]}
    GET /equipment/<id>/forecast?horizon=H        (H in 1..8, default 4)
        {"id", "origin", "horizon", "values", "model_label", "mae_backtest"}
    GET /equipment/<id>/decomposition
        {"id", "components": {"trend": [...], "seasonal_<p>": [...],
         "residual": [...]}}    (component tails, last 168 points)
    GET /healthz
        {"equipment": [{"id", "cached", "fit_age_s", "rebuild_s":
         {"refit", "backtest", "decomposition"}, "refit_failures"}, ...]}
        (the last four are null until the id's first fit; reads no CSV and
         waits for no rebuild)

Unknown ids give 404, malformed horizons 400, pipeline failures 500 with a
diagnostic id. Path segments are percent-decoded, so an id with a space is
``my%20line``. Each id's answers are cached against its file's
modification stamp: a rebuild reads the CSV, refits the served model and
forecasts its MAX_HORIZON hours, runs the backtest and decomposes, then
publishes a plain dict that never changes afterwards. The listing reads a
file only when its stamp differs from the cached one. The registered files
are only ever opened for reading.

Each request writes one line to stderr once its answer has been sent:

    <method> <path> <status> <ms>ms <cached|rebuilt|->

``rebuilt`` when the fit it used was built while the request waited,
``cached`` when it was already built, ``-`` when the request used no fit.
Answers are not held back by Nagle's algorithm waiting for the client's
delayed ACK: an answer up to 8 KB leaves in one buffered send, and larger
ones go out with TCP_NODELAY.

The service runs on numpy alone: no rebuild or request loads scipy.
"""

from __future__ import annotations

import json
import os
import sys
import threading
import time
import traceback
import uuid
from dataclasses import replace
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from urllib.parse import parse_qs, unquote, urlparse

from .decompose import decompose
from .pipeline import (
    ConfigError,
    DecomposedStrategy,
    PipelineConfig,
    coerce_config_value,
    read_settings,
    rolling_forecast,
)
from .series import load_csv

MAX_HORIZON = 8
TAIL_POINTS = 168


def load_registry(path) -> dict[str, PipelineConfig]:
    """Key-value registry: lines of '<id>.<field> = <value>'.

    '<id>.dataset' is required and must name a regular file; other fields
    override the default pipeline configuration for that equipment, with
    the coercions of a config file. Every error is a ConfigError naming
    the file, line and key.
    """
    entries: dict[str, PipelineConfig] = {}
    first_line: dict[str, str] = {}
    for where, key, value in read_settings(path):
        eid, _, name = key.partition(".")
        label = f"{where}: {key}"
        if not eid or not name:
            raise ConfigError(f"{label}: expected '<id>.<field> = <value>'")
        if name == "dataset" and not os.path.isfile(value):
            raise ConfigError(f"{label}: dataset path {value!r} not found or not a regular file")
        coerced = coerce_config_value(name, value, label)
        first_line.setdefault(eid, where)
        try:
            entries[eid] = replace(entries.get(eid, PipelineConfig()), **{name: coerced})
        except ValueError as exc:
            raise ConfigError(f"{label}: {exc}") from None
    for eid, where in first_line.items():
        if not entries[eid].dataset:
            raise ConfigError(f"{where}: {eid}: missing required '{eid}.dataset'")
    return dict(sorted(entries.items()))


class _EquipmentCache:
    """Each id's answers, rebuilt when its file's modification stamp moves."""

    def __init__(self, registry: dict[str, PipelineConfig]):
        self.registry = registry
        self._locks = {eid: threading.Lock() for eid in registry}
        self._cached: dict[str, dict] = {}

    def ids(self):
        return sorted(self.registry)

    def entry(self, eid: str):
        """The id's answers for its file as it is now. The dict returned is
        finished when it is published and is never changed afterwards."""
        cfg = self.registry.get(eid)
        if cfg is None:
            raise KeyError(eid)
        with self._locks[eid]:
            # stamped under the lock: a stamp read before waiting for
            # another request's rebuild could be older than the data that
            # rebuild cached, and would tag a second rebuild's newer data
            # with it
            mtime = os.stat(cfg.dataset).st_mtime_ns
            hit = self._cached.get(eid)
            if hit is not None and hit["mtime"] == mtime:
                return hit
            t0 = time.perf_counter()
            series = load_csv(
                cfg.dataset, cfg.value_column, timestamp_column=cfg.timestamp_column, name=eid
            )
            strategy = DecomposedStrategy(cfg)
            strategy.refit(series)
            forecast = [float(v) for v in strategy.forecast(series, MAX_HORIZON)]
            t1 = time.perf_counter()
            backtest = rolling_forecast(cfg, series=series)
            t2 = time.perf_counter()
            d = decompose(series, cfg.periods)
            tails = {"trend": [float(v) for v in d.trend.values[-TAIL_POINTS:]]}
            for p in cfg.periods:
                tails[f"seasonal_{p}"] = [float(v) for v in d.seasonal[p].values[-TAIL_POINTS:]]
            tails["residual"] = [float(v) for v in d.residual.values[-TAIL_POINTS:]]
            t3 = time.perf_counter()
            hit = {
                "mtime": mtime,
                "origin": series.end.isoformat(),
                "model_label": strategy.label,
                "mae_backtest": backtest.mae,
                "forecast": forecast,  # a horizon H answers the first H
                "tails": tails,
                "built_at": t3,
                # the refit's share includes reading the CSV and the forecast
                "rebuild_s": {"refit": t1 - t0, "backtest": t2 - t1, "decomposition": t3 - t2},
                "refit_failures": [list(f) for f in backtest.refit_failures],
            }
            self._cached[eid] = hit
            return hit

    def last_timestamp(self, eid: str) -> str:
        """The id's last observed hour: the cached one while the file's stamp
        matches, otherwise read from the file (without a rebuild)."""
        cfg = self.registry[eid]
        hit = self._cached.get(eid)
        if hit is not None and hit["mtime"] == os.stat(cfg.dataset).st_mtime_ns:
            return hit["origin"]
        series = load_csv(cfg.dataset, cfg.value_column, timestamp_column=cfg.timestamp_column)
        return series.end.isoformat()

    def health(self) -> list[dict]:
        """Per id: whether its next answer comes from the cache, and the age,
        time split and backtest refit failures of its last fit (None before
        the first). Reads no CSV and waits for no rebuild."""
        now = time.perf_counter()
        report = []
        for eid in self.ids():
            hit = self._cached.get(eid)
            try:
                mtime = os.stat(self.registry[eid].dataset).st_mtime_ns
            except OSError:  # the file was removed: no answer comes from the cache
                mtime = None
            report.append({
                "id": eid,
                "cached": hit is not None and hit["mtime"] == mtime,
                "fit_age_s": None if hit is None else now - hit["built_at"],
                "rebuild_s": None if hit is None else hit["rebuild_s"],
                "refit_failures": None if hit is None else hit["refit_failures"],
            })
        return report


class _Handler(BaseHTTPRequestHandler):
    server_version = "oeeforecast"
    protocol_version = "HTTP/1.1"
    # The pairing socketserver.StreamRequestHandler names: a buffered writer,
    # so the headers and body of an answer up to 8 KB leave in one send, and
    # TCP_NODELAY for the larger ones, whose body would otherwise wait for the
    # client's delayed ACK of the headers.
    wbufsize = -1
    disable_nagle_algorithm = True

    def handle_one_request(self):
        """Serve one request, then write its log line once the answer is sent."""
        self._status, self._source, self.path = None, "-", ""
        self._started = time.perf_counter()
        super().handle_one_request()
        if self._status is not None:
            self.wfile.flush()  # the stdlib's send_error replies return unflushed
            ms = (time.perf_counter() - self._started) * 1e3
            # one write, so lines from concurrent requests cannot interleave
            sys.stderr.write(
                f"{self.command} {self.path} {self._status} {ms:.2f}ms {self._source}\n"
            )

    def parse_request(self):
        self._started = time.perf_counter()  # the request line has arrived
        return super().parse_request()

    def log_request(self, code="-", size="-"):
        self._status = int(code)  # logged by handle_one_request after the flush

    def log_message(self, fmt, *args):
        pass  # the stdlib's notices; each request's line is handle_one_request's

    def _used(self, hit: dict):
        """Note for the log line whether ``hit`` was built during this request."""
        self._source = "rebuilt" if hit["built_at"] > self._started else "cached"

    def _send(self, status: int, doc: dict):
        body = json.dumps(doc).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def do_GET(self):
        cache: _EquipmentCache = self.server.cache  # type: ignore[attr-defined]
        url = urlparse(self.path)
        parts = [unquote(p) for p in url.path.split("/") if p]
        try:
            if parts == ["equipment"]:
                listing = [
                    {"id": eid, "last_timestamp": cache.last_timestamp(eid)}
                    for eid in cache.ids()
                ]
                self._send(200, {"equipment": listing})
                return

            if parts == ["healthz"]:
                self._send(200, {"equipment": cache.health()})
                return

            if len(parts) == 3 and parts[0] == "equipment":
                eid, leaf = parts[1], parts[2]
                if eid not in cache.registry:
                    self._send(404, {"error": f"unknown equipment id {eid!r}"})
                    return
                if leaf == "forecast":
                    q = parse_qs(url.query)
                    raw = q.get("horizon", ["4"])[0]
                    try:
                        horizon = int(raw)
                    except ValueError:
                        self._send(400, {"error": f"horizon must be an integer, got {raw!r}"})
                        return
                    if not (1 <= horizon <= MAX_HORIZON):
                        self._send(
                            400, {"error": f"horizon must be in 1..{MAX_HORIZON}, got {horizon}"}
                        )
                        return
                    hit = cache.entry(eid)
                    self._used(hit)
                    self._send(
                        200,
                        {
                            "id": eid,
                            "origin": hit["origin"],
                            "horizon": horizon,
                            "values": hit["forecast"][:horizon],
                            "model_label": hit["model_label"],
                            "mae_backtest": hit["mae_backtest"],
                        },
                    )
                    return
                if leaf == "decomposition":
                    hit = cache.entry(eid)
                    self._used(hit)
                    self._send(200, {"id": eid, "components": hit["tails"]})
                    return

            self._send(404, {"error": f"no such endpoint {url.path!r}"})
        except Exception:
            diag = uuid.uuid4().hex[:12]
            # one write, so the id stays on the line before its own traceback
            sys.stderr.write(f"diagnostic_id {diag} GET {self.path}\n" + traceback.format_exc())
            self._send(500, {"error": "internal pipeline failure", "diagnostic_id": diag})


def serve(registry: dict[str, PipelineConfig], port: int) -> ThreadingHTTPServer:
    """Build the HTTP server (call serve_forever() or run it in a thread)."""
    server = ThreadingHTTPServer(("127.0.0.1", port), _Handler)
    server.cache = _EquipmentCache(registry)  # type: ignore[attr-defined]
    return server
