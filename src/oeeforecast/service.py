"""Read-only HTTP forecast service over registered equipment CSV files.

Endpoints (JSON bodies, frozen field names):

    GET /equipment
        {"equipment": [{"id": ..., "last_timestamp": ...}, ...]}
    GET /equipment/<id>/forecast?horizon=H        (H in 1..8, default 4)
        {"id", "origin", "horizon", "values", "model_label", "mae_backtest"}
    GET /equipment/<id>/decomposition
        {"id", "components": {"trend": [...], "seasonal_<p>": [...],
         "residual": [...]}}    (component tails, last 168 points)

Unknown ids give 404, malformed horizons 400, pipeline failures 500 with a
diagnostic id. Responses are cached per (id, file modification stamp); the
registered files are only ever opened for reading.
"""

from __future__ import annotations

import json
import sys
import threading
import traceback
import uuid
from dataclasses import dataclass, replace
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from urllib.parse import parse_qs, urlparse
import os

from .decompose import decompose
from .pipeline import DecomposedStrategy, PipelineConfig, rolling_forecast
from .series import load_csv

MAX_HORIZON = 8
TAIL_POINTS = 168


@dataclass(frozen=True)
class EquipmentRegistry:
    entries: dict[str, PipelineConfig]

    def __post_init__(self):
        for eid, cfg in self.entries.items():
            if not cfg.dataset or not os.path.exists(cfg.dataset):
                raise ValueError(f"equipment {eid!r}: dataset path {cfg.dataset!r} not found")


def load_registry(path, defaults: PipelineConfig | None = None) -> EquipmentRegistry:
    """Key-value registry: lines of '<id>.<field> = <value>'.

    '<id>.dataset' is required; other fields override the default pipeline
    configuration for that equipment (same coercions as the CLI config).
    """
    from .cli import coerce_config_value  # shared key-value coercion

    defaults = defaults or PipelineConfig()
    raw: dict[str, dict[str, str]] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line or "." not in line.split("=", 1)[0]:
                raise ValueError(f"{path}:{lineno}: expected '<id>.<field> = <value>'")
            key, value = (s.strip() for s in line.split("=", 1))
            eid, fieldname = key.split(".", 1)
            raw.setdefault(eid, {})[fieldname] = value
    entries = {}
    for eid, fields in sorted(raw.items()):
        if "dataset" not in fields:
            raise ValueError(f"equipment {eid!r}: missing required '{eid}.dataset'")
        cfg = defaults
        for fieldname, value in fields.items():
            cfg = replace(cfg, **{fieldname: coerce_config_value(fieldname, value)})
        entries[eid] = cfg
    return EquipmentRegistry(entries)


class _EquipmentCache:
    """Per-equipment lazy fit keyed by the file's modification stamp."""

    def __init__(self, registry: EquipmentRegistry):
        self.registry = registry
        self._locks = {eid: threading.Lock() for eid in registry.entries}
        self._cached: dict[str, dict] = {}

    def ids(self):
        return sorted(self.registry.entries)

    def entry(self, eid: str):
        cfg = self.registry.entries.get(eid)
        if cfg is None:
            raise KeyError(eid)
        mtime = os.stat(cfg.dataset).st_mtime_ns
        with self._locks[eid]:
            hit = self._cached.get(eid)
            if hit is not None and hit["mtime"] == mtime:
                return hit
            series = load_csv(
                cfg.dataset, cfg.value_column, timestamp_column=cfg.timestamp_column, name=eid
            )
            strategy = DecomposedStrategy(cfg)
            strategy.refit(series)
            backtest = rolling_forecast(cfg, series=series)
            d = decompose(series, cfg.periods)
            tails = {"trend": [float(v) for v in d.trend.values[-TAIL_POINTS:]]}
            for p in cfg.periods:
                tails[f"seasonal_{p}"] = [float(v) for v in d.seasonal[p].values[-TAIL_POINTS:]]
            tails["residual"] = [float(v) for v in d.residual.values[-TAIL_POINTS:]]
            hit = {
                "mtime": mtime,
                "cfg": cfg,
                "series": series,
                "strategy": strategy,
                "mae_backtest": backtest.mae,
                "tails": tails,
                "forecasts": {},  # horizon -> values
            }
            self._cached[eid] = hit
            return hit

    def forecast(self, eid: str, horizon: int):
        hit = self.entry(eid)
        with self._locks[eid]:
            if horizon not in hit["forecasts"]:
                values = hit["strategy"].forecast(hit["series"], horizon)
                hit["forecasts"][horizon] = [float(v) for v in values]
        return hit, hit["forecasts"][horizon]


class _Handler(BaseHTTPRequestHandler):
    server_version = "oeeforecast"
    protocol_version = "HTTP/1.1"

    def log_message(self, fmt, *args):  # quiet by default; tests capture errors
        pass

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
        parts = [p for p in url.path.split("/") if p]
        try:
            if parts == ["equipment"]:
                listing = []
                for eid in cache.ids():
                    cfg = cache.registry.entries[eid]
                    series = load_csv(
                        cfg.dataset, cfg.value_column, timestamp_column=cfg.timestamp_column
                    )
                    listing.append({"id": eid, "last_timestamp": series.end.isoformat()})
                self._send(200, {"equipment": listing})
                return

            if len(parts) == 3 and parts[0] == "equipment":
                eid, leaf = parts[1], parts[2]
                if eid not in cache.registry.entries:
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
                    hit, values = cache.forecast(eid, horizon)
                    self._send(
                        200,
                        {
                            "id": eid,
                            "origin": hit["series"].end.isoformat(),
                            "horizon": horizon,
                            "values": values,
                            "model_label": hit["strategy"].label,
                            "mae_backtest": hit["mae_backtest"],
                        },
                    )
                    return
                if leaf == "decomposition":
                    hit = cache.entry(eid)
                    self._send(200, {"id": eid, "components": hit["tails"]})
                    return

            self._send(404, {"error": f"no such endpoint {url.path!r}"})
        except Exception:
            diag = uuid.uuid4().hex[:12]
            # one write, so the id stays on the line before its own traceback
            sys.stderr.write(f"diagnostic_id {diag} GET {self.path}\n" + traceback.format_exc())
            self._send(500, {"error": "internal pipeline failure", "diagnostic_id": diag})


def serve(registry: EquipmentRegistry, port: int) -> ThreadingHTTPServer:
    """Build the HTTP server (call serve_forever() or run it in a thread)."""
    server = ThreadingHTTPServer(("127.0.0.1", port), _Handler)
    server.cache = _EquipmentCache(registry)  # type: ignore[attr-defined]
    return server
