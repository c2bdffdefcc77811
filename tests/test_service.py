import contextlib
import copy
import csv
import hashlib
import http.client
import json
import os
import re
import statistics
import threading
import time
import types
import urllib.error
import urllib.parse
import urllib.request
from datetime import datetime, timedelta

import pytest

from oeeforecast import pipeline, service
from oeeforecast.service import MAX_HORIZON, _EquipmentCache, load_registry, serve

from conftest import make_oee_series


def write_dataset(path, n, seed):
    series = make_oee_series(n, seed=seed)
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["value"])
        for v in series.values:
            w.writerow([repr(float(v))])
    return path


@pytest.fixture(scope="module")
def served(tmp_path_factory):
    root = tmp_path_factory.mktemp("service")
    gh = write_dataset(root / "gh.csv", 420, seed=21)
    h2 = write_dataset(root / "h2.csv", 430, seed=22)
    gm = write_dataset(root / "gm.csv", 400, seed=23)
    reg_path = root / "registry.conf"
    reg_path.write_text(
        "\n".join(
            f"{eid}.dataset = {path}\n"
            f"{eid}.periods = 8,24\n"
            f"{eid}.test_fraction = 0.15\n"
            f"{eid}.sarimax_spec = 2,0,0,1,0,1,8"
            for eid, path in (("gh", gh), ("h2", h2), ("gm", gm))
        )
    )
    registry = load_registry(reg_path)
    server = serve(registry, port=0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    base = f"http://127.0.0.1:{server.server_address[1]}"
    files = {"gh": gh, "h2": h2, "gm": gm}
    yield base, files
    server.shutdown()
    server.server_close()


def get_json(url):
    with urllib.request.urlopen(url, timeout=120) as resp:
        return resp.status, json.loads(resp.read().decode())


def request(conn, path, method="GET"):
    conn.request(method, path)
    resp = conn.getresponse()
    return resp.status, json.loads(resp.read().decode())


def quick_registry(root, ids=("a",)):
    """Registry of 400-point datasets with the quick fit settings of ``served``."""
    lines = []
    for i, eid in enumerate(ids):
        path = write_dataset(root / f"{i}.csv", 400, seed=31 + i)
        lines += [f"{eid}.dataset = {path}", f"{eid}.periods = 8,24",
                  f"{eid}.test_fraction = 0.15", f"{eid}.sarimax_spec = 2,0,0,1,0,1,8"]
    (root / "registry.conf").write_text("\n".join(lines) + "\n")
    return load_registry(root / "registry.conf")


@contextlib.contextmanager
def running(registry):
    """Serve ``registry``; on exit, wait for every handler thread, so each
    request's log line has been written (close the connections first)."""
    server = serve(registry, port=0)
    server.daemon_threads = False  # so server_close() joins the handler threads
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield server.server_address[1]
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=60)
        assert not thread.is_alive()


@pytest.fixture
def csv_loads(monkeypatch):
    """The paths the service passes to load_csv, in call order."""
    loads = []
    load_csv = service.load_csv

    def counted(*args, **kwargs):
        loads.append(args[0])
        return load_csv(*args, **kwargs)

    monkeypatch.setattr(service, "load_csv", counted)
    return loads


def append_row(path):
    """Append one row and move the file's stamp a second ahead."""
    with open(path, "a") as fh:
        fh.write("30.0\n")
    stamp = os.stat(path).st_mtime_ns + 10**9
    os.utime(path, ns=(stamp, stamp))


def get_error(url):
    try:
        with urllib.request.urlopen(url, timeout=120) as resp:
            return resp.status, json.loads(resp.read().decode())
    except urllib.error.HTTPError as err:
        return err.code, json.loads(err.read().decode())


class TestRegistry:
    def test_missing_dataset_key_rejected(self, tmp_path):
        p = tmp_path / "bad.conf"
        p.write_text("gh.periods = 8,24\n")
        with pytest.raises(ValueError, match="dataset"):
            load_registry(p)

    def test_missing_file_rejected(self, tmp_path):
        p = tmp_path / "bad.conf"
        p.write_text("gh.dataset = /nonexistent/file.csv\n")
        with pytest.raises(ValueError, match="not found"):
            load_registry(p)

    def test_directory_dataset_rejected(self, tmp_path):
        (tmp_path / "data").mkdir()
        p = tmp_path / "bad.conf"
        p.write_text(f"gh.horizon = 6\ngh.dataset = {tmp_path / 'data'}\n")
        with pytest.raises(service.ConfigError, match=r"bad\.conf:2: gh\.dataset: .*regular file"):
            load_registry(p)

    def test_duplicate_ids_merge_fields(self, tmp_path):
        data = write_dataset(tmp_path / "d.csv", 400, seed=1)
        p = tmp_path / "reg.conf"
        p.write_text(f"a.dataset = {data}\na.horizon = 6\n")
        reg = load_registry(p)
        assert reg["a"].horizon == 6

    def test_byte_order_mark_is_skipped(self, tmp_path):
        data = write_dataset(tmp_path / "d.csv", 400, seed=1)
        p = tmp_path / "reg.conf"
        p.write_text(f"\ufeffa.dataset = {data}\n", encoding="utf-8")
        assert load_registry(p)["a"].dataset == str(data)


class TestEndpoints:
    def test_list_equipment(self, served):
        base, files = served
        status, doc = get_json(f"{base}/equipment")
        assert status == 200
        ids = [e["id"] for e in doc["equipment"]]
        assert ids == sorted(files)
        for entry in doc["equipment"]:
            assert "last_timestamp" in entry

    def test_listing_reads_a_file_only_when_its_stamp_changed(self, tmp_path, csv_loads):
        registry = quick_registry(tmp_path, ids=("a", "b"))
        with running(registry) as port:
            conn = http.client.HTTPConnection("127.0.0.1", port, timeout=120)
            try:
                for eid in ("a", "b"):
                    assert request(conn, f"/equipment/{eid}/forecast")[0] == 200
                csv_loads.clear()
                status, doc = request(conn, "/equipment")
                assert status == 200 and csv_loads == []
                before = {e["id"]: e["last_timestamp"] for e in doc["equipment"]}

                dataset = registry["a"].dataset
                append_row(dataset)
                _, doc = request(conn, "/equipment")
                after = {e["id"]: e["last_timestamp"] for e in doc["equipment"]}
                assert csv_loads == [dataset]
                assert after["b"] == before["b"]
                hour_later = datetime.fromisoformat(before["a"]) + timedelta(hours=1)
                assert datetime.fromisoformat(after["a"]) == hour_later
            finally:
                conn.close()

    def test_ids_are_percent_decoded(self, tmp_path, capsys):
        ids = ("a/b", "my line")
        with running(quick_registry(tmp_path, ids=ids)) as port:
            conn = http.client.HTTPConnection("127.0.0.1", port, timeout=120)
            try:
                _, doc = request(conn, "/equipment")
                assert [e["id"] for e in doc["equipment"]] == list(ids)
                for eid in ids:
                    quoted = urllib.parse.quote(eid, safe="")
                    status, doc = request(conn, f"/equipment/{quoted}/forecast?horizon=2")
                    assert status == 200 and doc["id"] == eid and len(doc["values"]) == 2
                    status, doc = request(conn, f"/equipment/{quoted}/decomposition")
                    assert status == 200 and doc["id"] == eid
            finally:
                conn.close()
        logged = capsys.readouterr().err.splitlines()
        assert any(line.startswith("GET /equipment/my%20line/decomposition 200 ") for line in logged)

    def test_forecast_contract(self, served):
        base, _ = served
        status, doc = get_json(f"{base}/equipment/gh/forecast?horizon=4")
        assert status == 200
        assert doc["id"] == "gh"
        assert doc["horizon"] == 4
        assert len(doc["values"]) == 4
        assert all(1.0 <= v <= 60.0 for v in doc["values"])
        assert doc["model_label"] == "decomposed_sarima"
        assert doc["mae_backtest"] >= 0.0
        assert "origin" in doc

    def test_forecast_default_horizon(self, served):
        base, _ = served
        _, doc = get_json(f"{base}/equipment/gh/forecast")
        assert doc["horizon"] == 4

    def test_unknown_id_not_found(self, served):
        base, _ = served
        status, doc = get_error(f"{base}/equipment/X9/forecast")
        assert status == 404
        assert "X9" in doc["error"]

    def test_malformed_horizon_client_error(self, served):
        base, _ = served
        for q in ("horizon=abc", "horizon=0", "horizon=99"):
            status, doc = get_error(f"{base}/equipment/gh/forecast?{q}")
            assert status == 400

    def test_decomposition_tails(self, served):
        base, _ = served
        status, doc = get_json(f"{base}/equipment/h2/decomposition")
        assert status == 200
        comps = doc["components"]
        assert set(comps) == {"trend", "seasonal_8", "seasonal_24", "residual"}
        assert all(len(v) <= 168 for v in comps.values())

    def test_unknown_endpoint(self, served):
        base, _ = served
        status, _ = get_error(f"{base}/equipment/gh/nonsense")
        assert status == 404

    def test_identical_requests_identical_bodies(self, served):
        base, _ = served
        _, a = get_json(f"{base}/equipment/gm/forecast?horizon=3")
        _, b = get_json(f"{base}/equipment/gm/forecast?horizon=3")
        assert a == b

    def test_files_untouched_after_many_requests(self, served):
        base, files = served
        before = {k: hashlib.sha256(p.read_bytes()).hexdigest() for k, p in files.items()}
        for i in range(100):
            eid = ("gh", "h2", "gm")[i % 3]
            kind = ("forecast?horizon=2", "decomposition", "forecast?horizon=4")[i % 3]
            get_json(f"{base}/equipment/{eid}/{kind}")
        after = {k: hashlib.sha256(p.read_bytes()).hexdigest() for k, p in files.items()}
        assert before == after


class TestForecastCache:
    def test_one_forecast_per_rebuild_answers_every_horizon(self, tmp_path, monkeypatch):
        registry = quick_registry(tmp_path)
        cfg = registry["a"]
        forecast = pipeline.DecomposedStrategy.forecast
        horizons = []

        def counted(strategy, past, horizon):
            horizons.append(horizon)
            return forecast(strategy, past, horizon)

        monkeypatch.setattr(pipeline.DecomposedStrategy, "forecast", counted)
        server = serve(registry, port=0)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        conn = http.client.HTTPConnection("127.0.0.1", server.server_address[1], timeout=120)
        try:
            hit = server.cache.entry("a")
            frozen = copy.deepcopy(hit)
            # the backtest forecasts at most cfg.horizon hours; the served model once
            assert cfg.horizon < MAX_HORIZON
            assert [h for h in horizons if h > cfg.horizon] == [MAX_HORIZON]
            horizons.clear()
            answers = {}
            for h in range(1, MAX_HORIZON + 1):
                status, doc = request(conn, f"/equipment/a/forecast?horizon={h}")
                assert status == 200
                answers[h] = doc["values"]
            assert request(conn, "/equipment/a/decomposition")[0] == 200
        finally:
            conn.close()
            server.shutdown()
            server.server_close()
        assert horizons == []
        assert server.cache.entry("a") is hit and hit == frozen
        series = service.load_csv(cfg.dataset, cfg.value_column)
        strategy = pipeline.DecomposedStrategy(cfg)
        strategy.refit(series)
        for h, values in answers.items():
            assert values == [float(v) for v in forecast(strategy, series, h)]


class TestStamps:
    def test_a_request_that_waited_for_a_rebuild_reuses_it(self, tmp_path, monkeypatch, csv_loads):
        # request A waits for the id's lock while request B, which saw an
        # appended row, rebuilds; A must then take B's fit, not rebuild for
        # the stamp it would have read before waiting. The test's thread
        # is B, re-entering the lock it holds; each rebuild loads the CSV
        # once, and the fit and backtest are stubbed out
        strategy = types.SimpleNamespace(
            refit=lambda series: None, forecast=lambda series, horizon: [0.0] * horizon, label="stub"
        )
        monkeypatch.setattr(service, "DecomposedStrategy", lambda cfg: strategy)
        monkeypatch.setattr(
            service, "rolling_forecast",
            lambda cfg, series: types.SimpleNamespace(mae=0.0, refit_failures=[]),
        )
        registry = quick_registry(tmp_path)
        cache = _EquipmentCache(registry)
        cache.entry("a")
        b = threading.get_ident()
        a_waits = threading.Event()

        class Lock:
            def __init__(self):
                self._lock = threading.RLock()

            def __enter__(self):
                if threading.get_ident() != b:
                    a_waits.set()
                self._lock.acquire()

            def __exit__(self, *exc):
                self._lock.release()

        lock = cache._locks["a"] = Lock()
        with lock:
            a = threading.Thread(target=cache.entry, args=("a",))
            a.start()
            assert a_waits.wait(timeout=60)
            append_row(registry["a"].dataset)
            cache.entry("a")
        a.join(timeout=60)
        assert not a.is_alive()
        cache.entry("a")
        assert len(csv_loads) == 2


class TestFailures:
    def test_500_diagnostic_id_in_server_log(self, tmp_path, capsys):
        data = write_dataset(tmp_path / "d.csv", 400, seed=1)
        reg_path = tmp_path / "reg.conf"
        reg_path.write_text(f"a.dataset = {data}\n")
        registry = load_registry(reg_path)
        data.write_text("value\nnot a number\n")  # registered, then unparsable
        server = serve(registry, port=0)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            status, doc = get_error(f"http://127.0.0.1:{server.server_address[1]}/equipment/a/forecast")
        finally:
            server.shutdown()
            server.server_close()
        assert status == 500
        lines = capsys.readouterr().err.splitlines()
        marked = [i for i, line in enumerate(lines) if doc["diagnostic_id"] in line]
        assert len(marked) == 1
        assert lines[marked[0] + 1].startswith("Traceback")


class TestKeepAlive:
    def test_cached_answers_are_not_delayed(self, served):
        """Cached answers on one kept-alive connection arrive in well under the
        ~40 ms a client's delayed ACK holds back a body sent after its headers;
        the decomposition body (~16 KB) is larger than the handler's buffer."""
        base, _ = served
        conn = http.client.HTTPConnection(base.removeprefix("http://"), timeout=120)
        paths = {"forecast": "/equipment/gm/forecast?horizon=4",
                 "decomposition": "/equipment/gm/decomposition"}
        try:
            for path in paths.values():  # fill the cache
                assert request(conn, path)[0] == 200
            for kind, path in paths.items():
                times = []
                for _ in range(5):
                    t0 = time.perf_counter()
                    assert request(conn, path)[0] == 200
                    times.append((time.perf_counter() - t0) * 1e3)
                assert statistics.median(times) < 20.0, (kind, times)
        finally:
            conn.close()


LOG_LINE = re.compile(r"^(\S*) (\S*) (\d{3}) (\d+\.\d{2})ms (cached|rebuilt|-)$")


class TestRequestLog:
    def test_one_line_per_request(self, tmp_path, capsys):
        sent = [
            ("GET", "/equipment/a/forecast?horizon=2", 200, "rebuilt"),
            ("GET", "/equipment/a/forecast?horizon=5", 200, "cached"),
            ("GET", "/equipment/a/decomposition", 200, "cached"),
            ("GET", "/healthz", 200, "-"),
            ("GET", "/equipment/b/forecast", 404, "-"),
            ("GET", "/equipment/a/forecast?horizon=abc", 400, "-"),
            ("POST", "/equipment/a/forecast", 501, "-"),  # the stdlib's own reply
        ]
        with running(quick_registry(tmp_path)) as port:
            conn = http.client.HTTPConnection("127.0.0.1", port, timeout=120)
            try:
                for method, path, status, _ in sent:
                    conn.request(method, path)
                    resp = conn.getresponse()
                    resp.read()
                    assert resp.status == status
            finally:
                conn.close()
        # the module's shared server may log its last answer after its test
        # ended, but it serves none of these paths
        paths = {path for _, path, _, _ in sent}
        logged = [m for m in map(LOG_LINE.match, capsys.readouterr().err.splitlines())
                  if m and m.group(2) in paths]
        assert len(logged) == len(sent)
        for m, (method, path, status, source) in zip(logged, sent):
            assert m.group(1, 2, 3, 5) == (method, path, str(status), source)
            assert float(m.group(4)) > 0.0


class TestHealthz:
    def test_reports_fits_without_loading_or_rebuilding(self, tmp_path, csv_loads):
        registry = quick_registry(tmp_path, ids=("a", "b"))
        with running(registry) as port:
            conn = http.client.HTTPConnection("127.0.0.1", port, timeout=120)
            try:
                status, doc = request(conn, "/healthz")
                assert status == 200
                assert [e["id"] for e in doc["equipment"]] == ["a", "b"]
                for e in doc["equipment"]:
                    assert e == {"id": e["id"], "cached": False, "fit_age_s": None,
                                 "rebuild_s": None, "refit_failures": None}
                assert csv_loads == []

                assert request(conn, "/equipment/a/forecast")[0] == 200
                assert len(csv_loads) == 1
                _, doc = request(conn, "/healthz")
                a, b = doc["equipment"]
                assert a["cached"] and not b["cached"]
                assert a["fit_age_s"] >= 0.0
                assert set(a["rebuild_s"]) == {"refit", "backtest", "decomposition"}
                assert all(v > 0.0 for v in a["rebuild_s"].values())
                assert a["refit_failures"] == []
                assert b["fit_age_s"] is None

                # new data: the fit is kept, but the next answer will rebuild
                append_row(registry["a"].dataset)
                _, doc = request(conn, "/healthz")
                assert not doc["equipment"][0]["cached"]
                assert doc["equipment"][0]["fit_age_s"] >= a["fit_age_s"]
                assert len(csv_loads) == 1
            finally:
                conn.close()

    def test_a_removed_file_is_not_cached(self, tmp_path):
        registry = quick_registry(tmp_path, ids=("a", "b"))
        with running(registry) as port:
            conn = http.client.HTTPConnection("127.0.0.1", port, timeout=120)
            try:
                assert request(conn, "/equipment/a/forecast")[0] == 200
                os.remove(registry["a"].dataset)
                status, doc = request(conn, "/healthz")
                assert status == 200
                a, b = doc["equipment"]
                assert not a["cached"] and a["fit_age_s"] >= 0.0
                assert not b["cached"] and b["fit_age_s"] is None
            finally:
                conn.close()
