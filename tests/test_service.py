import csv
import hashlib
import json
import threading
import urllib.request
import urllib.error

import pytest

from oeeforecast.service import load_registry, serve

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

    def test_duplicate_ids_merge_fields(self, tmp_path):
        data = write_dataset(tmp_path / "d.csv", 400, seed=1)
        p = tmp_path / "reg.conf"
        p.write_text(f"a.dataset = {data}\na.horizon = 6\n")
        reg = load_registry(p)
        assert reg.entries["a"].horizon == 6


class TestEndpoints:
    def test_list_equipment(self, served):
        base, files = served
        status, doc = get_json(f"{base}/equipment")
        assert status == 200
        ids = [e["id"] for e in doc["equipment"]]
        assert ids == sorted(files)
        for entry in doc["equipment"]:
            assert "last_timestamp" in entry

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
