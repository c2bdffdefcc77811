import argparse
import csv
import json
import os
import socket
import socketserver
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import pytest

from oeeforecast.cli import (
    EXIT_CONFIG,
    EXIT_DATA,
    EXIT_OK,
    build_config,
    cli_run,
    coerce_config_value,
)
from oeeforecast import service
from oeeforecast.pipeline import (
    FEATURE_MODES,
    SELECTION_MODES,
    SETTINGS,
    DecomposedStrategy,
    PipelineConfig,
    load_series,
)
from oeeforecast.stat_features import CATALOG
from oeeforecast.tda.extract import CATALOG as TDA_CATALOG

from conftest import make_oee_series


def run_python(*args):
    """A fresh interpreter on this checkout's sources."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    return subprocess.run(
        [sys.executable, *args],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=path),
        timeout=120,
    )


@pytest.fixture(scope="module")
def dataset_csv(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "equipment.csv"
    series = make_oee_series(420, seed=11)
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["value"])
        for v in series.values:
            w.writerow([repr(float(v))])
    return path


@pytest.fixture(scope="module")
def config_file(tmp_path_factory, dataset_csv):
    path = tmp_path_factory.mktemp("cfg") / "gh.conf"
    path.write_text(
        f"dataset = {dataset_csv}\n"
        "periods = 8,24\n"
        "horizon = 4\n"
        "test_fraction = 0.15\n"
        "sarimax_spec = 2,0,0,1,0,1,8\n"
        "seed = 0\n"
    )
    return path


class TestConfigParsing:
    def test_coercions(self):
        assert coerce_config_value("periods", "8,24,168") == (8, 24, 168)
        assert coerce_config_value("horizon", "4") == 4
        assert coerce_config_value("test_fraction", "0.2") == 0.2
        spec = coerce_config_value("sarimax_spec", "4,0,0,1,0,1,8")
        assert (spec.p, spec.P, spec.Q, spec.s) == (4, 1, 1, 8)

    def test_every_field_is_a_setting(self):
        assert set(SETTINGS) == {f.name for f in fields(PipelineConfig)}

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError, match="unknown config key"):
            coerce_config_value("nope", "1")

    def test_file_round_trip(self, config_file):
        cfg = build_config(argparse.Namespace(config=str(config_file)))
        assert cfg.periods == (8, 24)
        assert cfg.sarimax_spec.p == 2

    def test_flag_overrides_file(self, config_file, dataset_csv):
        args = argparse.Namespace(config=str(config_file), horizon=6, sarimax_spec=None)
        cfg = build_config(args)
        assert cfg.horizon == 6
        assert cfg.dataset == str(dataset_csv)


class TestCommands:
    def test_stats_prints_summary(self, dataset_csv, capsys):
        rc = cli_run(["stats", "--input", str(dataset_csv)])
        out = capsys.readouterr().out
        assert rc == EXIT_OK
        assert "count    420" in out
        assert "mean" in out and "median" in out

    @pytest.mark.parametrize("module", ["oeeforecast", "oeeforecast.cli"])
    def test_python_m_runs_the_command_line(self, dataset_csv, module):
        done = run_python("-m", module, "stats", "--input", str(dataset_csv))
        assert done.returncode == EXIT_OK, done.stderr
        assert "count    420" in done.stdout
        assert "median" in done.stdout

    @pytest.mark.parametrize(
        "values, reason",
        [([1e10, 1e10 + 2e-6] * 2 + [1e10], "near-constant values"), ([5.0] * 4, "zero variance")],
        ids=["near_constant", "constant"],
    )
    def test_stats_names_why_moments_are_undefined(self, tmp_path, values, reason):
        path = tmp_path / "flat.csv"
        path.write_text("value\n" + "".join(f"{v!r}\n" for v in values))
        done = run_python("-m", "oeeforecast", "stats", "--input", str(path))
        assert done.returncode == EXIT_OK, done.stderr
        assert done.stderr == ""
        assert f"skewness undefined ({reason})" in done.stdout
        assert f"kurtosis undefined ({reason})" in done.stdout

    def test_stats_missing_file_exit_code(self, tmp_path, capsys):
        rc = cli_run(["stats", "--input", str(tmp_path / "absent.csv")])
        assert rc == EXIT_DATA

    def test_stats_missing_column_exit_code(self, tmp_path, capsys):
        p = tmp_path / "x.csv"
        p.write_text("a\n1\n")
        rc = cli_run(["stats", "--input", str(p)])
        assert rc == EXIT_DATA

    def test_stats_non_finite_value_exit_code(self, tmp_path, capsys):
        p = tmp_path / "x.csv"
        p.write_text("ts,value\n2024-01-01T00:00,5\n2024-01-01T01:00,nan\n2024-01-01T02:00,6\n")
        rc = cli_run(["stats", "--input", str(p)])
        err = capsys.readouterr().err
        assert rc == EXIT_DATA, err
        assert err == f"data error: {p}: non-finite value 'nan' in column 'value' at row 2\n"

    def test_config_file_with_byte_order_mark(self, dataset_csv, tmp_path):
        path = tmp_path / "bom.conf"
        path.write_text(f"\ufeffdataset = {dataset_csv}\nhorizon = 6\n", encoding="utf-8")
        cfg = build_config(argparse.Namespace(config=str(path)))
        assert cfg.dataset == str(dataset_csv)
        assert cfg.horizon == 6

    def test_missing_dataset_is_config_error(self, capsys):
        rc = cli_run(["stats"])
        assert rc == EXIT_CONFIG

    @pytest.mark.parametrize(
        "command, text, flags, where",
        [
            ("stats --config", "dataset = {data}\nwindow = abc\n", [], "{file}:2: window"),
            ("stats --config", "dataset = {data}\nhorizon = four\n", [], "{file}:2: horizon"),
            ("stats --config", "dataset = {data}\nclamp = 1,60\n", [], "{file}:2: clamp"),
            ("stats --config", "dataset = {data}\n", ["--periods", "8,x"], "--periods"),
            ("decompose --output unused.csv --config", "dataset = {data}\n", ["--periods", "0"],
             "--periods must be >= 1"),
            ("stats --config", "dataset = {data}\n", ["--periods", "24,8"],
             "--periods must be strictly increasing"),
            ("stats --config", "dataset = {data}\n", ["--periods", "8,20"],
             "--periods must be nested"),
            ("stats --config", "dataset = {data}\n", ["--spec", "1,2"], "--spec"),
            ("stats --config", "dataset = {data}\nsarimax_spec = 2,1,0,1,0,1,8\n", [],
             "{file}:2: sarimax_spec: cannot read '2,1,0,1,0,1,8': integrated"),
            ("stats --config", "dataset = {data}\n", ["--spec", "2,0,0,1,1,1,8"],
             "--spec: cannot read '2,0,0,1,1,1,8': integrated"),
            ("stats --config", "dataset = {data}\n", ["--window", "abc"], "--window"),
            ("stats --config", "dataset = {data}\n", ["--horizon", "x"], "--horizon"),
            ("stats --config", "dataset = {data}\n", ["--test-fraction", "x"], "--test-fraction"),
            ("stats --config", "dataset = {data}\n", ["--refit-interval", "x"], "--refit-interval"),
            ("stats --config", "dataset = {data}\n", ["--seed", "x"], "--seed"),
            ("forecast --config", "dataset = {data}\n", ["--seed", "-1"], "--seed must be >= 0"),
            ("stats --config", "dataset = {data}\n", ["--feature-mode", "foo"], "--feature-mode"),
            ("stats --config", "dataset = {data}\n", ["--selection-mode", "foo"], "--selection-mode"),
            ("serve --registry", "a.dataset = {data}\nnodot = 1\n", [], "{file}:2: nodot"),
            ("serve --registry", "# none\na.periods = 8,24\n", [], "{file}:2: a: missing"),
            ("serve --registry", "a.dataset = {data}.gone\n", [], "{file}:1: a.dataset"),
            ("serve --registry", "a.dataset = {data}\na.horizon = 0\n", [], "{file}:2: a.horizon"),
            ("serve --registry", "a.dataset = {data}\na.window = abc\n", [], "{file}:2: a.window"),
            ("serve --registry", "a.dataset = {data}\na.periods = 24,8\n", [],
             "{file}:2: a.periods: periods must be strictly increasing"),
            ("stats --config", "dataset = {data}\nfeature_mode = topological  # comment\n", [],
             "{file}:2: feature_mode"),
            ("stats --config", "dataset = {data}\nfeature_mode = topological\n", ["--window", "10"],
             "--window"),
            ("stats --config", None, [], "{file}: cannot open"),
            ("serve --registry", None, [], "{file}: cannot open"),
            ("OEEFORECAST_PORT=abc serve --registry", "a.dataset = {data}\n", [],
             "OEEFORECAST_PORT: cannot read 'abc'"),
            ("serve --registry", "a.dataset = {data}\n", ["--port", "70000"],
             "--port: cannot read '70000': expected a port in 0-65535"),
            ("serve --registry", "a.dataset = {data}\n", ["--port", "-5"], "--port: cannot read '-5'"),
            ("benchmark --models nope --config", "dataset = {data}\n", [], "--models: unknown model"),
        ],
        ids=["file_value", "file_horizon", "file_clamp", "flag_periods", "flag_periods_zero",
             "flag_periods_decreasing", "flag_periods_not_nested", "flag_spec", "file_spec_d",
             "flag_spec_D", "flag_window", "flag_horizon", "flag_test_fraction", "flag_refit_interval",
             "flag_seed", "flag_seed_negative", "flag_feature_mode", "flag_selection_mode",
             "registry_line", "registry_no_dataset", "registry_no_file", "registry_rejected",
             "registry_value", "registry_periods", "file_rejected", "flag_rejected", "config_absent",
             "registry_absent", "env_port", "flag_port_high", "flag_port_negative", "flag_models"],
    )
    def test_config_errors_exit_5_naming_their_source(
        self, dataset_csv, tmp_path, monkeypatch, capsys, command, text, flags, where
    ):
        def refuse(*args, **kwargs):
            raise AssertionError("the registry was accepted")

        monkeypatch.setattr(service, "serve", refuse)
        words = command.split()
        while "=" in words[0]:  # a leading NAME=value sets the environment, as in a shell
            name, _, value = words.pop(0).partition("=")
            monkeypatch.setenv(name, value)
        path = tmp_path / "settings.conf"
        if text is not None:  # None: the file does not exist
            path.write_text(text.format(data=dataset_csv))
        rc = cli_run(words + [str(path)] + flags)
        err = capsys.readouterr().err
        assert rc == EXIT_CONFIG, err
        assert err.startswith("config error: " + where.format(file=path)), err

    def test_a_busy_port_is_config_error(self, dataset_csv, tmp_path, monkeypatch, capsys):
        def refuse(server):
            raise AssertionError("the service bound a busy port")

        monkeypatch.setattr(socketserver.BaseServer, "serve_forever", refuse)
        registry = tmp_path / "registry.conf"
        registry.write_text(f"a.dataset = {dataset_csv}\n")
        with socket.socket() as busy:
            busy.bind(("127.0.0.1", 0))
            busy.listen()
            port = busy.getsockname()[1]
            rc = cli_run(["serve", "--registry", str(registry), "--port", str(port)])
        err = capsys.readouterr().err
        assert rc == EXIT_CONFIG, err
        assert err.startswith(f"config error: --port: cannot listen on port {port}: "), err

    def test_window_too_short_for_feature_mode_is_config_error(self, config_file, tmp_path, capsys):
        out = tmp_path / "f.csv"
        argv = ["features", "--config", str(config_file), "--output", str(out)]
        for mode, window, least in (("statistical", 16, 17), ("topological", 17, 18)):
            rc = cli_run(argv + ["--feature-mode", mode, "--window", str(window)])
            err = capsys.readouterr().err
            assert rc == EXIT_CONFIG and f"config error: --window {window} < {least}" in err
            assert not out.exists()

    def test_help_names_every_mode(self, capsys):
        assert cli_run(["stats", "--help"]) == EXIT_OK
        out = capsys.readouterr().out
        assert [m for m in FEATURE_MODES + SELECTION_MODES if m not in out] == []

    def test_unknown_subcommand_usage_exit(self, capsys):
        rc = cli_run(["frobnicate"])
        assert rc == 2

    def test_decompose_writes_csv(self, dataset_csv, tmp_path, capsys):
        out = tmp_path / "components.csv"
        rc = cli_run(
            ["decompose", "--input", str(dataset_csv), "--periods", "8,24", "--output", str(out)]
        )
        assert rc == EXIT_OK
        header = out.read_text().splitlines()[0]
        assert header == "timestamp,trend,seasonal_8,seasonal_24,residual"

    def test_features_writes_matrix(self, dataset_csv, tmp_path):
        out = tmp_path / "features.csv"
        rc = cli_run(
            [
                "features",
                "--input",
                str(dataset_csv),
                "--periods",
                "8,24",
                "--feature-mode",
                "statistical",
                "--output",
                str(out),
            ]
        )
        assert rc == EXIT_OK
        header = out.read_text().splitlines()[0].split(",")
        assert header[0] == "row_index"
        assert len(header) == 77  # row_index + 76 catalog columns

    def test_fit_prints_coefficient_json(self, config_file, capsys):
        rc = cli_run(["fit", "--config", str(config_file)])
        assert rc == EXIT_OK
        doc = json.loads(capsys.readouterr().out)
        names = [c["name"] for c in doc["coefficients"]]
        assert "ar1" in names and "sigma2" in names

    def test_mode_alias_for_feature_mode(self, config_file, tmp_path, capsys):
        out = tmp_path / "fc_topo.csv"
        rc = cli_run(
            ["forecast", "--config", str(config_file), "--mode", "topological", "--output", str(out)]
        )
        assert rc == EXIT_OK
        values = [
            float(line.split(",")[1])
            for line in out.read_text().splitlines()[1:]
        ]
        assert len(values) == 4
        assert all(1.0 <= v <= 60.0 for v in values)

    def test_forecast_in_range_and_csv(self, config_file, tmp_path, capsys):
        out = tmp_path / "forecast.csv"
        rc = cli_run(["forecast", "--config", str(config_file), "--output", str(out)])
        assert rc == EXIT_OK
        lines = capsys.readouterr().out.strip().splitlines()
        values = [float(l.split()[1]) for l in lines if l[0].isdigit()]
        assert len(values) == 4
        assert all(1.0 <= v <= 60.0 for v in values)
        assert out.read_text().splitlines()[0] == "step,forecast"

    def test_select_writes_manifest(self, config_file, tmp_path):
        out = tmp_path / "manifest.json"
        rc = cli_run(
            [
                "select",
                "--config",
                str(config_file),
                "--feature-mode",
                "statistical",
                "--selection-mode",
                "rfe",
                "--output",
                str(out),
            ]
        )
        assert rc == EXIT_OK
        doc = json.loads(out.read_text())
        assert doc["final_columns"]
        assert [s["stage"] for s in doc["stages"]][:2] == ["variance_filter", "correlation_filter"]

    def test_select_both_is_the_strategy_selection(self, config_file, tmp_path):
        out = tmp_path / "manifest_both.json"
        # a short AR spec and training span keep the fit on ~70 exogenous columns quick
        spec, test_fraction = "1,0,0,0,0,0,8", 0.45
        rc = cli_run(
            ["select", "--config", str(config_file), "--feature-mode", "both", "--spec", spec,
             "--test-fraction", str(test_fraction), "--output", str(out)]
        )
        assert rc == EXIT_OK
        columns = json.loads(out.read_text())["final_columns"]
        assert set(columns) & set(CATALOG)
        assert set(columns) & set(TDA_CATALOG)

        cfg = build_config(
            argparse.Namespace(
                config=str(config_file),
                sarimax_spec=spec,
                feature_mode="both",
                test_fraction=test_fraction,
            )
        )
        series = load_series(cfg)
        strategy = DecomposedStrategy(cfg)
        strategy.refit(series.slice(0, int(len(series) * (1 - cfg.test_fraction))))
        assert columns == list(strategy.columns)

    @pytest.mark.parametrize("command", ["features", "select"])
    def test_feature_mode_none_is_config_error(self, config_file, tmp_path, command):
        out = tmp_path / "out"
        rc = cli_run(
            [command, "--config", str(config_file), "--feature-mode", "none", "--output", str(out)]
        )
        assert rc == EXIT_CONFIG
        assert not out.exists()

    def test_benchmark_two_runs_byte_identical(self, config_file, tmp_path, capsys):
        out1, out2 = tmp_path / "b1.csv", tmp_path / "b2.csv"
        rc1 = cli_run(
            ["benchmark", "--config", str(config_file), "--models", "seasonal_naive,ets_raw", "--output", str(out1)]
        )
        rc2 = cli_run(
            ["benchmark", "--config", str(config_file), "--models", "seasonal_naive,ets_raw", "--output", str(out2)]
        )
        assert rc1 == rc2 == EXIT_OK
        assert out1.read_bytes() == out2.read_bytes()


# Prints, as JSON, the scipy modules loaded after importing the package, then
# (exit code, scipy modules loaded) after each command of sys.argv[1], a JSON
# list of argument lists.
_SCIPY_AFTER_COMMANDS = """
import contextlib, io, json, sys
import oeeforecast, oeeforecast.cli, oeeforecast.service

def scipy_modules():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

loaded = [scipy_modules()]
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        rc = oeeforecast.cli.cli_run(argv)
    loaded.append([rc, scipy_modules()])
print(json.dumps(loaded))
"""

_SCIPY_AFTER_SERVE = """
import sys
from oeeforecast.service import load_registry, serve

server = serve(load_registry(sys.argv[1]), port=0)
server.server_close()
print(" ".join(m for m in sys.modules if m == "scipy" or m.startswith("scipy.")))
"""

# Runs every selection stage and the fits they make on a small random
# problem, and two simulations, then prints the scipy modules loaded.
_SCIPY_AFTER_SELECTION = """
import sys
import numpy as np
from oeeforecast.feature_matrix import FeatureMatrix
from oeeforecast.sarimax import SarimaxSpec, fit, simulate
from oeeforecast.selection import (
    PsoConfig, collinearity_prune, correlation_filter, pso_bic, rfe_sarimax, variance_filter,
)
from oeeforecast.series import TimeSeries

rng = np.random.default_rng(0)
x = rng.normal(size=(300, 5))
x[:, 4] = np.round(x[:, 4])  # ties for the Spearman ranks
y = TimeSeries(x @ [1.0, 0.5, 0.3, 0.0, 0.0] + rng.normal(size=300))
fm = FeatureMatrix(("a", "b", "c", "d", "e"), x, tuple(range(300)))
spec = SarimaxSpec(p=1, Q=1, s=4)
fit(y, spec, exog=x)
fm, _ = variance_filter(fm)
fm, _ = correlation_filter(fm, y.values)
fm, _ = collinearity_prune(fm)
fm, _ = rfe_sarimax(y, fm, spec, min_features=2)
pso_bic(y, fm, spec, PsoConfig(swarm_size=4, max_iterations=2, runs=1, stability_threshold=1))
# a recursive filter, and a pure MA's one-tap denominator
simulate(SarimaxSpec(p=2, q=1, P=1, Q=1, s=4), 200, 0, ar=(0.5, 0.2), ma=(0.3,), sar=(0.2,),
         sma=(0.4,))
simulate(SarimaxSpec(q=1), 200, 0, ma=(0.3,))
print(" ".join(m for m in sys.modules if m == "scipy" or m.startswith("scipy.")))
"""

# With every scipy import refused: a fit, the collinearity prune of an
# exactly dependent column, RFE, a simulation, and one forecast served from
# the registry file sys.argv[1]; prints the forecast's status.
_WITH_SCIPY_REFUSED = """
import http.client, sys, threading


class RefuseScipy:
    def find_spec(self, name, path=None, target=None):
        if name == "scipy" or name.startswith("scipy."):
            raise ImportError(f"{name} is refused")
        return None


sys.meta_path.insert(0, RefuseScipy())

import numpy as np
from oeeforecast.feature_matrix import FeatureMatrix
from oeeforecast.sarimax import SarimaxSpec, fit, simulate
from oeeforecast.selection import collinearity_prune, rfe_sarimax
from oeeforecast.series import TimeSeries
from oeeforecast.service import load_registry, serve

spec = SarimaxSpec(p=1, Q=1, s=4)
noise = simulate(spec, 300, 0, ar=(0.5,), sma=(0.3,))
rng = np.random.default_rng(0)
x = rng.normal(size=(300, 4))
x[:, 3] = x[:, 0] - x[:, 1]
y = TimeSeries(noise.values + x[:, :3] @ [1.0, 0.5, 0.0])
fit(y, spec, exog=x[:, :3])
fm, _ = collinearity_prune(FeatureMatrix(("a", "b", "c", "d"), x, tuple(range(300))))
assert fm.column_names == ("a", "b", "c"), fm.column_names
rfe_sarimax(y, fm, spec, min_features=2)

server = serve(load_registry(sys.argv[1]), port=0)
thread = threading.Thread(target=server.serve_forever)
thread.start()
try:
    conn = http.client.HTTPConnection("127.0.0.1", server.server_address[1], timeout=100)
    conn.request("GET", "/equipment/a/forecast?horizon=2")
    print(conn.getresponse().status)
finally:
    server.shutdown()
    server.server_close()
    thread.join(10)
"""


class TestScipyImport:
    """The package runs on numpy alone; scipy is a test dependency, whose
    import would add about a tenth of a second and 20 MB to a start."""

    def test_commands_that_fit_nothing_load_no_scipy(self, dataset_csv, tmp_path):
        data = ["--input", str(dataset_csv), "--periods", "8,24"]
        commands = [
            ["stats"] + data,
            ["decompose"] + data + ["--output", str(tmp_path / "d.csv")],
            ["features", "--feature-mode", "statistical"] + data + ["--output", str(tmp_path / "s.csv")],
            ["features", "--feature-mode", "topological"] + data + ["--output", str(tmp_path / "t.csv")],
            ["stats", "--help"],
            ["stats", "--input", str(dataset_csv), "--periods", "8,x"],
        ]
        done = run_python("-c", _SCIPY_AFTER_COMMANDS, json.dumps(commands))
        assert done.returncode == 0, done.stderr
        on_import, *after_commands = json.loads(done.stdout)
        assert on_import == []
        assert after_commands == [[EXIT_OK, []]] * 5 + [[EXIT_CONFIG, []]]

    def test_serve_loads_no_scipy(self, dataset_csv, tmp_path):
        registry = tmp_path / "registry.conf"
        registry.write_text(f"a.dataset = {dataset_csv}\n")
        done = run_python("-c", _SCIPY_AFTER_SERVE, str(registry))
        assert done.returncode == 0, done.stderr
        assert done.stdout.split() == []

    def test_fits_selection_and_simulate_load_no_scipy(self):
        done = run_python("-c", _SCIPY_AFTER_SELECTION)
        assert done.returncode == 0, done.stderr
        assert done.stdout.split() == []

    def test_fits_selection_simulate_and_serve_run_with_scipy_refused(self, dataset_csv, tmp_path):
        registry = tmp_path / "registry.conf"
        registry.write_text(f"a.dataset = {dataset_csv}\n")
        done = run_python("-c", _WITH_SCIPY_REFUSED, str(registry))
        assert done.returncode == 0, done.stderr
        assert done.stdout.split() == ["200"]
