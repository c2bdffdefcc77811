"""Command-line front end: every subcommand maps onto one module operation.

Configuration comes from an optional key-value file (``key = value`` lines,
keys named after PipelineConfig fields) with flag overrides on top. All
randomized stages take --seed (default 0). Error classes map to distinct
exit codes: 2 usage, 3 data/CSV, 4 numeric, 5 configuration, 1 unexpected.
A configuration error names its source: ``file:line: key`` for a config or
registry file, the flag for a flag.
"""

from __future__ import annotations

import argparse
import csv
import os
import sys

import numpy as np

from . import sarimax
from .decompose import components_to_csv, decompose
from .pipeline import (
    BENCHMARK_MODELS,
    FEATURE_MODES,
    SELECTION_MODES,
    SETTINGS,
    ConfigError,
    DecomposedStrategy,
    PipelineConfig,
    benchmark,
    benchmark_table,
    benchmark_to_csv,
    build_features,
    causal_components,
    coerce_config_value,
    forecasts_to_csv,
    load_series,
    read_settings,
    train_split,
)
from .selection import write_manifest
from .series import CsvError, summary_stats

EXIT_OK = 0
EXIT_UNEXPECTED = 1
EXIT_USAGE = 2
EXIT_DATA = 3
EXIT_NUMERIC = 4
EXIT_CONFIG = 5

# the flags not named after their setting, and the one alias
_FLAG_NAMES = {"dataset": "--input", "value_column": "--column", "sarimax_spec": "--spec"}
_FLAG_ALIASES = {"feature_mode": ("--mode",)}
_FLAG_HELP = {
    "dataset": "CSV dataset path",
    "value_column": "value column name",
    "periods": "comma-separated, e.g. 8,24,168",
    "feature_mode": "one of " + ", ".join(FEATURE_MODES),
    "selection_mode": "one of " + ", ".join(SELECTION_MODES),
    "sarimax_spec": "SARIMAX orders p,d,q,P,D,Q,s with d = D = 0",
    "seed": "seed for randomized stages (default 0)",
}


def _flag(key: str) -> str:
    return _FLAG_NAMES.get(key, "--" + key.replace("_", "-"))


def build_config(args) -> PipelineConfig:
    """The --config file's values with every flag given on top, each read
    by the same parser.

    A PipelineConfig rejection starts with the field's name, which is
    replaced by the source that set it (``file:line: key`` or the flag).
    """
    values, labels = {}, {}
    if getattr(args, "config", None):
        for where, key, value in read_settings(args.config):
            labels[key] = f"{where}: {key}"
            values[key] = coerce_config_value(key, value, labels[key])
    for key in SETTINGS:
        flag = getattr(args, key, None)
        if flag is not None:
            labels[key] = _flag(key)
            values[key] = coerce_config_value(key, flag, labels[key])
    if not values.get("dataset"):
        raise ConfigError("no dataset given (use --input or a config file with 'dataset = ...')")
    try:
        return PipelineConfig(**values)
    except ValueError as exc:
        name, _, rest = str(exc).partition(" ")
        raise ConfigError(f"{labels[name]} {rest}" if name in labels else str(exc)) from exc


def cmd_stats(args) -> int:
    cfg = build_config(args)
    s = summary_stats(load_series(cfg))
    print(f"count    {s.count}")
    print(f"mean     {s.mean:.2f}")
    print(f"std_dev  {s.std_dev:.2f}")
    print(f"min      {s.min:.2f}")
    print(f"q25      {s.q25:.2f}")
    print(f"median   {s.median:.2f}")
    print(f"q75      {s.q75:.2f}")
    print(f"max      {s.max:.2f}")
    if s.moments_degenerate:
        why = "zero variance" if s.std_dev == 0.0 else "near-constant values"
        print(f"skewness undefined ({why})")
        print(f"kurtosis undefined ({why})")
    else:
        print(f"skewness {s.skewness:.2f}")
        print(f"kurtosis {s.kurtosis:.2f}")
    return EXIT_OK


def cmd_decompose(args) -> int:
    cfg = build_config(args)
    d = decompose(load_series(cfg), cfg.periods)
    components_to_csv(d, args.output)
    resid_std = float(np.std(d.residual.values))
    print(f"wrote {args.output} (periods {','.join(map(str, cfg.periods))}, residual std {resid_std:.3f})")
    return EXIT_OK


def _require_features(cfg: PipelineConfig, command: str) -> None:
    if cfg.feature_mode == "none":
        raise ConfigError(f"{command} needs --feature-mode statistical|topological|both")


def cmd_features(args) -> int:
    cfg = build_config(args)
    _require_features(cfg, "features")
    _, _, residual = causal_components(load_series(cfg), cfg.periods)
    fm = build_features(cfg, residual)
    fm.to_csv(args.output)
    print(f"wrote {args.output}: {fm.n_rows} rows x {fm.n_cols} columns")
    return EXIT_OK


def cmd_select(args) -> int:
    """The selection the decomposed model makes on its training span."""
    cfg = build_config(args)
    _require_features(cfg, "select")
    series = load_series(cfg)
    strategy = DecomposedStrategy(cfg)
    strategy.refit(series.slice(0, train_split(cfg, len(series))))
    write_manifest(args.output, strategy.columns, strategy.selection_reports, strategy.pso_result)
    print(f"wrote {args.output}: {len(strategy.columns)} columns selected")
    return EXIT_OK


def cmd_fit(args) -> int:
    cfg = build_config(args)
    series = load_series(cfg)
    _, _, residual = causal_components(series, cfg.periods)
    fit = sarimax.fit(residual, cfg.sarimax_spec, seed=cfg.seed)
    doc = sarimax.coefficients_json(fit, residual)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(doc)
        print(f"wrote {args.output}")
    else:
        print(doc)
    return EXIT_OK


def cmd_forecast(args) -> int:
    cfg = build_config(args)
    series = load_series(cfg)
    strategy = DecomposedStrategy(cfg)
    strategy.refit(series)
    values = strategy.forecast(series, cfg.horizon)
    for h, v in enumerate(values, start=1):
        print(f"{h} {v:.4f}")
    if args.output:
        with open(args.output, "w", encoding="utf-8", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["step", "forecast"])
            for h, v in enumerate(values, start=1):
                w.writerow([h, repr(float(v))])
        print(f"wrote {args.output}")
    return EXIT_OK


def cmd_benchmark(args) -> int:
    cfg = build_config(args)
    models = tuple(args.models.split(",")) if args.models else BENCHMARK_MODELS
    unknown = [m for m in models if m not in BENCHMARK_MODELS]
    if unknown:
        raise ConfigError(
            f"--models: unknown model {unknown[0]!r} (valid: {','.join(BENCHMARK_MODELS)})"
        )
    reports = benchmark(cfg, models=models)
    print(benchmark_table(reports))
    if args.output:
        benchmark_to_csv(reports, args.output)
        print(f"wrote {args.output}")
    if args.json_output:
        with open(args.json_output, "w", encoding="utf-8") as fh:
            fh.write("[" + ",\n".join(r.to_json() for r in reports) + "]")
        print(f"wrote {args.json_output}")
    if args.forecasts_dir:
        os.makedirs(args.forecasts_dir, exist_ok=True)
        for r in reports:
            forecasts_to_csv(r, os.path.join(args.forecasts_dir, f"{r.model_label}.csv"))
        print(f"wrote per-model forecasts under {args.forecasts_dir}")
    return EXIT_OK


def cmd_serve(args) -> int:
    from .service import load_registry, serve

    registry_path = args.registry or os.environ.get("OEEFORECAST_REGISTRY")
    if not registry_path:
        raise ConfigError("no registry (use --registry or OEEFORECAST_REGISTRY)")
    # the port and the source that set it: --port, else OEEFORECAST_PORT, else 8080
    source, raw = "--port", args.port
    if raw is None:
        raw = os.environ.get("OEEFORECAST_PORT", "8080")
        source = "OEEFORECAST_PORT" if "OEEFORECAST_PORT" in os.environ else source
    port = int(raw) if raw.isdecimal() else -1
    if not 0 <= port <= 65535:
        raise ConfigError(f"{source}: cannot read {raw!r}: expected a port in 0-65535")
    registry = load_registry(registry_path)
    try:
        server = serve(registry, port)
    except OSError as exc:  # the bind: in use, or not ours to take
        raise ConfigError(f"{source}: cannot listen on port {port}: {exc.strerror or exc}") from None
    print(f"serving {len(registry)} equipment ids on port {server.server_address[1]}")
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.server_close()
    return EXIT_OK


def _add_io_flags(p, output=False):
    p.add_argument("--config", help="key-value config file")
    for key in SETTINGS:
        p.add_argument(_flag(key), *_FLAG_ALIASES.get(key, ()), dest=key, help=_FLAG_HELP.get(key))
    if output:
        p.add_argument("--output", required=True, help="output file path")


def make_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="oeeforecast",
        description="Decomposition + topological-feature SARIMAX forecasting for hourly efficiency series",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("stats", help="Table-style descriptive statistics")
    _add_io_flags(p)
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser("decompose", help="write trend/seasonal/residual CSV")
    _add_io_flags(p, output=True)
    p.set_defaults(func=cmd_decompose)

    p = sub.add_parser("features", help="extract residual window features to CSV")
    _add_io_flags(p, output=True)
    p.set_defaults(func=cmd_features)

    p = sub.add_parser("select", help="run feature selection, write manifest JSON")
    _add_io_flags(p, output=True)
    p.set_defaults(func=cmd_select)

    p = sub.add_parser("fit", help="fit the residual SARIMAX, print coefficient JSON")
    _add_io_flags(p)
    p.add_argument("--output", default=None)
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("forecast", help="forecast the next hours from the end of the series")
    _add_io_flags(p)
    p.add_argument("--output", default=None, help="also write step,forecast CSV")
    p.set_defaults(func=cmd_forecast)

    p = sub.add_parser("benchmark", help="run the model comparison harness")
    _add_io_flags(p)
    p.add_argument("--models", default=None, help=f"comma list from {','.join(BENCHMARK_MODELS)}")
    p.add_argument("--output", default=None, help="benchmark CSV path")
    p.add_argument("--json-output", default=None)
    p.add_argument("--forecasts-dir", default=None)
    p.set_defaults(func=cmd_benchmark)

    p = sub.add_parser("serve", help="start the read-only forecast HTTP service")
    p.add_argument("--registry", default=None, help="registry file (or OEEFORECAST_REGISTRY)")
    p.add_argument("--port", default=None, help="port in 0-65535 (or OEEFORECAST_PORT, default 8080)")
    p.set_defaults(func=cmd_serve)
    return ap


def cli_run(argv=None) -> int:
    ap = make_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except CsvError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (ValueError, np.linalg.LinAlgError, sarimax.CollinearityError) as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except OSError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except Exception as exc:  # pragma: no cover - last resort
        print(f"unexpected error: {exc}", file=sys.stderr)
        return EXIT_UNEXPECTED


def main() -> None:
    sys.exit(cli_run())


if __name__ == "__main__":
    main()
