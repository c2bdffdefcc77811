"""Benchmark of the oeeforecast package in this checkout.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload (see README.md next to this file) for about S seconds,
checks every output, prints each metric by name with its unit, and ends
with one JSON line: {"correct", "attempted", "failed", "metrics"}. With
--trace 0 the metrics are the end-to-end metrics of BENCHMARK.json; with
--trace 1 the layer wrappers are installed and the metrics are its
per-layer metrics. Spans of a traced run are written under perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import checkout

WORKLOADS = ("rolling_statistical", "refit_select", "service_refresh", "rolling_topological")
# Set-ups per run; setup_s is their median. Set-up time follows the
# machine's speed, which drifts over minutes, so more set-ups narrow its
# spread only a little, and each adds up to 2 s to each of the 70 runs a
# check of the benchmark makes.
SETUPS = 3
MAX_PRINTED_FAILURES = 20


def percentile(values, q: float) -> float:
    if not values:
        return 0.0
    s = sorted(values)
    pos = (len(s) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(s) - 1)
    return s[lo] + (s[hi] - s[lo]) * (pos - lo)


def named_view(workload: str, m, values: dict) -> list:
    """(name, value, unit) of the end-to-end metrics under the names that
    ROADMAP items cite; BENCHMARK.json bounds their workload-neutral forms."""
    rows = [("failed_ratio", m.failed / m.attempted, f"of {m.attempted}"),
            ("op_ms.p50", values["op_ms.p50"], f"ms, median of the {len(m.op_ms)} op_ms")]
    if workload.startswith("rolling_"):
        rows.append(("origins_per_s", values["work_per_s"], "1/s"))
        rows.append(("evaluation_s.p50", percentile(m.eval_ms, 50) / 1e3, "s"))
        rows.append(("refit_ms.p50", percentile(m.cold_ms, 50), "ms"))
        rows.append(("origin_forecast_ms.p50", percentile(m.forecast_ms, 50), "ms"))
        rows += [(f"mae.{name}", v, "OEE points") for name, v in m.mae.items()]
    elif workload == "refit_select":
        rows.append(("refit_s", percentile(m.cold_ms, 50) / 1e3, "s"))
        rows.append(("refits_per_s", values["work_per_s"], "1/s"))
    else:
        rows += [("req_ms.p50", percentile(m.latency_ms, 50), "ms"),
                 ("req_ms.p99", percentile(m.latency_ms, 99), "ms"),
                 ("cold_ms.p50", values["cold_ms.p50"], "ms"), ("req_per_s", values["work_per_s"], "1/s")]
    return rows


def prepare(workload: str, seed: int) -> None:
    """What a fresh process does before a workload can run: import the
    package and generate the inputs."""
    import inputs
    import workloads
    import oeeforecast.pipeline  # noqa: F401
    import oeeforecast.service  # noqa: F401

    for name in inputs.STAND_INS:
        inputs.stand_in(name)
        if workload == "service_refresh":
            inputs.new_rows(name, seed, workloads.NEW_ROWS)


def _setup_in_child(workload: str, seed: int) -> float:
    code = "import sys, run; run.prepare(sys.argv[1], int(sys.argv[2]))"
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", code, workload, str(seed)],
                   env=checkout.child_env(), cwd=checkout.ROOT, check=True, timeout=170)
    return time.perf_counter() - t0


def _measure(workload: str, seed: int, seconds: float, tracer, workdir):
    """(measurement, set-up times, ops wall seconds, peak RSS in MB).

    A traced run reports no set-up time and sets up once."""
    import tracing
    import workloads

    n_setups = SETUPS if tracer is None else 1
    if workload == "service_refresh":
        setups = []
        trace_path = workdir / "service-spans.json" if tracer is not None else None
        for i in range(n_setups):
            t0 = time.perf_counter()
            server = workloads.start_service(workdir, trace_path)
            setups.append(time.perf_counter() - t0)
            if i < n_setups - 1:
                server.stop()
        try:
            datasets = {eid: workdir / f"{eid}.csv" for eid in workloads.SERVICE_IDS}
            m = workloads.run_traffic(server, datasets, seed, seconds)
        finally:
            server.stop()
        if trace_path is not None:
            m.trace = tracing.since(json.loads(trace_path.read_text(encoding="utf-8")),
                                    m.started_at)
        rss = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
        return m, setups, sum(m.latency_ms) / 1e3, rss

    # the set-ups run among the repeats; any the repeats did not take in run after
    setups = []
    pauses = [lambda: setups.append(_setup_in_child(workload, seed)) for _ in range(n_setups)]
    traced = tracer is not None
    if workload == "refit_select":
        m = workloads.measure_refit_select(seconds, traced, pauses)
    else:
        m = workloads.measure_rolling(workload, seconds, traced, pauses)
    while pauses:
        pauses.pop(0)()
    if tracer is not None:
        m.trace = tracer.dump()
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return m, setups, m.wall_s + sum(m.op_ms) / 1e3, rss


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")

    checkout.use_checkout_src()
    spec = json.loads((checkout.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    import tracing

    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        if args.workload != "service_refresh":  # the server process installs its own
            tracing.install(tracer)
    checkout.OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="run-", dir=checkout.OUT))
    try:
        m, setups, ops_wall, rss = _measure(args.workload, args.seed, args.seconds, tracer, workdir)
    finally:
        if tracer is not None:
            tracer.uninstall()
        shutil.rmtree(workdir, ignore_errors=True)

    work_per_s = m.work / m.wall_s
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{len(m.op_ms)} operations timed, {len(m.cold_ms)} cold")
    for note in m.notes:
        print("  " + note)
    print(f"failed {m.failed} of {m.attempted} attempted")
    failures = m.errors + m.mismatches
    for text in failures[:MAX_PRINTED_FAILURES]:
        print("  FAILED " + text)
    if len(failures) > MAX_PRINTED_FAILURES:
        print(f"  ... and {len(failures) - MAX_PRINTED_FAILURES} more")
    if args.trace:
        trace_file = checkout.OUT / f"spans-{args.workload}-seed{args.seed}.json"
        with open(trace_file, "w", encoding="utf-8") as fh:
            json.dump(m.trace, fh)
        values = tracing.summarize(m.trace, ops_wall, work_per_s)
        specs = spec["per_layer"]
        print(f"spans written to {trace_file.relative_to(checkout.ROOT)}")
        table = tracing.layer_table(m.trace)
        print("self seconds by layer: " + ", ".join(f"{k} {v:.3f}" for k, v in table.items()))
        print(f"layer self times sum to {sum(table.values()):.3f} s; the operations took "
              f"{ops_wall:.3f} s by the benchmark's clock")
    else:
        values = {
            "setup_s": statistics.median(setups),
            "peak_rss_mb": rss,
            "work_per_s": work_per_s,
            "op_ms.min": min(m.op_ms, default=0.0),
            "op_ms.p50": percentile(m.op_ms, 50),
            "cold_ms.p50": percentile(m.cold_ms, 50),
        }
        specs = spec["end_to_end"]
        for name, value, unit in named_view(args.workload, m, values):
            print(f"{name:32s} {value:.6g} {unit}")
    metrics = {s["name"]: {"value": float(values[s["name"]]), "unit": s["unit"]} for s in specs}
    for name, v in metrics.items():
        print(f"{name:32s} {v['value']:.6g} {v['unit']}")
    if args.trace:
        for name in sorted(values.keys() - metrics.keys()):
            print(f"{name:32s} {values[name]:.6g} (not in BENCHMARK.json)")
    print(json.dumps({
        "correct": not m.mismatches,
        "attempted": m.attempted,
        "failed": m.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
