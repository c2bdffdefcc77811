"""How much other tenants of the machine slow a fixed piece of work.

    python3 perfbench/noise_probe.py [SECONDS]

Times one fixed chunk of work (small matrix products and solves, then a
pure-Python loop; about 10 ms) over and over for SECONDS (default 60), and
prints, for each 5-second window, the fastest, median and 90th-percentile
chunk. Then it groups consecutive chunks into operations of 1, 20 and 100
chunks and prints, over 25-second windows, the spread of each window's
fastest and median operation: the reason the benchmark bounds the fastest
of many repeats of a short operation (README.md, "Why the fastest time").
"""

from __future__ import annotations

import statistics
import sys
import time

import numpy as np


def chunk() -> float:
    a = np.random.default_rng(0).standard_normal((60, 60))
    total = 0.0
    for _ in range(150):
        b = a @ a.T
        total += float(np.linalg.solve(b + 60.0 * np.eye(60), a[:, 0])[0])
    x = 0
    for i in range(20000):
        x += i * i % 7
    return total + x


def spread(values) -> float:
    q = statistics.quantiles(values, n=4)
    return (q[2] - q[0]) / statistics.median(values)


def main() -> None:
    seconds = float(sys.argv[1]) if len(sys.argv) > 1 else 60.0
    times = []  # (start, wall seconds)
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        t0 = time.perf_counter()
        chunk()
        times.append((t0, time.perf_counter() - t0))
    t_first = times[0][0]
    windows = {}
    for t, dt in times:
        windows.setdefault(int((t - t_first) // 5), []).append(dt * 1e3)
    print("window  fastest  median  p90 (ms per chunk)")
    for k in sorted(windows):
        v = sorted(windows[k])
        print(f"{k * 5:5d}s {v[0]:8.2f} {statistics.median(v):7.2f} {v[int(0.9 * len(v))]:6.2f}")
    ms = [dt * 1e3 for _, dt in times]
    per_window = max(1, round(25.0 / statistics.median(dt for _, dt in times)))
    for size in (1, 20, 100):
        ops = [sum(ms[i:i + size]) for i in range(0, len(ms) - size + 1, size)]
        per = max(1, per_window // size)
        groups = [ops[i:i + per] for i in range(0, len(ops) - per + 1, per)]
        if len(groups) < 2:
            print(f"{size} chunks per operation: run longer for two 25-second windows")
            continue
        fastest = [min(g) for g in groups]
        median = [statistics.median(g) for g in groups]
        rel = lambda v: (max(v) - min(v)) / statistics.median(v)  # noqa: E731
        line = (f"{size:3d} chunks per operation, {len(groups)} windows: range over windows "
                f"of the fastest {rel(fastest):.3f}, of the median {rel(median):.3f}")
        if len(groups) >= 4:
            line += f"; quartile spread {spread(fastest):.3f} and {spread(median):.3f}"
        print(line)


if __name__ == "__main__":
    main()
