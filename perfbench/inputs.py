"""Inputs of the benchmark workloads.

The stand-ins follow the recipe of ``make_oee_series`` in
``tests/conftest.py`` line for line: bounded hourly efficiency with
8/24/168-hour cycles, AR(1) noise and 4% stoppages pinned to the floor.
``stand_in`` gives the gh2/h2/gm2 stand-ins of the acceptance suite bit
for bit. The workload seed draws what varies between runs: the rows the
service workload appends (``new_rows``) and its request mix.
"""

from __future__ import annotations

import csv

import numpy as np

# (length, recipe seed), as STAND_INS in tests/test_acceptance.py
STAND_INS = {"gh2": (648, 101), "h2": (683, 102), "gm2": (672, 103)}

# Registry lines from the README's forecast-service section; h2 is not
# named there and keeps the pipeline defaults.
REGISTRY_OVERRIDES = {
    "gh2": {"sarimax_spec": "4,0,0,1,0,1,8"},
    "gm2": {"sarimax_spec": "2,0,0,2,0,1,8"},
}


def oee_values(n: int, seed: int) -> np.ndarray:
    """Values of ``make_oee_series(n, seed)``."""
    rng = np.random.default_rng(seed)
    t = np.arange(n)
    level = 30.0 + 8.0 * np.sin(2 * np.pi * t / (n / 1.7))
    shift = 6.0 * np.sin(2 * np.pi * t / 8.0 + 0.4)
    daily = 9.0 * np.sin(2 * np.pi * t / 24.0) + 3.0 * np.cos(4 * np.pi * t / 24.0)
    weekly = 7.0 * np.sin(2 * np.pi * t / 168.0 + 1.1)
    noise = np.zeros(n)
    eps = rng.normal(0.0, 4.5, n)
    for i in range(1, n):
        noise[i] = 0.55 * noise[i - 1] + eps[i]
    stops = rng.random(n) < 0.04
    y = level + shift + daily + weekly + noise
    y[stops] = 1.0
    return np.clip(y, 1.0, 60.0)


def stand_in(name: str) -> np.ndarray:
    """The acceptance suite's stand-in ``name``."""
    n, seed = STAND_INS[name]
    return oee_values(n, seed)


def new_rows(name: str, seed: int, count: int) -> np.ndarray:
    """``count`` values to append to stand-in ``name``, fresh for each seed.

    They are the last ``count`` values of a recipe series ``count`` hours
    longer than the stand-in, drawn with a recipe seed derived from the
    workload seed.
    """
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    n, base = STAND_INS[name]
    return oee_values(n + count, base + 1000 * seed)[n:]


def write_csv(path, values) -> None:
    """Value-only CSV, as the service's registered files; repr round-trips."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["value"])
        for v in values:
            w.writerow([repr(float(v))])


def append_row(path, value: float) -> None:
    with open(path, "a", encoding="utf-8", newline="") as fh:
        fh.write(repr(float(value)) + "\r\n")


def write_registry(path, datasets: dict) -> None:
    lines = []
    for eid, dataset in datasets.items():
        lines.append(f"{eid}.dataset = {dataset}")
        lines += [f"{eid}.{k} = {v}" for k, v in REGISTRY_OVERRIDES.get(eid, {}).items()]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
