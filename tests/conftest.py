import os

# One BLAS thread per test process, set before numpy loads: beside another
# process on a small machine, oversubscribed OpenBLAS threads slow the wide
# SARIMAX fits severalfold.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import json
import math

import numpy as np
import pytest
from scipy import stats as sps

from oeeforecast.series import TimeSeries


def make_oee_series(n: int, seed: int, name: str = "synthetic") -> TimeSeries:
    """Paper-like stand-in: bounded hourly efficiency with 8/24/168 cycles.

    Volatile base level, three nested seasonal components, AR(1) noise,
    clipped into [1, 60]. Deterministic for a fixed seed.
    """
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
    # occasional stoppages pin the series to the floor, like real downtime
    stops = rng.random(n) < 0.04
    y = level + shift + daily + weekly + noise
    y[stops] = 1.0
    return TimeSeries(np.clip(y, 1.0, 60.0), name=name)


def strict_json(text: str):
    """json.loads that refuses the NaN and Infinity tokens, which are not JSON."""

    def refuse(token):
        raise ValueError(f"{token} is not JSON")

    return json.loads(text, parse_constant=refuse)


def kpss_level_statistic(x) -> float:
    """KPSS statistic of the level regression (null: stationary around a
    level). The long-run variance uses the Bartlett kernel at the automatic
    bandwidth floor(12 * (n/100)^0.25)."""
    x = np.asarray(x, dtype=float)
    n = x.size
    resid = x - x.mean()
    lags = int(math.floor(12.0 * (n / 100.0) ** 0.25))
    eta = float(np.sum(np.cumsum(resid) ** 2)) / (n * n)
    lrv = float(np.sum(resid * resid)) / n
    for j in range(1, lags + 1):
        gamma_j = float(np.sum(resid[j:] * resid[:-j])) / n
        lrv += 2.0 * (1.0 - j / (lags + 1.0)) * gamma_j
    return eta / lrv


def kpss_rejects_level(x) -> bool:
    """Whether KPSS rejects level stationarity at 5% (critical value 0.463)."""
    return kpss_level_statistic(x) > 0.463


def ljung_box_rejects(residuals, lags: int, fit_df: int = 0) -> bool:
    """Whether Ljung-Box rejects whiteness at 5%, with the chi-square degrees
    of freedom reduced by the number of fitted ARMA parameters."""
    # imported here: perfbench/test_inputs.py loads this file by path,
    # without tests/ on sys.path, for make_oee_series alone
    from oracles import acf_values

    x = np.asarray(residuals, dtype=float)
    n = x.size
    r = acf_values(x, lags)
    q = n * (n + 2.0) * float(np.sum(r[1:] ** 2 / (n - np.arange(1, lags + 1))))
    return float(sps.chi2.sf(q, max(1, lags - fit_df))) < 0.05


# (length, recipe seed) of the gh2/h2/gm2 stand-ins of the acceptance suite
STAND_INS = {"gh2": (648, 101), "h2": (683, 102), "gm2": (672, 103)}


@pytest.fixture
def oee_series():
    return make_oee_series(648, seed=7, name="stand_in_a")
