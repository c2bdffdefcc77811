"""Four-stage exogenous-feature selection.

Stage order in the full pipeline: variance filter (dead columns), pairwise
correlation filter (redundant columns, keep the member more predictive of
the target), recursive elimination of SARIMAX-insignificant regressors,
and a binary particle swarm minimizing the fitted model's BIC. Each stage
returns the filtered matrix plus a SelectionReport whose kept/dropped
partition is exact.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from . import sarimax
from .feature_matrix import FeatureMatrix
from .series import TimeSeries, json_text

_VARIANCE_THRESHOLD = 0.01  # least sample variance a column keeps
_RHO_THRESHOLD = 0.9  # |Pearson r| above which a pair is redundant
_REL_TOL = 1e-7  # least residual norm of a kept column, over the largest column norm
_RFE_RESTARTS = 1  # seeded restarts of each RFE refit's search
_PSO_RESTARTS = 0  # seeded restarts of each PSO fitness fit's search
# the PSO velocity rule's weights, and its stagnation limit (see pso_bic)
_INERTIA = 0.7
_COGNITIVE = 1.4
_SOCIAL = 1.8
_STAGNATION_LIMIT = 30


@dataclass(frozen=True)
class SelectionReport:
    stage: str
    input_columns: tuple[str, ...]
    kept_columns: tuple[str, ...]
    dropped_columns: dict[str, str]  # name -> reason
    metrics: dict[str, float] = field(default_factory=dict)

    def __post_init__(self):
        kept = set(self.kept_columns)
        dropped = set(self.dropped_columns)
        if kept & dropped or (kept | dropped) != set(self.input_columns):
            raise ValueError("kept and dropped must partition the input columns")

    def to_json(self) -> str:
        return json_text(
            {
                "stage": self.stage,
                "input_columns": list(self.input_columns),
                "kept_columns": list(self.kept_columns),
                "dropped_columns": self.dropped_columns,
                "metrics": {k: float(v) for k, v in self.metrics.items()},
            }
        )


@dataclass(frozen=True)
class PsoConfig:
    swarm_size: int = 40
    max_iterations: int = 300
    runs: int = 5
    stability_threshold: int = 3
    seed: int = 0

    def __post_init__(self):
        if self.swarm_size < 2:
            raise ValueError("swarm_size must be >= 2")
        if self.runs < 1 or self.stability_threshold > self.runs:
            raise ValueError("need runs >= 1 and stability_threshold <= runs")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")


@dataclass(frozen=True)
class PsoResult:
    best_subset: tuple[str, ...]  # Set 1: global-best columns
    stable_subset: tuple[str, ...]  # Set 2: columns recurring across runs
    per_run: tuple[dict, ...]  # {"selected", "bic", "iterations"}

    def to_json(self) -> str:
        return json_text(
            {
                "best_subset": list(self.best_subset),
                "stable_subset": list(self.stable_subset),
                "per_run": [
                    {
                        "selected": list(r["selected"]),
                        "bic": float(r["bic"]),
                        "iterations": int(r["iterations"]),
                    }
                    for r in self.per_run
                ],
            }
        )


def variance_filter(fm: FeatureMatrix) -> tuple[FeatureMatrix, SelectionReport]:
    """Drop columns whose sample variance falls below _VARIANCE_THRESHOLD.

    The variance is taken over every row given: the pipeline selects on
    the rows of the span it fits, so later rows cannot decide which columns
    survive.
    """
    if fm.n_rows < 1:
        raise ValueError("need at least one row")
    var = fm.matrix.var(axis=0, ddof=1) if fm.n_rows > 1 else np.zeros(fm.n_cols)

    kept, dropped, metrics = [], {}, {}
    for j, name in enumerate(fm.column_names):
        metrics[name] = float(var[j])
        if var[j] < _VARIANCE_THRESHOLD:
            dropped[name] = f"variance {var[j]:.3e} < {_VARIANCE_THRESHOLD}"
        else:
            kept.append(name)
    if not kept:
        raise ValueError(f"variance filter dropped every column: {sorted(dropped)}")
    report = SelectionReport("variance_filter", fm.column_names, tuple(kept), dropped, metrics)
    return fm.select_columns(kept), report


def _average_ranks(x: np.ndarray) -> np.ndarray:
    """1-based ranks of x, ties sharing the mean of their positions."""
    order = np.argsort(x)
    sorted_x = x[order]
    starts = np.flatnonzero(np.r_[True, sorted_x[1:] != sorted_x[:-1]])
    counts = np.diff(np.r_[starts, x.size])
    ranks = np.empty(x.size)
    ranks[order] = np.repeat(starts + (counts + 1) / 2.0, counts)
    return ranks


def correlation_filter(fm: FeatureMatrix, target) -> tuple[FeatureMatrix, SelectionReport]:
    """Break up column pairs correlated above _RHO_THRESHOLD, keeping the
    member whose Spearman correlation with the target is stronger.

    The Spearman correlation is the Pearson correlation (np.corrcoef) of
    average-tie ranks, with the bits of scipy.stats.spearmanr's statistic.
    """
    y = np.asarray(target, dtype=float)
    if y.size != fm.n_rows:
        raise ValueError(f"target length {y.size} != row count {fm.n_rows}")

    names = fm.column_names
    with np.errstate(invalid="ignore"):
        corr = np.corrcoef(fm.matrix, rowvar=False)
    corr = np.nan_to_num(corr, nan=0.0)

    # a constant or non-finite input has no correlation; its importance is 0
    def ranks(x):
        return _average_ranks(x) if np.isfinite(x).all() and np.ptp(x) != 0.0 else None

    importance = {}
    y_ranks = ranks(y)
    for j, name in enumerate(names):
        col_ranks = ranks(fm.matrix[:, j]) if y_ranks is not None else None
        rho = math.nan if col_ranks is None else np.corrcoef(np.vstack([col_ranks, y_ranks]))[1, 0]
        importance[name] = abs(float(rho)) if math.isfinite(rho) else 0.0

    pairs = [
        (abs(corr[i, j]), names[i], names[j])
        for i in range(len(names))
        for j in range(i + 1, len(names))
        if abs(corr[i, j]) > _RHO_THRESHOLD
    ]
    pairs.sort(key=lambda t: (-t[0], t[1], t[2]))

    dropped: dict[str, str] = {}
    for rho, a, b in pairs:
        if a in dropped or b in dropped:
            continue
        # drop the less target-informative member; ties drop the later column
        loser, winner = (a, b) if importance[a] < importance[b] else (b, a)
        dropped[loser] = f"|rho|={rho:.3f} with {winner} (importance {importance[loser]:.3f} <= {importance[winner]:.3f})"
    kept = tuple(n for n in names if n not in dropped)
    report = SelectionReport("correlation_filter", names, kept, dropped, importance)
    return fm.select_columns(kept), report


def collinearity_prune(fm: FeatureMatrix) -> tuple[FeatureMatrix, SelectionReport]:
    """Drop columns until the standardized design is numerically full rank.

    Pairwise correlation screening cannot see exact dependencies among
    three or more columns (the catalog contains some by construction, e.g.
    an aggregate equal to the mean of its parts). A two-pass Gram-Schmidt
    in catalog order decides which go: a column is kept when its residual
    off the columns kept before it has a norm above _REL_TOL times the
    largest standardized column norm. Of a dependent set, the last in
    catalog order goes.
    """
    x = fm.matrix
    mean = x.mean(axis=0)
    scale = x.std(axis=0, ddof=0)
    scale[scale == 0.0] = 1.0
    xs = (x - mean) / scale
    tol = _REL_TOL * np.linalg.norm(xs, axis=0).max(initial=0.0)
    basis = np.empty(xs.shape, order="F")  # the kept columns' orthonormal residuals
    keep = []
    for j, col in enumerate(xs.T):
        q = basis[:, : len(keep)]
        for _ in range(2):  # the second pass restores orthogonality
            col = col - q @ (q.T @ col)
        norm = np.linalg.norm(col)
        if norm > tol:
            basis[:, len(keep)] = col / norm
            keep.append(j)
    kept = tuple(fm.column_names[j] for j in keep)
    dropped = {
        name: "linearly dependent on kept columns"
        for name in fm.column_names
        if name not in kept
    }
    report = SelectionReport("collinearity_prune", fm.column_names, kept, dropped, {})
    return fm.select_columns(kept), report


def rfe_sarimax(
    ts: TimeSeries,
    fm: FeatureMatrix,
    spec: sarimax.SarimaxSpec,
    alpha: float = 0.05,
    min_features: int = 3,
    seed: int = 0,
) -> tuple[FeatureMatrix, SelectionReport]:
    """Recursively drop exogenous columns that stay insignificant.

    Each round refits the model on the surviving columns and removes the
    worst ceil(10%) of the columns whose p-value exceeds alpha (at least
    one), until everything is significant or min_features remain. The
    target series must be row-aligned with the feature matrix. ``seed``
    seeds every refit's perturbed starts.
    """
    if fm.n_cols < 1:
        raise ValueError("need at least one feature column")
    if len(ts) != fm.n_rows:
        raise ValueError(f"series length {len(ts)} != feature rows {fm.n_rows}")

    current = fm
    dropped: dict[str, str] = {}
    iteration = 0
    final_pvalues: dict[str, float] = {}
    while True:
        iteration += 1
        fit_res = sarimax.fit(ts, spec, exog=current, n_restarts=_RFE_RESTARTS, seed=seed)
        pvals = {name: fit_res.pvalue_of(name) for name in current.column_names}
        final_pvalues = pvals
        offenders = sorted(
            ((p, n) for n, p in pvals.items() if not (p <= alpha)),
            key=lambda t: (-(t[0] if math.isfinite(t[0]) else math.inf), t[1]),
        )
        if not offenders or current.n_cols <= min_features:
            break
        n_drop = max(1, math.ceil(0.10 * len(offenders)))
        n_drop = min(n_drop, current.n_cols - min_features)
        for p, name in offenders[:n_drop]:
            dropped[name] = f"p={p:.4f} > {alpha} at iteration {iteration}"
        keep = [n for n in current.column_names if n not in dropped]
        current = current.select_columns(keep)

    report = SelectionReport(
        "rfe_sarimax", fm.column_names, current.column_names, dropped, final_pvalues
    )
    return current, report


def _pso_fitness(mask: np.ndarray, cache: dict, ts, fm, spec):
    key = mask.tobytes()
    if key in cache:
        return cache[key]
    try:
        cols = [fm.column_names[j] for j in np.nonzero(mask)[0]]
        exog = fm.select_columns(cols) if cols else None
        value = sarimax.fit(ts, spec, exog=exog, n_restarts=_PSO_RESTARTS).bic
    except (ValueError, np.linalg.LinAlgError):
        value = math.inf
    cache[key] = value
    return value


def pso_bic(
    ts: TimeSeries,
    fm: FeatureMatrix,
    spec: sarimax.SarimaxSpec,
    cfg: PsoConfig | None = None,
) -> PsoResult:
    """Binary particle swarm over column subsets, minimizing fitted BIC.

    Velocities are real-valued and updated with the usual inertia /
    cognitive / social rule (weights _INERTIA, _COGNITIVE, _SOCIAL) against
    the binary positions; positions are resampled through the sigmoid
    transfer each iteration. A run stops after max_iterations, or after
    _STAGNATION_LIMIT iterations without a better global best. Runs are
    independently seeded; Set 1 is the best subset across runs and Set 2
    the columns appearing in at least stability_threshold run winners.
    """
    cfg = cfg or PsoConfig()
    if fm.n_cols < 1:
        raise ValueError("pso_bic needs at least 1 candidate column")
    if len(ts) != fm.n_rows:
        raise ValueError(f"series length {len(ts)} != feature rows {fm.n_rows}")

    d = fm.n_cols
    cache: dict = {}
    per_run = []
    any_finite = False
    for run in range(cfg.runs):
        rng = np.random.default_rng(cfg.seed + run)
        vel = rng.uniform(-1.0, 1.0, size=(cfg.swarm_size, d))
        pos = rng.random((cfg.swarm_size, d)) < 0.5
        pbest = pos.copy()
        pbest_fit = np.array(
            [_pso_fitness(pos[i], cache, ts, fm, spec) for i in range(cfg.swarm_size)]
        )
        g = int(np.argmin(pbest_fit))
        gbest, gbest_fit = pbest[g].copy(), float(pbest_fit[g])

        stagnant = 0
        iters = 0
        trace = []
        for _ in range(cfg.max_iterations):
            iters += 1
            r_p = rng.random((cfg.swarm_size, d))
            r_g = rng.random((cfg.swarm_size, d))
            vel = (
                _INERTIA * vel
                + _COGNITIVE * r_p * (pbest.astype(float) - pos.astype(float))
                + _SOCIAL * r_g * (gbest.astype(float) - pos.astype(float))
            )
            np.clip(vel, -6.0, 6.0, out=vel)
            prob = 1.0 / (1.0 + np.exp(-vel))
            pos = rng.random((cfg.swarm_size, d)) < prob
            improved = False
            for i in range(cfg.swarm_size):
                f = _pso_fitness(pos[i], cache, ts, fm, spec)
                if f < pbest_fit[i]:
                    pbest[i] = pos[i].copy()
                    pbest_fit[i] = f
                    if f < gbest_fit:
                        gbest, gbest_fit = pos[i].copy(), float(f)
                        improved = True
            trace.append(gbest_fit)
            stagnant = 0 if improved else stagnant + 1
            if stagnant >= _STAGNATION_LIMIT:
                break

        if math.isfinite(gbest_fit):
            any_finite = True
        selected = tuple(fm.column_names[j] for j in np.nonzero(gbest)[0])
        per_run.append(
            {"selected": selected, "bic": gbest_fit, "iterations": iters, "gbest_trace": trace}
        )

    if not any_finite:
        raise RuntimeError(
            f"every candidate fit failed across {cfg.runs} runs "
            f"({len(cache)} distinct subsets tried)"
        )

    best = min(per_run, key=lambda r: r["bic"])
    counts: dict[str, int] = {}
    for r in per_run:
        for name in r["selected"]:
            counts[name] = counts.get(name, 0) + 1
    stable = tuple(n for n in fm.column_names if counts.get(n, 0) >= cfg.stability_threshold)
    return PsoResult(best_subset=best["selected"], stable_subset=stable, per_run=tuple(per_run))


def write_manifest(path, final_columns, reports=(), pso: PsoResult | None = None) -> None:
    """Selection manifest: the frozen column list plus per-stage audit trail."""
    doc = {
        "final_columns": list(final_columns),
        "stages": [json.loads(r.to_json()) for r in reports],
    }
    if pso is not None:
        doc["pso"] = json.loads(pso.to_json())
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json_text(doc))
