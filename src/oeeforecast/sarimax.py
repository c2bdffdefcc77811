"""Seasonal ARMA estimation with exogenous regressors (conditional likelihood).

The model is  y_t = intercept + x_t' beta + u_t  with the disturbance u_t
following a multiplicative seasonal ARMA: phi(B) PHI(B^s) u_t =
theta(B) THETA(B^s) eps_t, eps_t ~ N(0, sigma2). Estimation maximizes the
conditional (CSS) Gaussian likelihood: the first max(p + s*P, q + s*Q)
points are burn-in and pre-sample innovations are zero.

Two structural facts keep this fast and robust:

* The CSS filter is linear, so for fixed ARMA coefficients the optimal
  regression block (intercept + betas) is exact least squares on the
  filtered design. The simplex search therefore runs only over the ARMA
  coefficients, no matter how many exogenous columns are attached. The
  filter runs over the whole ``[y | design]`` block (built once per fit):
  the AR polynomial as one ``np.convolve`` per column, then the inverse MA
  polynomial through ``scipy.signal.lfilter``.
  ``apply_params`` runs the same filter on its one column, after one
  product of the regression design (which a caller may keep and extend)
  with the coefficients.
* Stationarity/invertibility are enforced by optimizing in an
  unconstrained space mapped through tanh partial autocorrelations
  (Monahan's recursion), one block each for phi, theta, PHI, THETA.

Standard errors: regression block from sigma2 * (X~'X~)^-1 on the filtered
design, which gives ``fit`` its exogenous p-values; ARMA block from the
numerical Hessian of the concentrated log-likelihood, 4*d*(d+1)/2
evaluations for d ARMA coefficients, which only ``coefficients_json``
pays. The two blocks are asymptotically independent for
regression-with-ARMA-errors models.

scipy supplies the simplex search (``scipy.optimize.minimize``) and the
recursive filter (``scipy.signal.lfilter``) of the MA stage and of
``simulate``. Both are imported where a fit, a filter or a simulation
first runs, not with this module: the two packages take about a second to
import, and ``import oeeforecast`` and the commands that fit nothing should
not pay for it. A server that fits on its first requests calls
``import_fit_path`` before it starts answering.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .feature_matrix import FeatureMatrix
from .series import TimeSeries, json_text

MAX_ORDER = 8
_SIGMA2_FLOOR = 1e-12
_MAX_ITER = 5000  # Nelder-Mead iterations per start
_FATOL = 1e-8  # Nelder-Mead objective tolerance
_SIMULATE_BURN_IN = 200  # simulate's leading draws, discarded to forget the zero start


def minimize(fun, x0, **kwargs):
    """``scipy.optimize.minimize``, imported at the first call.

    ``fit`` calls it through this module global; perfbench/tracing.py
    wraps this name to count the objective evaluations.
    """
    from scipy.optimize import minimize as scipy_minimize

    return scipy_minimize(fun, x0, **kwargs)


def import_fit_path() -> None:
    """Import the optimizer and the filter now instead of at the first fit."""
    import scipy.optimize  # noqa: F401
    import scipy.signal  # noqa: F401


class CollinearityError(ValueError):
    """Exogenous design is numerically rank-deficient."""


@dataclass(frozen=True)
class SarimaxSpec:
    p: int = 0
    q: int = 0
    P: int = 0
    Q: int = 0
    s: int = 1
    n_exog: int = 0

    def __post_init__(self):
        for nm in ("p", "q", "P", "Q"):
            v = getattr(self, nm)
            if not (0 <= v <= MAX_ORDER):
                raise ValueError(f"order {nm}={v} outside [0, {MAX_ORDER}]")
        if self.s < 1:
            raise ValueError("seasonal period s must be >= 1")
        if self.n_exog < 0:
            raise ValueError("n_exog must be >= 0")

    @property
    def ar_span(self) -> int:
        return self.p + self.s * self.P

    @property
    def ma_span(self) -> int:
        return self.q + self.s * self.Q

    @property
    def burn_in(self) -> int:
        return max(self.ar_span, self.ma_span)

    @property
    def n_params(self) -> int:
        # intercept + betas + ARMA coefficients + sigma2
        return 1 + self.n_exog + self.p + self.q + self.P + self.Q + 1


@dataclass(frozen=True)
class SarimaxFit:
    spec: SarimaxSpec
    ar: tuple[float, ...]
    ma: tuple[float, ...]
    sar: tuple[float, ...]
    sma: tuple[float, ...]
    exog_beta: tuple[float, ...]  # standardized units
    intercept: float
    sigma2: float
    exog_pvalues: tuple[float, ...]  # of exog_beta, in exog_names order
    loglik: float
    bic: float
    residuals: np.ndarray  # innovations, length u_history.size - burn_in
    converged: bool
    exog_names: tuple[str, ...]
    exog_mean: np.ndarray
    exog_scale: np.ndarray
    u_history: np.ndarray  # regression residual series, full length
    # the coefficients' lag polynomials, built once per fit or updated state
    ar_poly: np.ndarray = field(init=False, repr=False, compare=False)  # phi(B)PHI(B^s)
    ma_poly: np.ndarray = field(init=False, repr=False, compare=False)  # theta(B)THETA(B^s)

    def __post_init__(self):
        object.__setattr__(self, "ar_poly", _lag_poly(self.ar, self.sar, self.spec.s, -1.0))
        object.__setattr__(self, "ma_poly", _lag_poly(self.ma, self.sma, self.spec.s, 1.0))

    def pvalue_of(self, name: str) -> float:
        """The p-value of the exogenous column ``name``."""
        return self.exog_pvalues[self.exog_names.index(name)]


# ---------------------------------------------------------------------------
# polynomial and reparameterization helpers


def _lag_poly(coefs, seasonal, s, sign):
    """Lowest-degree-first coefficients of (1 + sign*c(B))(1 + sign*C(B^s)):
    sign -1 gives the AR side phi(B)PHI(B^s), +1 the MA side theta(B)THETA(B^s)."""
    a = np.concatenate(([1.0], sign * np.asarray(coefs, dtype=float)))
    b = np.zeros(len(seasonal) * s + 1)
    b[0] = 1.0
    b[s::s] = sign * np.asarray(seasonal, dtype=float)
    return np.convolve(a, b)


def _pacf_to_ar(r):
    """Monahan map: partial autocorrelations in (-1,1) -> stationary AR coefs."""
    y: list[float] = []
    for k, rk in enumerate(r, start=1):
        y = [y[i] - rk * y[k - 2 - i] for i in range(k - 1)] + [rk]
    return np.asarray(y)


def _ar_to_pacf(phi):
    """Inverse of _pacf_to_ar; clamps if the input is outside the region."""
    y = list(np.asarray(phi, dtype=float))
    out = []
    for k in range(len(y), 0, -1):
        rk = y[-1]
        if not (-1.0 < rk < 1.0):
            rk = math.copysign(0.95, rk)
        out.append(rk)
        if k > 1:
            denom = 1.0 - rk * rk
            y = [(y[i] + rk * y[k - 2 - i]) / denom for i in range(k - 1)]
    return np.asarray(out[::-1])


def _arma_blocks(v, spec):
    """The (p, q, P, Q) blocks of a vector laid out in ARMA order."""
    i, j, k = spec.p, spec.p + spec.q, spec.p + spec.q + spec.P
    return v[:i], v[i:j], v[j:k], v[k : k + spec.Q]


def _z_to_coefs(z, spec):
    """Unconstrained vector -> (phi, theta, PHI, THETA), all stationary/invertible."""
    zp, zq, zsp, zsq = _arma_blocks(z, spec)
    return (
        _pacf_to_ar(np.tanh(zp)),
        -_pacf_to_ar(np.tanh(zq)),
        _pacf_to_ar(np.tanh(zsp)),
        -_pacf_to_ar(np.tanh(zsq)),
    )


def _coefs_to_z(phi, theta, sphi, stheta):
    blocks = [
        _ar_to_pacf(phi),
        _ar_to_pacf(-np.asarray(theta, dtype=float)),
        _ar_to_pacf(sphi),
        _ar_to_pacf(-np.asarray(stheta, dtype=float)),
    ]
    r = np.concatenate(blocks)
    return np.arctanh(np.clip(r, -0.98, 0.98))


def _roots_outside(poly) -> bool:
    """True when every root of the lowest-first polynomial lies outside the unit circle."""
    if len(poly) <= 1:
        return True
    roots = np.roots(poly[::-1])
    return bool(np.all(np.abs(roots) > 1.0 + 1e-9)) if roots.size else True


# ---------------------------------------------------------------------------
# conditional-likelihood machinery


def _css_filter(block: np.ndarray, ar_full, ma_full, burn: int) -> np.ndarray:
    """The CSS innovation filter applied to every column of an (n, k) block.

    Returns the filtered block for t >= burn. Pre-sample innovations are
    zero; burn >= the AR span, so every AR lag of a kept point is real data.
    The AR stage is an FIR filter: one np.convolve(ar_full, column) per
    column, the very call lfilter with a one-tap denominator makes for each
    column, without its wrapper's per-call cost. It leaves each column
    contiguous. The MA stage inverts the MA polynomial with lfilter.
    """
    from scipy.signal import lfilter

    n = block.shape[0]
    w = np.array([np.convolve(ar_full, col)[burn:n] for col in block.T]).T
    return lfilter([1.0], ma_full, w, axis=0) if len(ma_full) > 1 else w


def _concentrated(block, spec, phi, theta, sphi, stheta):
    """Profile the regression block out of the CSS likelihood of the
    (n, 1 + k) block [y | design]; return (loglik, b, resid, sigma2, d_f)."""
    ar_full = _lag_poly(phi, sphi, spec.s, -1.0)
    ma_full = _lag_poly(theta, stheta, spec.s, 1.0)
    burn = spec.burn_in
    n_eff = block.shape[0] - burn
    filt = _css_filter(block, ar_full, ma_full, burn)
    y_f, d_f = filt[:, 0], filt[:, 1:]
    b, *_ = np.linalg.lstsq(d_f, y_f, rcond=None)
    resid = y_f - d_f @ b
    sse = float(resid @ resid)
    sigma2 = max(sse / n_eff, _SIGMA2_FLOOR)
    loglik = -0.5 * n_eff * (math.log(2.0 * math.pi) + math.log(sigma2) + 1.0)
    return loglik, b, resid, sigma2, d_f


def _hannan_rissanen(u: np.ndarray, spec: SarimaxSpec) -> np.ndarray:
    """Initial unconstrained ARMA point from lag regressions on u."""
    dims = spec.p + spec.q + spec.P + spec.Q
    if dims == 0:
        return np.array([])
    n = u.size
    ar_lags = list(range(1, spec.p + 1)) + [spec.s * j for j in range(1, spec.P + 1)]
    ma_lags = list(range(1, spec.q + 1)) + [spec.s * j for j in range(1, spec.Q + 1)]

    eps = None
    if ma_lags:
        long_order = min(max(10, 2 * spec.burn_in), max(n // 4, 1))
        cols = [u[long_order - k : n - k] for k in range(1, long_order + 1)]
        try:
            a, *_ = np.linalg.lstsq(np.column_stack(cols), u[long_order:], rcond=None)
            eps = np.zeros(n)
            eps[long_order:] = u[long_order:] - np.column_stack(cols) @ a
        except np.linalg.LinAlgError:
            eps = np.zeros(n)

    start = max([0] + ar_lags + ma_lags)
    if n - start < 10 + len(ar_lags) + len(ma_lags):
        return np.zeros(dims)
    # eps is None only without MA lags, when the second list is empty
    cols = [u[start - k : n - k] for k in ar_lags] + [eps[start - k : n - k] for k in ma_lags]
    try:
        coef, *_ = np.linalg.lstsq(np.column_stack(cols), u[start:], rcond=None)
    except np.linalg.LinAlgError:
        return np.zeros(dims)

    phi = coef[: spec.p]
    sphi = coef[spec.p : spec.p + spec.P]
    k = spec.p + spec.P
    theta = coef[k : k + spec.q]
    stheta = coef[k + spec.q : k + spec.q + spec.Q]
    return _coefs_to_z(phi, theta, sphi, stheta)


def _numeric_hessian(f, x: np.ndarray) -> np.ndarray:
    d = x.size
    h = 1e-4 * np.maximum(1.0, np.abs(x))
    hess = np.empty((d, d))
    for i in range(d):
        for j in range(i, d):
            ei = np.zeros(d)
            ej = np.zeros(d)
            ei[i] = h[i]
            ej[j] = h[j]
            fpp = f(x + ei + ej)
            fpm = f(x + ei - ej)
            fmp = f(x - ei + ej)
            fmm = f(x - ei - ej)
            hess[i, j] = hess[j, i] = (fpp - fpm - fmp + fmm) / (4.0 * h[i] * h[j])
    return hess


def _as_exog(exog, n: int, what: str = "exog") -> np.ndarray:
    """exog as an (n, k) float matrix: a FeatureMatrix's matrix, or an array
    whose single row (or 1-D vector) is read as one column when n > 1."""
    if isinstance(exog, FeatureMatrix):
        x = np.asarray(exog.matrix, dtype=float)
    else:
        x = np.atleast_2d(np.asarray(exog, dtype=float))
        if x.shape[0] == 1 and n != 1:
            x = x.T
    if x.shape[0] != n:
        raise ValueError(f"{what} has {x.shape[0]} rows, need {n}")
    return x


def _prepare_exog(exog, n: int):
    """The regression design [1 | exog standardized], checked for
    collinearity, with the column names, means and scales."""
    if exog is None:
        return np.ones((n, 1)), (), np.array([]), np.array([])
    # one memory order for the standardization: numpy's axis-0 sums round
    # differently over C- and Fortran-ordered copies of the same matrix
    x = np.asfortranarray(_as_exog(exog, n))
    if isinstance(exog, FeatureMatrix):
        names = exog.column_names
    else:
        names = tuple(f"x{j + 1}" for j in range(x.shape[1]))
    mean = x.mean(axis=0)
    scale = x.std(axis=0, ddof=0)
    dead = scale == 0.0
    if dead.any():
        bad = [names[j] for j in np.nonzero(dead)[0]]
        raise ValueError(f"exog columns with zero variance cannot be standardized: {bad}")
    design = np.column_stack([np.ones(n), (x - mean) / scale])
    cond = np.linalg.cond(design)
    if cond > 1e10:
        raise CollinearityError(f"exogenous design condition number {cond:.3e} > 1e10")
    return design, names, mean, scale


def fit(
    ts: TimeSeries,
    spec: SarimaxSpec,
    exog=None,
    *,
    n_restarts: int = 3,
    seed: int = 0,
) -> SarimaxFit:
    """Estimate the model by conditional Gaussian maximum likelihood.

    Starts the simplex search from Hannan-Rissanen initial values plus
    ``n_restarts`` seeded perturbations, keeping the best optimum. A run
    that exhausts the iteration cap is returned with ``converged=False``
    rather than discarded. Only genuine identifiability is enforced
    (effective sample larger than the parameter count); for trustworthy
    inference aim for at least ~10 observations per parameter.
    """
    y = ts.values.astype(float)
    n = y.size
    design, exog_names, exog_mean, exog_scale = _prepare_exog(exog, n)
    n_exog = design.shape[1] - 1
    if spec.n_exog and spec.n_exog != n_exog:
        raise ValueError(f"spec.n_exog={spec.n_exog} but exog has {n_exog} columns")
    spec = SarimaxSpec(spec.p, spec.q, spec.P, spec.Q, spec.s, n_exog)
    n_eff = n - spec.burn_in
    if n_eff <= design.shape[1] + spec.p + spec.q + spec.P + spec.Q:
        raise ValueError(
            f"series too short: {n_eff} effective points for {spec.n_params} parameters"
        )

    dims = spec.p + spec.q + spec.P + spec.Q
    block = np.column_stack([y, design])

    def objective(z):
        ll, *_ = _concentrated(block, spec, *_z_to_coefs(z, spec))
        return -ll

    converged = True
    if dims == 0:
        z_best = np.array([])
    else:
        b0, *_ = np.linalg.lstsq(design, y, rcond=None)
        z0 = _hannan_rissanen(y - design @ b0, spec)
        rng = np.random.default_rng(seed)
        starts = [z0] + [z0 + rng.normal(0.0, 0.4, size=dims) for _ in range(n_restarts)]
        best_val, z_best, converged = math.inf, z0, False
        for z_start in starts:
            res = minimize(
                objective,
                z_start,
                method="Nelder-Mead",
                options={
                    "maxiter": _MAX_ITER,
                    "maxfev": 2 * _MAX_ITER,
                    "fatol": _FATOL,
                    "xatol": 1e-6,
                },
            )
            if res.fun < best_val:
                best_val, z_best, converged = res.fun, res.x, bool(res.success)

    phi, theta, sphi, stheta = _z_to_coefs(z_best, spec)
    loglik, b, resid, sigma2, d_f = _concentrated(block, spec, phi, theta, sphi, stheta)
    intercept, beta = float(b[0]), np.asarray(b[1:], dtype=float)
    u = y - design @ b
    bic = -2.0 * loglik + spec.n_params * math.log(n_eff)

    resid = np.asarray(resid)
    resid.setflags(write=False)
    u.setflags(write=False)
    return SarimaxFit(
        spec=spec,
        ar=tuple(float(v) for v in phi),
        ma=tuple(float(v) for v in theta),
        sar=tuple(float(v) for v in sphi),
        sma=tuple(float(v) for v in stheta),
        exog_beta=tuple(float(v) for v in beta),
        intercept=intercept,
        sigma2=sigma2,
        exog_pvalues=_pvalues(beta, _regression_se(d_f, sigma2)[1:]),
        loglik=float(loglik),
        bic=float(bic),
        residuals=resid,
        converged=converged,
        exog_names=tuple(exog_names),
        exog_mean=exog_mean,
        exog_scale=exog_scale,
        u_history=u,
    )


def _regression_se(d_f: np.ndarray, sigma2: float) -> np.ndarray:
    """Standard errors of the regression block, sigma2 * (X~'X~)^-1 on the
    filtered design; NaN when X~'X~ is singular."""
    try:
        cov_reg = sigma2 * np.linalg.inv(d_f.T @ d_f)
    except np.linalg.LinAlgError:
        return np.full(d_f.shape[1], math.nan)
    return np.sqrt(np.maximum(np.diag(cov_reg), 0.0))


def _pvalues(estimates, stderrs) -> tuple[float, ...]:
    """Two-sided normal p-values; NaN where an error is not finite and positive."""
    return tuple(
        math.erfc(abs(e / s) / math.sqrt(2.0)) if (math.isfinite(s) and s > 0) else math.nan
        for e, s in zip(estimates, stderrs)
    )


def coefficients_json(fit_result: SarimaxFit, ts: TimeSeries, exog=None) -> str:
    """The coefficient table, as JSON, of ``fit_result`` made on ``ts`` and
    ``exog``.

    Rebuilds the fit's [y | design] block and evaluates the concentrated
    likelihood at the fitted coefficients. The regression block's errors
    are computed as ``fit`` computes them, the ARMA block's from the
    numerical Hessian there, sigma2's from its asymptotic variance
    2 sigma2^2 / n_eff. An error the Hessian does not give (it is not
    positive definite), and its p-value, are written as null.
    """
    spec = fit_result.spec
    y = ts.values.astype(float)
    design, *_ = _prepare_exog(exog, y.size)
    if design.shape[1] != 1 + spec.n_exog:
        raise ValueError(f"exog has {design.shape[1] - 1} columns, the fit {spec.n_exog}")
    block = np.column_stack([y, design])
    arma = np.array(fit_result.ar + fit_result.ma + fit_result.sar + fit_result.sma)
    *_, d_f = _concentrated(block, spec, *_arma_blocks(arma, spec))

    def f_natural(v):
        ll, *_ = _concentrated(block, spec, *_arma_blocks(v, spec))
        return -ll

    hess = _numeric_hessian(f_natural, arma)
    arma_se = np.full(arma.size, math.nan)
    try:
        diag = np.diag(np.linalg.inv(hess))
        if not np.any(diag <= 0):
            arma_se = np.sqrt(diag)
    except np.linalg.LinAlgError:
        pass

    sigma2 = fit_result.sigma2
    names = ("intercept",) + fit_result.exog_names
    for prefix, order in (("ar", spec.p), ("ma", spec.q), ("sar", spec.P), ("sma", spec.Q)):
        names += tuple(f"{prefix}{i + 1}" for i in range(order))
    names += ("sigma2",)
    estimates = [fit_result.intercept, *fit_result.exog_beta, *map(float, arma), sigma2]
    stderrs = np.concatenate([
        _regression_se(d_f, sigma2),
        arma_se,
        [sigma2 * math.sqrt(2.0 / (y.size - spec.burn_in))],
    ])
    table = [
        {"name": n, "estimate": e, "stderr": float(s), "p_value": p}
        for n, e, s, p in zip(names, estimates, stderrs, _pvalues(estimates, stderrs))
    ]
    return json_text({
        "spec": {
            "order": [spec.p, 0, spec.q],
            "seasonal_order": [spec.P, 0, spec.Q, spec.s],
            "n_exog": spec.n_exog,
        },
        "coefficients": table,
        "loglik": fit_result.loglik,
        "bic": fit_result.bic,
        "sigma2": sigma2,
        "n_obs": y.size,
        "converged": fit_result.converged,
    })


def exog_design(fit_result: SarimaxFit, exog, n: int) -> np.ndarray:
    """The n-row regression design [1 | exog standardized as in the fit]
    that apply_params multiplies by the intercept and betas; a column of
    ones for a fit without exogenous columns."""
    if not fit_result.spec.n_exog:
        return np.ones((n, 1))
    if exog is None:
        raise ValueError("exog required by this fit")
    xs = (_as_exog(exog, n) - fit_result.exog_mean) / fit_result.exog_scale
    return np.column_stack([np.ones(n), xs])


def apply_params(fit_result: SarimaxFit, ts: TimeSeries, design=None) -> SarimaxFit:
    """Update state (u history, innovations) on new data with frozen coefficients.

    Used between periodic refits: the rolling loop appends observations and
    needs fresh lag state for forecasting without re-estimating anything.
    ``design`` is exog_design's matrix for these rows, required when the fit
    has exogenous columns: a caller that extends a state keeps the design
    of the rows it has already seen and stacks only the new rows' under it.
    The design's memory order is the caller's to choose, since its product
    with the coefficients rounds differently in C and Fortran order.
    """
    y = ts.values.astype(float)
    n = y.size
    spec = fit_result.spec
    if design is None:
        design = exog_design(fit_result, None, n)
    elif design.shape != (n, 1 + spec.n_exog):
        raise ValueError(f"design is {design.shape}, need {(n, 1 + spec.n_exog)}")
    b = np.concatenate([[fit_result.intercept], fit_result.exog_beta])
    u = y - design @ b
    resid = _css_filter(u[:, None], fit_result.ar_poly, fit_result.ma_poly, spec.burn_in)[:, 0]
    resid.setflags(write=False)
    u.setflags(write=False)
    return replace(fit_result, residuals=resid, u_history=u)


def forecast(fit_result: SarimaxFit, horizon: int, exog_future=None) -> np.ndarray:
    """Recursive mean forecast of the next ``horizon`` hours as a float array.

    Unknown future innovations are zero. Raises ValueError if a value is
    not finite, as a diverging state or an infinite exogenous entry gives.
    """
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    spec = fit_result.spec
    if spec.n_exog:
        if exog_future is None:
            raise ValueError("exog_future required: fit uses exogenous columns")
        xf = _as_exog(exog_future, horizon, "exog_future")
        if xf.shape[1] != spec.n_exog:
            raise ValueError(f"exog_future must be ({horizon}, {spec.n_exog}), got {xf.shape}")
        xf = (xf - fit_result.exog_mean) / fit_result.exog_scale
    else:
        xf = np.zeros((horizon, 0))

    ar_full, ma_full = fit_result.ar_poly, fit_result.ma_poly
    n = fit_result.u_history.size
    burn = spec.burn_in

    u_ext = np.concatenate([fit_result.u_history, np.zeros(horizon)])
    eps_ext = np.zeros(n + horizon)
    eps_ext[burn:n] = fit_result.residuals

    for h in range(horizon):
        t = n + h
        acc = 0.0
        for k in range(1, len(ar_full)):
            if t - k >= 0:
                acc -= ar_full[k] * u_ext[t - k]
        for k in range(1, len(ma_full)):
            if 0 <= t - k < n:
                acc += ma_full[k] * eps_ext[t - k]
        u_ext[t] = acc

    mean = fit_result.intercept + xf @ np.asarray(fit_result.exog_beta) + u_ext[n:]
    if not np.isfinite(mean).all():
        raise ValueError("forecast values must be finite")
    return mean


def simulate(
    spec: SarimaxSpec,
    n: int,
    seed: int,
    *,
    ar=(),
    ma=(),
    sar=(),
    sma=(),
    exog_beta=(),
    intercept: float = 0.0,
    sigma2: float = 1.0,
    exog=None,
    name: str = "simulated",
) -> TimeSeries:
    """Draw a series from the model; deterministic for a fixed seed."""
    if len(ar) != spec.p or len(ma) != spec.q or len(sar) != spec.P or len(sma) != spec.Q:
        raise ValueError("parameter lengths must match the model orders")
    ar_full = _lag_poly(ar, sar, spec.s, -1.0)
    ma_full = _lag_poly(ma, sma, spec.s, 1.0)
    if not _roots_outside(ar_full):
        raise ValueError("AR parameters are not stationary")
    if not _roots_outside(ma_full):
        raise ValueError("MA parameters are not invertible")
    if sigma2 <= 0:
        raise ValueError("sigma2 must be > 0")

    from scipy.signal import lfilter

    rng = np.random.default_rng(seed)
    eps = rng.normal(0.0, math.sqrt(sigma2), size=n + _SIMULATE_BURN_IN)
    u = lfilter(ma_full, ar_full, eps)[_SIMULATE_BURN_IN:]
    y = intercept + u
    if exog is not None:
        y = y + _as_exog(exog, n) @ np.asarray(exog_beta, dtype=float)
    return TimeSeries(y, name=name)

