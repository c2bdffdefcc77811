"""Seasonal ARMA estimation with exogenous regressors (conditional likelihood).

The model is  y_t = intercept + x_t' beta + u_t  with the disturbance u_t
following a multiplicative seasonal ARMA: phi(B) PHI(B^s) u_t =
theta(B) THETA(B^s) eps_t, eps_t ~ N(0, sigma2). Estimation maximizes the
conditional (CSS) Gaussian likelihood: the first max(p + s*P, q + s*Q)
points are burn-in and pre-sample innovations are zero.

Three structural facts keep this fast and robust:

* The CSS filter F is linear, so for fixed ARMA coefficients the optimal
  regression block (intercept + betas) is exact least squares on the
  filtered design, and the negative log-likelihood rises with the sum of
  squares of the profiled residual r(z) = P(z) F(z) y, P projecting off
  the filtered design: a separable nonlinear least squares problem in the
  ARMA coefficients alone (variable projection, Golub & Pereyra 1973),
  however many exogenous columns are attached. ``fit`` searches it in two
  stages from each start. A Nelder-Mead simplex search of the profiled
  likelihood picks the local optimum: with dozens of exogenous columns the
  likelihood has several, and a gradient method from the same start
  often ends in another one, higher as often as lower.
  scipy's trust-region reflective ``least_squares`` on r then converges
  in that optimum to its tolerances, with Kaufman's (1975) Jacobian: with
  the regression block held at its optimum b, the derivatives need F's
  derivative on the one column u = y - X b only, and they follow the
  model's own recursion.
* The filter runs over the whole ``[y | design]`` block (built once per
  fit): the AR polynomial as one ``np.convolve`` per column, then the
  inverse MA polynomial by an exact numpy recursion with the bits of
  ``scipy.signal.lfilter``. The regression is solved through a Cholesky
  factorization of the filtered Gram matrix, or the filtered design's
  singular value decomposition when that one is ill-conditioned; the
  Jacobian's projection uses the same factorization. ``apply_params``
  extends a fit by the rows that follow it: the same two stages over the
  new rows only, continued from the fit's last values.
* Stationarity/invertibility are enforced by optimizing in an
  unconstrained space mapped through tanh partial autocorrelations
  (Monahan's recursion), one block each for phi, theta, PHI, THETA. A fit
  that ends with a lag-polynomial root within ``_UNIT_ROOT_TOL`` of the
  unit circle is reported as not converged.

Standard errors: regression block from sigma2 * (X~'X~)^-1 on the filtered
design, which gives ``fit`` its exogenous p-values; ARMA block from the
numerical Hessian of the concentrated log-likelihood, 4*d*(d+1)/2
evaluations for d ARMA coefficients, which only ``coefficients_json``
pays. The two blocks are asymptotically independent for
regression-with-ARMA-errors models.

scipy supplies both searches (``scipy.optimize``, with the factorizations
of ``scipy.linalg`` it loads) and the recursive filter of ``simulate``
(``scipy.signal.lfilter``). Both are imported where a fit or a simulation
first runs, not with this module: ``scipy.optimize`` takes about half a
second to import, ``scipy.signal`` (which loads ``scipy.stats``) about a
second more, and ``import oeeforecast`` and the commands that fit nothing
should not pay for either. A server that fits on its first requests calls
``import_fit_path`` before it starts answering.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass, field

import numpy as np

from .feature_matrix import FeatureMatrix
from .series import TimeSeries, json_text

MAX_ORDER = 8
_SIGMA2_FLOOR = 1e-12
_MAX_ITER = 5000  # Nelder-Mead iterations per start
_FATOL = 1e-8  # Nelder-Mead objective tolerance
_LSQ_TOL = 1e-12  # least_squares' ftol, xtol and gtol
# a fit whose AR or MA lag polynomial has a root of modulus below 1 + this
# is on the stationarity/invertibility boundary and reported not converged
_UNIT_ROOT_TOL = 1e-3
# a block of the MA stage steps column by column in Python floats while its
# width times its smallest nonzero MA lag is below this, else in row blocks:
# a row-block step of numpy calls costs about 15 Python-float steps
_PY_MA_SPAN = 16
# largest estimated condition number of a filtered design solved through its
# Gram matrix, whose solution then keeps about cond^2 * 1e-16 relative error
_COND_LIMIT = 1e5
_SIMULATE_BURN_IN = 200  # simulate's leading draws, discarded to forget the zero start


def minimize(fun, x0, residual, jac):
    """A Nelder-Mead search of the scalar ``fun`` from ``x0``, then
    ``scipy.optimize.least_squares`` of ``residual`` with the Jacobian
    ``jac`` from where it stopped; scipy is imported at the first call.

    Returns the least-squares result: its cost is at most half the sum of
    squares at the Nelder-Mead end, since the trust-region search only
    takes steps that lower it. ``fit`` calls this through the module
    global; perfbench/tracing.py wraps this name to count the objective
    evaluations, so the result's ``nfev`` counts the Nelder-Mead, residual
    and Jacobian evaluations together (``njev`` the Jacobian's alone).
    """
    import scipy.optimize

    simplex = scipy.optimize.minimize(
        fun, x0, method="Nelder-Mead",
        options={"maxiter": _MAX_ITER, "maxfev": 2 * _MAX_ITER, "fatol": _FATOL, "xatol": 1e-6},
    )
    res = scipy.optimize.least_squares(
        residual, simplex.x, jac=jac,
        method="trf", x_scale="jac", ftol=_LSQ_TOL, xtol=_LSQ_TOL, gtol=_LSQ_TOL,
    )
    res.nfev += res.njev + simplex.nfev
    return res


def import_fit_path() -> None:
    """Import the optimizer now instead of at the first fit."""
    import scipy.optimize  # noqa: F401


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


def _pacf_to_ar_jacobian(r):
    """d _pacf_to_ar(r) / d r, as an (m, m) matrix: the recursion's forward
    derivative, in Python floats (m <= MAX_ORDER)."""
    m = len(r)
    y: list[float] = []
    dy: list[list[float]] = []  # dy[i][j] = d y[i] / d r[j]
    for k, rk in enumerate(map(float, r), start=1):
        step = [[a - rk * b for a, b in zip(dy[i], dy[k - 2 - i])] for i in range(k - 1)]
        for i in range(k - 1):
            step[i][k - 1] -= y[k - 2 - i]
        step.append([1.0 if j == k - 1 else 0.0 for j in range(m)])
        y = [y[i] - rk * y[k - 2 - i] for i in range(k - 1)] + [rk]
        dy = step
    return np.array(dy).reshape(m, m)


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


def _z_jacobian(z, spec) -> np.ndarray:
    """d (phi, theta, PHI, THETA) / d z: block diagonal, one block per
    polynomial, through tanh and Monahan's recursion."""
    r = np.tanh(z)
    out = np.zeros((z.size, z.size))
    at = 0
    for k, sign in zip((spec.p, spec.q, spec.P, spec.Q), (1.0, -1.0, 1.0, -1.0)):
        if k:
            out[at : at + k, at : at + k] = _pacf_to_ar_jacobian(r[at : at + k])
            out[at : at + k, at : at + k] *= sign * (1.0 - r[at : at + k] ** 2)
        at += k
    return out


def _coefs_to_z(phi, theta, sphi, stheta):
    blocks = [
        _ar_to_pacf(phi),
        _ar_to_pacf(-np.asarray(theta, dtype=float)),
        _ar_to_pacf(sphi),
        _ar_to_pacf(-np.asarray(stheta, dtype=float)),
    ]
    r = np.concatenate(blocks)
    return np.arctanh(np.clip(r, -0.98, 0.98))


def _roots_outside(poly, tol: float = 1e-9, lag: int = 1) -> bool:
    """True when every root of the lowest-first polynomial in B^lag lies
    outside the circle of radius 1 + tol in B."""
    if len(poly) <= 1:
        return True
    roots = np.roots(poly[::-1])
    return bool(np.all(np.abs(roots) ** (1.0 / lag) > 1.0 + tol)) if roots.size else True


def _on_unit_circle(spec, phi, theta, sphi, stheta) -> bool:
    """Whether a factor of the AR or MA polynomial has a root within
    _UNIT_ROOT_TOL of the unit circle."""
    factors = ((phi, -1.0, 1), (theta, 1.0, 1), (sphi, -1.0, spec.s), (stheta, 1.0, spec.s))
    return not all(
        _roots_outside(np.concatenate(([1.0], sign * np.asarray(c))), _UNIT_ROOT_TOL, lag)
        for c, sign, lag in factors
    )


# ---------------------------------------------------------------------------
# conditional-likelihood machinery


def _ma_stage(w: np.ndarray, ma_full, init=None) -> np.ndarray:
    """Invert the MA polynomial over every column of w: the bits of
    lfilter([1.0], ma_full, w, axis=0), continued from ``init``.

    ``init`` holds the innovations before w's first row, at least
    len(ma_full) - 1 rows of them, as many columns as w; None means they
    are zero (pre-sample innovations).

    lfilter's direct form II transposed sums each output's taps from the
    highest lag down and adds the input last; this recursion does the same
    over the nonzero taps only. Rows closer together than the smallest
    nonzero lag do not depend on one another, so a block steps through row
    blocks of that lag, one numpy operation per tap. A block too narrow for
    that to pay (fewer than _PY_MA_SPAN / lag columns: a single column
    unless the lag is _PY_MA_SPAN or more) steps through each column's rows
    in Python floats.
    """
    taps = [(k, float(ma_full[k])) for k in range(len(ma_full) - 1, 0, -1) if ma_full[k] != 0.0]
    if not taps:
        return w
    top, lag = taps[0][0], taps[-1][0]
    n, width = w.shape
    head = np.zeros((top, width)) if init is None else init[len(init) - top :]
    if width * lag < _PY_MA_SPAN:
        cols = []
        for col, out in zip(w.T.tolist(), head.T.tolist()):
            # one tap, the usual seasonal-only MA: (0.0 - a * y) + v equals
            # v - a * y, and one float operation less per row takes a
            # third off the column
            if len(taps) == 1:
                a = taps[0][1]
                for v in col:
                    out.append(v - a * out[-top])
            else:
                for v in col:
                    acc = 0.0
                    for k, a in taps:
                        acc -= a * out[-k]
                    out.append(acc + v)
            cols.append(out[top:])
        return np.array(cols).T
    # the input sits where its output goes, in whole row blocks
    out = np.zeros((top + n - n % -lag, width))
    out[:top] = head
    out[top : top + n] = w
    for t in range(top, top + n, lag):
        acc = out[t - top : t - top + lag] * -taps[0][1]
        for k, a in taps[1:]:
            acc -= a * out[t - k : t - k + lag]
        block = out[t : t + lag]
        np.add(acc, block, out=block)
    return out[top : top + n]


def _css_filter(block: np.ndarray, ar_full, ma_full, burn: int) -> np.ndarray:
    """The CSS innovation filter applied to every column of an (n, k) block.

    Returns the filtered block for t >= burn. Pre-sample innovations are
    zero; burn >= the AR span, so every AR lag of a kept point is real data.
    The AR stage is an FIR filter: one np.convolve(ar_full, column) per
    column, the very call lfilter with a one-tap denominator makes for each
    column, without its wrapper's per-call cost. It leaves each column
    contiguous. The MA stage is _ma_stage.
    """
    n = block.shape[0]
    w = np.array([np.convolve(ar_full, col)[burn:n] for col in block.T]).T
    return _ma_stage(w, ma_full)


class _Projection:
    """Least squares on a filtered design d_f, and the projection off its
    column span.

    A Cholesky factor L of the Gram matrix d_f'd_f (LAPACK's potrf and
    potrs, one call each) serves both while LAPACK's 1-norm estimate of
    L's condition number (in the 2-norm it is d_f's) stays below
    _COND_LIMIT. Past that, or when the factorization fails, the singular
    value decomposition of d_f, its rank cut as lstsq cuts it, so that a
    rank-deficient filtered design projects as lstsq projects it.
    """

    def __init__(self, d_f: np.ndarray):
        from scipy.linalg.lapack import dpotrf, dpotrs, dtrcon

        self.d_f = d_f
        self._potrs = dpotrs
        chol, info = dpotrf(d_f.T @ d_f, lower=1, clean=1)
        if info == 0 and dtrcon(chol, norm="1", uplo="L")[0] * _COND_LIMIT > 1.0:
            self.chol = chol
        else:
            self.chol = None
            u, sv, vt = np.linalg.svd(d_f, full_matrices=False)
            rank = int(np.sum(sv > sv[0] * max(d_f.shape) * np.finfo(float).eps))
            self.basis, self._pinv = u[:, :rank], vt[:rank].T / sv[:rank]

    def coefficients(self, rhs: np.ndarray) -> np.ndarray:
        """argmin_b |rhs - d_f b| (per column of a 2-D rhs), the least-norm
        one when d_f is rank-deficient."""
        if self.chol is None:
            return self._pinv @ (self.basis.T @ rhs)
        return self._potrs(self.chol, self.d_f.T @ rhs, lower=1)[0]

    def residual(self, rhs: np.ndarray) -> np.ndarray:
        """rhs projected off d_f's column span."""
        if self.chol is None:
            return rhs - self.basis @ (self.basis.T @ rhs)
        return rhs - self.d_f @ self.coefficients(rhs)


def _concentrated(block, spec, phi, theta, sphi, stheta):
    """Profile the regression block out of the CSS likelihood of the
    (n, 1 + k) block [y | design]; return (loglik, b, resid, sigma2, proj),
    proj the _Projection of the filtered design."""
    ar_full = _lag_poly(phi, sphi, spec.s, -1.0)
    ma_full = _lag_poly(theta, stheta, spec.s, 1.0)
    burn = spec.burn_in
    n_eff = block.shape[0] - burn
    filt = _css_filter(block, ar_full, ma_full, burn)
    y_f, proj = filt[:, 0], _Projection(filt[:, 1:])
    b = proj.coefficients(y_f)
    resid = y_f - proj.d_f @ b
    sse = float(resid @ resid)
    sigma2 = max(sse / n_eff, _SIGMA2_FLOOR)
    loglik = -0.5 * n_eff * (math.log(2.0 * math.pi) + math.log(sigma2) + 1.0)
    return loglik, b, resid, sigma2, proj


def _innovation_derivatives(block, spec, coefs, b, resid) -> np.ndarray:
    """d resid / d (phi, theta, PHI, THETA) with the regression block held
    at b: an (n_eff, d) matrix, before the projection.

    resid is F(coefs) u for u = y - design b. An AR coefficient enters F
    through conv(ar_full, u): its column is -conv(other AR factor, u)
    shifted by its lag, then the MA stage. An MA coefficient enters through
    ma_full * resid = conv(ar_full, u): its column is -conv(other MA factor,
    resid) shifted by its lag, then the MA stage (Box, Jenkins & Reinsel
    ch. 7).
    """
    phi, theta, sphi, stheta = coefs
    s, burn = spec.s, spec.burn_in
    u = block[:, 0] - block[:, 1:] @ b
    n, n_eff = u.size, resid.size
    cols = []

    def ar_columns(other, lags):
        c = np.convolve(other, u)
        cols.extend(-c[burn - k : n - k] for k in lags)

    def ma_columns(other, lags):
        c = np.convolve(other, resid)[:n_eff]
        for k in lags:
            col = np.zeros(n_eff)
            col[k:] = -c[: n_eff - k]
            cols.append(col)

    ar_columns(_lag_poly((), sphi, s, -1.0), range(1, spec.p + 1))
    ma_columns(_lag_poly((), stheta, s, 1.0), range(1, spec.q + 1))
    ar_columns(_lag_poly(phi, (), s, -1.0), range(s, s * spec.P + 1, s))
    ma_columns(_lag_poly(theta, (), s, 1.0), range(s, s * spec.Q + 1, s))
    return _ma_stage(np.column_stack(cols), _lag_poly(theta, stheta, s, 1.0))


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

    Runs ``minimize`` (a Nelder-Mead search, then a variable-projection
    least-squares search from its end) from Hannan-Rissanen initial values
    plus ``n_restarts`` seeded perturbations, keeping the best optimum. A
    search that ends without meeting its least-squares tolerances, or
    whose best optimum has a lag-polynomial root within _UNIT_ROOT_TOL of
    the unit circle, is returned with ``converged=False`` rather than
    discarded. Only genuine identifiability is enforced (effective sample
    larger than the parameter count); for trustworthy inference aim for at
    least ~10 observations per parameter.
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
    last = {}  # the residual evaluation the Jacobian at the same point reuses

    def residual(z):
        coefs = _z_to_coefs(z, spec)
        loglik, b, resid, _, proj = _concentrated(block, spec, *coefs)
        last.update(z=z.copy(), coefs=coefs, b=b, resid=resid, proj=proj, loglik=loglik)
        return resid

    def objective(z):
        residual(z)
        return -last["loglik"]

    def jacobian(z):
        if "z" not in last or not np.array_equal(last["z"], z):
            residual(z)
        g = _innovation_derivatives(block, spec, last["coefs"], last["b"], last["resid"])
        return last["proj"].residual(g) @ _z_jacobian(z, spec)

    converged = True
    if dims == 0:
        z_best = np.array([])
    else:
        b0, *_ = np.linalg.lstsq(design, y, rcond=None)
        z0 = _hannan_rissanen(y - design @ b0, spec)
        rng = np.random.default_rng(seed)
        starts = [z0] + [z0 + rng.normal(0.0, 0.4, size=dims) for _ in range(n_restarts)]
        best_cost, z_best = math.inf, z0
        for z_start in starts:
            res = minimize(objective, z_start, residual, jacobian)
            if res.cost < best_cost:
                best_cost, z_best, converged = res.cost, res.x, res.status > 0

    phi, theta, sphi, stheta = _z_to_coefs(z_best, spec)
    loglik, b, resid, sigma2, proj = _concentrated(block, spec, phi, theta, sphi, stheta)
    converged = converged and not _on_unit_circle(spec, phi, theta, sphi, stheta)
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
        exog_pvalues=_pvalues(beta, _regression_se(proj.d_f, sigma2)[1:]),
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
    *_, proj = _concentrated(block, spec, *_arma_blocks(arma, spec))

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
        _regression_se(proj.d_f, sigma2),
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


def _standardized(fit_result: SarimaxFit, exog, n: int, what: str) -> np.ndarray:
    """The n rows of ``exog`` standardized as the fit standardized its own;
    (n, 0) for a fit without exogenous columns, which takes no exog."""
    spec = fit_result.spec
    if not spec.n_exog:
        if exog is not None:
            raise ValueError(f"{what} given to a fit without exogenous columns")
        return np.zeros((n, 0))
    if exog is None:
        raise ValueError(f"{what} required: fit uses exogenous columns")
    x = _as_exog(exog, n, what)
    if x.shape[1] != spec.n_exog:
        raise ValueError(f"{what} must be ({n}, {spec.n_exog}), got {x.shape}")
    return (x - fit_result.exog_mean) / fit_result.exog_scale


def apply_params(state: SarimaxFit, y_new, exog=None) -> SarimaxFit:
    """Extend a fit or state by the observations ``y_new`` that follow it,
    with frozen coefficients.

    Used between periodic refits: the rolling loop appends the hours
    observed since the refit, then each recursive forecast step, without
    re-estimating anything. With the coefficients frozen, the state's last
    values carry everything the new rows need (Box, Jenkins & Reinsel
    ch. 5): the new regression residuals u = y - intercept - x beta, then
    the AR polynomial over them and the last values of u before them, then
    the inverse MA polynomial continued from the state's last innovations.
    ``exog`` holds the new rows' exogenous values, required exactly when
    the fit has exogenous columns; each row's product with the betas is
    its own (a C-ordered row-by-row sum), so a row's bits do not depend on
    how many rows arrive with it. Zero new rows return the state itself.
    The state shares the fit's lag polynomials instead of building them
    again.
    """
    y = np.asarray(y_new, dtype=float)
    m = y.size
    x = _standardized(state, exog, m, "exog")
    if m == 0:
        return state
    beta = np.asarray(state.exog_beta, dtype=float)
    u_new = y - state.intercept - np.einsum("ij,j->i", np.ascontiguousarray(x), beta)
    ar_full, ma_full = state.ar_poly, state.ma_poly
    u = np.concatenate([state.u_history, u_new])
    # one value more than the AR kernel: np.convolve then keeps the argument
    # order, and with it the sums, of the fit's whole-series filter
    kernel = len(ar_full)
    w = np.convolve(ar_full, u[u.size - kernel - m :])[kernel : kernel + m]
    # the innovations before the new rows, zero before the burn-in
    eps = np.concatenate([np.zeros(len(ma_full) - 1), state.residuals])
    resid_new = _ma_stage(w[:, None], ma_full, eps[state.residuals.size :, None])[:, 0]
    resid = np.concatenate([state.residuals, resid_new])
    resid.setflags(write=False)
    u.setflags(write=False)
    extended = copy.copy(state)
    object.__setattr__(extended, "residuals", resid)
    object.__setattr__(extended, "u_history", u)
    return extended


def forecast(fit_result: SarimaxFit, horizon: int, exog_future=None) -> np.ndarray:
    """Recursive mean forecast of the next ``horizon`` hours as a float array.

    Unknown future innovations are zero. Raises ValueError if a value is
    not finite, as a diverging state or an infinite exogenous entry gives.
    """
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    spec = fit_result.spec
    xf = _standardized(fit_result, exog_future, horizon, "exog_future")

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

