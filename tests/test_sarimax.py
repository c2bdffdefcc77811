import functools
import math
from dataclasses import replace

import numpy as np
import pytest

from oeeforecast import sarimax
from oeeforecast.pipeline import PipelineConfig, aligned_features, causal_components
from oeeforecast.sarimax import (
    CollinearityError,
    SarimaxFit,
    SarimaxSpec,
    fit,
    forecast,
    simulate,
)
from oeeforecast.selection import collinearity_prune, correlation_filter, variance_filter
from oeeforecast.series import TimeSeries

from conftest import STAND_INS, ljung_box_rejects, make_oee_series, strict_json
from oracles import (
    acf_values,
    continued_innovations,
    nelder_mead_fit,
    replay_apply_params,
    scalar_css_filter,
)


def make_fit(ar=(), ma=(), sar=(), sma=(), s=1, intercept=0.0, u_tail=(0.0,) * 12):
    """Hand-built fit object for exercising the forecast recursion."""
    spec = SarimaxSpec(p=len(ar), q=len(ma), P=len(sar), Q=len(sma), s=s)
    u = np.asarray(u_tail, dtype=float)
    n = u.size
    return SarimaxFit(
        spec=spec,
        ar=tuple(ar),
        ma=tuple(ma),
        sar=tuple(sar),
        sma=tuple(sma),
        exog_beta=(),
        intercept=intercept,
        sigma2=1.0,
        exog_pvalues=(),
        loglik=0.0,
        bic=0.0,
        residuals=np.zeros(n - spec.burn_in),
        converged=True,
        exog_names=(),
        exog_mean=np.array([]),
        exog_scale=np.array([]),
        u_history=u,
    )


class TestSimulate:
    def test_zero_params_is_gaussian_noise(self):
        ts = simulate(SarimaxSpec(), n=5000, seed=42, sigma2=1.0)
        assert 0.9 <= np.var(ts.values) <= 1.1
        assert abs(np.mean(ts.values)) < 0.1

    def test_fixed_seed_deterministic(self):
        a = simulate(SarimaxSpec(p=1), n=300, seed=5, ar=(0.5,))
        b = simulate(SarimaxSpec(p=1), n=300, seed=5, ar=(0.5,))
        assert np.array_equal(a.values, b.values)

    def test_ar1_acf_matches_theory(self):
        ts = simulate(SarimaxSpec(p=1), n=10000, seed=3, ar=(0.9,))
        r = acf_values(ts.values, 1)
        assert 0.87 <= r[1] <= 0.93

    def test_nonstationary_rejected(self):
        with pytest.raises(ValueError, match="stationary"):
            simulate(SarimaxSpec(p=1), n=100, seed=0, ar=(1.05,))

    def test_noninvertible_rejected(self):
        with pytest.raises(ValueError, match="invertible"):
            simulate(SarimaxSpec(q=1), n=100, seed=0, ma=(1.2,))


class TestFitBasics:
    def test_white_noise_degenerate_model(self):
        rng = np.random.default_rng(1)
        y = rng.normal(5.0, 2.0, 800)
        f = fit(TimeSeries(y), SarimaxSpec())
        assert f.intercept == pytest.approx(np.mean(y), abs=1e-6)
        assert f.sigma2 == pytest.approx(np.var(y), rel=0.01)

    def test_ar1_with_exog_recovery(self):
        rng = np.random.default_rng(7)
        n = 2000
        x = rng.normal(0.0, 1.5, n)
        base = simulate(SarimaxSpec(p=1), n=n, seed=7, ar=(0.6,))
        y = TimeSeries(base.values + 2.0 * x)
        f = fit(y, SarimaxSpec(p=1), exog=x[:, None])
        assert 0.5 <= f.ar[0] <= 0.7
        beta_nat = f.exog_beta[0] / f.exog_scale[0]
        assert 1.9 <= beta_nat <= 2.1
        assert f.pvalue_of("x1") < 0.01

    def test_seasonal_ar_recovery(self):
        ts = simulate(SarimaxSpec(p=1, P=1, s=8), n=1500, seed=11, ar=(0.5,), sar=(0.4,))
        f = fit(ts, SarimaxSpec(p=1, P=1, s=8))
        assert f.ar[0] == pytest.approx(0.5, abs=0.1)
        assert f.sar[0] == pytest.approx(0.4, abs=0.1)

    def test_ma_recovery(self):
        ts = simulate(SarimaxSpec(q=1), n=3000, seed=13, ma=(0.6,))
        f = fit(ts, SarimaxSpec(q=1))
        assert f.ma[0] == pytest.approx(0.6, abs=0.1)

    def test_residual_length_convention(self):
        ts = simulate(SarimaxSpec(p=1, P=1, s=8), n=400, seed=2, ar=(0.4,), sar=(0.3,))
        f = fit(ts, SarimaxSpec(p=1, P=1, s=8))
        assert f.residuals.size == 400 - (1 + 8 * 1)

    def test_too_short_rejected(self):
        with pytest.raises(ValueError, match="short"):
            fit(TimeSeries(np.arange(8.0)), SarimaxSpec(p=4))

    def test_collinear_exog_rejected(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=200)
        X = np.column_stack([x, 2.0 * x])
        with pytest.raises(CollinearityError):
            fit(TimeSeries(rng.normal(size=200)), SarimaxSpec(), exog=X)

    def test_zero_variance_exog_rejected(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError, match="zero variance"):
            fit(TimeSeries(rng.normal(size=100)), SarimaxSpec(), exog=np.ones((100, 1)))


class TestFitInvariants:
    def test_shift_moves_only_intercept(self):
        ts = simulate(SarimaxSpec(p=2), n=600, seed=4, ar=(0.5, -0.2), intercept=3.0)
        f0 = fit(ts, SarimaxSpec(p=2))
        f1 = fit(TimeSeries(ts.values + 50.0), SarimaxSpec(p=2))
        assert np.allclose(f1.ar, f0.ar, atol=1e-4)
        assert f1.intercept - f0.intercept == pytest.approx(50.0, abs=1e-4)

    def test_exog_scaling_equivariance(self):
        rng = np.random.default_rng(9)
        n = 900
        x = rng.normal(0.0, 2.0, n)
        base = simulate(SarimaxSpec(p=1), n=n, seed=9, ar=(0.5,))
        y = TimeSeries(base.values + 1.5 * x)
        f1 = fit(y, SarimaxSpec(p=1), exog=x[:, None])
        f2 = fit(y, SarimaxSpec(p=1), exog=(4.0 * x)[:, None])
        b1 = f1.exog_beta[0] / f1.exog_scale[0]
        b2 = f2.exog_beta[0] / f2.exog_scale[0]
        assert b2 == pytest.approx(b1 / 4.0, rel=1e-6)
        assert f2.pvalue_of("x1") == pytest.approx(f1.pvalue_of("x1"), abs=1e-8)

    def test_correctly_specified_residuals_white(self):
        passes = 0
        for seed in range(20):
            ts = simulate(
                SarimaxSpec(p=1, P=1, s=8), n=700, seed=100 + seed, ar=(0.5,), sar=(0.35,)
            )
            f = fit(ts, SarimaxSpec(p=1, P=1, s=8), n_restarts=1)
            if not ljung_box_rejects(f.residuals, lags=16, fit_df=2):
                passes += 1
        assert passes >= 18  # >= 90% of seeds

    def test_stationarity_enforced_on_nearly_integrated_data(self):
        rng = np.random.default_rng(21)
        y = np.cumsum(rng.normal(size=300))  # random walk bait
        f = fit(TimeSeries(y), SarimaxSpec(p=1))
        assert abs(f.ar[0]) < 1.0


class TestBoundaryFits:
    def test_a_root_at_the_unit_circle_is_not_converged(self):
        # white noise at ARMA(2,2): the MA polynomial runs to the unit circle
        # and nearly cancels the AR one
        ts = TimeSeries(np.random.default_rng(0).normal(size=300))
        f = fit(ts, SarimaxSpec(p=2, q=2))
        moduli = np.abs(np.roots(np.r_[1.0, f.ma][::-1]))
        assert moduli.min() < 1.0 + sarimax._UNIT_ROOT_TOL
        assert not f.converged

    def test_an_interior_fit_is_converged(self):
        ts = simulate(SarimaxSpec(p=1, q=1), n=600, seed=5, ar=(0.5,), ma=(0.3,))
        assert fit(ts, SarimaxSpec(p=1, q=1)).converged

    @pytest.mark.parametrize("sma, on_circle", [((-0.9,), False), ((-0.99999,), True)])
    def test_a_seasonal_root_counts_in_the_lag_operator(self, sma, on_circle):
        # 1 + THETA B^8 has roots of modulus |THETA|^(-1/8) in B
        spec = SarimaxSpec(Q=1, s=8)
        assert sarimax._on_unit_circle(spec, (), (), (), sma) is on_circle


class TestForecast:
    def test_intercept_only_forecasts_mean(self):
        rng = np.random.default_rng(5)
        f = fit(TimeSeries(rng.normal(10.0, 1.0, 300)), SarimaxSpec())
        fc = forecast(f, 5)
        assert np.allclose(fc, f.intercept)

    def test_ar1_geometric_decay(self):
        f = make_fit(ar=(0.5,), u_tail=(0.0,) * 11 + (4.0,))
        fc = forecast(f, 4)
        assert np.allclose(fc, [2.0, 1.0, 0.5, 0.25], atol=1e-12)

    def test_sarma_matches_independent_recursion(self):
        ts = simulate(SarimaxSpec(p=1, P=1, s=8), n=600, seed=17, ar=(0.6,), sar=(0.3,))
        f = fit(ts, SarimaxSpec(p=1, P=1, s=8), n_restarts=1)
        fc = forecast(f, 8)

        # oracle: direct multiplicative recursion, written independently
        phi, sphi = f.ar[0], f.sar[0]
        u = list(f.u_history)
        preds = []
        for _ in range(8):
            nxt = phi * u[-1] + sphi * u[-8] - phi * sphi * u[-9]
            preds.append(f.intercept + nxt)
            u.append(nxt)
        assert np.allclose(fc, preds, atol=1e-10)

    def test_ma_forecast_uses_known_innovations_only(self):
        # MA(1): step-1 forecast uses the last residual, step >= 2 collapse to intercept
        ts = simulate(SarimaxSpec(q=1), n=800, seed=19, ma=(0.5,), intercept=2.0)
        f = fit(ts, SarimaxSpec(q=1), n_restarts=1)
        fc = forecast(f, 3)
        expected_1 = f.intercept + f.ma[0] * f.residuals[-1]
        assert fc[0] == pytest.approx(expected_1, abs=1e-10)
        assert fc[1] == pytest.approx(f.intercept, abs=1e-10)
        assert fc[2] == pytest.approx(f.intercept, abs=1e-10)

    def test_lag_polynomials_follow_the_coefficients(self):
        # apply_params and forecast read the polynomials a fit or state carries
        ts = simulate(SarimaxSpec(p=1, q=1, P=1, Q=1, s=8), n=400, seed=23, ar=(0.4,),
                      ma=(0.3,), sar=(0.2,), sma=(-0.3,))
        f = fit(ts.slice(0, 350), SarimaxSpec(p=1, q=1, P=1, Q=1, s=8), n_restarts=0)
        state = sarimax.apply_params(f, ts.values[350:])
        moved = replace(state, ar=(0.1,))
        for obj in (f, state, moved):
            assert obj.ar_poly.tobytes() == sarimax._lag_poly(obj.ar, obj.sar, 8, -1.0).tobytes()
            assert obj.ma_poly.tobytes() == sarimax._lag_poly(obj.ma, obj.sma, 8, 1.0).tobytes()
        assert not np.array_equal(forecast(moved, 3), forecast(state, 3))

    def test_exog_future_required_and_shaped(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=300)
        y = TimeSeries(rng.normal(size=300) + x)
        f = fit(y, SarimaxSpec(), exog=x[:, None])
        with pytest.raises(ValueError, match="exog_future"):
            forecast(f, 2)
        with pytest.raises(ValueError, match="exog_future"):
            forecast(f, 2, exog_future=np.ones((3, 1)))
        fc = forecast(f, 2, exog_future=np.zeros((2, 1)))
        assert fc.shape == (2,)

    def test_exog_given_to_a_fit_without_exog_is_rejected(self):
        y = simulate(SarimaxSpec(p=1), n=300, seed=3, ar=(0.5,))
        f = fit(y.slice(0, 290), SarimaxSpec(p=1), n_restarts=0)
        with pytest.raises(ValueError, match="exog_future given to a fit without exogenous"):
            forecast(f, 2, exog_future=np.zeros((2, 1)))
        with pytest.raises(ValueError, match="exog given to a fit without exogenous"):
            sarimax.apply_params(f, y.values[290:], np.zeros((10, 1)))

    def test_returns_a_float_array_of_horizon_values(self):
        f = make_fit(ar=(0.5,), u_tail=(0.0,) * 11 + (4.0,))
        fc = forecast(f, 4)
        assert isinstance(fc, np.ndarray)
        assert fc.dtype == np.float64 and fc.shape == (4,)
        with pytest.raises(ValueError, match="horizon"):
            forecast(f, 0)

    def test_non_finite_exog_future_is_rejected(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=300)
        f = fit(TimeSeries(rng.normal(size=300) + x), SarimaxSpec(), exog=x[:, None])
        with pytest.raises(ValueError, match="must be finite"):
            forecast(f, 2, exog_future=np.array([[0.0], [np.inf]]))


class TestBic:
    def test_definition(self):
        rng = np.random.default_rng(2)
        f = fit(TimeSeries(rng.normal(size=500)), SarimaxSpec())
        k = 2  # intercept + sigma2
        assert f.bic == pytest.approx(-2.0 * f.loglik + k * math.log(500), abs=1e-9)

    def test_identical_fits_identical_bic(self):
        ts = simulate(SarimaxSpec(p=1), n=400, seed=6, ar=(0.5,))
        f1 = fit(ts, SarimaxSpec(p=1))
        f2 = fit(ts, SarimaxSpec(p=1))
        assert f1.bic == f2.bic

    def test_true_order_beats_noise_padded_model(self):
        wins = 0
        for seed in range(20):
            ts = simulate(SarimaxSpec(p=1), n=500, seed=200 + seed, ar=(0.6,))
            rng = np.random.default_rng(900 + seed)
            noise_x = rng.normal(size=(500, 3))
            plain = fit(ts, SarimaxSpec(p=1), n_restarts=0)
            padded = fit(ts, SarimaxSpec(p=2), exog=noise_x, n_restarts=0)
            if plain.bic < padded.bic:
                wins += 1
        assert wins >= 16  # >= 80% of 20 seeds

    def test_loglik_not_below_initial_point(self):
        # optimizer must never return something worse than where it started
        for seed in range(5):
            ts = simulate(
                SarimaxSpec(p=1, q=1), n=400, seed=300 + seed, ar=(0.4,), ma=(0.3,)
            )
            f = fit(ts, SarimaxSpec(p=1, q=1), n_restarts=0)
            assert math.isfinite(f.loglik)


class TestSummaryJson:
    def test_round_trips(self):
        ts = simulate(SarimaxSpec(p=1), n=400, seed=1, ar=(0.5,))
        f = fit(ts, SarimaxSpec(p=1))
        doc = strict_json(sarimax.coefficients_json(f, ts))
        assert doc["spec"]["order"] == [1, 0, 0]
        names = [c["name"] for c in doc["coefficients"]]
        assert names == ["intercept", "ar1", "sigma2"]
        assert doc["bic"] == pytest.approx(f.bic)
        assert doc["n_obs"] == 400

    def test_lists_intercept_exog_arma_sigma2_in_order(self):
        rng = np.random.default_rng(8)
        x = rng.normal(size=(300, 2))
        ts = TimeSeries(x @ [0.8, -0.5] + rng.normal(size=300))
        f = fit(ts, SarimaxSpec(p=1, q=1, P=1, Q=1, s=4), exog=x, n_restarts=0)
        doc = strict_json(sarimax.coefficients_json(f, ts, x))
        names = [c["name"] for c in doc["coefficients"]]
        assert names == ["intercept", "x1", "x2", "ar1", "ma1", "sar1", "sma1", "sigma2"]
        estimates = [c["estimate"] for c in doc["coefficients"]]
        assert estimates == [f.intercept, *f.exog_beta, *f.ar, *f.ma, *f.sar, *f.sma, f.sigma2]

    def test_exog_pvalues_are_the_fits(self):
        rng = np.random.default_rng(12)
        x = rng.normal(size=(400, 3))
        ts = TimeSeries(x @ [1.0, 0.05, 0.0] + rng.normal(size=400))
        f = fit(ts, SarimaxSpec(p=2), exog=x, n_restarts=0)
        doc = strict_json(sarimax.coefficients_json(f, ts, x))
        table = {c["name"]: c["p_value"] for c in doc["coefficients"]}
        for name, p in zip(f.exog_names, f.exog_pvalues):
            assert table[name] == p == f.pvalue_of(name)

    def test_error_the_hessian_does_not_give_is_null(self):
        # the ARMA(2,2) fit of white noise lands where the Hessian is not
        # positive definite
        ts = TimeSeries(np.random.default_rng(0).normal(size=300))
        f = fit(ts, SarimaxSpec(p=2, q=2))
        doc = strict_json(sarimax.coefficients_json(f, ts))
        rows = {c["name"]: c for c in doc["coefficients"]}
        for name in ("ar1", "ar2", "ma1", "ma2"):
            assert rows[name]["stderr"] is None and rows[name]["p_value"] is None
        assert math.isfinite(rows["sigma2"]["stderr"])

    def test_exog_width_must_match_the_fit(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(200, 2))
        ts = TimeSeries(x @ [0.5, -0.3] + rng.normal(size=200))
        f = fit(ts, SarimaxSpec(p=1), exog=x, n_restarts=0)
        with pytest.raises(ValueError, match="columns"):
            sarimax.coefficients_json(f, ts, x[:, :1])


class TestLikelihoodEvaluations:
    @pytest.mark.parametrize(
        "spec", [SarimaxSpec(), SarimaxSpec(p=1), SarimaxSpec(p=4, P=1, Q=1, s=8)]
    )
    def test_fit_evaluates_the_likelihood_once_past_its_search(self, monkeypatch, spec):
        # the search's residual evaluations plus the one at its optimum: no
        # Hessian; the Jacobian reuses its point's residual evaluation, and
        # nfev counts both kinds
        counts = {"evals": 0, "nfev": 0}
        concentrated, minimize = sarimax._concentrated, sarimax.minimize

        def counted(*args):
            counts["evals"] += 1
            return concentrated(*args)

        def searched(*args, **kwargs):
            res = minimize(*args, **kwargs)
            assert res.njev >= 1
            counts["nfev"] += res.nfev - res.njev
            return res

        monkeypatch.setattr(sarimax, "_concentrated", counted)
        monkeypatch.setattr(sarimax, "minimize", searched)
        ts = simulate(SarimaxSpec(p=1), n=300, seed=4, ar=(0.5,))
        fit(ts, spec, n_restarts=1)
        assert counts["evals"] == counts["nfev"] + 1


@functools.cache
def _stand_in_design() -> np.ndarray:
    """[y | 1 | statistical catalog] of the gh2 stand-in's causal residual."""
    cfg = PipelineConfig(feature_mode="statistical")
    _, _, residual = causal_components(make_oee_series(*STAND_INS["gh2"]), cfg.periods)
    y, fm = aligned_features(cfg, residual)
    return np.column_stack([y.values, np.ones(fm.n_rows), fm.matrix])


class TestCssFilterOracle:
    SPECS = {
        "pure_ar": SarimaxSpec(p=3),
        "pure_ma": SarimaxSpec(q=2),
        "seasonal_ar_ma": SarimaxSpec(P=1, Q=1, s=8),
        "mixed": SarimaxSpec(p=2, q=1, P=1, Q=1, s=8),
        "no_arma": SarimaxSpec(),
        # 27 and 50 AR taps: long enough for a blocked BLAS dot to reorder sums
        "daily_ar": SarimaxSpec(p=2, P=1, s=24),
        "daily_mixed": SarimaxSpec(p=1, q=1, P=2, Q=1, s=24),
    }

    @pytest.mark.parametrize("width", [1, 2, "stand_in"])
    @pytest.mark.parametrize("name", list(SPECS))
    def test_block_filter_is_the_column_loop(self, name, width):
        spec = self.SPECS[name]
        rng = np.random.default_rng(sorted(self.SPECS).index(name))
        if width == "stand_in":
            block = _stand_in_design()
        else:
            block = rng.normal(10.0, 3.0, size=(240, width))
        dims = spec.p + spec.q + spec.P + spec.Q
        for _ in range(10):
            phi, theta, sphi, stheta = sarimax._z_to_coefs(rng.normal(0.0, 1.0, dims), spec)
            ar_full = sarimax._lag_poly(phi, sphi, spec.s, -1.0)
            ma_full = sarimax._lag_poly(theta, stheta, spec.s, 1.0)
            got = sarimax._css_filter(block, ar_full, ma_full, spec.burn_in)
            want = scalar_css_filter(block, ar_full, ma_full, spec.burn_in)
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("name", list(SPECS))
    def test_narrow_blocks_equal_lfilter_at_every_length(self, name):
        # the AR stage convolves each column, the calls lfilter's FIR path
        # makes, at any width; series as short as the AR polynomial included
        from scipy.signal import lfilter

        spec = self.SPECS[name]
        rng = np.random.default_rng(50 + sorted(self.SPECS).index(name))
        dims = spec.p + spec.q + spec.P + spec.Q
        for _ in range(10):
            phi, theta, sphi, stheta = sarimax._z_to_coefs(rng.normal(0.0, 1.0, dims), spec)
            ar_full = sarimax._lag_poly(phi, sphi, spec.s, -1.0)
            ma_full = sarimax._lag_poly(theta, stheta, spec.s, 1.0)
            burn = spec.burn_in
            for n in (len(ar_full), len(ar_full) + 1, burn + 1, burn + 7, 300):
                for width in (1, 2, 3, 8, 63):
                    block = rng.normal(10.0, 3.0, size=(n, width))
                    want = lfilter(ar_full, [1.0], block, axis=0)[burn:]
                    if len(ma_full) > 1:
                        want = lfilter([1.0], ma_full, want, axis=0)
                    got = sarimax._css_filter(block, ar_full, ma_full, burn)
                    assert got.tobytes() == want.tobytes(), (n, width)

    def test_bytes_equal_the_column_loop_on_random_blocks(self):
        # blocks of one to three columns, in C and Fortran order
        rng = np.random.default_rng(40)
        specs = list(self.SPECS.values())
        for trial in range(300):
            spec = specs[trial % len(specs)]
            width = 1 + trial % 3
            block = rng.normal(10.0, 3.0, size=(int(rng.integers(60, 700)), width))
            if trial % 2:
                block = np.asfortranarray(block)
            dims = spec.p + spec.q + spec.P + spec.Q
            phi, theta, sphi, stheta = sarimax._z_to_coefs(rng.normal(0.0, 1.0, dims), spec)
            ar_full = sarimax._lag_poly(phi, sphi, spec.s, -1.0)
            ma_full = sarimax._lag_poly(theta, stheta, spec.s, 1.0)
            got = sarimax._css_filter(block, ar_full, ma_full, spec.burn_in)
            want = scalar_css_filter(block, ar_full, ma_full, spec.burn_in)
            assert got.shape == want.shape
            assert got.tobytes() == want.tobytes(), (trial, width)
            if len(ma_full) == 1:
                # the AR stage leaves each column contiguous, so a fit's dot
                # products of a column take one BLAS kernel
                assert got.strides[0] == got.itemsize


class TestVariableProjection:
    def test_jacobian_is_the_projected_derivative_of_the_filter(self):
        # Kaufman: P(z0) dF(z)/dz u at z0, u = y - design b(z0) held fixed
        rng = np.random.default_rng(60)
        spec = SarimaxSpec(p=2, q=1, P=1, Q=1, s=4)
        block = np.column_stack([rng.normal(size=300), np.ones(300), rng.normal(size=(300, 2))])
        z0 = rng.normal(0.0, 0.5, 5)
        coefs = sarimax._z_to_coefs(z0, spec)
        _, b, resid, _, proj = sarimax._concentrated(block, spec, *coefs)
        g = sarimax._innovation_derivatives(block, spec, coefs, b, resid)
        got = proj.residual(g) @ sarimax._z_jacobian(z0, spec)
        u = (block[:, 0] - block[:, 1:] @ b)[:, None]

        def filtered(z):
            phi, theta, sphi, stheta = sarimax._z_to_coefs(z, spec)
            ar_full = sarimax._lag_poly(phi, sphi, spec.s, -1.0)
            ma_full = sarimax._lag_poly(theta, stheta, spec.s, 1.0)
            return proj.residual(sarimax._css_filter(u, ar_full, ma_full, spec.burn_in)[:, 0])

        h = 1e-6
        want = np.column_stack([
            (filtered(z0 + h * e) - filtered(z0 - h * e)) / (2.0 * h) for e in np.eye(5)
        ])
        assert np.abs(got - want).max() <= 1e-7 * np.abs(want).max()

    @pytest.mark.parametrize("noise, cholesky", [(1.0, True), (1e-7, False), (0.0, False)])
    def test_projection_solves_by_cholesky_or_svd_as_lstsq(self, noise, cholesky):
        # a column nearly dependent on another puts the design's condition
        # number past _COND_LIMIT, and an exactly dependent one makes it
        # rank-deficient: the singular value decomposition takes over and
        # gives lstsq's least-norm answer
        rng = np.random.default_rng(61)
        d_f = rng.normal(size=(200, 4))
        d_f[:, 3] = d_f[:, 2] + noise * rng.normal(size=200)
        rhs = rng.normal(size=(200, 2))
        proj = sarimax._Projection(d_f)
        assert (proj.chol is not None) is cholesky
        want, *_ = np.linalg.lstsq(d_f, rhs, rcond=None)
        assert np.allclose(proj.residual(rhs), rhs - d_f @ want, rtol=0.0, atol=1e-8)
        if noise != 1e-7:
            assert np.allclose(proj.coefficients(rhs), want, rtol=1e-10, atol=1e-12)

    @pytest.mark.parametrize(
        "spec, k",
        [
            (SarimaxSpec(p=1), 0),
            (SarimaxSpec(p=2, q=1), 2),
            (SarimaxSpec(p=1, P=1, Q=1, s=8), 3),
            (SarimaxSpec(p=4, P=1, Q=1, s=8), 6),
        ],
    )
    def test_likelihood_no_worse_than_nelder_mead(self, spec, k):
        rng = np.random.default_rng(62 + k)
        x = rng.normal(size=(400, k))
        base = simulate(SarimaxSpec(p=1, Q=1, s=8), n=400, seed=k, ar=(0.5,), sma=(0.4,))
        ts = TimeSeries(base.values + x @ rng.normal(0.0, 0.5, k))
        exog = x if k else None
        got = fit(ts, spec, exog=exog, n_restarts=1)
        want = nelder_mead_fit(ts, spec, exog=exog, n_restarts=1)
        assert got.converged
        assert -got.loglik <= -want.loglik + 1e-9 * abs(want.loglik)

    def test_wide_multimodal_fit_no_worse_than_nelder_mead(self, monkeypatch):
        # the README evaluation's refit one interval past the training span
        # of the h2 stand-in with the statistical catalog: 546 rows, 61
        # exogenous columns, the columns chosen on the training span. Its
        # likelihood has several local optima, and least squares alone from
        # the same starts ends in a higher one than Nelder-Mead's
        cfg = PipelineConfig(feature_mode="statistical")
        series = make_oee_series(*STAND_INS["h2"])
        split = math.floor(len(series) * (1.0 - cfg.test_fraction))
        _, _, residual = causal_components(series.slice(0, split), cfg.periods)
        y, fm = aligned_features(cfg, residual)
        fm, _ = variance_filter(fm)
        fm, _ = correlation_filter(fm, y.values)
        fm, _ = collinearity_prune(fm)
        _, _, residual = causal_components(series.slice(0, split + cfg.refit_interval), cfg.periods)
        y, fm = aligned_features(cfg, residual, columns=fm.column_names)
        assert fm.matrix.shape == (546, 61)

        want = nelder_mead_fit(y, cfg.sarimax_spec, exog=fm, n_restarts=1)
        got = fit(y, cfg.sarimax_spec, exog=fm, n_restarts=1)
        assert got.converged
        assert -got.loglik <= -want.loglik + 1e-9 * abs(want.loglik)

        def least_squares_only(fun, x0, residual, jac):
            from scipy.optimize import least_squares

            tol = sarimax._LSQ_TOL
            return least_squares(
                residual, x0, jac=jac, method="trf", x_scale="jac", ftol=tol, xtol=tol, gtol=tol
            )

        monkeypatch.setattr(sarimax, "minimize", least_squares_only)
        alone = fit(y, cfg.sarimax_spec, exog=fm, n_restarts=1)
        assert -alone.loglik > -want.loglik + 1e-4 * abs(want.loglik)


class TestApplyDesign:
    def test_state_follows_the_design_in_either_order(self):
        rng = np.random.default_rng(41)
        x = rng.normal(size=(320, 4)) * rng.uniform(0.5, 20.0, 4)
        y = 0.1 * x @ rng.normal(size=4) + rng.normal(size=320)
        f = fit(TimeSeries(y[:260]), SarimaxSpec(p=2, P=1, s=8), exog=x[:260], n_restarts=0)
        states = [
            sarimax.apply_params(f, y[260:], np.asarray(x[260:], order=order)) for order in "CF"
        ]
        for state in states:
            assert state.u_history.tobytes() == states[0].u_history.tobytes()
            assert state.residuals.tobytes() == states[0].residuals.tobytes()
        design = np.column_stack([np.ones(60), (x[260:] - f.exog_mean) / f.exog_scale])
        b = np.concatenate([[f.intercept], f.exog_beta])
        u_new = states[0].u_history[260:]
        np.testing.assert_allclose(u_new, y[260:] - design @ b, rtol=0, atol=1e-12)
        assert states[0].u_history[:260].tobytes() == f.u_history.tobytes()
        assert states[0].residuals[: f.residuals.size].tobytes() == f.residuals.tobytes()
        assert states[0].residuals[f.residuals.size :].tobytes() == (
            continued_innovations(f, u_new).tobytes()
        )

    def test_design_shape_checked(self):
        rng = np.random.default_rng(42)
        x = rng.normal(size=(210, 2))
        y = x @ [0.5, -0.3] + rng.normal(size=210)
        f = fit(TimeSeries(y[:200]), SarimaxSpec(p=1), exog=x[:200], n_restarts=0)
        with pytest.raises(ValueError, match=r"exog must be \(10, 2\), got \(10, 3\)"):
            sarimax.apply_params(f, y[200:], np.ones((10, 3)))
        with pytest.raises(ValueError, match="exog has 9 rows, need 10"):
            sarimax.apply_params(f, y[200:], x[201:])
        with pytest.raises(ValueError, match="exog required"):
            sarimax.apply_params(f, y[200:])
        assert sarimax.apply_params(f, y[:0], x[:0]) is f
        no_exog = fit(TimeSeries(y[:200]), SarimaxSpec(p=1), n_restarts=0)
        assert sarimax.apply_params(no_exog, []) is no_exog


@functools.cache
def _extension_case(spec: SarimaxSpec, k: int):
    """(fit on the first 300 rows, y, exog or None) of 340 rows of a
    seasonal ARMA with k exogenous columns."""
    rng = np.random.default_rng(k)
    x = rng.normal(size=(340, k)) * rng.uniform(0.5, 20.0, k) + rng.uniform(-50.0, 50.0, k)
    noise = simulate(spec, n=340, seed=k, ar=(0.3,) * spec.p, ma=(0.4,) * spec.q,
                     sar=(0.2,) * spec.P, sma=(-0.5,) * spec.Q)
    y = noise.values + 0.02 * x @ rng.normal(size=k)
    exog = x if k else None
    return fit(TimeSeries(y[:300]), spec, exog=x[:300] if k else None, n_restarts=0), y, exog


class TestExtension:
    """apply_params continues the fit's filter over the rows that follow it."""

    # the MA stage's paths on one column: Python floats with one tap and
    # with several, and row blocks of the seasonal lag; and an AR kernel of
    # 27 taps, long enough for a blocked BLAS dot to reorder its sums
    SPECS = {
        "one_tap": SarimaxSpec(Q=1, s=8),
        "multi_tap": SarimaxSpec(q=2),
        "row_block": SarimaxSpec(Q=1, s=24),
        "long_ar": SarimaxSpec(p=2, P=1, Q=1, s=24),
    }

    @pytest.mark.parametrize("k", [0, 3, 14, 40])
    @pytest.mark.parametrize("name", list(SPECS))
    def test_chunks_give_the_bits_of_one_extension(self, name, k):
        f, y, x = _extension_case(self.SPECS[name], k)

        def extend(bounds):
            state = f
            for a, b in zip(bounds[:-1], bounds[1:]):
                state = sarimax.apply_params(state, y[a:b], None if x is None else x[a:b])
            return state

        whole = extend([300, 340])
        for bounds in (list(range(300, 341)), [300, 303, 304, 321, 340]):
            state = extend(bounds)
            assert state.u_history.tobytes() == whole.u_history.tobytes(), bounds
            assert state.residuals.tobytes() == whole.residuals.tobytes(), bounds
        assert whole.residuals[f.residuals.size :].tobytes() == (
            continued_innovations(f, whole.u_history[300:]).tobytes()
        )

    @pytest.mark.parametrize("k", [0, 3, 14, 40])
    @pytest.mark.parametrize("name", list(SPECS))
    def test_forecasts_agree_with_the_whole_replay(self, name, k):
        f, y, x = _extension_case(self.SPECS[name], k)
        future = None if x is None else x[330:334]
        state = sarimax.apply_params(f, y[300:330], None if x is None else x[300:330])
        replayed = replay_apply_params(f, y[:330], None if x is None else x[:330])
        np.testing.assert_allclose(
            forecast(state, 4, future), forecast(replayed, 4, future), rtol=0, atol=1e-12
        )


class TestExogLayout:
    def test_fit_does_not_depend_on_exog_memory_order(self):
        rng = np.random.default_rng(21)
        x = rng.normal(size=(400, 10)) * rng.uniform(0.5, 50.0, 10) + rng.uniform(-100, 100, 10)
        y = TimeSeries(0.05 * x @ rng.normal(size=10) + rng.normal(size=400))
        c = fit(y, SarimaxSpec(p=1), exog=np.ascontiguousarray(x), n_restarts=0)
        f = fit(y, SarimaxSpec(p=1), exog=np.asfortranarray(x), n_restarts=0)
        for name in ("intercept", "exog_beta", "ar", "ma", "sar", "sma", "sigma2", "exog_pvalues"):
            assert getattr(c, name) == getattr(f, name), name
        assert c.loglik == f.loglik
