import numpy as np
import pytest

from calimp import regression
from calimp.errors import InsufficientDataError, RankDeficiencyError
from calimp.pipeline import _fit_with_fallback
from calimp.regression import fit_benchmarked, fit_ols, log_benchmark_correction

from _oracles import augmented_design_fit


class TestFitOls:
    def test_exact_linear_data(self):
        fit = fit_ols([1.0, 2.0, 3.0], [1.0, 2.0, 3.0])
        assert fit.intercept == pytest.approx(0.0, abs=1e-12)
        assert fit.slopes[0] == pytest.approx(1.0, abs=1e-12)
        assert fit.residual_variance == pytest.approx(0.0, abs=1e-12)

    def test_constant_response(self):
        fit = fit_ols([2.0, 2.0, 2.0], [1.0, 2.0, 3.0])
        assert fit.intercept == pytest.approx(2.0, abs=1e-12)
        assert fit.slopes[0] == pytest.approx(0.0, abs=1e-12)

    def test_hand_solved_normal_equations(self):
        # n=4: sums are Sx=10, Sy=8, Sxy=23, Sxx=30, so
        # slope = (4*23 - 10*8)/(4*30 - 100) = 12/20 and intercept = (8 - 0.6*10)/4.
        fit = fit_ols([1.0, 2.0, 2.0, 3.0], [1.0, 2.0, 3.0, 4.0])
        assert fit.intercept == pytest.approx(0.5, abs=1e-12)
        assert fit.slopes[0] == pytest.approx(0.6, abs=1e-12)

    def test_residual_variance_denominator(self):
        y = np.array([1.0, 2.0, 2.0, 3.0])
        x = np.array([1.0, 2.0, 3.0, 4.0])
        fit = fit_ols(y, x)
        resid = y - (fit.intercept + fit.slopes[0] * x)
        assert fit.residual_variance == pytest.approx(float(resid @ resid) / (4 - 2))

    def test_collinear_column_named(self):
        rng = np.random.default_rng(0)
        a = rng.normal(size=30)
        b = rng.normal(size=30)
        X = np.column_stack([a, b, a + b])
        y = rng.normal(size=30)
        with pytest.raises(RankDeficiencyError) as info:
            fit_ols(y, X, names=["a", "b", "total"])
        assert info.value.column == "total"

    def test_constant_and_dependent_columns_dropped_in_order(self, monkeypatch):
        rng = np.random.default_rng(2)
        a = rng.normal(size=30)
        b = rng.normal(size=30)
        X = np.column_stack([a, np.full(30, 5.0), b, a + b])
        y = rng.normal(size=30)
        ranked = []

        def matrix_rank(M, *args, **kwargs):
            ranked.append(M.shape[1])
            return real_rank(M, *args, **kwargs)

        real_rank = np.linalg.matrix_rank
        monkeypatch.setattr(np.linalg, "matrix_rank", matrix_rank)
        fit, names, dropped, cols = _fit_with_fallback(y, X, None, ["a", "k", "b", "total"])
        assert dropped == ["k", "total"]
        assert names == ["a", "b"] and cols == [0, 2] and fit.slopes.size == 2
        # One pass ranks each candidate once against the columns kept
        # before it: intercept, a, k (dropped), b, total (dropped).
        assert ranked == [1, 2, 3, 3, 4]

    @pytest.mark.parametrize("weighted", [False, True])
    def test_surplus_then_dependent_predictors_dropped_in_two_fits(self, monkeypatch, weighted):
        # Six observations leave room for four predictors: the trailing
        # "e" and "d" go first, last first; then the constant "k" is
        # dependent on the intercept. Positive weights change neither
        # step, and both fits are made with them.
        rng = np.random.default_rng(3)
        a, b, c = rng.normal(size=(3, 6))
        X = np.column_stack([a, np.full(6, 2.0), b, c, a - b, b + c])
        y = rng.normal(size=6)
        w = rng.uniform(0.5, 2.0, size=6) if weighted else None
        fitted = []
        real = regression.fit_ols

        def counted(*args, **kwargs):
            assert kwargs["weights"] is w
            fitted.append(kwargs["names"])
            return real(*args, **kwargs)

        monkeypatch.setattr(regression, "fit_ols", counted)
        fit, names, dropped, cols = _fit_with_fallback(y, X, w, ["a", "k", "b", "c", "d", "e"])
        assert dropped == ["e", "d", "k"]
        assert names == ["a", "b", "c"] and cols == [0, 2, 3]
        assert fitted == [["a", "k", "b", "c"], ["a", "b", "c"]]
        assert fit.slopes.size == 3

    def test_too_few_observations_fail_in_one_fit(self, monkeypatch):
        fitted = []
        real = regression.fit_ols

        def counted(*args, **kwargs):
            fitted.append(kwargs["names"])
            return real(*args, **kwargs)

        monkeypatch.setattr(regression, "fit_ols", counted)
        X = np.ones((1, 3))
        with pytest.raises(InsufficientDataError):
            _fit_with_fallback(np.ones(1), X, None, ["a", "b", "c"])
        assert fitted == [[]]

    def test_insufficient_data(self):
        with pytest.raises(InsufficientDataError):
            fit_ols([1.0, 2.0], [1.0, 2.0])

    def test_wls_reduces_to_ols_for_equal_weights(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            n = int(rng.integers(8, 40))
            p = int(rng.integers(0, 4))
            X = rng.normal(size=(n, p))
            y = rng.normal(size=n)
            c = float(rng.uniform(0.1, 9.0))
            plain = fit_ols(y, X)
            weighted = fit_ols(y, X, weights=np.full(n, c))
            assert weighted.intercept == pytest.approx(plain.intercept, abs=1e-12)
            assert np.allclose(weighted.slopes, plain.slopes, atol=1e-12)
            assert weighted.residual_variance == pytest.approx(
                c * plain.residual_variance, rel=1e-9
            )

    def test_intercept_only(self):
        fit = fit_ols([1.0, 3.0, 5.0], None)
        assert fit.intercept == pytest.approx(3.0)
        assert fit.slopes.size == 0


def benchmarked(y_obs, X_obs, X_mis, total_all, weights_obs=None, weights_mis=None):
    """The OLS fit on the observed rows, benchmarked to the remainder of
    ``total_all``; returns the plain fit, the benchmarked one and the
    remainder."""
    fit = fit_ols(y_obs, X_obs, weights=weights_obs)
    w = np.ones(len(y_obs)) if weights_obs is None else weights_obs
    missing_total = float(total_all - np.sum(w * np.asarray(y_obs, dtype=float)))
    return fit, fit_benchmarked(fit, X_mis, missing_total, weights_mis), missing_total


class TestFitBenchmarked:
    def test_forced_single_missing_row(self):
        _, fit, missing_total = benchmarked([1.0, 2.0, 3.0], [1.0, 2.0, 3.0], [[4.0]], total_all=16.0)
        (pred,) = fit.predict([[4.0]])
        assert pred == pytest.approx(missing_total, abs=1e-9)
        assert pred == pytest.approx(10.0)

    def test_hand_constructed_calibrating_instance(self):
        _, fit, missing_total = benchmarked([1.0, 2.0], None, np.zeros((2, 0)), total_all=10.0)
        # Intercept-only base; predictions share the remainder equally.
        assert missing_total == pytest.approx(7.0)
        preds = fit.predict(np.zeros((2, 0)))
        assert np.allclose(preds, [3.5, 3.5])

    def test_already_calibrated_instance(self):
        y = [1.0, 2.0, 3.0]
        x = [1.0, 2.0, 3.0]
        base, fit, missing_total = benchmarked(y, x, [[3.0], [4.0]], total_all=13.0)
        assert base.intercept == pytest.approx(0.0, abs=1e-12)
        assert fit.slopes[0] == pytest.approx(1.0, abs=1e-12)
        assert missing_total == pytest.approx(7.0)
        assert fit.intercept == pytest.approx(0.0, abs=1e-12)
        assert np.allclose(fit.predict([[3.0], [4.0]]), [3.0, 4.0])

    def test_no_missing_rows_is_an_error(self):
        fit = fit_ols([1.0, 2.0, 3.0], [1.0, 2.0, 3.0])
        with pytest.raises(ValueError, match="no missing rows"):
            fit_benchmarked(fit, np.zeros((0, 1)), 6.0)

    def test_predictor_width_must_match_the_fit(self):
        fit = fit_ols([1.0, 2.0, 3.0, 5.0], [1.0, 2.0, 3.0, 4.0])
        with pytest.raises(ValueError, match="predictor column"):
            fit_benchmarked(fit, [[1.0, 2.0]], 6.0)

    def test_calibration_identity_randomized(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            n = int(rng.integers(6, 60))
            m = int(rng.integers(1, 20))
            p = int(rng.integers(0, 4))
            X = rng.normal(size=(n, p)) * 3
            Xm = rng.normal(size=(m, p)) * 3
            y = rng.normal(size=n) * 5 + 10
            w = rng.uniform(0.5, 3.0, size=n)
            wm = rng.uniform(0.5, 3.0, size=m)
            total = float(rng.uniform(-50, 200))
            _, fit, missing_total = benchmarked(y, X, Xm, total, weights_obs=w, weights_mis=wm)
            got = float(np.sum(wm * fit.predict(Xm)))
            assert abs(got - missing_total) <= 1e-9 * max(1.0, abs(missing_total))
            assert missing_total == pytest.approx(total - float(np.sum(w * y)))

    def test_equivalence_with_standard_fit(self):
        # Benchmarking moves the intercept alone: the slopes, residual
        # variance and observation count are the plain fit's, bit for bit.
        rng = np.random.default_rng(3)
        for _ in range(30):
            n = int(rng.integers(8, 50))
            m = int(rng.integers(1, 10))
            p = int(rng.integers(1, 4))
            X = rng.normal(size=(n, p))
            Xm = rng.normal(size=(m, p))
            y = rng.normal(size=n)
            w = rng.uniform(0.2, 5.0, size=n)
            plain = fit_ols(y, X, weights=w)
            fit = fit_benchmarked(plain, Xm, float(rng.normal()), rng.uniform(0.2, 5.0, size=m))
            assert fit.slopes.tobytes() == plain.slopes.tobytes()
            assert fit.residual_variance == plain.residual_variance
            assert fit.n_obs == plain.n_obs

    def test_matches_augmented_design_solution(self):
        # Independent route: solve the joint observed-rows + summed-missing-row
        # least squares problem directly and compare all coefficients.
        rng = np.random.default_rng(4)
        for _ in range(30):
            n = int(rng.integers(8, 40))
            m = int(rng.integers(1, 8))
            p = int(rng.integers(1, 3))
            X = rng.normal(size=(n, p))
            Xm = rng.normal(size=(m, p))
            y = rng.normal(size=n) + 4.0
            total = float(rng.uniform(0, 30))
            base, fit, _ = benchmarked(y, X, Xm, total)
            coef = augmented_design_fit(y, X, Xm, total)
            assert base.intercept == pytest.approx(coef[0], abs=1e-8)
            assert fit.intercept == pytest.approx(coef[1], abs=1e-8)
            assert np.allclose(fit.slopes, coef[2:], atol=1e-8)


class TestLogCorrection:
    def test_flat_log_model(self):
        fit = fit_ols(np.log([2.0, 2.0, 2.0, 2.0]), None)
        c = log_benchmark_correction(fit, np.zeros((4, 0)), 100.0)
        assert c == pytest.approx(25.0)

    def test_single_missing_row_forced(self):
        fit = fit_ols(np.log([1.0, 2.0, 4.0]), [0.0, 1.0, 2.0])
        c = log_benchmark_correction(fit, [[0.7]], 42.0)
        assert c * np.exp(0.7 * fit.slopes[0]) == pytest.approx(42.0)

    def test_summation_identity(self):
        rng = np.random.default_rng(5)
        z = rng.normal(size=(12, 2))
        y = np.exp(z @ np.array([0.3, -0.2]) + 1.0 + rng.normal(size=12) * 0.1)
        fit = fit_ols(np.log(y), z)
        zm = rng.normal(size=(5, 2))
        c = log_benchmark_correction(fit, zm, 60.0)
        imputations = c * np.exp(zm @ fit.slopes)
        assert float(imputations.sum()) == pytest.approx(60.0, abs=1e-9)

    def test_nonpositive_total_rejected(self):
        fit = fit_ols(np.log([1.0, 2.0, 3.0]), [1.0, 2.0, 3.0])
        with pytest.raises(ValueError, match="positive"):
            log_benchmark_correction(fit, [[1.0]], 0.0)
