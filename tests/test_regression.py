import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from calimp import regression
from calimp.adjust import AdjustmentProblem
from calimp.edits import parse_edit_rules
from calimp.errors import InsufficientDataError, RankDeficiencyError
from calimp.metrics import d_l1, weighted_pearson
from calimp.pipeline import DataMatrix, ImputationConfig, _fit_with_fallback, impute, validate
from calimp.regression import (
    as_weights,
    fit_benchmarked,
    fit_ols,
    independent_predictors,
    log_benchmark_correction,
)

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
        solved = []

        def matrix_rank(*args, **kwargs):
            raise AssertionError("fit_ols ranks by the Gram rule, not by an SVD")

        def lstsq(Z, *args, **kwargs):
            solved.append(Z.shape[1])
            return real_lstsq(Z, *args, **kwargs)

        real_lstsq = np.linalg.lstsq
        monkeypatch.setattr(np.linalg, "matrix_rank", matrix_rank)
        monkeypatch.setattr(np.linalg, "lstsq", lstsq)
        fit, names, dropped, cols = _fit_with_fallback(y, X, None, ["a", "k", "b", "total"])
        assert dropped == ["k", "total"]
        assert names == ["a", "b"] and cols == [0, 2] and fit.slopes.size == 2
        # The failing first fit (intercept and four predictors) is ranked
        # and stops before lstsq; only the second, kept design is solved.
        assert solved == [3]

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

    @settings(max_examples=150, deadline=None)
    @given(
        st.integers(0, 2**32 - 1),
        st.lists(st.sampled_from(["fresh", "constant", "difference", "scaled"]), min_size=1, max_size=7),
        st.booleans(),
    )
    def test_planted_dependencies_are_named_by_the_gram_rule(self, seed, kinds, weighted):
        # Well-scaled designs: fresh normal columns (times 1 to 100) and,
        # after them, columns planted in their span: a constant, the
        # difference of two fresh columns, an earlier column times 1e-3 to
        # 1e3.  Exactly the planted columns are dependent.  A difference of
        # planted columns could cancel to rounding residue, which the rule
        # keeps (test_rounding_residue_is_kept_on_its_own_scale).
        rng = np.random.default_rng(seed)
        n = len(kinds) + int(rng.integers(3, 30))
        columns, planted, fresh = [], [], []
        for kind in kinds:
            if kind == "constant":
                column = np.full(n, float(rng.uniform(-10.0, 10.0)))
            elif kind == "difference" and len(fresh) >= 2:
                a, b = rng.choice(fresh, 2, replace=False)
                column = columns[a] - columns[b]
            elif kind == "scaled" and columns:
                column = columns[int(rng.integers(len(columns)))] * 10.0 ** rng.uniform(-3.0, 3.0)
            else:
                kind, column = "fresh", rng.normal(size=n) * rng.uniform(1.0, 100.0)
                fresh.append(len(columns))
            if kind != "fresh":
                planted.append(f"c{len(columns)}")
            columns.append(column)
        X = np.column_stack(columns)
        names = [f"c{j}" for j in range(X.shape[1])]
        y = rng.normal(size=n)
        w = rng.uniform(0.5, 3.0, size=n) if weighted else None

        Z = np.column_stack([np.ones(n), X]) * np.sqrt(as_weights(w, n))[:, None]
        kept = independent_predictors((Z.T @ Z).tolist(), range(X.shape[1]))
        assert [names[j] for j in range(X.shape[1]) if j not in kept] == planted
        if planted:
            with pytest.raises(RankDeficiencyError) as info:
                fit_ols(y, X, weights=w, names=names)
            assert list(info.value.columns) == planted
        # lstsq's own (scale-dependent) rank finds the kept design full.
        assert np.linalg.lstsq(Z[:, [0] + [j + 1 for j in kept]], y, rcond=None)[2] == len(kept) + 1

        fits = []
        real = regression.fit_ols

        def counted(*args, **kwargs):
            fits.append(kwargs["names"])
            return real(*args, **kwargs)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(regression, "fit_ols", counted)
            fit, used, dropped, cols = _fit_with_fallback(y, X, w, names)
        assert len(fits) <= 2 and dropped == planted
        assert used == [names[j] for j in kept] and fit.slopes.size == len(kept)

    def test_rounding_residue_is_kept_on_its_own_scale(self):
        # c3 = c1 - c0, c4 = c1 - c3 (c0 to rounding) and c5 = c0 - c4: c5
        # is the rounding residue of that round trip, at most 1.4e-14 where
        # the other columns reach 200.  The rule judges each column against
        # its own diagonal, and on that scale the residue is no combination
        # of the columns before it, so it is kept; the constant c2 and the
        # differences c3 and c4 are named.
        rng = np.random.default_rng(128235)
        n = 7 + int(rng.integers(3, 30))
        c0, c1 = (rng.normal(size=n) * rng.uniform(1.0, 100.0) for _ in range(2))
        c2 = np.full(n, float(rng.uniform(-10.0, 10.0)))
        c3 = c1 - c0
        c4 = c1 - c3
        c5 = c0 - c4
        X = np.column_stack([c0, c1, c2, c3, c4, c5, rng.normal(size=n) * rng.uniform(1.0, 100.0)])
        assert 0.0 < np.abs(c5).max() <= 1.5e-14 and np.abs(X).max() > 100.0
        Z = np.column_stack([np.ones(n), X])
        assert independent_predictors((Z.T @ Z).tolist(), range(7)) == [0, 1, 5, 6]
        with pytest.raises(RankDeficiencyError) as info:
            fit_ols(rng.normal(size=n), X, names=[f"c{j}" for j in range(7)])
        assert list(info.value.columns) == ["c2", "c3", "c4"]

    @pytest.mark.parametrize("order", [("big", "tiny", "mid"), ("tiny", "mid", "big"), ("mid", "big", "tiny")])
    def test_predictors_in_very_different_units_are_kept(self, order):
        # Turnover near 1e10, a share in 1e-3 units and a mid-sized column:
        # independent, whatever their scales.  An SVD cutoff relative to
        # the largest singular value would drop ``tiny`` (or ``big`` when
        # ``tiny`` comes first); the Gram rule is relative to each column.
        rng = np.random.default_rng(8)
        n = 5_000
        units = {
            "big": rng.uniform(1.0, 2.0, n) * 1e10,
            "tiny": rng.uniform(0.0, 1.0, n) * 1e-3,
            "mid": rng.uniform(0.0, 100.0, n),
        }
        slopes = {"big": 0.3, "tiny": 5e11, "mid": 1e6}
        y = sum(slopes[name] * units[name] for name in units) + rng.normal(size=n) * 1e6
        w = rng.uniform(0.5, 3.0, size=n)
        X = np.column_stack([units[c] for c in order])
        fit, names, dropped, cols = _fit_with_fallback(y, X, w, list(order))
        assert names == list(order) and dropped == []
        # The solve keeps every direction too: the fitted values and the
        # residual variance are those of the columns rescaled to unit size.
        scale = np.abs(X).max(axis=0)
        rescaled = fit_ols(y, X / scale, weights=w)
        assert np.allclose(fit.predict(X), rescaled.predict(X / scale), rtol=1e-9, atol=0.0)
        assert fit.residual_variance == pytest.approx(rescaled.residual_variance, rel=1e-6)

    def test_mixed_units_are_solved_at_unit_column_norms(self):
        # A share in 0.1 units ahead of turnover near 1e10: lstsq's cutoff
        # keeps both, but the raw design loses accuracy (a residual variance
        # about 2e-4 relative above the optimum).  The fit must reach the
        # optimum of the same design with its columns rescaled to unit size.
        rng = np.random.default_rng(0)
        n = 5_000
        tiny, mid, big = rng.uniform(0.0, 1.0, n) * 0.1, rng.uniform(0.0, 100.0, n), rng.uniform(1.0, 2.0, n) * 1e10
        y = 5e9 * tiny + 1e6 * mid + 0.3 * big + rng.normal(size=n) * 1e6
        X = np.column_stack([tiny, mid, big])
        design = np.column_stack([np.ones(n), X / np.abs(X).max(axis=0)])
        residual = y - design @ np.linalg.lstsq(design, y, rcond=None)[0]
        optimum = float(residual @ residual) / (n - 4)
        assert fit_ols(y, X).residual_variance == pytest.approx(optimum, rel=1e-12)

    @pytest.mark.parametrize("method", ["upma", "bpma"])
    def test_imputation_with_predictors_in_very_different_units(self, method):
        rng = np.random.default_rng(9)
        n = 5_000
        big, tiny, mid = rng.uniform(1.0, 2.0, n) * 1e10, rng.uniform(0.0, 1.0, n) * 1e-3, rng.uniform(0.0, 100.0, n)
        y = 0.3 * big + 5e11 * tiny + 1e6 * mid + rng.uniform(0.0, 1e6, n)
        truth = np.column_stack([y, big, tiny, mid])
        mask = np.zeros(truth.shape, dtype=bool)
        mask[rng.choice(n, n // 10, replace=False), 0] = True
        data = DataMatrix(np.where(mask, np.nan, truth), mask, ("y", "big", "tiny", "mid"))
        edits = parse_edit_rules("y >= 0\ny <= big\nbig >= 0\ntiny >= 0\nmid >= 0")
        totals = {"y": float(y.sum())} if method == "bpma" else None
        out, diagnostics = impute(data, edits, totals, ImputationConfig(method))
        assert all(row["dropped_predictors"] == [] for row in diagnostics if "dropped_predictors" in row)
        validate(out.values, data, edits, totals)  # edits to 1e-9, totals to 1e-8

    @pytest.mark.parametrize("names", [["a"], ["a", "b", "c"]])
    def test_names_must_match_the_predictor_columns(self, names):
        # On full-rank and rank-deficient designs alike.
        rng = np.random.default_rng(5)
        a, b = rng.normal(size=(2, 20))
        for X in (np.column_stack([a, b]), np.column_stack([a, 2.0 * a])):
            with pytest.raises(ValueError, match=r"predictor name\(s\) for 2 predictor column"):
                fit_ols(rng.normal(size=20), X, names=names)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_predictor_is_rejected(self, bad):
        X = np.column_stack([np.arange(10.0), np.arange(10.0) ** 2])
        X[3, 1] = bad
        with pytest.raises(ValueError, match="not finite"):
            fit_ols(np.arange(10.0), X)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_response_is_rejected(self, bad):
        rng = np.random.default_rng(6)
        X, y = rng.normal(size=(20, 2)), rng.normal(size=20)
        y[2] = bad
        with pytest.raises(ValueError, match="response is not finite"):
            fit_ols(y, X)

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

    def test_weighted_summation_identity(self):
        rng = np.random.default_rng(6)
        z = rng.normal(size=(12, 2))
        y = np.exp(z @ np.array([0.3, -0.2]) + 1.0 + rng.normal(size=12) * 0.1)
        fit = fit_ols(np.log(y), z, weights=rng.uniform(0.5, 3.0, size=12))
        zm = rng.normal(size=(5, 2))
        w = rng.uniform(0.5, 3.0, size=5)
        c = log_benchmark_correction(fit, zm, 60.0, w)
        assert float(w @ (c * np.exp(zm @ fit.slopes))) == pytest.approx(60.0, abs=1e-9)

    def test_nonpositive_total_rejected(self):
        fit = fit_ols(np.log([1.0, 2.0, 3.0]), [1.0, 2.0, 3.0])
        with pytest.raises(ValueError, match="positive"):
            log_benchmark_correction(fit, [[1.0]], 0.0)


class TestWeights:
    # Every entry point taking weights for three records checks them
    # through as_weights.
    FIT = fit_ols([1.0, 2.0, 4.0], [0.0, 1.0, 3.0])
    ENTRY_POINTS = {
        "DataMatrix": lambda w: DataMatrix(np.ones((3, 2)), np.zeros((3, 2), dtype=bool), ("a", "b"), w),
        "fit_ols": lambda w: fit_ols([1.0, 2.0, 4.0], [0.0, 1.0, 3.0], weights=w),
        "fit_benchmarked": lambda w: fit_benchmarked(TestWeights.FIT, [[1.0], [2.0], [3.0]], 5.0, w),
        "log_benchmark_correction": lambda w: log_benchmark_correction(
            TestWeights.FIT, [[1.0], [2.0], [3.0]], 5.0, w),
        "AdjustmentProblem": lambda w: AdjustmentProblem(np.zeros(3), -np.ones(3), np.ones(3), w),
        "d_l1": lambda w: d_l1([1.0, 2.0, 4.0], [2.0, 3.0, 5.0], w),
        "weighted_pearson": lambda w: weighted_pearson([1.0, 2.0, 4.0], [0.0, 1.0, 3.0], w),
    }

    def test_none_gives_ones_and_valid_weights_pass(self):
        assert as_weights(None, 3).tobytes() == np.ones(3).tobytes()
        assert as_weights([0.5, 1.0, 3.0], 3).tolist() == [0.5, 1.0, 3.0]

    @pytest.mark.parametrize("entry", list(ENTRY_POINTS))
    @pytest.mark.parametrize(
        "weights, message",
        [
            ([1.0, 0.0, 1.0], "be finite and strictly positive"),
            ([1.0, -1.0, 1.0], "be finite and strictly positive"),
            ([1.0, np.nan, 1.0], "be finite and strictly positive"),
            ([1.0, np.inf, 1.0], "be finite and strictly positive"),
            ([1.0, 1.0], r"have shape \(3,\)"),
            ([2.0], r"have shape \(3,\)"),
        ],
        ids=["zero", "negative", "nan", "inf", "wrong-length", "length-one"],
    )
    def test_bad_weights_rejected(self, entry, weights, message):
        with pytest.raises(ValueError, match=f"weights must {message}"):
            self.ENTRY_POINTS[entry](np.array(weights))
