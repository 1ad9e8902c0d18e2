import numpy as np
import pytest

from calimp.metrics import MetricReport, d_l1, ks_statistic, std_pct_diff, weighted_pearson


class TestDl1:
    def test_identical_vectors(self):
        assert d_l1([1.0, 2.0], [1.0, 2.0]) == 0.0

    def test_unit_weights(self):
        assert d_l1([0.0, 0.0], [1.0, 3.0]) == pytest.approx(2.0)

    def test_weighted(self):
        assert d_l1([0.0, 0.0], [1.0, 3.0], weights=[3.0, 1.0]) == pytest.approx(1.5)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            d_l1([], [])

    def test_common_scaling_is_linear(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=20)
        y = rng.normal(size=20)
        w = rng.uniform(0.5, 2.0, size=20)
        assert d_l1(3.5 * x, 3.5 * y, w) == pytest.approx(3.5 * d_l1(x, y, w))


class TestKs:
    def test_identical_multisets(self):
        assert ks_statistic([3.0, 1.0, 2.0], [1.0, 2.0, 3.0]) == 0.0

    def test_disjoint_supports(self):
        assert ks_statistic([1.0, 2.0], [5.0, 6.0]) == 1.0

    def test_hand_evaluated_interleaving(self):
        # Pooled points 1,2,3,4: the CDF gap peaks at 0.5.
        assert ks_statistic([1.0, 3.0], [2.0, 4.0]) == pytest.approx(0.5)

    def test_invariant_under_increasing_transform(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=40)
        y = rng.normal(size=40) + 0.3
        before = ks_statistic(x, y)
        after = ks_statistic(np.exp(x), np.exp(y))
        assert before == pytest.approx(after)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=25)
        y = rng.normal(size=25)
        assert ks_statistic(x, y) == ks_statistic(rng.permutation(x), rng.permutation(y))


class TestStdPctDiff:
    def test_identical_columns(self):
        assert std_pct_diff([1.0, 2.0, 3.0], [1.0, 2.0, 3.0]) == 0.0

    def test_doubled_scale(self):
        x = np.array([1.0, 2.0, 3.0])
        assert std_pct_diff(x, 2 * x) == pytest.approx(100.0)

    def test_zero_spread_rejected(self):
        with pytest.raises(ValueError):
            std_pct_diff([2.0, 2.0], [1.0, 3.0])

    def test_constant_column_whose_std_rounds_above_zero_is_rejected(self):
        x = np.full(7, 0.1)
        assert np.std(x) > 0.0
        with pytest.raises(ValueError):
            std_pct_diff(x, np.arange(7.0))

    def test_population_denominator(self):
        x = np.array([0.0, 1.0])
        y = np.array([0.0, 2.0])
        assert std_pct_diff(x, y) == pytest.approx(100.0 * (1.0 - 0.5) / 0.5)


class TestWeightedPearson:
    def test_matches_numpy_for_unit_weights(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=50)
        y = 0.7 * x + rng.normal(size=50)
        assert weighted_pearson(x, y) == pytest.approx(float(np.corrcoef(x, y)[0, 1]))

    def test_weights_replicate_rows(self):
        x = np.array([1.0, 2.0, 5.0])
        y = np.array([2.0, 1.0, 4.0])
        w = np.array([2.0, 1.0, 3.0])
        xr = np.repeat(x, [2, 1, 3])
        yr = np.repeat(y, [2, 1, 3])
        assert weighted_pearson(x, y, w) == pytest.approx(float(np.corrcoef(xr, yr)[0, 1]))

    @pytest.mark.parametrize("constant", [0.0, 7.0])
    def test_constant_column_is_rejected(self, constant):
        # Sixty weights of 1/60 leave the weighted mean of 7.0 a few ulps
        # off, and its variance a few ulps above 0.
        x, y = np.full(60, constant), np.arange(60.0)
        for a, b in ((x, y), (y, x)):
            with pytest.raises(ValueError, match="zero variance"):
                weighted_pearson(a, b)


def test_report_rows_are_flat():
    report = MetricReport(
        per_variable={"x1": {"d_l1": 1.0, "ks": 0.25}},
        correlations={("x1", "x2"): 0.5},
    )
    rows = report.rows()
    assert ("x1", "d_l1", 1.0) in rows
    assert ("x1,x2", "correlation", 0.5) in rows
