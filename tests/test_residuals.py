import math

import numpy as np
import pytest

from calimp.adjust import AdjustmentProblem, qp_reference_solve
from calimp.errors import CalimpError
from calimp.fm import Interval
from calimp.residuals import benchmarked_residuals, cell_rng, draw_ar_residual, uses_stream

INF = math.inf


class TestDrawArResidual:
    def test_untruncated_draw_takes_one_attempt(self):
        rng = np.random.default_rng(0)
        draw = draw_ar_residual(1.0, Interval(-INF, INF), rng)
        assert draw.attempts == 1
        assert not draw.fallback_used

    def test_degenerate_sigma_with_zero_inside(self):
        draw = draw_ar_residual(0.0, Interval(-1.0, 1.0), np.random.default_rng(0))
        assert draw.value == 0.0

    def test_degenerate_sigma_with_zero_outside_raises(self):
        with pytest.raises(CalimpError):
            draw_ar_residual(0.0, Interval(1.0, 2.0), np.random.default_rng(0))

    def test_point_interval_is_returned_directly(self):
        draw = draw_ar_residual(2.0, Interval(0.75, 0.75), np.random.default_rng(0))
        assert draw.value == 0.75

    def test_half_normal_mean(self):
        rng = np.random.default_rng(2024)
        n = 100_000
        values = np.fromiter(
            (draw_ar_residual(1.0, Interval(0.0, INF), rng).value for _ in range(n)),
            dtype=float,
            count=n,
        )
        assert abs(values.mean() - math.sqrt(2.0 / math.pi)) < 0.01

    def test_far_tail_uses_fallback_and_stays_inside(self):
        rng = np.random.default_rng(5)
        draw = draw_ar_residual(1.0, Interval(9.0, 10.0), rng)
        assert draw.fallback_used
        assert 9.0 <= draw.value <= 10.0

    def test_fallback_preserves_truncated_law(self):
        # Interval far enough that AR nearly always falls back; compare the
        # sample mean against the analytic truncated-normal mean.
        from scipy.stats import truncnorm

        rng = np.random.default_rng(77)
        lo, hi = 4.0, 6.0
        n = 20_000
        values = np.array([draw_ar_residual(1.0, Interval(lo, hi), rng).value for _ in range(n)])
        expected = truncnorm.mean(lo, hi)
        assert abs(values.mean() - expected) < 0.01

    def test_reproducible_given_seed(self):
        a = [draw_ar_residual(2.0, Interval(-1.0, 3.0), np.random.default_rng(9)).value for _ in range(50)]
        b = [draw_ar_residual(2.0, Interval(-1.0, 3.0), np.random.default_rng(9)).value for _ in range(50)]
        assert a == b


class TestBenchmarkedResiduals:
    def test_unconstrained_projection_subtracts_weighted_mean(self):
        rng = np.random.default_rng(1)
        intervals = [Interval(-INF, INF)] * 4
        w = np.array([1.0, 2.0, 3.0, 4.0])
        probe = np.random.default_rng(1)
        raw = np.array([draw_ar_residual(1.5, intervals[i], probe).value for i in range(4)])
        out, _ = benchmarked_residuals(1.5, intervals, w, rng)
        assert np.allclose(out, raw - np.sum(w * raw) / np.sum(w), atol=1e-12)

    def test_single_cell_forced_to_zero(self):
        out, _ = benchmarked_residuals(1.0, [Interval(-2.0, 2.0)], None, np.random.default_rng(0))
        assert np.allclose(out, [0.0], atol=1e-12)

    def test_matches_adjustment_oracle(self):
        rng = np.random.default_rng(3)
        intervals = [Interval(-1.0, 1.0)] * 3
        rngs = [cell_rng(123, 0, i) for i in range(3)]
        probe = [cell_rng(123, 0, i) for i in range(3)]
        raw = np.array([draw_ar_residual(5.0, intervals[i], probe[i]).value for i in range(3)])
        out, _ = benchmarked_residuals(5.0, intervals, None, rngs)
        ref = raw + qp_reference_solve(
            AdjustmentProblem(raw, np.full(3, -1.0), np.full(3, 1.0)), target_sum=0.0
        )
        assert np.allclose(out, ref, atol=1e-6)
        assert abs(out.sum()) <= 1e-9
        assert np.all(np.abs(out) <= 1.0 + 1e-9)

    def test_projection_variance_deflation(self):
        # Wide intervals: the zero-sum projection removes one degree of
        # freedom, so the output variance sits near sigma^2 * (1 - 1/m).
        rng = np.random.default_rng(8)
        m, sigma, reps = 5, 1.0, 10_000
        intervals = [Interval(-10 * sigma, 10 * sigma)] * m
        pooled = []
        for _ in range(reps):
            out, _ = benchmarked_residuals(sigma, intervals, None, rng)
            pooled.extend(out.tolist())
        var = float(np.var(pooled))
        target = sigma**2 * (1 - 1 / m)
        assert abs(var - target) < 0.1 * target

    def test_bitwise_reproducibility(self):
        intervals = [Interval(-2.0, 2.0)] * 6
        out1, stats1 = benchmarked_residuals(1.0, intervals, None, [cell_rng(5, 2, i) for i in range(6)])
        out2, stats2 = benchmarked_residuals(1.0, intervals, None, [cell_rng(5, 2, i) for i in range(6)])
        assert out1.tobytes() == out2.tobytes()
        assert stats1 == stats2

    @pytest.mark.parametrize("sigma", [0.0, 1.5])
    def test_lazy_streams_match_eager_construction(self, sigma):
        # Streams built on demand give the same bytes as one stream built
        # per cell up front, and only cells with a real draw build one.
        intervals = [Interval(-2.0, 2.0), Interval(0.5, 0.5), Interval(-1.0, INF), Interval(0.0, 0.0), Interval(-3.0, 1.0)]
        if sigma == 0.0:
            intervals = [iv for iv in intervals if iv.contains(0.0)]
        weights = np.linspace(1.0, 2.0, len(intervals))
        eager = [cell_rng(5, 2, 10 + i) for i in range(len(intervals))]
        built = []

        def stream(i):
            built.append(i)
            return cell_rng(5, 2, 10 + i)

        out1, stats1 = benchmarked_residuals(sigma, intervals, weights, eager)
        out2, stats2 = benchmarked_residuals(sigma, intervals, weights, stream)
        assert out1.tobytes() == out2.tobytes()
        assert stats1 == stats2
        assert built == [i for i, iv in enumerate(intervals) if uses_stream(sigma, iv)]
        assert len(built) == (0 if sigma == 0.0 else 3)
