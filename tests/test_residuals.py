import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from calimp.adjust import AdjustmentProblem, adjustment_stats, zero_sum_interval_adjust
from calimp.errors import InfeasibleAdjustmentError
from calimp.fm import Interval
from calimp.residuals import DEFAULT_MAX_ATTEMPTS, benchmarked_residuals, cell_rng, cell_streams, draw_ar_residual

from _oracles import per_cell_benchmarked_residuals, qp_reference_solve

INF = math.inf


def no_stream(i):
    raise AssertionError(f"cell {i} asked for a stream")


class TestDrawArResidual:
    def test_untruncated_draw_takes_one_attempt(self):
        rng = np.random.default_rng(0)
        draw = draw_ar_residual(1.0, Interval(-INF, INF), rng)
        assert draw.attempts == 1
        assert not draw.fallback_used

    @pytest.mark.parametrize("sigma, interval", [(0.0, Interval(-1.0, 1.0)), (2.0, Interval(0.75, 0.75)), (-1.0, Interval(-1.0, 1.0))])
    def test_zero_sigma_and_point_interval_are_refused(self, sigma, interval):
        with pytest.raises(ValueError):
            draw_ar_residual(sigma, interval, np.random.default_rng(0))

    # Zero sigma and point intervals never reach draw_ar_residual:
    # benchmarked_residuals settles them without reading a stream.
    def test_degenerate_sigma_with_zero_inside(self):
        out, stats = benchmarked_residuals(0.0, [-1.0, -2.0], [1.0, 3.0], None, no_stream)
        assert out.tolist() == [0.0, 0.0]
        assert stats["attempts"] == 0

    def test_degenerate_sigma_with_zero_outside_is_recentred(self):
        # The zero draw of the second cell lies below [1, 2]: the re-centering
        # lifts it to 1 and moves the first cell by -1 to keep the sum zero.
        out, stats = benchmarked_residuals(0.0, [-1.0, 1.0], [1.0, 2.0], None, no_stream)
        assert out.tolist() == [-1.0, 1.0]
        assert stats == {"attempts": 0, "fallbacks": 0, "lambda": None, "at_lower": 2, "at_upper": 0}

    def test_degenerate_sigma_allows_the_contains_slack(self):
        # 0 misses [1e-10, 1] by a hair: the re-centering puts the cell on its bound.
        out, _ = benchmarked_residuals(0.0, [1e-10, -1.0], [1.0, 1.0], None, no_stream)
        assert out.tolist() == [1e-10, -1e-10]

    def test_point_interval_is_returned_directly(self):
        out, stats = benchmarked_residuals(2.0, [0.75, -0.75], [0.75, -0.75], None, no_stream)
        assert out.tolist() == [0.75, -0.75]
        assert stats["attempts"] == 0

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
        assert draw.attempts == DEFAULT_MAX_ATTEMPTS
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
        # One generator shared by every cell: the cells draw from it in order.
        rng = np.random.default_rng(1)
        w = np.array([1.0, 2.0, 3.0, 4.0])
        probe = np.random.default_rng(1)
        raw = np.array([draw_ar_residual(1.5, Interval(-INF, INF), probe).value for _ in range(4)])
        out, _ = benchmarked_residuals(1.5, np.full(4, -INF), np.full(4, INF), w, lambda i: rng)
        assert np.allclose(out, raw - np.sum(w * raw) / np.sum(w), atol=1e-12)

    def test_single_cell_forced_to_zero(self):
        rng = np.random.default_rng(0)
        out, _ = benchmarked_residuals(1.0, [-2.0], [2.0], None, lambda i: rng)
        assert np.allclose(out, [0.0], atol=1e-12)

    def test_matches_adjustment_oracle(self):
        rngs = [cell_rng(123, 0, i) for i in range(3)]
        probe = [cell_rng(123, 0, i) for i in range(3)]
        raw = np.array([draw_ar_residual(5.0, Interval(-1.0, 1.0), probe[i]).value for i in range(3)])
        out, _ = benchmarked_residuals(5.0, np.full(3, -1.0), np.full(3, 1.0), None, rngs.__getitem__)
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
        lower, upper = np.full(m, -10 * sigma), np.full(m, 10 * sigma)
        pooled = []
        for _ in range(reps):
            out, _ = benchmarked_residuals(sigma, lower, upper, None, lambda i: rng)
            pooled.extend(out.tolist())
        var = float(np.var(pooled))
        target = sigma**2 * (1 - 1 / m)
        assert abs(var - target) < 0.1 * target

    def test_bitwise_reproducibility(self):
        lower, upper = np.full(6, -2.0), np.full(6, 2.0)
        out1, stats1 = benchmarked_residuals(1.0, lower, upper, None, lambda i: cell_rng(5, 2, i))
        out2, stats2 = benchmarked_residuals(1.0, lower, upper, None, lambda i: cell_rng(5, 2, i))
        assert out1.tobytes() == out2.tobytes()
        assert stats1 == stats2

    @pytest.mark.parametrize("sigma", [0.0, 1.5])
    def test_lazy_streams_match_eager_construction(self, sigma):
        # Streams built on demand give the same bytes as one stream built
        # per cell up front, and only cells with a real draw build one.
        intervals = [Interval(-2.0, 2.0), Interval(0.5, 0.5), Interval(-1.0, INF), Interval(0.0, 0.0), Interval(-3.0, 1.0)]
        weights = np.linspace(1.0, 2.0, len(intervals))
        eager = [cell_rng(5, 2, 10 + i) for i in range(len(intervals))]
        built = []

        def stream(i):
            built.append(i)
            return cell_rng(5, 2, 10 + i)

        out1, stats1 = per_cell_benchmarked_residuals(sigma, intervals, weights, eager)
        out2, stats2 = benchmarked_residuals(
            sigma, [iv.lower for iv in intervals], [iv.upper for iv in intervals], weights, stream
        )
        assert out1.tobytes() == out2.tobytes()
        assert stats1 == stats2
        assert built == [i for i, iv in enumerate(intervals) if sigma != 0.0 and not iv.is_point()]
        assert len(built) == (0 if sigma == 0.0 else 3)


KINDS = ("point", "bounded", "lower", "upper", "unbounded")


@st.composite
def residual_problems(draw):
    """Residual bounds around a point of weighted sum zero, so the
    re-centering is feasible; with ``zero`` the point is 0, else zero
    draws may lie outside their bounds, and ``scale`` sets the size of the
    bounds, down to 1e-9."""
    m = draw(st.integers(0, 9))
    kinds = draw(st.lists(st.sampled_from(KINDS), min_size=m, max_size=m))
    seed = draw(st.integers(0, 2**32 - 1))
    sigma = draw(st.sampled_from([0.0, 0.0, 1e-9, 0.3, 1.0, 40.0]))
    weighted = draw(st.booleans())
    zero = draw(st.booleans())
    scale = draw(st.sampled_from([1e-9, 1.0, 50.0]))
    rng = np.random.default_rng(seed)
    w = rng.uniform(0.5, 3.0, m) if weighted else np.ones(m)
    center = np.zeros(m) if zero else rng.normal(0.0, scale, m)
    center -= np.sum(w * center) / np.sum(w) if m else 0.0
    below, above = rng.exponential(scale, (2, m))
    lower = np.array([c if k == "point" else (-INF if k in ("upper", "unbounded") else c - b)
                      for k, c, b in zip(kinds, center, below)])
    upper = np.array([c if k == "point" else (INF if k in ("lower", "unbounded") else c + a)
                      for k, c, a in zip(kinds, center, above)])
    return sigma, lower, upper, (w if weighted else None), seed


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(residual_problems())
def test_array_residuals_match_per_cell_oracle(problem):
    sigma, lower, upper, weights, seed = problem
    intervals = [Interval(float(lo), float(hi)) for lo, hi in zip(lower, upper)]
    built = []

    def stream(i):
        built.append(i)
        return cell_rng(seed, 3, i)

    want = per_cell_benchmarked_residuals(sigma, intervals, weights, [cell_rng(seed, 3, i) for i in range(len(intervals))])
    out, stats = benchmarked_residuals(sigma, lower, upper, weights, stream)
    assert out.tobytes() == want[0].tobytes()
    assert stats == want[1]
    assert built == [i for i, iv in enumerate(intervals) if sigma != 0.0 and not iv.is_point()]



@settings(max_examples=200, deadline=None)
@given(
    seed=st.one_of(st.just(0), st.integers(1, 2**32 - 1), st.integers(2**32, 2**64 - 1), st.integers(2**64, 2**160)),
    variable_index=st.integers(0, 40),
    records=st.lists(
        st.one_of(st.just(0), st.integers(1, 10**6), st.integers(2**31, 2**63 - 1)), min_size=1, max_size=5
    ),
)
def test_cell_streams_match_cell_rng(seed, variable_index, records):
    # Seeds from 2**64 on have more entropy words than SeedSequence's pool,
    # records from 2**32 on take two words.
    stream = cell_streams(seed, variable_index, np.array(records, dtype=np.int64))
    for k, record in enumerate(records):
        want, got = cell_rng(seed, variable_index, record), stream(k)
        assert got.bit_generator.state == want.bit_generator.state
        assert got.normal() == want.normal()
        assert got.uniform() == want.uniform()
        # An interval 8 to 9 sigma out: every proposal misses, the draw
        # inverts the truncated CDF on the stream's next uniform.
        want = draw_ar_residual(1.0, Interval(8.0, 9.0), cell_rng(seed, variable_index, record))
        assert want.fallback_used
        assert draw_ar_residual(1.0, Interval(8.0, 9.0), stream(k)) == want


@st.composite
def adjustment_problems(draw):
    """Predictions around a point inside every box; with ``balanced`` the
    offsets have weighted sum zero, so the adjustment is feasible, else it
    may not be.  Many predictions lie outside their boxes."""
    m = draw(st.integers(0, 9))
    kinds = draw(st.lists(st.sampled_from(KINDS), min_size=m, max_size=m))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    weighted, balanced = draw(st.booleans()), draw(st.booleans())
    scale = draw(st.sampled_from([1e-6, 1.0, 1e4]))
    w = rng.uniform(0.5, 3.0, m) if weighted else np.ones(m)
    center = rng.normal(0.0, 10.0 * scale, m)
    below, above = rng.exponential(scale, (2, m))
    lower = np.array([-INF if k in ("upper", "unbounded") else c - (0.0 if k == "point" else b)
                      for k, c, b in zip(kinds, center, below)])
    upper = np.array([INF if k in ("lower", "unbounded") else c + (0.0 if k == "point" else a)
                      for k, c, a in zip(kinds, center, above)])
    offset = rng.normal(0.0, 3.0 * scale, m)
    if balanced and m:
        offset -= np.sum(w * offset) / np.sum(w)
    return center + offset, lower, upper, (w if weighted else None)


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(adjustment_problems())
def test_zero_residuals_are_the_zero_sum_adjustment(problem):
    # bpma's adjustment of predictions x is bpmr's re-centering of zero
    # residuals in the residual bounds [lower - x, upper - x], bit for bit.
    x, lower, upper, weights = problem
    w = np.ones(x.size) if weights is None else weights
    scale = max(1.0, float(np.sum(np.abs(w * x))))
    adjust_problem = AdjustmentProblem(x, lower, upper, weights)
    try:
        want = zero_sum_interval_adjust(adjust_problem)
    except InfeasibleAdjustmentError as err:
        with pytest.raises(InfeasibleAdjustmentError) as got:
            benchmarked_residuals(0.0, lower - x, upper - x, weights, no_stream, feasibility_scale=scale)
        assert str(got.value) == str(err)
        return
    out, stats = benchmarked_residuals(0.0, lower - x, upper - x, weights, no_stream, feasibility_scale=scale)
    assert out.tobytes() == want.tobytes()
    assert stats == {"attempts": 0, "fallbacks": 0, **adjustment_stats(adjust_problem, want)}
