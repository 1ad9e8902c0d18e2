import math
import warnings
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st
from scipy.stats import kstest, norm, truncnorm

from calimp.adjust import AdjustmentProblem, adjustment_stats, reach, zero_sum_interval_adjust
from calimp.errors import InfeasibleAdjustmentError
from calimp.fm import Interval
from calimp.residuals import (
    benchmarked_residuals,
    cell_rng,
    cell_uniform,
    cell_uniforms,
    draw_ar_residual,
    truncated_normal,
)

from _oracles import per_cell_benchmarked_residuals, qp_reference_solve, scalar_cell_uniform, scalar_truncated_normal

INF = math.inf


class TestDrawArResidual:
    def test_each_draw_reads_one_raw_word(self):
        rng, twin = np.random.default_rng(0), np.random.default_rng(0)
        for interval in (Interval(-INF, INF), Interval(0.0, INF), Interval(9.0, 10.0), Interval(-41.0, -40.0)):
            draw_ar_residual(1.0, interval, rng)
            twin.bit_generator.random_raw()
            assert rng.bit_generator.state == twin.bit_generator.state, interval

    @pytest.mark.parametrize("sigma, interval", [(0.0, Interval(-1.0, 1.0)), (2.0, Interval(0.75, 0.75)), (-1.0, Interval(-1.0, 1.0))])
    def test_zero_sigma_and_point_interval_are_refused(self, sigma, interval):
        with pytest.raises(ValueError):
            draw_ar_residual(sigma, interval, np.random.default_rng(0))

    # Zero sigma and point intervals draw nothing: benchmarked_residuals
    # settles them without reading a uniform.
    def test_degenerate_sigma_with_zero_inside(self):
        out, stats = benchmarked_residuals(0.0, [-1.0, -2.0], [1.0, 3.0], None, None)
        assert out.tolist() == [0.0, 0.0]
        assert stats["attempts"] == 0

    def test_degenerate_sigma_with_zero_outside_is_recentred(self):
        # The zero draw of the second cell lies below [1, 2]: the re-centering
        # lifts it to 1 and moves the first cell by -1 to keep the sum zero.
        out, stats = benchmarked_residuals(0.0, [-1.0, 1.0], [1.0, 2.0], None, None)
        assert out.tolist() == [-1.0, 1.0]
        assert stats == {"attempts": 0, "fallbacks": 0, "lambda": None, "at_lower": 2, "at_upper": 0}

    def test_degenerate_sigma_allows_the_contains_slack(self):
        # 0 misses [1e-10, 1] by a hair: the re-centering puts the cell on its bound.
        out, _ = benchmarked_residuals(0.0, [1e-10, -1.0], [1.0, 1.0], None, None)
        assert out.tolist() == [1e-10, -1e-10]

    def test_point_interval_is_returned_directly(self):
        # A NaN uniform read would make a NaN draw.
        out, stats = benchmarked_residuals(2.0, [0.75, -0.75], [0.75, -0.75], None, [math.nan, math.nan])
        assert out.tolist() == [0.75, -0.75]
        assert stats["attempts"] == 0

    def test_half_normal_mean(self):
        rng = np.random.default_rng(2024)
        n = 100_000
        values = np.fromiter(
            (draw_ar_residual(1.0, Interval(0.0, INF), rng) for _ in range(n)),
            dtype=float,
            count=n,
        )
        assert abs(values.mean() - math.sqrt(2.0 / math.pi)) < 0.01

    def test_far_tail_draw_stays_inside(self):
        rng = np.random.default_rng(5)
        draw = draw_ar_residual(1.0, Interval(9.0, 10.0), rng)
        assert 9.0 <= draw <= 10.0

    def test_tail_draws_keep_the_truncated_mean(self):
        # An interval that holds a normal draw about once in 32,000:
        # compare the sample mean against the analytic truncated-normal mean.
        rng = np.random.default_rng(77)
        lo, hi = 4.0, 6.0
        n = 20_000
        values = np.array([draw_ar_residual(1.0, Interval(lo, hi), rng) for _ in range(n)])
        expected = truncnorm.mean(lo, hi)
        assert abs(values.mean() - expected) < 0.01

    def test_reproducible_given_seed(self):
        a = [draw_ar_residual(2.0, Interval(-1.0, 3.0), np.random.default_rng(9)) for _ in range(50)]
        b = [draw_ar_residual(2.0, Interval(-1.0, 3.0), np.random.default_rng(9)) for _ in range(50)]
        assert a == b


class TestBenchmarkedResiduals:
    def test_unconstrained_projection_subtracts_weighted_mean(self):
        w = np.array([1.0, 2.0, 3.0, 4.0])
        u = np.array([0.1, 0.4, 0.75, 0.9])
        raw = 1.5 * norm.ppf(u)
        out, stats = benchmarked_residuals(1.5, np.full(4, -INF), np.full(4, INF), w, u)
        assert np.allclose(out, raw - np.sum(w * raw) / np.sum(w), atol=1e-12)
        assert (stats["attempts"], stats["fallbacks"]) == (4, 0)

    def test_single_cell_forced_to_zero(self):
        out, _ = benchmarked_residuals(1.0, [-2.0], [2.0], None, [0.3])
        assert np.allclose(out, [0.0], atol=1e-12)

    def test_matches_adjustment_oracle(self):
        u = cell_uniforms(123, 0, range(3))
        raw = np.array([scalar_truncated_normal(5.0, -1.0, 1.0, float(v)) for v in u])
        out, _ = benchmarked_residuals(5.0, np.full(3, -1.0), np.full(3, 1.0), None, u)
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
            out, _ = benchmarked_residuals(sigma, lower, upper, None, rng.random(m))
            pooled.extend(out.tolist())
        var = float(np.var(pooled))
        target = sigma**2 * (1 - 1 / m)
        assert abs(var - target) < 0.1 * target

    def test_bitwise_reproducibility(self):
        lower, upper = np.full(6, -2.0), np.full(6, 2.0)
        out1, stats1 = benchmarked_residuals(1.0, lower, upper, None, cell_uniforms(5, 2, range(6)))
        out2, stats2 = benchmarked_residuals(1.0, lower, upper, None, cell_uniforms(5, 2, range(6)))
        assert out1.tobytes() == out2.tobytes()
        assert stats1 == stats2

    @pytest.mark.parametrize("sigma", [0.0, 1.5])
    def test_lazy_streams_match_eager_construction(self, sigma):
        # Only cells with a real draw read their uniform: NaN in place of
        # every other cell's gives the same bytes as the per-cell oracle
        # with every cell's uniform.
        intervals = [
            Interval(-2.0, 2.0), Interval(0.5, 0.5), Interval(-1.0, INF), Interval(0.0, 0.0), Interval(-3.0, 1.0)
        ]
        weights = np.linspace(1.0, 2.0, len(intervals))
        eager = cell_uniforms(5, 2, range(10, 10 + len(intervals)))
        drawing = np.array([sigma != 0.0 and not iv.is_point() for iv in intervals])
        out1, stats1 = per_cell_benchmarked_residuals(sigma, intervals, weights, eager)
        out2, stats2 = benchmarked_residuals(
            sigma, [iv.lower for iv in intervals], [iv.upper for iv in intervals], weights,
            np.where(drawing, eager, math.nan),
        )
        assert out1.tobytes() == out2.tobytes()
        assert stats1 == stats2
        assert stats2["attempts"] == drawing.sum() == (0 if sigma == 0.0 else 3)


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
    uniforms = [scalar_cell_uniform(seed, 3, i) for i in range(len(intervals))]
    want = per_cell_benchmarked_residuals(sigma, intervals, weights, uniforms)
    out, stats = benchmarked_residuals(sigma, lower, upper, weights, cell_uniforms(seed, 3, range(len(intervals))))
    assert out.tobytes() == want[0].tobytes()
    assert stats == want[1]


@settings(max_examples=200, deadline=None)
@given(
    seed=st.one_of(st.just(0), st.integers(1, 2**32 - 1), st.integers(2**32, 2**64 - 1), st.integers(2**64, 2**160)),
    variable_index=st.integers(0, 40),
    records=st.lists(
        st.one_of(st.just(0), st.integers(1, 10**6), st.integers(2**31, 2**63 - 1)), min_size=1, max_size=5
    ),
)
def test_cell_uniforms_match_the_scalar_oracle(seed, variable_index, records):
    # Seeds from 2**64 on have more entropy words than SeedSequence's pool,
    # records from 2**32 on take two words.
    got = cell_uniforms(seed, variable_index, np.array(records, dtype=np.int64))
    want = [scalar_cell_uniform(seed, variable_index, record) for record in records]
    assert got.tolist() == want == [cell_uniform(seed, variable_index, record) for record in records]
    assert cell_rng is cell_uniform
    assert all(0.0 < u < 1.0 for u in want)


# Each statistical bound below is fixed before running: a KS statistic at
# most 1.95 / sqrt(n) (the asymptotic 0.1% critical value) and a Pearson
# correlation within 4 / sqrt(n) of zero (four standard errors).
def ks_bound(n):
    return 1.95 / math.sqrt(n)


def test_cell_uniforms_are_uniform():
    # 120,000 keys: 3 rounds of one seed, 4 columns, 10,000 records each,
    # half of them at or above 2**32.
    records = np.concatenate([np.arange(5_000), 2**32 + 7 * np.arange(5_000)])
    u = np.concatenate([cell_uniforms(11 * 1_000_003 + rnd, j, records) for rnd in (1, 2, 3) for j in range(4)])
    assert u.size == 120_000
    assert kstest(u, "uniform").statistic <= ks_bound(u.size)


def test_neighbouring_cells_are_uncorrelated():
    n = 100_000
    records = np.arange(n)
    base = cell_uniforms(7 * 1_000_003 + 1, 2, records)
    neighbours = {
        "record": cell_uniforms(7 * 1_000_003 + 1, 2, records + 1),
        "column": cell_uniforms(7 * 1_000_003 + 1, 3, records),
        "round": cell_uniforms(7 * 1_000_003 + 2, 2, records),
    }
    for name, other in neighbours.items():
        assert abs(np.corrcoef(base, other)[0, 1]) <= 4 / math.sqrt(n), name
        # On the normal scale too, where the tails weigh more.
        assert abs(np.corrcoef(norm.ppf(base), norm.ppf(other))[0, 1]) <= 4 / math.sqrt(n), name


@pytest.mark.parametrize(
    "lower, upper",
    [(-0.5, 2.0), (-3.0, 0.25), (40.0, 41.0), (-41.0, -40.0), (40.0, INF), (-INF, -40.0), (1.0, INF), (-INF, -2.0),
     (-INF, INF)],
)
def test_draws_follow_the_truncated_normal(lower, upper):
    # The array draw at the cells' uniforms and the chain's scalar draw
    # from a generator, each n draws.
    sigma, n = 2.5, 20_000
    u = cell_uniforms(5 * 1_000_003 + 1, 1, np.arange(n))
    rng, interval = np.random.default_rng(5), Interval(sigma * lower, sigma * upper)
    samples = (
        truncated_normal(sigma, np.full(n, sigma * lower), np.full(n, sigma * upper), u),
        np.fromiter((draw_ar_residual(sigma, interval, rng) for _ in range(n)), dtype=float, count=n),
    )
    for x in samples:
        assert not np.isnan(x).any()
        assert np.all((sigma * lower <= x) & (x <= sigma * upper))
        assert kstest(x, truncnorm(lower, upper, scale=sigma).cdf).statistic <= ks_bound(n)


def test_degenerate_draws_land_by_the_guard_rule():
    # The inverse CDF is NaN on intervals this far out (both log CDFs are
    # -inf), -0.0 below a subnormal interval, and a point outside an empty
    # one: each lands on its interval's side closer to 0, like the
    # per-cell oracle, without a RuntimeWarning.  The scalar draw lands on
    # the same points; an empty interval never reaches it, as Interval
    # refuses it.
    lower = np.array([1e300, 1e200, -1e201, 5e-324, 2.0])
    upper = np.array([INF, 1e201, -1e200, 1e-323, 1.0])
    u = np.array([0.3, 0.999, 0.5, 0.3, 0.5])
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        x = truncated_normal(1.0, lower, upper, u)
    assert x.tolist() == [1e300, 1e200, -1e200, 5e-324, 1.0]
    assert x.tolist() == [scalar_truncated_normal(1.0, *args) for args in zip(lower, upper, u)]
    rng = np.random.default_rng(3)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        scalar = [draw_ar_residual(1.0, Interval(lo, hi), rng) for lo, hi in zip(lower[:4], upper[:4]) for _ in range(50)]
    assert scalar == [v for v in x[:4].tolist() for _ in range(50)]
    # A sigma so small that far bounds overflow in its units lands alike.
    lower, upper = np.array([1e10, -1e300]), np.array([INF, -1e10])
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        x = truncated_normal(1e-300, lower, upper, np.array([0.5, 0.5]))
        scalar = [draw_ar_residual(1e-300, Interval(lo, hi), rng) for lo, hi in zip(lower, upper)]
    assert x.tolist() == scalar == [1e10, -1e10]


@pytest.mark.parametrize(
    "lower, upper",
    [(-0.5, 2.0), (-3.0, 0.25), (-5.0, 5.0), (-6.0, 5.0), (40.0, 41.0), (-41.0, -40.0), (8.0, 9.0), (40.0, INF),
     (-INF, -40.0), (1.0, INF), (-INF, -2.0), (-INF, INF), (0.0, INF), (0.1, 0.2)],
)
def test_scalar_draw_agrees_with_the_array_draw(lower, upper):
    # The same uniform, made from the raw word the generator gives next,
    # gives the same value to rounding: at the first raw word of 200
    # seeds, and at the words of the two smallest and two largest
    # uniforms, where the CDF ratio is smallest at one end of the interval
    # and closest to 1 at the other.  sigma is a numpy scalar, which must
    # not turn the draw's float arithmetic into numpy's (inf - inf warns).
    sigma = np.float64(2.5)
    lo, hi = sigma * lower, sigma * upper
    tol = 1e-12 * max([1.0] + [abs(v) for v in (lo, hi) if math.isfinite(v)])
    words = [np.random.default_rng(seed).bit_generator.random_raw() for seed in range(200)]
    for word in words + [0, 1 << 12, 2**64 - 1, 2**64 - 1 - (1 << 12)]:
        u = ((word >> 12) + 0.5) * 2.0**-52
        want = truncated_normal(sigma, np.array([lo]), np.array([hi]), np.array([u]))[0]
        rng = SimpleNamespace(bit_generator=SimpleNamespace(random_raw=lambda: word))
        assert abs(draw_ar_residual(sigma, Interval(lo, hi), rng) - want) <= tol, u


# The inverse CDF of N(0, 2.5^2) truncated to 2.5 * [lower, upper] at
# the two smallest and the two largest uniforms, (k + 0.5) * 2**-52 for
# k = 0, 1, 2**52 - 2, 2**52 - 1: 40 digits from an 80-digit mpmath
# bisection on the CDF ratio, formed from the upper tail Q = 1 - Phi when
# lower + upper > 0 and from Phi otherwise, so neither end cancels.
REFERENCE_DRAWS = {
    (-3.0, INF): ("-7.499999999999937457002491164408190114780", "-7.499999999999812371007473507306425878944",
                  "20.19183949672201372738850230133073041548", "20.52424587892004501143687586789664811400"),
    (40.0, 41.0): ("100.0000000000000000069345652014331439413", "100.0000000000000000208036956042994341321",
                   "102.2013283121247724968001029928167772638", "102.2675421593702370004780234275228230715"),
    (-41.0, -40.0): ("-102.2675421593702370004780234275228230715", "-102.2013283121247724968001029928167772638",
                     "-100.0000000000000000208036956042994341321", "-100.0000000000000000069345652014331439413"),
    (-6.0, 5.0): ("-14.99999995431846400499120705547809023706", "-14.99999986295540703995047691591853300477",
                  "12.49999999943992997990313804727022743360", "12.49999999981330999323133969854694396606"),
}


@pytest.mark.parametrize("lower, upper", list(REFERENCE_DRAWS))
def test_draws_meet_the_stored_references(lower, upper):
    # Both forms, to 1e-14 of the interval's largest finite bound (or of 1).
    # scipy's truncnorm.ppf misses the [-3, inf) case near u = 1 by up to
    # 7.7e-4 (its log Phi(x) is a sum whose rounding swamps the upper
    # tail 1 - Phi(x)).
    sigma = 2.5
    lo, hi = sigma * lower, sigma * upper
    tol = 1e-14 * max([1.0] + [abs(v) for v in (lo, hi) if math.isfinite(v)])
    words = [0, 1 << 12, 2**64 - 1 - (1 << 12), 2**64 - 1]
    for word, reference in zip(words, REFERENCE_DRAWS[lower, upper]):
        u = ((word >> 12) + 0.5) * 2.0**-52
        rng = SimpleNamespace(bit_generator=SimpleNamespace(random_raw=lambda: word))
        array = truncated_normal(sigma, np.array([lo]), np.array([hi]), np.array([u]))[0]
        assert abs(array - float(reference)) <= tol, u
        assert abs(draw_ar_residual(sigma, Interval(lo, hi), rng) - float(reference)) <= tol, u


def test_drawing_a_subset_gives_the_same_values():
    # A cell's uniform and draw depend on its key and interval alone.
    rng = np.random.default_rng(4)
    n = 2_000
    records = rng.choice(10**9, n, replace=False)
    lower = rng.normal(0.0, 2.0, n) - rng.exponential(1.0, n)
    upper = lower + rng.exponential(2.0, n)
    lower[::7], upper[::11] = -INF, INF
    u = cell_uniforms(3, 4, records)
    x = truncated_normal(1.5, lower, upper, u)
    subset = np.sort(rng.choice(n, 300, replace=False))
    u_sub = cell_uniforms(3, 4, records[subset])
    assert u_sub.tobytes() == u[subset].tobytes()
    assert truncated_normal(1.5, lower[subset], upper[subset], u_sub).tobytes() == x[subset].tobytes()
    for k in subset[:40]:
        assert x[k] == scalar_truncated_normal(1.5, lower[k], upper[k], u[k])


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
    # residuals in the residual bounds [lower - x, upper - x], bit for bit,
    # aimed as impute aims it: at the weighted sum nearest 0 that the
    # bounds reach.  Where the adjustment refuses 0, so does the
    # re-centering, with the same message.
    x, lower, upper, weights = problem
    w = np.ones(x.size) if weights is None else weights
    adjust_problem = AdjustmentProblem(x, lower, upper, weights)
    try:
        want = zero_sum_interval_adjust(adjust_problem)
    except InfeasibleAdjustmentError as err:
        with pytest.raises(InfeasibleAdjustmentError) as got:
            benchmarked_residuals(0.0, lower - x, upper - x, weights, None)
        assert str(got.value) == str(err)
        return
    target = float(np.clip(0.0, *reach(w, lower - x, upper - x)))
    out, stats = benchmarked_residuals(0.0, lower - x, upper - x, weights, None, target_sum=target)
    assert out.tobytes() == want.tobytes()
    assert stats == {"attempts": 0, "fallbacks": 0, **adjustment_stats(adjust_problem, want)}
