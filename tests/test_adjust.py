import math
import time

import numpy as np
import pytest

from calimp.adjust import AdjustmentProblem, zero_sum_interval_adjust
from calimp.errors import InfeasibleAdjustmentError

from _oracles import qp_reference_solve

INF = math.inf


def random_feasible_problem(rng, max_m=10):
    """Boxes first, then a point inside them, then zero-sum noise around it:
    the point witnesses feasibility by construction.  About a fifth of the
    boxes are points, and in half the problems the bounds sit on the integer
    grid, so breakpoints repeat across cells."""
    m = int(rng.integers(1, max_m + 1))
    center = rng.uniform(-10, 10, size=m)
    lo = np.where(rng.random(m) < 0.3, -INF, center - rng.uniform(0.0, 5.0, size=m))
    hi = np.where(rng.random(m) < 0.3, INF, center + rng.uniform(0.0, 5.0, size=m))
    point = rng.random(m) < 0.2
    if rng.integers(2):
        lo, hi, center = np.floor(lo), np.ceil(hi), np.round(center)
    lo = np.where(point, center, lo)
    hi = np.where(point, center, hi)
    z = np.clip(center, lo, hi)
    w = rng.uniform(0.25, 4.0, size=m) if rng.integers(2) else np.ones(m)
    noise = rng.normal(scale=3.0, size=m)
    noise -= np.sum(w * noise) / np.sum(w)
    x = z + noise
    return AdjustmentProblem(predictions=x, lower=lo, upper=hi, weights=w)


class TestExamples:
    def test_already_feasible_returns_zero(self):
        problem = AdjustmentProblem([1.0, 2.0], [-INF, 0.0], [INF, 5.0])
        assert np.allclose(zero_sum_interval_adjust(problem), 0.0)

    def test_one_active_lower_bound_spreads_evenly(self):
        problem = AdjustmentProblem([5.0, 5.0, 5.0], [6.0, -INF, -INF], [INF, INF, INF])
        a = zero_sum_interval_adjust(problem)
        assert np.allclose(a, [1.0, -0.5, -0.5], atol=1e-8)
        assert np.allclose(qp_reference_solve(problem), [1.0, -0.5, -0.5], atol=1e-9)

    def test_two_forced_bounds(self):
        problem = AdjustmentProblem([0.0, 0.0], [1.0, -INF], [INF, -1.0])
        a = zero_sum_interval_adjust(problem)
        assert np.allclose(a, [1.0, -1.0], atol=1e-9)
        assert np.allclose(qp_reference_solve(problem), [1.0, -1.0], atol=1e-9)

    def test_single_cell_forced_to_zero(self):
        problem = AdjustmentProblem([5.0], [-INF], [INF])
        assert np.allclose(qp_reference_solve(problem), [0.0])
        assert np.allclose(zero_sum_interval_adjust(problem), [0.0])

    def test_infeasible_detected_before_iterating(self):
        problem = AdjustmentProblem([0.0, 0.0], [2.0, 3.0], [INF, INF])
        with pytest.raises(InfeasibleAdjustmentError):
            zero_sum_interval_adjust(problem)
        with pytest.raises(InfeasibleAdjustmentError):
            qp_reference_solve(problem)


class TestInvariants:
    def test_zero_sum_and_bounds_randomized(self):
        rng = np.random.default_rng(42)
        for _ in range(200):
            problem = random_feasible_problem(rng)
            a = zero_sum_interval_adjust(problem)
            w = problem.weights
            scale = max(1.0, float(np.sum(np.abs(w * problem.predictions))))
            assert abs(float(np.sum(w * a))) <= 1e-9 * scale
            adjusted = problem.predictions + a
            assert np.all(adjusted >= problem.lower - 1e-9)
            assert np.all(adjusted <= problem.upper + 1e-9)

    def test_oracle_equivalence_randomized(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            problem = random_feasible_problem(rng, max_m=6)
            a = zero_sum_interval_adjust(problem)
            ref = qp_reference_solve(problem)
            assert np.linalg.norm(a - ref) <= 1e-6

    def test_idempotence(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            problem = random_feasible_problem(rng)
            a = zero_sum_interval_adjust(problem)
            again = AdjustmentProblem(
                problem.predictions + a, problem.lower, problem.upper, problem.weights
            )
            assert np.allclose(zero_sum_interval_adjust(again), 0.0, atol=1e-8)

    def test_objective_not_worse_than_oracle(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            problem = random_feasible_problem(rng, max_m=8)
            a = zero_sum_interval_adjust(problem)
            ref = qp_reference_solve(problem)
            ours = float(np.sum(problem.weights * a * a))
            best = float(np.sum(problem.weights * ref * ref))
            assert ours <= best + 1e-6

    def test_weighted_target_sum_variant(self):
        rng = np.random.default_rng(19)
        for _ in range(50):
            problem = random_feasible_problem(rng, max_m=6)
            w = problem.weights
            target = float(np.sum(w * problem.predictions))  # reachable by a = 0
            shift = float(rng.uniform(-0.5, 0.5)) * 0.0
            a = zero_sum_interval_adjust(problem, target_sum=target + shift)
            ref = qp_reference_solve(problem, target_sum=target + shift)
            assert np.linalg.norm(a - ref) <= 1e-6

    def test_unconstrained_target_sum_is_uniform_shift(self):
        problem = AdjustmentProblem([1.0, 2.0, 3.0], [-INF] * 3, [INF] * 3)
        a = zero_sum_interval_adjust(problem, target_sum=9.0)
        assert np.allclose(a, 1.0, atol=1e-9)

    def test_degenerate_boxes(self):
        problem = AdjustmentProblem([1.0, 5.0], [2.0, -INF], [2.0, INF])
        a = zero_sum_interval_adjust(problem)
        assert np.allclose(a, [1.0, -1.0], atol=1e-9)


class TestPinnedCells:
    """Mostly point intervals, as a balance edit produces: the answer is
    fixed by the few free cells, whatever the share of pinned ones."""

    @staticmethod
    def assert_solves(problem):
        a = zero_sum_interval_adjust(problem)
        w = problem.weights
        scale = max(1.0, float(np.sum(np.abs(w * problem.predictions))))
        assert abs(float(np.sum(w * a))) <= 1e-9 * scale
        adjusted = problem.predictions + a
        assert np.all(adjusted >= problem.lower) and np.all(adjusted <= problem.upper)
        return a

    def test_thousand_cells_998_points(self):
        rng = np.random.default_rng(8)
        x = rng.uniform(0.0, 100.0, size=1000)
        lo = np.full(1000, -INF)
        hi = np.full(1000, INF)
        lo[:998] = hi[:998] = x[:998] + rng.uniform(0.0, 1.0, size=998)
        a = self.assert_solves(AdjustmentProblem(x, lo, hi))
        gap = float(np.sum(lo[:998] - x[:998]))
        assert np.allclose(a[998:], -gap / 2, rtol=1e-12)

    def test_hundred_thousand_cells_ten_free(self):
        rng = np.random.default_rng(9)
        m = 100_000
        x = rng.normal(size=m)
        lo = x + rng.uniform(-5.0, 5.0, size=m)
        hi = lo.copy()
        lo[:10], hi[:10] = -INF, INF
        start = time.perf_counter()
        a = self.assert_solves(AdjustmentProblem(x, lo, hi))
        assert time.perf_counter() - start < 1.0
        assert np.ptp(a[:10]) == 0.0
