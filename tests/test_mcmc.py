import numpy as np
import pytest

from calimp.edits import parse_edit_rules, violation_matrix
from calimp.errors import CalimpError
from calimp.fm import Interval, admissible_interval
from calimp.mcmc import (
    McmcConfig,
    PosteriorModel,
    draw_truncated_posterior,
    mcmc_refine,
    pair_constraint_system,
    posterior_model,
    select_pair,
)
from calimp.pipeline import DataMatrix, ImputationConfig, impute

FIVE_VAR_RULES = "x1 + x2 + x3 + x4 = x5\n" + "\n".join(f"x{j} >= 0" for j in range(1, 6))


def pair_example_data():
    values = np.array(
        [
            [10.0, 15.0, 20.0, 30.0, 75.0],
            [15.0, 30.0, 25.0, 35.0, 105.0],
            [9975.0, 11955.0, 7955.0, 31935.0, 61820.0],
        ]
    )
    mask = np.array(
        [
            [False, False, True, True, True],
            [True, False, False, True, True],
            [False, False, False, False, False],
        ]
    )
    totals = {"x1": 10000.0, "x2": 12000.0, "x3": 8000.0, "x4": 32000.0, "x5": 62000.0}
    data = DataMatrix(values, mask, ("x1", "x2", "x3", "x4", "x5"))
    return data, parse_edit_rules(FIVE_VAR_RULES), totals


def three_var_study_data(rng, r=400):
    rules = "x1 + x2 = P\nx1 >= x2\nP >= 3*x2\nx1 >= 0\nx2 >= 0\nP >= 0\n"
    edits = parse_edit_rules(rules)
    x2 = rng.uniform(0.0, 40.0, size=r)
    slack = rng.uniform(0.0, 60.0, size=r)
    x1 = 2 * x2 + slack
    truth = np.column_stack([x1, x2, x1 + x2])
    mask = np.zeros_like(truth, dtype=bool)
    rows = rng.choice(r, size=int(0.2 * r), replace=False)
    mask[rows, 0] = True
    mask[rows[: len(rows) // 2], 1] = True
    extra = rng.choice(np.setdiff1d(np.arange(r), rows), size=int(0.1 * (r - len(rows))), replace=False)
    mask[extra, 1] = True
    totals = {"x1": float(truth[:, 0].sum()), "x2": float(truth[:, 1].sum())}
    values = truth.copy()
    values[mask] = np.nan
    masked = DataMatrix(values, mask, ("x1", "x2", "P"))
    pre, _ = impute(
        masked, edits, totals,
        ImputationConfig("bpma", predictors={"x1": ["P"], "x2": ["P", "x1"]},
                         variable_order=["x1", "x2"]),
    )
    return pre, edits, totals


class TestSelectPair:
    def test_unique_candidate(self):
        values = np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])
        mask = np.array([[False, True], [False, True], [False, False]])
        data = DataMatrix(values, mask, ("a", "b"))
        s, t, var = select_pair(data, np.random.default_rng(0))
        assert {s, t} == {0, 1}
        assert var == "b"

    def test_no_candidates_rejected(self):
        values = np.array([[1.0, 2.0], [3.0, 4.0]])
        mask = np.array([[True, False], [False, True]])
        data = DataMatrix(values, mask, ("a", "b"))
        with pytest.raises(CalimpError, match="share"):
            select_pair(data, np.random.default_rng(0))

    def test_uniform_over_combinations(self):
        # Three records all missing b, two also missing a: combos are
        # 3 pairs for b plus 1 pair for a.
        values = np.arange(8.0).reshape(4, 2)
        mask = np.array([[True, True], [True, True], [False, True], [False, False]])
        data = DataMatrix(values, mask, ("a", "b"))
        rng = np.random.default_rng(1)
        counts = {}
        for _ in range(8000):
            s, t, var = select_pair(data, rng)
            counts[(frozenset((s, t)), var)] = counts.get((frozenset((s, t)), var), 0) + 1
        assert len(counts) == 4
        freqs = np.array(sorted(counts.values())) / 8000
        assert np.all(np.abs(freqs - 0.25) < 0.03)

    def test_example_pair_is_eligible(self):
        data, _, _ = pair_example_data()
        rng = np.random.default_rng(2)
        seen = set()
        for _ in range(200):
            s, t, var = select_pair(data, rng)
            seen.add((frozenset((s, t)), var))
        assert (frozenset((0, 1)), "x5") in seen


class TestPairConstraintSystem:
    def test_reproduces_worked_example(self):
        data, edits, totals = pair_example_data()
        system, cells = pair_constraint_system(data, edits, totals, 0, 1)
        as_tuples = {(tuple(sorted(e.coeffs.items())), e.constant, e.kind.value) for e in system.edits}
        assert ((("t.x1", 1.0),), -15.0, "equality") in as_tuples
        assert ((("s.x3", 1.0),), -20.0, "equality") in as_tuples
        assert ((("s.x4", 1.0), ("t.x4", 1.0)), -65.0, "equality") in as_tuples
        assert ((("s.x5", 1.0), ("t.x5", 1.0)), -180.0, "equality") in as_tuples
        interval, record = admissible_interval(system, "s.x5")
        assert (interval.lower, interval.upper) == (45.0, 110.0)
        assert cells["s.x5"] == (0, 4)

    def test_pair_of_two_records_only(self):
        data, edits, totals = pair_example_data()
        two = DataMatrix(
            data.values[:2].copy(), data.mask[:2].copy(), data.columns
        )
        small_totals = {name: float(two.values[:, j].sum()) for j, name in enumerate(two.columns)}
        system, _ = pair_constraint_system(two, edits, small_totals, 0, 1)
        pair_sums = [e for e in system.edits if len(e.coeffs) == 2 and set(e.coeffs) == {"s.x4", "t.x4"}]
        assert pair_sums and pair_sums[0].constant == -65.0

    def test_variable_imputed_in_one_record_is_pinned(self):
        data, edits, totals = pair_example_data()
        system, _ = pair_constraint_system(data, edits, totals, 0, 1)
        pins = [e for e in system.edits if list(e.coeffs) == ["t.x1"]and e.kind.value == "equality"]
        assert pins and pins[0].constant == -15.0


class TestDrawTruncatedPosterior:
    def test_point_interval_needs_no_draw(self):
        model = PosteriorModel(np.zeros(1), 1.0, 5.0, 1.0)
        assert draw_truncated_posterior(model, Interval(3.0, 3.0), np.random.default_rng(0)) == 3.0

    def test_draws_stay_inside(self):
        model = PosteriorModel(np.zeros(1), 4.0, 70.0, 4.0)
        rng = np.random.default_rng(1)
        for _ in range(200):
            v = draw_truncated_posterior(model, Interval(45.0, 110.0), rng)
            assert 45.0 <= v <= 110.0

    def test_degenerate_variance_returns_mean(self):
        model = PosteriorModel(np.zeros(1), 0.0, 50.0, 0.0)
        assert draw_truncated_posterior(model, Interval(45.0, 110.0), np.random.default_rng(0)) == 50.0

    def test_posterior_model_recovers_exact_relation(self):
        rng = np.random.default_rng(3)
        x = rng.uniform(0, 10, size=40)
        y = 2.0 * x + 1.0
        data = DataMatrix(
            np.column_stack([y, x]),
            np.zeros((40, 2), dtype=bool),
            ("y", "x"),
        )
        model = posterior_model(data, "y", ["x"], 0, rng)
        assert model.variance == pytest.approx(0.0, abs=1e-16)
        assert model.predictive_mean == pytest.approx(y[0], abs=1e-8)


class TestMcmcRefine:
    def test_zero_iterations_is_noop(self):
        data, edits, totals = pair_example_data()
        out, trace = mcmc_refine(data, edits, totals, McmcConfig(iterations=0))
        assert np.array_equal(out.values, data.values)
        assert trace == []

    def test_worked_example_step_values(self):
        data, edits, totals = pair_example_data()
        system, cells = pair_constraint_system(data, edits, totals, 0, 1)
        _, record = admissible_interval(system, "s.x5")
        from calimp.fm import back_substitute

        completion = back_substitute(record, {"s.x5": 100.0})
        assert completion["s.x4"] == 55.0
        assert completion["t.x4"] == 10.0
        assert completion["t.x5"] == 80.0

    def test_consistency_invariant_along_chain(self):
        rng = np.random.default_rng(4)
        pre, edits, totals = three_var_study_data(rng, r=300)
        refined, trace = mcmc_refine(
            pre, edits, totals,
            McmcConfig(iterations=2000, checkpoint_every=200, seed=9,
                       predictors={"x1": ["P"], "x2": ["P", "x1"]}),
        )
        assert not violation_matrix(edits, refined.values, refined.columns).any()
        for j, name in enumerate(refined.columns):
            if name in totals:
                got = float(refined.values[:, j].sum())
                assert got == pytest.approx(totals[name], rel=1e-8)
        assert len(trace) == 10
        assert trace[-1]["accepted"] > 0
        # observed cells untouched
        assert np.array_equal(refined.values[~pre.mask], pre.values[~pre.mask])

    def test_chain_actually_moves_imputed_cells(self):
        rng = np.random.default_rng(5)
        pre, edits, totals = three_var_study_data(rng, r=300)
        refined, _ = mcmc_refine(
            pre, edits, totals,
            McmcConfig(iterations=1500, seed=3, predictors={"x1": ["P"], "x2": ["P", "x1"]}),
        )
        moved = np.sum(~np.isclose(refined.values[pre.mask], pre.values[pre.mask]))
        assert moved > 0

    def test_seeded_determinism(self):
        rng = np.random.default_rng(6)
        pre, edits, totals = three_var_study_data(rng, r=200)
        cfg = McmcConfig(iterations=400, seed=42, predictors={"x1": ["P"], "x2": ["P", "x1"]})
        a, trace_a = mcmc_refine(pre, edits, totals, cfg)
        b, trace_b = mcmc_refine(pre, edits, totals, cfg)
        assert a.values.tobytes() == b.values.tobytes()
        assert trace_a == trace_b

    def test_incomplete_input_rejected(self):
        values = np.array([[1.0, np.nan], [2.0, 3.0], [1.0, 2.0]])
        data = DataMatrix(values, np.isnan(values), ("a", "b"))
        edits = parse_edit_rules("a >= 0\nb >= 0")
        with pytest.raises(ValueError, match="fully imputed"):
            mcmc_refine(data, edits, {"a": 4.0}, McmcConfig(iterations=1))

    def test_checkpoint_count_independent_of_acceptance(self):
        # Fully pinned pair systems retain the current values; the trace
        # cadence must not depend on whether steps moved anything.
        values = np.array([[4.0, 6.0], [3.0, 7.0], [5.0, 5.0], [2.0, 8.0]])
        mask = np.array([[True, False], [True, False], [True, False], [True, False]])
        data = DataMatrix(values, mask, ("a", "b"))
        edits = parse_edit_rules("a + b = 10\na >= 0\nb >= 0")
        out, trace = mcmc_refine(
            data, edits, {"a": 14.0}, McmcConfig(iterations=40, checkpoint_every=10, seed=0)
        )
        assert [row["iteration"] for row in trace] == [10, 20, 30, 40]
        assert np.array_equal(out.values, values)  # every cell is pinned

    def test_point_interval_pinned_by_large_constants(self):
        # x2 ~ 0.3 is pinned by x1 and P ~ 3.4e3; the stored x2 meets the
        # balance edit to the validator's tolerance (1e-9 of the record's
        # largest value) but misses the point interval by 5e-8 absolute.
        edits = parse_edit_rules("x1 + x2 = P\nx1 >= x2\nP >= 3*x2\nx1 >= 0\nx2 >= 0\nP >= 0\n")
        x1 = np.array([3400.0, 3391.5, 2000.0, 2500.0])
        x2 = np.array([0.24, 0.31, 300.0, 400.0])
        values = np.column_stack([x1, x2, x1 + x2])
        values[:2, 1] += 5e-8
        mask = np.zeros_like(values, dtype=bool)
        mask[:2, 1] = True
        data = DataMatrix(values, mask, ("x1", "x2", "P"))
        out, trace = mcmc_refine(data, edits, None, McmcConfig(iterations=20, seed=0))
        assert trace[-1]["accepted"] == 20
        assert not violation_matrix(edits, out.values, out.columns, tol=1e-12).any()
