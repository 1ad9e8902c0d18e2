import json
import math
import re

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from calimp import adjust, pipeline, regression, residuals, sim
from calimp.cli import main
from calimp.edits import EditKind, parse_edit_rules, check_record, violation_matrix
from calimp.errors import (
    CalimpError,
    InfeasibleAdjustmentError,
    InfeasibleRecordError,
    InfeasibleSystemError,
    InsufficientDataError,
)
from calimp.fm import Interval
from calimp.mcmc import McmcConfig
from calimp.pipeline import DataMatrix, ImputationConfig, _missing_patterns, check_inputs, impute, variable_order
from calimp.regression import fit_ols

import _oracles
from _oracles import per_cell_benchmarked_residuals, random_imputation_instance, scalar_cell_uniform
from test_pair_systems import SURVEY_COLUMNS, build, survey_truth

THREE_VAR_RULES = """\
x1 + x2 = x3
x1 >= x2
x3 >= 3*x2
x1 >= 0
x2 >= 0
x3 >= 0
"""

INCOME_RULES = """\
net + tax = gross
net >= tax
gross >= 3*tax
gross >= 0
net >= 0
tax >= 0
"""


def make_data(values, mask, columns, weights=None):
    values = np.array(values, dtype=float)
    mask = np.array(mask, dtype=bool)
    values[mask] = np.nan
    return DataMatrix(values=values, mask=mask, columns=columns, weights=weights)


def pinned_balance_data(rng):
    """``x1 + x2 = x3`` pins x1 in all but one of its missing cells.

    x1 is missing alone in 1,000 records, x2 alone in 1,001 and both in one
    record, so x1 is imputed first and its bpma adjustment has a single
    free cell among 1,001.  Returns the data, the edits text and the totals.
    """
    pinned = 1000
    n = 2 * pinned + 40
    x1 = rng.uniform(10.0, 50.0, size=n)
    x2 = rng.uniform(10.0, 50.0, size=n)
    truth = np.column_stack([x1, x2, x1 + x2])
    mask = np.zeros_like(truth, dtype=bool)
    mask[: pinned + 1, 0] = True
    mask[pinned:2 * pinned + 2, 1] = True
    values = truth.copy()
    values[mask] = np.nan
    totals = {"x1": float(x1.sum()), "x2": float(x2.sum())}
    return DataMatrix(values, mask, ("x1", "x2", "x3")), "x1 + x2 = x3\nx1 >= 0\nx2 >= 0\n", totals


def consistent_three_var_sample(rng, r=120):
    x2 = rng.uniform(0.0, 40.0, size=r)
    slack = rng.uniform(0.0, 60.0, size=r)
    x1 = 2 * x2 + slack
    x3 = x1 + x2
    return np.column_stack([x1, x2, x3])


class TestVariableOrder:
    def test_auto_ascending_missing_count(self):
        mask = np.zeros((10, 2), dtype=bool)
        mask[:9, 0] = True  # q1 has 9 missing
        mask[:5, 1] = True  # q2 has 5 missing
        data = make_data(np.ones((10, 2)), mask, ("q1", "q2"))
        assert variable_order(data, ImputationConfig("upma")) == ["q2", "q1"]

    def test_no_missing_is_empty(self):
        data = make_data(np.ones((4, 2)), np.zeros((4, 2), dtype=bool), ("a", "b"))
        assert variable_order(data, ImputationConfig("upma")) == []

    def test_explicit_passthrough(self):
        mask = np.zeros((6, 2), dtype=bool)
        mask[0, 0] = mask[1, 1] = True
        data = make_data(np.ones((6, 2)), mask, ("a", "b"))
        config = ImputationConfig("upma", variable_order=["b", "a"])
        assert variable_order(data, config) == ["b", "a"]

    def test_explicit_omission_rejected(self):
        mask = np.zeros((6, 2), dtype=bool)
        mask[0, 0] = mask[1, 1] = True
        data = make_data(np.ones((6, 2)), mask, ("a", "b"))
        with pytest.raises(ValueError, match="omits"):
            variable_order(data, ImputationConfig("upma", variable_order=["b"]))

    def test_explicit_repetition_rejected(self):
        # A repeated name would impute that column twice in one round.
        mask = np.zeros((6, 2), dtype=bool)
        mask[0, 0] = mask[1, 1] = True
        data = make_data(np.ones((6, 2)), mask, ("a", "b"))
        with pytest.raises(ValueError, match=r"variable order repeats column\(s\) \['a'\]"):
            variable_order(data, ImputationConfig("upma", variable_order=["a", "a", "b"], rounds=1))


class TestImputeBasics:
    def test_no_missing_roundtrips_unchanged(self):
        edits = parse_edit_rules(THREE_VAR_RULES)
        rng = np.random.default_rng(0)
        values = consistent_three_var_sample(rng, 30)
        data = DataMatrix(values, np.zeros_like(values, dtype=bool), ("x1", "x2", "x3"))
        out, diagnostics = impute(data, edits, None, ImputationConfig("upma"))
        assert np.array_equal(out.values, values)
        assert diagnostics == []

    def test_example_record_upma_lands_in_interval(self):
        edits = parse_edit_rules(THREE_VAR_RULES)
        rng = np.random.default_rng(1)
        values = consistent_three_var_sample(rng, 60)
        mask = np.zeros_like(values, dtype=bool)
        values_obs = values.copy()
        # One record observes only x1 = 10.
        values_obs[0] = [10.0, np.nan, np.nan]
        mask[0, 1] = mask[0, 2] = True
        data = DataMatrix(values_obs, mask, ("x1", "x2", "x3"))
        out, _ = impute(data, edits, None, ImputationConfig("upma"))
        x2, x3 = out.values[0, 1], out.values[0, 2]
        assert 10.0 - 1e-9 <= x3 <= 15.0 + 1e-9
        assert x2 == pytest.approx(x3 - 10.0, abs=1e-9)
        assert check_record(edits, dict(zip(("x1", "x2", "x3"), out.values[0]))) == []

    def test_pinned_cell_recovers_truth_exactly(self):
        edits = parse_edit_rules(THREE_VAR_RULES)
        rng = np.random.default_rng(2)
        truth = consistent_three_var_sample(rng, 50)
        mask = np.zeros_like(truth, dtype=bool)
        mask[3, 1] = True  # x2 missing, x1 and x3 observed: fully determined
        values = truth.copy()
        values[mask] = np.nan
        data = DataMatrix(values, mask, ("x1", "x2", "x3"))
        out, _ = impute(data, edits, None, ImputationConfig("upma"))
        assert out.values[3, 1] == pytest.approx(truth[3, 1], abs=1e-9)

    def test_observed_cells_never_change(self):
        edits = parse_edit_rules(THREE_VAR_RULES)
        rng = np.random.default_rng(3)
        truth = consistent_three_var_sample(rng, 80)
        mask = np.zeros_like(truth, dtype=bool)
        mask[rng.random(80) < 0.3, 1] = True
        values = truth.copy()
        values[mask] = np.nan
        data = DataMatrix(values, mask, ("x1", "x2", "x3"))
        out, _ = impute(data, edits, None, ImputationConfig("upma"))
        assert np.array_equal(out.values[~mask], truth[~mask])

    def test_benchmarked_needs_totals(self):
        data = make_data(np.ones((4, 1)), [[True], [False], [False], [False]], ("x",))
        edits = parse_edit_rules("x >= 0")
        with pytest.raises(ValueError, match="totals"):
            impute(data, edits, None, ImputationConfig("bpma"))
        with pytest.raises(ValueError, match="totals missing"):
            impute(data, edits, {"y": 1.0}, ImputationConfig("bpma"))

    def test_inconsistent_observed_data_rejected(self):
        edits = parse_edit_rules(THREE_VAR_RULES)
        values = np.array([[1.0, 5.0, 6.0]])
        data = DataMatrix(values, np.zeros_like(values, dtype=bool), ("x1", "x2", "x3"))
        with pytest.raises(InfeasibleRecordError):
            impute(data, edits, None, ImputationConfig("upma"))

    def test_first_violation_in_row_order_is_the_witness(self, tmp_path):
        # Record 1 breaks edits 1 and 2, record 2 breaks edit 0; record 0
        # lacks x1, so only x3 >= 3*x2 is checked there, and it holds.
        edits = parse_edit_rules(THREE_VAR_RULES)
        values = [[0.0, 5.0, 15.0], [4.0, 5.0, 9.0], [1.0, 5.0, 7.0]]
        data = make_data(values, [[True, False, False], [False] * 3, [False] * 3], ("x1", "x2", "x3"))
        with pytest.raises(InfeasibleRecordError, match=r"record 1 violates edit 1 .*\(residual -1\)") as info:
            impute(data, edits, None, ImputationConfig("upma"))
        assert (info.value.record, info.value.edit_index, info.value.witness) == (1, 1, edits.edits[1])

        (tmp_path / "rules.edits").write_text(THREE_VAR_RULES)
        (tmp_path / "data.csv").write_text("x1,x2,x3\nNA,5,15\n4,5,9\n1,5,7\n")
        code = main([
            "impute", "--data", str(tmp_path / "data.csv"), "--edits", str(tmp_path / "rules.edits"),
            "--method", "upma", "--out", str(tmp_path / "out.csv"),
        ])
        assert code == 3

    def test_observed_record_is_checked_on_the_row_scale(self):
        # a >= b misses by 1e-7, beyond 1e-9 of the edit's own magnitudes
        # but within 1e-9 of the record's largest value, 1e6.
        edits = parse_edit_rules("a >= b\nc >= 0\n")
        rng = np.random.default_rng(5)
        b = rng.uniform(1.0, 10.0, size=8)
        values = np.column_stack([b + rng.uniform(0.0, 5.0, size=8), b, rng.uniform(1.0, 50.0, size=8)])
        values[0] = [1.0, 1.0 + 1e-7, 1e6]
        mask = np.zeros_like(values, dtype=bool)
        mask[[3, 5], 0] = True
        out, _ = impute(make_data(values, mask, ("a", "b", "c")), edits, None, ImputationConfig("upma"))
        assert np.array_equal(out.values[~mask], values[~mask])
        assert not violation_matrix(edits, out.values, out.columns).any()


class TestValidate:
    """``validate`` checks a completion against the input it completes:
    every observed cell, then the edits of the records with a masked cell,
    then the totals."""

    def test_broken_imputed_record_is_named_by_its_full_data_index(self):
        edits = parse_edit_rules(THREE_VAR_RULES)
        truth = consistent_three_var_sample(np.random.default_rng(2), 12)
        mask = np.zeros_like(truth, dtype=bool)
        mask[[3, 7, 9], 1] = True
        data = make_data(truth, mask, ("x1", "x2", "x3"))
        done = truth.copy()
        done[7, 1] += 1.0  # x1 + x2 = x3 (edit 0) fails in the second masked record
        with pytest.raises(CalimpError, match=r"^record 7 violates edit 0$"):
            pipeline.validate(done, data, edits, None)
        pipeline.validate(truth, data, edits, None)

    def test_edits_are_checked_on_the_masked_records_only(self, monkeypatch):
        edits = parse_edit_rules(THREE_VAR_RULES)
        truth = consistent_three_var_sample(np.random.default_rng(4), 40)
        mask = np.zeros_like(truth, dtype=bool)
        mask[[1, 5, 6, 30], [0, 1, 0, 2]] = True
        data = make_data(truth, mask, ("x1", "x2", "x3"))
        seen = []
        real = pipeline.violation_matrix

        def spy(system, values, columns, *args):
            seen.append(np.array(values))
            return real(system, values, columns, *args)

        monkeypatch.setattr(pipeline, "violation_matrix", spy)
        out, _ = impute(data, edits, None, ImputationConfig("upma"))
        # check_inputs reads every record, validate the masked ones.
        assert [len(v) for v in seen] == [40, 4]
        assert seen[1].tobytes() == out.values[[1, 5, 6, 30]].tobytes()

    def test_observed_cell_changed_inside_impute_is_caught(self, monkeypatch):
        data, rules, totals = pinned_balance_data(np.random.default_rng(8))
        edits = parse_edit_rules(rules)
        real = pipeline._PatternCompiler.intervals
        observed = int(np.flatnonzero(~data.mask.any(axis=1))[0])

        def nudging(self, current, rows, target):
            current[observed, 2] = np.nextafter(current[observed, 2], np.inf)
            return real(self, current, rows, target)

        monkeypatch.setattr(pipeline._PatternCompiler, "intervals", nudging)
        with pytest.raises(CalimpError, match="^internal error: an observed cell was modified$") as info:
            impute(data, edits, totals, ImputationConfig("bpma"))
        assert info.traceback[-1].name == "validate"

    def test_observed_cell_changed_in_the_chain_is_caught_at_its_checkpoint(self, monkeypatch):
        from calimp import mcmc
        from test_mcmc import three_var_study_data

        pre, edits, totals = three_var_study_data(np.random.default_rng(6), r=120)
        before = pre.values.copy()
        observed = np.argwhere(~pre.mask)[0]
        real = mcmc.update_pairs

        def nudging(systems, values, *args):
            values[tuple(observed)] = np.nextafter(values[tuple(observed)], np.inf)
            return real(systems, values, *args)

        monkeypatch.setattr(mcmc, "update_pairs", nudging)
        with pytest.raises(CalimpError, match="^internal error: an observed cell was modified$") as info:
            mcmc.mcmc_refine(pre, edits, totals, McmcConfig(iterations=200, checkpoint_every=50, seed=1))
        assert info.traceback[-1].name == "validate"
        # The chain writes a copy: the input it is checked against is as given.
        assert pre.values.tobytes() == before.tobytes()


def zero_remainder_case(seed):
    """5,000 records of a mixed-sign ``y = 3x + noise``, x ~ N(0, 1e4),
    with ``y`` blank where a uniform falls below 0.6 and its total the sum
    of the observed ``y``: the blank cells must sum to 0, while each is of
    the order of 3e4.  One edit, ``y + 1e9 >= 0``, that no cell comes near.
    Returns the data, the edits and the totals."""
    rng = np.random.default_rng(seed)
    n = 5_000
    x = rng.normal(0.0, 1e4, n)
    y = 3 * x + rng.normal(0.0, 10.0, n)
    mask = np.zeros((n, 2), dtype=bool)
    mask[:, 0] = rng.random(n) < 0.6
    totals = {"y": float(y[~mask[:, 0]].sum())}
    values = np.column_stack([np.where(mask[:, 0], np.nan, y), x])
    return DataMatrix(values, mask, ("y", "x")), parse_edit_rules("y + 1e9 >= 0"), totals


def study_like_masked(rng, r=120):
    """Three-variable data with x1 and x2 missing in some records, and the
    true totals of both."""
    truth = consistent_three_var_sample(rng, r)
    mask = np.zeros_like(truth, dtype=bool)
    mask[: r // 5, 0] = True
    mask[r // 10: r // 4, 1] = True
    totals = {"x1": float(truth[:, 0].sum()), "x2": float(truth[:, 1].sum())}
    return make_data(truth, mask, ("x1", "x2", "x3")), totals


class TestInputChecks:
    """Every entry point checks its input once, in ``check_inputs``."""

    def test_predictors_for_an_unknown_column_are_rejected(self):
        data, totals = study_like_masked(np.random.default_rng(20))
        edits = parse_edit_rules(THREE_VAR_RULES)
        config = ImputationConfig("upma", predictors={"X1": ["x3"]})
        with pytest.raises(ValueError, match="predictors given for unknown column 'X1'"):
            impute(data, edits, totals, config)

    def test_predictors_of_a_complete_column_are_checked(self):
        # x3 is never imputed, but its entry in the map is still checked.
        data, totals = study_like_masked(np.random.default_rng(21))
        edits = parse_edit_rules(THREE_VAR_RULES)
        config = ImputationConfig("upma", predictors={"x3": ["zz"]})
        with pytest.raises(ValueError, match=r"unknown predictor column\(s\) \['zz'\] for target 'x3'"):
            impute(data, edits, totals, config)

    def test_repeated_predictor_is_rejected(self):
        data, totals = study_like_masked(np.random.default_rng(22))
        edits = parse_edit_rules(THREE_VAR_RULES)
        config = ImputationConfig("upma", predictors={"x1": ["x3", "x3"]})
        with pytest.raises(ValueError, match=r"predictor\(s\) \['x3'\] listed twice for target 'x1'"):
            impute(data, edits, totals, config)

    @pytest.mark.parametrize("method", ["bpma", "bpmr"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_total_is_named(self, method, bad):
        data, totals = study_like_masked(np.random.default_rng(23))
        edits = parse_edit_rules(THREE_VAR_RULES)
        with pytest.raises(ValueError, match=r"non-finite total\(s\) for column\(s\) \['x1'\]"):
            impute(data, edits, {**totals, "x1": bad}, ImputationConfig(method))

    def test_totals_may_name_columns_the_data_lacks(self):
        data, totals = study_like_masked(np.random.default_rng(24))
        edits = parse_edit_rules(THREE_VAR_RULES)
        out, _ = impute(data, edits, {**totals, "elsewhere": 5.0}, ImputationConfig("bpma"))
        assert float(out.values[:, 0].sum()) == pytest.approx(totals["x1"], rel=1e-8)

    @pytest.mark.parametrize("bad", [math.inf, -math.inf])
    def test_infinite_value_is_rejected(self, bad):
        # An infinite observed cell used to reach lstsq, which failed to converge.
        values = np.array([[1.0, 2.0, 3.0], [bad, 1.0, 2.0], [2.0, np.nan, 4.0]])
        with pytest.raises(ValueError, match="values must not be infinite"):
            DataMatrix(values, np.isnan(values), ("x1", "x2", "x3"))

    def test_check_inputs_accepts_valid_input(self):
        data, totals = study_like_masked(np.random.default_rng(25))
        edits = parse_edit_rules(THREE_VAR_RULES)
        assert check_inputs(data, edits, totals, {"x1": ["x3"], "x2": ["x3", "x1"]}) is None


class TestBenchmarkedMethods:
    @pytest.mark.parametrize("method", ["bpma", "bpmr"])
    def test_calibration_and_edits_on_three_var_system(self, method):
        edits = parse_edit_rules(THREE_VAR_RULES)
        rng = np.random.default_rng(4)
        truth = consistent_three_var_sample(rng, 150)
        mask = np.zeros_like(truth, dtype=bool)
        miss1 = rng.choice(150, size=30, replace=False)
        mask[miss1, 0] = True
        mask[miss1[:15], 1] = True
        mask[rng.choice(np.setdiff1d(np.arange(150), miss1), size=12, replace=False), 1] = True
        values = truth.copy()
        values[mask] = np.nan
        data = DataMatrix(values, mask, ("x1", "x2", "x3"))
        totals = {"x1": float(truth[:, 0].sum()), "x2": float(truth[:, 1].sum())}
        out, diagnostics = impute(
            data, edits, totals,
            ImputationConfig(method, seed=11, predictors={"x1": ["x3"], "x2": ["x3", "x1"]},
                             variable_order=["x1", "x2"]),
        )
        assert not violation_matrix(edits, out.values, out.columns).any()
        for col, j in (("x1", 0), ("x2", 1)):
            assert float(out.values[:, j].sum()) == pytest.approx(totals[col], rel=1e-8)
        assert np.array_equal(out.values[~mask], truth[~mask])
        assert len(diagnostics) == 4  # two rounds, two variables
        solver_keys = {"lambda", "at_lower", "at_upper"}
        assert any(row["fit"] for row in diagnostics)
        for row in diagnostics:
            if row["round"] > 1:  # x1 + x2 = x3 fixes both given x3
                assert row["fit"] is None and row["residuals"] is None
                assert row["adjustment"] == {"skipped": "fixed by an equality"}
            elif row["fit"] is None:  # every cell forced: the points, no solve
                assert row["intervals"]["degenerate"] == row["intervals"]["count"]
                assert row["adjustment"] == {"skipped": "all points"} and row["residuals"] is None
            elif method == "bpma":
                assert set(row["adjustment"]) == {"max_abs", "weighted_sum"} | solver_keys
            else:
                assert set(row["residuals"]) == {"attempts", "fallbacks"} | solver_keys

    @pytest.mark.parametrize("method", ["bpma", "bpmr"])
    def test_blank_cells_that_must_sum_to_zero_calibrate(self, method):
        # The calibrated predictions of the blank cells sum to their
        # remainder, 0, only up to the rounding of terms near 3e4 each,
        # about 1e-9.  The column total is checked once, by validate, on
        # the total's scale: every seed completes and passes it.
        for seed in range(20):
            data, edits, totals = zero_remainder_case(seed)
            out, _ = impute(data, edits, totals, ImputationConfig(method, seed=0))
            pipeline.validate(out.values, out, edits, totals)
            assert np.array_equal(out.values[~data.mask], data.values[~data.mask])

    def test_bpma_deterministic_and_bpmr_seeded(self):
        edits = parse_edit_rules(THREE_VAR_RULES)
        rng = np.random.default_rng(5)
        truth = consistent_three_var_sample(rng, 100)
        mask = np.zeros_like(truth, dtype=bool)
        rows = rng.choice(100, size=25, replace=False)
        mask[rows, 0] = True
        mask[rows[:10], 1] = True
        values = truth.copy()
        values[mask] = np.nan
        data = DataMatrix(values, mask, ("x1", "x2", "x3"))
        totals = {"x1": float(truth[:, 0].sum()), "x2": float(truth[:, 1].sum())}

        a, _ = impute(data, edits, totals, ImputationConfig("bpma"))
        b, _ = impute(data, edits, totals, ImputationConfig("bpma"))
        assert a.values.tobytes() == b.values.tobytes()

        r1, _ = impute(data, edits, totals, ImputationConfig("bpmr", seed=1))
        r2, _ = impute(data, edits, totals, ImputationConfig("bpmr", seed=1))
        r3, _ = impute(data, edits, totals, ImputationConfig("bpmr", seed=2))
        assert r1.values.tobytes() == r2.values.tobytes()
        assert r1.values.tobytes() != r3.values.tobytes()

    def test_bpma_with_nearly_all_cells_pinned(self):
        data, rules, totals = pinned_balance_data(np.random.default_rng(12))
        edits = parse_edit_rules(rules)
        out, diagnostics = impute(data, edits, totals, ImputationConfig("bpma"))
        assert not violation_matrix(edits, out.values, out.columns).any()
        for j, name in enumerate(("x1", "x2")):
            assert abs(float(out.values[:, j].sum()) - totals[name]) <= 1e-8 * abs(totals[name])
        first = diagnostics[0]
        assert first["variable"] == "x1"
        assert first["adjustment"]["at_lower"] == first["adjustment"]["at_upper"] == 1000
        assert first["adjustment"]["lambda"] is not None

    def test_exact_fit_bpmr_adjusts_like_bpma(self):
        # y is 4 wherever observed, so the intercept-only fit is exact (sigma
        # 0) and predicts 6 for each missing cell, outside y <= 3 of record 4.
        data = make_data(
            [[5, 4], [6, 4], [7, 4], [8, 4], [3, 0], [9, 0], [20, 0]],
            [[False, False]] * 4 + [[False, True]] * 3,
            ("x", "y"),
        )
        edits = parse_edit_rules("y <= x\ny >= 0\n")
        (bpma, bpma_diag), (bpmr, bpmr_diag) = (
            impute(data, edits, {"y": 34.0}, ImputationConfig(method, rounds=1, predictors={"y": []}))
            for method in ("bpma", "bpmr")
        )
        assert bpmr_diag[0]["fit"]["residual_variance"] == 0.0
        assert bpma.values[4:, 1].tolist() == [3.0, 7.5, 7.5]
        assert bpmr.values.tobytes() == bpma.values.tobytes()
        solver = {key: bpma_diag[0]["adjustment"][key] for key in ("lambda", "at_lower", "at_upper")}
        assert bpmr_diag[0]["residuals"] == {"attempts": 0, "fallbacks": 0, **solver}

    def test_random_instances_calibrate(self):
        rng = np.random.default_rng(6)
        for k in range(8):
            data, edits, totals, truth = random_imputation_instance(rng, max_records=120)
            method = "bpma" if k % 2 == 0 else "bpmr"
            out, _ = impute(data, edits, totals, ImputationConfig(method, seed=k))
            assert not violation_matrix(edits, out.values, out.columns).any()
            for j, name in enumerate(out.columns):
                if data.mask[:, j].any():
                    got = float(np.sum(out.weights * out.values[:, j]))
                    assert abs(got - totals[name]) <= 1e-8 * max(1.0, abs(totals[name]))


class TestRoundsAndPredictors:
    def test_collinear_round_two_predictors_are_dropped(self):
        # Four columns with a balance edit among three of them: in round 2
        # the full predictor set is rank deficient and must self-heal.
        rules = "a + b = c\na >= 0\nb >= 0\nc >= 0\nd >= 0\n"
        edits = parse_edit_rules(rules)
        rng = np.random.default_rng(7)
        r = 90
        a = rng.uniform(1, 10, r)
        b = rng.uniform(1, 10, r)
        d = rng.uniform(1, 10, r) + 0.5 * a
        truth = np.column_stack([a, b, a + b, d])
        mask = np.zeros_like(truth, dtype=bool)
        mask[rng.choice(r, 20, replace=False), 3] = True
        values = truth.copy()
        values[mask] = np.nan
        data = DataMatrix(values, mask, ("a", "b", "c", "d"))
        out, diagnostics = impute(data, edits, None, ImputationConfig("upma", rounds=2))
        round2 = [row for row in diagnostics if row["round"] == 2]
        assert round2 and round2[0]["dropped_predictors"]
        assert not violation_matrix(edits, out.values, out.columns).any()

    def test_single_round_supported(self):
        edits = parse_edit_rules(THREE_VAR_RULES)
        rng = np.random.default_rng(8)
        truth = consistent_three_var_sample(rng, 60)
        mask = np.zeros_like(truth, dtype=bool)
        mask[rng.choice(60, 12, replace=False), 0] = True
        values = truth.copy()
        values[mask] = np.nan
        data = DataMatrix(values, mask, ("x1", "x2", "x3"))
        out, diagnostics = impute(data, edits, None, ImputationConfig("upma", rounds=1))
        assert {row["round"] for row in diagnostics} == {1}
        assert not violation_matrix(edits, out.values, out.columns).any()


class TestLogScale:
    def _income_data(self, rng, r=200):
        tax = rng.lognormal(mean=1.2, sigma=0.4, size=r)
        net = 2.2 * tax + rng.lognormal(mean=1.0, sigma=0.5, size=r)
        gross = net + tax
        return np.column_stack([net, tax, gross])

    @staticmethod
    def _weights(weight, rng, r=200):
        """Equal weights, every second weight 1 + 2e-6, or U(0.5, 3) ones."""
        if weight == "near-equal":
            return np.where(np.arange(r) % 2 == 1, 1 + 2e-6, 1.0)
        if weight == "random":
            return rng.uniform(0.5, 3.0, size=r)
        return np.full(r, weight)

    @pytest.mark.parametrize("weight", [1.0, 2.0, 0.5, "near-equal", "random"])
    def test_bpma_log_scale_calibrates_original_totals(self, weight):
        # The multiplier calibrates the weighted sums, whatever the weights.
        edits = parse_edit_rules(INCOME_RULES)
        rng = np.random.default_rng(9)
        truth = self._income_data(rng)
        mask = np.zeros_like(truth, dtype=bool)
        rows = rng.choice(200, size=40, replace=False)
        mask[rows, 0] = True
        mask[rows[:20], 1] = True
        mask[rng.choice(np.setdiff1d(np.arange(200), rows), size=16, replace=False), 1] = True
        values = truth.copy()
        values[mask] = np.nan
        w = self._weights(weight, rng)
        data = DataMatrix(values, mask, ("net", "tax", "gross"), w)
        totals = {"net": float(w @ truth[:, 0]), "tax": float(w @ truth[:, 1])}
        out, _ = impute(
            data, edits, totals,
            ImputationConfig("bpma", log_scale=True,
                             predictors={"net": ["gross"], "tax": ["gross", "net"]},
                             variable_order=["net", "tax"]),
        )
        assert not violation_matrix(edits, out.values, out.columns).any()
        for col, j in (("net", 0), ("tax", 1)):
            assert float(out.weights @ out.values[:, j]) == pytest.approx(totals[col], rel=1e-8)

    def test_upma_log_scale_fit_is_weighted(self):
        edits = parse_edit_rules(INCOME_RULES)
        rng = np.random.default_rng(11)
        truth = self._income_data(rng, r=80)
        mask = np.zeros_like(truth, dtype=bool)
        # net and tax missing together, so the balance leaves net an interval
        # to fit into; with tax missing too, gross is net's one predictor.
        mask[rng.choice(80, size=16, replace=False), :2] = True
        w = self._weights("random", rng, r=80)
        data = make_data(truth, mask, ("net", "tax", "gross"), w)
        _, diagnostics = impute(
            data, edits, None,
            ImputationConfig("upma", rounds=1, log_scale=True, predictors={"net": ["gross"]}),
        )
        assert diagnostics[0]["variable"] == "net"
        obs = ~mask[:, 0]
        weighted = fit_ols(np.log(truth[obs, 0]), np.log(truth[obs, 2:]), weights=w[obs])
        plain = fit_ols(np.log(truth[obs, 0]), np.log(truth[obs, 2:]))
        slopes = diagnostics[0]["fit"]["slopes"]
        assert np.allclose(slopes, weighted.slopes, rtol=1e-12, atol=0)
        assert not np.allclose(slopes, plain.slopes, rtol=1e-6, atol=0)

    def test_upma_log_scale_ignores_totals(self):
        # upma calibrates nothing, so totals that leave out its targets do
        # not matter, on the log scale as on the linear one.
        edits = parse_edit_rules(INCOME_RULES)
        rng = np.random.default_rng(10)
        truth = self._income_data(rng, r=60)
        mask = np.zeros_like(truth, dtype=bool)
        mask[rng.choice(60, size=12, replace=False), 0] = True
        data = make_data(truth, mask, ("net", "tax", "gross"))
        config = ImputationConfig("upma", log_scale=True)
        plain, _ = impute(data, edits, None, config)
        with_totals, _ = impute(data, edits, {"tax": 1.0}, config)
        assert with_totals.values.tobytes() == plain.values.tobytes()

    def test_log_scale_rejects_nonpositive_data(self):
        edits = parse_edit_rules("a >= 0\nb >= 0")
        values = np.array([[0.0, 1.0], [2.0, np.nan], [3.0, 4.0], [1.0, 2.0]])
        data = DataMatrix(values, np.isnan(values), ("a", "b"))
        with pytest.raises(ValueError, match="positive"):
            impute(data, edits, None, ImputationConfig("upma", log_scale=True))

    @pytest.mark.parametrize("method", ["upma", "bpma"])
    @pytest.mark.parametrize("log_scale", [False, True])
    def test_target_without_observed_value_is_insufficient_data(self, method, log_scale):
        edits = parse_edit_rules("a >= 0\nb >= 0")
        values = np.array([[1.0, np.nan], [2.0, np.nan], [3.0, np.nan], [4.0, np.nan]])
        data = DataMatrix(values, np.isnan(values), ("a", "b"))
        with pytest.raises(InsufficientDataError):
            impute(data, edits, {"b": 10.0}, ImputationConfig(method, log_scale=log_scale))

    def test_log_scale_bpmr_rejected(self):
        with pytest.raises(ValueError, match="log-scale"):
            ImputationConfig("bpmr", log_scale=True)

    @pytest.mark.parametrize("seed", [-3, -1, 2.0, 0.5, "7", None])
    def test_negative_or_non_integer_seed_rejected(self, seed):
        # Every method, including those that draw nothing, and the chain.
        for method in ("upma", "bpma", "bpmr"):
            with pytest.raises(ValueError, match="seed"):
                ImputationConfig(method, seed=seed)
        with pytest.raises(ValueError, match="seed"):
            McmcConfig(seed=seed)

    @pytest.mark.parametrize("rounds", [0, 1.5, 2.0])
    def test_rounds_must_be_a_positive_integer(self, rounds):
        for method in ("upma", "bpma", "bpmr"):
            with pytest.raises(ValueError, match=rf"rounds must be at least 1 and an integer, got {rounds!r}"):
                ImputationConfig(method, rounds=rounds)

    def test_large_and_numpy_integer_seeds_accepted(self):
        for seed in (0, 2**70, np.int64(5), np.uint32(9)):
            assert ImputationConfig("bpmr", seed=seed).seed == seed
            assert McmcConfig(seed=seed).seed == seed


class TestBatchedSteps:
    def test_missing_patterns_match_unique_rows(self):
        # Repeated patterns with a few flipped cells, an all-known and an
        # all-missing pattern, and single-row masks, at 0 to 70 columns.
        rng = np.random.default_rng(3)
        for width in range(71):
            base = rng.random((6, width)) < 0.4
            base[0], base[1] = False, True
            many = base[rng.integers(0, 6, 80)]
            many[rng.random(many.shape) < 0.02] ^= True
            for missing in (many, base[:1], base[1:2], rng.random((1, width)) < 0.5):
                want, want_inverse = np.unique(missing, axis=0, return_inverse=True)
                got, got_inverse = _missing_patterns(missing)
                assert got.shape == want.shape and got.tobytes() == want.tobytes()
                assert got_inverse.tolist() == want_inverse.reshape(-1).tolist()

    @pytest.mark.parametrize("method", ["upma", "bpma", "bpmr"])
    def test_batched_streams_match_per_cell_streams(self, monkeypatch, method):
        # Survey-shaped data, 8 columns with 10% of cells missing, so each
        # target's records fall into up to 16 patterns; on these records
        # every method completes.  The batched uniforms and array draw give
        # the bytes and diagnostics of scalar SeedSequence calls and
        # one-cell draws made cell by cell.
        rng = np.random.default_rng(3)
        truth, edits = survey_truth(rng, 600)
        data = make_data(truth, rng.random(truth.shape) < 0.1, SURVEY_COLUMNS)
        totals = dict(zip(SURVEY_COLUMNS, truth.sum(axis=0).tolist()))
        config = ImputationConfig(method, seed=3)
        batched, batched_diag = impute(data, edits, totals, config)

        def per_cell_uniforms(seed, j, records):
            # A cell's uniform is keyed by the seed and round, the column and the record.
            assert seed - 3 * 1_000_003 in (1, 2)
            assert records.tolist() == np.flatnonzero(data.mask[:, j]).tolist()
            return np.array([scalar_cell_uniform(seed, j, int(r)) for r in records])

        def per_cell_residuals(sigma, lower, upper, weights, uniforms, target_sum):
            # Uniforms are built only where residuals draw.
            assert (uniforms is None) == (sigma == 0.0)
            intervals = [Interval(float(lo), float(hi)) for lo, hi in zip(lower, upper)]
            if uniforms is None:
                uniforms = [math.nan] * len(intervals)
            return per_cell_benchmarked_residuals(sigma, intervals, weights, uniforms, target_sum)

        monkeypatch.setattr(residuals, "cell_uniforms", per_cell_uniforms)
        monkeypatch.setattr(residuals, "benchmarked_residuals", per_cell_residuals)
        per_cell, per_cell_diag = impute(data, edits, totals, config)
        assert batched.values.tobytes() == per_cell.values.tobytes()
        assert json.dumps(batched_diag) == json.dumps(per_cell_diag)
        if method == "bpmr":
            assert sum(d["residuals"]["attempts"] for d in batched_diag if d["residuals"]) > 0


def balance_points_data(rng, r=60):
    """``x1 + x2 = x3`` with unequal weights: x1 missing alone in 12
    records, so each of its cells is forced, three of them to 0 (x2 = x3),
    a point the edits derive as [-0.0, 0.0].  Returns the data, the edits
    and the weighted totals of the truth."""
    x2 = rng.uniform(0.0, 40.0, size=r)
    x1 = rng.uniform(0.0, 60.0, size=r)
    x1[:3] = 0.0
    truth = np.column_stack([x1, x2, x1 + x2])
    mask = np.zeros_like(truth, dtype=bool)
    mask[:12, 0] = True
    w = rng.uniform(0.5, 3.0, size=r)
    data = make_data(truth, mask, ("x1", "x2", "x3"), w)
    return data, parse_edit_rules("x1 + x2 = x3\n"), {"x1": float(w @ x1)}


def reach_edge_case(kind):
    """Records whose blank cells reach at most a known weighted sum, with
    the total at which the remainder of their column is exactly that sum:

    * ``points``: :func:`balance_points_data` at seed 33, every blank
      ``x1`` forced by ``x1 + x2 = x3``;
    * ``cancelling``: 40 records under ``y <= x`` with ``x = ±1e5``
      (alternating) plus the row index and ``y = x - 1``, ``y`` blank in
      the last 20, so a total near 760 sums terms near 1e5;
    * ``large-observed``: 20 observed records under ``y <= x`` with ``x``
      near 1e9 and 3 blank ``y`` cells in records with ``x = 1, 2, 3``,
      ``y = x - 0.5``, so the blank cells are small beside a total near
      2e10.

    Returns the data, the edits and that total."""
    if kind == "points":
        return balance_points_data(np.random.default_rng(33))
    if kind == "cancelling":
        i = np.arange(40.0)
        x = np.where(i % 2 == 0, 1e5, -1e5) + i
        y, blank = x - 1.0, i >= 20
    else:
        x = np.concatenate([1e9 + 1e6 * np.arange(20.0), [1.0, 2.0, 3.0]])
        y, blank = x - 0.5, np.arange(23) >= 20
    mask = np.column_stack([blank, np.zeros_like(blank)])
    total = float(np.sum(y[~blank]) + np.sum(x[blank]))
    return make_data(np.column_stack([y, x]), mask, ("y", "x")), parse_edit_rules("y <= x\n"), {"y": total}


def assert_judged_by_total_rule(kind, method, allowances):
    """Move :func:`reach_edge_case`'s total past the reach of its blank
    cells by ``allowances`` times what :func:`pipeline.validate` allows:
    below one allowance the step imputes and its output validates; above
    it the step raises exactly ``InfeasibleSystemError`` caused by
    ``InfeasibleAdjustmentError`` (exit 3), never ``validate``'s bare
    ``CalimpError`` (exit 2)."""
    data, edits, totals = reach_edge_case(kind)
    ((name, edge),) = totals.items()
    moved = {name: edge + allowances * pipeline.TOTAL_RTOL * max(1.0, abs(edge))}
    config = ImputationConfig(method, rounds=1, seed=4)
    if allowances < 1.0:
        out, _ = impute(data, edits, moved, config)
        pipeline.validate(out.values, data, edits, moved)
        return
    with pytest.raises(CalimpError) as err:
        impute(data, edits, moved, config)
    assert type(err.value) is InfeasibleSystemError, err.value
    assert isinstance(err.value.__cause__, InfeasibleAdjustmentError)


REACH_EDGE_CASES = ("points", "cancelling", "large-observed")


class TestTotalRule:
    """A benchmarked step is judged once, before its fit, by validate's
    total rule on the reach of its intervals."""

    @pytest.mark.parametrize("kind", REACH_EDGE_CASES)
    @pytest.mark.parametrize("method", ["bpma", "bpmr"])
    def test_steps_are_judged_by_validates_total_rule(self, method, kind):
        assert_judged_by_total_rule(kind, method, 0.5)
        assert_judged_by_total_rule(kind, method, 2.0)

    @settings(max_examples=40, deadline=None)
    @given(
        kind=st.sampled_from(REACH_EDGE_CASES),
        method=st.sampled_from(["bpma", "bpmr"]),
        allowances=st.one_of(
            st.floats(0.0, 0.9, exclude_min=True), st.floats(1.1, 10.0, exclude_max=True)
        ),
    )
    def test_any_gap_is_judged_by_validates_total_rule(self, kind, method, allowances):
        assert_judged_by_total_rule(kind, method, allowances)


def forced_fit_column(data, edits, totals, method, seed=0):
    """The cells of the only target, x1, as a round-1 step that fits makes
    them: the predictions of a fit on x2 (which, unlike x2 and x3 together,
    leaves them off the points) clipped into the intervals (upma), or
    calibrated and adjusted (bpma) or drawn around (bpmr) into them."""
    rows, obs = np.flatnonzero(data.mask[:, 0]), np.flatnonzero(~data.mask[:, 0])
    derived = pipeline._PatternCompiler(edits, data.columns).intervals(data.values, rows, "x1")
    w_obs, w_mis = data.weights[obs], data.weights[rows]
    y = data.values[obs, 0]
    missing_total = None if method == "upma" else float(totals["x1"] - np.sum(w_obs * y))
    p, fit_diag, _, _ = pipeline._predict(
        y, data.values[obs, 1:2], data.values[rows, 1:2], w_obs, w_mis, ["x2"], missing_total, False,
    )
    lower, upper = derived.lower, derived.upper
    if method == "upma":
        return np.clip(p, lower, upper), derived
    sigma = math.sqrt(fit_diag["residual_variance"]) if method == "bpmr" else 0.0
    uniforms = residuals.cell_uniforms(seed * 1_000_003 + 1, 0, rows) if sigma else None
    shift, _ = residuals.benchmarked_residuals(
        sigma, lower - p, upper - p, w_mis, uniforms,
        target_sum=float(np.clip(0.0, *adjust.reach(w_mis, lower - p, upper - p))),
    )
    return p + shift, derived


class TestAllPointTargets:
    """A (round, target) whose every interval is a point writes its points
    and skips the fit, the adjustment and the draw."""

    @pytest.mark.parametrize("method", ["upma", "bpma", "bpmr"])
    def test_points_are_the_bytes_a_fit_would_write(self, method):
        data, edits, totals = balance_points_data(np.random.default_rng(30))
        out, diagnostics = impute(data, edits, totals, ImputationConfig(method, rounds=1, seed=4))
        want, derived = forced_fit_column(data, edits, totals, method, seed=4)
        zeros = derived.upper == 0.0
        assert zeros.sum() == 3 and np.signbit(derived.lower[zeros]).all()
        assert not np.signbit(out.values[:12, 0]).any()
        assert out.values[:12, 0].tobytes() == want.tobytes()
        (row,) = diagnostics
        assert row["fit"] is None and row["residuals"] is None
        assert row["predictors"] == row["dropped_predictors"] == []
        assert row["adjustment"] == {"skipped": "all points"}
        assert row["intervals"]["degenerate"] == row["intervals"]["count"] == 12

    @pytest.mark.parametrize("method", ["upma", "bpma", "bpmr"])
    def test_only_fitting_steps_fit(self, monkeypatch, method):
        # x2 is missing only where x1 is: round 1 fits x2, and the balance
        # then forces every cell left.  On the points alone nothing fits.
        rng = np.random.default_rng(31)
        truth = consistent_three_var_sample(rng, 80)
        mask = np.zeros_like(truth, dtype=bool)
        mask[:16, 0] = True
        mask[:6, 1] = True
        data = make_data(truth, mask, ("x1", "x2", "x3"))
        totals = {"x1": float(truth[:, 0].sum()), "x2": float(truth[:, 1].sum())}
        edits = parse_edit_rules(THREE_VAR_RULES)
        calls = []
        for module, name in ((regression, "fit_ols"), (regression, "fit_benchmarked"),
                             (residuals, "benchmarked_residuals"), (residuals, "cell_uniforms")):
            def counted(*args, _fn=getattr(module, name), _name=name, **kwargs):
                calls.append(_name)
                return _fn(*args, **kwargs)
            monkeypatch.setattr(module, name, counted)
        _, diagnostics = impute(data, edits, totals, ImputationConfig(method, seed=2))
        assert [row["fit"] is not None for row in diagnostics] == [True, False, False, False]
        assert calls.count("fit_ols") == 1
        calls.clear()
        points, points_edits, points_totals = balance_points_data(np.random.default_rng(32))
        _, diagnostics = impute(points, points_edits, points_totals, ImputationConfig(method, seed=2))
        assert len(diagnostics) == 2 and all(row["fit"] is None for row in diagnostics)
        assert calls == []

    @pytest.mark.parametrize("method", ["bpma", "bpmr"])
    def test_points_missing_their_total_raise_as_the_adjustment_would(self, method):
        # Both methods raise the one message of the step's reach, in the
        # adjustment's terms: the required sum 0 lies outside [d, d], d the
        # points' weighted sum less the remainder of the column total.
        data, edits, totals = balance_points_data(np.random.default_rng(33))
        totals = {"x1": totals["x1"] + 100.0}
        rows, obs = np.flatnonzero(data.mask[:, 0]), np.flatnonzero(~data.mask[:, 0])
        derived = pipeline._PatternCompiler(edits, data.columns).intervals(data.values, rows, "x1")
        remainder = totals["x1"] - float(np.sum(data.weights[obs] * data.values[obs, 0]))
        d = float(np.sum(data.weights[rows] * derived.upper)) - remainder
        assert d == pytest.approx(-100.0)
        with pytest.raises(InfeasibleSystemError) as got:
            impute(data, edits, totals, ImputationConfig(method, rounds=1))
        assert str(got.value) == f"variable 'x1', round 1: {adjust.out_of_reach(0.0, d, d)}"
        assert isinstance(got.value.__cause__, InfeasibleAdjustmentError)
        assert re.search(r"sum 0 lies outside the achievable range \[(\S+), \1\]$", str(got.value))

    @pytest.mark.parametrize("method", ["bpma", "bpmr"])
    def test_points_near_1e10_meet_the_true_totals(self, method):
        # Survey records near 1e10 whose blank 'other' cells the costs
        # balance forces: their weighted sum misses the remainder of the
        # true total by about 5e-5 from rounding, 7e-9 of the total, which
        # validate accepts.
        data, edits, _ = build("large", np.random.default_rng(5), weighted=True)
        every = dict(zip(data.columns, (data.weights @ data.values).tolist()))
        given = DataMatrix(np.where(data.mask, np.nan, data.values), data.mask, data.columns, data.weights)
        out, diagnostics = impute(given, edits, every, ImputationConfig(method, seed=3))
        pipeline.validate(out.values, given, edits, every)
        assert [(row["variable"], row["adjustment"]) for row in diagnostics] == [
            ("other", {"skipped": "all points"}), ("other", {"skipped": "fixed by an equality"}),
        ]

    def test_incomplete_predictor_still_raises_on_a_point_target(self):
        # x1 is forced wherever it is missing, but its predictor x2 is
        # missing in other records, which round 1 has not imputed yet.
        rng = np.random.default_rng(35)
        truth = consistent_three_var_sample(rng, 40)
        mask = np.zeros_like(truth, dtype=bool)
        mask[:5, 0] = True
        mask[5:10, 1] = True
        data = make_data(truth, mask, ("x1", "x2", "x3"))
        config = ImputationConfig("upma", predictors={"x1": ["x2"]}, variable_order=["x1", "x2"])
        with pytest.raises(ValueError, match=r"predictor\(s\) \['x2'\] for target 'x1' are not complete yet"):
            impute(data, parse_edit_rules(THREE_VAR_RULES), None, config)

    @pytest.mark.parametrize("method", ["upma", "bpma"])
    def test_log_scale_checks_still_fire_on_a_point_target(self, method):
        data, edits, totals = balance_points_data(np.random.default_rng(36))
        values = data.values.copy()
        values[20, 1], values[20, 2] = 0.0, values[20, 0]  # an observed zero
        zero = DataMatrix(values, data.mask, data.columns, data.weights)
        with pytest.raises(ValueError, match="log-scale imputation requires strictly positive data"):
            impute(zero, edits, totals, ImputationConfig(method, log_scale=True))
        if method == "bpma":
            observed = float(data.weights[12:] @ data.values[12:, 0])
            with pytest.raises(InfeasibleSystemError, match=r"variable 'x1': the missing cells must sum to -1\.0"):
                impute(data, edits, {"x1": observed - 1.0}, ImputationConfig(method, log_scale=True))

    @pytest.mark.parametrize("method", ["upma", "bpma", "bpmr"])
    def test_fully_missing_forced_column_imputes(self, method):
        # t = a + b with every t missing: no observed row to fit on, and no
        # fit needed.
        rng = np.random.default_rng(37)
        a, b = rng.uniform(1.0, 9.0, size=20), rng.uniform(1.0, 9.0, size=20)
        w = rng.uniform(0.5, 2.0, size=20)
        truth = np.column_stack([a, b, a + b])
        mask = np.zeros_like(truth, dtype=bool)
        mask[:, 2] = True
        data = make_data(truth, mask, ("a", "b", "t"), w)
        edits = parse_edit_rules("t = a + b\na >= 0\nb >= 0\n")
        totals = {"t": float(w @ (a + b))}
        out, diagnostics = impute(data, edits, totals, ImputationConfig(method, seed=1))
        assert not violation_matrix(edits, out.values, out.columns).any()
        assert float(w @ out.values[:, 2]) == pytest.approx(totals["t"], rel=1e-8)
        assert out.values[:, 2].tolist() == (a + b).tolist()
        assert [row["adjustment"] for row in diagnostics] == [
            {"skipped": "all points"}, {"skipped": "fixed by an equality"},
        ]


FIXED = {"skipped": "fixed by an equality"}


class TestFixedTargets:
    """From round 2 on every other column is known, so a target with a
    nonzero coefficient in an equality is fixed by it: its later steps
    derive, fit and write nothing, and its rows say so."""

    @pytest.mark.parametrize("method", ["upma", "bpma", "bpmr"])
    def test_study_round_two_writes_the_bytes_of_round_one(self, method):
        config = sim.StudyConfig(population_size=2_000, sample_size=400)
        population, _ = sim.generate_population(config, np.random.default_rng(40))
        _, masked, totals = sim.draw_sample(population, config, np.random.default_rng(41))
        totals = None if method == "upma" else totals
        options = dict(seed=6, predictors=sim.STUDY_PREDICTORS, variable_order=sim.STUDY_ORDER)
        twice, diagnostics = impute(masked, sim.study_edits(), totals, ImputationConfig(method, **options))
        once, first = impute(masked, sim.study_edits(), totals, ImputationConfig(method, rounds=1, **options))
        assert twice.values.tobytes() == once.values.tobytes()
        assert diagnostics[:2] == first
        assert [row["variable"] for row in diagnostics[2:]] == sim.STUDY_ORDER
        for row in diagnostics[2:]:
            n = row["n_missing"]
            assert n > 0 and row == {
                "round": 2, "variable": row["variable"], "n_missing": n, "predictors": [],
                "dropped_predictors": [], "fit": None,
                "intervals": {"count": n, "degenerate": n, "bounded": n, "unbounded": 0, "patterns": 0},
                "adjustment": FIXED, "residuals": None,
            }

    @pytest.mark.parametrize("method", ["upma", "bpma", "bpmr"])
    def test_a_target_in_no_equality_refits(self, method):
        # y is in no equality: round 2 fits it on every other column (P is
        # dropped, the sum of x1 and x2) and adjusts or draws as round 1 did.
        rng = np.random.default_rng(42)
        x1, x2 = rng.uniform(5.0, 50.0, 60), rng.uniform(5.0, 50.0, 60)
        truth = np.column_stack([x1, x2, x1 + x2, 0.4 * (x1 + x2) + rng.uniform(0.0, 3.0, 60)])
        mask = np.zeros(truth.shape, dtype=bool)
        mask[:10, 0] = mask[5:15, 1] = mask[10:25, 3] = True
        data = make_data(truth, mask, ("x1", "x2", "P", "y"))
        edits = parse_edit_rules("x1 + x2 = P\nx1 >= 0\nx2 >= 0\ny >= 0\n")
        totals = None if method == "upma" else dict(zip(data.columns, truth.sum(axis=0).tolist()))
        out, diagnostics = impute(data, edits, totals, ImputationConfig(method, seed=5))
        pipeline.validate(out.values, data, edits, totals)
        assert [(row["round"], row["variable"]) for row in diagnostics] == [
            (1, "x1"), (1, "x2"), (1, "y"), (2, "x1"), (2, "x2"), (2, "y"),
        ]
        assert [row["adjustment"] for row in diagnostics[3:5]] == [FIXED, FIXED]
        refit = diagnostics[5]
        assert refit["fit"] is not None and "skipped" not in refit["adjustment"]
        assert sorted(refit["predictors"] + refit["dropped_predictors"]) == ["P", "x1", "x2"]

    @settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(st.integers(0, 2**32 - 1), st.sampled_from(["upma", "bpma", "bpmr"]))
    def test_skipping_agrees_with_the_unskipped_path(self, seed, method):
        # The unskipped path is impute with no target found fixed.
        data, edits, totals, _ = random_imputation_instance(np.random.default_rng(seed), max_records=200)
        totals = None if method == "upma" else totals
        config = ImputationConfig(method, seed=3)
        order = variable_order(data, config)
        others = {data.column_index(name): [c for c in data.columns if c != name] for name in order}
        pinned = {data.columns[j] for j in _oracles.structural_targets(edits, data.columns, others)}
        assert pinned == {v for e in edits.edits if e.kind is EditKind.EQUALITY for v in e.coeffs} & set(order)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(pipeline, "structural_targets", lambda *args: set())
            ref, ref_diagnostics = impute(data, edits, totals, config)
        out, diagnostics = impute(data, edits, totals, config)
        assert {row["variable"] for row in diagnostics if row["adjustment"] == FIXED} == pinned
        assert [(row["round"], row["variable"]) for row in diagnostics] == [
            (row["round"], row["variable"]) for row in ref_diagnostics
        ]
        for row, ref_row in zip(diagnostics, ref_diagnostics):
            assert (row["adjustment"] == FIXED) == (row["round"] > 1 and row["variable"] in pinned)
            if row["adjustment"] != FIXED:
                assert row["intervals"]["count"] == ref_row["intervals"]["count"]
        pipeline.validate(out.values, data, edits, totals)
        assert np.array_equal(out.values[~data.mask], data.values[~data.mask])
        assert np.all(np.abs(out.values - ref.values) <= 1e-12 * np.maximum(1.0, np.abs(ref.values)))
