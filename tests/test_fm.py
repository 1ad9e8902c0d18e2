import math

import numpy as np
import pytest

from calimp.edits import Edit, EditKind, parse_edit_rules, check_record, reduce_system
from calimp.errors import InfeasibleSystemError
from calimp.fm import (
    Interval,
    admissible_interval,
    back_substitute,
    default_value_rule,
    eliminate_equalities,
    fourier_motzkin_eliminate,
    resolve_companions,
)

from _oracles import GridOracle, random_inequality_system

EXAMPLE_RULES = """\
x1 + x2 = x3
x1 >= x2
x3 >= 3*x2
x1 >= 0
x2 >= 0
x3 >= 0
"""


def ineq(coeffs, const=0.0):
    return Edit(coeffs, const, EditKind.INEQUALITY)


def eq(coeffs, const=0.0):
    return Edit(coeffs, const, EditKind.EQUALITY)


def example_1_reduced():
    system = parse_edit_rules(EXAMPLE_RULES)
    return system, reduce_system(system, {"x1": 10.0})


class TestEliminateEqualities:
    def test_example_1_substitution(self):
        _, reduced = example_1_reduced()
        ineqs, stack, _ = eliminate_equalities(reduced.edits, keep="x3")
        assert [var for var, _ in stack] == ["x2"]
        expr = stack[0][1]
        assert expr.coeffs == {"x3": 1.0}
        assert expr.const == -10.0  # x2 = x3 - 10
        assert all(e.kind is EditKind.INEQUALITY for e in ineqs)
        assert {v for e in ineqs for v in e.coeffs} == {"x3"}

    def test_constant_substitution(self):
        ineqs, stack, _ = eliminate_equalities([eq({"x1": 1.0}, -5.0)], keep="x2")
        assert ineqs == []
        assert len(stack) == 1
        var, expr = stack[0]
        assert var == "x1"
        assert expr.coeffs == {}
        assert expr.const == 5.0

    def test_pinning_the_kept_variable(self):
        ineqs, stack, masses = eliminate_equalities([eq({"x": 2.0}, -6.0)], keep="x")
        assert stack == [] and masses == [1.0, 1.0]
        assert len(ineqs) == 2
        lo = min(-e.constant / e.coeffs["x"] for e in ineqs if e.coeffs["x"] > 0)
        assert lo == 3.0

    def test_conflicting_pins_raise(self):
        with pytest.raises(InfeasibleSystemError):
            # x = 1 and x = 2 cannot both hold once x is substituted away.
            eliminate_equalities(
                [eq({"x": 1.0}, -1.0), eq({"x": 1.0}, -2.0)], keep="y"
            )

    def test_pivot_prefers_largest_coefficient(self):
        ineqs, stack, _ = eliminate_equalities(
            [eq({"a": 1.0, "b": 4.0, "t": -1.0}, 0.0), ineq({"a": 1.0}), ineq({"b": 1.0})],
            keep="t",
        )
        assert stack[0][0] == "b"


class TestFourierMotzkin:
    def test_single_pair_combination(self):
        # x1 <= x2 and x2 <= 7 combine into x1 <= 7.
        system = [ineq({"x2": 1.0, "x1": -1.0}), ineq({"x2": -1.0}, 7.0)]
        out, masses = fourier_motzkin_eliminate(system, "x2")
        assert len(out) == 1
        assert masses == [2.0]  # one multiple of each row
        (edit,) = out
        assert edit.coeffs == {"x1": -1.0}
        assert edit.constant == 7.0

    def test_absent_variable_is_noop(self):
        system = [ineq({"x1": 1.0}, -3.0)]
        assert fourier_motzkin_eliminate(system, "x2") == (system, [1.0])

    def test_contradiction_detected(self):
        # x1 <= x2 <= x1 - 1 has no solution for any x1.
        system = [ineq({"x2": 1.0, "x1": -1.0}), ineq({"x2": -1.0, "x1": 1.0}, -1.0)]
        with pytest.raises(InfeasibleSystemError):
            fourier_motzkin_eliminate(system, "x2")
        # Brute-force cross-check: no grid point satisfies both rows.
        grid = np.linspace(-8, 8, 65)
        xx, yy = np.meshgrid(grid, grid)
        ok = (yy - xx >= 0) & (xx - yy - 1 >= 0)
        assert not ok.any()

    def test_equality_input_rejected(self):
        with pytest.raises(ValueError):
            fourier_motzkin_eliminate([eq({"x": 1.0})], "x")

    def test_duplicate_rows_folded(self):
        system = [
            ineq({"x": 1.0, "y": 1.0}, 1.0),
            ineq({"x": 2.0, "y": 2.0}, 2.0),  # same halfplane, scaled
            ineq({"z": 1.0}),
        ]
        out, _ = fourier_motzkin_eliminate(system, "unrelated")
        assert len(out) == 2


class TestAdmissibleInterval:
    def test_example_1(self):
        _, reduced = example_1_reduced()
        interval, record = admissible_interval(reduced, "x3")
        assert interval.lower == pytest.approx(10.0, abs=1e-12)
        assert interval.upper == pytest.approx(15.0, abs=1e-12)
        assert record.target == "x3"

    def test_single_bound(self):
        interval, _ = admissible_interval([ineq({"x": 1.0})], "x")
        assert interval.lower == 0.0
        assert interval.upper == math.inf

    def test_unconstrained_target(self):
        interval, _ = admissible_interval([ineq({"y": 1.0})], "x")
        assert interval.lower == -math.inf
        assert interval.upper == math.inf

    def test_degenerate_interval_allowed(self):
        interval, _ = admissible_interval(
            [ineq({"x": 1.0}, -4.0), ineq({"x": -1.0}, 4.0)], "x"
        )
        assert interval.lower == interval.upper == 4.0

    def test_infeasible_system_raises_with_witness(self):
        with pytest.raises(InfeasibleSystemError) as info:
            admissible_interval(
                [ineq({"x": 1.0}, -4.0), ineq({"x": -1.0}, 2.0)], "x"
            )
        assert info.value.witness is not None

    def test_determinism(self):
        rng = np.random.default_rng(5)
        names, edits = random_inequality_system(rng)
        first = admissible_interval(edits, names[0])
        second = admissible_interval(edits, names[0])
        assert first[0] == second[0]
        assert [v for v, _ in first[1].eq_subs] == [v for v, _ in second[1].eq_subs]
        assert [v for v, _ in first[1].fm_steps] == [v for v, _ in second[1].fm_steps]


class TestBackSubstitute:
    def test_example_1_direct_substitution(self):
        system, reduced = example_1_reduced()
        _, record = admissible_interval(reduced, "x3")
        values = back_substitute(record, {"x3": 12.0})
        assert values["x2"] == pytest.approx(2.0, abs=1e-12)
        row = {"x1": 10.0, **values}
        assert check_record(system, row) == []

    def test_identity_on_empty_stack(self):
        _, record = admissible_interval([ineq({"x": 1.0})], "x")
        assert back_substitute(record, {"x": 3.0}) == {"x": 3.0}

    def test_value_outside_interval_rejected(self):
        _, record = admissible_interval([ineq({"x": 1.0})], "x")
        with pytest.raises(ValueError, match="outside"):
            back_substitute(record, {"x": -1.0})

    def test_pair_example_completion(self):
        edits = [
            eq({"s.x3": 1.0, "s.x4": 1.0, "s.x5": -1.0}, 25.0),
            ineq({"s.x3": 1.0}),
            ineq({"s.x4": 1.0}),
            ineq({"s.x5": 1.0}),
            eq({"t.x1": 1.0, "t.x4": 1.0, "t.x5": -1.0}, 55.0),
            ineq({"t.x1": 1.0}),
            ineq({"t.x4": 1.0}),
            ineq({"t.x5": 1.0}),
            eq({"t.x1": 1.0}, -15.0),
            eq({"s.x3": 1.0}, -20.0),
            eq({"s.x4": 1.0, "t.x4": 1.0}, -65.0),
            eq({"s.x5": 1.0, "t.x5": 1.0}, -180.0),
        ]
        interval, record = admissible_interval(edits, "s.x5")
        assert (interval.lower, interval.upper) == (45.0, 110.0)
        values = back_substitute(record, {"s.x5": 100.0})
        assert values["s.x4"] == 55.0
        assert values["t.x4"] == 10.0
        assert values["t.x5"] == 80.0
        assert values["t.x1"] == 15.0
        assert values["s.x3"] == 20.0

    def test_default_value_rule(self):
        assert default_value_rule("v", Interval(2.0, 4.0)) == 3.0
        assert default_value_rule("v", Interval(2.0, math.inf)) == 3.0
        assert default_value_rule("v", Interval(-math.inf, 2.0)) == 1.0
        assert default_value_rule("v", Interval(-math.inf, math.inf)) == 0.0

    def test_resolve_companions_partial(self):
        # x2 resolves from the target; a slack-coupled variable does not.
        edits = [
            eq({"x2": 1.0, "x3": -1.0}, 10.0),
            eq({"a": 1.0, "b": -1.0, "x3": -1.0}, 0.0),
            ineq({"b": 1.0}),
        ]
        _, record = admissible_interval(edits, "x3")
        resolved = resolve_companions(record, {"x3": 12.0})
        assert resolved.get("x2") == 2.0
        assert "a" not in resolved or "b" in resolved


class TestProjectionProperties:
    def test_projection_soundness_small_batch(self):
        rng = np.random.default_rng(20240817)
        tested = 0
        for _ in range(40):
            names, edits = random_inequality_system(rng)
            target = names[int(rng.integers(len(names)))]
            try:
                interval, _ = admissible_interval(edits, target)
            except InfeasibleSystemError:
                oracle = GridOracle(edits, names, target)
                for v in np.linspace(-7, 7, 15):
                    assert not oracle.strict(float(v))
                continue
            oracle = GridOracle(edits, names, target)
            candidates = list(np.linspace(-7, 7, 15))
            if math.isfinite(interval.lower):
                candidates += [interval.lower, interval.lower - 0.37]
            if math.isfinite(interval.upper):
                candidates += [interval.upper, interval.upper + 0.37]
            for v in candidates:
                v = float(v)
                if interval.contains(v, tol=1e-12):
                    assert oracle.relaxed(v), (edits, target, v)
                if oracle.strict(v):
                    assert interval.contains(v, tol=1e-9), (edits, target, v)
                tested += 1
        assert tested > 100

    def test_completion_property(self):
        rng = np.random.default_rng(7)
        system = parse_edit_rules(EXAMPLE_RULES)
        reduced = reduce_system(system, {"x1": 10.0})
        interval, record = admissible_interval(reduced, "x3")
        for _ in range(1000):
            v = float(rng.uniform(interval.lower, interval.upper))
            values = back_substitute(record, {"x3": v})
            assert check_record(system, {"x1": 10.0, **values}) == []

    def test_completion_property_random_systems(self):
        rng = np.random.default_rng(99)
        done = 0
        while done < 5:
            names, edits = random_inequality_system(rng)
            target = names[0]
            try:
                interval, record = admissible_interval(edits, target)
            except InfeasibleSystemError:
                continue
            lo = interval.lower if math.isfinite(interval.lower) else -20.0
            hi = interval.upper if math.isfinite(interval.upper) else 20.0
            for _ in range(200):
                v = float(rng.uniform(lo, hi))
                values = back_substitute(record, {target: v})
                scale = max(1.0, max(abs(x) for x in values.values()))
                for edit in edits:
                    assert edit.is_satisfied(values, 1e-9, scale)
            done += 1

    def test_monotonicity_adding_edit_never_widens(self):
        rng = np.random.default_rng(11)
        for _ in range(40):
            names, edits = random_inequality_system(rng)
            target = names[0]
            try:
                before, _ = admissible_interval(edits, target)
            except InfeasibleSystemError:
                continue
            extra_vars = {
                names[j]: float(rng.integers(-3, 4)) for j in range(len(names)) if rng.integers(2)
            }
            extra_vars = {v: c for v, c in extra_vars.items() if c}
            if not extra_vars:
                extra_vars = {target: 1.0}
            extra = ineq(extra_vars, float(rng.integers(-6, 7)))
            try:
                after, _ = admissible_interval(list(edits) + [extra], target)
            except InfeasibleSystemError:
                continue
            assert after.lower >= before.lower - 1e-9
            assert after.upper <= before.upper + 1e-9
