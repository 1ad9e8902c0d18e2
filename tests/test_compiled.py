"""The compiled per-pattern interval derivation against its oracles.

``fm.compile_interval`` replays the symbolic steps of
``fm.admissible_interval`` once per unknown pattern; these tests check it
against the per-record derivation (intervals, companions, errors), the
lattice feasibility oracle, and whole imputations run the per-record way.
"""

import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from calimp import fm, pipeline
from calimp.edits import (
    Edit, EditKind, EditSystem, parse_edit_rules, reduce_system, reduced_constants, system_matrices,
)
from calimp.errors import CalimpError, InfeasibleRecordError, InfeasibleSystemError
from calimp.pipeline import DataMatrix, ImputationConfig, impute

from _oracles import GridOracle, PerRecordIntervals, random_imputation_instance, random_inequality_system
from test_pair_systems import SURVEY_COLUMNS, SURVEY_RULES

RTOL = 1e-12

seeds = st.integers(0, 2**32 - 1)
examples = settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])


def truth_first_system(rng, n_records=6):
    """Random edits over 2-5 variables and records satisfying them all.

    Records lie in the affine set of the equalities; each inequality's
    constant leaves zero or positive slack at the tightest record.
    """
    n = int(rng.integers(2, 6))
    names = [f"v{j}" for j in range(n)]
    n_eq = int(rng.integers(0, min(3, n)))
    E = rng.integers(-3, 4, size=(n_eq, n)).astype(float)
    E[np.arange(n_eq), rng.choice(n, size=n_eq, replace=False)] = 1.0
    x0 = rng.uniform(-10.0, 10.0, size=n)
    basis = np.linalg.svd(E)[2][np.linalg.matrix_rank(E):] if n_eq else np.eye(n)
    X = x0 + rng.uniform(-5.0, 5.0, size=(n_records, basis.shape[0])) @ basis

    edits = []
    for row in E:
        coeffs = {names[j]: float(c) for j, c in enumerate(row) if c}
        edits.append(Edit(coeffs, -float(row @ x0), EditKind.EQUALITY))
    for _ in range(int(rng.integers(1, 7))):
        k = int(rng.integers(1, min(3, n) + 1))
        chosen = rng.choice(n, size=k, replace=False)
        a = np.zeros(n)
        a[chosen] = rng.choice([-3.0, -2.0, -1.0, -0.5, 0.5, 1.0, 2.0, 3.0], size=k)
        slack = 0.0 if rng.random() < 0.3 else float(rng.uniform(0.0, 5.0))
        edits.append(Edit({names[j]: float(a[j]) for j in chosen}, -float((X @ a).min()) + slack, EditKind.INEQUALITY))
    return EditSystem(tuple(edits), tuple(names)), X


def random_pattern(rng, names):
    unknown = [v for v in names if rng.random() < 0.6] or [names[0]]
    target = unknown[int(rng.integers(len(unknown)))]
    return unknown, target


def per_record(system, x, unknown, target):
    row = {v: float(x[j]) for j, v in enumerate(system.variables) if v not in unknown}
    return fm.admissible_interval(reduce_system(system, row), target)


def compile_for(system, unknown, target, columns=None):
    """``fm.compile_interval`` on the system's matrix over ``columns``
    (default: its variables)."""
    columns = system.variables if columns is None else columns
    A, _, is_eq = system_matrices(system, columns)
    return fm.compile_interval(A, is_eq, columns, unknown, target)


def compiled_bounds(system, X, unknown, target):
    compiled = compile_for(system, unknown, target)
    A, b, _ = system_matrices(system, system.variables)
    Xu = X.copy()
    Xu[:, [system.variables.index(v) for v in unknown]] = np.nan
    D, G = reduced_constants(A, b, Xu)
    return compiled, D, G, compiled.evaluate(D, G)


def close(a, b, scale):
    if math.isinf(a) or math.isinf(b):
        return a == b
    return abs(a - b) <= RTOL * max(1.0, abs(a), abs(b), scale)


@examples
@given(seeds)
def test_intervals_and_companions_match_per_record_derivation(seed):
    rng = np.random.default_rng(seed)
    system, X = truth_first_system(rng)
    unknown, target = random_pattern(rng, list(system.variables))
    compiled, D, _, (lower, upper, bad) = compiled_bounds(system, X, unknown, target)
    assert not bad.any()
    for i, x in enumerate(X):
        scale = float(np.abs(x).max())
        interval, record = per_record(system, x, unknown, target)
        assert close(lower[i], interval.lower, scale), (lower[i], interval)
        assert close(upper[i], interval.upper, scale), (upper[i], interval)
        value = interval.clamp(float(x[system.variables.index(target)]))
        expected = fm.resolve_companions(record, {target: value})
        got = compiled.companions(np.array([value]), D[i : i + 1])[0]
        assert set(compiled.companion_vars) == set(expected)
        for var, val in zip(compiled.companion_vars, got):
            assert close(val, expected[var], scale), (var, val, expected[var])


@examples
@given(seeds)
def test_lattice_oracle_brackets_compiled_intervals(seed):
    rng = np.random.default_rng(seed)
    names, edits = random_inequality_system(rng, max_vars=4, max_extra=6)
    system = EditSystem(tuple(edits), tuple(names))
    unknown, target = random_pattern(rng, names)
    x = rng.integers(-6, 7, size=len(names)).astype(float)
    _, _, _, (lower, upper, bad) = compiled_bounds(system, x[None, :], unknown, target)
    known = {v: float(x[j]) for j, v in enumerate(names) if v not in unknown}
    try:
        reduced = reduce_system(system, known)
    except InfeasibleRecordError:
        assert bad[0]
        return
    oracle = GridOracle(list(reduced.edits), unknown, target)
    grid = [float(v) for v in np.linspace(-7, 7, 15)]
    if bad[0]:
        assert not any(oracle.strict(v) for v in grid)
        return
    interval = fm.Interval(lower[0], upper[0])
    candidates = grid + [v for v in (interval.lower, interval.upper) if math.isfinite(v)]
    for v in candidates:
        if interval.contains(v, tol=1e-12):
            assert oracle.relaxed(v, slack=1e-9 * max(1.0, abs(v))), (edits, known, target, v)
        if oracle.strict(v):
            assert interval.contains(v, tol=1e-9), (edits, known, target, v)


@examples
@given(seeds)
def test_infeasible_inputs_raise_the_same_error_type(seed):
    rng = np.random.default_rng(seed)
    system, X = truth_first_system(rng)
    # Contradict one inequality by a margin far above the tolerance.
    inequalities = [e for e in system.edits if e.kind is EditKind.INEQUALITY]
    edit = inequalities[int(rng.integers(len(inequalities)))]
    margin = float(rng.uniform(1.0, 10.0))
    negated = Edit({v: -c for v, c in edit.coeffs.items()}, -edit.constant - margin, EditKind.INEQUALITY)
    edits = list(system.edits)
    edits.insert(int(rng.integers(len(edits) + 1)), negated)
    system = EditSystem(tuple(edits), system.variables)
    unknown, target = random_pattern(rng, list(system.variables))
    compiled, D, G, (_, _, bad) = compiled_bounds(system, X, unknown, target)
    assert bad.all()
    for i, x in enumerate(X):
        with pytest.raises(InfeasibleSystemError) as info:
            per_record(system, x, unknown, target)
        err = compiled.infeasibility(system.edits, D[i], G[i], record=i)
        assert type(err) is type(info.value)
        assert err.witness is not None


def test_known_edit_violation_names_record_and_edit():
    system = EditSystem(
        (Edit({"a": 1.0, "b": -1.0}, 0.0, EditKind.INEQUALITY), Edit({"c": 1.0}, 0.0, EditKind.INEQUALITY)),
        ("a", "b", "c"),
    )
    compiled, D, G, (_, _, bad) = compiled_bounds(system, np.array([[1.0, 3.0, 0.0]]), ["c"], "c")
    assert bad[0]
    err = compiled.infeasibility(system.edits, D[0], G[0], record=7)
    assert isinstance(err, InfeasibleRecordError)
    assert (err.record, err.edit_index, err.witness) == (7, 0, system.edits[0])
    assert str(err) == "record 7, variable 'c': record 7 violates edit 0 before imputation (residual -2)"


def test_impute_reports_first_infeasible_record():
    # Record 2 cannot reach x <= y - 5 with y = 1 and x >= 0; record 4 neither.
    system = EditSystem(
        (Edit({"x": 1.0}, 0.0, EditKind.INEQUALITY), Edit({"y": 1.0, "x": -1.0}, -5.0, EditKind.INEQUALITY)),
        ("x", "y"),
    )
    values = np.array([[1.0, 9.0], [2.0, 9.0], [0.0, 1.0], [3.0, 9.0], [0.0, 2.0], [4.0, 9.0]])
    mask = np.zeros_like(values, dtype=bool)
    mask[[2, 4], 0] = True
    values[mask] = np.nan
    data = DataMatrix(values, mask, ("x", "y"))
    with pytest.raises(InfeasibleSystemError, match=r"^record 2, variable 'x': no admissible value for x"):
        impute(data, system, None, ImputationConfig("upma"))


def run_with(monkeypatch, compiler, data, system, totals, method):
    with monkeypatch.context() as patch:
        patch.setattr(pipeline, "_PatternCompiler", compiler)
        return impute(data, system, None if method == "upma" else totals, ImputationConfig(method, seed=3))


@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow, HealthCheck.function_scoped_fixture])
@given(seeds)
def test_imputation_matches_per_record_derivation(monkeypatch, seed):
    data, system, totals, _ = random_imputation_instance(np.random.default_rng(seed), max_records=200)
    for method in ("upma", "bpma", "bpmr"):
        try:
            ref, ref_diag = run_with(monkeypatch, PerRecordIntervals, data, system, totals, method)
        except CalimpError as err:
            with pytest.raises(type(err)):
                impute(data, system, None if method == "upma" else totals, ImputationConfig(method, seed=3))
            continue
        out, diag = impute(data, system, None if method == "upma" else totals, ImputationConfig(method, seed=3))
        scale = np.maximum(1.0, np.abs(ref.values))
        assert np.all(np.abs(out.values - ref.values) <= RTOL * scale), method
        for row, ref_row in zip(diag, ref_diag):
            assert row["companions_written"] == ref_row["companions_written"]
            assert {k: row["intervals"][k] for k in ref_row["intervals"]} == ref_row["intervals"]


@settings(max_examples=20, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(seeds)
def test_permuting_records_permutes_the_imputation(seed):
    rng = np.random.default_rng(seed)
    data, system, totals, _ = random_imputation_instance(rng, max_records=200)
    perm = rng.permutation(data.n_records)
    shuffled = DataMatrix(data.values[perm], data.mask[perm], data.columns, data.weights[perm])
    for method in ("upma", "bpma"):
        try:
            out, _ = impute(data, system, None if method == "upma" else totals, ImputationConfig(method))
        except InfeasibleSystemError:
            continue
        again, _ = impute(shuffled, system, None if method == "upma" else totals, ImputationConfig(method))
        # Row order changes only the summation order of the fits and sums.
        scale = np.maximum(1.0, np.abs(out.values[perm]))
        assert np.all(np.abs(again.values - out.values[perm]) <= 1e-10 * scale), method


def test_diagnostics_count_compiled_patterns():
    x2 = np.array([2.0, 1.0, 3.0, 2.0, 2.5, 1.5, 3.5, 1.0])
    x1 = np.array([6.0, 5.0, 9.0, 7.0, 8.0, 4.0, 10.0, 5.5])
    values = np.column_stack([x1, x2, x1 + x2])
    mask = np.zeros_like(values, dtype=bool)
    mask[0, 0] = mask[1, 0] = mask[1, 1] = mask[2, 0] = True
    values[mask] = np.nan
    system = EditSystem(
        (
            Edit({"x1": 1.0, "x2": 1.0, "P": -1.0}, 0.0, EditKind.EQUALITY),
            Edit({"x1": 1.0, "x2": -1.0}, 0.0, EditKind.INEQUALITY),
            Edit({"x2": 1.0}, 0.0, EditKind.INEQUALITY),
        ),
        ("x1", "x2", "P"),
    )
    _, diag = impute(DataMatrix(values, mask, ("x1", "x2", "P")), system, None,
                     ImputationConfig("upma", rounds=1, variable_order=["x1", "x2"]))
    # x1 is missing alone in records 0 and 2 and with x2 in record 1; the
    # balance edit then writes record 1's x2, leaving x2 one pattern.
    assert [row["intervals"]["patterns"] for row in diag] == [2, 1]
    assert diag[0]["companions_written"] == 1


def test_target_outside_every_edit_is_unbounded():
    values = np.array([[1.0, 2.0], [2.0, np.nan], [3.0, 5.0], [4.0, 7.0], [5.0, 9.0]])
    data = DataMatrix(values, np.isnan(values), ("a", "b"))
    for system in (EditSystem((), ()), EditSystem((Edit({"a": 1.0}, 0.0, EditKind.INEQUALITY),), ("a",))):
        _, diag = impute(data, system, None, ImputationConfig("upma"))
        assert diag[0]["intervals"] == {"count": 1, "degenerate": 0, "bounded": 0, "unbounded": 1, "patterns": 1}


def test_compiled_pivots_and_projection_order_match_per_record_derivation():
    """On every (pattern, target) of the 8-variable survey system, the
    compiled equality pivots and projection order are the per-record
    derivation's: both break ties between equal coefficients and counts
    by name, which keeps the two derivations' arithmetic the same."""
    system = parse_edit_rules(SURVEY_RULES)
    names = system.variables
    record = dict(zip(SURVEY_COLUMNS, (600.0, 300.0, 900.0, 200.0, 250.0, 100.0, 550.0, 350.0)))
    for bits in range(1, 2 ** len(names)):
        unknown = [v for j, v in enumerate(names) if bits >> j & 1]
        known = {v: x for v, x in record.items() if v not in unknown}
        for target in unknown:
            compiled = compile_for(system, unknown, target)
            _, elimination = fm.admissible_interval(reduce_system(system, known), target)
            pivots = [compiled.unknown[p] for p, _ in compiled.substitutions]
            projected = [compiled.unknown[p] for p, _ in compiled.slices]
            assert pivots == [v for v, _ in elimination.eq_subs], (unknown, target)
            assert projected == [v for v, _ in elimination.fm_steps], (unknown, target)


@examples
@given(seeds)
def test_column_order_does_not_change_the_compiled_derivation(seed):
    """Ties between pivots and projection candidates break by name, not by
    column position: permuting the columns of the matrix with their names
    compiles the same derivation."""
    rng = np.random.default_rng(seed)
    system, _ = truth_first_system(rng)
    unknown, target = random_pattern(rng, list(system.variables))
    permuted = [system.variables[j] for j in rng.permutation(len(system.variables))]
    a, b = (compile_for(system, unknown, target, columns) for columns in (system.variables, permuted))
    assert (a.unknown, a.substitutions, a.slices) == (b.unknown, b.substitutions, b.slices)
    for name in ("bound_coef", "bound_comb", "check_comb", "slice_comb", "substitution_comb", "companion_comb"):
        assert np.array_equal(getattr(a, name), getattr(b, name)), name
