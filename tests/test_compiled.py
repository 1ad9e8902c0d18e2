"""The compiled per-pattern interval derivation against its oracles.

``fm.compile_interval`` replays the symbolic steps of
``fm.admissible_interval`` once per unknown pattern; these tests check it
against the per-record derivation (intervals and errors), the lattice
feasibility oracle, and whole imputations run the per-record way.
"""

import itertools
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from calimp import fm, pipeline
from calimp.edits import (
    DEFAULT_TOL, Edit, EditKind, EditSystem, parse_edit_rules, record_scale, reduce_system, reduced_constants,
    system_matrices, violation_matrix,
)
from calimp.errors import CalimpError, InfeasibleAdjustmentError, InfeasibleRecordError, InfeasibleSystemError
from calimp.mcmc import PairSystems
from calimp.pipeline import DataMatrix, ImputationConfig, check_inputs, impute

from _oracles import (
    GridOracle, PerRecordIntervals, random_imputation_instance, random_inequality_system, scalar_complete,
)
from test_pair_systems import (
    BLANK_PAIR_MARGIN, CASES, SURVEY_COLUMNS, SURVEY_RULES, build, survey_blank_pair_below_zero,
    survey_near_zero_other, survey_truth,
)

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


def blanked(system, X, unknown):
    """``X`` with the ``unknown`` columns NaN."""
    Xu = np.array(X, dtype=float)
    Xu[:, [system.variables.index(v) for v in unknown]] = np.nan
    return Xu


def compiled_bounds(system, X, unknown, target):
    """The compiled derivation on the records ``X`` with the ``unknown``
    columns blanked: it, their reduced constants and margin scales, and
    ``evaluate``'s bounds and flags."""
    compiled = compile_for(system, unknown, target)
    A, b, _ = system_matrices(system, system.variables)
    Xu = blanked(system, X, unknown)
    D, S = reduced_constants(A, b, Xu), record_scale(Xu[:, A.any(axis=0)])
    return compiled, D, S, compiled.evaluate(D, S)


def assert_refused(system, Xu):
    """``check_inputs`` refuses the records ``Xu`` (NaN where unknown)
    with :class:`InfeasibleRecordError`: the compiled derivation does not
    check their fully known edits, which the input check already has."""
    data = DataMatrix(Xu, np.isnan(Xu), system.variables)
    with pytest.raises(InfeasibleRecordError):
        check_inputs(data, system, None, None)


def close(a, b, scale):
    if math.isinf(a) or math.isinf(b):
        return a == b
    return abs(a - b) <= RTOL * max(1.0, abs(a), abs(b), scale)


@examples
@given(seeds)
def test_intervals_match_per_record_derivation(seed):
    rng = np.random.default_rng(seed)
    system, X = truth_first_system(rng)
    unknown, target = random_pattern(rng, list(system.variables))
    _, _, _, (lower, upper, bad) = compiled_bounds(system, X, unknown, target)
    assert not bad.any()
    for i, x in enumerate(X):
        scale = float(np.abs(x).max())
        interval, _ = per_record(system, x, unknown, target)
        assert close(lower[i], interval.lower, scale), (lower[i], interval)
        assert close(upper[i], interval.upper, scale), (upper[i], interval)


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
    xu = blanked(system, x[None, :], unknown)
    if violation_matrix(system, xu, names).any():
        # A known edit is broken: the input check refuses the record, and
        # the reference's reduction agrees.
        assert_refused(system, xu)
        with pytest.raises(InfeasibleRecordError):
            reduce_system(system, known)
        return
    reduced = reduce_system(system, known)
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
    compiled, D, S, (_, _, bad) = compiled_bounds(system, X, unknown, target)
    # A record that knows every variable of the negated edit breaks a known
    # edit, which the input check refuses; the compiled derivation flags
    # every other record.
    refused = violation_matrix(system, blanked(system, X, unknown), system.variables).any(axis=1)
    assert (bad | refused).all()
    for i, x in enumerate(X):
        with pytest.raises(InfeasibleSystemError) as info:
            per_record(system, x, unknown, target)
        if refused[i]:
            assert type(info.value) is InfeasibleRecordError
            assert_refused(system, blanked(system, X[i : i + 1], unknown))
            continue
        err = compiled.infeasibility(system.edits, D[i], S[i], record=i)
        assert type(err) is type(info.value)
        assert err.witness is not None


def test_known_edit_violation_names_record_and_edit():
    # Record 7 breaks a >= b, which knows both its variables: the input
    # check refuses it before any interval is derived, naming the record
    # and the edit.
    system = EditSystem(
        (Edit({"a": 1.0, "b": -1.0}, 0.0, EditKind.INEQUALITY), Edit({"c": 1.0}, 0.0, EditKind.INEQUALITY)),
        ("a", "b", "c"),
    )
    values = np.array([[4.0, 2.0, 1.0]] * 7 + [[1.0, 3.0, 0.0]] + [[5.0, 1.0, 2.0]] * 4)
    mask = np.zeros(values.shape, dtype=bool)
    mask[[2, 7, 9], 2] = True
    values[mask] = np.nan
    data = DataMatrix(values, mask, system.variables)
    for run in (lambda: check_inputs(data, system, None, None), lambda: impute(data, system)):
        with pytest.raises(InfeasibleRecordError) as info:
            run()
        err = info.value
        assert (err.record, err.edit_index, err.witness) == (7, 0, system.edits[0])
        assert str(err) == "record 7 violates edit 0 (residual -2)"


@pytest.mark.parametrize("method", ["upma", "bpma", "bpmr"])
def test_known_edit_within_validates_margin_is_accepted(method):
    # Record 0 meets its edits only to validate's margin, 1e-9 times
    # turnover = 5002 (5.0e-6): it observes other = -1e-6, whose own
    # magnitude would give a margin of 1e-9, or its blank staff and
    # materials must sum to -4.5e-6, or to 2.9 times the margin, so their
    # bounds cross by that much, which the bound rows allow within their
    # own margins (the record's margin times each row's mass), where the
    # bounds' own magnitudes would allow 4.5e-15.  The input check accepts
    # the record, so no method refuses it: upma completes and its output
    # validates; bpma and bpmr fail only on round 1's adjustment of costs,
    # whose cells the balances all pin (a failure on feasible input that
    # is still open).
    cases = {
        "near-zero": survey_near_zero_other(),
        "blank-pair": survey_blank_pair_below_zero(),
        "blank-pair-wide": survey_blank_pair_below_zero(2.9 * BLANK_PAIR_MARGIN),
    }
    for name, (truth, mask, edits) in cases.items():
        data = DataMatrix(np.where(mask, np.nan, truth), mask, SURVEY_COLUMNS)
        totals = dict(zip(SURVEY_COLUMNS, truth.sum(axis=0).tolist()))
        check_inputs(data, edits, totals, None)
        try:
            out, _ = impute(data, edits, totals, ImputationConfig(method, seed=5))
        except CalimpError as err:
            assert method != "upma", (name, err)
            assert type(err.__cause__) is InfeasibleAdjustmentError, (name, err)
            assert str(err).startswith("variable 'costs', round 1: "), (name, err)
            continue
        assert not violation_matrix(edits, out.values, SURVEY_COLUMNS).any()


#: Each survey column with a nonnegativity edit, and a partner in the same
#: balance that no other inequality reads: moving value onto the partner
#: keeps every edit but the column's own.
NONNEGATIVE = {"goods": "services", "services": "goods", "staff": "materials", "materials": "other", "other": "materials"}


@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(seeds)
def test_observed_cell_just_below_zero_is_not_refused(seed):
    # One observed nonnegative cell of a record with a blank cell is set to
    # -0.5 times validate's margin; its partner in the same balance takes
    # up the difference, so every equality still holds and every sum stays
    # as it was.  The input check accepts the record, and impute never
    # refuses it.
    rng = np.random.default_rng(seed)
    truth, edits = survey_truth(rng, 120)
    mask = rng.random(truth.shape) < 0.15
    col = {name: j for j, name in enumerate(SURVEY_COLUMNS)}
    i = int(rng.choice(np.flatnonzero(mask.any(axis=1))))
    observed = [name for name in NONNEGATIVE if not mask[i, col[name]]]
    if not observed:
        return
    name = observed[int(rng.integers(len(observed)))]
    cell, partner = col[name], col[NONNEGATIVE[name]]
    truth[i, partner] += truth[i, cell]
    truth[i, cell] = 0.0
    margin = DEFAULT_TOL * max(1.0, float(np.abs(truth[i][~mask[i]]).max()))
    truth[i, partner] += 0.5 * margin
    truth[i, cell] = -0.5 * margin
    data = DataMatrix(np.where(mask, np.nan, truth), mask, SURVEY_COLUMNS)
    totals = dict(zip(SURVEY_COLUMNS, truth.sum(axis=0).tolist()))
    check_inputs(data, edits, totals, None)
    for method in ("upma", "bpma", "bpmr"):
        try:
            impute(data, edits, totals, ImputationConfig(method, seed=seed % 1000))
        except CalimpError as err:
            assert not isinstance(err, InfeasibleRecordError), (method, err)


#: The costs cells that can be blank together while the third is observed
#: at more than costs: staff <= 0.8*costs keeps staff among them.
BLANK_PAIRS = (("staff", "materials"), ("staff", "other"))


@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(seeds)
def test_blank_pair_forced_just_below_zero_is_not_refused(seed):
    # One record leaves two costs cells blank and observes the third at
    # costs plus 0.1 to 2.9 times validate's margin, so the blank pair
    # must sum to that much below 0, where their nonnegativity edits bound
    # them; every other cell of the record is observed and every equality
    # holds.  The input check accepts the record, and it is feasible: each
    # blank cell may lie a margin below 0 and the costs balance may miss
    # by one more.  So upma imputes the data: the bounds of each blank
    # cell cross by less than their rows' margins allow and meet at a
    # point.
    rng = np.random.default_rng(seed)
    truth, edits = survey_truth(rng, 200)
    mask = rng.random(truth.shape) < 0.1
    col = {name: j for j, name in enumerate(SURVEY_COLUMNS)}
    i = int(rng.integers(len(truth)))
    pair = [col[name] for name in BLANK_PAIRS[int(rng.integers(len(BLANK_PAIRS)))]]
    (third,) = {col["staff"], col["materials"], col["other"]} - set(pair)
    mask[i] = False
    mask[i, pair] = True
    shortfall = rng.uniform(0.1, 2.9) * DEFAULT_TOL * float(np.abs(truth[i][~mask[i]]).max())
    truth[i, third] = truth[i, col["costs"]] + shortfall
    truth[i, pair] = -0.5 * shortfall
    data = DataMatrix(np.where(mask, np.nan, truth), mask, SURVEY_COLUMNS)
    check_inputs(data, edits, None, None)
    out, _ = impute(data, edits, None, ImputationConfig("upma"))
    assert (out.values[i, pair] < 0).all()


def values_or_error(run):
    """The imputed values of ``run()``, or the ``CalimpError`` it raised."""
    try:
        return run()[0].values
    except CalimpError as err:
        return err


@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow, HealthCheck.function_scoped_fixture])
@given(st.one_of(st.floats(0.0, 2.9, exclude_min=True), st.floats(3.1, 6.0, exclude_max=True)))
def test_blank_pair_is_refused_only_past_its_rows_margins(monkeypatch, g):
    # The blank pair of survey_blank_pair_below_zero forced g times the
    # record's margin below 0.  Each bound row holds to its own margin, so
    # the record is feasible up to g = 3: each blank cell a margin below 0,
    # the costs balance missing by one more.  Up to 2.9, upma completes and
    # its output validates, and bpma and bpmr stop, if at all, only on
    # round 1's adjustment of costs (a failure on feasible input that is
    # still open); from 3.1, every method refuses the record with an
    # interval error and no other.  The per-record derivation gives the
    # same values or the same error.
    truth, mask, edits = survey_blank_pair_below_zero(g * BLANK_PAIR_MARGIN)
    data = DataMatrix(np.where(mask, np.nan, truth), mask, SURVEY_COLUMNS)
    every = dict(zip(SURVEY_COLUMNS, truth.sum(axis=0).tolist()))
    for method in ("upma", "bpma", "bpmr"):
        totals, config = None if method == "upma" else every, ImputationConfig(method, seed=5)
        got = values_or_error(lambda: impute(data, edits, totals, config))
        ref = values_or_error(lambda: run_with(monkeypatch, PerRecordIntervals, data, edits, totals, config))
        if isinstance(got, CalimpError):
            assert type(ref) is type(got) and str(ref) == str(got), (method, got, ref)
            if g > 3:
                assert type(got) is InfeasibleSystemError and got.__cause__ is None, (method, got)
                assert str(got).startswith("record 0, variable 'materials': no admissible value"), (method, got)
            else:
                assert method != "upma", got
                assert type(got.__cause__) is InfeasibleAdjustmentError, (method, got)
                assert str(got).startswith("variable 'costs', round 1: "), (method, got)
            continue
        assert g < 3 and not isinstance(ref, CalimpError), (method, ref)
        pipeline.validate(got, data, edits, totals)
        assert np.all(np.abs(got - ref) <= RTOL * np.maximum(1.0, np.abs(ref))), method


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


def run_with(monkeypatch, compiler, data, system, totals, config):
    with monkeypatch.context() as patch:
        patch.setattr(pipeline, "_PatternCompiler", compiler)
        return impute(data, system, totals, config)


def assert_matches_per_record(monkeypatch, data, system, totals, method, rounds=2):
    """``impute`` against the same imputation with every interval derived
    per record: the same error type where the reference raises, else
    values within ``RTOL`` and the same interval counts on every row."""
    config = ImputationConfig(method, rounds=rounds, seed=3)
    totals = None if method == "upma" else totals
    try:
        ref, ref_diag = run_with(monkeypatch, PerRecordIntervals, data, system, totals, config)
    except CalimpError as err:
        with pytest.raises(type(err)):
            impute(data, system, totals, config)
        return
    out, diag = impute(data, system, totals, config)
    scale = np.maximum(1.0, np.abs(ref.values))
    assert np.all(np.abs(out.values - ref.values) <= RTOL * scale), (method, rounds)
    assert len(diag) == len(ref_diag)
    for row, ref_row in zip(diag, ref_diag):
        assert {k: row["intervals"][k] for k in ref_row["intervals"]} == ref_row["intervals"]


@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow, HealthCheck.function_scoped_fixture])
@given(seeds)
def test_imputation_matches_per_record_derivation(monkeypatch, seed):
    data, system, totals, _ = random_imputation_instance(np.random.default_rng(seed), max_records=200)
    for method in ("upma", "bpma", "bpmr"):
        assert_matches_per_record(monkeypatch, data, system, totals, method)


@pytest.mark.parametrize("seed", range(8))
def test_survey_imputation_matches_per_record_derivation(monkeypatch, seed):
    """Survey records, where no column is always observed: a target's cells
    may be forced by earlier targets while they are still unknown."""
    rng = np.random.default_rng(seed)
    truth, system = survey_truth(rng, int(rng.integers(200, 301)))
    mask = rng.random(truth.shape) < rng.uniform(0.15, 0.2)
    weights = rng.uniform(0.5, 2.0, len(truth)) if seed % 2 else None
    data = DataMatrix(np.where(mask, np.nan, truth), mask, SURVEY_COLUMNS, weights)
    totals = dict(zip(SURVEY_COLUMNS, (data.weights @ truth).tolist()))
    for method in ("upma", "bpma", "bpmr"):
        for rounds in (1, 2):
            assert_matches_per_record(monkeypatch, data, system, totals, method, rounds)


def forced_later_target_data():
    """``x1 + x2 = P`` with x1 and x2 missing together, imputed in the order
    ``[x1, y, x2]``: once x1 is imputed, the balance edit forces every
    missing x2 cell, but x2 is a later target than y."""
    rng = np.random.default_rng(5)
    x1, x2 = rng.uniform(5.0, 50.0, 40), rng.uniform(5.0, 50.0, 40)
    truth = np.column_stack([x1, 0.4 * (x1 + x2) + rng.uniform(0.0, 3.0, 40), x2, x1 + x2])
    mask = np.zeros(truth.shape, dtype=bool)
    mask[:6, [0, 2]] = True
    mask[3:11, 1] = True
    data = DataMatrix(np.where(mask, np.nan, truth), mask, ("x1", "y", "x2", "P"))
    system = parse_edit_rules("x1 + x2 = P\nx1 >= 0\ny >= 0\nx2 >= 0\n")
    return data, system, dict(zip(data.columns, truth.sum(axis=0).tolist()))


@pytest.mark.parametrize("case", ["forced", "survey"])
def test_each_step_writes_only_its_target_column(monkeypatch, case):
    """Between two steps' derivations, ``current`` changes only in the
    earlier step's target column and in the cells the later step blanks
    in its own; after the last step, only in its target column.  Round 2
    derives only the targets in no equality (the forced case's y), and
    every other target keeps its column as round 1 left it."""
    if case == "forced":
        data, system, totals = forced_later_target_data()
        config = ImputationConfig("bpma", variable_order=["x1", "y", "x2"])
    else:
        rng = np.random.default_rng(1)
        truth, system = survey_truth(rng, 300)
        mask = rng.random(truth.shape) < 0.15
        data = DataMatrix(np.where(mask, np.nan, truth), mask, SURVEY_COLUMNS)
        totals, config = None, ImputationConfig("upma")
    seen = []

    class Recorder(pipeline._PatternCompiler):
        def intervals(self, current, rows, target):
            seen.append((data.column_index(target), rows, current.copy()))
            return super().intervals(current, rows, target)

    out, _ = run_with(monkeypatch, Recorder, data, system, totals, config)
    order = pipeline.variable_order(data, config)
    in_equality = {v for edit in system.edits if edit.kind is EditKind.EQUALITY for v in edit.coeffs}
    refitted = [name for name in order if name not in in_equality]
    assert refitted == (["y"] if case == "forced" else [])
    assert len(seen) == len(order) + len(refitted)
    once, _ = impute(data, system, totals, replace(config, rounds=1))
    for name in in_equality & set(order):
        j = data.column_index(name)
        assert out.values[:, j].tobytes() == once.values[:, j].tobytes(), name
    for k, (t, _, before) in enumerate(seen):
        after = seen[k + 1][2] if k + 1 < len(seen) else out.values
        changed = ~((before == after) | (np.isnan(before) & np.isnan(after)))
        changed[:, t] = False
        if k + 1 < len(seen):
            t_next, rows_next, _ = seen[k + 1]
            changed[rows_next, t_next] &= ~np.isnan(after[rows_next, t_next])
        assert not changed.any(), (k, np.argwhere(changed)[:5])


def test_explicit_round1_predictor_must_precede_its_target():
    """An explicit round-1 predictor is complete only once it is imputed,
    even where an earlier target's balance edit forces all its cells."""
    data, system, _ = forced_later_target_data()
    predictors = {"y": ["x2"]}
    with pytest.raises(ValueError, match=r"^predictor\(s\) \['x2'\] for target 'y' are not complete yet$"):
        impute(data, system, None, ImputationConfig("upma", predictors=predictors, variable_order=["x1", "y", "x2"]))
    out, diag = impute(data, system, None, ImputationConfig("upma", predictors=predictors, variable_order=["x1", "x2", "y"]))
    assert diag[2]["predictors"] == ["x2"]
    assert not np.isnan(out.values).any()


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
    # x1 is missing alone in records 0 and 2 and with x2 in record 1; at
    # x2's turn record 1 lacks x2 alone, which the balance edit pins.
    assert [row["intervals"]["patterns"] for row in diag] == [2, 1]
    assert diag[1]["intervals"]["degenerate"] == 1


def test_target_outside_every_edit_is_unbounded():
    values = np.array([[1.0, 2.0], [2.0, np.nan], [3.0, 5.0], [4.0, 7.0], [5.0, 9.0]])
    data = DataMatrix(values, np.isnan(values), ("a", "b"))
    for system in (EditSystem((), ()), EditSystem((Edit({"a": 1.0}, 0.0, EditKind.INEQUALITY),), ("a",))):
        _, diag = impute(data, system, None, ImputationConfig("upma"))
        assert diag[0]["intervals"] == {"count": 1, "degenerate": 0, "bounded": 0, "unbounded": 1, "patterns": 1}


@pytest.mark.parametrize("width, point", [(1.0, -0.5), (2.5, -1.0), (3.5, None)])
def test_crossed_bounds_meet_within_each_rows_margin(width, point):
    # x >= 0 and y >= 0 with x + y = -width * DEFAULT_TOL, nothing known
    # (margin scale 1): x's bounds are 0, from a row of mass 1, and -width
    # * DEFAULT_TOL, from y >= 0 through the equality, of mass 2.  Each row
    # may miss by DEFAULT_TOL times its mass, so the bounds meet up to a
    # width of 3, at the midpoint clamped into [-1, 2 - width] * DEFAULT_TOL
    # (at -1 for a width of 2.5); a wider crossing is empty.  The
    # per-record derivation agrees, and without margins the bounds meet at
    # the midpoint whatever the width.
    system = EditSystem(
        (Edit({"x": 1.0}, 0.0, EditKind.INEQUALITY), Edit({"y": 1.0}, 0.0, EditKind.INEQUALITY),
         Edit({"x": 1.0, "y": 1.0}, width * DEFAULT_TOL, EditKind.EQUALITY)),
        ("x", "y"),
    )
    A, b, is_eq = system_matrices(system, system.variables)
    compiled = fm.compile_interval(A, is_eq, system.variables, ["x", "y"], "x")
    assert compiled.bound_mass.tolist() == [1.0, 2.0]
    D = reduced_constants(A, b, np.full((1, 2), np.nan))
    lower, upper, bad = compiled.evaluate(D, np.ones(1))
    anywhere, _, _ = fm.read_bounds(D @ compiled.bound_comb.T, compiled.bound_coef)
    assert anywhere[0] == -0.5 * width * DEFAULT_TOL
    if point is None:
        assert bad[0] and (lower[0], upper[0]) == (0.0, -width * DEFAULT_TOL)
        with pytest.raises(InfeasibleSystemError, match="no admissible value for x"):
            fm.admissible_interval(system.edits, "x")
        return
    assert not bad[0] and lower[0] == upper[0] == pytest.approx(point * DEFAULT_TOL, rel=1e-12)
    interval, _ = fm.admissible_interval(system.edits, "x")
    assert (interval.lower, interval.upper) == (lower[0], upper[0])


#: A survey record meeting every survey edit.
SURVEY_RECORD = dict(zip(SURVEY_COLUMNS, (600.0, 300.0, 900.0, 200.0, 250.0, 100.0, 550.0, 350.0)))


def survey_patterns():
    """Every (unknown pattern, target) of the 8-variable survey system."""
    names = parse_edit_rules(SURVEY_RULES).variables
    for bits in range(1, 2 ** len(names)):
        unknown = [v for j, v in enumerate(names) if bits >> j & 1]
        for target in unknown:
            yield unknown, target


def test_compiled_pivots_and_projection_order_match_per_record_derivation():
    """On every (pattern, target) of the 8-variable survey system, the
    compiled equality pivots and projection order are the per-record
    derivation's: both break ties between equal coefficients and counts
    by name, which keeps the two derivations' arithmetic the same."""
    system = parse_edit_rules(SURVEY_RULES)
    for unknown, target in survey_patterns():
        known = {v: x for v, x in SURVEY_RECORD.items() if v not in unknown}
        compiled = compile_for(system, unknown, target)
        _, elimination = fm.admissible_interval(reduce_system(system, known), target)
        pivots = [compiled.unknown[p] for p in compiled.substitution_var]
        projected = [compiled.unknown[p] for p in dict.fromkeys(compiled.slice_var.tolist())]
        assert pivots == [v for v, _ in elimination.eq_subs], (unknown, target)
        assert projected == [v for v, _ in elimination.fm_steps], (unknown, target)


def values_inside(lower, upper, truth, rng, k=4):
    """``k`` values per record inside ``[lower, upper]``: both finite ends
    and random points between, a half-open side reaching 10 units past
    the truth."""
    lo = np.where(np.isfinite(lower), lower, np.minimum(truth, upper) - 10.0)
    hi = np.where(np.isfinite(upper), upper, np.maximum(truth, lower) + 10.0)
    u = np.column_stack([np.zeros_like(lo), np.ones_like(lo), rng.random((len(lo), k - 2))])
    return np.minimum(np.maximum(lo[:, None] + u * (hi - lo)[:, None], lower[:, None]), upper[:, None])


def assert_completes(system, compiled, X, rng):
    """``compiled.complete`` of the records ``X`` (truths, one per row) at
    values inside their intervals, with ``current`` at the truth: each
    completion equals ``_oracles.scalar_complete`` to ``RTOL`` times the
    record's magnitude, and the completed records pass
    ``violation_matrix``.  Returns how many merged slice rows with two or
    more combinations and pivots with two or more terms it met."""
    A, b, _ = system_matrices(system, system.variables)
    Xu = blanked(system, X, compiled.unknown)
    D = reduced_constants(A, b, Xu)
    lower, upper, bad = compiled.evaluate(D, record_scale(Xu[:, A.any(axis=0)]))
    assert not bad.any()
    cols = [system.variables.index(v) for v in compiled.unknown]
    at = compiled.unknown.index(compiled.target)
    value = values_inside(lower, upper, X[:, cols[at]], rng)
    k = value.shape[1]
    Y = np.repeat(D @ np.vstack([compiled.slice_comb, compiled.substitution_comb]).T, k, axis=0)
    current = np.repeat(X[:, cols], k, axis=0)
    solved = compiled.complete(value.ravel(), Y, current)
    for i, (v, y, c, got) in enumerate(zip(value.ravel().tolist(), Y.tolist(), current.tolist(), solved)):
        want = scalar_complete(compiled, v, y, c)
        scale = max(1.0, float(np.abs(X[i // k]).max()), abs(v))
        assert np.all(np.abs(got - want) <= RTOL * scale), (compiled.unknown, compiled.target, got, want)
    completed = np.repeat(X, k, axis=0)
    completed[:, cols] = solved
    assert not violation_matrix(system, completed, system.variables).any(), (compiled.unknown, compiled.target)
    coef = compiled.slice_coef
    repeated = (compiled.slice_var[1:] == compiled.slice_var[:-1]) & (coef[1:] == coef[:-1]).all(axis=1)
    return int(repeated.sum()), int(((compiled.substitution_coef != 0).sum(axis=1) >= 2).sum())


def test_complete_matches_the_scalar_completion_on_every_survey_pattern():
    """``CompiledInterval.complete`` on every (pattern, target) of the
    survey system at a truth record, against the term-by-term completion.
    The corpus holds the cases where the dense rows' matrix products sum
    differently from a loop over terms: a merged slice row with two or
    more combinations, and a pivot with two or more terms."""
    system = parse_edit_rules(SURVEY_RULES)
    X = np.array([[SURVEY_RECORD[v] for v in system.variables]])
    rng = np.random.default_rng(0)
    merged = pivots = 0
    for unknown, target in survey_patterns():
        m, p = assert_completes(system, compile_for(system, unknown, target), X, rng)
        merged, pivots = merged + m, pivots + p
    assert merged > 0 and pivots > 0, (merged, pivots)


@examples
@given(seeds)
def test_complete_matches_the_scalar_completion_on_truth_first_systems(seed):
    rng = np.random.default_rng(seed)
    system, X = truth_first_system(rng)
    unknown, target = random_pattern(rng, list(system.variables))
    assert_completes(system, compile_for(system, unknown, target), X, rng)


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
    assert a.unknown == b.unknown
    for name in (
        "bound_coef", "bound_comb", "check_comb", "slice_var", "slice_coef", "slice_comb",
        "substitution_var", "substitution_coef", "substitution_comb",
    ):
        assert np.array_equal(getattr(a, name), getattr(b, name)), name


# ---------------------------------------------------------------------------
# Block keys: impute and the chain compile a target's interval over its
# block of unknowns, not over the record's or the pair's whole unknown
# pattern.

class FullKeys(pipeline._PatternCompiler):
    """The compiler keyed on the whole unknown pattern: every pattern is
    its own block."""

    def __init__(self, edits, columns):
        super().__init__(edits, columns)
        self.derive.blocks = lambda patterns, target: patterns


def walked_block(system, unknown, target):
    """The unknowns joined to ``target`` through edits that read an
    unknown, found one edit at a time, and the target."""
    block = {target}
    frontier = list(block)
    while frontier:
        v = frontier.pop()
        for edit in system.edits:
            if v in edit.coeffs:
                joined = {u for u in edit.coeffs if u in unknown} - block
                block |= joined
                frontier.extend(joined)
    return block


def assert_block_compiles_as_pattern(derive, pattern, block, target):
    """``derive`` over ``block`` has the bound rows, their masses and
    ``pinned`` that it compiles over the whole ``pattern`` (rows over
    ``derive.names``), byte for byte; returns both, the full one first."""
    full, cut = derive(pattern, target), derive(block, target)
    assert cut.pinned == full.pinned, (pattern, target)
    for name in ("bound_coef", "bound_comb", "bound_mass"):
        assert getattr(cut, name).tobytes() == getattr(full, name).tobytes(), (pattern, target, name)
    return full, cut


def assert_block_key_matches_full_key(system, patterns, target, X):
    """For each unknown pattern (a row of ``patterns`` over the system's
    variables, all holding ``target``): the block that
    ``fm.Derivations.blocks`` finds for all of them at once is the walked
    block, and the block key compiles the full key's bound rows, masses and
    ``pinned``, and the full key's check rows of the block's own edits.  At
    the records ``X`` with the pattern blanked, ``evaluate`` gives
    byte-identical bounds and the same flags.  Returns how many blocks
    are smaller than their pattern."""
    names = system.variables
    A, b, is_eq = system_matrices(system, names)
    derive = fm.Derivations(A, is_eq, names)
    blocks = derive.blocks(patterns, target)
    for pattern, block in zip(patterns, blocks):
        unknown = [v for v, m in zip(names, pattern) if m]
        inside = [v for v, m in zip(names, block) if m]
        assert set(inside) == walked_block(system, unknown, target), (unknown, target)
        full, cut = assert_block_compiles_as_pattern(derive, pattern, block, target)
        reads = {k for k, edit in enumerate(system.edits) if set(edit.coeffs) & set(inside)}
        own = [q for q, comb in enumerate(full.check_comb) if set(np.flatnonzero(comb)) <= reads]
        assert cut.check_comb.tobytes() == full.check_comb[own].tobytes(), (unknown, target)
        assert cut.check_reason == tuple(full.check_reason[q] for q in own)
        Xu = blanked(system, X, unknown)
        D, S = reduced_constants(A, b, Xu), record_scale(Xu[:, A.any(axis=0)])
        (lo_f, hi_f, bad_f), (lo_c, hi_c, bad_c) = full.evaluate(D, S), cut.evaluate(D, S)
        assert lo_c.tobytes() == lo_f.tobytes() and hi_c.tobytes() == hi_f.tobytes(), (unknown, target)
        assert np.array_equal(bad_c, bad_f), (unknown, target)
    return int((blocks != patterns).any(axis=1).sum())


def assert_pair_block_key_matches_full_key(systems, key):
    """The chain's system of a pair key is its target's derivation over the
    target's block: the one ``systems.derive`` caches for that block, with
    the bound rows, masses and ``pinned`` of the key's whole pattern of
    unknowns (s's imputed columns, then t's free ones).  Returns whether
    the block is smaller than that pattern."""
    j, coupled, free_s, free_t = key
    p = len(systems.columns)
    pattern = np.array([(coupled | free_s) >> c & 1 for c in range(p)] + [free_t >> c & 1 for c in range(p)]) == 1
    system = systems.systems[key]
    block = np.isin(np.arange(2 * p), system.unknowns)
    assert not (block & ~pattern).any(), key
    target = systems.derive.names[j]
    assert system.compiled is systems.derive(block, target), key
    assert_block_compiles_as_pattern(systems.derive, pattern, block, target)
    assert system.coupled.tolist() == (block[:p] & systems.has_total).tolist(), key
    return bool((block != pattern).any())


def test_block_key_matches_the_full_key_on_every_survey_pattern():
    """Every (pattern, target) of the 8-variable survey system, at truth
    records; each target's patterns find their blocks in one call."""
    system = parse_edit_rules(SURVEY_RULES)
    names = system.variables
    truth, _ = survey_truth(np.random.default_rng(0), 5)
    X = np.vstack([[SURVEY_RECORD[v] for v in names], truth[:, [SURVEY_COLUMNS.index(v) for v in names]]])
    bits = (np.arange(1, 2 ** len(names))[:, None] >> np.arange(len(names))) & 1 == 1
    cut = sum(assert_block_key_matches_full_key(system, bits[bits[:, j]], target, X) for j, target in enumerate(names))
    assert cut > 0


@settings(max_examples=30, deadline=None, derandomize=True, suppress_health_check=[HealthCheck.too_slow])
@given(seeds)
def test_block_key_matches_the_full_key_on_random_instances(seed):
    """The same comparison on ``random_imputation_instance`` systems, for
    each unknown pattern of the data and a few random ones, at truth
    records; and ``impute`` with block keys writes the bytes and the
    diagnostics that full keys give."""
    rng = np.random.default_rng(seed)
    data, system, totals, truth = random_imputation_instance(rng, max_records=80)
    assert system.variables == data.columns
    patterns = np.unique(np.vstack([data.mask, rng.random((4, len(data.columns))) < 0.5]), axis=0)
    for j, target in enumerate(system.variables):
        assert_block_key_matches_full_key(system, patterns[patterns[:, j]], target, truth[:12])
    for method in ("upma", "bpma"):
        config = ImputationConfig(method, seed=3)
        given_totals = None if method == "upma" else totals
        out, diag = impute(data, system, given_totals, config)
        with pytest.MonkeyPatch.context() as patch:
            ref, ref_diag = run_with(patch, FullKeys, data, system, given_totals, config)
        assert out.values.tobytes() == ref.values.tobytes(), method
        assert diag == ref_diag, method


@pytest.mark.parametrize("kind", sorted(CASES))
@pytest.mark.parametrize("weighted", [False, True], ids=["equal_weights", "unequal_weights"])
def test_pair_block_key_matches_the_full_key(kind, weighted):
    """Every pair key that four random pairings of each column meet.  Only
    a study pair always holds one block: its balance joins x1 and x2 in
    each record, and their totals join the records."""
    rng = np.random.default_rng(5)
    data, edits, totals = build(kind, rng, weighted)
    systems = PairSystems(data, edits, totals)
    for j, _ in itertools.product(range(len(data.columns)), range(4)):
        records = rng.permutation(np.flatnonzero(data.mask[:, j]))
        pairs = len(records) // 2
        systems.by_key(j, records[0 : 2 * pairs : 2], records[1 : 2 * pairs : 2])
    cut = sum(assert_pair_block_key_matches_full_key(systems, key) for key in systems.systems)
    assert systems.systems
    assert (cut > 0) == (kind != "study"), cut


@pytest.mark.parametrize("seed", [11, 12, 13, 14])
@pytest.mark.parametrize("method", ["upma", "bpma", "bpmr"])
def test_block_keys_impute_the_survey_as_full_keys_do(monkeypatch, method, seed):
    """Bytes and diagnostics, or the error text, of ``impute`` on survey
    samples with 10% of cells blank are those of full keys.  At these seeds
    bpma and bpmr complete some samples and refuse others in round 1."""
    rng = np.random.default_rng(seed)
    truth, edits = survey_truth(rng, 400)
    mask = rng.random(truth.shape) < 0.1
    data = DataMatrix(np.where(mask, np.nan, truth), mask, SURVEY_COLUMNS)
    totals = None if method == "upma" else dict(zip(SURVEY_COLUMNS, truth.sum(axis=0).tolist()))
    config = ImputationConfig(method, seed=4)
    runs = []
    for compiler in (pipeline._PatternCompiler, FullKeys):
        try:
            out, diag = run_with(monkeypatch, compiler, data, edits, totals, config)
        except CalimpError as err:
            runs.append(f"{type(err).__name__}: {err}")
        else:
            runs.append((out.values.tobytes(), diag))
    assert runs[0] == runs[1]


def test_an_infeasible_block_is_refused_at_its_own_first_step(monkeypatch):
    # Record 1 lacks goods, services, staff and materials.  Its {staff,
    # materials} block is infeasible: costs = 40 < other = 50.  The blocks
    # of goods and services do not read it, so their steps pass record 1,
    # and staff's step, still in round 1, refuses it.  The witness names
    # only that block's edits: the costs balance, staff >= 0 and
    # materials >= 0.  A bound of -0.0 prints as 0.
    edits = parse_edit_rules(SURVEY_RULES)
    values = np.array([
        [60, 40, 100, 10, 20, 10, 40, 60],
        [np.nan, np.nan, 100, np.nan, np.nan, 50, 40, 60],
        [60, 40, 100, 20, 20, 10, 50, 50],
    ])
    data = DataMatrix(values, np.isnan(values), SURVEY_COLUMNS)
    totals = {"goods": 180.0, "services": 120.0, "staff": 40.0, "materials": 60.0}
    steps = []

    class Recorder(pipeline._PatternCompiler):
        def intervals(self, current, rows, target):
            steps.append(target)
            return super().intervals(current, rows, target)

    for method in ("upma", "bpma", "bpmr"):
        steps.clear()
        with pytest.raises(InfeasibleSystemError) as info:
            run_with(monkeypatch, Recorder, data, edits, None if method == "upma" else totals, ImputationConfig(method))
        assert steps == ["goods", "services", "staff"], method
        assert str(info.value) == (
            "record 1, variable 'staff': no admissible value for staff: requires >= 0 and <= -10"
        ), method
        named = sorted({edits.edits.index(edit) for side in info.value.witness for edit in side})
        assert named == [1, 5, 6], method
