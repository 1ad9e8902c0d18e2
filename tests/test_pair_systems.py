"""The chain's compiled pair systems against the per-record step.

``mcmc.PairSystems`` compiles each pair system once per key and evaluates
it per step; ``_oracles.pair_step`` takes the same step through
``pair_constraint_system``, ``fm.admissible_interval`` and
``fm.back_substitute``, and ``_oracles.coupled_pair_step`` through the same
functions on the system with the totals solved first.  The chains here are
random walks over consistent truth-first data: each step draws a value
inside the compiled interval and applies the compiled completion.
"""

import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from calimp import fm
from calimp.edits import parse_edit_rules, violation_matrix
from calimp.errors import InfeasibleSystemError
from calimp.mcmc import McmcConfig, PairIndex, PairSystems, mcmc_refine, pair_constraint_system, select_pair
from calimp.pipeline import DataMatrix

from _oracles import coupled_pair_step, pair_step
from test_mcmc import pair_example_data

RTOL = 1e-12

STUDY_RULES = "x1 + x2 = P\nx1 >= x2\nP >= 3*x2\nx1 >= 0\nx2 >= 0\nP >= 0\n"
FIVE_COLUMNS = ("turnover", "profit", "costs", "c1", "c2")
FIVE_RULES = "turnover = profit + costs\ncosts = c1 + c2\n" + "\n".join(f"{c} >= 0" for c in FIVE_COLUMNS)
SURVEY_COLUMNS = ("goods", "services", "turnover", "staff", "materials", "other", "costs", "profit")
SURVEY_RULES = """\
turnover = goods + services
costs = staff + materials + other
profit = turnover - costs
goods >= 0
services >= 0
staff >= 0
materials >= 0
other >= 0
costs <= 1.5*turnover
staff <= 0.8*costs
profit <= 0.6*turnover
"""


def study_case(rng, r):
    x2 = rng.uniform(0.0, 40.0, r)
    x1 = 2 * x2 + rng.uniform(0.0, 60.0, r)
    truth = np.column_stack([x1, x2, x1 + x2])
    mask = np.zeros(truth.shape, dtype=bool)
    rows = rng.choice(r, size=r // 4, replace=False)
    mask[rows, 0] = True
    mask[rows[: len(rows) // 2], 1] = True
    mask[rng.choice(r, size=r // 10, replace=False), 1] = True
    return truth, mask, ("x1", "x2", "P"), parse_edit_rules(STUDY_RULES), ("x1", "x2")


def five_case(rng, r):
    c1, c2 = np.round(rng.lognormal(4.0, 0.8, r)), np.round(rng.lognormal(3.5, 1.0, r))
    profit = np.round(rng.lognormal(3.0, 1.0, r))
    truth = np.column_stack([profit + c1 + c2, profit, c1 + c2, c1, c2])
    mask = rng.random(truth.shape) < 0.25
    return truth, mask, FIVE_COLUMNS, parse_edit_rules(FIVE_RULES), FIVE_COLUMNS


def survey_truth(rng, n):
    """Whole-unit business records meeting every survey edit exactly."""
    edits = parse_edit_rules(SURVEY_RULES)
    out = np.empty((0, len(SURVEY_COLUMNS)))
    while len(out) < n:
        goods = np.floor(rng.lognormal(np.log(600.0), 1.0, n)) + 1.0
        services = np.floor(rng.lognormal(np.log(300.0), 1.3, n))
        turnover = goods + services
        costs = turnover * (0.4 + 1.1 * rng.beta(2.0, 3.0, n))
        staff = np.round(costs * 0.8 * rng.beta(2.0, 2.0, n))
        materials = np.round((costs - staff) * rng.beta(3.0, 2.0, n))
        other = np.maximum(0.0, np.round(costs - staff - materials))
        costs = staff + materials + other
        batch = np.column_stack([goods, services, turnover, staff, materials, other, costs, turnover - costs])
        out = np.vstack([out, batch[~violation_matrix(edits, batch, SURVEY_COLUMNS, tol=0.0).any(axis=1)]])
    return out[:n], edits


def survey_case(rng, r, with_totals=SURVEY_COLUMNS):
    truth, edits = survey_truth(rng, r)
    return truth, rng.random(truth.shape) < 0.2, SURVEY_COLUMNS, edits, with_totals


def partial_totals_case(rng, r):
    """The survey with totals on four columns only, so pairs keep
    unknowns of their own in both records."""
    return survey_case(rng, r, with_totals=("goods", "turnover", "staff", "profit"))


def large_case(rng, r, small=("other",), with_totals=tuple(c for c in SURVEY_COLUMNS if c != "other")):
    """Survey records of about 1e10 whose ``small`` cells, the imputed ones,
    are non-integers below 100; ``materials`` takes up the rest of
    ``costs``.  Their edit's sums round by about 1e-6, more than
    ``DEFAULT_TOL`` times the cells.  By default ``other`` alone is imputed
    and has no total, so its edit pins it."""
    truth, edits = survey_truth(rng, 2 * r)
    col = {name: j for j, name in enumerate(SURVEY_COLUMNS)}
    truth = truth * 1.7e7 + rng.uniform(0.0, 1.0, truth.shape)
    truth[:, col["turnover"]] = truth[:, col["goods"]] + truth[:, col["services"]]
    rest = truth[:, col["costs"]]
    for name in small:
        truth[:, col[name]] = rng.uniform(0.0, 100.0, len(truth))
        rest = rest - truth[:, col[name]]
    truth[:, col["materials"]] = rest
    truth[:, col["costs"]] = truth[:, col["staff"]] + truth[:, col["materials"]] + truth[:, col["other"]]
    truth[:, col["profit"]] = truth[:, col["turnover"]] - truth[:, col["costs"]]
    truth = truth[~violation_matrix(edits, truth, SURVEY_COLUMNS).any(axis=1)][:r]
    mask = np.zeros(truth.shape, dtype=bool)
    mask[np.ix_(rng.random(r) < 0.4, [col[name] for name in small])] = True
    return truth, mask, SURVEY_COLUMNS, edits, with_totals


CASES = {
    "study": study_case,
    "five": five_case,
    "survey": survey_case,
    "partial": partial_totals_case,
    "large": large_case,
}


def build(kind, rng, weighted, r=60):
    truth, mask, columns, edits, with_totals = CASES[kind](rng, r)
    weights = rng.uniform(0.5, 4.0, r) if weighted else np.ones(r)
    totals = {name: float(weights @ truth[:, j]) for j, name in enumerate(columns) if name in with_totals}
    return DataMatrix(truth.copy(), mask, columns, weights), edits, totals


def scale_of(rows):
    return max(1.0, float(np.abs(rows).max()))


def assert_close(got, want, scale):
    """Equal to RTOL relative to the pair's magnitude (rounding of the
    constants is relative to it, not to a bound that cancels to near 0)."""
    if math.isinf(want) or math.isinf(got):
        assert got == want
    else:
        assert abs(got - want) <= RTOL * max(abs(want), scale), (got, want)


def draw(rng, interval, current, scale):
    lo, hi = interval.lower, interval.upper
    if math.isfinite(lo) and math.isfinite(hi):
        return float(rng.uniform(lo, hi))
    spread = abs(float(rng.normal(scale=0.1 * scale)))
    return float(np.clip(current + (spread if math.isinf(hi) else -spread), lo, hi))


def check_step(state, edits, totals, s, t, var, colsums, interval, value, new):
    """Assert that the compiled step (``interval`` and the completion
    ``new`` at ``value``, both ``None`` for a fallback) agrees with both
    oracles; returns whether equalities alone forced the completion."""
    full = pair_step(state, edits, totals, s, t, var, colsums, value)
    coupled = coupled_pair_step(state, edits, totals, s, t, var, colsums, value)
    assert (new is None) == (full is None) == (coupled is None)
    if new is None:
        return True
    scale = scale_of(state.values[[s, t]])
    want_interval, full_rows, forced = full
    for got in (interval, coupled[0]):
        assert_close(got.lower, want_interval.lower, scale)
        assert_close(got.upper, want_interval.upper, scale)
    # Where unknowns stay free, the elimination order of the coupled system
    # decides which current values are kept.
    want = full_rows if forced else coupled[1]
    for got_v, want_v in zip(np.ravel(new), want.ravel()):
        assert_close(got_v, want_v, scale)
    return forced


def walk(data, edits, totals, rng, steps, oracles=True):
    """Compare every step of a random walk with both oracles (unless
    ``oracles`` is false); returns the counts of fallbacks, of steps with
    unknowns left free and of steps that moved a cell."""
    state = data.copy()
    systems = PairSystems(state, edits, totals)
    index = PairIndex.build(state.mask)
    seen = {"steps": 0, "fallbacks": 0, "free": 0, "moved": 0}
    for _ in range(steps):
        s, t, var = select_pair(state, rng, index)
        j = state.column_index(var)
        colsums = (state.weights @ state.values).tolist()
        rows = state.values[[s, t]]
        try:
            step = systems.pair(state.values, colsums, s, t, j)
            value = draw(rng, step.interval, rows[0, j], scale_of(rows))
            interval, new = step.interval, np.array(step.complete(value))
        except InfeasibleSystemError:
            interval, value, new = None, float(rows[0, j]), None
        if oracles:
            seen["free"] += not check_step(state, edits, totals, s, t, var, colsums, interval, value, new)
        seen["steps"] += 1
        seen["fallbacks"] += new is None
        if new is not None:
            seen["moved"] += not np.array_equal(new, rows)
            state.values[[s, t]] = new
    assert not violation_matrix(edits, state.values, state.columns).any()
    for j, name in enumerate(state.columns):
        if name in totals:
            assert float(state.weights @ state.values[:, j]) == pytest.approx(totals[name], rel=1e-8)
    assert np.array_equal(state.values[~state.mask], data.values[~data.mask])
    return seen, systems


chains = settings(max_examples=6, deadline=None, suppress_health_check=[HealthCheck.too_slow])


@pytest.mark.parametrize("kind", sorted(CASES))
@pytest.mark.parametrize("weighted", [False, True], ids=["equal_weights", "unequal_weights"])
@chains
@given(seed=st.integers(0, 2**32 - 1))
def test_compiled_step_matches_the_per_record_step(kind, weighted, seed):
    rng = np.random.default_rng(seed)
    data, edits, totals = build(kind, rng, weighted)
    seen, systems = walk(data, edits, totals, rng, steps=120)
    assert systems.compiled + systems.hits == seen["steps"]
    if kind == "study":
        assert seen["free"] == 0  # every study step is forced by equalities


@pytest.mark.parametrize("kind", ["study", "five", "partial"])
def test_chain_steps_match_the_per_record_step(kind):
    # Inside mcmc_refine, with its own posterior draws and column sums.
    rng = np.random.default_rng(29)
    data, edits, totals = build(kind, rng, weighted=True)
    predictors = {"x1": ["P"], "x2": ["P", "x1"]} if kind == "study" else None
    real_pair = PairSystems.pair
    checked = []

    def checked_pair(systems, values, colsums, s, t, j):
        live = DataMatrix(values, data.mask, data.columns, data.weights)
        args = (live, edits, totals, s, t, data.columns[j], colsums)
        try:
            step = real_pair(systems, values, colsums, s, t, j)
        except InfeasibleSystemError:
            check_step(*args, None, float(values[s, j]), None)
            raise
        real_complete = step.complete

        def checked_complete(value):
            try:
                new = real_complete(value)
            except InfeasibleSystemError:
                check_step(*args, None, value, None)
                raise
            check_step(*args, step.interval, value, new)
            checked.append(value)
            return new

        step.complete = checked_complete
        return step

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(PairSystems, "pair", checked_pair)
        _, trace = mcmc_refine(data, edits, totals, McmcConfig(iterations=300, seed=3, predictors=predictors))
    assert len(checked) == trace[-1]["accepted"] > 250


def test_small_cells_beside_large_observed_values_move():
    # Two small cells share the costs balance with values near 1e10, whose
    # sums round by more than DEFAULT_TOL times the cells.  The completion
    # check measures each record on its largest magnitude, as validate
    # does, so no step falls back on that rounding.  (The per-record
    # derivation gives up on about half of these steps: its equality
    # elimination checks the constant rows it derives on the magnitude of
    # the reduced constants, which have lost the observed values.)
    rng = np.random.default_rng(5)
    truth, mask, columns, edits, _ = large_case(rng, 60, small=("staff", "other"), with_totals=SURVEY_COLUMNS)
    weights = rng.uniform(0.5, 4.0, 60)
    totals = {name: float(weights @ truth[:, j]) for j, name in enumerate(columns)}
    seen, _ = walk(DataMatrix(truth, mask, columns, weights), edits, totals, rng, steps=200, oracles=False)
    assert seen["fallbacks"] == 0
    assert seen["moved"] > 150


def test_per_record_completion_is_checked_on_each_record_magnitude():
    # The walk above with equal weights, compared with the per-record step
    # wherever its derivation finds an interval.  Its completion is checked
    # as the compiled one is, each record on its largest magnitude; on the
    # unknowns' magnitude alone it fell back on a few of these steps.
    rng = np.random.default_rng(0)
    truth, mask, columns, edits, _ = large_case(rng, 60, small=("staff", "other"), with_totals=SURVEY_COLUMNS)
    totals = {name: float(truth[:, j].sum()) for j, name in enumerate(columns)}
    state = DataMatrix(truth.copy(), mask, columns)
    systems, index = PairSystems(state, edits, totals), PairIndex.build(mask)
    compared = 0
    for _ in range(200):
        s, t, var = select_pair(state, rng, index)
        j = state.column_index(var)
        colsums = (state.weights @ state.values).tolist()
        step = systems.pair(state.values, colsums, s, t, j)
        value = draw(rng, step.interval, state.values[s, j], scale_of(state.values[[s, t]]))
        new = np.array(step.complete(value))
        system, _ = pair_constraint_system(state, edits, totals, s, t, colsums=colsums)
        try:
            fm.admissible_interval(system, f"s.{var}")
        except InfeasibleSystemError:
            pass
        else:
            full = pair_step(state, edits, totals, s, t, var, colsums, value)
            assert full is not None
            interval, rows, forced = full
            scale = scale_of(state.values[[s, t]])
            assert_close(step.interval.lower, interval.lower, scale)
            assert_close(step.interval.upper, interval.upper, scale)
            assert forced
            for got, want in zip(new.ravel(), rows.ravel()):
                assert_close(got, want, scale)
            compared += 1
        state.values[[s, t]] = new
    assert compared > 80


def test_free_unknowns_are_exercised_with_unequal_weights():
    rng = np.random.default_rng(3)
    data, edits, totals = build("partial", rng, weighted=True, r=80)
    seen, _ = walk(data, edits, totals, rng, steps=300)
    assert seen["free"] > 50


@pytest.mark.parametrize("kind", ["study", "five", "survey"])
def test_same_fallback_on_infeasible_pair_systems(kind):
    # Column sums moved far from the totals leave the pair a share that no
    # completion can take (negative, or off a balance the other record
    # fixes): both derivations must give up, and agree where they do not.
    rng = np.random.default_rng(17)
    data, edits, totals = build(kind, rng, weighted=True)
    systems = PairSystems(data, edits, totals)
    index = PairIndex.build(data.mask)
    colsums = data.weights @ data.values
    fallbacks = 0
    for _ in range(150):
        s, t, var = select_pair(data, rng, index)
        j = data.column_index(var)
        moved = colsums.copy()
        moved[rng.integers(len(moved))] += rng.choice([-1.0, 1.0]) * rng.uniform(0.5, 2.0) * colsums.max()
        try:
            step = systems.pair(data.values, moved.tolist(), s, t, j)
            value = draw(rng, step.interval, data.values[s, j], scale_of(data.values[[s, t]]))
            interval, new = step.interval, step.complete(value)
        except InfeasibleSystemError:
            interval, value, new = None, float(data.values[s, j]), None
        check_step(data, edits, totals, s, t, var, moved.tolist(), interval, value, new)
        fallbacks += new is None
    assert fallbacks > 30


def test_worked_example_pair():
    data, edits, totals = pair_example_data()
    systems = PairSystems(data, edits, totals)
    assert (systems.compiled, systems.hits, systems.systems) == (0, 0, {})  # filled lazily
    colsums = (data.weights @ data.values).tolist()
    step = systems.pair(data.values, colsums, 0, 1, 4)
    assert (step.interval.lower, step.interval.upper) == (45.0, 110.0)
    new_s, new_t = step.complete(100.0)
    assert (new_s[3], new_s[4], new_t[3], new_t[4]) == (55.0, 100.0, 10.0, 80.0)
    assert (new_s[2], new_t[0]) == (20.0, 15.0)  # pinned by their totals
    with pytest.raises(InfeasibleSystemError, match="violates an edit"):
        step.complete(200.0)  # t.x4 = -90: the completion check catches it
    assert (systems.compiled, systems.hits) == (1, 0)
    systems.pair(data.values, colsums, 0, 1, 4)
    systems.pair(data.values, colsums, 1, 0, 3)
    assert (systems.compiled, systems.hits) == (2, 1)
    assert len(systems.systems) == 2


def test_completion_margin_ignores_columns_no_edit_references():
    # Z is in no edit, so, as in violation_matrix, it does not scale the
    # margin: x1 one above its point interval misses x1 + x2 = P by 1 in
    # both records, which violation_matrix flags.
    values = np.array([[70.0, 20.0, 90.0, 1e12], [50.0, 10.0, 60.0, 1e12]])
    mask = np.zeros(values.shape, dtype=bool)
    mask[:, 0] = True
    data, edits = DataMatrix(values, mask, ("x1", "x2", "P", "Z")), parse_edit_rules(STUDY_RULES)
    step = PairSystems(data, edits, {"x1": 120.0}).pair(values, (data.weights @ values).tolist(), 0, 1, 0)
    assert (step.interval.lower, step.interval.upper) == (70.0, 70.0)
    with pytest.raises(InfeasibleSystemError, match=r"violates an edit \(residual 1\)"):
        step.complete(71.0)
    completed = np.array([[71.0, 20.0, 90.0, 1e12], [49.0, 10.0, 60.0, 1e12]])
    assert violation_matrix(edits, completed, data.columns).any(axis=1).all()


def test_chain_runs_on_a_system_without_edits():
    # No column is referenced, so every margin is DEFAULT_TOL.
    values = np.random.default_rng(0).uniform(1.0, 10.0, (30, 2))
    mask = np.zeros(values.shape, dtype=bool)
    mask[:10, 0] = True
    totals = {"a": float(values[:, 0].sum())}
    config = McmcConfig(iterations=50, predictors={"a": ["b"]})
    out, trace = mcmc_refine(DataMatrix(values, mask, ("a", "b")), parse_edit_rules(""), totals, config)
    assert (trace[-1]["accepted"], trace[-1]["per_variable"]["a"]["moved"]) == (50, 50)
    assert float(out.values[:, 0].sum()) == pytest.approx(totals["a"], rel=1e-8)


def test_infeasible_worked_example():
    # Moving 200 onto the x5 column sum leaves the pair -20 of x5.
    data, edits, totals = pair_example_data()
    colsums = data.weights @ data.values
    colsums[4] += 200.0
    with pytest.raises(InfeasibleSystemError):
        PairSystems(data, edits, totals).pair(data.values, colsums.tolist(), 0, 1, 4)
    assert pair_step(data, edits, totals, 0, 1, "x5", colsums, 50.0) is None


@pytest.mark.parametrize("kind", ["study", "partial"])
def test_seeded_chain_is_byte_identical(kind):
    rng = np.random.default_rng(41)
    data, edits, totals = build(kind, rng, weighted=True)
    predictors = {"x1": ["P"], "x2": ["P", "x1"]} if kind == "study" else None
    config = McmcConfig(iterations=400, seed=7, predictors=predictors)
    (a, trace_a), (b, trace_b) = (mcmc_refine(data, edits, totals, config) for _ in range(2))
    assert a.values.tobytes() == b.values.tobytes()
    assert trace_a == trace_b
    assert trace_a[-1]["pair_systems"]["compiled"] > 1
