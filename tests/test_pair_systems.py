"""The chain's compiled pair systems against the per-record step.

``mcmc.PairSystems`` compiles each pair system once per key, and
``mcmc.update_pairs`` evaluates it on a sweep's pairs as arrays.
``_oracles.PairStep`` evaluates the same rows one pair at a time in plain
Python; ``_oracles.pair_step`` takes the same step through
``pair_constraint_system``, ``fm.admissible_interval`` and
``fm.back_substitute``, and ``_oracles.coupled_pair_step`` through the same
functions on the system with the totals solved first; the step's sparse
rows are also compared with ``fm.CompiledInterval.evaluate``, the numpy
batch path, on the same constants.  The walks here are random walks
over consistent truth-first data: each step draws a value inside the
compiled interval and applies the compiled completion.
"""

import itertools
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from calimp import mcmc
from calimp.edits import DEFAULT_TOL, parse_edit_rules, record_scale, system_matrices, violated, violation_matrix
from calimp.errors import InfeasibleSystemError
from calimp.fm import Interval
from calimp.mcmc import McmcConfig, PairIndex, PairSystems, mcmc_refine, select_pair
from calimp.pipeline import DataMatrix
from calimp.regression import GRAM_RTOL

from _oracles import PairStep, coupled_pair_step, lstsq_posterior_fit, pair_step, pair_system
from test_mcmc import pair_example_data, swept_column

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
    A, b, is_eq = system_matrices(edits, SURVEY_COLUMNS)
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
        out = np.vstack([out, batch[~violated(batch @ A.T + b, is_eq, 0.0).any(axis=1)]])
    return out[:n], edits


def survey_near_zero_other():
    """300 survey records (seed 3, 15% of cells blanked) whose record 0
    observes ``other = -1e-6`` beside ``turnover = 5002``, ``costs`` and
    ``profit`` rebalanced, with ``staff`` and ``materials`` blanked.  The
    record meets ``other >= 0`` to validate's margin, 1e-9 times 5002, but
    not to 1e-9 times the edit's own magnitude.  Returns the truth, the
    mask and the edits."""
    rng = np.random.default_rng(3)
    truth, edits = survey_truth(rng, 300)
    mask = rng.random(truth.shape) < 0.15
    col = {name: j for j, name in enumerate(SURVEY_COLUMNS)}
    truth[0, col["other"]] = -1e-6
    truth[0, col["costs"]] = truth[0, col["staff"]] + truth[0, col["materials"]] + truth[0, col["other"]]
    truth[0, col["profit"]] = truth[0, col["turnover"]] - truth[0, col["costs"]]
    mask[0] = False
    mask[0, [col["staff"], col["materials"]]] = True
    return truth, mask, edits


#: Validate's margin on record 0 of :func:`survey_blank_pair_below_zero`:
#: 1e-9 times its turnover, 5002.
BLANK_PAIR_MARGIN = 5.002e-6


def survey_blank_pair_below_zero(shortfall=4.5e-6):
    """The 300 survey records of :func:`survey_near_zero_other` whose record
    0 has ``turnover = 5002`` and ``costs = 2001``, ``profit`` rebalanced,
    and observes ``other = 2001 + shortfall``, with ``staff`` and
    ``materials`` blanked.  Their sum is forced to ``-shortfall``, by
    default 4.5e-6, 0.9 times validate's margin (:data:`BLANK_PAIR_MARGIN`)
    below the 0 their nonnegativity edits allow; the truth has both at
    ``-shortfall / 2``, which validate accepts up to a shortfall of twice
    the margin.  Each blank cell may lie a margin below 0 and the ``costs``
    balance may miss by one more, so the record is feasible up to three
    times the margin.  Returns the truth, the mask and the edits."""
    rng = np.random.default_rng(3)
    truth, edits = survey_truth(rng, 300)
    mask = rng.random(truth.shape) < 0.15
    col = {name: j for j, name in enumerate(SURVEY_COLUMNS)}
    truth[0, col["costs"]] = 2001.0
    truth[0, col["other"]] = 2001.0 + shortfall
    truth[0, [col["staff"], col["materials"]]] = -0.5 * shortfall
    truth[0, col["profit"]] = truth[0, col["turnover"]] - truth[0, col["costs"]]
    mask[0] = False
    mask[0, [col["staff"], col["materials"]]] = True
    return truth, mask, edits


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


def loose_predictors(columns):
    """One predictor per target, the next column: no balance then fixes a
    target, so no target is structural and its steps draw."""
    return {name: [columns[(j + 1) % len(columns)]] for j, name in enumerate(columns)}


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


def check_step(state, edits, totals, s, t, var, interval, value, new):
    """Assert that the compiled step (``interval`` and the completion
    ``new`` at ``value``, both ``None`` for a fallback) agrees with both
    oracles; returns whether equalities alone forced the completion."""
    full = pair_step(state, edits, totals, s, t, var, value)
    coupled = coupled_pair_step(state, edits, totals, s, t, var, value)
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


def pins_target(systems, key):
    """The rank oracle of ``CompiledInterval.pinned``: the target's unit vector
    lies in the row space of the key's equality rows over its unknowns.
    s's equalities read its coupled and own columns; t's read its own
    columns and, negated, s's coupled ones, as the totals substitute them."""
    j, coupled, free_s, free_t = key
    E = systems.A[systems.is_eq]
    in_s = [c for c in range(E.shape[1]) if (coupled | free_s) >> c & 1]
    in_t = [c for c in range(E.shape[1]) if free_t >> c & 1]
    negated = np.where([coupled >> c & 1 for c in in_s], -1.0, 0.0)
    rows = np.vstack([
        np.hstack([E[:, in_s], np.zeros((len(E), len(in_t)))]),
        np.hstack([E[:, in_s] * negated, E[:, in_t]]),
    ])
    unit = np.zeros((1, rows.shape[1]))
    unit[0, in_s.index(j)] = 1.0
    rank = np.linalg.matrix_rank(rows) if rows.size else 0
    return np.linalg.matrix_rank(np.vstack([rows, unit])) == rank


def assert_admits_point(interval, current, scale):
    """The proof obligation of a step whose key pins its target: its
    interval is a point that the current value meets to the margin the
    edits hold to."""
    assert interval.is_point(), interval
    assert abs(current - interval.lower) <= DEFAULT_TOL * scale, (current, interval)


def walk(data, edits, totals, rng, steps, oracles=True):
    """Compare every step of a random walk with both oracles (unless
    ``oracles`` is false); returns the counts of fallbacks, of steps with
    unknowns left free, of steps that moved a cell and of steps whose key
    pins the target.  Each of those, which a chain skips, must give a point
    interval that admits the current value, through the compiled step and
    the per-record oracle; every key's flag must agree with the rank
    oracle."""
    state = data.copy()
    systems = PairSystems(state, edits, totals)
    index = PairIndex.build(state.mask)
    seen = {"steps": 0, "fallbacks": 0, "free": 0, "moved": 0, "pinned": 0}
    for _ in range(steps):
        s, t, j = select_pair(index, rng)
        var = state.columns[j]
        rows = state.values[[s, t]]
        system = pair_system(systems, s, t, j)
        try:
            step = PairStep(systems, system, state.values.tolist(), s, t)
            if system.compiled.pinned:
                assert_admits_point(step.interval, rows[0, j], scale_of(rows))
                full = pair_step(state, edits, totals, s, t, var, rows[0, j])
                assert full is not None
                assert_admits_point(full[0], rows[0, j], scale_of(rows))
                seen["pinned"] += 1
            value = draw(rng, step.interval, rows[0, j], scale_of(rows))
            interval, new = step.interval, np.array(step.complete(value))
        except InfeasibleSystemError:
            assert not system.compiled.pinned
            interval, value, new = None, float(rows[0, j]), None
        if oracles:
            seen["free"] += not check_step(state, edits, totals, s, t, var, interval, value, new)
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
    for key, system in systems.systems.items():
        assert system.compiled.pinned == pins_target(systems, key), key
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
    assert len(systems.systems) + systems.hits == seen["steps"]
    if kind == "study":
        assert seen["free"] == 0  # every study step is forced by equalities


@pytest.mark.parametrize("kind", ["study", "five", "partial"])
def test_chain_steps_match_the_per_record_step(kind):
    # Inside mcmc_refine, with its own posterior draws.  A pair of a sweep
    # whose key pins the target is skipped; evaluated here after all, on
    # the chain's values, its interval is a point that admits the current
    # value, and both oracles find that point and complete it to the
    # pair's current rows.  A sweep of the study's structural x2 (x2 = P -
    # x1 on its predictors) looks no key up.  Every other pair of a sweep
    # is updated by update_pairs, whose interval, at the value it drew, and
    # whose completion or fallback agree with both oracles.  The chain's
    # values at each sweep must be the input with every accepted
    # completion applied, so a skipped pair writes nothing.  The
    # five-column and survey targets take one predictor each: with the
    # default predictors, the balances fix every one of them, and the
    # chain would update no pair.
    rng = np.random.default_rng(29)
    data, edits, totals = build(kind, rng, weighted=True)
    if kind == "study":
        predictors, structural = {"x1": ["P"], "x2": ["P", "x1"]}, {1}
    else:
        predictors, structural = loose_predictors(data.columns), set()
    real_by_key, real_update = PairSystems.by_key, mcmc.update_pairs
    tracked = data.values.copy()
    checked, skipped, fallbacks = [], [], []

    def step_args(live, s, t, j):
        return (DataMatrix(live, data.mask, data.columns, data.weights), edits, totals, s, t, data.columns[j])

    def checked_by_key(systems, j, s, t):
        assert j not in structural
        groups = real_by_key(systems, j, s, t)
        assert sorted(np.concatenate([gs for _, gs, _ in groups]).tolist()) == sorted(s.tolist())
        for system, gs, gt in groups:
            if not system.compiled.pinned:
                continue
            for a, b in zip(gs.tolist(), gt.tolist()):
                step = PairStep(systems, system, tracked, a, b)
                current = tracked[a, j]
                assert_admits_point(step.interval, current, scale_of(tracked[[a, b]]))
                check_step(*step_args(tracked.copy(), a, b, j), step.interval, current, tracked[[a, b]])
                skipped.append(current)
        return groups

    def checked_update(systems, values, groups, *args):
        j = swept_column(systems, groups)
        assert values.tobytes() == tracked.tobytes()
        assert not any(system.compiled.pinned for system, _, _ in groups)
        live = values.copy()
        update = real_update(systems, values, groups, *args)
        for i, (a, b) in enumerate(zip(update.s.tolist(), update.t.tolist())):
            if update.feasible[i]:
                new = np.array([update.new_s[i], update.new_t[i]])
                interval = Interval(update.lower[i], update.upper[i])
                check_step(*step_args(live, a, b, j), interval, update.value[i], new)
                tracked[[a, b]] = new
                checked.append(update.value[i])
            else:
                check_step(*step_args(live, a, b, j), None, update.value[i], None)
                fallbacks.append(update.value[i])
        return update

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(PairSystems, "by_key", checked_by_key)
        patch.setattr(mcmc, "update_pairs", checked_update)
        out, trace = mcmc_refine(data, edits, totals, McmcConfig(iterations=300, seed=3, predictors=predictors))
    assert out.values.tobytes() == tracked.tobytes()
    last = trace[-1]
    assert last["accepted"] + last["fallbacks"] == 300 and last["fallbacks"] == len(fallbacks)
    on_structural = sum(last["per_variable"][data.columns[j]]["pinned"] for j in structural)
    assert len(checked) + len(skipped) + on_structural == last["accepted"] > 250
    assert len(skipped) + on_structural == sum(entry["pinned"] for entry in last["per_variable"].values())
    assert checked and skipped
    assert (on_structural > 0) == bool(structural)


def pair_block(data, edits, totals, s, t, j):
    """The cells of records ``s`` and ``t``, as (0 for s or 1 for t,
    column), joined to ``(s, j)`` in the pair's per-record constraint
    system (:func:`calimp.mcmc.pair_constraint_system`): through an edit of
    either record that reads an imputed cell, or through a pair-sum
    equality, which joins a coupled cell to its partner."""
    system, _ = mcmc.pair_constraint_system(data, edits, totals, s, t)
    block = {f"s.{data.columns[j]}"}
    frontier = list(block)
    while frontier:
        v = frontier.pop()
        for edit in system.edits:
            if v in edit.coeffs:
                joined = set(edit.coeffs) - block
                block |= joined
                frontier.extend(joined)
    return {(int(v[0] == "t"), data.columns.index(v[2:])) for v in block}


@pytest.mark.parametrize("kind", sorted(set(CASES) - {"large"}))
@pytest.mark.parametrize("weighted", [False, True], ids=["equal_weights", "unequal_weights"])
def test_an_update_changes_only_its_targets_block(kind, weighted):
    # Every accepted update of a chain on one-predictor models keeps each
    # cell of its pair outside the target's block bit for bit, a coupled
    # cell's partner included: only the block is derived and completed.
    # Outside the study, some updated pairs hold imputed cells there.  (The
    # large case's one imputed column is pinned by its edit: no update
    # draws.)
    data, edits, totals = build(kind, np.random.default_rng(5), weighted)
    real_update = mcmc.update_pairs
    blocks, seen = {}, {"accepted": 0, "beside": 0, "moved": []}

    def checked_update(systems, values, groups, *args):
        j = swept_column(systems, groups)
        update = real_update(systems, values, groups, *args)
        live = DataMatrix(values, data.mask, data.columns, data.weights)
        for i in np.flatnonzero(update.feasible).tolist():
            a, b = int(update.s[i]), int(update.t[i])
            key = (j, data.mask[a].tobytes(), data.mask[b].tobytes())
            if key not in blocks:
                blocks[key] = pair_block(live, edits, totals, a, b, j)
            outside = [(role, c) for role, rec in enumerate((a, b)) for c in np.flatnonzero(data.mask[rec]).tolist()
                       if (role, c) not in blocks[key]]
            new = (update.new_s[i], update.new_t[i])
            old = (values[a], values[b])
            seen["moved"] += [cell for cell in outside if new[cell[0]][cell[1]].tobytes() != old[cell[0]][cell[1]].tobytes()]
            seen["accepted"] += 1
            seen["beside"] += bool(outside)
        return update

    config = McmcConfig(iterations=3_000, seed=3, predictors=loose_predictors(data.columns))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(mcmc, "update_pairs", checked_update)
        mcmc_refine(data, edits, totals, config)
    assert seen["moved"] == []
    assert seen["accepted"] > 0
    assert (seen["beside"] > 0) == (kind != "study"), seen["beside"]


class RawWords:
    """A generator stand-in whose bit generator hands out the given raw
    words in order, for the scalar draw of ``draw_truncated_posterior``."""

    def __init__(self, words):
        self.bit_generator = self
        self._words = iter(words)

    def random_raw(self):
        return next(self._words)


@pytest.mark.parametrize("kind", sorted(CASES))
@pytest.mark.parametrize("weighted", [False, True], ids=["equal_weights", "unequal_weights"])
def test_sweep_matches_the_single_pair_oracle(kind, weighted):
    # Four random pairings of every column at the truth, at two states
    # short chains leave and at an inconsistent state: update_pairs on the
    # pairs of keys that do not pin the target, at one model (a least-squares fit on the next
    # column, its residual variance or zero) against the PairStep oracle,
    # pair by pair, at the same model and the same raw words of the
    # generator.  Interval, drawn value and completion agree to 1e-12 of the
    # pair's magnitude, and the update falls back exactly where the
    # oracle's completion check fails.  The drawing pairs take the
    # generator's words in the order update_pairs lists them.
    rng = np.random.default_rng(59)
    if kind == "large":  # two small imputed cells beside observed values near 1e10, all with totals
        truth, mask, columns, edits, _ = large_case(rng, 120, small=("staff", "other"), with_totals=SURVEY_COLUMNS)
        weights = rng.uniform(0.5, 4.0, 120) if weighted else np.ones(120)
        data = DataMatrix(truth, mask, columns, weights)
        totals = {name: float(weights @ truth[:, j]) for j, name in enumerate(columns)}
    else:
        data, edits, totals = build(kind, rng, weighted, r=120)
    compared = {"pairs": 0, "drawn": 0, "fallbacks": 0}
    states = [data]
    for seed in (1, 2):  # states short chains leave
        config = McmcConfig(iterations=300, seed=seed, predictors=loose_predictors(data.columns))
        states.append(mcmc_refine(data, edits, totals, config)[0])
    # The truth with a tenth of its imputed cells moved far off: many pairs
    # there have crossed bounds or completions that fail.
    off = data.copy()
    cells = np.argwhere(off.mask)
    for rec, col in cells[rng.random(len(cells)) < 0.1]:
        off.values[rec, col] += rng.choice([-1.0, 1.0]) * rng.uniform(0.01, 2.0) * scale_of(off.values[rec])
    states.append(off)
    for state in states:
        systems, values = PairSystems(state, edits, totals), state.values
        for j, _ in itertools.product(range(len(data.columns)), range(4)):  # four pairings a column
            records = rng.permutation(np.flatnonzero(state.mask[:, j]))
            pairs = len(records) // 2
            if not pairs:
                continue
            s, t = records[0 : 2 * pairs : 2], records[1 : 2 * pairs : 2]
            groups = [group for group in systems.by_key(j, s, t) if not group[0].compiled.pinned]
            if not groups:
                continue
            predictor = (j + 1) % len(state.columns)
            coefficients = np.polynomial.polynomial.polyfit(values[:, predictor], values[:, j], 1)
            residual = values[:, j] - coefficients[0] - coefficients[1] * values[:, predictor]
            for variance in (float(residual @ residual) / len(residual), 0.0):
                seed = int(rng.integers(2**32))
                update = mcmc.update_pairs(
                    systems, values, groups, coefficients.tolist(), variance, [predictor],
                    np.random.default_rng(seed),
                )
                words = RawWords(np.random.default_rng(seed).bit_generator.random_raw(len(update.s)).tolist())
                pair_systems = [system for system, gs, _ in groups for _ in gs]
                for i, (a, b) in enumerate(zip(update.s.tolist(), update.t.tolist())):
                    scale = scale_of(values[[a, b]])
                    step = PairStep(systems, pair_systems[i], values, a, b)
                    assert_close(update.lower[i], step.interval.lower, scale)
                    assert_close(update.upper[i], step.interval.upper, scale)
                    mean = coefficients[0] + values[a, predictor] * coefficients[1]
                    model = mcmc.PosteriorModel(coefficients.tolist(), variance, mean)
                    want = mcmc.draw_truncated_posterior(model, step.interval, words)
                    assert_close(update.value[i], want, scale)
                    compared["drawn"] += variance > 0 and not step.interval.is_point()
                    try:
                        new_s, new_t = step.complete(update.value[i])
                    except InfeasibleSystemError:
                        assert not update.feasible[i]
                        compared["fallbacks"] += 1
                        continue
                    assert update.feasible[i]
                    for got, want in zip(np.concatenate([update.new_s[i], update.new_t[i]]), new_s + new_t):
                        assert_close(got, want, scale)
                    compared["pairs"] += 1
    assert compared["pairs"] > 25 and compared["drawn"] > 12


def test_pinned_flag_matches_the_rank_oracle_on_every_survey_key():
    # With a total on every column, a survey key is the target and the
    # columns imputed in both records, the target among them: 8 x 2^7 =
    # 1,024 keys.  The compiled flag (the elimination's "only the target
    # remains" branch) agrees with the rank oracle on each.
    truth, edits = survey_truth(np.random.default_rng(7), 20)
    data = DataMatrix(truth, np.ones(truth.shape, dtype=bool), SURVEY_COLUMNS)
    systems = PairSystems(data, edits, dict(zip(SURVEY_COLUMNS, truth.sum(axis=0).tolist())))
    p = len(SURVEY_COLUMNS)
    keys = [(j, coupled, 0, 0) for j in range(p) for coupled in range(1 << p) if coupled >> j & 1]
    compiled = [systems._compile(*key) for key in keys]
    flags = [system.compiled.pinned for system in compiled]
    assert len(keys) == 1024
    assert flags == [pins_target(systems, key) for key in keys]
    assert 0 < sum(flags) < len(keys)


def numpy_interval(state, edits, totals, s, t, compiled):
    """The pair's interval from ``compiled.evaluate``, the numpy batch path
    of :func:`calimp.impute`, on the constants of the pair's 2K stacked
    edits: s's with its known cells and one-record total columns folded
    in, then t's scaled by w_t/w_s with the coupled columns' shares R/w_s,
    the pair's current weighted sums, folded in, and the pair's margin
    scale, the larger of its rows' ``record_scale``.  Returns lower, upper
    and the infeasible flag."""
    A, b, _ = system_matrices(edits, state.columns)
    w_s, w_t = float(state.weights[s]), float(state.weights[t])
    in_s, in_t = state.mask[s], state.mask[t]
    rows = state.values[[s, t]]
    has_total = np.array([name in totals for name in state.columns])
    R = np.where(has_total & in_s & in_t, (w_s * rows[0] + w_t * rows[1]) / w_s, 0.0)
    x_s = np.where(~in_s | (has_total & ~in_t), rows[0], 0.0)  # known or kept at its value
    x_t = np.where(~in_t | (has_total & ~in_s), rows[1], 0.0)
    ratio = w_t / w_s
    d = np.concatenate([b + A @ x_s, ratio * (b + A @ x_t) + A @ R])
    scale = record_scale(rows[:, A.any(axis=0)]).max()
    lower, upper, bad = compiled.evaluate(d[None, :], np.array([scale]))
    return float(lower[0]), float(upper[0]), bool(bad[0])


@pytest.mark.parametrize("kind", ["study", "five", "partial", "survey"])
@pytest.mark.parametrize("weighted", [False, True], ids=["equal_weights", "unequal_weights"])
def test_sparse_rows_match_the_numpy_evaluation(kind, weighted):
    # Every key a seeded walk meets, on feasible steps and on steps with one
    # cell of the pair moved far off (most of those infeasible): the sparse
    # rows' interval is CompiledInterval.evaluate's on the same constants,
    # to 1e-12 of the pair's magnitude.  evaluate meets crossed bounds
    # where each row holds to its own margin on the pair's margin scale
    # and flags a wider crossing empty; the step meets any crossing at its
    # midpoint and leaves the verdict to its completion, which refuses
    # that point.  The step reads no check row
    # (its completion is checked instead), so evaluate may also flag a step
    # whose bounds do not cross.
    rng = np.random.default_rng(37)
    data, edits, totals = build(kind, rng, weighted)
    state = data.copy()
    systems, index = PairSystems(state, edits, totals), PairIndex.build(state.mask)
    seen, infeasible = set(), 0
    for k in range(240):
        s, t, j = select_pair(index, rng)
        scale = scale_of(state.values[[s, t]])
        live = state.copy()
        perturbed = k % 4 == 3
        if perturbed:
            cell = (rng.choice([s, t]), rng.integers(len(live.columns)))
            live.values[cell] += rng.choice([-1.0, 1.0]) * rng.uniform(0.01, 2.0) * scale
        system = pair_system(systems, s, t, j)
        step = PairStep(systems, system, live.values.tolist(), s, t)
        ps, pt = (sum(1 << c for c in np.flatnonzero(systems.mask[r]).tolist()) for r in (s, t))
        with_total = systems.with_total
        key = (j, ps & pt & with_total, ps & ~with_total, pt & ~with_total)
        assert systems.systems[key] is system
        seen.add(key)
        lower, upper, bad = numpy_interval(live, edits, totals, s, t, system.compiled)
        if lower > upper:
            assert bad and step.interval.is_point()
            assert_close(step.interval.lower, 0.5 * (lower + upper), scale)
            with pytest.raises(InfeasibleSystemError):
                step.complete(step.interval.lower)
            infeasible += 1
            continue
        assert_close(step.interval.lower, lower, scale)
        assert_close(step.interval.upper, upper, scale)
        if not perturbed:
            try:
                state.values[[s, t]] = step.complete(draw(rng, step.interval, state.values[s, j], scale))
            except InfeasibleSystemError:
                pass
    assert seen == set(systems.systems) and len(seen) > 1
    assert infeasible > 5


def test_small_cells_beside_large_observed_values_move():
    # Two small cells share the costs balance with values near 1e10, whose
    # sums round by more than DEFAULT_TOL times the cells.  The completion
    # check measures each record on its largest magnitude, as validate
    # does, so no step falls back on that rounding, and both oracles agree
    # on every step: their equality elimination checks each constant row it
    # derives on the pair's margin, observed values included, times the
    # row's mass (the compiled step reads no such row).
    rng = np.random.default_rng(5)
    truth, mask, columns, edits, _ = large_case(rng, 60, small=("staff", "other"), with_totals=SURVEY_COLUMNS)
    weights = rng.uniform(0.5, 4.0, 60)
    totals = {name: float(weights @ truth[:, j]) for j, name in enumerate(columns)}
    seen, _ = walk(DataMatrix(truth, mask, columns, weights), edits, totals, rng, steps=200)
    assert seen["fallbacks"] == 0
    assert seen["moved"] > 150


def test_per_record_completion_is_checked_on_each_record_magnitude():
    # The walk above with equal weights, compared with the per-record step
    # on every step.  Its completion is checked as the compiled one is,
    # each record on its largest magnitude; on the unknowns' magnitude alone
    # it fell back on a few of these steps.
    rng = np.random.default_rng(0)
    truth, mask, columns, edits, _ = large_case(rng, 60, small=("staff", "other"), with_totals=SURVEY_COLUMNS)
    totals = {name: float(truth[:, j].sum()) for j, name in enumerate(columns)}
    state = DataMatrix(truth.copy(), mask, columns)
    systems, index = PairSystems(state, edits, totals), PairIndex.build(mask)
    for _ in range(200):
        s, t, j = select_pair(index, rng)
        var = state.columns[j]
        step = PairStep(systems, pair_system(systems, s, t, j), state.values.tolist(), s, t)
        value = draw(rng, step.interval, state.values[s, j], scale_of(state.values[[s, t]]))
        new = np.array(step.complete(value))
        full = pair_step(state, edits, totals, s, t, var, value)
        assert full is not None
        interval, rows, forced = full
        scale = scale_of(state.values[[s, t]])
        assert_close(step.interval.lower, interval.lower, scale)
        assert_close(step.interval.upper, interval.upper, scale)
        assert forced
        for got, want in zip(new.ravel(), rows.ravel()):
            assert_close(got, want, scale)
        state.values[[s, t]] = new


def test_free_unknowns_are_exercised_with_unequal_weights():
    rng = np.random.default_rng(3)
    data, edits, totals = build("partial", rng, weighted=True, r=80)
    seen, _ = walk(data, edits, totals, rng, steps=300)
    assert seen["free"] > 50


@pytest.mark.parametrize("kind", ["study", "five", "survey"])
def test_same_fallback_on_infeasible_pair_systems(kind):
    # On about half the steps, one imputed cell of the pair moved far off
    # leaves the pair a share that no completion can take (negative, or off
    # a balance the other record fixes), or a record whose edits nothing can
    # meet: both derivations must give up, and agree where they do not.  An
    # observed cell that breaks a fully observed edit is input the chain
    # refuses (test_mcmc's test_record_breaking_an_edit_is_named_with_its_witness).
    rng = np.random.default_rng(17)
    data, edits, totals = build(kind, rng, weighted=True)
    systems = PairSystems(data, edits, totals)
    index = PairIndex.build(data.mask)
    fallbacks = 0
    for _ in range(150):
        s, t, j = select_pair(index, rng)
        var = data.columns[j]
        moved = data.copy()
        if rng.random() < 0.5:
            rec = rng.choice([s, t])
            cell = (rec, rng.choice(np.flatnonzero(moved.mask[rec])))
            moved.values[cell] += rng.choice([-1.0, 1.0]) * rng.uniform(0.5, 2.0) * scale_of(data.values[[s, t]])
        try:
            step = PairStep(systems, pair_system(systems, s, t, j), moved.values.tolist(), s, t)
            value = draw(rng, step.interval, moved.values[s, j], scale_of(moved.values[[s, t]]))
            interval, new = step.interval, step.complete(value)
        except InfeasibleSystemError:
            interval, value, new = None, float(moved.values[s, j]), None
        check_step(moved, edits, totals, s, t, var, interval, value, new)
        fallbacks += new is None
    assert 30 < fallbacks < 120


def test_bounds_crossed_within_the_pair_margin_meet_at_a_point():
    # x2 near 0.1, beside x1 and P near 4,000, is pinned twice: by s's
    # balance edit and, through the pair's x2 sum, by t's.  t's x2 is 1e-7
    # off its balance, so the two pins cross by that much: more than 1e-9
    # of the bounds, less than the pair's margin 1e-9 * 4,000.1, to which
    # the edits hold.  The bounds meet at a point, for the compiled step
    # and both oracles, and the step completes there.
    x1, x2 = np.array([4000.0, 3900.0, 3000.0]), np.array([0.1, 0.2, 500.0])
    values = np.column_stack([x1, x2, x1 + x2])
    values[1, 1] += 1e-7
    mask = np.zeros(values.shape, dtype=bool)
    mask[:2, 1] = True
    data, edits = DataMatrix(values, mask, ("x1", "x2", "P")), parse_edit_rules(STUDY_RULES)
    totals = {"x2": float(values[:, 1].sum())}
    systems = PairSystems(data, edits, totals)
    step = PairStep(systems, pair_system(systems, 0, 1, 1), values.tolist(), 0, 1)
    point = step.interval.lower
    assert step.interval.is_point() and abs(point - 0.1) == pytest.approx(5e-8, rel=1e-3)
    new_s, new_t = step.complete(point)
    assert abs(new_t[1] - 0.2) == pytest.approx(5e-8, rel=1e-3)
    for oracle in (pair_step, coupled_pair_step):
        interval = oracle(data, edits, totals, 0, 1, "x2", point)[0]
        assert interval.is_point()
        assert_close(interval.lower, point, 4000.1)


def test_worked_example_pair():
    data, edits, totals = pair_example_data()
    systems = PairSystems(data, edits, totals)
    assert (systems.hits, systems.systems) == (0, {})  # filled lazily
    step = PairStep(systems, pair_system(systems, 0, 1, 4), data.values.tolist(), 0, 1)
    assert (step.interval.lower, step.interval.upper) == (45.0, 110.0)
    new_s, new_t = step.complete(100.0)
    assert (new_s[3], new_s[4], new_t[3], new_t[4]) == (55.0, 100.0, 10.0, 80.0)
    assert (new_s[2], new_t[0]) == (20.0, 15.0)  # kept: each record alone imputes its total column
    with pytest.raises(InfeasibleSystemError, match="violates an edit"):
        step.complete(200.0)  # t.x4 = -90: the completion check catches it
    assert (len(systems.systems), systems.hits) == (1, 0)
    PairStep(systems, pair_system(systems, 0, 1, 4), data.values.tolist(), 0, 1)
    PairStep(systems, pair_system(systems, 1, 0, 3), data.values.tolist(), 1, 0)
    assert (len(systems.systems), systems.hits) == (2, 1)


def test_completion_margin_ignores_columns_no_edit_references():
    # Z is in no edit, so, as in violation_matrix, it does not scale the
    # margin: x1 one above its point interval misses x1 + x2 = P by 1 in
    # both records, which violation_matrix flags.
    values = np.array([[70.0, 20.0, 90.0, 1e12], [50.0, 10.0, 60.0, 1e12]])
    mask = np.zeros(values.shape, dtype=bool)
    mask[:, 0] = True
    data, edits = DataMatrix(values, mask, ("x1", "x2", "P", "Z")), parse_edit_rules(STUDY_RULES)
    systems = PairSystems(data, edits, {"x1": 120.0})
    step = PairStep(systems, pair_system(systems, 0, 1, 0), values.tolist(), 0, 1)
    assert (step.interval.lower, step.interval.upper) == (70.0, 70.0)
    with pytest.raises(InfeasibleSystemError, match=r"violates an edit \(residual 1\)"):
        step.complete(71.0)
    completed = np.array([[71.0, 20.0, 90.0, 1e12], [49.0, 10.0, 60.0, 1e12]])
    assert violation_matrix(edits, completed, data.columns).any(axis=1).all()


def test_known_edit_within_validates_margin_reaches_no_step():
    # Record 0 observes other = -1e-6 beside turnover = 5002, which validate
    # accepts.  The chain checks that edit once, at validate's margin, before
    # the first step: no step on record 0 falls back, and its imputed staff
    # and materials move.
    truth, mask, edits = survey_near_zero_other()
    data = DataMatrix(truth, mask, SURVEY_COLUMNS)
    totals = dict(zip(SURVEY_COLUMNS, truth.sum(axis=0).tolist()))
    config = McmcConfig(iterations=20_000, seed=1, predictors=loose_predictors(SURVEY_COLUMNS))
    out, trace = mcmc_refine(data, edits, totals, config)
    assert trace[-1]["fallbacks"] == 0
    assert (out.values[0] != truth[0]).tolist() == mask[0].tolist()


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


def test_default_predictors_follow_the_gram_factor_rule():
    # Survey records near 1e10 with ``other`` imputed (below 100) and every
    # other column observed.  turnover = goods + services and profit =
    # turnover - costs are exact, and costs = staff + materials + other
    # differs from staff + materials by less than the Gram factor's
    # rounding floor.  The default set drops each column the factor finds
    # dependent, so the chain, whose checkpoint factors that set, runs.
    for seed in range(3):
        data, edits, totals = build("large", np.random.default_rng(seed), weighted=False, r=200)
        out, trace = mcmc_refine(data, edits, totals, McmcConfig(seed=0, iterations=1))
        kept = ["goods", "services", "staff", "materials"]
        assert trace[0]["predictors"] == {"other": kept}
        assert out.values.tobytes() == data.values.tobytes()  # its edit pins every imputed other
        # The lstsq oracle of the factor's pivot: column c's rss on the
        # intercept and the kept columns before it, over c's sum of squares,
        # is far below GRAM_RTOL exactly for the dropped columns.
        kept_before = []
        for c, name in enumerate(SURVEY_COLUMNS):
            if name == "other":
                continue
            _, rss, _ = lstsq_posterior_fit(data.values, c, kept_before)
            ratio = rss / float(data.values[:, c] @ data.values[:, c])
            assert ratio > 100 * GRAM_RTOL if name in kept else ratio < GRAM_RTOL / 100, (name, ratio)
            if name in kept:
                kept_before.append(c)


def test_infeasible_worked_example():
    # Moving 200 off t's x5 leaves the pair -20 of x5: its bounds cross,
    # so the step's interval is their midpoint, and the completion there
    # misses an edit.
    data, edits, totals = pair_example_data()
    data.values[1, 4] -= 200.0
    systems = PairSystems(data, edits, totals)
    step = PairStep(systems, pair_system(systems, 0, 1, 4), data.values.tolist(), 0, 1)
    assert step.interval.is_point()
    with pytest.raises(InfeasibleSystemError):
        step.complete(step.interval.lower)
    assert pair_step(data, edits, totals, 0, 1, "x5", 50.0) is None


@pytest.mark.parametrize("kind", ["study", "partial"])
def test_seeded_chain_is_byte_identical(kind):
    rng = np.random.default_rng(41)
    data, edits, totals = build(kind, rng, weighted=True)
    # The survey's balances fix every target on its default predictors, so
    # a chain on those would compile no key.
    predictors = {"x1": ["P"], "x2": ["P", "x1"]} if kind == "study" else loose_predictors(data.columns)
    config = McmcConfig(iterations=400, seed=7, predictors=predictors)
    (a, trace_a), (b, trace_b) = (mcmc_refine(data, edits, totals, config) for _ in range(2))
    assert a.values.tobytes() == b.values.tobytes()
    assert trace_a == trace_b
    assert trace_a[-1]["pair_systems"]["compiled"] > 1
