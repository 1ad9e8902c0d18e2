"""Structural targets: the ones the equality edits fix given their predictors.

``pipeline.structural_targets`` (importable from ``mcmc`` too) marks them
before the chain starts, and the chain skips every step on them; impute
asks the same function with every other column as predictors.  These tests pin which targets are
structural, that their fit is exact, and that a full step on one, as the
chain took it before the skip, draws nothing and moves nothing beyond the
tolerance the edits hold to.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from calimp import mcmc, pipeline
from calimp.edits import DEFAULT_TOL, parse_edit_rules
from calimp.mcmc import (
    McmcConfig,
    PairIndex,
    PairSystems,
    draw_truncated_posterior,
    gram_factor,
    gram_matrix,
    mcmc_refine,
    posterior_model,
    select_pair,
    structural_targets,
)

from _oracles import PairStep, pair_system, random_imputation_instance
from test_pair_systems import FIVE_COLUMNS, STUDY_RULES, SURVEY_COLUMNS, build, loose_predictors, scale_of

STUDY_PREDICTORS = {"x1": ["P"], "x2": ["P", "x1"]}


def default_predictors(data, edits, totals):
    """The chain's default predictors, as its first trace row names them."""
    _, trace = mcmc_refine(data, edits, totals, McmcConfig(iterations=1, seed=0))
    return trace[0]["predictors"]


def structural_names(edits, columns, predictors):
    positions = {columns.index(name): names for name, names in predictors.items()}
    return {columns[j] for j in structural_targets(edits, columns, positions)}


def test_one_rule_serves_impute_and_the_chain():
    assert mcmc.structural_targets is pipeline.structural_targets


def test_study_x2_on_p_and_x1_is_structural():
    columns = ("x1", "x2", "P")
    edits = parse_edit_rules(STUDY_RULES)
    assert structural_names(edits, columns, STUDY_PREDICTORS) == {"x2"}
    assert structural_names(edits, columns, {"x2": ["P"], "x1": ["x2"]}) == set()


def test_every_five_column_target_is_structural_on_its_default_predictors():
    # c1 = turnover - profit - c2 takes both balances.
    data, edits, totals = build("five", np.random.default_rng(3), weighted=False)
    predictors = default_predictors(data, edits, totals)
    assert predictors["c1"] == ["turnover", "profit", "c2"]
    assert structural_names(edits, FIVE_COLUMNS, predictors) == set(FIVE_COLUMNS)


def test_survey_targets_are_structural_on_default_predictors_only():
    data, edits, totals = build("survey", np.random.default_rng(4), weighted=True, r=200)
    assert structural_names(edits, SURVEY_COLUMNS, default_predictors(data, edits, totals)) == set(SURVEY_COLUMNS)
    assert structural_names(edits, SURVEY_COLUMNS, loose_predictors(SURVEY_COLUMNS)) == set()


def test_a_point_made_by_two_inequalities_is_not_structural():
    # x >= P and x <= P fix x given P as surely as x = P does, but the
    # check reads equalities only.
    columns = ("x", "P")
    assert structural_names(parse_edit_rules("x >= P\nx <= P"), columns, {"x": ["P"]}) == set()
    assert structural_names(parse_edit_rules("x = P"), columns, {"x": ["P"]}) == {"x"}
    assert structural_names(parse_edit_rules(""), columns, {"x": ["P"]}) == set()


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.integers(0, 2**32 - 1))
def test_a_structural_target_fits_its_predictors_exactly(seed):
    # Random predictor sets on truth-first instances, whose balance edit
    # makes one column the sum of two others: wherever the equalities fix
    # the target given its predictors, the Gram factor's rss reads 0.
    rng = np.random.default_rng(seed)
    _, edits, _, truth = random_imputation_instance(rng, max_records=200)
    columns = list(edits.variables)
    predictors = {}
    for j, name in enumerate(columns):
        others = [c for c in columns if c != name]
        predictors[j] = [c for c in others if rng.random() < 0.7]
    for j in structural_targets(edits, columns, predictors):
        cols = [columns.index(c) for c in predictors[j]] + [j]
        assert gram_factor(gram_matrix(truth, cols).tolist(), columns[j])[2] == 0.0


def chain_states(data, edits, totals, predictors, seed):
    """The chain's values at each checkpoint of a 600-step chain that
    moves cells: the states a structural step can meet."""
    states = []
    real_validate = mcmc.validate

    def recording_validate(values, *args):
        states.append(values.copy())
        real_validate(values, *args)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(mcmc, "validate", recording_validate)
        mcmc_refine(data, edits, totals, McmcConfig(iterations=600, checkpoint_every=150, seed=seed,
                                                    predictors=predictors))
    return states[1:]


@pytest.mark.parametrize("kind", ["study", "five", "survey"])
def test_a_full_step_on_a_structural_target_draws_nothing_and_holds(kind):
    # At chain states, the step the chain took before it skipped structural
    # targets: the pair's interval, the posterior of a fresh Gram factor,
    # the truncated draw and the completion, which does not fall back.  It
    # takes no word from the generator, and the completed rows are the old
    # ones to DEFAULT_TOL times the record's largest magnitude.  The
    # five-column and survey states come from chains on one-predictor
    # models, which move cells; their structural targets are those of the
    # default predictors.
    rng = np.random.default_rng(61)
    data, edits, totals = build(kind, rng, weighted=True, r=120)
    if kind == "study":
        predictors = moving = STUDY_PREDICTORS
    else:
        predictors, moving = default_predictors(data, edits, totals), loose_predictors(data.columns)
    columns = list(data.columns)
    structural = structural_targets(edits, columns, {columns.index(c): p for c, p in predictors.items()})
    assert structural
    index = PairIndex.build(data.mask)
    checked = 0
    for k, values in enumerate(chain_states(data, edits, totals, moving, seed=1)):
        state = data.copy()
        state.values[:] = values
        systems = PairSystems(state, edits, totals)
        rows = values.tolist()
        for _ in range(30):
            s, t, j = select_pair(index, rng)
            if j not in structural:
                continue
            generator = np.random.default_rng(k)
            before = generator.bit_generator.state
            cols = [columns.index(c) for c in predictors[columns[j]]] + [j]
            step = PairStep(systems, pair_system(systems, s, t, j), rows, s, t)
            margin = DEFAULT_TOL * scale_of(values[[s, t]])
            assert step.interval.lower - margin <= values[s, j] <= step.interval.upper + margin
            factor = gram_factor(gram_matrix(values, cols).tolist(), columns[j])
            assert factor[2] == 0.0
            model = posterior_model(factor, rows[s], cols[:-1], len(values), generator)
            new = step.complete(draw_truncated_posterior(model, step.interval, generator))
            assert generator.bit_generator.state == before
            for old, row in zip(values[[s, t]], new):
                assert np.abs(np.subtract(row, old)).max() <= DEFAULT_TOL * max(1.0, float(np.abs(old).max()))
            checked += 1
    assert checked > 20
