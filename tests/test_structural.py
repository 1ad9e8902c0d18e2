"""Structural targets: the ones the equality edits fix given their predictors.

``pipeline.structural_targets`` (importable from ``mcmc`` too) marks them
before the chain starts, and the chain skips every step on them; impute
asks the same function with every other column as predictors.  These tests pin which targets are
structural, that the rule, read off the derivation cache, agrees with the
uncached equality-only rule of ``_oracles.structural_targets``, that their
fit is exact, and that a full step on one, as the chain took it before
the skip, draws nothing and moves nothing beyond the tolerance the edits
hold to.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from calimp import fm, mcmc, pipeline
from calimp.edits import DEFAULT_TOL, parse_edit_rules, system_matrices
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

import _oracles
from _oracles import PairStep, pair_system, random_imputation_instance
from test_pair_systems import (
    FIVE_COLUMNS, FIVE_RULES, STUDY_RULES, SURVEY_COLUMNS, SURVEY_RULES, build, loose_predictors, scale_of,
)

STUDY_PREDICTORS = {"x1": ["P"], "x2": ["P", "x1"]}


def default_predictors(data, edits, totals):
    """The chain's default predictors, as its first trace row names them."""
    _, trace = mcmc_refine(data, edits, totals, McmcConfig(iterations=1, seed=0))
    return trace[0]["predictors"]


def structural_names(edits, columns, predictors):
    A, _, is_eq = system_matrices(edits, columns)
    return structural_targets(fm.Derivations(A, is_eq, columns), predictors)


def oracle_names(edits, columns, predictors):
    positions = {columns.index(name): names for name, names in predictors.items()}
    return {columns[j] for j in _oracles.structural_targets(edits, columns, positions)}


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
    for name in columns:
        others = [c for c in columns if c != name]
        predictors[name] = [c for c in others if rng.random() < 0.7]
    for name in structural_names(edits, columns, predictors):
        cols = [columns.index(c) for c in predictors[name] + [name]]
        assert gram_factor(gram_matrix(truth, cols).tolist(), name)[2] == 0.0


def random_predictors(rng, columns, sets):
    """``sets`` random predictor maps over ``columns``: each target keeps
    each other column with a probability drawn per map."""
    maps = []
    for _ in range(sets):
        keep = rng.uniform(0.2, 1.0)
        maps.append({name: [c for c in columns if c != name and rng.random() < keep] for name in columns})
    return maps


@settings(max_examples=40, deadline=None, derandomize=True, suppress_health_check=[HealthCheck.too_slow])
@given(st.integers(0, 2**32 - 1))
def test_cached_rule_matches_the_equality_only_rule_on_random_instances(seed):
    # One cache serves every predictor set of a system, as impute's and the
    # chain's do; the block derivation reads the inequalities of the
    # block too, which never change pinned.
    rng = np.random.default_rng(seed)
    _, edits, _, _ = random_imputation_instance(rng, max_records=40)
    columns = list(edits.variables)
    A, _, is_eq = system_matrices(edits, columns)
    derive = fm.Derivations(A, is_eq, columns)
    for predictors in random_predictors(rng, columns, 10):
        assert structural_targets(derive, predictors) == oracle_names(edits, columns, predictors), predictors


@pytest.mark.parametrize("rules, columns", [
    (STUDY_RULES, ("x1", "x2", "P")), (FIVE_RULES, FIVE_COLUMNS), (SURVEY_RULES, SURVEY_COLUMNS),
], ids=["study", "five", "survey"])
def test_cached_rule_matches_the_equality_only_rule_on_fixed_systems(rules, columns):
    edits = parse_edit_rules(rules)
    rng = np.random.default_rng(len(columns))
    structural = 0
    for predictors in random_predictors(rng, list(columns), 40) + [{c: [o for o in columns if o != c] for c in columns}]:
        found = structural_names(edits, columns, predictors)
        assert found == oracle_names(edits, columns, predictors), predictors
        structural += bool(found)
    assert structural > 0


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
    structural = {columns.index(name) for name in structural_names(edits, columns, predictors)}
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
