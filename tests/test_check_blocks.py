"""``edits.violation_matrix`` checks records ``edits.CHECK_BLOCK`` at a time.

A record's verdicts read its own row only, so the callers that check the
whole data (``check_inputs``, ``validate``, the population screen and the
chain's start) name the same record and write the same bytes with a
block of a few records as with the default.  The block bounds the
check's working memory.
"""

import contextlib
import json
import tracemalloc

import numpy as np
import pytest

from calimp import edits as E
from calimp.errors import CalimpError, InfeasibleRecordError
from calimp.mcmc import McmcConfig, mcmc_refine
from calimp.pipeline import DataMatrix, ImputationConfig, check_inputs, impute, validate
from calimp.sim import (
    STUDY_COLUMNS, STUDY_ORDER, STUDY_PREDICTORS, StudyConfig, draw_sample, generate_population, study_edits,
)


@contextlib.contextmanager
def check_block(size):
    """``edits.CHECK_BLOCK`` set to ``size`` inside the block."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(E, "CHECK_BLOCK", size)
        yield


def study_records(n):
    """``n`` copies of a study record that meets every edit."""
    return np.tile([300.0, 100.0, 400.0], (n, 1))


def test_check_inputs_names_the_earliest_violation_across_blocks():
    values = study_records(12)
    values[[2, 10], [0, 1]] = np.nan
    values[9, 2] = 401.0  # block 2 of 4-record blocks: x1 + x2 = P
    values[5] = [100.0, 150.0, 250.0]  # block 1: x1 >= x2 and P >= 3*x2
    data = DataMatrix(values, np.isnan(values), STUDY_COLUMNS)
    for size in (E.CHECK_BLOCK, 4):
        with check_block(size), pytest.raises(InfeasibleRecordError) as err:
            check_inputs(data, study_edits(), None, None)
        assert str(err.value) == "record 5 violates edit 1 (residual -50)"
        assert (err.value.record, err.value.edit_index) == (5, 1)


def test_validate_names_the_earliest_masked_violation_across_blocks():
    values = study_records(30)
    values[12] = [100.0, 150.0, 250.0]  # masked row 4: x1 >= x2 broken
    values[27, 0] = 350.0  # masked row 9: x1 + x2 = P broken
    values[1, 2] = 500.0  # observed: not validate's to check
    mask = np.zeros(values.shape, dtype=bool)
    mask[::3, 0] = True
    data = DataMatrix(np.where(mask, np.nan, values), mask, STUDY_COLUMNS)
    for size in (E.CHECK_BLOCK, 4):
        with check_block(size), pytest.raises(CalimpError, match=r"^record 12 violates edit 1$"):
            validate(values, data, study_edits(), None)


def test_zero_records_give_an_empty_column_major_matrix():
    bad = E.violation_matrix(study_edits(), np.empty((0, 3)), STUDY_COLUMNS)
    assert bad.shape == (0, len(study_edits().edits)) and bad.dtype == bool and bad.flags.f_contiguous


def imputed(data, totals, method):
    config = ImputationConfig(method, seed=5, predictors=STUDY_PREDICTORS, variable_order=STUDY_ORDER)
    out, diagnostics = impute(data, study_edits(), totals if method != "upma" else None, config)
    return out.values.tobytes(), json.dumps(diagnostics)


def test_study_sample_imputes_the_same_bytes_in_blocks_of_seven():
    config = StudyConfig(population_size=40_000, sample_size=20_000)
    population, _ = generate_population(config, np.random.default_rng(3))
    _, masked, totals = draw_sample(population, config, np.random.default_rng(4))
    assert masked.n_records > E.CHECK_BLOCK
    for method in ("upma", "bpma", "bpmr"):
        want = imputed(masked, totals, method)
        with check_block(7):
            assert imputed(masked, totals, method) == want, method


def test_population_screen_keeps_its_bytes_in_blocks_of_seven():
    def population():
        data, totals = generate_population(StudyConfig(population_size=20_000), np.random.default_rng(8))
        return data.values.tobytes(), totals

    want = population()
    with check_block(7):
        assert population() == want


def test_study_chain_keeps_its_bytes_in_blocks_of_seven():
    config = StudyConfig(population_size=3_000, sample_size=600)
    population, _ = generate_population(config, np.random.default_rng(9))
    _, masked, totals = draw_sample(population, config, np.random.default_rng(10))
    start, _ = impute(masked, study_edits(), totals,
                      ImputationConfig("bpma", predictors=STUDY_PREDICTORS, variable_order=STUDY_ORDER))

    def chain():
        out, trace = mcmc_refine(start, study_edits(), totals,
                                 McmcConfig(iterations=600, seed=3, predictors=STUDY_PREDICTORS))
        return out.values.tobytes(), json.dumps(trace)

    want = chain()
    with check_block(7):
        assert chain() == want


def test_check_memory_is_one_blocks_worth():
    # 100,000 study records with 10% of cells unknown: the whole-matrix
    # check traced about 13 MB; blocks keep it to the 0.6 MB result and
    # one block's temporaries.
    values, _ = generate_population(StudyConfig(population_size=100_000), np.random.default_rng(0))
    values = values.values
    values[np.random.default_rng(1).random(values.shape) < 0.1] = np.nan
    system = study_edits()
    tracemalloc.start()
    try:
        bad = E.violation_matrix(system, values, STUDY_COLUMNS)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert bad.shape == (100_000, len(system.edits)) and not bad.any()
    assert peak < 4e6, peak
