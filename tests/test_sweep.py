"""The sweep chain against the one-pair step chain, and its guarantees at
every checkpoint.

``mcmc_refine`` updates a sweep's disjoint pairs at one model draw;
``_oracles.step_chain`` runs the chain one (pair, column) at a time, each
step with its own model draw, as the chain ran before sweeps.  Both keep
the same law: given the model, disjoint pairs are conditionally
independent, so a sweep is a blocked scan of moves the step chain also
makes.  Many seeded chains of each kind, from the same start, must give
the same distribution of their final cells.
"""

import numpy as np
import pytest
from scipy import stats

from calimp import mcmc
from calimp.edits import violation_matrix
from calimp.mcmc import McmcConfig, PairSystems, mcmc_refine
from calimp.pipeline import DataMatrix

from _oracles import step_chain
from test_mcmc import three_var_study_data
from test_pair_systems import build, loose_predictors

STUDY_PREDICTORS = {"x1": ["P"], "x2": ["P", "x1"]}
#: Chains of each kind per system, and the family-wise false-alarm rate of
#: one system's KS tests, split evenly over its statistics (Bonferroni).
#: Both were fixed before the test first ran.
CHAINS = 100
FAMILY_ALPHA = 1e-3


def law_case(kind):
    """A small start for many chains, its predictors, and the chain length:
    20 pair updates per imputed cell, the chain's default."""
    if kind == "study":
        pre, edits, totals = three_var_study_data(np.random.default_rng(5), r=60)
        predictors = STUDY_PREDICTORS
    else:  # one predictor each, so that no balance fixes a target
        pre, edits, totals = build("five", np.random.default_rng(5), weighted=False, r=24)
        predictors = loose_predictors(pre.columns)
    return pre, edits, totals, predictors, 20 * int(pre.mask.sum())


def statistics(values, pre):
    """Per chain: the final value of every imputed cell, then each column's
    spread of imputed values."""
    spreads = [np.std(values[pre.mask[:, j], j]) for j in range(values.shape[1]) if pre.mask[:, j].any()]
    return [*values[pre.mask], *spreads]


@pytest.mark.parametrize("kind", ["study", "five"])
def test_sweep_chains_and_step_chains_agree_in_law(kind):
    pre, edits, totals, predictors, iterations = law_case(kind)
    sweeps = np.array([
        statistics(mcmc_refine(pre, edits, totals, McmcConfig(iterations=iterations, seed=seed,
                                                              predictors=predictors))[0].values, pre)
        for seed in range(CHAINS)
    ])
    steps = np.array([
        statistics(step_chain(pre, edits, totals, iterations, 10_000 + seed, predictors), pre)
        for seed in range(CHAINS)
    ])
    # A statistic the step chains leave where it started is left there by
    # the sweeps too; every other one is tested.
    moving = [k for k in range(sweeps.shape[1]) if np.ptp(steps[:, k]) > 0]
    assert len(moving) >= 10
    for k in range(sweeps.shape[1]):
        if k not in moving:
            assert np.ptp(sweeps[:, k]) <= 1e-9 * max(1.0, float(np.abs(steps[:, k]).max())), k
    pvalues = [stats.ks_2samp(sweeps[:, k], steps[:, k]).pvalue for k in moving]
    assert min(pvalues) > FAMILY_ALPHA / len(moving), pvalues


@pytest.mark.parametrize("kind", ["study", "five"])
def test_guarantees_hold_at_every_checkpoint(kind):
    # A checkpoint every 23 updates falls inside some sweeps and between
    # others, and the first re-drawn column has an odd count of imputed
    # cells, so one of its records sits out each of its sweeps.  At every
    # checkpoint the edits and the weighted totals hold and the observed
    # cells keep their bytes; each checkpoint's iteration is a multiple of
    # 23 (or the last update).
    if kind == "study":
        pre, edits, totals = three_var_study_data(np.random.default_rng(11), r=150)
        predictors = STUDY_PREDICTORS
    else:
        pre, edits, totals = build("five", np.random.default_rng(11), weighted=True, r=90)
        predictors = loose_predictors(pre.columns)
    mask = pre.mask.copy()
    j = int(np.flatnonzero(mask.sum(axis=0) >= 2)[0])
    if mask[:, j].sum() % 2 == 0:
        mask[int(np.flatnonzero(~mask[:, j])[0]), j] = True
    data = DataMatrix(pre.values, mask, pre.columns, pre.weights)
    states, sweeps = [], []
    real_validate, real_by_key = mcmc.validate, PairSystems.by_key

    def recording_validate(values, *args):
        states.append(values.copy())
        real_validate(values, *args)

    def recording_by_key(systems, column, s, t):
        sweeps.append((column, len(s)))
        return real_by_key(systems, column, s, t)

    iterations = 500
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(mcmc, "validate", recording_validate)
        patch.setattr(PairSystems, "by_key", recording_by_key)
        out, trace = mcmc_refine(
            data, edits, totals, McmcConfig(iterations=iterations, checkpoint_every=23, seed=3, predictors=predictors)
        )
    assert mask[:, j].sum() % 2 == 1
    assert any(column == j and size < mask[:, j].sum() // 2 for column, size in sweeps)  # cut at a checkpoint
    assert any(column == j and size == mask[:, j].sum() // 2 for column, size in sweeps)  # a whole sweep
    assert [row["iteration"] for row in trace] == [*range(23, iterations, 23), iterations]
    assert len(states) == len(trace)  # one check per checkpoint
    observed = ~mask
    for values in states:
        assert not violation_matrix(edits, values, data.columns).any()
        for c, name in enumerate(data.columns):
            if name in totals:
                got = float(data.weights @ values[:, c])
                assert abs(got - totals[name]) <= 1e-8 * max(1.0, abs(totals[name])), (name, got)
        assert values[observed].tobytes() == pre.values[observed].tobytes()
    assert out.values.tobytes() == states[-1].tobytes()
    assert sum(entry["moved"] for entry in trace[-1]["per_variable"].values()) > 20
