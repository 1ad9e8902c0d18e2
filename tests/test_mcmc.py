import functools
import math
import time

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st
from scipy import stats

from calimp import mcmc, pipeline, sim
from calimp.edits import DEFAULT_TOL, parse_edit_rules, violation_matrix
from calimp.errors import CalimpError, InfeasibleRecordError, InsufficientDataError, RankDeficiencyError
from calimp.fm import Interval, admissible_interval
from calimp.mcmc import (
    McmcConfig,
    PairIndex,
    PairSystems,
    PosteriorModel,
    draw_truncated_posterior,
    gram_factor,
    gram_matrix,
    mcmc_refine,
    pair_constraint_system,
    posterior_model,
    select_pair,
)
from calimp.pipeline import DataMatrix, ImputationConfig, impute, validate
from calimp.regression import GRAM_RTOL

from _oracles import PairStep, lstsq_posterior_fit, lstsq_posterior_model, pair_system

seeds = st.integers(0, 2**32 - 1)

FIVE_VAR_RULES = "x1 + x2 + x3 + x4 = x5\n" + "\n".join(f"x{j} >= 0" for j in range(1, 6))


def pair_example_data():
    values = np.array(
        [
            [10.0, 15.0, 20.0, 30.0, 75.0],
            [15.0, 30.0, 25.0, 35.0, 105.0],
            [9975.0, 11955.0, 7955.0, 31935.0, 61820.0],
        ]
    )
    mask = np.array(
        [
            [False, False, True, True, True],
            [True, False, False, True, True],
            [False, False, False, False, False],
        ]
    )
    totals = {"x1": 10000.0, "x2": 12000.0, "x3": 8000.0, "x4": 32000.0, "x5": 62000.0}
    data = DataMatrix(values, mask, ("x1", "x2", "x3", "x4", "x5"))
    return data, parse_edit_rules(FIVE_VAR_RULES), totals


def chain_at_the_margin(k, f):
    """40 records over the chain ``x <= a <= a2 <= ... <= b`` of ``k``
    inequalities, with ``x >= 0`` and a column ``c`` in no edit, drawn from
    ``default_rng(0)``: b ~ U(1000, 2000), each lower column the one above
    less U(0, 100), c ~ U(0, 1).  Record 0 breaks each inequality of the
    chain by ``f`` times its margin m, 1e-9 times its largest value: its
    top middle column is b + f m, each one below the one above plus f m.
    Every column below b is imputed in every record, with its column sum
    as its total.  validate accepts the input, but a bound derived from
    the chain sums the breaks, so record 0 misses it by up to k f m.
    Returns the data, the edits, the totals and predictors ``c`` for
    each imputed column."""
    rng = np.random.default_rng(0)
    names = ["x", "a", *(f"a{i}" for i in range(2, k))]
    columns = [rng.uniform(1000.0, 2000.0, 40)]
    for _ in names:
        columns.insert(0, columns[0] - rng.uniform(0.0, 100.0, 40))
    values = np.column_stack([*columns, rng.uniform(0.0, 1.0, 40)])
    margin = 1e-9 * np.abs(values[0, : k + 1]).max()
    for i in range(k - 1, -1, -1):
        values[0, i] = values[0, i + 1] + f * margin
    names += ["b", "c"]
    rules = [f"{upper} - {lower} >= 0" for lower, upper in zip(names[:k], names[1 : k + 1])]
    mask = np.zeros(values.shape, dtype=bool)
    mask[:, :k] = True
    totals = {name: float(values[:, j].sum()) for j, name in enumerate(names[:k])}
    data = DataMatrix(values, mask, tuple(names))
    return data, parse_edit_rules("\n".join([*rules, "x >= 0"])), totals, {name: ["c"] for name in names[:k]}


def three_var_study_data(rng, r=400):
    rules = "x1 + x2 = P\nx1 >= x2\nP >= 3*x2\nx1 >= 0\nx2 >= 0\nP >= 0\n"
    edits = parse_edit_rules(rules)
    x2 = rng.uniform(0.0, 40.0, size=r)
    slack = rng.uniform(0.0, 60.0, size=r)
    x1 = 2 * x2 + slack
    truth = np.column_stack([x1, x2, x1 + x2])
    mask = np.zeros_like(truth, dtype=bool)
    rows = rng.choice(r, size=int(0.2 * r), replace=False)
    mask[rows, 0] = True
    mask[rows[: len(rows) // 2], 1] = True
    extra = rng.choice(np.setdiff1d(np.arange(r), rows), size=int(0.1 * (r - len(rows))), replace=False)
    mask[extra, 1] = True
    totals = {"x1": float(truth[:, 0].sum()), "x2": float(truth[:, 1].sum())}
    values = truth.copy()
    values[mask] = np.nan
    masked = DataMatrix(values, mask, ("x1", "x2", "P"))
    pre, _ = impute(
        masked, edits, totals,
        ImputationConfig("bpma", predictors={"x1": ["P"], "x2": ["P", "x1"]},
                         variable_order=["x1", "x2"]),
    )
    return pre, edits, totals


def five_var_data(rng, r=120):
    """Criterion 09's balance system, bpma-imputed, default predictors."""
    x1, x2, x3, x4 = (rng.uniform(0.0, hi, size=r) for hi in (60.0, 50.0, 40.0, 80.0))
    truth = np.column_stack([x1, x2, x3, x4, x1 + x2 + x3 + x4])
    mask = np.zeros_like(truth, dtype=bool)
    rows = rng.choice(r, size=r // 3, replace=False)
    mask[rows[: r // 5], 0] = True
    mask[rows[r // 10 :], 3] = True
    mask[rows[r // 20 : r // 4], 4] = True
    totals = {f"x{j + 1}": float(truth[:, j].sum()) for j in range(5)}
    values = np.where(mask, np.nan, truth)
    edits = parse_edit_rules(FIVE_VAR_RULES)
    pre, _ = impute(DataMatrix(values, mask, ("x1", "x2", "x3", "x4", "x5")), edits, totals, ImputationConfig("bpma"))
    return pre, edits, totals


@functools.lru_cache(maxsize=None)
def study_start(sample_seed):
    """A desk-scale study sample (population seed 1234) imputed by bpma:
    the start of a study chain, with its edits and totals."""
    config = sim.StudyConfig()
    population, _ = sim.generate_population(config, np.random.default_rng(1234))
    _, masked, totals = sim.draw_sample(population, config, np.random.default_rng(sample_seed))
    edits = sim.study_edits()
    pre, _ = impute(masked, edits, totals, ImputationConfig(
        "bpma", predictors=sim.STUDY_PREDICTORS, variable_order=sim.STUDY_ORDER))
    return pre, edits, totals


def swept_column(systems, groups):
    """The column a sweep's pair groups re-draw: their target ``s.<name>``."""
    return systems.columns.index(groups[0][0].compiled.target[2:])


def gram_fit(gram):
    """Least-squares coefficients L⁻ᵀl and rss from :func:`gram_factor`."""
    L, l, rss = gram_factor(gram, "y")
    lower = np.zeros((len(l), len(l)))
    for i, row in enumerate(L):
        lower[i, : i + 1] = row
    return np.linalg.solve(lower.T, np.array(l)), rss


def assert_matches_oracle(gram, values, target, predictors):
    """The Gram-form fit agrees with ``lstsq`` on ``values``: the same rank
    verdict, coefficients to 1e-8 and rss to 1e-8 relative (an exact fit
    reads 0, where lstsq leaves rounding residue far below the floor)."""
    coef_o, rss_o, full_rank = lstsq_posterior_fit(values, target, predictors)
    if not full_rank:
        with pytest.raises(RankDeficiencyError):
            gram_fit(gram)
        return
    coef, rss = gram_fit(gram)
    assert np.linalg.norm(coef - coef_o) <= 1e-8 * np.linalg.norm(coef_o)
    assert abs(rss - rss_o) <= 1e-8 * rss_o + GRAM_RTOL * gram[-1][-1]


def assert_factor_of(factor, gram):
    """``factor``, kept along a chain, is :func:`gram_factor` of ``gram``, a
    fresh Gram matrix on the current values, up to the rounding the chain's
    updates add: row i of L entrywise to 1e-8 of √G_ii (the row's norm), l
    to 1e-8 of √(yᵀy) and rss as in :func:`assert_matches_oracle`."""
    (L, l, rss), (L_o, l_o, rss_o) = factor, gram_factor(gram, "y")
    for i, (row, row_o) in enumerate(zip(L, L_o)):
        assert np.abs(np.subtract(row, row_o)).max() <= 1e-8 * np.sqrt(gram[i][i]), (i, row, row_o)
    assert np.abs(np.subtract(l, l_o)).max() <= 1e-8 * np.sqrt(gram[-1][-1]), (l, l_o)
    assert abs(rss - rss_o) <= 1e-8 * rss_o + GRAM_RTOL * gram[-1][-1], (rss, rss_o)


class TestSelectPair:
    def test_unique_candidate(self):
        mask = np.array([[False, True], [False, True], [False, False]])
        s, t, j = select_pair(PairIndex.build(mask), np.random.default_rng(0))
        assert {s, t} == {0, 1}
        assert j == 1

    def test_no_candidates_rejected(self):
        mask = np.array([[True, False], [False, True]])
        with pytest.raises(CalimpError, match="share"):
            PairIndex.build(mask)

    def test_uniform_over_combinations(self):
        # Three records all missing b, two also missing a: combos are
        # 3 pairs for b plus 1 pair for a.
        mask = np.array([[True, True], [True, True], [False, True], [False, False]])
        index = PairIndex.build(mask)
        rng = np.random.default_rng(1)
        counts = {}
        for _ in range(8000):
            s, t, j = select_pair(index, rng)
            counts[(frozenset((s, t)), j)] = counts.get((frozenset((s, t)), j), 0) + 1
        assert len(counts) == 4
        freqs = np.array(sorted(counts.values())) / 8000
        assert np.all(np.abs(freqs - 0.25) < 0.03)

    def test_sparse_mask_pair_found_quickly(self):
        # Two imputed cells among 20,000 records: a rejection sampler over
        # all record pairs almost never hits them.
        r = 20_000
        mask = np.zeros((r, 2), dtype=bool)
        mask[[123, 17_456], 1] = True
        rng = np.random.default_rng(0)
        t0 = time.perf_counter()
        index = PairIndex.build(mask)
        draws = {select_pair(index, rng) for _ in range(200)}
        assert time.perf_counter() - t0 < 1.0
        assert draws == {(123, 17_456, 1), (17_456, 123, 1)}

    def test_chi_square_over_unordered_pairs_and_order_fairness(self):
        # Columns with 4, 3 and 2 imputed rows: 6 + 3 + 1 unordered
        # (pair, variable) combinations, each equally likely.
        mask = np.zeros((6, 3), dtype=bool)
        mask[[0, 1, 2, 3], 0] = True
        mask[[1, 4, 5], 1] = True
        mask[[0, 5], 2] = True
        index = PairIndex.build(mask)
        rng = np.random.default_rng(5)
        counts: dict = {}
        first_lower = 0
        draws = 20_000
        for _ in range(draws):
            s, t, j = select_pair(index, rng)
            assert s != t and mask[s, j] and mask[t, j]
            key = (frozenset((s, t)), j)
            counts[key] = counts.get(key, 0) + 1
            first_lower += s < t
        assert len(counts) == 10
        assert stats.chisquare(list(counts.values())).pvalue > 1e-3
        assert stats.binomtest(first_lower, draws).pvalue > 1e-3

    def test_example_pair_is_eligible(self):
        data, _, _ = pair_example_data()
        index = PairIndex.build(data.mask)
        rng = np.random.default_rng(2)
        seen = set()
        for _ in range(200):
            s, t, j = select_pair(index, rng)
            seen.add((frozenset((s, t)), data.columns[j]))
        assert (frozenset((0, 1)), "x5") in seen


class TestPairConstraintSystem:
    def test_reproduces_worked_example(self):
        data, edits, totals = pair_example_data()
        system, cells = pair_constraint_system(data, edits, totals, 0, 1)
        as_tuples = {(tuple(sorted(e.coeffs.items())), e.constant, e.kind.value) for e in system.edits}
        assert ((("t.x1", 1.0),), -15.0, "equality") in as_tuples
        assert ((("s.x3", 1.0),), -20.0, "equality") in as_tuples
        assert ((("s.x4", 1.0), ("t.x4", 1.0)), -65.0, "equality") in as_tuples
        assert ((("s.x5", 1.0), ("t.x5", 1.0)), -180.0, "equality") in as_tuples
        interval, record = admissible_interval(system, "s.x5")
        assert (interval.lower, interval.upper) == (45.0, 110.0)
        assert cells["s.x5"] == (0, 4)

    def test_pair_of_two_records_only(self):
        data, edits, totals = pair_example_data()
        two = DataMatrix(
            data.values[:2].copy(), data.mask[:2].copy(), data.columns
        )
        small_totals = {name: float(two.values[:, j].sum()) for j, name in enumerate(two.columns)}
        system, _ = pair_constraint_system(two, edits, small_totals, 0, 1)
        pair_sums = [e for e in system.edits if len(e.coeffs) == 2 and set(e.coeffs) == {"s.x4", "t.x4"}]
        assert pair_sums and pair_sums[0].constant == -65.0

    def test_variable_imputed_in_one_record_is_pinned(self):
        data, edits, totals = pair_example_data()
        system, _ = pair_constraint_system(data, edits, totals, 0, 1)
        pins = [e for e in system.edits if list(e.coeffs) == ["t.x1"]and e.kind.value == "equality"]
        assert pins and pins[0].constant == -15.0

    def test_shares_are_the_pair_sums_whatever_the_totals(self):
        # The totals' columns shape the system; their values do not enter it.
        data, edits, totals = pair_example_data()
        system, cells = pair_constraint_system(data, edits, totals, 0, 1)
        shifted = {name: value + 1000.0 for name, value in totals.items()}
        assert pair_constraint_system(data, edits, shifted, 0, 1) == (system, cells)


class TestDrawTruncatedPosterior:
    def test_point_interval_needs_no_draw(self):
        model = PosteriorModel(np.zeros(1), 1.0, 5.0)
        assert draw_truncated_posterior(model, Interval(3.0, 3.0), np.random.default_rng(0)) == 3.0

    def test_draws_stay_inside(self):
        model = PosteriorModel(np.zeros(1), 4.0, 70.0)
        rng = np.random.default_rng(1)
        for _ in range(200):
            v = draw_truncated_posterior(model, Interval(45.0, 110.0), rng)
            assert 45.0 <= v <= 110.0

    def test_degenerate_variance_returns_mean(self):
        model = PosteriorModel(np.zeros(1), 0.0, 50.0)
        assert draw_truncated_posterior(model, Interval(45.0, 110.0), np.random.default_rng(0)) == 50.0

    def test_posterior_model_recovers_exact_relation(self):
        rng = np.random.default_rng(3)
        x = rng.uniform(0, 10, size=40)
        y = 2.0 * x + 1.0
        values = np.column_stack([y, x])
        factor = gram_factor(gram_matrix(values, [1, 0]).tolist(), "y")
        model = posterior_model(factor, values[0].tolist(), [1], 40, rng)
        assert model.variance == pytest.approx(0.0, abs=1e-16)
        assert model.predictive_mean == pytest.approx(y[0], abs=1e-8)
        assert posterior_model(factor, values[0].tolist(), [1], 40, rng) == model  # the factor is only read


class TestPosteriorOracle:
    @settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(seeds, st.sampled_from(["noisy", "exact_fit", "collinear"]))
    def test_gram_posterior_matches_lstsq(self, seed, kind):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(12, 300))
        p = int(rng.integers(1, 5))
        # Integer predictors keep exactly collinear designs exact.
        X = rng.integers(-20, 21, size=(n, p)).astype(float)
        if kind == "collinear":
            X[:, -1] = 7.0 if p == 1 else X[:, :-1] @ rng.integers(-3, 4, size=p - 1) + 2.0
        coef = rng.normal(scale=5.0, size=p + 1)
        y = coef[0] + X @ coef[1:]
        if kind != "exact_fit":
            y += rng.normal(scale=rng.uniform(0.1, 10.0), size=n)
        values = np.column_stack([X, y])
        gram = gram_matrix(values, [*range(p), p]).tolist()
        assert_matches_oracle(gram, values, p, range(p))

        names = tuple(f"x{j}" for j in range(p)) + ("y",)
        data = DataMatrix(values, np.zeros(values.shape, dtype=bool), names)
        record = int(rng.integers(n))
        row = values[record].tolist()
        try:
            _, sigma2_o, _ = lstsq_posterior_model(data, "y", names[:-1], record, np.random.default_rng(seed))
        except RankDeficiencyError:
            with pytest.raises(RankDeficiencyError):
                gram_factor(gram, "y")
            return
        model = posterior_model(gram_factor(gram, "y"), row, list(range(p)), n, np.random.default_rng(seed))
        if kind == "exact_fit":
            assert model.variance == 0.0
        else:  # the same chi-square draw scales the same rss
            assert model.variance == pytest.approx(sigma2_o, rel=1e-8)
        # β = coef + σ C⁻ᵀε with ZᵀZ = CCᵀ, ε the stream's normals after the
        # chi-square draw; an exact fit draws nothing.
        coef_o = lstsq_posterior_fit(values, p, range(p))[0]
        want = coef_o
        if model.variance > 0:
            stream = np.random.default_rng(seed)
            stream.chisquare(n - p - 1)
            Z = np.column_stack([np.ones(n), X])
            C = np.linalg.cholesky(Z.T @ Z)
            want = coef_o + np.sqrt(model.variance) * np.linalg.solve(C.T, stream.standard_normal(p + 1))
        assert np.linalg.norm(model.coefficients - want) <= 1e-8 * np.linalg.norm(want)
        assert model.predictive_mean == pytest.approx(want[0] + X[record] @ want[1:], rel=1e-8, abs=1e-8)

    def test_coefficient_draws_have_the_posterior_covariance(self):
        rng = np.random.default_rng(12)
        n = 60
        X = rng.normal(size=(n, 2)) + [3.0, -1.0]
        y = 1.0 + X @ [2.0, -1.0] + rng.normal(size=n)
        values = np.column_stack([y, X])
        gram, row = gram_matrix(values, [1, 2, 0]).tolist(), values[0].tolist()
        coef, _ = gram_fit(gram)
        factor = gram_factor(gram, "y")
        Z = np.column_stack([np.ones(n), X])
        C = np.linalg.cholesky(Z.T @ Z)
        # Cᵀ(β - coef)/σ is standard normal when cov(β) = σ²(ZᵀZ)⁻¹.
        white = []
        for _ in range(4000):
            model = posterior_model(factor, row, [1, 2], n, rng)
            white.append(C.T @ (model.coefficients - coef) / np.sqrt(model.variance))
        assert np.abs(np.cov(np.array(white).T) - np.eye(3)).max() < 0.12
        assert np.abs(np.mean(white, axis=0)).max() < 0.1

    @settings(max_examples=12, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(seeds, st.sampled_from(["study", "five"]))
    def test_maintained_statistics_match_a_fresh_fit_along_chains(self, seed, system):
        # Every model a sweep draws, and every checkpoint's exact_fit flag,
        # comes from gram_factor of a Gram matrix built on the chain's live
        # values (not a copy that could go stale), and that factor agrees
        # with lstsq on those values.  draw_parameters gets the factor just
        # checked, once per sweep that updates a pair.  Before the chain's
        # pair systems exist, the default predictors are picked by a factor
        # of the input.
        rng = np.random.default_rng(seed)
        r = int(rng.integers(60, 200))
        if system == "study":
            pre, edits, totals = three_var_study_data(rng, r=r)
            # x2 = P - x1: an exact fit, whose sweeps are skipped as structural.
            predictors, structural = {"x1": ["P"], "x2": ["P", "x1"]}, {1}
        else:
            pre, edits, totals = five_var_data(rng, r=r)
            predictors, structural = None, set()  # the fully observed x2, x3 fix no target
        checked = {"sweeps": 0, "checkpoints": 0, "skipped": 0}
        real_init, real_by_key, real_gram = PairSystems.__init__, PairSystems.by_key, mcmc.gram_matrix
        real_factor, real_draw, real_validate = mcmc.gram_factor, mcmc.draw_parameters, mcmc.validate
        live, factored = {}, set()

        def recording_init(systems_, data_, *args):
            live["values"] = data_.values  # the array the chain updates
            real_init(systems_, data_, *args)

        def checked_by_key(systems_, j, s, t):
            assert j not in structural  # a structural sweep looks no key up
            groups = real_by_key(systems_, j, s, t)
            checked["skipped"] += sum(len(gs) for system_, gs, _ in groups if system_.compiled.pinned)
            return groups

        def checked_gram(values, columns):
            if "values" in live:
                assert values is live["values"]
                live.update(snapshot=values.copy(), columns=list(columns))
                factored.add(columns[-1])
            return real_gram(values, columns)

        def checked_factor(gram, target):
            factor = real_factor(gram, target)
            if "columns" in live:
                columns = live.pop("columns")
                assert target == pre.columns[columns[-1]]
                assert_matches_oracle(gram, live["snapshot"], columns[-1], columns[:-1])
                live["factor"] = factor
            return factor

        def checked_draw(factor, n, rng_):
            assert factor is live.pop("factor") and n == len(live["snapshot"])
            checked["sweeps"] += 1
            return real_draw(factor, n, rng_)

        def counting_validate(values, *args):
            checked["checkpoints"] += "values" in live
            real_validate(values, *args)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(PairSystems, "__init__", recording_init)
            patch.setattr(PairSystems, "by_key", checked_by_key)
            patch.setattr(mcmc, "gram_matrix", checked_gram)
            patch.setattr(mcmc, "gram_factor", checked_factor)
            patch.setattr(mcmc, "draw_parameters", checked_draw)
            patch.setattr(mcmc, "validate", counting_validate)
            _, trace = mcmc_refine(
                pre, edits, totals,
                McmcConfig(iterations=600, checkpoint_every=int(rng.integers(50, 300)),
                           seed=int(rng.integers(1000)), predictors=predictors),
            )
        assert checked["sweeps"] > 0 and checked["checkpoints"] >= 2 and checked["skipped"] > 0
        # The pinned updates are exactly the skipped ones, on pinned keys and
        # on structural targets; every other pair is updated at a drawn model.
        per_variable = trace[-1]["per_variable"]
        on_structural = sum(per_variable[pre.columns[j]]["pinned"] for j in structural)
        assert (on_structural > 0) == bool(structural)
        assert sum(entry["pinned"] for entry in per_variable.values()) == checked["skipped"] + on_structural
        for j in structural:  # never factored, and exact
            assert j not in factored
            assert per_variable[pre.columns[j]]["exact_fit"] is True

    @pytest.mark.parametrize("system", ["study", "five_unread"])
    def test_maintained_blocks_match_a_fresh_gram_between_checkpoints(self, system):
        # One run of sweeps with no checkpoint before the last update: the
        # Gram matrix each sweep factors is built on the chain's values as
        # they stand after every earlier sweep's completions, the input with
        # each accepted completion applied, and reads only its model's
        # columns.
        rng = np.random.default_rng(23)
        if system == "study":
            pre, edits, totals = three_var_study_data(rng, r=150)
            predictors, unread = {"x1": ["P"], "x2": ["P", "x1"]}, None
        else:
            # x2 is imputed in one record and has no total: it is re-drawn
            # never and read by no model (nothing else is fully observed but
            # x3), yet it moves with its record through the balance.
            pre, edits, totals = five_var_data(rng, r=150)
            record = int(np.flatnonzero(pre.mask[:, 0])[0])
            mask = pre.mask.copy()
            mask[record, 1] = True
            pre = DataMatrix(pre.values, mask, pre.columns)
            del totals["x2"]
            predictors, unread = None, 1
        tracked = pre.values.copy()
        grams = []
        real_gram, real_update = mcmc.gram_matrix, mcmc.update_pairs

        def checked_gram(values, columns):
            if len(columns) < len(pre.columns):  # a model's columns, not the set-up's
                assert unread not in columns
                assert values.tobytes() == tracked.tobytes()
                grams.append(list(columns))
            return real_gram(values, columns)

        def tracking_update(systems, values, *args):
            update = real_update(systems, values, *args)
            ok = update.feasible
            tracked[update.s[ok]] = update.new_s[ok]
            tracked[update.t[ok]] = update.new_t[ok]
            return update

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(mcmc, "gram_matrix", checked_gram)
            patch.setattr(mcmc, "update_pairs", tracking_update)
            refined, trace = mcmc_refine(
                pre, edits, totals,
                McmcConfig(iterations=800, checkpoint_every=801, seed=4, predictors=predictors),
            )
        assert len(trace) == 1 and len(grams) > 10
        assert refined.values.tobytes() == tracked.tobytes()
        assert sum(entry["moved"] for entry in trace[0]["per_variable"].values()) > 100
        if unread is not None:
            assert refined.values[record, unread] != pre.values[record, unread]

    def test_collinear_predictors_stop_the_chain(self):
        # a + b = c: regressing d on a, b and c is rank deficient, for the
        # lstsq oracle and for the maintained statistics alike.
        rng = np.random.default_rng(3)
        r = 40
        a, b = rng.uniform(1, 10, r), rng.uniform(1, 10, r)
        values = np.column_stack([a, b, a + b, rng.uniform(1, 10, r)])
        mask = np.zeros_like(values, dtype=bool)
        mask[:10, 3] = True
        data = DataMatrix(values, mask, ("a", "b", "c", "d"))
        edits = parse_edit_rules("a + b = c\na >= 0\nb >= 0\nc >= 0\nd >= 0\n")
        assert not lstsq_posterior_fit(values, 3, [0, 1, 2])[2]
        with pytest.raises(RankDeficiencyError):
            mcmc_refine(data, edits, None, McmcConfig(iterations=5, predictors={"d": ["a", "b", "c"]}))


class TestMcmcRefine:
    def test_default_predictors_drop_dependent_columns(self):
        # No column is fully observed, so every target's default predictors
        # are all the other columns, which the two balance edits make
        # collinear; the chain keeps only the independent ones.
        rng = np.random.default_rng(11)
        r = 300
        c1, c2 = np.round(rng.lognormal(4.0, 0.8, r)), np.round(rng.lognormal(3.5, 1.0, r))
        profit = np.round(rng.lognormal(3.0, 1.0, r))
        columns = ("turnover", "profit", "costs", "c1", "c2")
        truth = np.column_stack([profit + c1 + c2, profit, c1 + c2, c1, c2])
        mask = np.zeros(truth.shape, dtype=bool)
        for j in range(len(columns)):
            mask[rng.choice(r, r // 10, replace=False), j] = True
        edits = parse_edit_rules(
            "turnover = profit + costs\ncosts = c1 + c2\n" + "\n".join(f"{c} >= 0" for c in columns)
        )
        totals = {c: float(truth[:, j].sum()) for j, c in enumerate(columns)}
        data = DataMatrix(truth.copy(), mask, columns)
        refined, trace = mcmc_refine(data, edits, totals, McmcConfig(iterations=2000, seed=1))
        assert trace[-1]["accepted"] + trace[-1]["fallbacks"] == 2000
        assert not violation_matrix(edits, refined.values, columns).any()
        for j, name in enumerate(columns):
            assert float(refined.values[:, j].sum()) == pytest.approx(totals[name], rel=1e-8)
        assert np.array_equal(refined.values[~mask], truth[~mask])
        # The trace names what each target kept: one member of each balance
        # goes (the last dependent column of the design).
        assert trace[0]["predictors"] == {
            "turnover": ["profit", "costs", "c1"],
            "profit": ["turnover", "costs", "c1"],
            "costs": ["turnover", "profit", "c1"],
            "c1": ["turnover", "profit", "c2"],
            "c2": ["turnover", "profit", "c1"],
        }
        assert all("predictors" not in row for row in trace[1:])
        # Every target is an exact function of its kept predictors through
        # the balances (c1 = turnover - profit - c2 takes both), so σ² = 0
        # and its steps are the identity: each is skipped as structural,
        # looks no key up and moves nothing.
        for row in trace:
            assert row["pair_systems"] == {"compiled": 0, "hits": 0}
            assert row["fallbacks"] == 0
        assert refined.values.tobytes() == truth.tobytes()
        for name, entry in trace[-1]["per_variable"].items():
            assert entry["accepted"] > 300
            assert entry["pinned"] == entry["accepted"]
            assert (entry["moved"], entry["mean_abs_move"], entry["exact_fit"]) == (0, 0.0, True)

    def test_moved_matches_an_independent_count(self):
        # A checkpoint after every update stops each sweep after one pair.
        # The moves are counted from the states the checkpoints see: a
        # pair's target cell that differs after its sweep moved.
        rng = np.random.default_rng(8)
        pre, edits, totals = three_var_study_data(rng, r=120)
        steps, states, pending = 100, [], []
        moved = {"x1": 0, "x2": 0}
        total_move = {"x1": 0.0, "x2": 0.0}
        real_update, real_validate = mcmc.update_pairs, mcmc.validate

        def recording_update(systems, values, groups, *args):
            j = swept_column(systems, groups)
            pending.append((j, np.concatenate([gs for _, gs, _ in groups]), values.copy()))
            return real_update(systems, values, groups, *args)

        def snapshotting_validate(values, *args):
            states.append(values.copy())
            while pending:
                j, s, before = pending.pop()
                change = np.abs(values[s, j] - before[s, j])
                moved[pre.columns[j]] += int(np.count_nonzero(change))
                total_move[pre.columns[j]] += float(change.sum())
            real_validate(values, *args)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(mcmc, "update_pairs", recording_update)
            patch.setattr(mcmc, "validate", snapshotting_validate)
            _, trace = mcmc_refine(
                pre, edits, totals,
                McmcConfig(iterations=steps, checkpoint_every=1, seed=4,
                           predictors={"x1": ["P"], "x2": ["P", "x1"]}),
            )
        assert len(states) == steps  # every update
        assert [row["iteration"] for row in trace] == list(range(1, steps + 1))
        last = trace[-1]["per_variable"]
        assert sum(moved.values()) > 10
        for var in ("x1", "x2"):
            assert last[var]["moved"] == moved[var]
            assert last[var]["mean_abs_move"] == pytest.approx(total_move[var] / last[var]["accepted"], rel=1e-12)

    def test_unknown_predictor_is_rejected(self):
        pre, edits, totals = three_var_study_data(np.random.default_rng(6), r=120)
        with pytest.raises(ValueError, match=r"unknown predictor column\(s\) \['zz'\] for target 'x1'"):
            mcmc_refine(pre, edits, totals, McmcConfig(iterations=10, predictors={"x1": ["P", "zz"]}))

    def test_target_among_its_own_predictors_is_rejected(self):
        pre, edits, totals = three_var_study_data(np.random.default_rng(6), r=120)
        with pytest.raises(ValueError, match="target 'x1' cannot be its own predictor"):
            mcmc_refine(pre, edits, totals, McmcConfig(iterations=10, predictors={"x1": ["P", "x1"]}))

    def test_predictors_for_an_unknown_column_are_rejected(self):
        pre, edits, totals = three_var_study_data(np.random.default_rng(6), r=120)
        with pytest.raises(ValueError, match="predictors given for unknown column 'X1'"):
            mcmc_refine(pre, edits, totals, McmcConfig(iterations=10, predictors={"X1": ["zz"]}))

    def test_predictor_map_is_checked_with_zero_iterations(self):
        pre, edits, totals = three_var_study_data(np.random.default_rng(6), r=120)
        with pytest.raises(ValueError, match=r"unknown predictor column\(s\) \['zz'\] for target 'x1'"):
            mcmc_refine(pre, edits, totals, McmcConfig(iterations=0, predictors={"x1": ["zz"]}))

    def test_repeated_predictor_is_rejected(self):
        pre, edits, totals = three_var_study_data(np.random.default_rng(6), r=120)
        with pytest.raises(ValueError, match=r"predictor\(s\) \['P'\] listed twice for target 'x1'"):
            mcmc_refine(pre, edits, totals, McmcConfig(iterations=200, predictors={"x1": ["P", "P"]}))

    @pytest.mark.parametrize("iterations", [0, 50])
    def test_record_breaking_an_edit_is_named_with_its_witness(self, iterations):
        pre, edits, totals = three_var_study_data(np.random.default_rng(6), r=120)
        values = pre.values.copy()
        i = int(np.flatnonzero(~pre.mask.any(axis=1))[3])
        values[i, 2] += 1.0  # x1 + x2 = P now misses by 1
        data = DataMatrix(values, pre.mask, pre.columns, pre.weights)
        with pytest.raises(InfeasibleRecordError, match=rf"record {i} violates edit 0 .*\(residual -1\)") as info:
            mcmc_refine(data, edits, totals, McmcConfig(iterations=iterations))
        assert (info.value.record, info.value.edit_index, info.value.witness) == (i, 0, edits.edits[0])

    def test_imputed_cell_breaking_an_edit_is_named(self):
        pre, edits, totals = three_var_study_data(np.random.default_rng(6), r=120)
        values = pre.values.copy()
        i = int(np.flatnonzero(pre.mask[:, 0])[2])
        values[i, 0] += 1.0  # the imputed x1 breaks x1 + x2 = P by 1
        data = DataMatrix(values, pre.mask, pre.columns, pre.weights)
        with pytest.raises(InfeasibleRecordError) as info:
            mcmc_refine(data, edits, totals, McmcConfig(iterations=50))
        assert str(info.value) == f"record {i} violates edit 0 (residual 1)"
        assert (info.value.record, info.value.edit_index) == (i, 0)

    def test_model_with_too_few_records_is_rejected_before_the_chain(self):
        # Three records for four parameters: the count is named, not the
        # rank deficiency that a factor of the design would find.
        values = np.array([[1.0, 2.0, 3.0, 5.0], [2.0, 1.0, 4.0, 7.0], [3.0, 3.0, 1.0, 6.0]])
        mask = np.zeros(values.shape, dtype=bool)
        mask[:2, 0] = True
        data = DataMatrix(values, mask, ("a", "b", "c", "d"))
        config = McmcConfig(iterations=5, predictors={"a": ["b", "c", "d"]})
        with pytest.raises(InsufficientDataError, match="only 3 records for 4 regression parameters"):
            mcmc_refine(data, parse_edit_rules("a >= 0"), None, config)

    def test_non_finite_total_is_rejected(self):
        pre, edits, totals = three_var_study_data(np.random.default_rng(6), r=120)
        with pytest.raises(ValueError, match="non-finite total"):
            mcmc_refine(pre, edits, {**totals, "x2": float("nan")}, McmcConfig(iterations=10))

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            ({"iterations": -1}, "iterations must be nonnegative"),
            ({"checkpoint_every": 0}, "checkpoint_every"),
            ({"iterations": 50.0}, "iterations must be nonnegative and an integer, got 50.0"),
            ({"checkpoint_every": 2.5}, "checkpoint_every must be at least 1 and an integer, got 2.5"),
        ],
    )
    def test_config_is_checked_at_construction(self, kwargs, message):
        with pytest.raises(ValueError, match=message):
            McmcConfig(**kwargs)

    def test_zero_iterations_is_noop(self):
        data, edits, totals = pair_example_data()
        out, trace = mcmc_refine(data, edits, totals, McmcConfig(iterations=0))
        assert np.array_equal(out.values, data.values)
        assert trace == []

    def test_input_edits_are_checked_once(self, monkeypatch):
        # check_inputs checks every record of the input; the chain's start
        # then checks its totals only.
        pre, edits, totals = study_start(1)
        seen = []
        real = pipeline.violation_matrix

        def spy(system, values, columns, *args):
            seen.append(len(values))
            return real(system, values, columns, *args)

        monkeypatch.setattr(pipeline, "violation_matrix", spy)
        out, trace = mcmc_refine(pre, edits, totals, McmcConfig(iterations=0))
        assert seen == [len(pre.values)]
        assert out.values.tobytes() == pre.values.tobytes() and trace == []

    @pytest.mark.parametrize("iterations", [0, 50])
    def test_input_that_misses_a_total_is_refused(self, iterations):
        pre, edits, totals = three_var_study_data(np.random.default_rng(6), r=120)
        got = float(pre.weights @ pre.values[:, 1])
        with pytest.raises(CalimpError, match=rf"column 'x2' sums to {got!r}, total is {got + 1.0!r}"):
            mcmc_refine(pre, edits, {**totals, "x2": got + 1.0}, McmcConfig(iterations=iterations))

    def test_chain_without_a_pair_returns_its_input(self):
        # One imputed cell kept in each of three columns: no column has two,
        # so no step has a pair to draw, and the chain returns its input with
        # an empty trace, as with zero iterations.  The input is still checked.
        pre, edits, totals = five_var_data(np.random.default_rng(2000), r=300)
        mask = np.zeros_like(pre.mask)
        for j in (0, 3, 4):
            mask[np.flatnonzero(pre.mask[:, j])[0], j] = True
        data = DataMatrix(pre.values, mask, pre.columns)
        out, trace = mcmc_refine(data, edits, totals, McmcConfig(seed=0))
        assert out.values.tobytes() == pre.values.tobytes() and np.array_equal(out.mask, mask)
        assert trace == []
        bad = data.copy()
        bad.values[0, 4] += 1.0
        with pytest.raises(InfeasibleRecordError):
            mcmc_refine(bad, edits, totals, McmcConfig(seed=0))

    @pytest.mark.parametrize("every", [0, -3])
    def test_nonpositive_checkpoint_interval_is_rejected(self, every):
        data, edits, totals = pair_example_data()
        with pytest.raises(ValueError, match="checkpoint_every"):
            mcmc_refine(data, edits, totals, McmcConfig(iterations=10, checkpoint_every=every))

    def test_worked_example_step_values(self):
        data, edits, totals = pair_example_data()
        system, cells = pair_constraint_system(data, edits, totals, 0, 1)
        _, record = admissible_interval(system, "s.x5")
        from calimp.fm import back_substitute

        completion = back_substitute(record, {"s.x5": 100.0})
        assert completion["s.x4"] == 55.0
        assert completion["t.x4"] == 10.0
        assert completion["t.x5"] == 80.0

    def test_consistency_invariant_along_chain(self):
        rng = np.random.default_rng(4)
        pre, edits, totals = three_var_study_data(rng, r=300)
        refined, trace = mcmc_refine(
            pre, edits, totals,
            McmcConfig(iterations=2000, checkpoint_every=200, seed=9,
                       predictors={"x1": ["P"], "x2": ["P", "x1"]}),
        )
        assert not violation_matrix(edits, refined.values, refined.columns).any()
        for j, name in enumerate(refined.columns):
            if name in totals:
                got = float(refined.values[:, j].sum())
                assert got == pytest.approx(totals[name], rel=1e-8)
        assert len(trace) == 10
        assert trace[-1]["accepted"] > 0
        for row in trace:
            per_var = row["per_variable"]
            assert set(per_var) == {"x1", "x2"}
            for key in ("accepted", "fallbacks"):
                assert sum(entry[key] for entry in per_var.values()) == row[key]
            assert row["accepted"] + row["fallbacks"] == row["iteration"]
        # observed cells untouched
        assert np.array_equal(refined.values[~pre.mask], pre.values[~pre.mask])

    def test_chain_actually_moves_imputed_cells(self):
        rng = np.random.default_rng(5)
        pre, edits, totals = three_var_study_data(rng, r=300)
        refined, _ = mcmc_refine(
            pre, edits, totals,
            McmcConfig(iterations=1500, seed=3, predictors={"x1": ["P"], "x2": ["P", "x1"]}),
        )
        moved = np.sum(~np.isclose(refined.values[pre.mask], pre.values[pre.mask]))
        assert moved > 0

    def test_seeded_determinism(self):
        rng = np.random.default_rng(6)
        pre, edits, totals = three_var_study_data(rng, r=200)
        cfg = McmcConfig(iterations=400, seed=42, predictors={"x1": ["P"], "x2": ["P", "x1"]})
        a, trace_a = mcmc_refine(pre, edits, totals, cfg)
        b, trace_b = mcmc_refine(pre, edits, totals, cfg)
        assert a.values.tobytes() == b.values.tobytes()
        assert trace_a == trace_b

    def test_incomplete_input_rejected(self):
        values = np.array([[1.0, np.nan], [2.0, 3.0], [1.0, 2.0]])
        data = DataMatrix(values, np.isnan(values), ("a", "b"))
        edits = parse_edit_rules("a >= 0\nb >= 0")
        with pytest.raises(ValueError, match="fully imputed"):
            mcmc_refine(data, edits, {"a": 4.0}, McmcConfig(iterations=1))

    def test_checkpoint_count_independent_of_acceptance(self):
        # Fully pinned pair systems retain the current values; the trace
        # cadence must not depend on whether steps moved anything.
        values = np.array([[4.0, 6.0], [3.0, 7.0], [5.0, 5.0], [2.0, 8.0]])
        mask = np.array([[True, False], [True, False], [True, False], [True, False]])
        data = DataMatrix(values, mask, ("a", "b"))
        edits = parse_edit_rules("a + b = 10\na >= 0\nb >= 0")
        out, trace = mcmc_refine(
            data, edits, {"a": 14.0}, McmcConfig(iterations=40, checkpoint_every=10, seed=0)
        )
        assert [row["iteration"] for row in trace] == [10, 20, 30, 40]
        assert np.array_equal(out.values, values)  # every cell is pinned

    def test_steps_pinned_at_their_current_value_hold(self):
        # a = c - b pins every imputed a.  The stored a meets its point to
        # rounding only (4000 + a rounds), so a completion would move it by
        # an ulp of 4000; a skipped step leaves it, and the Gram with it.
        rng = np.random.default_rng(2)
        a, b = rng.uniform(0.0, 1.0, 30), rng.uniform(3000.0, 5000.0, 30)
        values = np.column_stack([a, b, a + b])
        assert np.any(values[:, 2] - values[:, 1] != values[:, 0])
        mask = np.zeros(values.shape, dtype=bool)
        mask[:10, 0] = True
        edits = parse_edit_rules("a + b = c\na >= 0\nb >= 0\nc >= 0")
        factored = []
        real_factor = mcmc.gram_factor

        def counting_factor(gram, target):
            factored.append(target)
            return real_factor(gram, target)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(mcmc, "gram_factor", counting_factor)
            out, trace = mcmc_refine(
                DataMatrix(values, mask, ("a", "b", "c")), edits, {"a": float(a.sum())},
                McmcConfig(iterations=40, checkpoint_every=10, seed=0, predictors={"a": ["b"]}),
            )
        assert out.values.tobytes() == values.tobytes()
        entry = trace[-1]["per_variable"]["a"]
        assert (entry["accepted"], entry["pinned"], entry["moved"], entry["mean_abs_move"]) == (40, 40, 0, 0.0)
        # Once after each of the four rebuilds, whose checkpoint reads it for
        # its exact_fit flag: every step's key pins a, so no step factors.
        assert len(factored) == 4
        assert entry["exact_fit"] is False

    def test_steps_on_keys_that_pin_the_target_are_skipped(self):
        # A sweep of the structural target x2 (x2 = P - x1 on its
        # predictors) pairs no records and looks no key up.  A pair of an x1
        # sweep whose key pins x1 never reaches update_pairs, and a sweep
        # whose pairs all have such keys factors no model, draws nothing and
        # asks the generator for nothing from its key lookup to the next
        # sweep's column draw (or the checkpoint).  Skipped updates count as
        # accepted and pinned and write nothing: the chain's values always
        # equal the input with each accepted completion applied.  The
        # generator's methods are compiled, so a proxy records each
        # attribute the chain asks it for.
        pre, edits, totals = three_var_study_data(np.random.default_rng(4), r=150)
        window, calls, tracked = [False], [], pre.values.copy()
        seen = {"sweeps": 0, "pairings": 0, "lookups": 0, "skipped": 0, "idle": 0}
        real_by_key, real_update, real_validate = PairSystems.by_key, mcmc.update_pairs, mcmc.validate
        watched = {}

        def watch(name, fn):
            def wrapper(*args):
                if window[0]:
                    calls.append(name)
                return fn(*args)
            watched[name] = wrapper

        class Generator:
            def __init__(self, rng):
                self.rng = rng

            def __getattr__(self, name):
                if name == "integers":  # the next sweep's column draw
                    window[0] = False
                    seen["sweeps"] += 1
                elif name == "permutation":
                    seen["pairings"] += 1
                if window[0]:
                    calls.append(name)
                return getattr(self.rng, name)

        def checked_by_key(systems, j, s, t):
            assert j != 1
            seen["lookups"] += 1
            groups = real_by_key(systems, j, s, t)
            pinned = sum(len(gs) for system, gs, _ in groups if system.compiled.pinned)
            seen["skipped"] += pinned
            if pinned == len(s):
                window[0] = True
                seen["idle"] += 1
            return groups

        def checked_update(systems, values, groups, *args):
            assert not window[0] and values.tobytes() == tracked.tobytes()
            assert not any(system.compiled.pinned for system, _, _ in groups)
            update = real_update(systems, values, groups, *args)
            ok = update.feasible
            tracked[update.s[ok]] = update.new_s[ok]
            tracked[update.t[ok]] = update.new_t[ok]
            return update

        def closing_validate(values, *args):
            window[0] = False
            real_validate(values, *args)

        watch("gram_matrix", mcmc.gram_matrix)
        watch("gram_factor", mcmc.gram_factor)
        watch("draw_parameters", mcmc.draw_parameters)
        watch("update_pairs", checked_update)
        real_rng = np.random.default_rng
        with pytest.MonkeyPatch.context() as patch:
            for name, wrapper in watched.items():
                patch.setattr(mcmc, name, wrapper)
            patch.setattr(PairSystems, "by_key", checked_by_key)
            patch.setattr(mcmc, "validate", closing_validate)
            patch.setattr(np.random, "default_rng", lambda seed: Generator(real_rng(seed)))
            out, trace = mcmc_refine(
                pre, edits, totals,
                McmcConfig(iterations=600, checkpoint_every=200, seed=2,
                           predictors={"x1": ["P"], "x2": ["P", "x1"]}),
            )
        assert calls == []
        assert out.values.tobytes() == tracked.tobytes()
        last = trace[-1]["per_variable"]
        assert last["x1"]["moved"] > 50 and last["x2"]["moved"] == 0
        # Structural sweeps pair nothing; every other sweep looks its keys up.
        assert seen["sweeps"] > seen["pairings"] == seen["lookups"] > 0
        assert seen["skipped"] > 100 and last["x2"]["pinned"] > 100
        assert last["x2"]["pinned"] == last["x2"]["accepted"]
        assert sum(entry["pinned"] for entry in last.values()) == seen["skipped"] + last["x2"]["pinned"]
        assert trace[-1]["accepted"] + trace[-1]["fallbacks"] == 600

    def test_step_on_an_interval_within_its_rounding_completes(self):
        # Five-column chains meet x1 or x4 cells at 0 whose interval is
        # [0, 0] or a few ulps wide, no wider than DEFAULT_TOL times its
        # largest bound, on keys that do not pin them.  Such an update draws
        # and completes like any other: its cell lands inside the interval,
        # and a chain cut right after its sweep validates edits and totals
        # at its one checkpoint.
        real_by_key, real_update = PairSystems.by_key, mcmc.update_pairs
        found, done = [], [0]

        def narrow(lower, upper):
            return upper - lower <= DEFAULT_TOL * max(1.0, abs(lower), abs(upper)) < math.inf

        def counting_by_key(self, j, s, t):
            done[0] += len(s)  # no target is structural: every sweep looks its keys up
            return real_by_key(self, j, s, t)

        def finding_update(systems, values, groups, *args):
            j = swept_column(systems, groups)
            update = real_update(systems, values, groups, *args)
            for i in range(len(update.s)):
                if not found and narrow(update.lower[i], update.upper[i]):
                    found.append((done[0], j, int(update.s[i]), update.lower[i], update.upper[i],
                                  update.value[i], update.new_s[i, j], bool(update.feasible[i])))
            return update

        for k in range(10):
            pre, edits, totals = five_var_data(np.random.default_rng(2000 + k), r=300)
            done[0] = 0
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(PairSystems, "by_key", counting_by_key)
                patch.setattr(mcmc, "update_pairs", finding_update)
                mcmc_refine(pre, edits, totals, McmcConfig(iterations=4000, checkpoint_every=4000, seed=k))
            if found:
                break
        assert found, "no chain met an update on an interval within its rounding"
        step, j, record, lower, upper, value, cell, feasible = found[0]
        assert feasible and lower <= value == cell <= upper
        out, trace = mcmc_refine(pre, edits, totals, McmcConfig(iterations=step, checkpoint_every=step, seed=k))
        assert len(trace) == 1 and (trace[0]["accepted"], trace[0]["fallbacks"]) == (step, 0)
        assert out.values[record, j] == cell
        assert not violation_matrix(edits, out.values, out.columns).any()
        for c, name in enumerate(out.columns):
            assert float(out.values[:, c].sum()) == pytest.approx(totals[name], rel=1e-8)
        assert np.array_equal(out.values[~pre.mask], pre.values[~pre.mask])

    def test_step_on_an_unbounded_interval_never_holds(self):
        # Without totals, an imputed a has the interval [0, inf): no key
        # pins it, so every step draws and moves it.
        rng = np.random.default_rng(3)
        b = rng.uniform(1.0, 10.0, 40)
        values = np.column_stack([2.0 * b + rng.uniform(0.0, 1.0, 40), b])
        mask = np.zeros(values.shape, dtype=bool)
        mask[:12, 0] = True
        edits = parse_edit_rules("a >= 0\nb >= 0")
        _, trace = mcmc_refine(
            DataMatrix(values, mask, ("a", "b")), edits, None,
            McmcConfig(iterations=50, seed=0, predictors={"a": ["b"]}),
        )
        entry = trace[-1]["per_variable"]["a"]
        assert (entry["accepted"], entry["pinned"], entry["moved"]) == (50, 0, 50)

    def test_seeded_study_chain_takes_no_fallback(self):
        # A desk-scale study chain on which bounds that drifted column sums
        # crossed by less than the pair's margin used to fall back once.
        pre, edits, totals = study_start(1009)
        _, trace = mcmc_refine(
            pre, edits, totals,
            McmcConfig(iterations=2280, checkpoint_every=760, seed=9, predictors=sim.STUDY_PREDICTORS),
        )
        assert (trace[-1]["accepted"], trace[-1]["fallbacks"]) == (2280, 0)

    @pytest.mark.parametrize("factor", [1 - 1e-9, 1 + 1e-9, 1 + 9e-9])
    def test_totals_off_within_their_tolerance_reach_no_step(self, factor):
        # validate accepts totals within 1e-8 relative of the column sums.  A
        # step conserves its pair's own weighted sums, so the totals' values
        # reach no step: the chain takes no fallback, moves x1, and writes the
        # bytes and trace of a chain on the exact totals.  A share taken as
        # what the rest of the column leaves over would put the whole
        # discrepancy on every pair, and every drawing step would fall back.
        pre, edits, totals = study_start(1000)
        config = McmcConfig(seed=0, predictors=sim.STUDY_PREDICTORS)
        exact, exact_trace = mcmc_refine(pre, edits, totals, config)
        out, trace = mcmc_refine(pre, edits, {name: factor * total for name, total in totals.items()}, config)
        assert trace[-1]["fallbacks"] == 0
        assert trace[-1]["per_variable"]["x1"]["moved"] > 0
        assert out.values.tobytes() == exact.values.tobytes()
        assert trace == exact_trace

    def test_long_study_chain_keeps_every_total(self):
        # Each step conserves its pair's weighted sums, so after 150,000
        # steps every total holds to 1e-12 relative.
        pre, edits, totals = study_start(1000)
        out, trace = mcmc_refine(
            pre, edits, totals, McmcConfig(iterations=150_000, seed=0, predictors=sim.STUDY_PREDICTORS)
        )
        assert trace[-1]["per_variable"]["x1"]["moved"] > 0
        for name, total in totals.items():
            got = float(out.weights @ out.values[:, out.column_index(name)])
            assert abs(got - total) <= 1e-12 * abs(total), (name, got, total)

    @pytest.mark.parametrize("k", [2, 3, 4])
    @pytest.mark.parametrize("f", [0.55, 0.75, 0.9, 0.95])
    def test_chain_from_a_record_on_the_margin_takes_every_step(self, k, f):
        # Record 0 meets each edit of its chain to validate's margin, but
        # its current x and a may lie outside their pair intervals by more
        # than that margin.  A step judges feasibility only when it
        # completes, so every step of every seed completes (no fallback),
        # and each checkpoint validates the state.
        data, edits, totals, predictors = chain_at_the_margin(k, f)
        validate(data.values, data, edits, totals)
        for seed in range(10):
            _, trace = mcmc_refine(data, edits, totals, McmcConfig(iterations=400, seed=seed, predictors=predictors))
            assert len(trace) == 20
            assert (trace[-1]["accepted"], trace[-1]["fallbacks"]) == (400, 0), seed

    def test_point_interval_pinned_by_large_constants(self):
        # x2 ~ 0.3 is pinned by x1 and P ~ 3.4e3; the stored x2 meets the
        # balance edit to the validator's tolerance (1e-9 of the record's
        # largest value) but misses the point interval by 5e-8 absolute.
        # The pair's interval is a point that it meets on the pair's margin,
        # so the skip that the key's pin licenses keeps a valid state: every
        # step is accepted and pinned, and the cells stay as they are.
        edits = parse_edit_rules("x1 + x2 = P\nx1 >= x2\nP >= 3*x2\nx1 >= 0\nx2 >= 0\nP >= 0\n")
        x1 = np.array([3400.0, 3391.5, 2000.0, 2500.0])
        x2 = np.array([0.24, 0.31, 300.0, 400.0])
        values = np.column_stack([x1, x2, x1 + x2])
        values[:2, 1] += 5e-8
        mask = np.zeros_like(values, dtype=bool)
        mask[:2, 1] = True
        data = DataMatrix(values, mask, ("x1", "x2", "P"))
        systems = PairSystems(data, edits, None)
        for s, t in ((0, 1), (1, 0)):
            system = pair_system(systems, s, t, 1)
            assert system.compiled.pinned
            step = PairStep(systems, system, values.tolist(), s, t)
            assert step.interval.is_point()
            assert abs(step.interval.lower - values[s, 1]) <= DEFAULT_TOL * np.abs(values[[s, t]]).max()
            assert abs(step.interval.lower - values[s, 1]) > 1e-8
        out, trace = mcmc_refine(data, edits, None, McmcConfig(iterations=20, seed=0))
        entry = trace[-1]["per_variable"]["x2"]
        assert (entry["accepted"], entry["pinned"], entry["fallbacks"]) == (20, 20, 0)
        assert out.values.tobytes() == values.tobytes()
        assert not violation_matrix(edits, out.values, out.columns).any()

    def test_trace_flags_exact_fits(self):
        # x2 = P - x1 exactly, so its model on P and x1 has rss 0 and x2 is
        # structural: it reads exact without a fit, and its steps are
        # skipped; x1 on P alone is noisy.  P, imputed in one record only,
        # is re-drawn by no step and has no model.
        pre, edits, totals = three_var_study_data(np.random.default_rng(8), r=120)
        mask = pre.mask.copy()
        mask[int(np.flatnonzero(~mask.any(axis=1))[0]), 2] = True
        data = DataMatrix(pre.values, mask, pre.columns)
        _, trace = mcmc_refine(
            data, edits, totals, McmcConfig(iterations=200, seed=1, predictors={"x1": ["P"], "x2": ["P", "x1"]})
        )
        for row in trace:
            flags = {name: entry["exact_fit"] for name, entry in row["per_variable"].items()}
            assert flags == {"x1": False, "x2": True, "P": False}

    def test_a_sweep_draws_one_model_and_one_array_of_targets(self):
        # Each sweep that updates a pair builds one Gram matrix, factors it
        # once, draws one model, and draws all its targets with at most one
        # call of truncated_normal, at uniforms from one raw draw of the
        # chain's generator; the checkpoints factor once per model for their
        # exact_fit flags.  No update draws a cell on its own.
        pre, edits, totals = three_var_study_data(np.random.default_rng(4), r=150)
        seen = {name: 0 for name in ("gram_factor", "draw_parameters", "truncated_normal", "generator_uniforms",
                                     "draw_ar_residual", "draw_truncated_posterior", "update_pairs", "validate",
                                     "check_totals")}
        patches = {}
        for name in seen:
            real = getattr(mcmc, name)

            def counting(*args, _name=name, _real=real):
                seen[_name] += 1
                return _real(*args)

            patches[name] = counting
        iterations = 2000
        with pytest.MonkeyPatch.context() as patch:
            for name, counting in patches.items():
                patch.setattr(mcmc, name, counting)
            _, trace = mcmc_refine(
                pre, edits, totals,
                McmcConfig(iterations=iterations, checkpoint_every=500, seed=2,
                           predictors={"x1": ["P"], "x2": ["P", "x1"]}),
            )
        last = trace[-1]["per_variable"]
        assert last["x1"]["moved"] >= 50 and last["x2"]["moved"] == 0
        checkpoints = seen["validate"]
        assert checkpoints == len(trace) == 4
        assert seen["check_totals"] == 1  # the input's totals, before the first update
        assert seen["update_pairs"] == seen["draw_parameters"] == seen["gram_factor"] - checkpoints > 10
        assert seen["truncated_normal"] == seen["generator_uniforms"] <= seen["update_pairs"]
        assert seen["truncated_normal"] > 0
        assert seen["draw_ar_residual"] == seen["draw_truncated_posterior"] == 0
