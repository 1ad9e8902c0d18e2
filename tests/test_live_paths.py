"""The live paths never call the per-record reference.

``pipeline.impute`` derives intervals with the compiled derivation
(``fm.compile_interval``) and draws residuals from ``cell_uniforms``;
``mcmc.mcmc_refine`` runs in sweeps over compiled pair systems.  The
per-record functions stay in their modules as the tests' reference, and
``perfbench/spans.py`` traces them by name; the package's top level does
not export them.  Here each of them is replaced, under every name calimp
binds it to, by a function that raises, and impute (every method), the
chain and a survey impute through ``cli.main`` run on the study and on
the pair-system cases of ``test_pair_systems``.  Every derivation of the
live paths, the structural rule's included, comes from the one cache,
``fm.Derivations``.
"""

import sys

import numpy as np
import pytest

import calimp
from calimp import cli, edits, fm, io, mcmc, residuals, sim
from calimp.errors import CalimpError
from calimp.mcmc import McmcConfig, mcmc_refine
from calimp.pipeline import DataMatrix, ImputationConfig, impute

from test_pair_systems import CASES, SURVEY_COLUMNS, SURVEY_RULES, build, loose_predictors, survey_truth

REFERENCE = (
    (edits, "reduce_system"),
    (fm, "admissible_interval"),
    (fm, "back_substitute"),
    (fm, "resolve_companions"),
    (mcmc, "select_pair"),
    (mcmc, "pair_constraint_system"),
    (mcmc, "posterior_model"),
    (mcmc, "draw_truncated_posterior"),
    (residuals, "draw_ar_residual"),
    (residuals, "cell_uniform"),
)


def forbidden(label):
    def call(*args, **kwargs):
        raise AssertionError(f"a live path called {label}")

    return call


@pytest.fixture
def reference_forbidden(monkeypatch):
    """Every reference function, under every calimp name bound to it,
    raises; returns the names replaced."""
    originals = [(getattr(module, name), f"{module.__name__}.{name}") for module, name in REFERENCE]
    modules = [m for name, m in sorted(sys.modules.items()) if name == "calimp" or name.startswith("calimp.")]
    replaced = []
    for module in modules:
        for attr, value in list(vars(module).items()):
            for original, label in originals:
                if value is original:
                    monkeypatch.setattr(module, attr, forbidden(label))
                    replaced.append(f"{module.__name__}.{attr}")
    return replaced


def test_every_binding_is_replaced(reference_forbidden):
    for module, name in REFERENCE:
        assert f"{module.__name__}.{name}" in reference_forbidden
    # Re-exports and aliases are bindings too.
    for name in ("calimp.mcmc.reduce_system", "calimp.residuals.cell_rng", "calimp.mcmc.draw_ar_residual"):
        assert name in reference_forbidden
    with pytest.raises(AssertionError, match="fm.resolve_companions"):
        fm.resolve_companions(None, {})


def test_package_exports_no_reference():
    # The reference stays in its modules, where the tests and perfbench
    # reach it, but the package's top level binds none of it.
    exported = list(vars(calimp).values())
    for module, name in REFERENCE:
        function = getattr(module, name)
        assert callable(function)
        assert not any(value is function for value in exported), f"calimp binds {module.__name__}.{name}"
        assert not hasattr(calimp, name)


def test_survey_cli_impute_calls_no_reference(reference_forbidden, tmp_path):
    # cli.main reads the files, imputes and writes the output and its
    # diagnostics.  upma: the benchmarked methods may refuse survey input
    # (ROADMAP item 1), which would end the run before it writes.
    rng = np.random.default_rng(11)
    truth, _ = survey_truth(rng, 200)
    mask = rng.random(truth.shape) < 0.15
    io.write_dataset(DataMatrix(truth, mask, SURVEY_COLUMNS), tmp_path / "masked.csv", missing_from_mask=True)
    (tmp_path / "rules.edits").write_text(SURVEY_RULES)
    out = tmp_path / "imputed.csv"
    code = cli.main(["impute", "--data", str(tmp_path / "masked.csv"), "--edits", str(tmp_path / "rules.edits"),
                     "--method", "upma", "--seed", "3", "--out", str(out)])
    assert code == 0 and (tmp_path / "imputed.csv.diag.jsonl").exists()
    imputed = io.read_dataset(out)
    assert imputed.is_complete() and not edits.violation_matrix(
        edits.parse_edit_rules(SURVEY_RULES), imputed.values, imputed.columns).any()


def test_study_replication_calls_no_reference(reference_forbidden):
    config = sim.StudyConfig(population_size=4_000, sample_size=400, mcmc_iterations=3_000)
    population, _ = sim.generate_population(config, np.random.default_rng(1234))
    _, metrics = sim.run_replication(population, config, np.random.default_rng(1000), 0)
    assert set(metrics) == set(config.methods)


@pytest.mark.parametrize("kind", sorted(CASES))
def test_pair_system_cases_call_no_reference(reference_forbidden, kind):
    data, system, totals = build(kind, np.random.default_rng(5), weighted=True)
    given = DataMatrix(np.where(data.mask, np.nan, data.values), data.mask, data.columns, data.weights)
    # The benchmarked methods need a total on every imputed column.
    every_total = dict(zip(data.columns, (data.weights @ data.values).tolist()))
    for method in ("upma", "bpma", "bpmr"):
        try:
            impute(given, system, None if method == "upma" else every_total, ImputationConfig(method, seed=3))
        except CalimpError:
            pass  # a failure on feasible input (ROADMAP item 1), not a reference call
    config = McmcConfig(iterations=2_000, seed=3, predictors=loose_predictors(data.columns))
    _, trace = mcmc_refine(data, system, totals, config)
    assert trace[-1]["iteration"] == 2_000


def test_every_derivation_comes_from_the_one_cache(monkeypatch):
    # fm.compile_interval, under every calimp name bound to it, records its
    # caller's code while impute (every method, with rounds > 1, so with
    # its structural rule), structural_targets itself and a chain run.
    callers = []
    original = fm.compile_interval

    def recording(*args, **kwargs):
        callers.append(sys._getframe(1).f_code)
        return original(*args, **kwargs)

    for name, module in sorted(sys.modules.items()):
        if name == "calimp" or name.startswith("calimp."):
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, recording)
    data, system, totals = build("partial", np.random.default_rng(5), weighted=True)
    given = DataMatrix(np.where(data.mask, np.nan, data.values), data.mask, data.columns, data.weights)
    every_total = dict(zip(data.columns, (data.weights @ data.values).tolist()))
    for method in ("upma", "bpma", "bpmr"):
        try:
            impute(given, system, None if method == "upma" else every_total, ImputationConfig(method, seed=3))
        except CalimpError:
            pass  # a failure on feasible input (ROADMAP item 1), after its derivations
    A, _, is_eq = edits.system_matrices(system, data.columns)
    mcmc.structural_targets(fm.Derivations(A, is_eq, data.columns), {"goods": ["turnover"]})
    mcmc_refine(data, system, totals, McmcConfig(iterations=2_000, seed=3, predictors=loose_predictors(data.columns)))
    assert len(callers) > 10
    assert set(callers) == {fm.Derivations.__call__.__code__}
