"""The benchmark's three workloads.

Each workload builds its inputs from its seed in ``setup`` and then runs
operations ``op(0), op(1), ...``; ``op(k)`` depends only on the seed and
``k``.  Every attempt's output is checked by :mod:`checks`, and a failed
attempt (exception, nonzero exit code or failed check) is recorded by type.

* ``study``: the paper's desk-scale replication study through
  ``sim.run_replication``; the MCMC chain does most of the work.
* ``bulk``: ``pipeline.impute`` on one 100,000-record sample with only
  three missingness patterns; per-cell interval derivation dominates.
* ``survey_cli``: ``calimp impute`` (in-process ``cli.main``) on an
  8-column business survey with 100+ patterns per dataset, CSV and
  diagnostics files included.
"""

from __future__ import annotations

import contextlib
import io
import os
import shutil
from dataclasses import dataclass, field, replace
from time import perf_counter

import numpy as np

from calimp import cli, mcmc, pipeline, sim
from calimp.errors import ConvergenceError, InfeasibleAdjustmentError
from calimp.pipeline import DataMatrix, ImputationConfig

import checks
from spans import Patches

METHODS = ("upma", "bpma", "bpmr")
#: Chain length of the warm-up replication and of the repeated-chain probe.
SHORT_CHAIN = 400


@dataclass
class Attempt:
    """One imputation call: its missing cells, how long it took, how it ended."""

    method: str
    cells: int
    seconds: float
    failure: str | None = None
    detail: str = ""
    exit_code: int | None = None
    diagnostics: list = field(default_factory=list)
    steps: int = 0
    accepted: int = 0


def failure_type(err: BaseException) -> str:
    """``ConvergenceError`` or ``InfeasibleAdjustmentError`` when either is
    the error or its cause (calimp re-raises with context), else ``other``."""
    cause = err
    while cause is not None:
        if isinstance(cause, (ConvergenceError, InfeasibleAdjustmentError)):
            return type(cause).__name__
        cause = cause.__cause__
    return f"other:{type(err).__name__}"


def study_mask(n: int, rng: np.random.Generator, config: sim.StudyConfig) -> np.ndarray:
    """The study's MCAR design over (x1, x2, P), honouring every rate.

    Blank x1 in ``rate_x1`` of the rows, x2 in ``rate_x2_within`` of
    those, and x2 in ``rate_x2_extra`` of the rows left untouched.
    """
    mask = np.zeros((n, 3), dtype=bool)
    first = rng.choice(n, size=int(config.rate_x1 * n), replace=False)
    within = rng.choice(first, size=int(config.rate_x2_within * first.size), replace=False)
    rest = np.setdiff1d(np.arange(n), first)
    extra = rng.choice(rest, size=int(config.rate_x2_extra * rest.size), replace=False)
    mask[first, 0] = True
    mask[within, 1] = True
    mask[extra, 1] = True
    return mask


def survey_truth(n: int, rng: np.random.Generator) -> np.ndarray:
    """Whole-unit business records satisfying every survey edit exactly."""
    out = np.empty((0, len(checks.SURVEY_COLUMNS)))
    while out.shape[0] < n:
        m = n
        goods = np.floor(rng.lognormal(np.log(600.0), 1.0, m)) + 1.0
        services = np.floor(rng.lognormal(np.log(300.0), 1.3, m))
        turnover = goods + services
        cost_ratio = 0.4 + 1.1 * rng.beta(2.0, 3.0, m)
        staff_share = 0.8 * rng.beta(2.0, 2.0, m)
        material_share = (1.0 - staff_share) * rng.beta(3.0, 2.0, m)
        costs = turnover * cost_ratio
        staff = np.round(costs * staff_share)
        materials = np.round(costs * material_share)
        other = np.maximum(0.0, np.round(costs - staff - materials))
        costs = staff + materials + other
        profit = turnover - costs
        batch = np.column_stack([goods, services, turnover, staff, materials, other, costs, profit])
        ok = ~checks.SURVEY_EDITS.violations(batch, rtol=0.0).any(axis=1)
        out = np.vstack([out, batch[ok]])
    return out[:n]


def _bytes_or_error(fn, *args):
    """Output bytes of a seeded call, or its error's type and text, so two
    repeats can be compared whether they succeed or fail."""
    try:
        return fn(*args)[0].values.tobytes()
    except Exception as err:
        return f"{type(err).__name__}: {err}"


class Workload:
    """Defaults for a workload without hooks or files of its own."""

    def install_hooks(self) -> None:
        pass

    def remove_hooks(self) -> None:
        pass

    def close(self) -> None:
        pass


class Study(Workload):
    """Replications of the desk-scale study: N=20,000, s=2,000, all four methods."""

    name = "study"
    methods = (*METHODS, "mcmc")
    #: Operations that run every method once, and the wall time of one
    #: operation on the reference host (2 vCPU); together they size a run.
    cycle = 1
    nominal_op_s = 8.0

    def __init__(self, seed: int, workdir: str, smoke: bool = False):
        self.seed = seed
        self.config = (
            sim.StudyConfig(population_size=2_000, sample_size=200, mcmc_iterations=300)
            if smoke
            else sim.StudyConfig()
        )
        self._patches = Patches()
        self._calls: list = []
        self.quality: dict[str, dict[str, list[float]]] = {}
        self.masks: list[np.ndarray] = []
        self._first: dict[str, tuple] = {}

    def install_hooks(self) -> None:
        """Observe the impute and chain calls ``run_replication`` makes."""
        self._patches.set(sim, "impute", self._capture(sim.impute, "impute"))
        self._patches.set(sim, "mcmc_refine", self._capture(sim.mcmc_refine, "mcmc"))

    def remove_hooks(self) -> None:
        self._patches.restore()

    def _capture(self, fn, kind):
        def wrapper(*args, **kwargs):
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception as err:
                self._calls.append((kind, args, None, perf_counter() - t0, err))
                raise
            self._calls.append((kind, args, result, perf_counter() - t0, None))
            return result

        return wrapper

    def setup(self) -> None:
        pop_ss, warm_ss, self._reps = np.random.SeedSequence([self.seed, 1]).spawn(3)
        self.population, _ = sim.generate_population(self.config, np.random.default_rng(pop_ss))
        warm = replace(self.config, mcmc_iterations=min(SHORT_CHAIN, self.config.mcmc_iterations or SHORT_CHAIN))
        sim.run_replication(self.population, warm, np.random.default_rng(warm_ss), 0)
        self._calls = []

    def op(self, k: int) -> tuple[list[Attempt], float]:
        ss = np.random.SeedSequence(self._reps.entropy, spawn_key=self._reps.spawn_key + (k,))
        rng = np.random.default_rng(ss)
        rep_seed = int(ss.generate_state(1)[0])
        self._calls = []
        t0 = perf_counter()
        try:
            _, metric_rows = sim.run_replication(self.population, self.config, rng, rep_seed)
        except Exception:
            metric_rows = {}
        seconds = perf_counter() - t0
        attempts = [self._attempt(*call) for call in self._calls]
        for method, per_var in metric_rows.items():
            acc = self.quality.setdefault(method, {"d_l1": [], "ks": [], "std_pct_diff": []})
            for key, values in acc.items():
                values.append(float(np.mean([per_var[v][key] for v in ("x1", "x2")])))
        return attempts, seconds

    def _attempt(self, kind, args, result, seconds, err) -> Attempt:
        data, _, totals, config = args
        if kind == "mcmc":
            attempt = Attempt("mcmc", int(data.mask.sum()), seconds)
        else:
            attempt = Attempt(config.method, int(data.mask.sum()), seconds)
            if config.method == "upma":
                self.masks.append(data.mask.copy())
        first = result[0].values.tobytes() if err is None else f"{type(err).__name__}: {err}"
        self._first.setdefault(attempt.method, (args, first))
        if err is not None:
            attempt.failure, attempt.detail = failure_type(err), str(err)
            return attempt
        out, diagnostics = result
        if kind == "mcmc":
            if diagnostics:
                attempt.steps = int(diagnostics[-1]["iteration"])
                attempt.accepted = int(diagnostics[-1]["accepted"])
        else:
            attempt.diagnostics = diagnostics
        index = {name: j for j, name in enumerate(data.columns)}
        want = None if totals is None else {index[name]: float(v) for name, v in totals.items()}
        reason = checks.check_output(out.values, data.values, data.mask, checks.STUDY_EDITS, want, data.weights)
        if reason:
            attempt.failure, attempt.detail = "check", reason
        return attempt

    def probes(self) -> dict[str, str]:
        """Repeat the first seeded bpmr attempt, and run one short seeded chain
        twice; each must reproduce its output byte for byte."""
        found = {"bpmr_repeat": "skipped: no attempt", "mcmc_repeat": "skipped: no attempt"}
        if "bpmr" in self._first:
            args, want = self._first["bpmr"]
            got = _bytes_or_error(pipeline.impute, *args)
            found["bpmr_repeat"] = "ok" if got == want else "repeated bpmr attempt differs"
        if "mcmc" in self._first:
            data, edits, totals, config = self._first["mcmc"][0]
            short = replace(config, iterations=SHORT_CHAIN)
            runs = [_bytes_or_error(mcmc.mcmc_refine, data, edits, totals, short) for _ in range(2)]
            found["mcmc_repeat"] = "ok" if runs[0] == runs[1] else "repeated seeded chain differs"
        return found

    def properties(self) -> list[np.ndarray]:
        return self.masks


class Bulk(Workload):
    """One 100,000-record sample of a N=200,000 population, three patterns."""

    name = "bulk"
    methods = METHODS
    cycle = len(METHODS)
    nominal_op_s = 4.5

    def __init__(self, seed: int, workdir: str, smoke: bool = False):
        self.seed = seed
        self.population_size, self.sample_size = (4_000, 2_000) if smoke else (200_000, 100_000)
        self.warm_records = 200 if smoke else 2_000

    def setup(self) -> None:
        pop_ss, sample_ss = np.random.SeedSequence([self.seed, 2]).spawn(2)
        config = sim.StudyConfig(population_size=self.population_size, sample_size=self.sample_size)
        population, _ = sim.generate_population(config, np.random.default_rng(pop_ss))
        rng = np.random.default_rng(sample_ss)
        truth = population.values[rng.choice(self.population_size, size=self.sample_size, replace=False)]
        mask = study_mask(self.sample_size, rng, config)
        self.impute_seed = int(rng.integers(2**31))
        self.edits = sim.study_edits()
        self.data = DataMatrix(np.where(mask, np.nan, truth), mask, checks.STUDY_COLUMNS)
        self.totals = {"x1": float(truth[:, 0].sum()), "x2": float(truth[:, 1].sum())}
        w = self.warm_records
        self.warm = DataMatrix(self.data.values[:w].copy(), mask[:w].copy(), checks.STUDY_COLUMNS)
        self.warm_totals = {"x1": float(truth[:w, 0].sum()), "x2": float(truth[:w, 1].sum())}
        for method in METHODS:
            self._impute(self.warm, self.warm_totals, method)

    def _impute(self, data, totals, method):
        config = ImputationConfig(
            method, seed=self.impute_seed, predictors=sim.STUDY_PREDICTORS, variable_order=sim.STUDY_ORDER
        )
        return pipeline.impute(data, self.edits, None if method == "upma" else totals, config)

    def op(self, k: int) -> tuple[list[Attempt], None]:
        method = METHODS[k % len(METHODS)]
        attempt = Attempt(method, int(self.data.mask.sum()), 0.0)
        t0 = perf_counter()
        try:
            out, diagnostics = self._impute(self.data, self.totals, method)
        except Exception as err:
            attempt.seconds = perf_counter() - t0
            attempt.failure, attempt.detail = failure_type(err), str(err)
            return [attempt], None
        attempt.seconds = perf_counter() - t0
        attempt.diagnostics = diagnostics
        want = None if method == "upma" else {0: self.totals["x1"], 1: self.totals["x2"]}
        reason = checks.check_output(out.values, self.data.values, self.data.mask, checks.STUDY_EDITS, want)
        if reason:
            attempt.failure, attempt.detail = "check", reason
        return [attempt], None

    def probes(self) -> dict[str, str]:
        """Run the seeded bpmr attempt on the warm-up slice twice."""
        runs = [_bytes_or_error(self._impute, self.warm, self.warm_totals, "bpmr") for _ in range(2)]
        return {"bpmr_repeat": "ok" if runs[0] == runs[1] else "repeated bpmr attempt differs"}

    def properties(self) -> list[np.ndarray]:
        return [self.data.mask]


@dataclass
class _Dataset:
    data: str
    totals: str
    given: np.ndarray
    mask: np.ndarray
    totals_by_index: dict[int, float]
    seed: int


class SurveyCli(Workload):
    """``calimp impute`` on 5,000-record business surveys, 10% of cells missing."""

    name = "survey_cli"
    methods = METHODS
    cycle = len(METHODS)
    nominal_op_s = 0.55
    rate = 0.10

    def __init__(self, seed: int, workdir: str, smoke: bool = False):
        self.seed = seed
        self.workdir = workdir
        self.records, self.n_datasets = (500, 2) if smoke else (5_000, 24)
        self.warm_records = 300
        self._patches = Patches()
        self._error: BaseException | None = None
        self._diagnostics: list = []
        self._first_bpmr: tuple | None = None

    def install_hooks(self) -> None:
        """Observe the exception or diagnostics of the CLI's impute call."""
        impute = cli.impute

        def wrapper(*args, **kwargs):
            try:
                result = impute(*args, **kwargs)
            except Exception as err:
                self._error = err
                raise
            self._diagnostics = result[1]
            return result

        self._patches.set(cli, "impute", wrapper)

    def remove_hooks(self) -> None:
        self._patches.restore()

    def setup(self) -> None:
        os.makedirs(self.workdir, exist_ok=True)
        self.edits_path = os.path.join(self.workdir, "edits.txt")
        with open(self.edits_path, "w") as handle:
            handle.write(checks.SURVEY_RULES)
        children = np.random.SeedSequence([self.seed, 3]).spawn(self.n_datasets + 1)
        self.datasets = [
            self._make_dataset(i, ss, self.warm_records if i == 0 else self.records)
            for i, ss in enumerate(children)
        ]
        for method in METHODS:
            self._call(self.datasets[0], method)

    def _make_dataset(self, i: int, ss: np.random.SeedSequence, n: int) -> _Dataset:
        rng = np.random.default_rng(ss)
        truth = survey_truth(n, rng)
        mask = rng.random(truth.shape) < self.rate
        given = np.where(mask, np.nan, truth)
        data_path = os.path.join(self.workdir, f"data{i}.csv")
        totals_path = os.path.join(self.workdir, f"totals{i}.txt")
        checks.write_csv_values(data_path, checks.SURVEY_COLUMNS, given)
        totals = truth.sum(axis=0)
        with open(totals_path, "w") as handle:
            handle.writelines(f"{name} = {float(t)!r}\n" for name, t in zip(checks.SURVEY_COLUMNS, totals))
        return _Dataset(
            data_path, totals_path, given, mask,
            {j: float(t) for j, t in enumerate(totals)}, int(rng.integers(2**31)),
        )

    def _call(self, ds: _Dataset, method: str) -> tuple[Attempt, str]:
        out = os.path.join(self.workdir, "out.csv")
        if os.path.exists(out):
            os.remove(out)
        argv = [
            "impute", "--data", ds.data, "--edits", self.edits_path, "--totals", ds.totals,
            "--method", method, "--seed", str(ds.seed), "--out", out,
            "--diagnostics", os.path.join(self.workdir, "out.diag.jsonl"),
        ]
        self._error, self._diagnostics = None, []
        messages = io.StringIO()
        with contextlib.redirect_stdout(messages), contextlib.redirect_stderr(messages):
            t0 = perf_counter()
            code = cli.main(argv)
            seconds = perf_counter() - t0
        attempt = Attempt(method, int(ds.mask.sum()), seconds, exit_code=code, diagnostics=self._diagnostics)
        if code != 0:
            attempt.failure = failure_type(self._error) if self._error is not None else f"exit{code}"
            attempt.detail = messages.getvalue().strip()
        return attempt, out

    def op(self, k: int) -> tuple[list[Attempt], None]:
        ds = self.datasets[1 + (k // len(METHODS)) % self.n_datasets]
        method = METHODS[k % len(METHODS)]
        attempt, out = self._call(ds, method)
        produced = None
        if attempt.exit_code == 0:
            with open(out, "rb") as handle:
                produced = handle.read()
            want = None if method == "upma" else ds.totals_by_index
            try:
                values = checks.read_csv_values(out, checks.SURVEY_COLUMNS)
            except ValueError as err:
                reason = f"unreadable output: {err}"
            else:
                reason = checks.check_output(values, ds.given, ds.mask, checks.SURVEY_EDITS, want)
            if reason:
                attempt.failure, attempt.detail = "check", reason
        if method == "bpmr" and self._first_bpmr is None:
            self._first_bpmr = (ds, attempt.exit_code, produced)
        return [attempt], None

    def probes(self) -> dict[str, str]:
        """Repeat the first seeded bpmr CLI call; exit code and output bytes
        must match."""
        if self._first_bpmr is None:
            return {"bpmr_repeat": "skipped: no attempt"}
        ds, code, produced = self._first_bpmr
        attempt, out = self._call(ds, "bpmr")
        again = None
        if attempt.exit_code == 0:
            with open(out, "rb") as handle:
                again = handle.read()
        same = attempt.exit_code == code and again == produced
        return {"bpmr_repeat": "ok" if same else "repeated bpmr CLI call differs"}

    def properties(self) -> list[np.ndarray]:
        return [ds.mask for ds in self.datasets[1:]]

    def close(self) -> None:
        shutil.rmtree(self.workdir, ignore_errors=True)


WORKLOADS = {cls.name: cls for cls in (Study, Bulk, SurveyCli)}
