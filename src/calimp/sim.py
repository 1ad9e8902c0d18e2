"""Synthetic replication study: population, MCAR masking, method comparison.

The population mimics a three-column income survey: two item variables
``x1`` and ``x2`` plus a fully observed predictor ``P`` tied together by a
balance edit ``x1 + x2 = P`` and ratio/nonnegativity inequalities.  Rows
are built from correlated lognormals (``x2`` and the slack of the binding
ratio edit), affinely rescaled to hit the target means, spreads and the
``x1``/``x2`` correlation, and re-screened against the edits.

The balance edit makes the correlations of ``P`` with ``x1`` and ``x2`` a
consequence of the other moments, so they are not settings: the study
reports them (``corr_x1_P``, ``corr_x2_P``) as outcomes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
import numpy as np

from . import metrics
from .edits import EditSystem, parse_edit_rules, violation_matrix
from .errors import CalimpError
from .mcmc import McmcConfig, mcmc_refine
from .pipeline import DataMatrix, ImputationConfig, Totals, impute

STUDY_COLUMNS = ("x1", "x2", "P")

STUDY_EDIT_RULES = """\
x1 + x2 = P
x1 >= x2
P >= 3*x2
x1 >= 0
x2 >= 0
P >= 0
"""

#: Predictor sets for the first pass: x1 from P, then x2 from P and x1.
STUDY_PREDICTORS = {"x1": ["P"], "x2": ["P", "x1"]}
STUDY_ORDER = ["x1", "x2"]


def study_edits() -> EditSystem:
    return parse_edit_rules(STUDY_EDIT_RULES)


@dataclass(frozen=True)
class StudyConfig:
    population_size: int = 20_000
    sample_size: int = 2_000
    replications: int = 30
    mean_x1: float = 3902.0
    std_x1: float = 636.0
    mean_x2: float = 991.0
    std_x2: float = 401.0
    corr_x1_x2: float = 0.87
    rate_x1: float = 0.20
    rate_x2_within: float = 0.50
    rate_x2_extra: float = 0.10
    methods: tuple[str, ...] = ("upma", "bpma", "bpmr", "mcmc")
    rounds: int = 2
    mcmc_iterations: int | None = None
    seed: int = 0

    def __post_init__(self):
        for name in ("rate_x1", "rate_x2_within", "rate_x2_extra"):
            rate = getattr(self, name)
            if not 0.0 <= rate <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1], got {rate}")
        if self.sample_size > self.population_size:
            raise ValueError("sample size exceeds population size")
        if self.replications < 1:
            raise ValueError("at least one replication is required")
        known = {"upma", "bpma", "bpmr", "mcmc"}
        bad = [m for m in self.methods if m not in known]
        if bad:
            raise ValueError(f"unknown method(s) {bad}")


@dataclass
class StudyReport:
    """Monte Carlo averages: distribution moments and evaluation metrics."""

    moments: dict[str, dict[str, float]]
    metric_table: dict[str, dict[str, dict[str, float]]]
    replications: int
    population: dict[str, float] = field(default_factory=dict)
    #: per-replication metric values: method -> variable -> metric -> list
    metric_samples: dict[str, dict[str, dict[str, list[float]]]] = field(default_factory=dict)

    def rows(self) -> list[tuple[str, str, str, float]]:
        out = []
        for key, value in self.population.items():
            out.append(("population", "population", key, value))
        for method, stats in self.moments.items():
            for key, value in stats.items():
                out.append(("moments", method, key, value))
        for method, per_var in self.metric_table.items():
            for var, vals in per_var.items():
                for key, value in vals.items():
                    out.append(("metrics", method, f"{var}.{key}", value))
        return out

    def summary(self) -> str:
        lines = [f"replications: {self.replications}", "", "moments (averages):"]
        header = ["method", "mean_x1", "std_x1", "mean_x2", "std_x2", "corr_x1_x2", "corr_x1_P", "corr_x2_P"]
        lines.append("  " + "  ".join(f"{h:>10}" for h in header))
        for method, stats in self.moments.items():
            cells = [f"{method:>10}"] + [f"{stats[h]:10.3f}" for h in header[1:]]
            lines.append("  " + "  ".join(cells))
        lines.append("")
        lines.append("evaluation metrics (averages):")
        lines.append("  " + "  ".join(f"{h:>12}" for h in ["method", "var", "d_l1", "ks", "std_pct_diff"]))
        for method, per_var in self.metric_table.items():
            for var, vals in per_var.items():
                lines.append(
                    "  "
                    + "  ".join(
                        [f"{method:>12}", f"{var:>12}"]
                        + [f"{vals[k]:12.4f}" for k in ("d_l1", "ks", "std_pct_diff")]
                    )
                )
        return "\n".join(lines) + "\n"


def _lognormal_params(mean: float, std: float) -> tuple[float, float]:
    if mean <= 0:
        raise ValueError("lognormal construction needs a positive mean")
    sigma2 = math.log1p((std / mean) ** 2)
    mu = math.log(mean) - 0.5 * sigma2
    return mu, math.sqrt(sigma2)


def _latent_correlation(rho_raw: float, sa: float, sb: float) -> float:
    spread = math.sqrt(math.expm1(sa * sa) * math.expm1(sb * sb))
    arg = 1.0 + rho_raw * spread
    if arg <= 0:
        raise CalimpError(f"target correlation {rho_raw} unattainable for these spreads")
    rho_z = math.log(arg) / (sa * sb)
    if abs(rho_z) > 1.0:
        raise CalimpError(f"target correlation {rho_raw} needs latent correlation {rho_z:.3f}")
    return rho_z


def _slack_moments(config: StudyConfig) -> tuple[float, float, float]:
    """Mean/std of the ratio-edit slack g = x1 - 2*x2 and corr(x2, g)."""
    mean_g = config.mean_x1 - 2.0 * config.mean_x2
    cov12 = config.corr_x1_x2 * config.std_x1 * config.std_x2
    cov_x2_g = cov12 - 2.0 * config.std_x2**2
    var_g = config.std_x1**2 - 4.0 * config.std_x2**2 - 4.0 * cov_x2_g
    if mean_g <= 0 or var_g <= 0:
        raise CalimpError("moment targets leave no room for the ratio-edit slack")
    std_g = math.sqrt(var_g)
    rho = cov_x2_g / (config.std_x2 * std_g)
    if abs(rho) >= 1.0:
        raise CalimpError(f"implied slack correlation {rho:.3f} is not attainable")
    return mean_g, std_g, rho


def _rescale_to_targets(x1: np.ndarray, x2: np.ndarray, config: StudyConfig) -> tuple[np.ndarray, np.ndarray]:
    a1 = config.std_x1 / float(np.std(x1))
    a2 = config.std_x2 / float(np.std(x2))
    return (
        config.mean_x1 + a1 * (x1 - float(np.mean(x1))),
        config.mean_x2 + a2 * (x2 - float(np.mean(x2))),
    )


def generate_population(config: StudyConfig, rng: np.random.Generator) -> tuple[DataMatrix, Totals]:
    """Complete edit-consistent population hitting the attainable targets.

    Returns the population and its column totals.  Rescaling and edit
    screening alternate for at most 50 passes.  Fails if the screening
    rejects essentially everything (incompatible targets).
    """
    edits = study_edits()
    mean_g, std_g, rho_x2_g = _slack_moments(config)
    mu2, s2 = _lognormal_params(config.mean_x2, config.std_x2)
    mug, sg = _lognormal_params(mean_g, std_g)
    rho_z = _latent_correlation(rho_x2_g, s2, sg)

    n_pool = int(math.ceil(config.population_size * 1.02)) + 64
    z1 = rng.standard_normal(n_pool)
    z2 = rho_z * z1 + math.sqrt(1.0 - rho_z**2) * rng.standard_normal(n_pool)
    x2 = np.exp(mu2 + s2 * z1)
    g = np.exp(mug + sg * z2)
    x1 = 2.0 * x2 + g

    for _ in range(50):
        x1, x2 = _rescale_to_targets(x1, x2, config)
        values = np.column_stack([x1, x2, x1 + x2])
        bad = violation_matrix(edits, values, STUDY_COLUMNS).any(axis=1)
        if not bad.any():
            break
        if np.mean(bad) > 0.99:
            raise CalimpError("population generation rejected more than 99% of draws")
        x1, x2 = x1[~bad], x2[~bad]
    else:
        values = np.column_stack([x1, x2, x1 + x2])
        bad = violation_matrix(edits, values, STUDY_COLUMNS).any(axis=1)
        x1, x2 = x1[~bad], x2[~bad]
        values = np.column_stack([x1, x2, x1 + x2])

    if values.shape[0] < config.population_size:
        raise CalimpError("too few edit-consistent rows generated; widen the pool")
    values = values[: config.population_size]
    data = DataMatrix(
        values=values,
        mask=np.zeros_like(values, dtype=bool),
        columns=STUDY_COLUMNS,
    )
    totals = {name: float(values[:, j].sum()) for j, name in enumerate(STUDY_COLUMNS)}
    return data, totals


def apply_mcar(data: DataMatrix, config: StudyConfig, rng: np.random.Generator) -> DataMatrix:
    """Blank x1 in a fixed fraction of rows, x2 in a fraction of those, and
    x2 in a fraction of the rows untouched by the first draw.  P stays
    observed."""
    out = data.copy()
    r = out.n_records
    j1 = out.column_index("x1")
    j2 = out.column_index("x2")
    n1 = int(config.rate_x1 * r)
    first = rng.choice(r, size=n1, replace=False) if n1 else np.empty(0, dtype=int)
    n_within = int(config.rate_x2_within * n1)
    within = rng.choice(first, size=n_within, replace=False) if n_within else np.empty(0, dtype=int)
    remaining = np.setdiff1d(np.arange(r), first, assume_unique=False)
    n_extra = int(config.rate_x2_extra * remaining.size)
    extra = rng.choice(remaining, size=n_extra, replace=False) if n_extra else np.empty(0, dtype=int)

    out.mask[first, j1] = True
    out.mask[within, j2] = True
    out.mask[extra, j2] = True
    out.values[out.mask] = np.nan
    return out


def draw_sample(
    population: DataMatrix, config: StudyConfig, rng: np.random.Generator
) -> tuple[DataMatrix, DataMatrix, dict[str, float]]:
    """One replication's sample: the true rows drawn without replacement,
    the same rows after :func:`apply_mcar`, and the true x1 and x2 totals."""
    idx = rng.choice(population.n_records, size=config.sample_size, replace=False)
    truth = DataMatrix(
        values=population.values[idx].copy(),
        mask=population.mask[idx].copy(),
        columns=population.columns,
        weights=population.weights[idx].copy(),
    )
    totals = {name: float(truth.values[:, truth.column_index(name)].sum()) for name in ("x1", "x2")}
    return truth, apply_mcar(truth, config, rng), totals


def _moment_row(data: DataMatrix) -> dict[str, float]:
    v = data.values
    j1, j2, jp = (data.columns.index(c) for c in STUDY_COLUMNS)
    return {
        "mean_x1": float(np.mean(v[:, j1])),
        "std_x1": float(np.std(v[:, j1])),
        "mean_x2": float(np.mean(v[:, j2])),
        "std_x2": float(np.std(v[:, j2])),
        "corr_x1_x2": metrics.weighted_pearson(v[:, j1], v[:, j2], data.weights),
        "corr_x1_P": metrics.weighted_pearson(v[:, j1], v[:, jp], data.weights),
        "corr_x2_P": metrics.weighted_pearson(v[:, j2], v[:, jp], data.weights),
    }


def _metric_row(truth: DataMatrix, imputed: DataMatrix, mask: np.ndarray) -> dict[str, dict[str, float]]:
    out: dict[str, dict[str, float]] = {}
    for var in ("x1", "x2"):
        j = truth.column_index(var)
        cells = mask[:, j]
        if not cells.any():
            out[var] = {"d_l1": float("nan"), "ks": float("nan"), "std_pct_diff": float("nan")}
            continue
        out[var] = {
            "d_l1": metrics.d_l1(truth.values[cells, j], imputed.values[cells, j], truth.weights[cells]),
            "ks": metrics.ks_statistic(truth.values[cells, j], imputed.values[cells, j]),
            "std_pct_diff": metrics.std_pct_diff(truth.values[:, j], imputed.values[:, j]),
        }
    return out


def run_replication(
    population: DataMatrix,
    config: StudyConfig,
    rng: np.random.Generator,
    seed: int,
) -> tuple[dict[str, dict[str, float]], dict[str, dict[str, dict[str, float]]]]:
    """One sample: draw, mask, impute with every configured method, score."""
    truth, masked, totals = draw_sample(population, config, rng)
    edits = study_edits()

    moment_rows = {"original": _moment_row(truth)}
    metric_rows: dict[str, dict[str, dict[str, float]]] = {}
    bpma_result: DataMatrix | None = None
    for method in config.methods:
        if method == "mcmc":
            if bpma_result is None:
                bpma_result, _ = impute(
                    masked, edits, totals,
                    ImputationConfig("bpma", rounds=config.rounds,
                                     predictors=STUDY_PREDICTORS, variable_order=STUDY_ORDER),
                )
            refined, _ = mcmc_refine(
                bpma_result, edits, totals,
                McmcConfig(iterations=config.mcmc_iterations, seed=seed,
                           predictors=STUDY_PREDICTORS),
            )
            result = refined
        else:
            result, _ = impute(
                masked, edits, totals if method != "upma" else None,
                ImputationConfig(method, rounds=config.rounds, seed=seed,
                                 predictors=STUDY_PREDICTORS, variable_order=STUDY_ORDER),
            )
            if method == "bpma":
                bpma_result = result
        moment_rows[method] = _moment_row(result)
        metric_rows[method] = _metric_row(truth, result, masked.mask)
    return moment_rows, metric_rows


def run_study(config: StudyConfig) -> StudyReport:
    """Replicated study; every stream is derived from the single seed."""
    root = np.random.SeedSequence(config.seed)
    pop_ss, *rep_ss = root.spawn(config.replications + 1)
    population, _ = generate_population(config, np.random.default_rng(pop_ss))

    moment_acc: dict[str, dict[str, list[float]]] = {}
    metric_acc: dict[str, dict[str, dict[str, list[float]]]] = {}
    for rep, ss in enumerate(rep_ss):
        rng = np.random.default_rng(ss)
        seed = int(ss.generate_state(1)[0])
        try:
            moment_rows, metric_rows = run_replication(population, config, rng, seed)
        except CalimpError as err:
            raise CalimpError(f"replication {rep}: {err}") from err
        for method, stats in moment_rows.items():
            acc = moment_acc.setdefault(method, {k: [] for k in stats})
            for k, v in stats.items():
                acc[k].append(v)
        for method, per_var in metric_rows.items():
            acc_m = metric_acc.setdefault(method, {})
            for var, vals in per_var.items():
                acc_v = acc_m.setdefault(var, {k: [] for k in vals})
                for k, v in vals.items():
                    acc_v[k].append(v)

    moments = {
        method: {k: float(np.mean(v)) for k, v in stats.items()}
        for method, stats in moment_acc.items()
    }
    metric_table = {
        method: {
            var: {k: float(np.nanmean(v)) if not np.all(np.isnan(v)) else float("nan") for k, v in vals.items()}
            for var, vals in per_var.items()
        }
        for method, per_var in metric_acc.items()
    }
    return StudyReport(
        moments=moments,
        metric_table=metric_table,
        replications=config.replications,
        population=_moment_row(population),
        metric_samples=metric_acc,
    )
