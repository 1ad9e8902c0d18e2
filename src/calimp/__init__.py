"""Imputation of numerical survey data under linear edits and known totals."""

from .adjust import AdjustmentProblem, zero_sum_interval_adjust
from .edits import Edit, EditKind, EditSystem, check_record, format_edit_rules, parse_edit_rules
from .errors import (
    CalimpError,
    DataFormatError,
    EditSyntaxError,
    InfeasibleAdjustmentError,
    InfeasibleRecordError,
    InfeasibleSystemError,
    InsufficientDataError,
    RankDeficiencyError,
)
from .mcmc import McmcConfig, mcmc_refine
from .metrics import MetricReport, d_l1, ks_statistic, std_pct_diff, weighted_pearson
from .pipeline import DataMatrix, ImputationConfig, Totals, impute, variable_order
from .regression import RegressionFit, fit_benchmarked, fit_ols, log_benchmark_correction
from .residuals import benchmarked_residuals, cell_uniforms
from .sim import StudyConfig, StudyReport, apply_mcar, generate_population, run_study

__version__ = "0.1.0"
