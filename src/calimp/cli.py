"""Command-line interface: ``simulate``, ``impute``, and ``evaluate``.

Exit codes: 0 success, 1 usage error, 2 malformed or inconsistent data,
3 infeasible constraint system.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import io as cio
from . import metrics, sim
from .edits import parse_edit_rules
from .errors import (
    CalimpError,
    DataFormatError,
    EditSyntaxError,
    InfeasibleSystemError,
    InputCheckError,
)
from .mcmc import McmcConfig, mcmc_refine
from .pipeline import DataMatrix, ImputationConfig, impute

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_INFEASIBLE = 3


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit(2); usage errors are exit 1
        raise _UsageError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="calimp", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="generate a synthetic population and one sample")
    p_sim.add_argument("--config", help="key = value study configuration file")
    p_sim.add_argument("--out", required=True, help="output directory")

    p_imp = sub.add_parser("impute", help="impute a dataset under edits (and totals)")
    p_imp.add_argument("--data", required=True)
    p_imp.add_argument("--edits", required=True)
    p_imp.add_argument("--totals")
    p_imp.add_argument("--method", required=True, choices=["upma", "bpma", "bpmr", "mcmc"])
    p_imp.add_argument("--seed", type=int, default=0)
    p_imp.add_argument("--rounds", type=int, help="imputation rounds (default 2)")
    p_imp.add_argument(
        "--iterations", type=int,
        help="chain length for --method mcmc, in pair updates (default 20 per imputed cell); "
        "a sweep of column j makes n_j // 2 of them, n_j its imputed cells",
    )
    p_imp.add_argument(
        "--predictors", metavar="FILE",
        help="chain predictors for --method mcmc, one 'target: a, b' line per target",
    )
    p_imp.add_argument("--mask", help="imputed-cell mask of an already consistent dataset (mcmc)")
    p_imp.add_argument("--log-scale", action="store_true", help="fit on log scale (upma/bpma)")
    p_imp.add_argument("--out", required=True)
    p_imp.add_argument("--diagnostics", help="diagnostics path (default: OUT.diag.jsonl)")

    p_eval = sub.add_parser("evaluate", help="score an imputed dataset against the truth")
    p_eval.add_argument("--truth", required=True)
    p_eval.add_argument("--imputed", required=True)
    p_eval.add_argument("--mask", required=True)
    p_eval.add_argument("--out", required=True)
    return parser


def _naming(paths: dict[str, str | None], call, *args):
    """``call(*args)``, its exit-2 error prefixed with the paths of the
    inputs it came from: ``paths`` maps each input kind given to ``call``
    to its file, in the order to name them, and an
    :class:`InputCheckError` narrows them to the kinds its check read."""
    try:
        return call(*args)
    except InfeasibleSystemError:
        raise
    except (CalimpError, ValueError) as err:
        kinds = err.inputs if isinstance(err, InputCheckError) else paths
        named = ", ".join(str(path) for kind, path in paths.items() if path and kind in kinds)
        raise DataFormatError(f"{named}: {err}") from err


def _study_config(path: str | None) -> sim.StudyConfig:
    if path is None:
        return sim.StudyConfig()
    raw = cio.read_config(path)
    fields = {f.name: f for f in dataclasses.fields(sim.StudyConfig)}
    kwargs = {}
    for key, value in raw.items():
        if key not in fields:
            raise DataFormatError(f"unknown study setting {key!r}")
        ftype = str(fields[key].type)
        if key == "methods":
            kwargs[key] = tuple(v.strip() for v in value.split(",") if v.strip())
        elif value.lower() == "none" and "None" in ftype:
            kwargs[key] = None
        else:
            try:
                kwargs[key] = int(value) if "int" in ftype else float(value)
            except ValueError:
                raise DataFormatError(f"bad value {value!r} for study setting {key!r}") from None
    return sim.StudyConfig(**kwargs)


def _cmd_simulate(args) -> int:
    config = _naming({"config": args.config}, _study_config, args.config)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    root = np.random.SeedSequence(config.seed)
    pop_ss, rep_ss = root.spawn(2)
    population, pop_totals = sim.generate_population(config, np.random.default_rng(pop_ss))
    truth, masked, totals = sim.draw_sample(population, config, np.random.default_rng(rep_ss))

    cio.write_dataset(population, out / "population.csv")
    cio.write_dataset(truth, out / "sample.csv")
    cio.write_dataset(masked, out / "masked.csv", missing_from_mask=True)
    cio.write_mask(masked.mask, masked.columns, out / "mask.csv")
    cio.write_totals(totals, out / "totals.txt")
    print(f"wrote population, sample, masked sample, mask and totals under {out}")
    return EXIT_OK


def _write_diagnostics(rows, path: Path) -> None:
    with path.open("w", encoding="utf-8") as handle:
        for row in rows:
            handle.write(json.dumps(row) + "\n")


def _write_outputs(result: DataMatrix, out: Path, diagnostics, diag_path: Path) -> None:
    """Write the imputed data and its diagnostics, both or neither: a
    failed write removes each file this call began to write."""
    begun = [out]
    try:
        cio.write_dataset(result, out)
        begun.append(diag_path)
        _write_diagnostics(diagnostics, diag_path)
    except BaseException:
        for path in begun:
            if path.is_file():
                path.unlink()
        raise


def _cmd_impute(args) -> int:
    if args.method in ("bpma", "bpmr", "mcmc") and not args.totals:
        raise _UsageError(f"--method {args.method} requires --totals")
    if args.log_scale and args.method in ("bpmr", "mcmc"):
        raise _UsageError("--log-scale supports upma and bpma only")
    for option, value in (("--iterations", args.iterations), ("--mask", args.mask), ("--predictors", args.predictors)):
        if value is not None and args.method != "mcmc":
            raise _UsageError(f"{option} applies to --method mcmc only")
    rounds = {} if args.rounds is None else {"rounds": args.rounds}
    if args.method == "mcmc":
        predictors = None
        if args.predictors:
            predictors = _naming({"predictors": args.predictors}, cio.read_predictors, args.predictors)
        config = McmcConfig(iterations=args.iterations, seed=args.seed, predictors=predictors)
    else:
        config = ImputationConfig(args.method, seed=args.seed, log_scale=args.log_scale, **rounds)
    data = _naming({"data": args.data}, cio.read_dataset, args.data)
    edits = _naming({"edits": args.edits}, lambda: parse_edit_rules(cio.read_text(args.edits)))
    totals = _naming({"totals": args.totals}, cio.read_totals, args.totals) if args.totals else None
    if totals:
        stray = [name for name in totals if name not in data.columns]
        if stray:
            raise DataFormatError(f"{args.totals}, {args.data}: totals reference unknown column(s) {stray}")
    out = Path(args.out)
    diag_path = Path(args.diagnostics) if args.diagnostics else out.with_name(out.name + ".diag.jsonl")
    inputs = {
        "data": args.data, "edits": args.edits, "totals": args.totals, "mask": args.mask, "predictors": args.predictors,
    }

    if args.method == "mcmc":
        diagnostics: list[dict] = []
        if data.mask.any():
            if args.mask is not None:
                raise _UsageError("--mask applies to complete data only; this input has missing cells")
            diagnostics.append({"note": "input has missing values; running bpma pre-imputation"})
            print("note: running bpma pre-imputation before the chain", file=sys.stderr)
            bpma = ImputationConfig("bpma", seed=args.seed, **rounds)
            pre, pre_diag = _naming(inputs, impute, data, edits, totals, bpma)
            diagnostics.extend(pre_diag)
        else:
            if not args.mask:
                raise _UsageError("--method mcmc on complete data requires --mask")
            if args.rounds is not None:
                raise _UsageError("--rounds applies to data with missing cells only; this input is complete")
            mask = _naming({"mask": args.mask}, cio.read_mask, args.mask, data.columns)
            if mask.shape != data.values.shape:
                raise DataFormatError(f"{args.mask}, {args.data}: mask shape does not match the dataset")
            pre = DataMatrix(data.values.copy(), mask, data.columns, data.weights.copy())
        refined, trace = _naming(inputs, mcmc_refine, pre, edits, totals, config)
        if not trace:
            reason = "zero iterations" if args.iterations == 0 else "no column has two imputed cells"
            trace = [{"note": f"the chain took no step: {reason}"}]
        _write_outputs(refined, out, diagnostics + trace, diag_path)
        return EXIT_OK

    result, diagnostics = _naming(inputs, impute, data, edits, totals, config)
    _write_outputs(result, out, diagnostics, diag_path)
    return EXIT_OK


def _or_nan(metric, *columns) -> float:
    """``metric(*columns)``, or nan where a constant column leaves it
    undefined: the columns' shapes are checked first, so that is the only
    ValueError it can raise."""
    try:
        return metric(*columns)
    except ValueError:
        return math.nan


def _cmd_evaluate(args) -> int:
    truth = _naming({"truth": args.truth}, cio.read_dataset, args.truth)
    imputed = _naming({"imputed": args.imputed}, cio.read_dataset, args.imputed)
    mask = _naming({"mask": args.mask}, cio.read_mask, args.mask, truth.columns)
    if truth.columns != imputed.columns:
        raise DataFormatError(f"{args.truth}, {args.imputed}: truth and imputed files have different columns")
    if truth.values.shape != imputed.values.shape:
        raise DataFormatError(f"{args.truth}, {args.imputed}: truth and imputed files have different shapes")
    if mask.shape != truth.values.shape:
        raise DataFormatError(f"{args.mask}, {args.truth}: mask shape does not match the data")
    if not truth.is_complete():
        raise DataFormatError(f"{args.truth}: truth file has missing values")
    if not imputed.is_complete():
        raise DataFormatError(f"{args.imputed}: imputed file has missing values")
    if not np.array_equal(truth.weights, imputed.weights):
        raise DataFormatError(f"{args.truth}, {args.imputed}: truth and imputed files have different weights")
    weights = truth.weights

    per_variable: dict[str, dict[str, float]] = {}
    for j, name in enumerate(truth.columns):
        cells = mask[:, j]
        if not cells.any():
            continue
        per_variable[name] = {
            "d_l1": metrics.d_l1(truth.values[cells, j], imputed.values[cells, j], weights[cells]),
            "ks": metrics.ks_statistic(truth.values[cells, j], imputed.values[cells, j]),
            "std_pct_diff": _or_nan(metrics.std_pct_diff, truth.values[:, j], imputed.values[:, j]),
        }
    correlations: dict[tuple[str, str], float] = {}
    for a in range(len(truth.columns)):
        for b in range(a + 1, len(truth.columns)):
            correlations[(truth.columns[a], truth.columns[b])] = _or_nan(
                metrics.weighted_pearson, imputed.values[:, a], imputed.values[:, b], weights
            )
    report = metrics.MetricReport(per_variable=per_variable, correlations=correlations)

    # A correlation's variable is the pair "a,b", which the CSV writer quotes.
    rows = ([var, metric, repr(float(value))] for var, metric, value in report.rows())
    cio._write_csv(args.out, ["variable", "metric", "value"], rows)
    return EXIT_OK


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "simulate":
            return _cmd_simulate(args)
        if args.command == "impute":
            return _cmd_impute(args)
        return _cmd_evaluate(args)
    except _UsageError as err:
        print(f"usage error: {err}", file=sys.stderr)
        return EXIT_USAGE
    except InfeasibleSystemError as err:
        print(f"infeasible: {err}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except (DataFormatError, EditSyntaxError, CalimpError, ValueError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
