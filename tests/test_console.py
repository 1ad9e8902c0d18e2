"""Seeded ``calimp impute`` runs write the same bytes whatever the
interpreter's hash seed.

One module fixture writes the inputs: a study run and its weighted copy,
survey files, survey files with a record on validate's margin and one
with a record past what its edits allow, chain inputs on survey records
near 1e10, blank cells whose calibrated predictions must sum to 0, a
chain from a record on validate's margin, and blank cells whose total
lies just past what they reach.  It then starts one fresh
interpreter per hash seed, with RuntimeWarnings as errors, which runs
``calimp.cli.main`` on every case in turn.  Each case must end the same
way under both hash seeds: exit code, stderr, output and diagnostics
bytes.  The other tests read the diagnostics of the first run.
"""

import json
import subprocess
import sys

import numpy as np
import pytest

from calimp import io as cio
from calimp.cli import main
from calimp.edits import format_edit_rules
from calimp.pipeline import DataMatrix

from test_io_cli import checkout_env
from test_mcmc import chain_at_the_margin
from test_pair_systems import (
    BLANK_PAIR_MARGIN,
    SURVEY_COLUMNS,
    SURVEY_RULES,
    build,
    loose_predictors,
    survey_blank_pair_below_zero,
    survey_near_zero_other,
    survey_truth,
)
from test_pipeline import reach_edge_case, zero_remainder_case

HASH_SEEDS = ("1", "2")
STUDY_RULES = "x1 + x2 = P\nx1 >= x2\nP >= 3*x2\nx1 >= 0\nx2 >= 0\nP >= 0\n"
# Without the balance, round 2 leaves intervals that are not points, so it fits.
INEQUALITY_RULES = STUDY_RULES.split("\n", 1)[1]

# Each case's impute arguments, relative to the run's directory, which is
# one level below the inputs.
STUDY = "--data ../run/masked.csv --edits ../rules.edits --totals ../run/totals.txt"
SURVEY = "--edits ../survey.edits --totals ../survey-totals.txt"
CASES = {
    "bpmr": f"{STUDY} --method bpmr --seed 5",
    "log-bpma": f"{STUDY} --method bpma --log-scale --seed 5",
    "weighted-log-bpma": "--data ../weighted.csv --edits ../rules.edits --totals ../weighted-totals.txt"
    " --method bpma --log-scale --seed 5",
    "mcmc": f"{STUDY} --method mcmc --iterations 2000 --seed 5",
    "round-2": "--data ../run/masked.csv --edits ../inequalities.edits --totals ../run/totals.txt"
    " --method bpmr --seed 5",
    # Survey bpmr may stop in round 1 (exit 3); then both runs must stop
    # with the same message.
    "survey-upma": f"--data ../survey.csv {SURVEY} --method upma --seed 5",
    "survey-bpmr": f"--data ../survey.csv {SURVEY} --method bpmr --seed 5",
    "near-zero": "--data ../near-zero.csv --edits ../survey.edits --method upma",
    "blank-pair": "--data ../blank-pair.csv --edits ../survey.edits --method upma",
    "blank-pair-wide": "--data ../blank-pair-wide.csv --edits ../survey.edits --method upma",
    "blank-pair-infeasible": "--data ../blank-pair-infeasible.csv --edits ../survey.edits --method upma",
    "survey-known-upma": "--data ../survey-known.csv --edits ../survey.edits --method upma",
    "survey-mcmc": f"--data ../survey-truth.csv {SURVEY} --mask ../survey-mask.csv"
    " --method mcmc --iterations 2000 --seed 5",
    "large-mcmc": "--data ../large.csv --edits ../survey.edits --totals ../large-totals.txt"
    " --mask ../large-mask.csv --method mcmc --iterations 2000 --seed 5",
    "survey-predictors-mcmc": f"--data ../survey-truth.csv {SURVEY} --mask ../survey-mask.csv"
    " --predictors ../survey.predictors --method mcmc --iterations 2000 --seed 5",
    "single-mcmc": f"--data ../survey-truth.csv {SURVEY} --mask ../survey-single-mask.csv"
    " --method mcmc --iterations 2000 --seed 5",
    "zero-remainder": "--data ../zero-remainder.csv --edits ../zero-remainder.edits"
    " --totals ../zero-remainder-totals.txt --method bpma",
    "margin-mcmc": "--data ../margin.csv --edits ../margin.edits --totals ../margin-totals.txt"
    " --mask ../margin-mask.csv --method mcmc --iterations 400 --seed 5",
    "total-past-reach": "--data ../past-reach.csv --edits ../past-reach.edits"
    " --totals ../past-reach-totals.txt --method bpma",
    "not-utf8": "--data ../not-utf8.csv --edits ../survey.edits --method upma",
}
EXIT_CODES = {
    "survey-upma": (0, 3),
    "survey-bpmr": (0, 3),
    "blank-pair-infeasible": (3,),
    "total-past-reach": (3,),
    "not-utf8": (2,),
}

# Runs every case it reads from stdin and prints each one's exit code and
# stderr; an exception, a RuntimeWarning included, has exit code None.
CHILD = """\
import contextlib, io, json, sys, traceback
from calimp.cli import main
results = {}
for case, argv in json.load(sys.stdin).items():
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except Exception:
            code = None
            traceback.print_exc(file=err)
    results[case] = [code, err.getvalue()]
json.dump(results, sys.stdout)
"""


def write_inputs(root):
    (root / "study.cfg").write_text("population_size = 400\nsample_size = 80\nreplications = 1\nseed = 9\n")
    assert main(["simulate", "--config", str(root / "study.cfg"), "--out", str(root / "run")]) == 0
    (root / "rules.edits").write_text(STUDY_RULES)
    (root / "inequalities.edits").write_text(INEQUALITY_RULES)
    # The masked sample with weights 2, 2.5, 1 and 1.5 in turn, and the
    # weighted totals of the full sample, summed in record order.
    masked = cio.read_dataset(root / "run" / "masked.csv")
    sample = cio.read_dataset(root / "run" / "sample.csv")
    w = 1 + np.arange(2, masked.n_records + 2) % 4 / 2
    cio.write_dataset(DataMatrix(masked.values, masked.mask, masked.columns, w), root / "weighted.csv",
                      missing_from_mask=True)
    cio.write_totals({name: float(np.cumsum(w * sample.values[:, sample.column_index(name)])[-1])
                      for name in ("x1", "x2")}, root / "weighted-totals.txt")

    # 300 survey records, 15% of cells blanked; no column is fully observed.
    # survey-known.csv observes goods, services and turnover in every record.
    rng = np.random.default_rng(1)
    truth, _ = survey_truth(rng, 300)
    mask = rng.random(truth.shape) < 0.15
    known = mask & (np.arange(mask.shape[1]) >= 3)
    for name, cells in (("survey.csv", mask), ("survey-known.csv", known)):
        cio.write_dataset(DataMatrix(truth, cells, SURVEY_COLUMNS), root / name, missing_from_mask=True)
    cio.write_dataset(DataMatrix(truth, np.zeros_like(mask), SURVEY_COLUMNS), root / "survey-truth.csv")
    # The first imputed cell of each column alone: a chain on this mask has
    # no pair to draw.
    single = np.zeros_like(mask)
    for j in range(mask.shape[1]):
        single[np.flatnonzero(mask[:, j])[:1], j] = True
    cio.write_mask(mask, SURVEY_COLUMNS, root / "survey-mask.csv")
    cio.write_mask(single, SURVEY_COLUMNS, root / "survey-single-mask.csv")
    # survey.csv with a byte that is not UTF-8 on line 250, past the
    # reader's first 8 KB.
    lines = (root / "survey.csv").read_bytes().split(b"\n")
    lines[249] = b"\xff" + lines[249]
    (root / "not-utf8.csv").write_bytes(b"\n".join(lines))
    cio.write_totals(dict(zip(SURVEY_COLUMNS, truth.sum(axis=0))), root / "survey-totals.txt")
    (root / "survey.edits").write_text(SURVEY_RULES)
    predictors = loose_predictors(SURVEY_COLUMNS)
    (root / "survey.predictors").write_text("".join(f"{name}: {', '.join(p)}\n" for name, p in predictors.items()))

    # Records that validate accepts on their margin, 1e-9 times turnover;
    # blank-pair-wide forces its blank pair 1.5 margins below 0, which the
    # bound rows' margins allow, and blank-pair-infeasible 3.2 margins,
    # past the 3 they allow.
    cases = {
        "near-zero": survey_near_zero_other(),
        "blank-pair": survey_blank_pair_below_zero(),
        "blank-pair-wide": survey_blank_pair_below_zero(1.5 * BLANK_PAIR_MARGIN),
        "blank-pair-infeasible": survey_blank_pair_below_zero(3.2 * BLANK_PAIR_MARGIN),
    }
    for name, (truth, mask, _) in cases.items():
        cio.write_dataset(DataMatrix(truth, mask, SURVEY_COLUMNS), root / f"{name}.csv", missing_from_mask=True)

    # Survey records near 1e10, whose default predictors the balances make
    # dependent at rounding level.
    data, _, totals = build("large", np.random.default_rng(0), weighted=False, r=200)
    cio.write_dataset(DataMatrix(data.values, np.zeros_like(data.mask), data.columns), root / "large.csv")
    cio.write_mask(data.mask, data.columns, root / "large-mask.csv")
    cio.write_totals(totals, root / "large-totals.txt")

    # Blank cells near 3e4 that must sum to 0, and a chain whose record 0
    # breaks each of its edits by 0.9 of validate's margin; the chain runs
    # on its default predictors, b and c.
    data, edits, totals = zero_remainder_case(2)
    cio.write_dataset(data, root / "zero-remainder.csv", missing_from_mask=True)
    (root / "zero-remainder.edits").write_text(format_edit_rules(edits))
    cio.write_totals(totals, root / "zero-remainder-totals.txt")
    data, edits, totals, _ = chain_at_the_margin(2, 0.9)
    cio.write_dataset(DataMatrix(data.values, np.zeros_like(data.mask), data.columns), root / "margin.csv")
    cio.write_mask(data.mask, data.columns, root / "margin-mask.csv")
    (root / "margin.edits").write_text(format_edit_rules(edits))
    cio.write_totals(totals, root / "margin-totals.txt")
    # Blank cells whose total lies 1e-4 past what they reach: 13 times
    # validate's allowance on a total near 760, though small beside the
    # records' terms near 1e5.
    data, edits, totals = reach_edge_case("cancelling")
    cio.write_dataset(data, root / "past-reach.csv", missing_from_mask=True)
    (root / "past-reach.edits").write_text(format_edit_rules(edits))
    cio.write_totals({"y": totals["y"] + 1e-4}, root / "past-reach-totals.txt")


def read(path):
    return path.read_bytes() if path.exists() else None


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    """For each hash seed, each case's exit code, stderr, output bytes and
    diagnostics bytes (``None`` for a file the run did not write)."""
    root = tmp_path_factory.mktemp("console")
    write_inputs(root)
    argv = {case: ["impute", *args.split(), "--out", f"{case}.csv"] for case, args in CASES.items()}
    children = {}
    for seed in HASH_SEEDS:
        (root / seed).mkdir()
        env = checkout_env(PYTHONHASHSEED=seed, PYTHONWARNINGS="error::RuntimeWarning")
        children[seed] = subprocess.Popen([sys.executable, "-c", CHILD], cwd=root / seed, env=env, text=True,
                                          stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    runs = {}
    for seed, child in children.items():
        out, err = child.communicate(json.dumps(argv))
        assert child.returncode == 0, err
        runs[seed] = {
            case: (code, stderr, *(read(root / seed / f"{case}{suffix}") for suffix in (".csv", ".csv.diag.jsonl")))
            for case, (code, stderr) in json.loads(out).items()
        }
    return runs


def diagnostics(corpus, case):
    return [json.loads(line) for line in corpus[HASH_SEEDS[0]][case][3].splitlines()]


@pytest.mark.parametrize("case", CASES)
def test_seeded_run_is_byte_identical_under_two_hash_seeds(corpus, case):
    first, second = (corpus[seed][case] for seed in HASH_SEEDS)
    assert first[0] in EXIT_CODES.get(case, (0,)), first[1]
    assert first == second


def test_blank_pair_past_its_rows_margins_names_the_cell(corpus):
    code, stderr, out, _ = corpus[HASH_SEEDS[0]]["blank-pair-infeasible"]
    assert code == 3 and out is None, stderr
    assert "record 0, variable 'materials': no admissible value for materials" in stderr, stderr


def test_total_past_reach_is_infeasible(corpus):
    # The step's reach check refuses the total (exit 3) before validate
    # could refuse the column (exit 2).
    code, stderr, out, _ = corpus[HASH_SEEDS[0]]["total-past-reach"]
    assert code == 3 and out is None, stderr
    assert stderr.startswith("infeasible: variable 'y', round 1: required weighted adjustment sum 0"), stderr


def test_byte_that_is_not_utf8_names_its_line(corpus):
    code, stderr, out, diagnostics = corpus[HASH_SEEDS[0]]["not-utf8"]
    assert (code, out, diagnostics) == (2, None, None), stderr
    assert stderr == "error: ../not-utf8.csv: line 250: byte 0xff is not UTF-8 (invalid start byte)\n"


def test_bpmr_draws_every_cell_without_fallback(corpus):
    # Every row that fitted drew by the inverse CDF, and some cells drew.
    rows = [row["residuals"] for row in diagnostics(corpus, "bpmr") if row["fit"]]
    assert rows and all(row["fallbacks"] == 0 for row in rows), rows
    assert sum(row["attempts"] for row in rows) > 0, rows


def test_round_2_fits_without_the_balance(corpus):
    rows = diagnostics(corpus, "round-2")
    assert any(row["round"] == 2 and row["fit"] for row in rows), rows


def test_upma_names_dependent_predictors_on_survey_known(corpus):
    # The whole balance turnover = goods + services is observed, so round 1
    # fits on it and drops a dependent predictor.
    rows = [row for row in diagnostics(corpus, "survey-known-upma") if row["fit"]]
    assert any(row["dropped_predictors"] for row in rows), rows


def test_study_chain_accounts_for_every_step(corpus):
    # Pinned (skipped) steps are among the accepted ones.  P is fully
    # observed, so no model is exact.
    last = diagnostics(corpus, "mcmc")[-1]
    assert last["accepted"] + last["fallbacks"] == 2000, last
    for name, entry in last["per_variable"].items():
        assert entry["pinned"] <= entry["accepted"], (name, entry)
        assert entry["exact_fit"] is False, (name, entry)


def test_survey_chain_on_default_predictors_is_exact(corpus):
    # Every target is structural, so every step is skipped before its key
    # is looked up, and nothing moves.
    last = diagnostics(corpus, "survey-mcmc")[-1]
    assert last["accepted"] + last["fallbacks"] == 2000, last
    assert last["pair_systems"] == {"compiled": 0, "hits": 0}, last
    for name, entry in last["per_variable"].items():
        assert entry["pinned"] == entry["accepted"], (name, entry)
        assert entry["moved"] == 0 and entry["exact_fit"] is True, (name, entry)


def test_predictors_file_moves_survey_cells(corpus):
    # The chain of survey-mcmc with one predictor per target, read from a
    # --predictors file: no balance fixes a target there, so cells that the
    # default predictors leave in place move.
    rows = diagnostics(corpus, "survey-predictors-mcmc")
    assert rows[0]["predictors"] == loose_predictors(SURVEY_COLUMNS), rows[0]
    last, default = rows[-1], diagnostics(corpus, "survey-mcmc")[-1]
    assert last["accepted"] + last["fallbacks"] == 2000, last
    assert last["pair_systems"]["compiled"] > 0, last
    assert sum(entry["moved"] for entry in last["per_variable"].values()) > 0, last
    assert all(entry["moved"] == 0 for entry in default["per_variable"].values()), default
    first = corpus[HASH_SEEDS[0]]
    assert first["survey-predictors-mcmc"][2] != first["survey-mcmc"][2]


def test_chain_without_a_pair_writes_one_note(corpus):
    rows = diagnostics(corpus, "single-mcmc")
    assert len(rows) == 1 and list(rows[0]) == ["note"], rows


def test_chain_from_a_record_on_the_margin_takes_every_step(corpus):
    last = diagnostics(corpus, "margin-mcmc")[-1]
    assert (last["accepted"], last["fallbacks"]) == (400, 0), last
