import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import calimp
from calimp import io as cio
from calimp.cli import _study_config, main
from calimp.errors import DataFormatError
from calimp.pipeline import DataMatrix

from test_mcmc import FIVE_VAR_RULES, five_var_data
from test_pair_systems import SURVEY_RULES, build
from test_pipeline import pinned_balance_data


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


class TestDatasetIO:
    def test_missing_markers_and_mask(self, tmp_path):
        path = write(tmp_path, "d.csv", "a,b,c\n1,NA,3\n4,5,\n")
        data = cio.read_dataset(path)
        assert data.columns == ("a", "b", "c")
        assert data.mask.sum() == 2
        assert data.mask[0, 1] and data.mask[1, 2]
        assert data.values[1, 1] == 5.0

    def test_weight_column_loaded_and_excluded(self, tmp_path):
        path = write(tmp_path, "d.csv", "a,__weight,b\n1,2.5,3\n4,1.5,6\n")
        data = cio.read_dataset(path)
        assert data.columns == ("a", "b")
        assert np.allclose(data.weights, [2.5, 1.5])

    def test_no_records_is_an_error(self, tmp_path):
        path = write(tmp_path, "d.csv", "a,b\n")
        with pytest.raises(DataFormatError, match="no records"):
            cio.read_dataset(path)

    def test_duplicate_header_rejected(self, tmp_path):
        path = write(tmp_path, "d.csv", "a,a\n1,2\n")
        with pytest.raises(DataFormatError, match="duplicate"):
            cio.read_dataset(path)

    def test_bad_field_reports_line(self, tmp_path):
        path = write(tmp_path, "d.csv", "a\n1\nfoo\n")
        with pytest.raises(DataFormatError) as info:
            cio.read_dataset(path)
        assert info.value.line == 3

    def test_nonpositive_weight_rejected(self, tmp_path):
        path = write(tmp_path, "d.csv", "a,__weight\n1,0\n")
        with pytest.raises(DataFormatError, match="positive"):
            cio.read_dataset(path)

    def test_write_read_round_trip_is_bit_exact(self, tmp_path):
        rng = np.random.default_rng(0)
        values = rng.normal(size=(20, 3)) * rng.lognormal(size=(20, 3))
        values[3, 1] = math.pi * 1e17
        data = DataMatrix(values, np.zeros_like(values, dtype=bool), ("a", "b", "c"),
                          weights=rng.uniform(0.5, 2.0, size=20))
        path = tmp_path / "out.csv"
        cio.write_dataset(data, path)
        back = cio.read_dataset(path)
        assert back.values.tobytes() == data.values.tobytes()
        assert back.weights.tobytes() == data.weights.tobytes()

    def test_masked_write_reblanks_cells(self, tmp_path):
        values = np.array([[1.0, 2.0], [3.0, 4.0]])
        mask = np.array([[False, True], [False, False]])
        data = DataMatrix(values, mask, ("a", "b"))
        path = tmp_path / "m.csv"
        cio.write_dataset(data, path, missing_from_mask=True)
        assert "NA" in path.read_text()


class TestTotalsConfigMask:
    def test_totals_round_trip(self, tmp_path):
        path = tmp_path / "t.txt"
        cio.write_totals({"a": 1.5, "b": 2.0}, path)
        assert cio.read_totals(path) == {"a": 1.5, "b": 2.0}

    def test_totals_parse_errors(self, tmp_path):
        path = write(tmp_path, "t.txt", "a = 1\nnot a line\n")
        with pytest.raises(DataFormatError) as info:
            cio.read_totals(path)
        assert info.value.line == 2

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_total_is_rejected_with_its_line(self, tmp_path, value):
        path = write(tmp_path, "t.txt", f"x2 = 5\nx1 = {value}\n")
        with pytest.raises(DataFormatError, match="non-finite total") as info:
            cio.read_totals(path)
        assert info.value.line == 2

    def test_config_parsing(self, tmp_path):
        path = write(tmp_path, "c.cfg", "# comment\nseed = 5\nmethods = bpma, bpmr\n")
        assert cio.read_config(path) == {"seed": "5", "methods": "bpma, bpmr"}

    @pytest.mark.parametrize(
        "text, line, message",
        [
            ("a = 1\n\n = 2\n", 3, "missing column name"),
            ("a = 1\n# a = 3\na = 2\n", 3, "duplicate total for 'a'"),
            ("a = 1\nb = x\n", 2, "bad total 'x'"),
        ],
    )
    def test_totals_line_errors(self, tmp_path, text, line, message):
        with pytest.raises(DataFormatError, match=message) as info:
            cio.read_totals(write(tmp_path, "t.txt", text))
        assert info.value.line == line

    @pytest.mark.parametrize(
        "text, line, message",
        [
            ("seed = 1\nseed\n", 2, "expected 'key = value'"),
            ("= 1\n", 1, "missing key"),
            ("seed = 1\nseed = 2 # again\n", 2, "duplicate key 'seed'"),
        ],
    )
    def test_config_line_errors(self, tmp_path, text, line, message):
        with pytest.raises(DataFormatError, match=message) as info:
            cio.read_config(write(tmp_path, "c.cfg", text))
        assert info.value.line == line

    def test_dataset_and_mask_rows_are_read_alike(self, tmp_path):
        # Stripped header and fields, blank rows skipped, field count
        # checked with the file's line number.
        data = cio.read_dataset(write(tmp_path, "d.csv", " a , b\n1, 2\n\n3 ,NA\n"))
        assert data.columns == ("a", "b")
        assert np.array_equal(data.mask, [[False, False], [False, True]])
        mask = cio.read_mask(write(tmp_path, "m.csv", " a , b\n0, 1\n\n1 ,0\n"), ("a", "b"))
        assert np.array_equal(mask, [[False, True], [True, False]])
        for name, read in (("d.csv", cio.read_dataset), ("m.csv", cio.read_mask)):
            with pytest.raises(DataFormatError, match="expected 2 fields, found 3") as info:
                read(write(tmp_path, name, "a,b\n1,0\n\n0,1,1\n"))
            assert info.value.line == 4

    def test_mask_round_trip(self, tmp_path):
        mask = np.array([[True, False], [False, True]])
        path = tmp_path / "mask.csv"
        cio.write_mask(mask, ("a", "b"), path)
        assert np.array_equal(cio.read_mask(path, ("a", "b")), mask)

    @pytest.mark.parametrize("cell", ["2", "-1", "x"])
    def test_mask_cells_other_than_0_and_1_are_rejected(self, tmp_path, cell):
        path = write(tmp_path, "mask.csv", f"a,b\n0,1\n1,{cell}\n")
        with pytest.raises(DataFormatError, match="0 or 1") as info:
            cio.read_mask(path)
        assert info.value.line == 3


EDITS = "x1 + x2 = x3\nx1 >= x2\nx3 >= 3*x2\nx1 >= 0\nx2 >= 0\nx3 >= 0\n"


def small_files(tmp_path, rng):
    x2 = rng.uniform(0, 40, size=60)
    x1 = 2 * x2 + rng.uniform(0, 60, size=60)
    truth = np.column_stack([x1, x2, x1 + x2])
    mask = np.zeros_like(truth, dtype=bool)
    rows = rng.choice(60, size=12, replace=False)
    mask[rows, 0] = True
    mask[rows[:6], 1] = True
    masked = truth.copy()
    masked[mask] = np.nan
    data = DataMatrix(masked, mask, ("x1", "x2", "x3"))
    truth_data = DataMatrix(truth, np.zeros_like(mask), ("x1", "x2", "x3"))
    cio.write_dataset(data, tmp_path / "data.csv", missing_from_mask=True)
    cio.write_dataset(truth_data, tmp_path / "truth.csv")
    cio.write_mask(mask, data.columns, tmp_path / "mask.csv")
    cio.write_totals({"x1": float(truth[:, 0].sum()), "x2": float(truth[:, 1].sum())},
                     tmp_path / "totals.txt")
    (tmp_path / "rules.edits").write_text(EDITS)


def loaded_on_import(package):
    """The modules under the dotted name ``package`` that ``import calimp,
    calimp.cli`` loads, printed by a fresh interpreter, as this one may
    have loaded them for other tests."""
    src = str(Path(calimp.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    parts = package.split(".")
    probe = f"import sys, calimp, calimp.cli; print([m for m in sys.modules if m.split('.')[:{len(parts)}] == {parts!r}])"
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True)
    return out.stdout.strip()


def test_package_and_cli_load_no_scipy_stats():
    # scipy.stats is most of a cold start; no calimp module needs it.
    assert loaded_on_import("scipy.stats") == "[]"


def test_package_and_cli_load_no_scipy():
    # scipy.special loads on the first residual draw, which upma, bpma,
    # simulate and evaluate never make.
    assert loaded_on_import("scipy") == "[]"


class TestCli:
    def test_impute_bpma_without_totals_is_usage_error(self, tmp_path, capsys):
        small_files(tmp_path, np.random.default_rng(0))
        code = main([
            "impute", "--data", str(tmp_path / "data.csv"),
            "--edits", str(tmp_path / "rules.edits"),
            "--method", "bpma", "--out", str(tmp_path / "out.csv"),
        ])
        assert code == 1
        assert "usage error" in capsys.readouterr().err

    def test_impute_on_complete_data_is_identity(self, tmp_path):
        small_files(tmp_path, np.random.default_rng(1))
        code = main([
            "impute", "--data", str(tmp_path / "truth.csv"),
            "--edits", str(tmp_path / "rules.edits"),
            "--method", "upma", "--out", str(tmp_path / "out.csv"),
        ])
        assert code == 0
        assert cio.read_dataset(tmp_path / "out.csv").values.tobytes() == \
            cio.read_dataset(tmp_path / "truth.csv").values.tobytes()

    def test_impute_evaluate_round_trip(self, tmp_path):
        small_files(tmp_path, np.random.default_rng(2))
        code = main([
            "impute", "--data", str(tmp_path / "data.csv"),
            "--edits", str(tmp_path / "rules.edits"),
            "--totals", str(tmp_path / "totals.txt"),
            "--method", "bpmr", "--seed", "3",
            "--out", str(tmp_path / "imp.csv"),
        ])
        assert code == 0
        assert (tmp_path / "imp.csv.diag.jsonl").exists()
        for line in (tmp_path / "imp.csv.diag.jsonl").read_text().splitlines():
            json.loads(line)
        code = main([
            "evaluate", "--truth", str(tmp_path / "truth.csv"),
            "--imputed", str(tmp_path / "imp.csv"),
            "--mask", str(tmp_path / "mask.csv"),
            "--out", str(tmp_path / "report.csv"),
        ])
        assert code == 0
        report = (tmp_path / "report.csv").read_text()
        assert "x1,d_l1," in report
        assert "correlation" in report

    def test_evaluate_files_with_different_weights_exit_2(self, tmp_path, capsys):
        # d_l1 and the correlations share one weight vector, so a truth file
        # weighted otherwise than the imputed file is a data error.
        small_files(tmp_path, np.random.default_rng(2))
        truth = cio.read_dataset(tmp_path / "truth.csv")
        weights = np.tile([1.0, 5.0, 1.0, 2.0, 1.0], 12)
        cio.write_dataset(DataMatrix(truth.values, truth.mask, truth.columns, weights), tmp_path / "weighted.csv")
        code = main([
            "evaluate", "--truth", str(tmp_path / "weighted.csv"), "--imputed", str(tmp_path / "truth.csv"),
            "--mask", str(tmp_path / "mask.csv"), "--out", str(tmp_path / "report.csv"),
        ])
        assert code == 2
        assert "different weights" in capsys.readouterr().err
        assert not (tmp_path / "report.csv").exists()

    def test_evaluate_writes_nan_for_a_metric_a_constant_column_leaves_undefined(self, tmp_path):
        # Two constant columns: x4 at 7.0, never imputed, and x5 at 0.0,
        # imputed in a few records.  Neither has a correlation with another
        # column, and x5 has no relative change of its spread: the report
        # says nan for those and gives every other metric.
        small_files(tmp_path, np.random.default_rng(2))
        truth = cio.read_dataset(tmp_path / "truth.csv")
        n = len(truth.values)
        values = np.column_stack([truth.values, np.full(n, 7.0), np.zeros(n)])
        columns = (*truth.columns, "x4", "x5")
        cio.write_dataset(DataMatrix(values, np.zeros(values.shape, bool), columns), tmp_path / "t5.csv")
        mask = np.zeros(values.shape, bool)
        mask[:, :3] = cio.read_mask(tmp_path / "mask.csv", truth.columns)
        mask[:4, 4] = True
        cio.write_mask(mask, columns, tmp_path / "m5.csv")
        code = main([
            "evaluate", "--truth", str(tmp_path / "t5.csv"), "--imputed", str(tmp_path / "t5.csv"),
            "--mask", str(tmp_path / "m5.csv"), "--out", str(tmp_path / "report.csv"),
        ])
        assert code == 0
        rows = dict(
            (tuple(fields[:2]), fields[2])
            for fields in (line.rsplit(",", 2) for line in (tmp_path / "report.csv").read_text().splitlines()[1:])
        )
        undefined = [("x5", "std_pct_diff")] + [(f"{a},{b}", "correlation") for a, b in (
            ("x1", "x4"), ("x1", "x5"), ("x2", "x4"), ("x2", "x5"), ("x3", "x4"), ("x3", "x5"), ("x4", "x5"))]
        assert sorted(key for key, value in rows.items() if value == "nan") == sorted(undefined)
        assert all(math.isfinite(float(value)) for key, value in rows.items() if key not in undefined)
        assert rows[("x5", "d_l1")] == rows[("x5", "ks")] == "0.0"

    def test_rule_that_overflows_a_float_exits_2(self, tmp_path, capsys):
        small_files(tmp_path, np.random.default_rng(2))
        (tmp_path / "rules.edits").write_text(EDITS + "1e400*x1 >= 0\n")
        code = main([
            "impute", "--data", str(tmp_path / "data.csv"), "--edits", str(tmp_path / "rules.edits"),
            "--totals", str(tmp_path / "totals.txt"), "--method", "upma", "--out", str(tmp_path / "out.csv"),
        ])
        assert code == 2
        assert "line 7, column 1: number 1e400 overflows a float" in capsys.readouterr().err
        assert not (tmp_path / "out.csv").exists()

    def test_impute_mcmc_chains_bpma_on_missing_input(self, tmp_path, capsys):
        small_files(tmp_path, np.random.default_rng(3))
        code = main([
            "impute", "--data", str(tmp_path / "data.csv"),
            "--edits", str(tmp_path / "rules.edits"),
            "--totals", str(tmp_path / "totals.txt"),
            "--method", "mcmc", "--seed", "5", "--iterations", "100",
            "--out", str(tmp_path / "mc.csv"),
        ])
        assert code == 0
        assert "pre-imputation" in capsys.readouterr().err
        out = cio.read_dataset(tmp_path / "mc.csv")
        totals = cio.read_totals(tmp_path / "totals.txt")
        assert float(out.values[:, 0].sum()) == pytest.approx(totals["x1"], rel=1e-8)

    @pytest.mark.parametrize("case", ["large", "one_cell_per_column", "zero_iterations"])
    def test_chain_on_a_complete_file_exits_0(self, tmp_path, case):
        # Survey records near 1e10, whose default predictors the Gram factor
        # finds dependent at rounding level; a mask whose imputed cells are
        # each in a different column, which leaves no pair to draw; and a
        # chain of zero iterations.  Every step of the first chain is
        # skipped, so all three return their input.  The last two take no
        # step, and their diagnostics are one note saying why.
        iterations, note = "200", None
        if case == "large":
            data, edits, totals = build("large", np.random.default_rng(0), weighted=False, r=200)
            rules = SURVEY_RULES
        else:
            data, edits, totals = five_var_data(np.random.default_rng(2000), r=300)
            rules = FIVE_VAR_RULES
            if case == "zero_iterations":
                iterations, note = "0", "zero iterations"
            else:
                mask = np.zeros_like(data.mask)
                for j in (0, 3, 4):
                    mask[np.flatnonzero(data.mask[:, j])[0], j] = True
                data, note = DataMatrix(data.values, mask, data.columns), "no column has two imputed cells"
        cio.write_dataset(DataMatrix(data.values, np.zeros_like(data.mask), data.columns), tmp_path / "data.csv")
        cio.write_mask(data.mask, data.columns, tmp_path / "mask.csv")
        cio.write_totals(totals, tmp_path / "totals.txt")
        (tmp_path / "rules.edits").write_text(rules)
        code = main([
            "impute", "--data", str(tmp_path / "data.csv"), "--mask", str(tmp_path / "mask.csv"),
            "--edits", str(tmp_path / "rules.edits"), "--totals", str(tmp_path / "totals.txt"),
            "--method", "mcmc", "--iterations", iterations, "--seed", "5", "--out", str(tmp_path / "o.csv"),
        ])
        assert code == 0
        assert cio.read_dataset(tmp_path / "o.csv").values.tobytes() == data.values.tobytes()
        rows = [json.loads(line) for line in (tmp_path / "o.csv.diag.jsonl").read_text().splitlines()]
        if note is None:
            assert rows and all("iteration" in row for row in rows)
        else:
            assert len(rows) == 1 and list(rows[0]) == ["note"] and note in rows[0]["note"], rows

    def test_impute_bpma_with_nearly_all_cells_pinned(self, tmp_path):
        data, rules, totals = pinned_balance_data(np.random.default_rng(12))
        cio.write_dataset(data, tmp_path / "data.csv", missing_from_mask=True)
        cio.write_totals(totals, tmp_path / "totals.txt")
        (tmp_path / "rules.edits").write_text(rules)
        code = main([
            "impute", "--data", str(tmp_path / "data.csv"),
            "--edits", str(tmp_path / "rules.edits"),
            "--totals", str(tmp_path / "totals.txt"),
            "--method", "bpma", "--out", str(tmp_path / "out.csv"),
        ])
        assert code == 0

    def test_data_error_exit_code(self, tmp_path):
        small_files(tmp_path, np.random.default_rng(4))
        bad = tmp_path / "bad.csv"
        bad.write_text("x1,x2\n1,zzz\n")
        code = main([
            "impute", "--data", str(bad),
            "--edits", str(tmp_path / "rules.edits"),
            "--method", "upma", "--out", str(tmp_path / "o.csv"),
        ])
        assert code == 2

    def test_infeasible_exit_code(self, tmp_path):
        # Observed record violating the edits: detected up front.
        (tmp_path / "rules.edits").write_text(EDITS)
        bad = tmp_path / "bad.csv"
        bad.write_text("x1,x2,x3\n1,5,6\n2,NA,6\n12,2,14\n9,1,10\n")
        code = main([
            "impute", "--data", str(bad),
            "--edits", str(tmp_path / "rules.edits"),
            "--method", "upma", "--out", str(tmp_path / "o.csv"),
        ])
        assert code == 3

    @pytest.mark.parametrize("scale", [[], ["--log-scale"]])
    def test_unreachable_total_exit_code(self, tmp_path, capsys, scale):
        # x1's total lies 100 below its observed sum, so no nonnegative (and
        # no positive log-scale) imputation reaches it: exit 3 on both scales.
        small_files(tmp_path, np.random.default_rng(8))
        data = cio.read_dataset(tmp_path / "data.csv")
        totals = cio.read_totals(tmp_path / "totals.txt")
        totals["x1"] = float(np.nansum(data.values[:, 0])) - 100.0
        cio.write_totals(totals, tmp_path / "totals.txt")
        code = main([
            "impute", "--data", str(tmp_path / "data.csv"),
            "--edits", str(tmp_path / "rules.edits"), "--totals", str(tmp_path / "totals.txt"),
            "--method", "bpma", *scale, "--out", str(tmp_path / "o.csv"),
        ])
        assert code == 3
        assert "variable 'x1'" in capsys.readouterr().err

    def test_inconsistent_chain_input_exit_code(self, tmp_path, capsys):
        # A complete file whose record 5 breaks x1 + x2 = x3 (edit 0): the
        # chain names the record and the edit before it runs.
        small_files(tmp_path, np.random.default_rng(5))
        truth = cio.read_dataset(tmp_path / "truth.csv")
        truth.values[5, 2] += 1.0
        cio.write_dataset(truth, tmp_path / "bad.csv")
        code = main([
            "impute", "--data", str(tmp_path / "bad.csv"), "--mask", str(tmp_path / "mask.csv"),
            "--edits", str(tmp_path / "rules.edits"), "--totals", str(tmp_path / "totals.txt"),
            "--method", "mcmc", "--iterations", "50", "--out", str(tmp_path / "o.csv"),
        ])
        assert code == 3
        assert "record 5 violates edit 0" in capsys.readouterr().err

    def test_simulate_writes_all_artifacts(self, tmp_path):
        cfg = write(
            tmp_path, "study.cfg",
            "population_size = 400\nsample_size = 80\nreplications = 1\nseed = 9\n",
        )
        out = tmp_path / "study"
        code = main(["simulate", "--config", cfg, "--out", str(out)])
        assert code == 0
        for name in ("population.csv", "sample.csv", "masked.csv", "mask.csv", "totals.txt"):
            assert (out / name).exists()
        sample = cio.read_dataset(out / "sample.csv")
        assert sample.n_records == 80

    def test_none_is_accepted_only_for_the_chain_length(self, tmp_path, capsys):
        cfg = write(tmp_path, "ok.cfg", "mcmc_iterations = none\npopulation_size = 4000\n")
        config = _study_config(cfg)
        assert config.mcmc_iterations is None and config.population_size == 4000
        cfg = write(tmp_path, "bad.cfg", "population_size = none\n")
        code = main(["simulate", "--config", cfg, "--out", str(tmp_path / "out")])
        assert code == 2
        assert "'population_size'" in capsys.readouterr().err

    @pytest.mark.parametrize("setting", ["corr_x1_p", "corr_x2_p"])
    def test_correlations_with_p_are_not_study_settings(self, tmp_path, capsys, setting):
        # The balance edit fixes them; the study reports them as outcomes.
        cfg = write(tmp_path, "study.cfg", f"{setting} = 0.5\npopulation_size = 400\nsample_size = 80\n")
        code = main(["simulate", "--config", cfg, "--out", str(tmp_path / "out")])
        assert code == 2
        assert f"unknown study setting {setting!r}" in capsys.readouterr().err

    def test_seeded_cli_runs_are_byte_identical(self, tmp_path):
        small_files(tmp_path, np.random.default_rng(6))
        outputs = []
        for tag in ("a", "b"):
            code = main([
                "impute", "--data", str(tmp_path / "data.csv"),
                "--edits", str(tmp_path / "rules.edits"),
                "--totals", str(tmp_path / "totals.txt"),
                "--method", "bpmr", "--seed", "11",
                "--out", str(tmp_path / f"{tag}.csv"),
            ])
            assert code == 0
            outputs.append((tmp_path / f"{tag}.csv").read_bytes())
        assert outputs[0] == outputs[1]

    def test_usage_error_on_unknown_method(self, tmp_path, capsys):
        code = main(["impute", "--data", "x", "--edits", "y", "--method", "zzz", "--out", "z"])
        assert code == 1

    def test_log_scale_with_stochastic_method_is_usage_error(self, tmp_path):
        small_files(tmp_path, np.random.default_rng(7))
        code = main([
            "impute", "--data", str(tmp_path / "data.csv"),
            "--edits", str(tmp_path / "rules.edits"),
            "--totals", str(tmp_path / "totals.txt"),
            "--method", "bpmr", "--log-scale",
            "--out", str(tmp_path / "o.csv"),
        ])
        assert code == 1

    def test_log_scale_bpma_calibrates_unequal_weights(self, tmp_path):
        small_files(tmp_path, np.random.default_rng(7))
        data = cio.read_dataset(tmp_path / "data.csv")
        truth = cio.read_dataset(tmp_path / "truth.csv")
        w = np.random.default_rng(8).uniform(0.5, 3.0, size=data.n_records)
        cio.write_dataset(DataMatrix(data.values, data.mask, data.columns, w), tmp_path / "data.csv",
                          missing_from_mask=True)
        totals = {"x1": float(w @ truth.values[:, 0]), "x2": float(w @ truth.values[:, 1])}
        cio.write_totals(totals, tmp_path / "totals.txt")
        code = main([
            "impute", "--data", str(tmp_path / "data.csv"),
            "--edits", str(tmp_path / "rules.edits"),
            "--totals", str(tmp_path / "totals.txt"),
            "--method", "bpma", "--log-scale",
            "--out", str(tmp_path / "o.csv"),
        ])
        assert code == 0
        out = cio.read_dataset(tmp_path / "o.csv")
        assert out.weights.tobytes() == w.tobytes()
        for j, name in enumerate(("x1", "x2")):
            assert float(w @ out.values[:, j]) == pytest.approx(totals[name], rel=1e-8)

    @pytest.mark.parametrize(
        "method, option",
        [(m, "--iterations") for m in ("upma", "bpma", "bpmr")]
        + [(m, "--mask") for m in ("upma", "bpma", "bpmr", "mcmc")]
        + [("mcmc", "--rounds")],
    )
    def test_option_the_method_would_ignore_is_usage_error(self, tmp_path, capsys, method, option):
        # The input has missing cells, so mcmc pre-imputes it and would
        # ignore a mask; the mask file need not exist to be refused.  The
        # complete truth needs no pre-imputation, so mcmc would ignore
        # --rounds there.
        small_files(tmp_path, np.random.default_rng(9))
        args = {
            "--iterations": ["data.csv", "--iterations", "40"],
            "--mask": ["data.csv", "--mask", str(tmp_path / "no-such-mask.csv")],
            "--rounds": ["truth.csv", "--mask", str(tmp_path / "mask.csv"), "--rounds", "3"],
        }[option]
        code = main([
            "impute", "--data", str(tmp_path / args[0]),
            "--edits", str(tmp_path / "rules.edits"),
            "--totals", str(tmp_path / "totals.txt"),
            "--method", method, *args[1:], "--out", str(tmp_path / "o.csv"),
        ])
        assert code == 1
        err = capsys.readouterr().err
        assert "usage error" in err and option in err
        assert not (tmp_path / "o.csv").exists()

    @pytest.mark.parametrize("method", ["upma", "bpma", "bpmr", "mcmc"])
    def test_negative_seed_exits_2_before_reading_data(self, tmp_path, capsys, method):
        # No data file exists: the seed is refused before any input is read.
        small_files(tmp_path, np.random.default_rng(9))
        code = main([
            "impute", "--data", str(tmp_path / "absent.csv"),
            "--edits", str(tmp_path / "rules.edits"),
            "--totals", str(tmp_path / "totals.txt"),
            "--method", method, "--seed", "-3", "--out", str(tmp_path / "o.csv"),
        ])
        assert code == 2
        err = capsys.readouterr().err
        assert "seed must be nonnegative and an integer, got -3" in err and "absent" not in err
        assert not (tmp_path / "o.csv").exists()

    def test_stray_totals_column_is_data_error(self, tmp_path):
        small_files(tmp_path, np.random.default_rng(8))
        (tmp_path / "totals.txt").write_text("x1 = 100\nnot_a_column = 5\n")
        code = main([
            "impute", "--data", str(tmp_path / "data.csv"),
            "--edits", str(tmp_path / "rules.edits"),
            "--totals", str(tmp_path / "totals.txt"),
            "--method", "bpma", "--out", str(tmp_path / "o.csv"),
        ])
        assert code == 2


FIT_KEYS = ["intercept", "slopes", "residual_variance", "n_obs"]
CALIBRATED = ["missing_intercept", "missing_sum_target"]
ADJUSTED = ["max_abs", "weighted_sum", "lambda", "at_lower", "at_upper"]
CHAIN_VARIABLE_KEYS = ["mean", "std", "accepted", "fallbacks", "moved", "pinned", "mean_abs_move", "exact_fit"]


def layout(row):
    """A diagnostics row's keys in order, each with the keys of its nested
    object (``None`` where the value is not an object)."""
    return [(key, list(value) if isinstance(value, dict) else None) for key, value in row.items()]


def impute_layout(fit_extra, adjustment, residuals=None):
    return [
        ("round", None), ("variable", None), ("n_missing", None), ("predictors", None),
        ("dropped_predictors", None), ("fit", FIT_KEYS + fit_extra),
        ("intervals", ["count", "degenerate", "bounded", "unbounded", "patterns"]),
        ("adjustment", adjustment), ("residuals", residuals),
    ]


SKIPPED_LAYOUT = [
    ("round", None), ("variable", None), ("n_missing", None), ("predictors", None),
    ("dropped_predictors", None), ("fit", None),
    ("intervals", ["count", "degenerate", "bounded", "unbounded", "patterns"]),
    ("adjustment", ["skipped"]), ("residuals", None),
]

IMPUTE_LAYOUTS = {
    "upma": (["--method", "upma"], impute_layout([], ["clipped"])),
    "bpma": (["--method", "bpma"], impute_layout(CALIBRATED, ADJUSTED)),
    "bpmr": (
        ["--method", "bpmr"],
        impute_layout(CALIBRATED, ["max_abs", "weighted_sum"], ["attempts", "fallbacks", "lambda", "at_lower", "at_upper"]),
    ),
    "log-upma": (["--method", "upma", "--log-scale"], impute_layout(["scale"], ["clipped"])),
    "log-bpma": (["--method", "bpma", "--log-scale"], impute_layout(["scale", "log_correction"], ADJUSTED)),
}


def check_impute_rows(rows, fitted):
    """x2 is missing only where x1 is, so round 1 fits x2; the balance then
    forces every cell left, and each later step writes its points and the
    skipped row."""
    assert layout(rows[0]) == fitted
    for row in rows[1:]:
        assert layout(row) == SKIPPED_LAYOUT
        assert row["predictors"] == row["dropped_predictors"] == []
        assert row["adjustment"] == {"skipped": "all points"}
        assert row["intervals"]["degenerate"] == row["intervals"]["count"] == row["n_missing"]


def diagnostics_rows(tmp_path, flags):
    small_files(tmp_path, np.random.default_rng(2))
    code = main([
        "impute", "--data", str(tmp_path / "data.csv"),
        "--edits", str(tmp_path / "rules.edits"),
        "--totals", str(tmp_path / "totals.txt"),
        "--seed", "3", "--out", str(tmp_path / "out.csv"), *flags,
    ])
    assert code == 0
    return [json.loads(line) for line in (tmp_path / "out.csv.diag.jsonl").read_text().splitlines()]


class TestDiagnosticsSchema:
    @pytest.mark.parametrize("kind", sorted(IMPUTE_LAYOUTS))
    def test_impute_rows(self, tmp_path, kind):
        flags, expected = IMPUTE_LAYOUTS[kind]
        rows = diagnostics_rows(tmp_path, flags)
        assert [(row["round"], row["variable"]) for row in rows] == [(1, "x2"), (1, "x1"), (2, "x2"), (2, "x1")]
        check_impute_rows(rows, expected)

    def test_mcmc_rows(self, tmp_path):
        rows = diagnostics_rows(tmp_path, ["--method", "mcmc", "--iterations", "40"])
        note, pre, chain = rows[0], rows[1:5], rows[5:]
        assert list(note) == ["note"]
        check_impute_rows(pre, IMPUTE_LAYOUTS["bpma"][1])
        assert len(chain) >= 2
        checkpoint = [
            ("iteration", None), ("per_variable", ["x1", "x2"]), ("accepted", None),
            ("fallbacks", None), ("pair_systems", ["compiled", "hits"]),
        ]
        assert layout(chain[0]) == checkpoint + [("predictors", ["x1", "x2"])]
        for k, row in enumerate(chain):
            if k:
                assert layout(row) == checkpoint
            for entry in row["per_variable"].values():
                assert list(entry) == CHAIN_VARIABLE_KEYS + ([] if k == 0 else ["ks_vs_prev"])
                assert entry["exact_fit"] is False  # P is fully observed: no model is exact
