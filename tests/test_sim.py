import numpy as np
import pytest

from calimp.edits import violation_matrix
from calimp.sim import (
    StudyConfig,
    apply_mcar,
    draw_sample,
    generate_population,
    run_study,
    study_edits,
)


class TestGeneratePopulation:
    def test_default_scale_moments_within_two_percent(self):
        config = StudyConfig(population_size=20_000)
        data, totals = generate_population(config, np.random.default_rng(0))
        x1, x2, p = (data.values[:, j] for j in range(3))
        assert data.n_records == 20_000
        assert abs(x1.mean() / config.mean_x1 - 1) < 0.02
        assert abs(x2.mean() / config.mean_x2 - 1) < 0.02
        assert abs(x1.std() / config.std_x1 - 1) < 0.02
        assert abs(x2.std() / config.std_x2 - 1) < 0.02
        corr = float(np.corrcoef(x1, x2)[0, 1])
        assert abs(corr - config.corr_x1_x2) < 0.02
        assert totals["x1"] == pytest.approx(float(x1.sum()))

    def test_every_row_satisfies_the_edits(self):
        config = StudyConfig(population_size=100, sample_size=50)
        data, _ = generate_population(config, np.random.default_rng(1))
        assert not violation_matrix(study_edits(), data.values, data.columns).any()

    def test_balance_edit_is_exact(self):
        config = StudyConfig(population_size=500, sample_size=100)
        data, _ = generate_population(config, np.random.default_rng(2))
        assert np.array_equal(data.values[:, 2], data.values[:, 0] + data.values[:, 1])

    def test_deterministic_given_seed(self):
        config = StudyConfig(population_size=1000, sample_size=100)
        a, _ = generate_population(config, np.random.default_rng(3))
        b, _ = generate_population(config, np.random.default_rng(3))
        assert a.values.tobytes() == b.values.tobytes()

    def test_incompatible_targets_rejected(self):
        from calimp.errors import CalimpError

        with pytest.raises(CalimpError):
            # mean_x1 < 2*mean_x2 leaves no slack for the ratio edit
            generate_population(
                StudyConfig(population_size=100, sample_size=50, mean_x1=100.0, mean_x2=991.0),
                np.random.default_rng(0),
            )


class TestApplyMcar:
    def test_stated_counts_at_r_100(self):
        config = StudyConfig(population_size=100, sample_size=50)
        data, _ = generate_population(config, np.random.default_rng(4))
        masked = apply_mcar(data, config, np.random.default_rng(5))
        j1 = masked.column_index("x1")
        j2 = masked.column_index("x2")
        jp = masked.column_index("P")
        assert masked.mask[:, j1].sum() == 20
        first = np.flatnonzero(masked.mask[:, j1])
        both = masked.mask[first, j2].sum()
        assert both == 10
        extra = masked.mask[:, j2].sum() - both
        assert extra == 8  # 10% of the 80 rows outside the first draw
        assert masked.mask[:, jp].sum() == 0

    def test_within_rate_is_honoured(self):
        config = StudyConfig(population_size=100, sample_size=50, rate_x2_within=0.25)
        data, _ = generate_population(config, np.random.default_rng(4))
        masked = apply_mcar(data, config, np.random.default_rng(5))
        first = np.flatnonzero(masked.mask[:, masked.column_index("x1")])
        assert first.size == 20
        assert masked.mask[first, masked.column_index("x2")].sum() == 5

    def test_zero_rates_leave_mask_empty(self):
        config = StudyConfig(population_size=60, sample_size=30, rate_x1=0.0, rate_x2_extra=0.0)
        data, _ = generate_population(config, np.random.default_rng(6))
        masked = apply_mcar(data, config, np.random.default_rng(7))
        assert not masked.mask.any()

    def test_mask_deterministic_given_seed(self):
        config = StudyConfig(population_size=200, sample_size=100)
        data, _ = generate_population(config, np.random.default_rng(8))
        m1 = apply_mcar(data, config, np.random.default_rng(9))
        m2 = apply_mcar(data, config, np.random.default_rng(9))
        assert np.array_equal(m1.mask, m2.mask)


class TestDrawSample:
    def test_same_draws_as_sampling_then_masking(self):
        config = StudyConfig(population_size=300, sample_size=60)
        population, _ = generate_population(config, np.random.default_rng(1))
        truth, masked, totals = draw_sample(population, config, np.random.default_rng(2))
        rng = np.random.default_rng(2)
        idx = rng.choice(population.n_records, size=config.sample_size, replace=False)
        assert np.array_equal(truth.values, population.values[idx])
        expected = apply_mcar(truth, config, rng)
        assert np.array_equal(masked.mask, expected.mask)
        assert np.array_equal(masked.values, expected.values, equal_nan=True)
        assert totals == {
            "x1": float(population.values[idx, 0].sum()),
            "x2": float(population.values[idx, 1].sum()),
        }


class TestRunStudy:
    def test_small_study_runs_and_calibrates(self):
        config = StudyConfig(
            population_size=2_000,
            sample_size=300,
            replications=2,
            methods=("upma", "bpma", "bpmr", "mcmc"),
            mcmc_iterations=300,
            seed=123,
        )
        report = run_study(config)
        assert set(report.moments) == {"original", "upma", "bpma", "bpmr", "mcmc"}
        for method in ("bpma", "bpmr", "mcmc"):
            assert report.moments[method]["mean_x1"] == pytest.approx(
                report.moments["original"]["mean_x1"], rel=1e-6
            )
            assert report.moments[method]["mean_x2"] == pytest.approx(
                report.moments["original"]["mean_x2"], rel=1e-6
            )
        for method, per_var in report.metric_table.items():
            for var in ("x1", "x2"):
                assert per_var[var]["d_l1"] >= 0
        text = report.summary()
        assert "bpmr" in text and "d_l1" in text

    def test_study_deterministic_given_seed(self):
        config = StudyConfig(
            population_size=1_000,
            sample_size=200,
            replications=1,
            methods=("bpma", "bpmr"),
            seed=7,
        )
        a = run_study(config)
        b = run_study(config)
        assert a.moments == b.moments
        assert a.metric_table == b.metric_table

    def test_nothing_missing_flags_metrics(self):
        config = StudyConfig(
            population_size=400,
            sample_size=100,
            replications=1,
            rate_x1=0.0,
            rate_x2_extra=0.0,
            methods=("bpma",),
            seed=1,
        )
        report = run_study(config)
        assert np.isnan(report.metric_table["bpma"]["x1"]["d_l1"])
        assert report.moments["bpma"]["mean_x1"] == report.moments["original"]["mean_x1"]

    def test_config_validation(self):
        with pytest.raises(ValueError):
            StudyConfig(rate_x1=1.5)
        with pytest.raises(ValueError):
            StudyConfig(sample_size=100, population_size=50)
        with pytest.raises(ValueError):
            StudyConfig(replications=0)
        with pytest.raises(ValueError):
            StudyConfig(methods=("nope",))
