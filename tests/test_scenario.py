"""Case-study driver: classification, savings, aggregation, CSV output."""
import numpy as np
import pytest

import gridhedge as gh
from gridhedge.errors import InsufficientPaths
from gridhedge.scenario import derive_seed, format_case, parse_case


def make_config(demo_grid, **overrides):
    base = dict(
        grid=demo_grid,
        initial_kw=np.array([20.0, 25.0]),
        horizon_hours=5.0,
        rebalance_steps=5,
        n_paths=1_500,
        seed=42,
        case_filter=("ge", "lt"),
        n_resamples=800,
    )
    base.update(overrides)
    return gh.ScenarioConfig(**base)


class TestClassification:
    def test_examples(self):
        d = [20.0, 25.0]
        assert gh.classify_terminal([22.0, 26.0], d) == ("ge", "ge")
        assert gh.classify_terminal([22.0, 24.0], d) == ("ge", "lt")
        assert gh.classify_terminal([19.0, 24.0], d) == ("lt", "lt")

    def test_boundary_counts_as_surplus(self):
        assert gh.classify_terminal([20.0, 25.0], [20.0, 25.0]) == ("ge", "ge")

    def test_accepts_full_path(self):
        path = np.array([[20.0, 25.0], [21.0, 24.0], [22.0, 26.0]])
        assert gh.classify_terminal(path, [20.0, 25.0]) == ("ge", "ge")

    def test_label_round_trip(self):
        assert parse_case("ge, lt") == ("ge", "lt")
        assert format_case(("ge", "lt")) == "ge,lt"
        with pytest.raises(ValueError):
            parse_case("ge, up")


class TestBatterySavings:
    def test_equal_series_zero(self):
        series, overall = gh.battery_savings([3.0, 2.0, 1.0], [3.0, 2.0, 1.0])
        assert np.allclose(series, 0.0) and overall == 0.0

    def test_pointwise_formula_and_overall_mean(self):
        series, overall = gh.battery_savings([1.0, 1.0], [2.0, 4.0])
        assert np.allclose(series, [50.0, 75.0])
        assert overall == pytest.approx(62.5)

    def test_zero_denominator_reports_zero(self):
        series, overall = gh.battery_savings([0.0, 1.0], [0.0, 2.0])
        assert series[0] == 0.0 and series[1] == 50.0
        assert overall == pytest.approx(25.0)


class TestDeriveSeed:
    def test_deterministic_and_distinct(self):
        assert derive_seed(42, "paths", 0) == derive_seed(42, "paths", 0)
        assert derive_seed(42, "paths", 0) != derive_seed(42, "paths", 1)
        assert derive_seed(42, "paths", 0) != derive_seed(43, "paths", 0)
        assert derive_seed(42, "paths", 0) != derive_seed(42, "bootstrap", 0)


class TestRunCaseStudy:
    def test_time_zero_is_seed_independent(self, demo_grid):
        runs = [
            gh.run_case_study(make_config(demo_grid, seed=seed, n_paths=300,
                                          n_resamples=150))
            for seed in (1, 2)
        ]
        for name in ("b_tes", "b_ces", "v_tes", "v_ces", "savings_pct"):
            a = runs[0].metrics[name]
            b = runs[1].metrics[name]
            assert a.mean[0] == pytest.approx(b.mean[0], abs=1e-12)
        # deterministic quantities have degenerate intervals at t=0
        assert runs[0].metrics["b_tes"].lo[0] == runs[0].metrics["b_tes"].hi[0]

    def test_time_zero_pooling_never_needs_more_battery(self, demo_grid):
        result = gh.run_case_study(make_config(demo_grid, n_paths=200, n_resamples=150))
        assert result.metrics["b_tes"].mean[0] <= result.metrics["b_ces"].mean[0]
        assert result.metrics["savings_pct"].mean[0] >= 0.0

    def test_case1_terminal_state(self, demo_grid):
        result = gh.run_case_study(
            make_config(demo_grid, case_filter=("ge", "ge"), n_paths=400,
                        n_resamples=150)
        )
        # every surplus-surplus path ends with no per-grid battery and both
        # portfolios worthless
        assert result.metrics["b_ces"].mean[-1] == 0.0
        assert result.metrics["v_ces"].mean[-1] == 0.0
        assert result.metrics["v_tes"].mean[-1] == 0.0

    def test_case2_terminal_ces_battery_is_demand(self, demo_grid):
        result = gh.run_case_study(
            make_config(demo_grid, case_filter=("ge", "lt"), n_paths=400,
                        n_resamples=150)
        )
        assert result.metrics["b_ces"].mean[-1] == pytest.approx(25.0, abs=1e-9)

    def test_ci_halfwidth_shrinks_with_paths(self, demo_grid):
        widths = []
        for n_paths in (250, 2_500):
            result = gh.run_case_study(
                make_config(demo_grid, n_paths=n_paths, n_resamples=600)
            )
            ms = result.metrics["b_tes"]
            widths.append(np.mean(ms.hi[1:] - ms.lo[1:]))
        ratio = widths[0] / widths[1]
        assert 1.8 < ratio < 5.5  # ~sqrt(10) with bootstrap noise

    def test_overall_savings_ci_brackets_point(self, demo_grid):
        result = gh.run_case_study(make_config(demo_grid, n_paths=500, n_resamples=400))
        _, overall = gh.battery_savings(
            result.metrics["b_tes"].mean, result.metrics["b_ces"].mean
        )
        assert result.overall_savings == overall
        assert result.overall_savings_lo < result.overall_savings < result.overall_savings_hi

    def test_counts_cover_all_cases(self, demo_grid):
        result = gh.run_case_study(make_config(demo_grid, n_paths=500, n_resamples=150))
        assert sum(result.case_counts.values()) >= 500
        assert set(result.case_counts) <= {"ge,ge", "ge,lt", "lt,ge", "lt,lt"}

    def test_insufficient_paths(self, demo_grid):
        config = make_config(
            demo_grid,
            case_filter=("lt", "lt"),
            initial_kw=np.array([2000.0, 2500.0]),  # deficit cannot happen
            n_paths=100,
            max_simulated_paths=40_000,
        )
        with pytest.raises(InsufficientPaths, match="lt,lt"):
            gh.run_case_study(config)

    def test_unfiltered_run(self, demo_grid):
        result = gh.run_case_study(
            make_config(demo_grid, case_filter=None, n_paths=250, n_resamples=150)
        )
        assert result.n_paths == 250
        assert result.case is None


class TestResultsCsv:
    def test_format_and_determinism(self, demo_grid, tmp_path):
        config = make_config(demo_grid, n_paths=200, n_resamples=150)
        out1 = tmp_path / "a.csv"
        out2 = tmp_path / "b.csv"
        gh.write_results_csv(gh.run_case_study(config), out1)
        gh.write_results_csv(gh.run_case_study(config), out2)
        assert out1.read_bytes() == out2.read_bytes()
        lines = out1.read_text().splitlines()
        assert lines[0] == "t_hours,metric,case,mean,ci_lo,ci_hi"
        # 6 times x (5 metrics + 2 grids x 2 pg rows)
        assert len(lines) == 1 + 6 * (5 + 4)
        assert any('"ge,lt"' in line and "savings_pct" in line for line in lines)
