"""End-to-end CLI behavior through subprocess invocations and in-process main()."""
import math
import os
import pkgutil
import re
import shlex
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import gridhedge as gh
from gridhedge import cli, errors
from gridhedge.cli import EXIT_CALIBRATION
from gridhedge.config import load_scenario_config

DEMO_CFG = """\
mu              = 0.006, 0.005
sigma           = 0.03, 0.04
correlation     = 0.6
demand_kw       = 20, 25
initial_kw      = 20, 25
battery_unit_kw = 1
horizon_hours   = 5
rebalance_steps = 5
n_paths         = 300
seed            = 42
n_resamples     = 200
max_simulated_paths = 40000
"""

THREE_GRID_CFG = (
    DEMO_CFG.replace("0.006, 0.005", "0.006, 0.005, 0.004")
    .replace("0.03, 0.04", "0.03, 0.04, 0.05")
    .replace("20, 25", "20, 25, 15")
)

# child processes import the gridhedge under test, whether installed or not,
# and buffer stdout as they would by default, so output that cli.run failed
# to flush would be lost
CHILD_ENV = {
    **{key: value for key, value in os.environ.items() if key != "PYTHONUNBUFFERED"},
    "PYTHONPATH": os.pathsep.join(
        filter(None, [str(Path(gh.__file__).parents[1]), os.environ.get("PYTHONPATH")])
    ),
}


def run_main(capsys, *args):
    """cli.main in-process: (exit code, stdout, stderr)."""
    code = cli.main(list(args))
    streams = capsys.readouterr()
    return code, streams.out, streams.err


def parse_kv(stdout):
    out = {}
    for line in stdout.splitlines():
        if "=" in line:
            key, value = line.split("=", 1)
            out[key.strip()] = value.strip()
    return out


@pytest.fixture
def demo_config(tmp_path):
    path = tmp_path / "demo.cfg"
    path.write_text(DEMO_CFG)
    return path


@pytest.fixture
def gbm_csv(tmp_path):
    """Three days of continuous five-minute synthetic GBM data."""
    params = gh.GbmParams(0.007, 0.027)
    n_steps = 3 * 24 * 12
    ens = gh.simulate_paths(
        [params], gh.CorrelationMatrix.identity(1), np.array([1200.0]),
        horizon=n_steps / 12, n_steps=n_steps, n_paths=1, seed=77,
    )
    values = ens[0, :, 0]
    rows = ["timestamp,power_kw"]
    minutes = 0
    for value in values:
        day = 1 + minutes // (24 * 60)
        rest = minutes % (24 * 60)
        rows.append(f"2020-06-{day:02d}T{rest // 60:02d}:{rest % 60:02d}:00,{value:.6f}")
        minutes += 5
    path = tmp_path / "wind.csv"
    path.write_text("\n".join(rows) + "\n")
    return path


class TestEstimate:
    def test_round_trip_recovery(self, gbm_csv, capsys):
        code, out, err = run_main(capsys, "estimate", str(gbm_csv))
        assert code == 0, err
        values = parse_kv(out)
        assert float(values["dt_hours"]) == pytest.approx(1 / 12)
        assert float(values["sigma_per_rth"]) == pytest.approx(0.027, rel=0.10)
        assert "chi2_p_value" in values

    def test_window_slicing(self, gbm_csv, capsys):
        code, out, err = run_main(capsys, "estimate", str(gbm_csv), "--window", "10:00-17:00")
        assert code == 0, err
        values = parse_kv(out)
        # 85 in-window samples per day -> 84 returns, three days
        assert int(values["log_returns"]) == 3 * 84
        assert float(values["sigma_per_rth"]) == pytest.approx(0.027, rel=0.25)

    def test_empty_file_exit_2(self, tmp_path, capsys):
        empty = tmp_path / "empty.csv"
        empty.write_text("")
        code, _, err = run_main(capsys, "estimate", str(empty))
        assert code == 2
        assert "no data rows" in err

    def test_interval_mismatch_exit_2(self, gbm_csv, capsys):
        code, _, _ = run_main(capsys, "estimate", str(gbm_csv), "--interval-minutes", "15")
        assert code == 2

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf", "0", "-5"])
    def test_unusable_interval_exit_2(self, gbm_csv, capsys, bad):
        code, out, err = run_main(capsys, "estimate", str(gbm_csv), f"--interval-minutes={bad}")
        assert code == 2
        assert out == ""
        assert err == f"error: --interval-minutes must be finite and > 0, got {float(bad):g}\n"

    def test_too_few_bins_exit_2(self, gbm_csv, capsys):
        code, out, err = run_main(capsys, "estimate", str(gbm_csv), "--bins", "3")
        assert code == 2
        assert out == ""
        assert "n_bins=3" in err

    def test_more_bins_than_log_returns_exit_2(self, gbm_csv, capsys):
        # 85 in-window samples per day -> 84 returns, three days
        window = ("--window", "10:00-17:00")
        code, out, err = run_main(capsys, "estimate", str(gbm_csv), *window, "--bins", "253")
        assert code == 2
        assert out == ""
        assert err == "error: n_bins=253 exceeds the 252 log-returns supplied\n"
        code, out, err = run_main(capsys, "estimate", str(gbm_csv), *window, "--bins", "252")
        assert code == 0, err
        assert parse_kv(out)["chi2_dof"] == "249"

    def test_constant_series_prints_no_fit_test(self, tmp_path, capsys):
        rows = [f"2020-06-01T10:{5 * i:02d}:00,20" for i in range(6)]
        series = tmp_path / "constant.csv"
        series.write_text("timestamp,power_kw\n" + "\n".join(rows) + "\n")
        with pytest.warns(errors.DegenerateVolatilityWarning):
            code, out, err = run_main(capsys, "estimate", str(series))
        assert code == 0, err
        values = parse_kv(out)
        assert values["sigma_per_rth"] == "0"
        assert values["chi2_statistic"] == "n/a (zero volatility)"
        assert "chi2_p_value" not in values

    def test_constant_series_warns_on_one_line(self, tmp_path):
        # the gridhedge command shows a warning as it shows an error, without
        # the source path and line of Python's format or the line of the call
        rows = [f"2020-06-01T10:{5 * i:02d}:00,20" for i in range(4)]
        series = tmp_path / "constant.csv"
        series.write_text("timestamp,power_kw\n" + "\n".join(rows) + "\n")
        proc = subprocess.run(
            [sys.executable, "-m", "gridhedge", "estimate", str(series)],
            capture_output=True, text=True, env=CHILD_ENV,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr == "warning: log-returns are constant; fitted volatility is zero\n"

    def test_window_without_two_log_returns_exit_2(self, gbm_csv, capsys):
        # only the midnight samples lie in the window, and no two are adjacent
        code, out, err = run_main(capsys, "estimate", str(gbm_csv), "--window", "00:00-00:00")
        assert code == 2
        assert out == ""
        assert err == "error: window leaves fewer than 2 log-returns\n"

    @pytest.mark.parametrize("bad", ["nan", "inf"])
    def test_non_finite_power_value_exit_2(self, tmp_path, capsys, bad):
        # the third of five data rows is file line 4
        rows = [f"2020-06-01T10:{5 * i:02d}:00,{bad if i == 2 else 20 + i}" for i in range(5)]
        series = tmp_path / "series.csv"
        series.write_text("timestamp,power_kw\n" + "\n".join(rows) + "\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, _, err = run_main(capsys, "estimate", str(series))
        assert code == 2
        assert err == f"error: row 4: bad power value '{bad}'\n"


class TestAllocate:
    def test_ces_total_battery(self, demo_config, capsys):
        code, out, err = run_main(
            capsys, "allocate", str(demo_config), "--mode", "ces", "--time", "0"
        )
        assert code == 0, err
        values = parse_kv(out)
        spec1 = gh.MicrogridSpec(demand=20.0, gbm=gh.GbmParams(0.006, 0.03))
        spec2 = gh.MicrogridSpec(demand=25.0, gbm=gh.GbmParams(0.005, 0.04))
        want = gh.ces_total_battery([20.0, 25.0], [spec1, spec2], 0.0, 5.0, 1.0)
        assert float(values["total_battery_units"]) == pytest.approx(want, abs=1e-5)

    def test_tes_allocation(self, demo_config, demo_grid, capsys):
        code, out, err = run_main(
            capsys, "allocate", str(demo_config), "--mode", "tes", "--time", "0"
        )
        assert code == 0, err
        values = parse_kv(out)
        model = gh.calibrate_step_model(demo_grid, 1.0)
        _, alloc = gh.dynamic_allocation(
            np.array([20.0, 25.0]), demo_grid.demands, model, 5, None, 1.0
        )
        assert float(values["battery_units"]) == pytest.approx(alloc.b, abs=1e-5)
        assert float(values["a_1"]) == pytest.approx(alloc.a[0], abs=1e-5)
        assert float(values["replication_residual_kw"]) > 0

    def test_oversized_lattice_exit_4(self, tmp_path, capsys):
        config = tmp_path / "deep.cfg"
        config.write_text(THREE_GRID_CFG + "correlation = 0.3\nrebalance_steps = 250\n")
        code, _, err = run_main(capsys, "allocate", str(config), "--mode", "tes")
        assert code == 4
        assert "exceed the node budget" in err
        assert "set rebalance_steps to at most 214," in err

    def test_oversized_lattice_advice_fields_work_when_applied(self, tmp_path, capsys):
        # four grids keep the lattice at the budget small: 56^4 states
        config = tmp_path / "deep.cfg"
        base = (
            THREE_GRID_CFG.replace("0.005, 0.004", "0.005, 0.004, 0.004")
            .replace("0.04, 0.05", "0.04, 0.05, 0.06")
            .replace("25, 15", "25, 15, 10")
            + "correlation = 0.3\n"
        )
        config.write_text(base + "rebalance_steps = 110\n")
        argv = ["allocate", str(config), "--mode", "tes"]
        code, _, err = run_main(capsys, *argv)
        assert code == 4
        with pytest.raises(errors.TreeTooLarge) as refused:
            gh.run_case_study(load_scenario_config(config))
        assert str(refused.value) == err.removeprefix("error: ").rstrip("\n")
        assert (refused.value.key, refused.value.value) == ("rebalance_steps", 55)
        config.write_text(base + f"{refused.value.key} = {refused.value.value}\n")
        code, _, err = run_main(capsys, *argv)
        assert code == 0, err

    def test_correlations_infeasible_as_dt_vanishes_exit_3(self, tmp_path, capsys):
        config = tmp_path / "anti.cfg"
        config.write_text(THREE_GRID_CFG + "correlation = -0.45\n")
        code, _, err = run_main(capsys, "allocate", str(config), "--mode", "tes")
        assert code == EXIT_CALIBRATION
        assert "no moment-matched lattice" in err
        assert "smaller" not in err

    def test_step_count_advice_works_when_applied(self, tmp_path, capsys):
        # refused at 5 and 10 steps; 14 is the fewest that calibrate
        config = tmp_path / "fine.cfg"
        base = DEMO_CFG.replace("0.03, 0.04", "0.3, 0.04") + "correlation = -0.9\n"
        commands = (
            ["allocate", str(config), "--mode", "tes"],
            ["simulate", str(config), "--out", str(tmp_path / "out")],
        )
        for steps in (5, 10):
            config.write_text(base + f"rebalance_steps = {steps}\n")
            for argv in commands:
                code, _, err = run_main(capsys, *argv)
                assert code == EXIT_CALIBRATION
                advice = re.fullmatch(
                    r"error: branch \d+ probability \S+ outside \[0, 1\]; set rebalance_steps "
                    r"to (\d+) \(dt = \S+ h\), the fewest that calibrate over 5 h\n",
                    err,
                )
                assert advice[1] == "14"
        config.write_text(base + f"rebalance_steps = {advice[1]}\n")
        for argv in commands:
            code, _, err = run_main(capsys, *argv)
            assert code == 0, err

    def test_time_out_of_range_exit_4(self, demo_config, capsys):
        code, _, err = run_main(
            capsys, "allocate", str(demo_config), "--mode", "tes", "--time", "5"
        )
        assert code == 4
        assert "time out of range" in err

    @pytest.mark.parametrize("steps, time, advised", [
        (5, "2.5", ["2", "3"]),
        (5, "4.5", ["4"]),
        (3, "2", ["1.6666666666666667", "3.3333333333333335"]),
        (7, "0.1", ["0", "0.7142857142857143"]),
        # within the grid tolerance of the horizon, where no step is left
        (5, "4.9999999999", ["4"]),
        # the float just below the horizon divides to exactly 39 steps
        (39, "4.999999999999999", ["4.871794871794871"]),
    ])
    def test_off_grid_time_advice_works(self, tmp_path, capsys, steps, time, advised):
        config = tmp_path / "steps.cfg"
        config.write_text(DEMO_CFG + f"rebalance_steps = {steps}\n")
        code, _, err = run_main(capsys, "allocate", str(config), "--mode", "tes", "--time", time)
        assert code == 4
        assert f"time out of range: tes allocation rebalances every {5 / steps:g} h; " in err
        suggested = re.search(r"; use --time (.+)$", err.strip())[1].split(" or ")
        assert suggested == advised
        for valid in suggested:
            code, _, err = run_main(
                capsys, "allocate", str(config), "--mode", "tes", "--time", valid
            )
            assert code == 0, err


class TestSimulate:
    def test_minimal_run(self, demo_config, tmp_path, capsys):
        out = tmp_path / "out1"
        code, stdout, err = run_main(
            capsys, "simulate", str(demo_config), "--paths", "1", "--out", str(out)
        )
        assert code == 0, err
        assert (out / "results.csv").exists()
        assert (out / "manifest.txt").exists()
        lines = stdout.splitlines()
        assert lines[2].startswith("overall_savings_pct = ")
        assert lines[3].startswith("overall_savings_ci_lo_pct = ")
        assert lines[4].startswith("overall_savings_ci_hi_pct = ")

    def test_seed_reproducibility(self, demo_config, tmp_path, capsys):
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        for out in (out1, out2):
            code, _, err = run_main(
                capsys, "simulate", str(demo_config), "--case-filter", "ge,lt",
                "--seed", "7", "--out", str(out),
            )
            assert code == 0, err
        assert (out1 / "results.csv").read_bytes() == (out2 / "results.csv").read_bytes()
        manifest = (out1 / "manifest.txt").read_text()
        assert "config.case_filter = ge,lt" in manifest
        assert "output = results.csv" in manifest

    def test_perfectly_correlated_grids_simulate(self, tmp_path, capsys):
        # both grids share one driver: the factor's second pivot is zero
        config = tmp_path / "shared.cfg"
        config.write_text(DEMO_CFG.replace("0.03, 0.04", "0.03, 0.03") + "correlation = 1\n")
        out = tmp_path / "out"
        code, _, err = run_main(capsys, "simulate", str(config), "--out", str(out))
        assert code == 0, err
        assert (out / "results.csv").exists()

    def test_anti_correlated_grids_stop_at_the_lattice_exit_3(self, tmp_path, capsys):
        # the paths factor (one driver negated), but the two-point lattice
        # admits rho = -1 at no step size, so the calibration message stands
        config = tmp_path / "negated.cfg"
        config.write_text(DEMO_CFG.replace("0.03, 0.04", "0.03, 0.03") + "correlation = -1\n")
        out = tmp_path / "out"
        code, _, err = run_main(capsys, "simulate", str(config), "--out", str(out))
        assert code == EXIT_CALIBRATION
        assert "no moment-matched lattice" in err
        assert not out.exists()

    def test_manifest_records_the_parsed_command(self, demo_config, tmp_path, capsys):
        argv = ["simulate", str(demo_config), "--paths", "1", "--out", str(tmp_path / "out dir")]
        code, _, err = run_main(capsys, *argv)
        assert code == 0, err
        first = (tmp_path / "out dir" / "manifest.txt").read_text().splitlines()[0]
        assert first == "command = gridhedge " + shlex.join(argv)
        assert shlex.split(first.removeprefix("command = ")) == ["gridhedge", *argv]

    def test_empty_bucket_exit_5(self, tmp_path, capsys):
        config = tmp_path / "far.cfg"
        config.write_text(
            DEMO_CFG.replace("initial_kw      = 20, 25", "initial_kw = 2000, 2500")
        )
        code, _, err = run_main(
            capsys, "simulate", str(config), "--case-filter", "lt,lt",
            "--out", str(tmp_path / "out"),
        )
        assert code == 5
        assert "lt,lt" in err
        assert "no max_simulated_paths can be estimated" in err

    def test_empty_bucket_advice_works_when_applied(self, tmp_path, capsys):
        config = tmp_path / "capped.cfg"
        argv = ["simulate", str(config), "--case-filter", "ge,lt", "--out", str(tmp_path / "out")]
        config.write_text(DEMO_CFG + "max_simulated_paths = 300\n")
        code, _, err = run_main(capsys, *argv)
        assert code == 5
        assert err.startswith("error: case filter 'ge,lt' matched only ")
        cap = re.search(r"raise max_simulated_paths to (\d+) ", err)[1]
        # block seeds depend only on the block index, so this rerun is deterministic
        config.write_text(DEMO_CFG + f"max_simulated_paths = {cap}\n")
        code, _, err = run_main(capsys, *argv)
        assert code == 0, err

    def test_empty_bucket_advice_fields_work_when_applied(self, tmp_path, capsys):
        config = tmp_path / "capped.cfg"
        argv = ["simulate", str(config), "--case-filter", "ge,lt", "--out", str(tmp_path / "out")]
        config.write_text(DEMO_CFG + "max_simulated_paths = 300\ncase_filter = ge,lt\n")
        code, _, err = run_main(capsys, *argv)
        assert code == 5
        with pytest.raises(errors.InsufficientPaths) as refused:
            gh.run_case_study(load_scenario_config(config))
        assert str(refused.value) == err.removeprefix("error: ").rstrip("\n")
        assert refused.value.key == "max_simulated_paths"
        config.write_text(DEMO_CFG + f"{refused.value.key} = {refused.value.value}\n")
        code, _, err = run_main(capsys, *argv)
        assert code == 0, err

    def test_empty_bucket_without_a_match_advises_no_value(self, tmp_path):
        config = tmp_path / "far.cfg"
        config.write_text(
            DEMO_CFG.replace("initial_kw      = 20, 25", "initial_kw = 2000, 2500")
            + "case_filter = lt,lt\n"
        )
        with pytest.raises(errors.InsufficientPaths, match="no max_simulated_paths") as refused:
            gh.run_case_study(load_scenario_config(config))
        assert (refused.value.key, refused.value.value) == ("max_simulated_paths", None)

    def test_non_finite_demand_exit_2(self, tmp_path, capsys):
        config = tmp_path / "nan.cfg"
        config.write_text(DEMO_CFG + "demand_kw = nan, 25\n")
        out = tmp_path / "out"
        code, _, err = run_main(capsys, "simulate", str(config), "--out", str(out))
        assert code == 2
        assert "demand_kw must be finite" in err
        assert not (out / "results.csv").exists()

    @staticmethod
    def simulate_refused(tmp_path, capsys, text, case):
        """The one error line of a 50-path simulate filtered to case, exit 2."""
        config = tmp_path / "fast.cfg"
        config.write_text(text)
        out = tmp_path / "out"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, _, err = run_main(
                capsys, "simulate", str(config), "--paths", "50", "--case-filter", case,
                "--out", str(out),
            )
        assert code == 2
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not out.exists()
        return err

    def test_overflowing_paths_named_exit_2(self, tmp_path, capsys):
        # exp(1e5 per hour) overflows the median path, before any path is
        # simulated, bootstrapped or warned about; the refusal names the
        # keys to lower, and not sigma, whose lowering raises the median
        err = self.simulate_refused(
            tmp_path, capsys, DEMO_CFG.replace("0.006, 0.005", "1e5, 1e-5"), "ge,ge"
        )
        assert err.endswith("overflow; lower mu, horizon_hours or initial_kw\n"), err

    def test_overflowing_block_names_sigma_exit_2(self, tmp_path, capsys):
        # the median stays at 20 kW, but sigma * sqrt(50 h) = 212 carries the
        # upper paths of the simulated block past the bound
        err = self.simulate_refused(
            tmp_path, capsys,
            ONE_GRID_CFG + "mu = 450\nsigma = 30\nhorizon_hours = 50\nrebalance_steps = 50\n",
            "ge",
        )
        assert err.startswith("error: simulated generation exceeds "), err
        assert err.endswith("overflow; lower mu, sigma, horizon_hours or initial_kw\n"), err

    @pytest.mark.parametrize("paths", [None, "100"], ids=["config", "paths_option"])
    def test_memory_over_budget_exit_2_before_the_run(self, tmp_path, paths):
        # 2**32 resamples need about 1.5 TiB; the refusal comes before any
        # path is simulated, where it used to end the whole run in a
        # MemoryError from np.tile, exit 1 and a traceback
        config = tmp_path / "huge.cfg"
        config.write_text(DEMO_CFG.replace("n_resamples     = 200", "n_resamples = 4294967296"))
        out = tmp_path / "out"
        argv = ["simulate", str(config), "--out", str(out)]
        if paths is not None:
            argv += ["--paths", paths]
        proc = subprocess.run(
            [sys.executable, "-m", "gridhedge", *argv],
            capture_output=True, text=True, env=CHILD_ENV, timeout=60,
        )
        assert proc.returncode == 2
        assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1
        assert "memory budget" in proc.stderr and "MiB" in proc.stderr
        for key in ("n_paths", "rebalance_steps", "n_resamples (4294967296)"):
            assert key in proc.stderr
        assert not out.exists()

    def test_zero_resamples_exit_2(self, tmp_path, capsys):
        config = tmp_path / "zero.cfg"
        config.write_text(DEMO_CFG + "n_resamples = 0\n")
        out = tmp_path / "out"
        code, _, err = run_main(capsys, "simulate", str(config), "--out", str(out))
        assert code == 2
        assert "n_resamples must be >= 1" in err
        assert not (out / "results.csv").exists()

    @pytest.mark.parametrize("n_resamples", [1, 99])
    def test_resamples_below_the_floor_exit_2(self, tmp_path, capsys, n_resamples):
        # one resample made each interval that resample, and simulate exited
        # 0 with many results.csv means outside their [ci_lo, ci_hi]
        config = tmp_path / "few.cfg"
        config.write_text(DEMO_CFG + f"n_resamples = {n_resamples}\n")
        out = tmp_path / "out"
        code, stdout, err = run_main(
            capsys, "simulate", str(config), "--paths", "50", "--out", str(out)
        )
        assert code == 2
        assert err == (
            f"error: n_resamples must be >= {gh.config.MIN_RESAMPLES} "
            f"for a percentile interval, got {n_resamples}\n"
        )
        assert stdout == ""
        assert not out.exists()

    def test_unknown_config_keys_exit_2(self, tmp_path, capsys):
        config = tmp_path / "typo.cfg"
        config.write_text(DEMO_CFG + "n_resample = 5\ncase_filtr = ge, lt\n")
        out = tmp_path / "out"
        code, _, err = run_main(capsys, "simulate", str(config), "--out", str(out))
        assert code == 2
        assert "config has unknown keys: n_resample, case_filtr" in err
        assert not (out / "results.csv").exists()

    def test_paths_above_cap_exit_2(self, demo_config, tmp_path, capsys):
        out = tmp_path / "out"
        code, _, err = run_main(
            capsys, "simulate", str(demo_config), "--paths", "40001", "--out", str(out)
        )
        assert code == 2
        assert "max_simulated_paths (40000) must be >= n_paths (40001)" in err
        assert not (out / "results.csv").exists()

    @pytest.mark.parametrize("case", ["ge", "ge,lt,ge"])
    def test_case_filter_length_mismatch_exit_2(self, demo_config, tmp_path, case, capsys):
        out = tmp_path / "out"
        code, _, err = run_main(
            capsys, "simulate", str(demo_config), "--case-filter", case, "--out", str(out)
        )
        assert code == 2
        assert "one 'ge' or 'lt' entry per microgrid (2)" in err
        assert not (out / "results.csv").exists()


@pytest.mark.parametrize("command", ["simulate", "allocate"])
def test_missing_config_file_exit_2(tmp_path, command, capsys):
    options = {"simulate": ["--out", str(tmp_path / "out")], "allocate": ["--mode", "ces"]}
    code, _, err = run_main(capsys, command, str(tmp_path / "absent.cfg"), *options[command])
    assert code == 2
    assert err.startswith("error: ")
    assert "absent.cfg" in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("case", ["output_under_a_file", "input_is_a_directory"])
def test_unusable_path_exit_2(tmp_path, demo_config, case, capsys):
    regular = tmp_path / "regular"
    regular.write_text("")
    args = {
        "output_under_a_file": ("simulate", str(demo_config), "--out", str(regular / "out")),
        "input_is_a_directory": ("estimate", str(tmp_path)),
    }
    code, _, err = run_main(capsys, *args[case])
    assert code == 2
    assert err.startswith("error: ")
    assert "Traceback" not in err


# config lines whose value cannot be parsed; the message names the key
UNPARSABLE = {
    "n_paths": "n_paths = 1e4",
    "mu": "mu = 0.006, abc",
    "correlation": "correlation = 1,0.6;0.6",
}


@pytest.mark.parametrize("case", ["n_paths", "mu", "correlation", "window"])
def test_unparsable_value_named_exit_2(tmp_path, gbm_csv, case, capsys):
    if case == "window":
        code, _, err = run_main(capsys, "estimate", str(gbm_csv), "--window", "10:00")
        named = "window must be HH:MM-HH:MM"
    else:
        config = tmp_path / "bad.cfg"
        config.write_text(DEMO_CFG + UNPARSABLE[case] + "\n")
        code, _, err = run_main(capsys, "allocate", str(config), "--mode", "ces")
        named = f"error: config key '{case}':"
    assert code == 2
    assert named in err
    if case == "correlation":
        assert "unequal lengths" in err


def test_window_spanning_midnight_exit_2(gbm_csv, capsys):
    # refused where it is parsed, not later as a window that leaves fewer
    # than 2 log-returns
    code, out, err = run_main(capsys, "estimate", str(gbm_csv), "--window", "17:00-10:00")
    assert code == 2
    assert err == (
        "error: --window 17:00-10:00 starts after it ends; a window cannot span midnight\n"
    )
    assert out == ""


# correlations that no Brownian motion can have, on two and on three grids
NOT_PSD = {
    "two_grid": "correlation = 1,2;2,1\n",
    "three_grid": (
        "mu = 0.006, 0.005, 0.004\nsigma = 0.03, 0.04, 0.05\ncorrelation = -0.6\n"
        "demand_kw = 20, 25, 15\ninitial_kw = 20, 25, 15\n"
    ),
}


@pytest.mark.parametrize(
    "command",
    [("allocate", "--mode", "ces"), ("allocate", "--mode", "tes"), ("simulate", "--out")],
    ids=["ces", "tes", "simulate"],
)
@pytest.mark.parametrize("case", sorted(NOT_PSD))
def test_non_psd_correlation_exit_2(tmp_path, case, command, capsys):
    config = tmp_path / "bad.cfg"
    config.write_text(DEMO_CFG + NOT_PSD[case])
    args = (command[0], str(config), *command[1:])
    if command[0] == "simulate":
        args += (str(tmp_path / "out"),)
    code, _, err = run_main(capsys, *args)
    assert code == 2
    assert "error: config key 'correlation': not positive semi-definite" in err
    assert not (tmp_path / "out").exists()


def test_out_under_a_file_fails_before_the_run(tmp_path, demo_config, capsys, monkeypatch):
    def no_run(config):
        raise AssertionError("run_case_study ran before --out was created")

    monkeypatch.setattr(cli, "run_case_study", no_run)
    regular = tmp_path / "regular"
    regular.write_text("")
    code, _, err = run_main(capsys, "simulate", str(demo_config), "--out", str(regular / "sub"))
    assert code == 2
    assert err.startswith("error: ")


def test_failed_run_removes_the_directories_it_created(tmp_path, demo_config, capsys, monkeypatch):
    def empty_run(config):
        raise errors.InsufficientPaths("no paths")

    monkeypatch.setattr(cli, "run_case_study", empty_run)
    (tmp_path / "kept").mkdir()
    code, _, _ = run_main(capsys, "simulate", str(demo_config), "--out", str(tmp_path / "a" / "b"))
    assert code == 5
    code, _, _ = run_main(capsys, "simulate", str(demo_config), "--out", str(tmp_path / "kept"))
    assert code == 5
    assert sorted(os.listdir(tmp_path)) == ["demo.cfg", "kept"]


# derive_seed keeps 32 bits of the root seed, so a wider seed would alias one
# in range: 4294967338 used to give the bytes of 42, and -1 those of 4294967295
@pytest.mark.parametrize("where", ["config", "option"])
@pytest.mark.parametrize("seed", ["-1", "4294967296"])
def test_seed_outside_32_bits_exit_2(tmp_path, capsys, seed, where):
    config = tmp_path / "seed.cfg"
    config.write_text(DEMO_CFG + (f"seed = {seed}\n" if where == "config" else ""))
    option = ("--seed", seed) if where == "option" else ()
    out = tmp_path / "out"
    code, _, err = run_main(capsys, "simulate", str(config), *option, "--out", str(out))
    assert code == 2
    assert err == f"error: seed must be in [0, 4294967295], got {seed}\n"
    assert not out.exists()


@pytest.mark.parametrize("value", ["nan", "1,nan;nan,1"])
def test_nan_correlation_named_exit_2(tmp_path, capsys, value):
    config = tmp_path / "nan.cfg"
    config.write_text(DEMO_CFG + f"correlation = {value}\n")
    code, _, err = run_main(capsys, "allocate", str(config), "--mode", "ces")
    assert code == 2
    assert err == "error: config key 'correlation': correlation matrix has a NaN entry\n"


# the exit code of every package error, chosen on purpose: a new error class
# fails here until it is classified
EXPECTED_EXIT_CODES = {
    "InfeasibleCalibration": cli.EXIT_CALIBRATION,
    "InsufficientPaths": cli.EXIT_EMPTY,
    "DegenerateVolatility": cli.EXIT_PRECONDITION,
    "TimeOutOfRange": cli.EXIT_PRECONDITION,
    "TreeTooLarge": cli.EXIT_PRECONDITION,
}


def test_every_error_class_has_a_chosen_exit_code():
    classes = {
        name: value
        for name, value in vars(errors).items()
        if isinstance(value, type)
        and issubclass(value, errors.GridHedgeError)
        and value is not errors.GridHedgeError
    }
    got = {
        name: next(code for types, code in cli.EXIT_CODES if issubclass(cls, types))
        for name, cls in classes.items()
    }
    assert got == EXPECTED_EXIT_CODES
    # bad arguments raise ValueError; they and OS errors are input errors
    assert cli.EXIT_CODES[0] == ((ValueError, OSError), cli.EXIT_INPUT)


@pytest.mark.parametrize("line, command, named", [
    # the lattice's residual norm squared these
    ("demand_kw = 20, 1e300", "tes", "demand_kw must be at most 1.34e+154"),
    # the paths' moments squared these; a lower sigma would raise the median
    ("initial_kw = 20, 1e300", "simulate", "lower mu, horizon_hours or initial_kw"),
    # and generation that grows past the square root of the float range
    ("mu = 75, 0.005", "simulate", "simulated generation exceeds 7.74e+152 kW"),
    # the per-grid policy squared sigma
    ("sigma = 0.03, 1e300", "ces", "lower sigma or horizon_hours"),
    # paths that underflow to 0 were divided into the demand
    ("mu = -1e300, 0", "simulate", "underflows to 0; raise mu, or lower sigma"),
    # the median path overflows whatever the seed: refused before the
    # calibration, which advised rebalance_steps 376, a run that then failed
    ("horizon_hours = 1e6", "simulate", "the median simulated generation exceeds 7.74e+152 kW, "
     "where the path moments overflow; lower mu, horizon_hours or initial_kw"),
])
def test_values_that_would_overflow_named_exit_2(tmp_path, capsys, line, command, named):
    config = tmp_path / "extreme.cfg"
    config.write_text(DEMO_CFG + line + "\n")
    argv = {
        "ces": ["allocate", str(config), "--mode", "ces"],
        "tes": ["allocate", str(config), "--mode", "tes"],
        "simulate": ["simulate", str(config), "--out", str(tmp_path / "out")],
    }[command]
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code, _, err = run_main(capsys, *argv)
    assert code == 2
    assert err.startswith("error: ") and err.count("\n") == 1
    assert named in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("horizon", ["1e200", "1e308"])
@pytest.mark.parametrize("command", ["allocate", "simulate"])
def test_overflowing_horizon_exit_3_promptly(tmp_path, command, horizon):
    # a step so long that the lattice's log step overflows used to calibrate,
    # and the lattice then never left its pseudoinverse; simulate now refuses
    # first, with exit 2, the median path that such a horizon overflows
    config = tmp_path / "long.cfg"
    config.write_text(DEMO_CFG.replace("horizon_hours   = 5", f"horizon_hours   = {horizon}"))
    out = tmp_path / "out"
    argv = {
        "allocate": ["allocate", str(config), "--mode", "tes"],
        "simulate": ["simulate", str(config), "--out", str(out)],
    }[command]
    proc = subprocess.run(
        [sys.executable, "-m", "gridhedge", *argv],
        capture_output=True, text=True, env=CHILD_ENV, timeout=10,
    )
    assert proc.returncode == {"allocate": 3, "simulate": 2}[command]
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1
    assert "horizon_hours" in proc.stderr
    assert not out.exists()


ONE_GRID_CFG = (
    DEMO_CFG.replace("0.006, 0.005", "0.006").replace("0.03, 0.04", "0.04")
    .replace("20, 25", "20").replace("0.6", "1")
)


@pytest.mark.parametrize("base, lines, key", [
    # a one-hour step of this sigma overflows the up factor exp(h); the
    # "lower horizon_hours" once given here led to NaN weights
    (DEMO_CFG, "sigma = 0.03, 1e150\n", "sigma"),
    # a one-hour step would calibrate; a 2e7 h step overflows exp(h), and
    # 113 steps of 8.8e5 h do not
    (ONE_GRID_CFG, "horizon_hours = 1e8\n", "rebalance_steps"),
    # no step count the node budget fits calibrates over these horizons
    (DEMO_CFG, "horizon_hours = 1e8\n", "horizon_hours"),
    (DEMO_CFG, "horizon_hours = 1e300\n", "horizon_hours"),
], ids=["sigma", "horizon_hours", "demo_1e8", "demo_1e300"])
def test_overflowing_up_factor_advice_works_when_applied(tmp_path, capsys, base, lines, key):
    config = tmp_path / "overflow.cfg"
    config.write_text(base + lines)
    argv = ["allocate", str(config), "--mode", "tes"]
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code, _, err = run_main(capsys, *argv)
    assert code == EXIT_CALIBRATION
    loaded = load_scenario_config(config)
    with pytest.raises(errors.InfeasibleCalibration) as refused:
        dt = loaded.horizon_hours / loaded.rebalance_steps
        gh.calibrate_step_model(loaded.grid, dt, horizon=loaded.horizon_hours)
    assert err == f"error: {refused.value}\n"
    assert refused.value.key == key
    if key == "sigma":
        # sigma has no value to advise: lowered to the base config's value,
        # the advised key alone mends it
        assert refused.value.value is None and err.endswith("; lower sigma\n")
        applied = next(line for line in base.splitlines() if line.startswith(key))
    else:
        # the advised value, as the message prints it
        assert refused.value.value is not None
        assert f"set {key} to {refused.value.value!r}" in err
        applied = f"{key} = {refused.value.value!r}"
    config.write_text(base + lines + applied + "\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_main(capsys, *argv)
    assert code == 0, err
    values = parse_kv(out)
    assert values and all(math.isfinite(float(v)) for v in values.values()), out


def test_short_commands_run_no_lapack_routine(tmp_path, capsys, monkeypatch, demo_config):
    # the replication is closed form, so no command but validate factors a matrix
    def refuse(*args, **kwargs):
        raise AssertionError("a LAPACK-backed numpy.linalg routine ran")

    for name in ("pinv", "svd", "matrix_rank", "lstsq", "solve", "inv"):
        monkeypatch.setattr(np.linalg, name, refuse)
    code, _, err = run_main(capsys, "allocate", str(demo_config), "--mode", "tes")
    assert code == 0, err
    out = tmp_path / "out"
    code, _, err = run_main(capsys, "simulate", str(demo_config), "--out", str(out),
                            "--paths", "50")
    assert code == 0, err


class TestValidate:
    def test_oracle_suite_passes(self, capsys):
        code, out, err = run_main(capsys, "validate", "--suite", "oracle")
        assert code == 0, out + err
        assert "PASS\tces_closed_form_vs_independent_cdf" in out
        assert "FAIL" not in out

    def test_stats_suite_passes(self, capsys):
        code, out, err = run_main(capsys, "validate", "--suite", "stats")
        assert code == 0, out + err
        assert "PASS\tks_critical_value" in out

    def test_phi_fault_injection_detected(self, capsys):
        code, out, _ = run_main(capsys, "validate", "--suite", "oracle", "--inject-phi-fault")
        assert code == 1
        assert "FAIL\tces_closed_form_vs_independent_cdf" in out

    @pytest.mark.parametrize("suite", ["oracle", "stats", "all"])
    def test_without_scipy_names_the_extra_exit_2(self, suite):
        # scipy is the validate extra; a process that cannot import it gets
        # one error line before any check runs, and no traceback
        code = (
            "import sys\n"
            "sys.modules['scipy'] = None\n"
            f"sys.argv = ['gridhedge', 'validate', '--suite', {suite!r}]\n"
            "from gridhedge.cli import run\n"
            "run()\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, env=CHILD_ENV
        )
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1
        assert "gridhedge[validate]" in proc.stderr


# one config, argument list and exit code per way out of the gridhedge
# command; "{cfg}" and "{out}" stand for the config file and an output directory
ENTRY_POINT_CASES = {
    "success": (DEMO_CFG, ["allocate", "{cfg}", "--mode", "ces"], 0),
    "bad_config_key": (DEMO_CFG + "n_resample = 5\n", ["allocate", "{cfg}", "--mode", "ces"], 2),
    "usage_error": (DEMO_CFG, ["allocate", "{cfg}", "--mode", "cs"], 2),
    "version": (DEMO_CFG, ["--version"], 0),
    "infeasible_calibration": (
        THREE_GRID_CFG + "correlation = -0.45\n", ["allocate", "{cfg}", "--mode", "tes"], 3
    ),
    "tree_too_large": (
        THREE_GRID_CFG + "rebalance_steps = 250\n", ["allocate", "{cfg}", "--mode", "tes"], 4
    ),
    "empty_fleet": (
        DEMO_CFG + "mu =\nsigma =\ndemand_kw =\ninitial_kw =\n",
        ["allocate", "{cfg}", "--mode", "tes"],
        2,
    ),
    "time_snaps_to_horizon": (
        DEMO_CFG, ["allocate", "{cfg}", "--mode", "tes", "--time", "4.9999999999"], 4
    ),
    "insufficient_paths": (
        DEMO_CFG + "initial_kw = 2000, 2500\nmax_simulated_paths = 300\n",
        ["simulate", "{cfg}", "--case-filter", "lt,lt", "--out", "{out}"],
        5,
    ),
}


@pytest.mark.parametrize("case", list(ENTRY_POINT_CASES))
def test_entry_point_matches_main(case, tmp_path, capsys):
    # python -m gridhedge leaves through cli.run, which skips the interpreter's
    # teardown; its exit code, stdout and stderr must still be main's
    text, template, want = ENTRY_POINT_CASES[case]
    config = tmp_path / "case.cfg"
    config.write_text(text)
    argv = [arg.format(cfg=config, out=tmp_path / "out") for arg in template]
    proc = subprocess.run(
        [sys.executable, "-m", "gridhedge", *argv], capture_output=True, text=True, env=CHILD_ENV
    )
    try:
        code = cli.main(argv)
    except SystemExit as stop:  # argparse ends --version and usage errors so
        code = stop.code
    streams = capsys.readouterr()
    assert (proc.returncode, proc.stdout, proc.stderr) == (code, streams.out, streams.err)
    assert code == want
    assert streams.out or streams.err


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full on this platform")
def test_unflushable_output_exit_120(demo_config):
    # stdout is block-buffered, so the write first fails at cli.run's flush:
    # one error line, Python's own code 120, no traceback
    with open("/dev/full", "w") as full:
        proc = subprocess.run(
            [sys.executable, "-m", "gridhedge", "allocate", str(demo_config), "--mode", "ces"],
            stdout=full, stderr=subprocess.PIPE, text=True, env=CHILD_ENV,
        )
    assert proc.returncode == 120
    assert proc.stderr.startswith("error: cannot write output: ")
    assert "Traceback" not in proc.stderr


def test_every_exported_name_resolves():
    # the package imports each name on first use; it must hand out the one
    # object its defining module holds, also through a star import
    namespace = {}
    exec("from gridhedge import *", namespace)
    for name in gh.__all__:
        value = getattr(gh, name)
        assert value is getattr(sys.modules[value.__module__], name), name
        assert namespace[name] is value, name
    assert gh.ScenarioConfig.__module__ == "gridhedge.config"
    with pytest.raises(AttributeError):
        gh.no_such_name  # noqa: B018


# every layer perfbench/traced.py wraps on cli, and a command that runs it
TRACED_LAYERS = {
    "load_scenario_config": ["allocate", "{cfg}", "--mode", "tes"],
    "calibrate_step_model": ["allocate", "{cfg}", "--mode", "tes"],
    "dynamic_allocation": ["allocate", "{cfg}", "--mode", "tes"],
    "ces_allocation": ["allocate", "{cfg}", "--mode", "ces"],
    "load_power_csv": ["estimate", "{csv}"],
    "gbm_mle_from_returns": ["estimate", "{csv}"],
    "chi_square_gof": ["estimate", "{csv}"],
    "run_case_study": ["simulate", "{cfg}", "--paths", "10", "--out", "{out}"],
    "write_results_csv": ["simulate", "{cfg}", "--paths", "10", "--out", "{out}"],
    "write_manifest": ["simulate", "{cfg}", "--paths", "10", "--out", "{out}"],
}


@pytest.mark.parametrize("layer", list(TRACED_LAYERS))
def test_a_wrapped_layer_is_what_runs(layer, demo_config, gbm_csv, tmp_path, capsys, monkeypatch):
    # perfbench/traced.py times a layer by setting a wrapper on cli; a
    # command that imported the layer itself would bypass the wrapper and
    # leave the layer's span empty
    calls = []
    real = getattr(cli, layer)

    def spy(*args, **kwargs):
        calls.append(layer)
        return real(*args, **kwargs)

    monkeypatch.setattr(cli, layer, spy)
    argv = [
        a.format(cfg=demo_config, csv=gbm_csv, out=tmp_path / "out") for a in TRACED_LAYERS[layer]
    ]
    code, _, err = run_main(capsys, *argv)
    assert code == 0, err
    assert calls, f"{layer} ran around the wrapper"


def test_cli_takes_its_layers_from_the_package_exports():
    # cli keeps no table of its own: a layer is the package's export, and any
    # other name, a dunder probe among them, is no attribute of cli
    assert not hasattr(cli, "__path__")
    with pytest.raises(AttributeError, match="^module 'gridhedge.cli' has no attribute"):
        cli.no_such_name  # noqa: B018
    for layer in TRACED_LAYERS:
        assert getattr(cli, layer) is getattr(gh, layer), layer


def test_import_does_not_load_the_validation_suite():
    # only validate needs gridhedge.validate; every other command skips
    # compiling and running it at start-up
    code = "import sys, gridhedge.cli\nassert 'gridhedge.validate' not in sys.modules\n"
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=CHILD_ENV
    )
    assert proc.returncode == 0, proc.stderr


def assert_never_loaded(module, commands, exit_code=0):
    """In one fresh process, import gridhedge.cli, then run each command
    through main, which must end with exit_code; after each step no part of
    module (one name, or a tuple of names) may be loaded."""
    never = (module,) if isinstance(module, str) else tuple(module)
    code = (
        "import sys, gridhedge.cli\n"
        f"never = {never!r}\n"
        f"for argv in [[], *{commands!r}]:\n"
        "    if argv:\n"
        "        try:\n"
        "            code = gridhedge.cli.main(argv)\n"
        "        except SystemExit as stop:  # argparse ends --version and usage errors\n"
        "            code = stop.code\n"
        f"        assert code == {exit_code!r}, (argv, code)\n"
        "    loaded = [m for m in sys.modules\n"
        "              if m in never or m.startswith(tuple(n + '.' for n in never))]\n"
        "    assert not loaded, (argv, loaded)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=CHILD_ENV
    )
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("module", ["scipy.stats", "scipy"])
def test_import_does_not_load_scipy_stats(module, gbm_csv, demo_config, tmp_path):
    # scipy.stats costs about a second of start-up for every command, and
    # scipy.special another 0.3 s; only validate loads scipy, for its oracles.
    assert_never_loaded(module, [
        ["estimate", str(gbm_csv)],
        ["allocate", str(demo_config), "--mode", "tes"],
        ["simulate", str(demo_config), "--paths", "10", "--out", str(tmp_path / "out")],
    ])


def test_only_estimate_loads_statistics(demo_config, tmp_path):
    # statistics costs about 4.5 ms of start-up; only estimate's chi-square
    # bins use it, through normal_ppf
    assert_never_loaded("statistics", [
        ["allocate", str(demo_config), "--mode", "ces"],
        ["allocate", str(demo_config), "--mode", "tes"],
        ["simulate", str(demo_config), "--paths", "10", "--out", str(tmp_path / "out")],
    ])


def test_no_command_loads_numpy_ma(gbm_csv, demo_config, tmp_path):
    # numpy.ma costs about 17 ms and 1.2 MB; np.quantile loaded it through
    # np.unique, and percentile_ci now reads its quantiles without either
    assert_never_loaded("numpy.ma", [
        ["simulate", str(demo_config), "--out", str(tmp_path / "out")],
        ["allocate", str(demo_config), "--mode", "tes"],
        ["estimate", str(gbm_csv)],
    ])


def layers(*names):
    return tuple(f"gridhedge.{name}" for name in names)


# numpy and every gridhedge module but the two that cli imports at start-up
NOT_AT_START = ("numpy", *layers(*(
    info.name for info in pkgutil.iter_modules(gh.__path__)
    if info.name not in ("cli", "errors", "__main__")
)))


@pytest.mark.parametrize(
    "argv, exit_code, never",
    [
        (["--version"], 0, NOT_AT_START),
        (["allocate", "{cfg}"], 2, NOT_AT_START),
        (["estimate", "{csv}"], 0, layers("config", "ces", "grid", "lattice", "scenario", "stats")),
        (["allocate", "{cfg}", "--mode", "ces"], 0,
         layers("lattice", "scenario", "stats", "timeseries")),
        (["allocate", "{cfg}", "--mode", "tes"], 0,
         layers("ces", "scenario", "stats", "timeseries")),
    ],
    ids=["version", "usage_error", "estimate", "allocate_ces", "allocate_tes"],
)
def test_each_command_loads_only_what_it_runs(argv, exit_code, never, demo_config, gbm_csv):
    # start-up is most of a short command: --version and a usage error need
    # neither numpy nor any layer, and each command skips the layers of the
    # others (simulate and validate load them all)
    argv = [a.format(cfg=demo_config, csv=gbm_csv) for a in argv]
    assert_never_loaded(never, [argv], exit_code)
