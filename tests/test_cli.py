"""End-to-end CLI behavior through subprocess invocations."""
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import gridhedge as gh
from gridhedge.cli import EXIT_CALIBRATION

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

# child processes import the gridhedge under test, whether installed or not
CHILD_ENV = {
    **os.environ,
    "PYTHONPATH": os.pathsep.join(
        filter(None, [str(Path(gh.__file__).parents[1]), os.environ.get("PYTHONPATH")])
    ),
}


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "gridhedge", *args],
        capture_output=True,
        text=True,
        env=CHILD_ENV,
    )


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
    values = ens.values[0, :, 0]
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
    def test_round_trip_recovery(self, gbm_csv):
        proc = run_cli("estimate", str(gbm_csv))
        assert proc.returncode == 0, proc.stderr
        values = parse_kv(proc.stdout)
        assert float(values["dt_hours"]) == pytest.approx(1 / 12)
        assert float(values["sigma_per_rth"]) == pytest.approx(0.027, rel=0.10)
        assert "chi2_p_value" in values

    def test_window_slicing(self, gbm_csv):
        proc = run_cli("estimate", str(gbm_csv), "--window", "10:00-17:00")
        assert proc.returncode == 0, proc.stderr
        values = parse_kv(proc.stdout)
        # 85 in-window samples per day -> 84 returns, three days
        assert int(values["log_returns"]) == 3 * 84
        assert float(values["sigma_per_rth"]) == pytest.approx(0.027, rel=0.25)

    def test_empty_file_exit_2(self, tmp_path):
        empty = tmp_path / "empty.csv"
        empty.write_text("")
        proc = run_cli("estimate", str(empty))
        assert proc.returncode == 2
        assert "no data rows" in proc.stderr

    def test_interval_mismatch_exit_2(self, gbm_csv):
        proc = run_cli("estimate", str(gbm_csv), "--interval-minutes", "15")
        assert proc.returncode == 2


class TestAllocate:
    def test_ces_total_battery(self, demo_config):
        proc = run_cli("allocate", str(demo_config), "--mode", "ces", "--time", "0")
        assert proc.returncode == 0, proc.stderr
        values = parse_kv(proc.stdout)
        spec1 = gh.MicrogridSpec(demand=20.0, gbm=gh.GbmParams(0.006, 0.03))
        spec2 = gh.MicrogridSpec(demand=25.0, gbm=gh.GbmParams(0.005, 0.04))
        want = gh.ces_total_battery([20.0, 25.0], [spec1, spec2], 0.0, 5.0, 1.0)
        assert float(values["total_battery_units"]) == pytest.approx(want, abs=1e-5)

    def test_tes_allocation(self, demo_config, demo_grid):
        proc = run_cli("allocate", str(demo_config), "--mode", "tes", "--time", "0")
        assert proc.returncode == 0, proc.stderr
        values = parse_kv(proc.stdout)
        model = gh.calibrate_step_model(demo_grid, 1.0)
        _, alloc = gh.dynamic_allocation(
            np.array([20.0, 25.0]), demo_grid.demands, model, 5, None, 1.0
        )
        assert float(values["battery_units"]) == pytest.approx(alloc.b, abs=1e-5)
        assert float(values["a_1"]) == pytest.approx(alloc.a[0], abs=1e-5)
        assert float(values["replication_residual_kw"]) > 0

    def test_oversized_lattice_exit_4(self, tmp_path):
        config = tmp_path / "deep.cfg"
        config.write_text(
            DEMO_CFG.replace("0.006, 0.005", "0.006, 0.005, 0.004")
            .replace("0.03, 0.04", "0.03, 0.04, 0.05")
            .replace("correlation     = 0.6", "correlation     = 0.3")
            .replace("20, 25", "20, 25, 15")
            .replace("rebalance_steps = 5", "rebalance_steps = 250")
        )
        proc = run_cli("allocate", str(config), "--mode", "tes")
        assert proc.returncode == 4
        assert "exceed the node budget" in proc.stderr

    def test_correlations_infeasible_as_dt_vanishes_exit_3(self, tmp_path):
        config = tmp_path / "anti.cfg"
        config.write_text(
            DEMO_CFG.replace("0.006, 0.005", "0.006, 0.005, 0.004")
            .replace("0.03, 0.04", "0.03, 0.04, 0.05")
            .replace("correlation     = 0.6", "correlation     = -0.45")
            .replace("20, 25", "20, 25, 15")
        )
        proc = run_cli("allocate", str(config), "--mode", "tes")
        assert proc.returncode == EXIT_CALIBRATION
        assert "no moment-matched lattice" in proc.stderr
        assert "smaller" not in proc.stderr

    def test_time_out_of_range_exit_4(self, demo_config):
        proc = run_cli("allocate", str(demo_config), "--mode", "tes", "--time", "5")
        assert proc.returncode == 4
        assert "time out of range" in proc.stderr


class TestSimulate:
    def test_minimal_run(self, demo_config, tmp_path):
        out = tmp_path / "out1"
        proc = run_cli("simulate", str(demo_config), "--paths", "1", "--out", str(out))
        assert proc.returncode == 0, proc.stderr
        assert (out / "results.csv").exists()
        assert (out / "manifest.txt").exists()
        lines = proc.stdout.splitlines()
        assert lines[2].startswith("overall_savings_pct = ")
        assert lines[3].startswith("overall_savings_ci_lo_pct = ")
        assert lines[4].startswith("overall_savings_ci_hi_pct = ")

    def test_seed_reproducibility(self, demo_config, tmp_path):
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        for out in (out1, out2):
            proc = run_cli(
                "simulate", str(demo_config), "--case-filter", "ge,lt",
                "--seed", "7", "--out", str(out),
            )
            assert proc.returncode == 0, proc.stderr
        assert (out1 / "results.csv").read_bytes() == (out2 / "results.csv").read_bytes()
        manifest = (out1 / "manifest.txt").read_text()
        assert "config.case_filter = ge,lt" in manifest
        assert "output = results.csv" in manifest

    def test_empty_bucket_exit_5(self, tmp_path):
        config = tmp_path / "far.cfg"
        config.write_text(
            DEMO_CFG.replace("initial_kw      = 20, 25", "initial_kw = 2000, 2500")
        )
        proc = run_cli(
            "simulate", str(config), "--case-filter", "lt,lt",
            "--out", str(tmp_path / "out"),
        )
        assert proc.returncode == 5
        assert "lt,lt" in proc.stderr


    def test_non_finite_demand_exit_2(self, tmp_path):
        config = tmp_path / "nan.cfg"
        config.write_text(DEMO_CFG + "demand_kw = nan, 25\n")
        out = tmp_path / "out"
        proc = run_cli("simulate", str(config), "--out", str(out))
        assert proc.returncode == 2
        assert "demand_kw must be finite" in proc.stderr
        assert not (out / "results.csv").exists()

    def test_zero_resamples_exit_2(self, tmp_path):
        config = tmp_path / "zero.cfg"
        config.write_text(DEMO_CFG + "n_resamples = 0\n")
        out = tmp_path / "out"
        proc = run_cli("simulate", str(config), "--out", str(out))
        assert proc.returncode == 2
        assert "n_resamples must be >= 1" in proc.stderr
        assert not (out / "results.csv").exists()


class TestValidate:
    def test_oracle_suite_passes(self):
        proc = run_cli("validate", "--suite", "oracle")
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert "PASS\tces_closed_form_vs_independent_cdf" in proc.stdout
        assert "FAIL" not in proc.stdout

    def test_stats_suite_passes(self):
        proc = run_cli("validate", "--suite", "stats")
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert "PASS\tks_critical_value" in proc.stdout

    def test_phi_fault_injection_detected(self):
        proc = run_cli("validate", "--suite", "oracle", "--inject-phi-fault")
        assert proc.returncode == 1
        assert "FAIL\tces_closed_form_vs_independent_cdf" in proc.stdout


def test_version_flag():
    proc = run_cli("--version")
    assert proc.returncode == 0
    assert "gridhedge" in proc.stdout


def test_every_exported_name_resolves():
    missing = [name for name in gh.__all__ if not hasattr(gh, name)]
    assert not missing


@pytest.mark.parametrize("module", ["scipy.stats", "scipy"])
def test_import_does_not_load_scipy_stats(module):
    # scipy.stats costs about a second of start-up for every command, and
    # scipy.special another 0.3 s; only estimate and validate load scipy
    code = (
        "import sys, gridhedge.cli; "
        f"loaded = [m for m in sys.modules if m == {module!r} or m.startswith({module!r} + '.')]; "
        "assert not loaded, loaded"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=CHILD_ENV
    )
    assert proc.returncode == 0, proc.stderr
