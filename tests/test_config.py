"""Flat config parsing and run manifests."""
from dataclasses import MISSING, fields

import numpy as np
import pytest

from gridhedge.config import (
    KEYS,
    ScenarioConfig,
    config_snapshot,
    load_scenario_config,
    parse_flat_file,
    write_manifest,
)

DEMO = """\
# two-microgrid demo scenario
mu              = 0.006, 0.005
sigma           = 0.03, 0.04
correlation     = 0.6
demand_kw       = 20, 25
initial_kw      = 20, 25
battery_unit_kw = 1
horizon_hours   = 5
rebalance_steps = 5
n_paths         = 10000
seed            = 42
"""


def write(tmp_path, text, name="demo.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return path


def test_load_demo_config(tmp_path):
    config = load_scenario_config(write(tmp_path, DEMO))
    assert config.grid.n_microgrids == 2
    assert config.grid.params[1].sigma == 0.04
    assert np.allclose(config.grid.corr.rho, [[1.0, 0.6], [0.6, 1.0]])
    assert np.allclose(config.grid.demands, [20.0, 25.0])
    assert config.horizon_hours == 5.0
    assert config.case_filter is None


def test_case_filter_and_matrix_rows(tmp_path):
    text = DEMO + "case_filter = ge, lt\n"
    text = text.replace("correlation     = 0.6", "correlation = 1, 0.6; 0.6, 1")
    config = load_scenario_config(write(tmp_path, text))
    assert config.case_filter == ("ge", "lt")
    assert config.grid.corr.rho[0, 1] == 0.6


def test_case_filter_length_checked(tmp_path):
    text = DEMO + "case_filter = ge, lt, ge\n"
    with pytest.raises(ValueError, match="per microgrid"):
        load_scenario_config(write(tmp_path, text))


def test_missing_key_reported(tmp_path):
    broken = DEMO.replace("seed            = 42\n", "")
    with pytest.raises(ValueError, match="seed"):
        load_scenario_config(write(tmp_path, broken))


def test_malformed_line_reported(tmp_path):
    with pytest.raises(ValueError, match="key = value"):
        parse_flat_file(write(tmp_path, "just some words\n"))


def test_mismatched_lengths(tmp_path):
    broken = DEMO.replace("sigma           = 0.03, 0.04", "sigma = 0.03")
    with pytest.raises(ValueError, match="same length"):
        load_scenario_config(write(tmp_path, broken))


def test_empty_fleet_rejected(tmp_path):
    # every per-grid list empty: no microgrid to allocate, simulate or hedge
    empty = DEMO + "mu =\nsigma =\ndemand_kw =\ninitial_kw =\n"
    with pytest.raises(ValueError, match="^a fleet needs at least one microgrid, got none$"):
        load_scenario_config(write(tmp_path, empty))


def test_unknown_keys_rejected(tmp_path):
    text = DEMO + "n_resample = 5\ncase_filtr = ge, lt\n"
    with pytest.raises(ValueError, match="config has unknown keys: n_resample, case_filtr$"):
        load_scenario_config(write(tmp_path, text))


def test_snapshot_round_trips_through_config_format(tmp_path):
    # every optional key away from its default, and a matrix correlation
    text = DEMO + "n_resamples = 321\nmax_simulated_paths = 54321\ncase_filter = lt, ge\n"
    text += "correlation = 1, 0.35; 0.35, 1\n"
    config = load_scenario_config(write(tmp_path, text))
    for field in fields(config):
        if field.default is not MISSING:
            assert getattr(config, field.name) != field.default, field.name
    snap = config_snapshot(config)
    assert list(snap) == list(KEYS)
    text = "\n".join(f"{key} = {value}" for key, value in snap.items())
    config2 = load_scenario_config(write(tmp_path, text, name="snap.cfg"))
    assert config_snapshot(config2) == snap
    assert config2.seed == config.seed
    assert np.array_equal(config2.grid.corr.rho, config.grid.corr.rho)
    assert config2.grid.corr.rho[0, 1] == 0.35
    assert config2.n_paths == config.n_paths
    assert config2.n_resamples == config.n_resamples == 321
    assert config2.max_simulated_paths == config.max_simulated_paths == 54321
    assert config2.case_filter == config.case_filter == ("lt", "ge")


def test_keys_are_the_grid_keys_and_the_scenario_fields():
    grid_keys = {"mu", "sigma", "correlation", "demand_kw", "battery_unit_kw"}
    scenario_fields = {f.name for f in fields(ScenarioConfig)} - {"grid"}
    assert set(KEYS) == grid_keys | scenario_fields
    assert not grid_keys & scenario_fields


def test_optional_keys_are_the_fields_with_defaults(tmp_path):
    # the demo sets only the required keys; the rest take their defaults
    config = load_scenario_config(write(tmp_path, DEMO))
    defaults = {f.name: f.default for f in fields(config) if f.default is not MISSING}
    assert set(defaults) == {"case_filter", "n_resamples", "max_simulated_paths"}
    assert {name: getattr(config, name) for name in defaults} == defaults


@pytest.mark.parametrize("seed", [0, 4294967295])
def test_seed_range_ends_load(tmp_path, seed):
    config = load_scenario_config(write(tmp_path, DEMO + f"seed = {seed}\n"))
    assert config.seed == seed
    assert config_snapshot(config)["seed"] == str(seed)


@pytest.mark.parametrize("seed", [-1, 4294967296])
def test_seed_outside_32_bits_rejected(tmp_path, seed):
    with pytest.raises(ValueError, match=rf"seed must be in \[0, 4294967295\], got {seed}$"):
        load_scenario_config(write(tmp_path, DEMO + f"seed = {seed}\n"))


def test_manifest_contents(tmp_path):
    config = load_scenario_config(write(tmp_path, DEMO))
    manifest = tmp_path / "manifest.txt"
    write_manifest(manifest, "gridhedge simulate demo.cfg", config, ["results.csv"])
    text = manifest.read_text()
    assert "command = gridhedge simulate demo.cfg" in text
    assert "config.mu = 0.0060000000000000001,0.005" in text
    assert "seed = 42" in text
    assert "output = results.csv" in text


@pytest.mark.parametrize("bad", ["nan", "inf"])
@pytest.mark.parametrize(
    "key, value",
    [
        ("demand_kw", "{}, 25"),
        ("initial_kw", "{}, 25"),
        ("battery_unit_kw", "{}"),
        ("horizon_hours", "{}"),
    ],
)
def test_non_finite_numbers_rejected(tmp_path, key, value, bad):
    # a later line overrides the demo's value for the same key
    text = DEMO + f"{key} = {value.format(bad)}\n"
    with pytest.raises(ValueError, match=f"{key} must be finite"):
        load_scenario_config(write(tmp_path, text))


def test_cap_below_n_paths_rejected(tmp_path):
    # the demo keeps 10000 paths, which 9999 simulated paths can never give
    with pytest.raises(ValueError, match=r"max_simulated_paths \(9999\) must be >= n_paths \(10000\)"):
        load_scenario_config(write(tmp_path, DEMO + "max_simulated_paths = 9999\n"))


@pytest.mark.parametrize("horizon, steps", [("1e-300", str(10**30)), ("5", str(10**400))],
                         ids=["underflow", "past_float_range"])
def test_step_that_is_no_positive_float_rejected(tmp_path, horizon, steps):
    # a 0 h step died in allocate with a ZeroDivisionError, and a count past
    # the float range with an OverflowError; both keys are named
    text = DEMO + f"horizon_hours = {horizon}\nrebalance_steps = {steps}\n"
    with pytest.raises(ValueError, match=(
        rf"^horizon_hours / rebalance_steps \({horizon} / {steps}\) is no positive time "
        "step; raise horizon_hours or lower rebalance_steps$"
    )):
        load_scenario_config(write(tmp_path, text))
    # a step that is tiny but positive loads
    load_scenario_config(write(tmp_path, DEMO + "horizon_hours = 1e-300\n"))


@pytest.mark.parametrize("key", ["n_resamples", "max_simulated_paths"])
def test_counts_below_one_rejected(tmp_path, key):
    # n_resamples = 0 used to reach np.quantile and die with an IndexError
    with pytest.raises(ValueError, match=f"{key} must be >= 1, got 0"):
        load_scenario_config(write(tmp_path, DEMO + f"{key} = 0\n"))


@pytest.mark.parametrize("value", ["inf", "1, inf; inf, 1", "1.5"])
def test_correlation_outside_unit_interval_rejected(tmp_path, value):
    # an infinite entry drives a Cholesky pivot to -inf, so it is refused too
    text = DEMO + f"correlation = {value}\n"
    with pytest.raises(ValueError, match="'correlation': not positive semi-definite"):
        load_scenario_config(write(tmp_path, text))


@pytest.mark.parametrize("rho", ["1", "-1"])
def test_singular_correlation_accepted(tmp_path, rho):
    config = load_scenario_config(write(tmp_path, DEMO + f"correlation = {rho}\n"))
    assert config.grid.corr.rho[0, 1] == float(rho)


@pytest.mark.parametrize(
    "value", ["-0.5", "1, 1, -1; 1, 1, -1; -1, -1, 1"], ids=["pairwise=-0.5", "rank1"]
)
def test_singular_three_grid_correlation_accepted(tmp_path, value):
    three = DEMO + "mu = 0.006, 0.005, 0.004\nsigma = 0.03, 0.04, 0.05\n"
    three += "demand_kw = 20, 25, 15\ninitial_kw = 20, 25, 15\n"
    config = load_scenario_config(write(tmp_path, three + f"correlation = {value}\n"))
    lower = config.grid.corr.factor
    assert np.max(np.abs(lower @ lower.T - config.grid.corr.rho)) <= 1e-12
