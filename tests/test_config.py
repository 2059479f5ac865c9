"""Flat config parsing and run manifests."""
import numpy as np
import pytest

from gridhedge.config import (
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


def test_snapshot_round_trips_through_config_format(tmp_path):
    config = load_scenario_config(write(tmp_path, DEMO))
    snap = config_snapshot(config)
    text = "\n".join(f"{key} = {value}" for key, value in snap.items())
    config2 = load_scenario_config(write(tmp_path, text, name="snap.cfg"))
    assert config2.seed == config.seed
    assert np.allclose(config2.grid.corr.rho, config.grid.corr.rho)
    assert config2.n_paths == config.n_paths


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


@pytest.mark.parametrize("key", ["n_resamples", "max_simulated_paths"])
def test_counts_below_one_rejected(tmp_path, key):
    # n_resamples = 0 used to reach np.quantile and die with an IndexError
    with pytest.raises(ValueError, match=f"{key} must be >= 1, got 0"):
        load_scenario_config(write(tmp_path, DEMO + f"{key} = 0\n"))
