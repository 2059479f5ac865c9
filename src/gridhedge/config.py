"""Flat key=value scenario configuration files and run manifests.

Config keys mirror the scenario fields one-to-one; numbers are decimal with
units fixed by the key name (kW, hours).  Lists are comma separated and a
correlation matrix writes its rows separated by semicolons.  Example::

    # two-microgrid demo
    mu              = 0.006, 0.005      # drift per hour
    sigma           = 0.03, 0.04        # volatility per sqrt-hour
    correlation     = 0.6               # scalar, or rows "1,0.6; 0.6,1"
    demand_kw       = 20, 25
    initial_kw      = 20, 25
    battery_unit_kw = 1
    horizon_hours   = 5
    rebalance_steps = 5
    n_paths         = 10000
    seed            = 42
    case_filter     = ge, lt            # optional
"""
import os
from datetime import datetime, timezone

import numpy as np

from .gbm import CorrelationMatrix, GbmParams
from .grid import GridEnsemble
from .scenario import ScenarioConfig, parse_case

REQUIRED_KEYS = (
    "mu",
    "sigma",
    "correlation",
    "demand_kw",
    "initial_kw",
    "battery_unit_kw",
    "horizon_hours",
    "rebalance_steps",
    "n_paths",
    "seed",
)
# optional counts; ScenarioConfig holds their defaults
COUNT_KEYS = ("n_resamples", "max_simulated_paths")
KNOWN_KEYS = REQUIRED_KEYS + ("case_filter",) + COUNT_KEYS


def parse_flat_file(path) -> "dict[str, str]":
    """Read ``key = value`` lines; '#' starts a comment, blanks ignored."""
    entries = {}
    with open(path) as handle:
        for line_no, raw in enumerate(handle, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{line_no}: expected 'key = value'")
            key, value = line.split("=", 1)
            entries[key.strip().lower()] = value.strip()
    return entries


def _floats(text: str) -> np.ndarray:
    return np.array([float(part) for part in text.split(",") if part.strip() != ""])


def _correlation(text: str, n: int) -> CorrelationMatrix:
    if ";" in text:
        rows = [_floats(row) for row in text.split(";")]
        if len({row.size for row in rows}) > 1:
            lengths = ", ".join(str(row.size) for row in rows)
            raise ValueError(f"matrix rows have unequal lengths ({lengths})")
        return CorrelationMatrix(np.array(rows))
    values = _floats(text)
    if values.size != 1:
        raise ValueError("correlation must be a scalar or ';'-separated matrix rows")
    return CorrelationMatrix.pairwise(float(values[0]), n)


def _value(entries, key, parse):
    """parse(entries[key]), with a value it cannot parse reported under its key."""
    try:
        return parse(entries[key])
    except ValueError as exc:
        raise ValueError(f"config key '{key}': {exc}") from None


def load_scenario_config(path) -> ScenarioConfig:
    entries = parse_flat_file(path)
    unknown = [key for key in entries if key not in KNOWN_KEYS]
    if unknown:
        raise ValueError(f"config has unknown keys: {', '.join(unknown)}")
    missing = [key for key in REQUIRED_KEYS if key not in entries]
    if missing:
        raise ValueError(f"config missing keys: {', '.join(missing)}")
    mu = _value(entries, "mu", _floats)
    sigma = _value(entries, "sigma", _floats)
    if mu.size != sigma.size:
        raise ValueError("mu and sigma must have the same length")
    params = tuple(GbmParams(m, s) for m, s in zip(mu, sigma))
    grid = GridEnsemble(
        params=params,
        corr=_value(entries, "correlation", lambda text: _correlation(text, mu.size)),
        demands=_value(entries, "demand_kw", _floats),
        battery_unit_kw=_value(entries, "battery_unit_kw", float),
    )
    case_filter = None
    if entries.get("case_filter"):
        case_filter = _value(entries, "case_filter", parse_case)
    counts = {key: _value(entries, key, int) for key in COUNT_KEYS if key in entries}
    return ScenarioConfig(
        grid=grid,
        initial_kw=_value(entries, "initial_kw", _floats),
        horizon_hours=_value(entries, "horizon_hours", float),
        rebalance_steps=_value(entries, "rebalance_steps", int),
        n_paths=_value(entries, "n_paths", int),
        seed=_value(entries, "seed", int),
        case_filter=case_filter,
        **counts,
    )


def config_snapshot(config: ScenarioConfig) -> "dict[str, str]":
    """Flat representation sufficient to reproduce the run bit-for-bit."""
    grid = config.grid
    rows = ";".join(",".join(format(v, ".17g") for v in row) for row in grid.corr.rho)
    snap = {
        "mu": ",".join(format(p.mu, ".17g") for p in grid.params),
        "sigma": ",".join(format(p.sigma, ".17g") for p in grid.params),
        "correlation": rows,
        "demand_kw": ",".join(format(v, ".17g") for v in grid.demands),
        "initial_kw": ",".join(format(v, ".17g") for v in config.initial_kw),
        "battery_unit_kw": format(grid.battery_unit_kw, ".17g"),
        "horizon_hours": format(config.horizon_hours, ".17g"),
        "rebalance_steps": str(config.rebalance_steps),
        "n_paths": str(config.n_paths),
        "seed": str(config.seed),
        "n_resamples": str(config.n_resamples),
        "max_simulated_paths": str(config.max_simulated_paths),
    }
    if config.case_filter:
        snap["case_filter"] = ",".join(config.case_filter)
    return snap


def write_manifest(path, command: str, config: ScenarioConfig, outputs) -> None:
    """Atomically write the flat key=value manifest next to the outputs."""
    from . import __version__

    lines = [
        f"command = {command}",
        f"tool_version = {__version__}",
        f"created_utc = {datetime.now(timezone.utc).isoformat()}",
        f"seed = {config.seed}",
    ]
    for key, value in config_snapshot(config).items():
        lines.append(f"config.{key} = {value}")
    for name in outputs:
        lines.append(f"output = {name}")
    tmp = f"{path}.tmp"
    with open(tmp, "w") as handle:
        handle.write("\n".join(lines) + "\n")
    os.replace(tmp, path)
