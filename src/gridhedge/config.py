"""Scenario configurations: the ``ScenarioConfig`` record, its flat
key=value files, terminal-case labels and run manifests.

Five keys build the GridEnsemble (mu, sigma, correlation, demand_kw,
battery_unit_kw); every other key is the ScenarioConfig field of its name,
optional exactly when that field has a default.  Numbers are decimal with
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
import sys
from contextlib import contextmanager
from dataclasses import MISSING, dataclass, fields
from datetime import datetime, timezone

import numpy as np

from .gbm import CorrelationMatrix, GbmParams
from .grid import GridEnsemble

CASE_GE = "ge"
CASE_LT = "lt"

# The fewest bootstrap resamples a percentile interval is read from, here
# and in ``stats.bootstrap_ci``.  It lives in this module because
# ``allocate`` loads the config but not ``stats``.
MIN_RESAMPLES = 100


def format_case(label) -> str:
    return ",".join(label)


def parse_case(text: str):
    parts = tuple(part.strip().lower() for part in text.split(","))
    for part in parts:
        if part not in (CASE_GE, CASE_LT):
            raise ValueError(f"case filter entries must be 'ge' or 'lt', got {part!r}")
    return parts


@dataclass(frozen=True)
class ScenarioConfig:
    grid: GridEnsemble
    initial_kw: np.ndarray
    horizon_hours: float
    rebalance_steps: int
    n_paths: int
    seed: int
    case_filter: "tuple[str, ...] | None" = None
    n_resamples: int = 10_000
    max_simulated_paths: int = 2_000_000

    def __post_init__(self):
        object.__setattr__(self, "initial_kw", np.asarray(self.initial_kw, dtype=float))
        for name in ("rebalance_steps", "n_paths", "n_resamples", "max_simulated_paths"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")
        if self.n_resamples < MIN_RESAMPLES:
            raise ValueError(
                f"n_resamples must be >= {MIN_RESAMPLES} for a percentile interval, "
                f"got {self.n_resamples}"
            )
        if not 0 <= self.seed <= 0xFFFFFFFF:
            # derive_seed keeps 32 bits of the root seed; wider seeds would alias
            raise ValueError(f"seed must be in [0, 4294967295], got {self.seed}")
        if self.max_simulated_paths < self.n_paths:
            raise ValueError(
                f"max_simulated_paths ({self.max_simulated_paths}) must be >= n_paths "
                f"({self.n_paths}): fewer simulated paths can never yield n_paths kept paths"
            )
        if not np.all(np.isfinite(self.initial_kw) & (self.initial_kw > 0)):
            raise ValueError(f"initial_kw must be finite and > 0, got {self.initial_kw}")
        if self.initial_kw.shape != (self.grid.n_microgrids,):
            raise ValueError("initial_kw must supply one value per microgrid")
        horizon = self.horizon_hours
        if not (np.isfinite(horizon) and horizon > 0):
            raise ValueError(f"horizon_hours must be finite and > 0, got {horizon}")
        # the lattice's time step; a count past the float range divides nothing
        steps = self.rebalance_steps
        if not (steps <= sys.float_info.max and horizon / steps > 0):
            raise ValueError(
                f"horizon_hours / rebalance_steps ({horizon:g} / {steps}) is no positive "
                "time step; raise horizon_hours or lower rebalance_steps"
            )
        # the per-grid policy takes sigma^2 times the time left to the horizon
        with np.errstate(over="ignore"):
            variance = self.grid.sigmas**2 * horizon
        if not np.all(np.isfinite(variance)):
            raise ValueError(
                f"sigma^2 * horizon_hours overflows for sigma {self.grid.sigmas}; "
                "lower sigma or horizon_hours"
            )
        case = self.case_filter
        if case is not None and (
            len(case) != self.grid.n_microgrids or not set(case) <= {CASE_GE, CASE_LT}
        ):
            raise ValueError(
                f"case_filter needs one 'ge' or 'lt' entry per microgrid "
                f"({self.grid.n_microgrids}), got {format_case(case)!r}"
            )


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


def _correlation(text: str) -> np.ndarray:
    """A scalar pairwise coefficient, or the 2-D array of ';'-separated rows."""
    if ";" in text:
        rows = [_floats(row) for row in text.split(";")]
        if len({row.size for row in rows}) > 1:
            lengths = ", ".join(str(row.size) for row in rows)
            raise ValueError(f"matrix rows have unequal lengths ({lengths})")
        return np.array(rows)
    values = _floats(text)
    if values.size != 1:
        raise ValueError("correlation must be a scalar or ';'-separated matrix rows")
    return values[0]


def _join(values) -> str:
    return ",".join(format(v, ".17g") for v in values)


# key: (parse the config text, write a ScenarioConfig back as manifest text),
# in manifest order
KEYS = {
    "mu": (_floats, lambda c: _join(p.mu for p in c.grid.params)),
    "sigma": (_floats, lambda c: _join(p.sigma for p in c.grid.params)),
    "correlation": (_correlation, lambda c: ";".join(_join(row) for row in c.grid.corr.rho)),
    "demand_kw": (_floats, lambda c: _join(c.grid.demands)),
    "initial_kw": (_floats, lambda c: _join(c.initial_kw)),
    "battery_unit_kw": (float, lambda c: format(c.grid.battery_unit_kw, ".17g")),
    "horizon_hours": (float, lambda c: format(c.horizon_hours, ".17g")),
    "rebalance_steps": (int, lambda c: str(c.rebalance_steps)),
    "n_paths": (int, lambda c: str(c.n_paths)),
    "seed": (int, lambda c: str(c.seed)),
    "n_resamples": (int, lambda c: str(c.n_resamples)),
    "max_simulated_paths": (int, lambda c: str(c.max_simulated_paths)),
    # an empty value means no filter, and no filter writes no line
    "case_filter": (
        lambda text: parse_case(text) if text else None,
        lambda c: format_case(c.case_filter) if c.case_filter else None,
    ),
}


@contextmanager
def _named(key):
    """Report a ValueError raised inside under the config key it concerns."""
    try:
        yield
    except ValueError as exc:
        raise ValueError(f"config key '{key}': {exc}") from None


def load_scenario_config(path) -> ScenarioConfig:
    entries = parse_flat_file(path)
    unknown = [key for key in entries if key not in KEYS]
    if unknown:
        raise ValueError(f"config has unknown keys: {', '.join(unknown)}")
    optional = {f.name for f in fields(ScenarioConfig) if f.default is not MISSING}
    missing = [key for key in KEYS if key not in entries and key not in optional]
    if missing:
        raise ValueError(f"config missing keys: {', '.join(missing)}")
    values = {}
    for key, (parse, _) in KEYS.items():
        if key in entries:
            with _named(key):
                values[key] = parse(entries[key])
    mu, sigma, rho = values.pop("mu"), values.pop("sigma"), values.pop("correlation")
    if mu.size != sigma.size:
        raise ValueError("mu and sigma must have the same length")
    with _named("correlation"):
        corr = CorrelationMatrix(rho) if rho.ndim else CorrelationMatrix.pairwise(rho, mu.size)
    params = tuple(GbmParams(m, s) for m, s in zip(mu, sigma))
    grid = GridEnsemble(params, corr, values.pop("demand_kw"), values.pop("battery_unit_kw"))
    return ScenarioConfig(grid=grid, **values)


def config_snapshot(config: ScenarioConfig) -> "dict[str, str]":
    """Flat representation sufficient to reproduce the run bit-for-bit."""
    snap = {key: write(config) for key, (_, write) in KEYS.items()}
    return {key: text for key, text in snap.items() if text is not None}


def write_manifest(path, command: str, config: ScenarioConfig, outputs) -> None:
    """Atomically write the flat key=value manifest next to the outputs."""
    from . import __version__

    lines = [
        f"command = {command}",
        f"tool_version = {__version__}",
        f"created_utc = {datetime.now(timezone.utc).isoformat()}",
        f"seed = {config.seed}",
    ]
    lines += [f"config.{key} = {value}" for key, value in config_snapshot(config).items()]
    lines += [f"output = {name}" for name in outputs]
    tmp = f"{path}.tmp"
    with open(tmp, "w") as handle:
        handle.write("\n".join(lines) + "\n")
    os.replace(tmp, path)
