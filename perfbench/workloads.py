"""Benchmark inputs and the command cycle of each workload.

Every input is generated here from the workload seed: the two scenario
configs and the one-week wind CSV.  The same seed gives byte-identical
inputs.  The scenario parameters are fixed by the workload definitions; the
seed feeds the config's ``seed`` key and the wind series.
"""
import math
import random
from dataclasses import dataclass
from datetime import datetime, timedelta
from pathlib import Path
from statistics import NormalDist

# Seed whose outputs are pinned in reference.json (the README config seed).
DEFAULT_SEED = 42

# README two-grid case study: rho = 0.6, 5 hourly steps, 10k kept paths.
TWO_GRID = {
    "mu": "0.006, 0.005",
    "sigma": "0.03, 0.04",
    "correlation": "0.6",
    "demand_kw": "20, 25",
    "initial_kw": "20, 25",
    "battery_unit_kw": "1",
    "horizon_hours": "5",
    "rebalance_steps": "5",
    "n_paths": "10000",
    "case_filter": "ge, lt",
    "n_resamples": "10000",
}

# Three-grid fleet with 20 rebalance steps: the batched lattice dominates.
THREE_GRID = {
    "mu": "0.006, 0.005, 0.004",
    "sigma": "0.03, 0.04, 0.05",
    "correlation": "0.3",
    "demand_kw": "20, 25, 15",
    "initial_kw": "20, 25, 15",
    "battery_unit_kw": "1",
    "horizon_hours": "5",
    "rebalance_steps": "20",
    "n_paths": "1000",
    "n_resamples": "200",
}

# One week of one-minute GBM samples for ``estimate``.
WIND_MU = 0.006          # per hour
WIND_SIGMA = 0.03        # per sqrt-hour
WIND_P0 = 20.0           # kW
WIND_START = datetime(2021, 6, 7)
WIND_MINUTES = 7 * 24 * 60
WINDOW = ("10:00", "17:00")
BINS = 16


@dataclass(frozen=True)
class Scenario:
    """A generated config file and the facts its outputs are checked with."""

    name: str
    path: Path
    seed: int
    n_grids: int
    horizon_hours: float
    rebalance_steps: int
    n_paths: int
    case: str

    @property
    def times(self):
        dt = self.horizon_hours / self.rebalance_steps
        return [dt * n for n in range(self.rebalance_steps + 1)]


@dataclass(frozen=True)
class Inputs:
    seed: int
    two_grid: Scenario
    three_grid: Scenario
    wind_csv: Path
    wind_expected: dict


@dataclass(frozen=True)
class Command:
    """One gridhedge invocation; ``kind`` groups latencies and picks the check."""

    kind: str
    args: tuple
    scenario: "Scenario | None" = None
    reference: "str | None" = None


def write_config(path: Path, name: str, entries: dict, seed: int) -> Scenario:
    lines = [f"# {name}, generated for seed {seed}"]
    lines += [f"{key} = {value}" for key, value in entries.items()]
    lines.append(f"seed = {seed}")
    path.write_text("\n".join(lines) + "\n")
    case = entries.get("case_filter")
    n_grids = len(entries["mu"].split(","))
    return Scenario(
        name=name,
        path=path,
        seed=seed,
        n_grids=n_grids,
        horizon_hours=float(entries["horizon_hours"]),
        rebalance_steps=int(entries["rebalance_steps"]),
        n_paths=int(entries["n_paths"]),
        case=case.replace(" ", "") if case else "all",
    )


def _wind_series(seed: int):
    rng = random.Random(seed)
    dt = 1.0 / 60.0
    drift = (WIND_MU - WIND_SIGMA**2 / 2.0) * dt
    scale = WIND_SIGMA * math.sqrt(dt)
    log_p = math.log(WIND_P0)
    rows = []
    for minute in range(WIND_MINUTES):
        stamp = WIND_START + timedelta(minutes=minute)
        rows.append((stamp, format(math.exp(log_p), ".10g")))
        log_p += drift + scale * rng.gauss(0.0, 1.0)
    return rows


def expected_estimate(rows):
    """Independent pure-Python re-derivation of what ``estimate`` must print.

    Log-returns are taken inside each day's clock window only; the GBM MLE
    uses the variance divisor n; bins are equiprobable under the fitted law.
    """
    start = datetime.strptime(WINDOW[0], "%H:%M").time()
    end = datetime.strptime(WINDOW[1], "%H:%M").time()
    dt = 1.0 / 60.0
    returns = []
    previous = None
    for stamp, text in rows:
        value = float(text)
        if start <= stamp.time() <= end:
            if previous is not None:
                returns.append(math.log(value) - math.log(previous))
            previous = value
        else:
            previous = None
    n = len(returns)
    mean = math.fsum(returns) / n
    var = math.fsum((x - mean) ** 2 for x in returns) / n
    sigma_sq = var / dt
    mu = mean / dt + sigma_sq / 2.0
    sigma = math.sqrt(sigma_sq)
    law = NormalDist((mu - sigma_sq / 2.0) * dt, sigma * math.sqrt(dt))
    edges = [law.inv_cdf(j / BINS) for j in range(1, BINS)]
    observed = [0] * BINS
    for x in returns:
        observed[sum(1 for e in edges if e < x)] += 1
    expected = n / BINS
    statistic = math.fsum((o - expected) ** 2 for o in observed) / expected
    return {
        "samples": len(rows),
        "dt_hours": dt,
        "log_returns": n,
        "mu_per_hour": mu,
        "sigma_per_rth": sigma,
        "chi2_statistic": statistic,
        "chi2_dof": BINS - 3,
    }


def write_inputs(workdir: Path, seed: int) -> Inputs:
    workdir.mkdir(parents=True, exist_ok=True)
    two = write_config(workdir / "two_grid.cfg", "two_grid", TWO_GRID, seed)
    three = write_config(workdir / "three_grid.cfg", "three_grid", THREE_GRID, seed)
    rows = _wind_series(seed)
    wind = workdir / "wind.csv"
    with open(wind, "w") as handle:
        handle.write("timestamp,power_kw\n")
        for stamp, text in rows:
            handle.write(f"{stamp.isoformat()},{text}\n")
    return Inputs(seed, two, three, wind, expected_estimate(rows))


def cycle(workload: str, inputs: Inputs, out_dir: Path):
    """The commands of one run of the workload, in order."""
    if workload == "case_study":
        sc = inputs.two_grid
        return [Command("simulate", ("simulate", str(sc.path), "--out", str(out_dir)), sc)]
    if workload == "deep_lattice":
        sc = inputs.three_grid
        return [Command("simulate", ("simulate", str(sc.path), "--out", str(out_dir)), sc)]
    if workload == "cli_calls":
        two, three = str(inputs.two_grid.path), str(inputs.three_grid.path)
        window = "-".join(WINDOW)
        return [
            Command("allocate_ces", ("allocate", two, "--mode", "ces"), reference="two_grid ces 0"),
            Command("allocate_ces", ("allocate", three, "--mode", "ces"), reference="three_grid ces 0"),
            Command("allocate_tes", ("allocate", two, "--mode", "tes", "--time", "0"),
                    reference="two_grid tes 0"),
            Command("allocate_tes", ("allocate", two, "--mode", "tes", "--time", "3"),
                    reference="two_grid tes 3"),
            Command("allocate_tes", ("allocate", three, "--mode", "tes", "--time", "0"),
                    reference="three_grid tes 0"),
            Command("allocate_tes", ("allocate", three, "--mode", "tes", "--time", "2.5"),
                    reference="three_grid tes 2.5"),
            Command("estimate", ("estimate", str(inputs.wind_csv), "--window", window,
                                 "--bins", str(BINS))),
        ]
    raise ValueError(f"unknown workload {workload!r}")


WORKLOADS = ("case_study", "deep_lattice", "cli_calls")

# Whole cycles a run always measures: cli_calls needs 21 commands so that
# ten latencies lie beyond the median.
MIN_CYCLES = {"case_study": 1, "deep_lattice": 1, "cli_calls": 3}
