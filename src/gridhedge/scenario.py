"""Hourly rebalancing case studies comparing pooled and per-grid operation.

Physical-measure generation paths are filtered by their terminal case (which
microgrids end above/below demand).  Along each retained path the per-grid
closed-form policy and the pooled lattice policy are recomputed at every
rebalance time, and battery requirements, portfolio values, and the battery
savings of pooling are aggregated with percentile-bootstrap intervals.
"""
import csv
from dataclasses import dataclass, field

import numpy as np

from . import ces as _ces  # Phi is read as _ces._normal_cdf at call time (validator seam)
from .errors import InsufficientPaths
from .grid import GridEnsemble
from .lattice import calibrate_step_model, RecombiningLattice
# perfbench/traced.py times the pooled lattice by wrapping the method
# through this name; it is the same class, so the wrap reaches every caller
from .lattice import RecombiningLattice as _BatchLattice  # noqa: F401
from .gbm import simulate_paths
from .stats import resampled_means

CASE_GE = "ge"
CASE_LT = "lt"


def derive_seed(root_seed: int, *path) -> int:
    """Stable 128-bit child seed for a named stream under one root seed."""
    entropy = [int(root_seed) & 0xFFFFFFFF]
    for item in path:
        if isinstance(item, str):
            entropy.extend(ord(c) for c in item)
        else:
            entropy.append(int(item) & 0xFFFFFFFF)
    state = np.random.SeedSequence(entropy).generate_state(4)
    out = 0
    for word in state:
        out = (out << 32) | int(word)
    return out


def classify_terminal(path, d_c):
    """Comparator tuple, one entry per microgrid: 'ge' iff P(T_f) >= D."""
    values = np.asarray(path, dtype=float)
    terminal = values[-1] if values.ndim == 2 else values
    return tuple(
        CASE_GE if p >= d else CASE_LT for p, d in zip(terminal, d_c, strict=True)
    )


def format_case(label) -> str:
    return ",".join(label)


def parse_case(text: str):
    parts = tuple(part.strip().lower() for part in text.split(","))
    for part in parts:
        if part not in (CASE_GE, CASE_LT):
            raise ValueError(f"case filter entries must be 'ge' or 'lt', got {part!r}")
    return parts


def _savings_ratio(tes, ces):
    """Elementwise 100*(1 - tes/ces), 0 where ces (numerically) vanishes."""
    return np.where(np.abs(ces) > 1e-12, 100.0 * (1.0 - tes / np.where(ces == 0, 1.0, ces)), 0.0)


def battery_savings(tes_b, ces_b):
    """Pointwise 100*(1 - b/b_hat) plus the unweighted time average.

    Steps with (numerically) no per-grid battery report 0 rather than a
    division by zero; the time average includes those zeros.
    """
    tes = np.asarray(tes_b, dtype=float)
    ces = np.asarray(ces_b, dtype=float)
    if tes.shape != ces.shape:
        raise ValueError("series must be aligned")
    series = _savings_ratio(tes, ces)
    return series, float(series.mean())


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
        if not np.all(np.isfinite(self.initial_kw) & (self.initial_kw > 0)):
            raise ValueError(f"initial_kw must be finite and > 0, got {self.initial_kw}")
        if self.initial_kw.shape != (self.grid.n_microgrids,):
            raise ValueError("initial_kw must supply one value per microgrid")
        horizon = self.horizon_hours
        if not (np.isfinite(horizon) and horizon > 0):
            raise ValueError(f"horizon_hours must be finite and > 0, got {horizon}")


@dataclass(frozen=True)
class MetricSeries:
    mean: np.ndarray
    lo: np.ndarray
    hi: np.ndarray


@dataclass(frozen=True)
class CaseResult:
    times: np.ndarray
    case: "tuple[str, ...] | None"
    n_paths: int
    metrics: "dict[str, MetricSeries]"
    pg_mean: np.ndarray  # (n_times, n_microgrids)
    pg_std: np.ndarray
    case_counts: "dict[str, int]"
    overall_savings: float
    overall_savings_lo: float  # 95% percentile-bootstrap interval
    overall_savings_hi: float
    config: ScenarioConfig = field(repr=False)


# ---------------------------------------------------------------------------
# Vectorized per-grid policy
# ---------------------------------------------------------------------------

def _batch_ces(pg, demands, sigmas, tau, p_b):
    """Per-grid policy across paths; pg is (m, n).  Returns (b_sum, v_sum)."""
    _, b, v = _ces._policy(pg, demands, sigmas, tau, p_b)
    return b.sum(axis=1), v.sum(axis=1)


# ---------------------------------------------------------------------------
# Case study driver
# ---------------------------------------------------------------------------

def _collect_paths(config: ScenarioConfig):
    """Simulate physical blocks until the case bucket holds n_paths paths."""
    grid = config.grid
    block = max(config.n_paths, 20_000)
    # a row's case code sets bit (n-1-i) iff grid i ends at or above demand
    bits = 1 << np.arange(grid.n_microgrids - 1, -1, -1)
    collected = []
    n_collected = 0
    counts: "dict[str, int]" = {}
    examined = 0
    block_index = 0
    while n_collected < config.n_paths:
        if examined >= config.max_simulated_paths:
            raise InsufficientPaths(
                f"case filter {format_case(config.case_filter)!r} matched only "
                f"{n_collected}/{config.n_paths} of {examined} simulated paths"
            )
        take = block if config.case_filter is not None else config.n_paths
        ensemble = simulate_paths(
            grid.params,
            grid.corr,
            config.initial_kw,
            horizon=config.horizon_hours,
            n_steps=config.rebalance_steps,
            n_paths=take,
            seed=derive_seed(config.seed, "paths", block_index),
            measure="physical",
        )
        examined += take
        block_index += 1
        values = ensemble.values
        terminal = values[:, -1, :]
        comparators = terminal >= grid.demands
        tally = np.bincount(comparators @ bits)
        for code in np.flatnonzero(tally):
            label = format_case(tuple(CASE_GE if code & bit else CASE_LT for bit in bits))
            counts[label] = counts.get(label, 0) + int(tally[code])
        if config.case_filter is None:
            collected.append(values)
            n_collected += values.shape[0]
        else:
            wanted = np.array([c == CASE_GE for c in config.case_filter])
            match = np.all(comparators == wanted, axis=1)
            if match.any():
                collected.append(values[match])
                n_collected += int(match.sum())
    paths = np.concatenate(collected, axis=0)[: config.n_paths]
    return paths, counts


def _bootstrap_time_metrics(samples, ratio_pairs, n_resamples, seed):
    """95% percentile CIs from one joint resample of whole paths.

    samples: dict name -> (m, n_times) array, one row per path.  Every metric
    at every time is averaged over the same resampled paths.  ratio_pairs:
    name -> (num, den) pair of sample names; the resampled statistic is
    100*(1 - mean_num/mean_den), 0 where the denominator vanishes.

    Returns (series, overall): series maps every sample and ratio name to a
    MetricSeries over time; overall maps each ratio name to the (point, lo,
    hi) of its time average.
    """
    names = list(samples)
    n_times = samples[names[0]].shape[1]
    rng = np.random.Generator(np.random.Philox(key=seed))
    resampled = resampled_means(np.hstack([samples[name] for name in names]), n_resamples, rng)
    points = {name: samples[name].mean(axis=0) for name in names}
    draws = {name: resampled[:, i * n_times : (i + 1) * n_times] for i, name in enumerate(names)}
    series = {}
    overall = {}
    for name, (num, den) in ratio_pairs.items():
        points[name], point_overall = battery_savings(points[num], points[den])
        draws[name] = _savings_ratio(draws[num], draws[den])
        lo, hi = np.quantile(draws[name].mean(axis=1), [0.025, 0.975])
        overall[name] = (point_overall, float(lo), float(hi))
    for name, point in points.items():
        lo, hi = np.quantile(draws[name], [0.025, 0.975], axis=0)
        series[name] = MetricSeries(mean=point, lo=lo, hi=hi)
    return series, overall


def run_case_study(config: ScenarioConfig) -> CaseResult:
    """Simulate, rebalance hourly, filter by terminal case, and aggregate.

    The pooled lattice is re-rooted at each rebalance time with the steps
    remaining to the horizon; the per-grid policy is evaluated in closed
    form.  At the horizon itself the single-node rule applies: previous ReGU
    weights are kept and battery makes up the terminal portfolio.
    """
    grid = config.grid
    n_times = config.rebalance_steps + 1
    dt = config.horizon_hours / config.rebalance_steps
    times = dt * np.arange(n_times)
    sigmas = grid.sigmas
    p_b = grid.battery_unit_kw
    # dt is constant, so one model and one engine serve every rebalance
    # time; an infeasible or oversized lattice fails before any path is
    # simulated
    model = calibrate_step_model(grid, dt)
    engine = RecombiningLattice(model, grid.demands, config.rebalance_steps, p_b)
    paths, counts = _collect_paths(config)
    m = paths.shape[0]

    b_tes = np.zeros((n_times, m))
    b_ces = np.zeros((n_times, m))
    v_tes = np.zeros((n_times, m))
    v_ces = np.zeros((n_times, m))
    prev_a = np.zeros((m, grid.n_microgrids))
    for n in range(n_times):
        pg = paths[:, n, :]
        tau = config.horizon_hours - times[n]
        steps = config.rebalance_steps - n
        b_ces[n], v_ces[n] = _batch_ces(pg, grid.demands, sigmas, tau, p_b)
        value, a, b, _ = engine.allocate(pg, steps, prev_a)
        v_tes[n], b_tes[n] = value, b
        if steps > 0:
            prev_a = a

    # transposed views: each time's samples stay contiguous, so the point
    # means are summed in the same order as a 1-D mean
    metrics, overall = _bootstrap_time_metrics(
        {"b_tes": b_tes.T, "b_ces": b_ces.T, "v_tes": v_tes.T, "v_ces": v_ces.T},
        {"savings_pct": ("b_tes", "b_ces")},
        config.n_resamples,
        derive_seed(config.seed, "bootstrap"),
    )
    savings, savings_lo, savings_hi = overall["savings_pct"]
    return CaseResult(
        times=times,
        case=config.case_filter,
        n_paths=m,
        metrics=metrics,
        pg_mean=paths.mean(axis=0),
        pg_std=paths.std(axis=0),
        case_counts=counts,
        overall_savings=savings,
        overall_savings_lo=savings_lo,
        overall_savings_hi=savings_hi,
        config=config,
    )


def write_results_csv(result: CaseResult, path) -> None:
    """One row per (time, metric): t_hours,metric,case,mean,ci_lo,ci_hi."""
    case_label = format_case(result.case) if result.case else "all"

    def fmt(x):
        return format(float(x), ".10g")

    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["t_hours", "metric", "case", "mean", "ci_lo", "ci_hi"])
        for i, t in enumerate(result.times):
            for name in ("b_tes", "b_ces", "v_tes", "v_ces", "savings_pct"):
                ms = result.metrics[name]
                writer.writerow(
                    [fmt(t), name, case_label, fmt(ms.mean[i]), fmt(ms.lo[i]), fmt(ms.hi[i])]
                )
            for g in range(result.pg_mean.shape[1]):
                writer.writerow(
                    [fmt(t), f"pg_mean_{g + 1}", case_label, fmt(result.pg_mean[i, g]), "", ""]
                )
                writer.writerow(
                    [fmt(t), f"pg_std_{g + 1}", case_label, fmt(result.pg_std[i, g]), "", ""]
                )
