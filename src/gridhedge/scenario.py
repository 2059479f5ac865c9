"""Hourly rebalancing case studies comparing pooled and per-grid operation.

Physical-measure generation paths are filtered by their terminal case (which
microgrids end above/below demand).  Along each retained path the per-grid
closed-form policy and the pooled lattice policy are recomputed at every
rebalance time, and battery requirements, portfolio values, and the battery
savings of pooling are aggregated with percentile-bootstrap intervals.
"""
import csv
from dataclasses import dataclass

import numpy as np

from .ces import _policy
# config owns the scenario record and the case labels; parse_case is
# imported here too, so every case helper is still importable from scenario
from .config import CASE_GE, CASE_LT, ScenarioConfig, format_case, parse_case  # noqa: F401
from .errors import InsufficientPaths
from .lattice import calibrate_step_model, RecombiningLattice
# perfbench/traced.py times the pooled lattice by wrapping the method
# through this name; it is the same class, so the wrap reaches every caller
from .lattice import RecombiningLattice as _BatchLattice  # noqa: F401
from .gbm import simulate_paths
from .stats import BootstrapCi, percentile_ci, resampled_means


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
class CaseResult:
    times: np.ndarray
    case: "tuple[str, ...] | None"
    n_paths: int
    metrics: "dict[str, BootstrapCi]"  # arrays over time, 95% intervals
    pg_mean: np.ndarray  # (n_times, n_microgrids)
    pg_std: np.ndarray
    case_counts: "dict[str, int]"
    overall_savings: BootstrapCi  # of the time average of savings_pct

    @property
    def case_label(self) -> str:
        """The filtered case as "ge,lt", or "all" for an unfiltered run."""
        return format_case(self.case) if self.case else "all"


# ---------------------------------------------------------------------------
# Vectorized per-grid policy
# ---------------------------------------------------------------------------

def _batch_ces(pg, demands, sigmas, tau, p_b):
    """Per-grid policy across paths; pg is (m, n).  Returns (b_sum, v_sum)."""
    _, b, v = _policy(pg, demands, sigmas, tau, p_b)
    return b.sum(axis=1), v.sum(axis=1)


# ---------------------------------------------------------------------------
# Case study driver
# ---------------------------------------------------------------------------

def _collect_paths(config: ScenarioConfig):
    """Simulate physical blocks until the case bucket holds n_paths paths.

    Each path gets one integer case code whose bit (n-1-i) is set iff grid i
    ends at or above its demand.  The code selects the filtered case and is
    tallied over every simulated path.  Blocks hold ``take`` paths, except a
    last block cut short at max_simulated_paths.  Returns the first n_paths
    kept paths and the tally keyed by case labels such as "ge,lt".
    """
    grid = config.grid
    bits = 1 << np.arange(grid.n_microgrids - 1, -1, -1)
    case = config.case_filter
    wanted = None if case is None else (np.array(case) == CASE_GE) @ bits
    take = config.n_paths if case is None else max(config.n_paths, 20_000)
    tally = np.zeros(1 << grid.n_microgrids, dtype=np.int64)
    collected = []
    n_collected = 0
    examined = 0
    while n_collected < config.n_paths:
        if examined >= config.max_simulated_paths:
            if n_collected:
                # ceil(1.25 * n_paths / (n_collected / examined)), in integers
                cap = -(-5 * config.n_paths * examined // (4 * n_collected))
                advice = (
                    f"raise max_simulated_paths to {cap} "
                    "(n_paths over the accept ratio, plus 25%)"
                )
            else:
                advice = "no path matched, so no max_simulated_paths can be estimated"
            raise InsufficientPaths(
                f"case filter {format_case(case)!r} matched only "
                f"{n_collected}/{config.n_paths} of {examined} simulated paths; {advice}"
            )
        with np.errstate(over="ignore", invalid="ignore"):
            values = simulate_paths(
                grid.params,
                grid.corr,
                config.initial_kw,
                horizon=config.horizon_hours,
                n_steps=config.rebalance_steps,
                n_paths=min(take, config.max_simulated_paths - examined),
                seed=derive_seed(config.seed, "paths", examined // take),
                measure="physical",
            )
        if not np.isfinite(values).all():
            raise ValueError(
                "simulated generation overflows to inf or NaN; lower mu, sigma "
                "or horizon_hours"
            )
        examined += values.shape[0]
        codes = (values[:, -1, :] >= grid.demands) @ bits
        tally += np.bincount(codes, minlength=tally.size)
        if wanted is not None:
            values = values[codes == wanted]
        collected.append(values)
        n_collected += values.shape[0]
    paths = np.concatenate(collected, axis=0)[: config.n_paths]
    counts = {
        format_case(CASE_GE if code & bit else CASE_LT for bit in bits): int(count)
        for code, count in enumerate(tally)
        if count
    }
    return paths, counts


def _bootstrap_time_metrics(samples, n_resamples, seed):
    """95% percentile CIs from one joint resample of whole paths.

    samples: dict name -> (m, n_times) array, one row per path, including
    b_tes and b_ces.  Every metric at every time is averaged over the same
    resampled paths; savings_pct is 100*(1 - mean b_tes/mean b_ces), 0 where
    the per-grid mean vanishes.  Point means use the same exact count product
    as the resamples, so a metric that is constant over paths has its mean
    equal to both interval ends.

    Returns (series, overall): series maps each sample name and savings_pct
    to a BootstrapCi over time; overall is the BootstrapCi of the time
    average of savings_pct.
    """
    means, resampled = resampled_means(np.hstack(list(samples.values())), n_resamples, seed)
    points = dict(zip(samples, np.split(means, len(samples))))
    draws = dict(zip(samples, np.split(resampled, len(samples), axis=1)))
    points["savings_pct"], point_overall = battery_savings(points["b_tes"], points["b_ces"])
    draws["savings_pct"] = _savings_ratio(draws["b_tes"], draws["b_ces"])
    series = {name: percentile_ci(points[name], draws[name]) for name in points}
    return series, percentile_ci(point_overall, draws["savings_pct"].mean(axis=1))


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
    model = calibrate_step_model(grid, dt, horizon=config.horizon_hours)
    engine = RecombiningLattice(model, grid.demands, config.rebalance_steps, p_b)
    paths, counts = _collect_paths(config)
    m = paths.shape[0]

    # one row per path, as the bootstrap resamples whole paths
    b_tes, b_ces, v_tes, v_ces = np.zeros((4, m, n_times))
    prev_a = np.zeros((m, grid.n_microgrids))
    for n in range(n_times):
        pg = paths[:, n, :]
        tau = config.horizon_hours - times[n]
        steps = config.rebalance_steps - n
        b_ces[:, n], v_ces[:, n] = _batch_ces(pg, grid.demands, sigmas, tau, p_b)
        value, a, b, _ = engine.allocate(pg, steps, prev_a)
        v_tes[:, n], b_tes[:, n] = value, b
        prev_a = a

    metrics, savings = _bootstrap_time_metrics(
        {"b_tes": b_tes, "b_ces": b_ces, "v_tes": v_tes, "v_ces": v_ces},
        config.n_resamples,
        derive_seed(config.seed, "bootstrap"),
    )
    return CaseResult(
        times=times,
        case=config.case_filter,
        n_paths=m,
        metrics=metrics,
        pg_mean=paths.mean(axis=0),
        pg_std=paths.std(axis=0),
        case_counts=counts,
        overall_savings=savings,
    )


def write_results_csv(result: CaseResult, path) -> None:
    """One row per (time, metric): t_hours,metric,case,mean,ci_lo,ci_hi."""
    case_label = result.case_label

    def fmt(x):
        return format(float(x), ".10g")

    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["t_hours", "metric", "case", "mean", "ci_lo", "ci_hi"])
        for i, t in enumerate(result.times):
            for name, ci in result.metrics.items():
                writer.writerow(
                    [fmt(t), name, case_label, fmt(ci.mean[i]), fmt(ci.lo[i]), fmt(ci.hi[i])]
                )
            for g in range(result.pg_mean.shape[1]):
                writer.writerow(
                    [fmt(t), f"pg_mean_{g + 1}", case_label, fmt(result.pg_mean[i, g]), "", ""]
                )
                writer.writerow(
                    [fmt(t), f"pg_std_{g + 1}", case_label, fmt(result.pg_std[i, g]), "", ""]
                )
