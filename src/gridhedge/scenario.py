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
from .config import CASE_GE, CASE_LT, ScenarioConfig, format_case
from .errors import InsufficientPaths
from .lattice import calibrate_step_model, first_level_bytes, RecombiningLattice
# perfbench/traced.py times the pooled lattice by wrapping the method
# through this name; it is the same class, so the wrap reaches every caller
from .lattice import RecombiningLattice as _BatchLattice  # noqa: F401
from .gbm import simulate_paths
from .stats import BootstrapCi, percentile_ci, resampled_means, resampled_means_bytes

# The most memory a case study may take, in bytes (2 GiB).  A config whose
# estimate (case_study_bytes) exceeds it is refused before any path is
# simulated.
DEFAULT_MEMORY_BUDGET = 2 * 2**30


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

def _block_paths(config: ScenarioConfig) -> int:
    """Paths per simulated block: n_paths, and at least 20 000 under a case filter."""
    return config.n_paths if config.case_filter is None else max(config.n_paths, 20_000)


def _check_generation(values, n_paths: int, what="simulated generation",
                      keys="mu, sigma, horizon_hours or initial_kw") -> None:
    """Refuse generation that overflows the path moments (lower ``keys``) or underflows to 0."""
    # the path moments sum n_paths squares, which stay finite below this
    largest = np.sqrt(np.finfo(float).max / n_paths)
    if not (values <= largest).all():  # NaN too
        raise ValueError(
            f"{what} exceeds {largest:.3g} kW, where the path moments overflow; lower {keys}"
        )
    if not (values > 0).all():
        # the per-grid policy divides the demand by the generation
        raise ValueError(f"{what} underflows to 0; raise mu, or lower sigma or horizon_hours")


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
    take = _block_paths(config)
    tally = np.zeros(1 << grid.n_microgrids, dtype=np.int64)
    collected = []
    n_collected = 0
    examined = 0
    while n_collected < config.n_paths:
        if examined >= config.max_simulated_paths:
            cap = None
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
                f"{n_collected}/{config.n_paths} of {examined} simulated paths; {advice}",
                {"max_simulated_paths": cap},
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
            )
        _check_generation(values, config.n_paths)
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

    The arrays are taken out of samples and handed to ``resampled_means``,
    which drops them once their columns are split, so the draws run beside
    the split alone.  Each entry is left an empty (m, 0) array: samples
    keeps its names and its path count m for the callers that read them
    after the bootstrap.
    """
    blocks = list(samples.values())
    samples.update(dict.fromkeys(samples, np.empty((len(blocks[0]), 0))))
    means, resampled = resampled_means(blocks, n_resamples, seed)
    points = dict(zip(samples, np.split(means, len(samples))))
    draws = dict(zip(samples, np.split(resampled, len(samples), axis=1)))
    points["savings_pct"], point_overall = battery_savings(points["b_tes"], points["b_ces"])
    draws["savings_pct"] = _savings_ratio(draws["b_tes"], draws["b_ces"])
    series = {name: percentile_ci(points[name], draws[name]) for name in points}
    return series, percentile_ci(point_overall, draws["savings_pct"].mean(axis=1))


def case_study_bytes(config: ScenarioConfig) -> int:
    """An upper estimate of ``run_case_study``'s peak memory, in bytes.

    The run has three phases, and the estimate is the largest of them:
    - collecting: one simulation block twice over (its draws and paths, or
      its paths and their kept copy) beside the paths kept so far, or the
      kept paths and their joined copy;
    - rebalancing: the kept paths and one temporary of their size (for
      their moments), the four metric arrays, the lattice at its deepest
      and the loop's per-path arrays;
    - the bootstrap, the larger of its two parts: the split, which holds
      the metric arrays and their exact parts; and the counts, after the
      metric arrays are freed, which hold ``resampled_means``' count phase
      and the savings and percentile temporaries, which take at most as
      much as the resampled means.
    """
    n = config.grid.n_microgrids
    n_times = config.rebalance_steps + 1
    m = config.n_paths
    block = _block_paths(config)
    # a filtered run may keep up to one block beyond n_paths before it cuts
    kept = m if config.case_filter is None else m + block
    path = 8 * n_times * n
    table = 4 * 8 * m * n_times
    collecting = path * max(2 * block + m, 2 * kept)
    # per path: the lattice's child values, their closed-form fit and its
    # residual, the sort of the roots and the per-grid policy's temporaries
    loop = 8 * m * (4 * (1 << n) + 10 * n + 16)
    rebalancing = 2 * kept * path + table + first_level_bytes(n, config.rebalance_steps) + loop
    k = 4 * n_times
    resampled = 8 * config.n_resamples * k
    split = 3 * table  # the metric arrays and their split, twice their size
    counts = resampled_means_bytes(m, k, config.n_resamples) + resampled
    bootstrap = max(split, counts)
    return max(collecting, rebalancing, bootstrap)


def _kept_path_metrics(config: ScenarioConfig, engine: RecombiningLattice, times):
    """Collect the kept paths and rebalance along each one at every time.

    Returns (samples, pg_mean, pg_std, counts): samples maps b_tes, b_ces,
    v_tes and v_ces to (m, n_times) arrays, one row per path, as the
    bootstrap resamples whole paths; pg_mean and pg_std are the paths'
    (n_times, n_microgrids) moments, and counts is the case tally.  The
    paths and the loop's arrays are freed on return, so the bootstrap holds
    the sample once.
    """
    grid = config.grid
    sigmas = grid.sigmas
    p_b = grid.battery_unit_kw
    paths, counts = _collect_paths(config)
    m = paths.shape[0]
    b_tes, b_ces, v_tes, v_ces = np.zeros((4, m, times.size))
    prev_a = np.zeros((m, grid.n_microgrids))
    for n in range(times.size):
        pg = paths[:, n, :]
        tau = config.horizon_hours - times[n]
        steps = config.rebalance_steps - n
        b_ces[:, n], v_ces[:, n] = _batch_ces(pg, grid.demands, sigmas, tau, p_b)
        value, a, b, _ = engine.allocate(pg, steps, prev_a)
        v_tes[:, n], b_tes[:, n] = value, b
        prev_a = a
    samples = {"b_tes": b_tes, "b_ces": b_ces, "v_tes": v_tes, "v_ces": v_ces}
    return samples, paths.mean(axis=0), paths.std(axis=0), counts


def run_case_study(config: ScenarioConfig) -> CaseResult:
    """Simulate, rebalance hourly, filter by terminal case, and aggregate.

    The pooled lattice is re-rooted at each rebalance time with the steps
    remaining to the horizon; the per-grid policy is evaluated in closed
    form.  At the horizon itself the single-node rule applies: previous ReGU
    weights are kept and battery makes up the terminal portfolio.
    """
    grid = config.grid
    # with the median terminal generation out of range, under a 2^-n_paths
    # share of seeds could run and no step count mends it, so it is refused
    # before the calibration could advise one; a lower sigma raises the median
    with np.errstate(over="ignore"):
        drift = np.array([p.mu for p in grid.params]) - grid.sigmas**2 / 2.0
        median = np.exp(np.log(config.initial_kw) + drift * config.horizon_hours)
    _check_generation(median, config.n_paths, "the median simulated generation",
                      "mu, horizon_hours or initial_kw")
    # dt is constant, so one model and one engine serve every rebalance
    # time; an infeasible or oversized lattice fails before any path is
    # simulated, and so does a run that would overrun the memory budget
    model = calibrate_step_model(grid, config.horizon_hours, config.rebalance_steps)
    engine = RecombiningLattice(model, grid.demands, grid.battery_unit_kw)
    need = case_study_bytes(config)
    if need > DEFAULT_MEMORY_BUDGET:
        raise ValueError(
            f"the case study needs an estimated {-(-need >> 20):,} MiB, over the "
            f"{DEFAULT_MEMORY_BUDGET >> 20:,} MiB memory budget; lower n_paths "
            f"({config.n_paths}), rebalance_steps ({config.rebalance_steps}) or "
            f"n_resamples ({config.n_resamples})"
        )
    times = model.dt * np.arange(model.steps + 1)
    samples, pg_mean, pg_std, counts = _kept_path_metrics(config, engine, times)
    metrics, savings = _bootstrap_time_metrics(
        samples, config.n_resamples, derive_seed(config.seed, "bootstrap")
    )
    return CaseResult(
        times=times,
        case=config.case_filter,
        n_paths=len(samples["b_tes"]),
        metrics=metrics,
        pg_mean=pg_mean,
        pg_std=pg_std,
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
