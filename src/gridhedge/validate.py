"""Self-contained validation checks behind the ``validate`` CLI command.

The oracle suite re-derives the closed-form allocator from an independent
normal CDF (scipy's erfc, not the C library's erfc behind the library Phi),
checks lattice/closed-form agreement, calibration residuals, and the
lattice value against a Monte Carlo oracle.  The stats suite checks the KS
threshold, its rejection-rate calibration, the chi-square survival anchor
and the survival function against scipy's chdtrc, and bootstrap interval
width.  scipy is imported inside the checks that use it, so importing this
module does not load scipy.  scipy is the optional ``validate`` extra:
without it ``run_suite`` raises ValueError before any check runs.
"""
import math
from dataclasses import dataclass

import numpy as np

from . import ces
from .gbm import CorrelationMatrix, GbmParams, chi_square_survival, simulate_paths
from .grid import GridEnsemble
from .lattice import calibrate_step_model, dynamic_allocation, moment_residuals, tes_value_mc
from .scenario import derive_seed
from .stats import bootstrap_ci, ks_critical_value, ks_two_sample


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


def _independent_cdf(x: float) -> float:
    # deliberately scipy's erfc, a different implementation from the library Phi
    from scipy.special import erfc

    return 0.5 * float(erfc(-x / math.sqrt(2.0)))


def _put_value(p, d, sigma, tau) -> float:
    log_ratio = math.log(d / p)
    half = sigma * sigma * tau / 2.0
    scale = sigma * math.sqrt(tau)
    return d * _independent_cdf((log_ratio + half) / scale) - p * _independent_cdf(
        (log_ratio - half) / scale
    )


def check_ces_closed_form() -> CheckResult:
    rng = np.random.Generator(np.random.Philox(key=2024))
    worst = 0.0
    for _ in range(1000):
        d = rng.uniform(5.0, 50.0)
        p = d * rng.uniform(0.5, 2.0)
        sigma = rng.uniform(0.01, 0.1)
        tau = rng.uniform(0.1, 10.0)
        spec = ces.MicrogridSpec(demand=d, gbm=GbmParams(0.0, sigma))
        got = ces.ces_portfolio_value(p, spec, 0.0, tau)
        want = _put_value(p, d, sigma, tau)
        worst = max(worst, abs(got - want) / d)
    return CheckResult(
        "ces_closed_form_vs_independent_cdf",
        worst < 1e-10,
        f"max |error|/D = {worst:.3e} (tolerance 1e-10)",
    )


def _demo_grid() -> GridEnsemble:
    return GridEnsemble(
        params=(GbmParams(0.006, 0.03), GbmParams(0.005, 0.04)),
        corr=CorrelationMatrix.pairwise(0.6),
        demands=np.array([20.0, 25.0]),
        battery_unit_kw=1.0,
    )


def check_lattice_convergence() -> CheckResult:
    spec = ces.MicrogridSpec(demand=20.0, gbm=GbmParams(0.006, 0.03))
    grid = GridEnsemble(
        params=(spec.gbm,),
        corr=CorrelationMatrix.identity(1),
        demands=np.array([20.0]),
        battery_unit_kw=1.0,
    )
    model = calibrate_step_model(grid, dt=5.0 / 200)
    value, _ = dynamic_allocation(np.array([20.0]), grid.demands, model, 200, None, 1.0)
    want = ces.ces_portfolio_value(20.0, spec, 0.0, 5.0)
    rel = abs(value - want) / want
    return CheckResult(
        "lattice_to_closed_form_convergence",
        rel < 0.01,
        f"N=200 relative error {rel:.4%} (tolerance 1%)",
    )


def check_calibration_residuals() -> CheckResult:
    """Moment residuals of one-step models over one- and two-grid sweeps at dt = 1 h."""
    sigmas = (0.01, 0.05, 0.1)
    grids = [((sigma,), 1.0) for sigma in np.union1d(np.linspace(0.01, 0.1, 7), sigmas)]
    grids += [((s1, s2), rho) for s1 in sigmas for s2 in sigmas
              for rho in np.union1d(np.linspace(-0.9, 0.9, 7), (-0.3, 0.0, 0.3))]
    worst = 0.0
    for grid_sigmas, rho in grids:
        grid = GridEnsemble(
            params=tuple(GbmParams(0.0, sigma) for sigma in grid_sigmas),
            corr=CorrelationMatrix.pairwise(rho, len(grid_sigmas)),
            demands=np.ones(len(grid_sigmas)),
            battery_unit_kw=1.0,
        )
        model = calibrate_step_model(grid, dt=1.0)
        worst = max(worst, np.max(np.abs(moment_residuals(model, grid))))
    return CheckResult(
        "calibration_moment_residuals",
        worst < 1e-10,
        f"max residual {worst:.3e} (tolerance 1e-10)",
    )


def check_tes_mc_agreement() -> CheckResult:
    """Lattice root value against the transformed-measure Monte Carlo oracle."""

    grid = _demo_grid()
    model = calibrate_step_model(grid, dt=1.0)
    value5, _ = dynamic_allocation(
        np.array([20.0, 25.0]), grid.demands, model, 5, None, 1.0
    )
    fine_model = calibrate_step_model(grid, dt=5.0 / 80)
    value80, _ = dynamic_allocation(
        np.array([20.0, 25.0]), grid.demands, fine_model, 80, None, 1.0
    )
    estimate, stderr = tes_value_mc(grid, np.array([20.0, 25.0]), 0.0, 5.0, 200_000, 31)
    margin = 3 * stderr + abs(value5 - value80) + 0.01 * estimate
    ok = abs(value5 - estimate) <= margin
    return CheckResult(
        "tes_lattice_vs_monte_carlo",
        ok,
        f"|{value5:.4f} - {estimate:.4f}| <= {margin:.4f}",
    )


def check_ks_critical() -> CheckResult:
    value = ks_critical_value(10_000, 10_000, 0.05)
    return CheckResult(
        "ks_critical_value",
        abs(value - 0.0192) <= 1e-4,
        f"c(1e4,1e4,5%) = {value:.5f} (target 0.0192 +/- 1e-4)",
    )


def check_ks_calibration() -> CheckResult:
    """500 trials, each splitting one 20 000-path draw into two halves."""
    critical = ks_critical_value(10_000, 10_000, 0.05)
    params = GbmParams(0.006, 0.03)
    rejections = 0
    for trial in range(500):
        terminal = simulate_paths(
            [params],
            CorrelationMatrix.identity(1),
            np.array([20.0]),
            horizon=5.0,
            n_steps=1,
            n_paths=20_000,
            seed=derive_seed(501, "ks", trial),
        )[:, -1, 0]
        if ks_two_sample(terminal[:10_000], terminal[10_000:]) > critical:
            rejections += 1
    rate = rejections / 500
    return CheckResult(
        "ks_same_distribution_rejection_rate",
        0.04 <= rate <= 0.06,
        f"rejection rate {rate:.3f} over 500 trials (target 0.04-0.06)",
    )


def check_chi_square_anchor() -> CheckResult:
    p = chi_square_survival(18.86, 13)
    return CheckResult(
        "chi_square_survival_anchor",
        abs(p - 0.128) <= 0.002,
        f"sf(18.86, 13) = {p:.4f} (target 0.128 +/- 0.002)",
    )


def check_chi_square_survival() -> CheckResult:
    """The library survival function against scipy's chdtrc on a fixed grid."""
    from scipy.special import chdtrc

    worst = 0.0
    for dof in (1, 2, 3, 13, 14, 99, 300, 997, 9_997):
        for x in np.geomspace(1e-6, 4.0 * dof + 400.0, 25):
            want = float(chdtrc(dof, x))
            if want >= 1e-300:
                got = chi_square_survival(float(x), dof)
                worst = max(worst, abs(got - want) / want)
    return CheckResult(
        "chi_square_survival_vs_scipy",
        worst < 1e-9,
        f"max relative error {worst:.3e} (tolerance 1e-9)",
    )


def check_bootstrap_width() -> CheckResult:
    rng = np.random.Generator(np.random.Philox(key=99))
    sample = rng.standard_normal(10_000)
    interval = bootstrap_ci(sample, n_resamples=2_000, level=0.95, seed=99)
    width = interval.hi - interval.lo
    want = 2.0 * 1.96 / 100.0
    ok = abs(width - want) / want < 0.10
    return CheckResult(
        "bootstrap_interval_width",
        ok,
        f"width {width:.5f} vs CLT {want:.5f} (tolerance 10%)",
    )


ORACLE_CHECKS = (
    check_ces_closed_form,
    check_lattice_convergence,
    check_calibration_residuals,
    check_tes_mc_agreement,
)
STATS_CHECKS = (
    check_ks_critical,
    check_ks_calibration,
    check_chi_square_anchor,
    check_chi_square_survival,
    check_bootstrap_width,
)


def run_suite(suite: str, inject_phi_fault: bool = False):
    """Run a named suite; optionally perturb the allocator's normal CDF.

    The fault injection rebinds the module-level CDF seam used by the
    closed-form allocator, which a healthy oracle check must detect.
    """
    try:
        import scipy.special  # noqa: F401  (each suite has a scipy oracle)
    except ImportError:
        raise ValueError(
            "validate compares against scipy, which is not installed; "
            "install the extra with: pip install 'gridhedge[validate]'"
        ) from None
    checks = {
        "oracle": ORACLE_CHECKS,
        "stats": STATS_CHECKS,
        "all": ORACLE_CHECKS + STATS_CHECKS,
    }[suite]
    results = []
    original = ces._normal_cdf
    try:
        if inject_phi_fault:
            ces._normal_cdf = lambda x: original(x) + 5e-7
        for check in checks:
            results.append(check())
    finally:
        ces._normal_cdf = original
    return results
