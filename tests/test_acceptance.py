"""Acceptance criteria, one test per criterion, each reporting PASS/FAIL.

Every expected value is either computed here from an independent oracle
(mpmath CDF, Monte Carlo, brute-force residuals) or is a published anchor
checked at its stated tolerance.  Criteria 4 and 5a encode published
battery-savings reference figures that the implemented algorithms provably
do not produce (the pooled and per-grid battery legs nearly coincide at the
money, and one step before the horizon the replication solve is
probability-free); they are asserted faithfully and fail, with measured
values printed in the summary below.
"""
import time

import mpmath
import numpy as np
import pytest

import gridhedge as gh
from gridhedge import validate

import reference_tree
from conftest import record_criterion
from reference_tree import tree_levels

mpmath.mp.dps = 30

DEMO_PARAMS = (gh.GbmParams(0.006, 0.03), gh.GbmParams(0.005, 0.04))


def demo_grid_2():
    return gh.GridEnsemble(
        params=DEMO_PARAMS,
        corr=gh.CorrelationMatrix.pairwise(0.6),
        demands=np.array([20.0, 25.0]),
        battery_unit_kw=1.0,
    )


def single_grid(sigma=0.03, demand=20.0):
    return gh.GridEnsemble(
        params=(gh.GbmParams(0.006, sigma),),
        corr=gh.CorrelationMatrix.identity(1),
        demands=np.array([demand]),
        battery_unit_kw=1.0,
    )


def oracle_put(p, d, sigma, tau):
    log_ratio = mpmath.log(mpmath.mpf(d) / mpmath.mpf(p))
    half = mpmath.mpf(sigma) ** 2 * tau / 2
    scale = mpmath.mpf(sigma) * mpmath.sqrt(tau)
    return float(
        d * mpmath.ncdf((log_ratio + half) / scale)
        - p * mpmath.ncdf((log_ratio - half) / scale)
    )


def test_criterion_1_ces_closed_form_oracle():
    """Valuation equals the high-precision lognormal put at 1e3 points."""
    rng = np.random.Generator(np.random.Philox(key=101))
    points = []
    for _ in range(1000):
        d = rng.uniform(5.0, 50.0)
        points.append(
            (d * rng.uniform(0.5, 2.0), d, rng.uniform(0.01, 0.1), rng.uniform(0.1, 10.0))
        )
    start = time.perf_counter()
    got = [
        gh.ces_portfolio_value(
            p, gh.MicrogridSpec(demand=d, gbm=gh.GbmParams(0.0, s)), 0.0, tau
        )
        for p, d, s, tau in points
    ]
    elapsed = time.perf_counter() - start
    worst = max(
        abs(g - oracle_put(p, d, s, tau)) / d
        for g, (p, d, s, tau) in zip(got, points)
    )
    ok = worst < 1e-10 and elapsed < 1.0
    record_criterion(
        "criterion_1_ces_closed_form",
        ok,
        f"max |err|/D = {worst:.2e} (tol 1e-10), runtime {elapsed:.2f}s (budget 1s)",
    )
    assert worst < 1e-10
    assert elapsed < 1.0


def test_criterion_2_lattice_convergence():
    """Single-asset lattice agrees with the closed form within 1%."""
    start = time.perf_counter()
    fast = validate.check_lattice_convergence()
    fast_elapsed = time.perf_counter() - start

    spec = gh.MicrogridSpec(demand=20.0, gbm=gh.GbmParams(0.006, 0.03))
    grid = single_grid()
    want = gh.ces_portfolio_value(20.0, spec, 0.0, 5.0)

    start = time.perf_counter()
    tree_values = {}
    for n in (8, 16):
        model = gh.calibrate_step_model(grid, 5.0, n)
        tree_values[n], _ = reference_tree.tree_allocation(
            np.array([20.0]), grid.demands, model, n, None, 1.0
        )
    extrapolated = 2 * tree_values[16] - tree_values[8]  # kills the O(1/N) term
    tree_elapsed = time.perf_counter() - start
    rel_tree = abs(extrapolated - want) / want

    ok = fast.passed and fast_elapsed < 5.0 and rel_tree < 0.01 and tree_elapsed < 60.0
    record_criterion(
        "criterion_2_lattice_convergence",
        ok,
        f"{fast.detail} in {fast_elapsed:.2f}s; "
        f"tree 2*V16-V8 rel err {rel_tree:.4%} in {tree_elapsed:.1f}s",
    )
    assert fast.passed and fast_elapsed < 5.0, fast.detail
    assert rel_tree < 0.01 and tree_elapsed < 60.0


def test_criterion_3_moment_matching():
    """Calibration residuals below 1e-10 across the parameter sweep."""
    start = time.perf_counter()
    result = validate.check_calibration_residuals()
    elapsed = time.perf_counter() - start
    record_criterion(
        "criterion_3_moment_matching",
        result.passed and elapsed < 1.0,
        f"{result.detail}, runtime {elapsed:.2f}s (budget 1s)",
    )
    assert result.passed, result.detail
    assert elapsed < 1.0


def test_criterion_4_deterministic_initial_savings():
    """Published t=0 savings of 13.50% +/- 1.0pp at the demo parameters.

    The replication extraction prescribed by the algorithms yields ~0.45%
    here: the pooled battery leg equals sum(D) * P(net deficit) ~ 23.11 while
    the per-grid leg is sum(D_i * Phi(d_i+)) ~ 23.21, so no consistent
    measure or discretization reaches 13.50%.  Asserted as stated.
    """
    grid = demo_grid_2()
    start = time.perf_counter()
    model = gh.calibrate_step_model(grid, 5.0, 5)
    _, alloc = gh.dynamic_allocation(
        np.array([20.0, 25.0]), grid.demands, model, 5, None, 1.0
    )
    specs = [
        gh.MicrogridSpec(demand=d, gbm=p) for d, p in zip(grid.demands, grid.params)
    ]
    b_ces = gh.ces_total_battery([20.0, 25.0], specs, 0.0, 5.0, 1.0)
    savings = 100.0 * (1.0 - alloc.b / b_ces)
    elapsed = time.perf_counter() - start
    ok = abs(savings - 13.50) <= 1.0 and elapsed < 1.0
    record_criterion(
        "criterion_4_initial_savings",
        ok,
        f"savings(0) = {savings:.2f}% vs published 13.50% +/- 1.0pp "
        f"(b_tes={alloc.b:.4f}, b_ces={b_ces:.4f}); published anchor is not "
        f"reproducible from the stated algorithms",
    )
    assert abs(savings - 13.50) <= 1.0, (
        f"measured {savings:.2f}%; published anchor unattainable by the "
        "specified extraction"
    )


def _run_three_cases(n_paths=10_000, seed=2025):
    grid = demo_grid_2()
    results = {}
    for case in (("ge", "ge"), ("ge", "lt"), ("lt", "lt")):
        config = gh.ScenarioConfig(
            grid=grid,
            initial_kw=np.array([20.0, 25.0]),
            horizon_hours=5.0,
            rebalance_steps=5,
            n_paths=n_paths,
            seed=seed,
            case_filter=case,
            n_resamples=1_000,
        )
        results[case] = gh.run_case_study(config)
    return results


@pytest.fixture(scope="module")
def three_cases():
    start = time.perf_counter()
    results = _run_three_cases()
    elapsed = time.perf_counter() - start
    return results, elapsed


def test_criterion_5a_table_overall_savings(three_cases):
    """Published overall savings (36.94, 49.26, 12.25) +/- 5pp per case.

    Not reproducible from the stated algorithms (measured ~+11, ~-2, ~-0.5;
    one step before the horizon the extraction is probability-free, so no
    measure choice recovers the published in-the-money rows); asserted
    faithfully as stated.
    """
    results, elapsed = three_cases
    published = {("ge", "ge"): 36.94, ("ge", "lt"): 49.26, ("lt", "lt"): 12.25}
    details = []
    ok = elapsed < 600.0
    for case, target in published.items():
        got = results[case].overall_savings.mean
        details.append(f"{','.join(case)}: {got:.2f} vs {target:.2f}")
        ok = ok and abs(got - target) <= 5.0
    record_criterion(
        "criterion_5a_table_overall_savings",
        ok,
        "; ".join(details) + f"; runtime {elapsed:.0f}s (budget 600s); published "
        "trajectory not reproducible from the stated algorithms",
    )
    for case, target in published.items():
        got = results[case].overall_savings.mean
        assert abs(got - target) <= 5.0, (
            f"case {case}: measured {got:.2f} vs published {target:.2f}"
        )


def test_criterion_5b_case2_terminal_ces_battery(three_cases):
    """Mean per-grid terminal battery in the surplus/deficit case is 25."""
    results, elapsed = three_cases
    got = results[("ge", "lt")].metrics["b_ces"].mean[-1]
    ok = abs(got - 25.0) <= 1.0 and elapsed < 600.0
    record_criterion(
        "criterion_5b_case2_terminal_ces_battery",
        ok,
        f"mean b_ces(T_f) = {got:.3f} (target 25 +/- 1), runtime {elapsed:.0f}s",
    )
    assert abs(got - 25.0) <= 1.0
    assert elapsed < 600.0


def test_criterion_6_ks_threshold_and_calibration():
    """Threshold anchor 0.0192 and a 4-6% same-distribution rejection rate."""
    critical = gh.ks_critical_value(10_000, 10_000, 0.05)
    anchor_ok = abs(critical - 0.0192) <= 1e-4
    calibration = validate.check_ks_calibration()
    record_criterion(
        "criterion_6_ks_critical_value",
        anchor_ok and calibration.passed,
        f"critical {critical:.5f} (target 0.0192 +/- 1e-4); {calibration.detail}",
    )
    assert anchor_ok
    assert calibration.passed, calibration.detail


def test_criterion_7_chi_square_anchor():
    """Survival function at the published statistic/dof gives p = 0.128."""
    result = validate.check_chi_square_anchor()
    record_criterion("criterion_7_chi_square_p_value", result.passed, result.detail)
    assert result.passed, result.detail


def test_criterion_8_hedging_replication():
    """Discretized almost-sure replication: RMS error shrinks like sqrt(dt).

    The same Brownian paths are hedged at 100 and 1000 rebalances (the
    coarse grid subsamples the fine one), isolating the discretization
    effect; the RMS ratio must exceed 3 (the order-1/2 theory gives ~3.16).
    """
    spec = gh.MicrogridSpec(demand=20.0, gbm=gh.GbmParams(0.006, 0.03))
    start = time.perf_counter()
    ens = gh.simulate_paths(
        [spec.gbm], gh.CorrelationMatrix.identity(1), np.array([20.0]),
        horizon=5.0, n_steps=1_000, n_paths=10_000, seed=812,
    )
    fine = ens[:, :, 0]
    rms = {}
    for n_steps, paths in ((100, fine[:, ::10]), (1_000, fine)):
        result = gh.hedge_backtest(spec, paths, 5.0)
        rms[n_steps] = float(np.sqrt(np.mean(result.terminal_errors**2)))
    elapsed = time.perf_counter() - start
    ok = rms[1_000] < rms[100] / 3.0 and elapsed < 120.0
    record_criterion(
        "criterion_8_hedging_replication",
        ok,
        f"RMS(100)={rms[100]:.5f}, RMS(1000)={rms[1_000]:.5f}, "
        f"ratio {rms[100] / rms[1_000]:.2f} (need > 3), runtime {elapsed:.0f}s",
    )
    assert rms[1_000] < rms[100] / 3.0
    assert elapsed < 120.0


def test_criterion_9_property_suites():
    """PDE residual, dominance, tree martingale, replication exactness,
    probability conservation, and seed determinism on randomized inputs."""
    rng = np.random.Generator(np.random.Philox(key=909))
    spec = gh.MicrogridSpec(demand=20.0, gbm=gh.GbmParams(0.006, 0.03))

    # valuation solves dV/dt + sigma^2 P^2 V_PP / 2 = 0 (100 random points)
    worst_pde = 0.0
    for _ in range(100):
        p = 20.0 * rng.uniform(0.85, 1.15)
        t = rng.uniform(0.5, 4.0)
        dt, dp = 1e-5, 5e-4 * p
        v_t = (
            gh.ces_portfolio_value(p, spec, t + dt, 5.0)
            - gh.ces_portfolio_value(p, spec, t - dt, 5.0)
        ) / (2 * dt)
        v_pp = (
            gh.ces_portfolio_value(p + dp, spec, t, 5.0)
            - 2 * gh.ces_portfolio_value(p, spec, t, 5.0)
            + gh.ces_portfolio_value(p - dp, spec, t, 5.0)
        ) / dp**2
        worst_pde = max(worst_pde, abs(v_t + 0.5 * 0.03**2 * p**2 * v_pp))
    pde_ok = worst_pde < 1e-6 * 20.0

    # pooled value never exceeds the sum of per-grid values (100 draws)
    dominance_ok = True
    for _ in range(100):
        sigmas = rng.uniform(0.01, 0.1, 2)
        rho = rng.uniform(-0.9, 0.9)
        demands = rng.uniform(10.0, 40.0, 2)
        root = demands * rng.uniform(0.8, 1.25, 2)
        grid = gh.GridEnsemble(
            params=(gh.GbmParams(0.0, sigmas[0]), gh.GbmParams(0.0, sigmas[1])),
            corr=gh.CorrelationMatrix.pairwise(rho),
            demands=demands,
            battery_unit_kw=1.0,
        )
        model = gh.calibrate_step_model(grid, 3.0, 3)
        leaves = reference_tree.forward_propagate(root, model, 3)
        pooled, _ = reference_tree.backpropagate(leaves, demands)
        separate = sum(
            leaf.path_prob
            * sum(max(demands[i] - leaf.pg[i], 0.0) for i in range(2))
            for leaf in leaves
        )
        dominance_ok = dominance_ok and pooled <= separate + 1e-9

        # martingale identity and probability conservation on the same trees
        assert abs(sum(leaf.path_prob for leaf in leaves) - 1.0) < 1e-9
        for level in tree_levels(leaves)[1:]:
            for node in level:
                want = sum(c.hop_prob * c.value for c in node.children)
                assert abs(node.value - want) <= 1e-12 * max(1.0, abs(want))

    # single-asset replication residual at every internal node (100 draws)
    replication_ok = True
    for _ in range(100):
        sigma = rng.uniform(0.01, 0.1)
        demand = rng.uniform(10.0, 40.0)
        grid = single_grid(sigma=sigma, demand=demand)
        model = gh.calibrate_step_model(grid, 4.0, 4)
        leaves = reference_tree.forward_propagate(np.array([demand * rng.uniform(0.9, 1.1)]), model, 4)
        reference_tree.backpropagate(leaves, grid.demands)
        for _, alloc in reference_tree.replicate_internal(leaves, 1.0):
            replication_ok = replication_ok and alloc.residual <= 1e-10

    # seed determinism across 100 seeds
    determinism_ok = True
    corr = gh.CorrelationMatrix.pairwise(0.6)
    for seed in range(100):
        a = gh.simulate_paths(
            list(DEMO_PARAMS), corr, np.array([20.0, 25.0]),
            horizon=5.0, n_steps=5, n_paths=16, seed=seed,
        )
        b = gh.simulate_paths(
            list(DEMO_PARAMS), corr, np.array([20.0, 25.0]),
            horizon=5.0, n_steps=5, n_paths=16, seed=seed,
        )
        determinism_ok = determinism_ok and np.array_equal(a, b)

    ok = pde_ok and dominance_ok and replication_ok and determinism_ok
    record_criterion(
        "criterion_9_property_suites",
        ok,
        f"pde(max {worst_pde:.2e})={pde_ok}, dominance={dominance_ok}, "
        f"replication={replication_ok}, determinism={determinism_ok}, "
        "martingale+probability checked inline",
    )
    assert pde_ok and dominance_ok and replication_ok and determinism_ok
