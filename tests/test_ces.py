"""Closed-form per-grid allocation against independent oracles.

Expected values are computed in-test from an arbitrary-precision normal CDF
(mpmath), from Monte Carlo under the transformed measure, and from finite
differences for the valuation identity; none of them route through the
package's own CDF.
"""
import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import gridhedge as gh
from gridhedge.errors import (
    DegenerateVolatility,
    NonPositiveGeneration,
    TimeOutOfRange,
)

mpmath.mp.dps = 50


def phi(x):
    return float(mpmath.ncdf(mpmath.mpf(x)))


def oracle_put(p, d, sigma, tau):
    """Zero-rate lognormal put via the high-precision CDF."""
    log_ratio = mpmath.log(mpmath.mpf(d) / mpmath.mpf(p))
    half = mpmath.mpf(sigma) ** 2 * tau / 2
    scale = mpmath.mpf(sigma) * mpmath.sqrt(tau)
    return float(d * mpmath.ncdf((log_ratio + half) / scale)
                 - p * mpmath.ncdf((log_ratio - half) / scale))


SPEC1 = gh.MicrogridSpec(demand=20.0, gbm=gh.GbmParams(0.006, 0.03), label="one")


class TestAllocation:
    def test_deep_surplus(self):
        alloc = gh.ces_allocation(1e9, SPEC1, 0.0, 5.0, 1.0)
        assert alloc.a_hat == pytest.approx(0.0, abs=1e-12)
        assert alloc.b_hat == pytest.approx(0.0, abs=1e-12)

    def test_terminal_deficit_limit(self):
        spec = gh.MicrogridSpec(demand=20.0, gbm=gh.GbmParams(0.0, 0.03))
        alloc = gh.ces_allocation(10.0, spec, 5.0 - 1e-6, 5.0, 2.0)
        assert alloc.a_hat == pytest.approx(-1.0, abs=1e-9)
        assert alloc.b_hat == pytest.approx(20.0 / 2.0, abs=1e-9)

    def test_at_the_money_against_high_precision_cdf(self):
        # ln ratio 0, sigma^2 tau/2 = 0.00225, sigma sqrt(tau) = 0.0670820
        alloc = gh.ces_allocation(20.0, SPEC1, 0.0, 5.0, 1.0)
        arg = 0.00225 / (0.03 * np.sqrt(5.0))
        assert alloc.a_hat == pytest.approx(-phi(-arg), abs=1e-12)
        assert alloc.b_hat == pytest.approx(20.0 * phi(arg), abs=1e-10)
        assert alloc.b_hat == pytest.approx(10.2676, abs=5e-5)
        assert alloc.a_hat == pytest.approx(-0.48662, abs=5e-6)

    def test_terminal_rule_at_t_f(self):
        deficit = gh.ces_allocation(15.0, SPEC1, 5.0, 5.0, 1.0)
        assert (deficit.a_hat, deficit.b_hat) == (-1.0, 20.0)
        surplus = gh.ces_allocation(20.0, SPEC1, 5.0, 5.0, 1.0)  # boundary is surplus
        assert (surplus.a_hat, surplus.b_hat) == (0.0, 0.0)

    def test_preconditions(self):
        with pytest.raises(NonPositiveGeneration):
            gh.ces_allocation(0.0, SPEC1, 0.0, 5.0, 1.0)
        with pytest.raises(TimeOutOfRange):
            gh.ces_allocation(20.0, SPEC1, 5.1, 5.0, 1.0)
        with pytest.raises(DegenerateVolatility):
            spec = gh.MicrogridSpec(demand=20.0, gbm=gh.GbmParams(0.0, 0.0))
            gh.ces_allocation(20.0, spec, 0.0, 5.0, 1.0)

    @settings(max_examples=150, deadline=None)
    @given(
        p=st.floats(1.0, 100.0),
        d=st.floats(1.0, 100.0),
        sigma=st.floats(0.005, 0.2),
        tau=st.floats(1e-3, 20.0),
    )
    def test_bounds_property(self, p, d, sigma, tau):
        spec = gh.MicrogridSpec(demand=d, gbm=gh.GbmParams(0.0, sigma))
        alloc = gh.ces_allocation(p, spec, 0.0, tau, 1.0)
        assert -1.0 <= alloc.a_hat <= 0.0
        assert 0.0 <= alloc.b_hat * 1.0 <= d + 1e-12
        assert alloc.value_hat >= max(d - p, 0.0) - 1e-9 * d


class TestPortfolioValue:
    def test_bounded_by_demand(self):
        spec = gh.MicrogridSpec(demand=20.0, gbm=gh.GbmParams(0.0, 3.0))
        for p in (5.0, 20.0, 80.0):
            assert gh.ces_portfolio_value(p, spec, 0.0, 50.0) <= 20.0

    def test_intrinsic_bound_on_grid(self):
        for p in np.linspace(5.0, 60.0, 40):
            value = gh.ces_portfolio_value(p, SPEC1, 0.0, 5.0)
            assert value >= max(20.0 - p, 0.0) - 1e-12

    def test_at_the_money_value(self):
        want = oracle_put(20.0, 20.0, 0.03, 5.0)
        got = gh.ces_portfolio_value(20.0, SPEC1, 0.0, 5.0)
        assert got == pytest.approx(want, abs=1e-12)
        assert got == pytest.approx(0.53513, abs=1e-5)

    def test_monte_carlo_cross_check(self):
        # transformed-measure expectation of the terminal shortfall
        ens = gh.simulate_paths(
            [SPEC1.gbm], gh.CorrelationMatrix.identity(1), np.array([20.0]),
            horizon=5.0, n_steps=1, n_paths=1_000_000, seed=909,
            measure="transformed",
        )
        payoff = np.maximum(20.0 - ens.values[:, -1, 0], 0.0)
        se = payoff.std(ddof=1) / np.sqrt(payoff.size)
        assert abs(payoff.mean() - gh.ces_portfolio_value(20.0, SPEC1, 0.0, 5.0)) < 3 * se

    def test_monotone_decreasing_in_generation(self):
        grid_p = np.linspace(10.0, 40.0, 200)
        values = np.array([gh.ces_portfolio_value(p, SPEC1, 0.0, 5.0) for p in grid_p])
        assert np.all(np.diff(values) < 0)
        batteries = np.array(
            [gh.ces_allocation(p, SPEC1, 0.0, 5.0, 1.0).b_hat for p in grid_p]
        )
        assert np.all(np.diff(batteries) <= 0)

    def test_terminal_consistency(self):
        # value at tau = 1e-8 converges to the terminal payoff pointwise
        for p in np.linspace(12.0, 30.0, 25):
            near = gh.ces_portfolio_value(p, SPEC1, 5.0 - 1e-8, 5.0)
            want = gh.terminal_payoff_ces(p, 20.0)
            assert abs(near - want) <= 1e-6 * 20.0

    def test_pde_residual(self):
        # dV/dt + sigma^2 P^2 V_PP / 2 = 0 under central differences
        sigma = 0.03
        spec = SPEC1
        t, t_f = 1.0, 5.0
        dt = 1e-5
        for p in 20.0 * np.linspace(0.85, 1.15, 13):
            dp = 5e-4 * p
            v_t = (
                gh.ces_portfolio_value(p, spec, t + dt, t_f)
                - gh.ces_portfolio_value(p, spec, t - dt, t_f)
            ) / (2 * dt)
            v_pp = (
                gh.ces_portfolio_value(p + dp, spec, t, t_f)
                - 2 * gh.ces_portfolio_value(p, spec, t, t_f)
                + gh.ces_portfolio_value(p - dp, spec, t, t_f)
            ) / dp**2
            residual = v_t + 0.5 * sigma**2 * p**2 * v_pp
            assert abs(residual) < 1e-6 * 20.0


class TestMicrogridSpec:
    @pytest.mark.parametrize("demand", [float("nan"), float("inf"), -float("inf"), 0.0, -1.0])
    def test_rejects_non_finite_or_non_positive_demand(self, demand):
        with pytest.raises(ValueError, match="demand must be finite and > 0"):
            gh.MicrogridSpec(demand, gh.GbmParams(0.0, 0.03))


class TestTerminalPayoff:
    def test_cases(self):
        assert gh.terminal_payoff_ces(25.0, 20.0) == 0.0
        assert gh.terminal_payoff_ces(20.0, 20.0) == 0.0  # boundary -> surplus
        assert gh.terminal_payoff_ces(15.0, 25.0) == 10.0

    def test_rejects_nonpositive(self):
        with pytest.raises(NonPositiveGeneration):
            gh.terminal_payoff_ces(0.0, 20.0)


class TestTotalBattery:
    def test_singleton(self):
        total = gh.ces_total_battery([20.0], [SPEC1], 0.0, 5.0, 1.0)
        assert total == pytest.approx(gh.ces_allocation(20.0, SPEC1, 0.0, 5.0, 1.0).b_hat)

    def test_symmetric_pair(self):
        total = gh.ces_total_battery([20.0, 20.0], [SPEC1, SPEC1], 0.0, 5.0, 1.0)
        assert total == pytest.approx(2 * 20.0 * phi(0.00225 / (0.03 * np.sqrt(5))), abs=1e-9)

    def test_mixed_volatilities(self):
        # second grid: sigma^2 tau/2 = 0.004, sigma sqrt(tau) = 0.0894427
        spec2 = gh.MicrogridSpec(demand=25.0, gbm=gh.GbmParams(0.005, 0.04), label="two")
        total = gh.ces_total_battery([20.0, 25.0], [SPEC1, spec2], 0.0, 5.0, 1.0)
        want = 20.0 * phi(0.00225 / (0.03 * np.sqrt(5))) + 25.0 * phi(
            0.004 / (0.04 * np.sqrt(5))
        )
        assert total == pytest.approx(want, abs=1e-9)
        assert 25.0 * phi(0.004 / (0.04 * np.sqrt(5))) == pytest.approx(
            25.0 * phi(0.044721), abs=2e-4
        )


class TestHedging:
    def test_financing_gap_shrinks_half_order(self):
        # sum of da*P + db*P_b over rebalances: RMS ~ sqrt(dt)
        rms = []
        for n_steps in (50, 200, 800):
            result = gh.hedge_backtest(SPEC1, 20.0, 5.0, n_steps, 1_000, seed=404)
            rms.append(np.sqrt(np.mean(result.financing_gaps**2)))
        assert rms[1] < 0.62 * rms[0]
        assert rms[2] < 0.62 * rms[1]

    def test_terminal_replication_improves(self):
        rms = []
        for n_steps in (100, 1_000):
            result = gh.hedge_backtest(SPEC1, 20.0, 5.0, n_steps, 4_000, seed=505)
            rms.append(np.sqrt(np.mean(result.terminal_errors**2)))
        assert rms[1] < rms[0] / 2.5
