"""Closed-form per-microgrid allocation for the conventional system.

Each microgrid is hedged on its own: the operator holds a (negative) ReGU
weight and battery units so that the portfolio replicates the terminal
shortfall max(D - P(T_f), 0) almost surely.  The portfolio value is the
zero-rate lognormal put value with strike D and spot P.  The formulas are
written once, in the elementwise kernel ``_policy``; the scalar functions
here and the batched case-study engine (``scenario._batch_ces``) call it.
"""
from dataclasses import dataclass

import numpy as np

from . import normal
from .errors import DegenerateVolatility, NonPositiveGeneration, TimeOutOfRange
from .gbm import CorrelationMatrix, GbmParams, simulate_paths

# Seam used by the validator's fault-injection mode; do not rebind elsewhere.
_normal_cdf = normal.normal_cdf


@dataclass(frozen=True)
class MicrogridSpec:
    """Critical demand (kW) and fitted generation dynamics of one microgrid."""

    demand: float
    gbm: GbmParams
    label: str = ""

    def __post_init__(self):
        if not (np.isfinite(self.demand) and self.demand > 0):
            raise ValueError(f"demand must be finite and > 0, got {self.demand}")


@dataclass(frozen=True)
class CesAllocation:
    """ReGU weight in [-1, 0], battery units >= 0, and portfolio value (kW)."""

    a_hat: float
    b_hat: float
    value_hat: float


def terminal_payoff_ces(p_g_tf, d_c):
    """Required portfolio power at the horizon: the shortfall, if any.

    Generation meeting demand exactly counts as surplus (payoff 0).
    """
    p = np.asarray(p_g_tf, dtype=float)
    if np.any(p <= 0):
        raise NonPositiveGeneration("terminal generation must be positive")
    out = np.where(p >= d_c, 0.0, d_c - p)
    return float(out) if np.isscalar(p_g_tf) else out


def _check_time(t, t_f):
    if t < 0 or t > t_f:
        raise TimeOutOfRange(f"t={t} outside [0, {t_f}]")


def _policy(p_g, demand, sigma, tau, p_b):
    """The closed-form policy, elementwise: returns (a, b, value).

    a = -Phi(d-), b = (D/p_b)*Phi(d+) and value = a*P + b*p_b, with
    d+- = (ln(D/P) +- sigma^2*tau/2) / (sigma*sqrt(tau)).  At tau == 0 the
    formula is 0/0 and the terminal rule applies: full hedge (a=-1,
    b=D/p_b) in deficit, empty otherwise.  Inputs broadcast (scalars, or an
    (m, n) state array against per-grid demand and sigma) and are not
    checked; Phi is read from ``_normal_cdf`` at call time.
    """
    if tau == 0:
        deficit = np.asarray(p_g) < demand
        a = np.where(deficit, -1.0, 0.0)
        b = np.where(deficit, demand / p_b, 0.0)
    else:
        log_ratio = np.log(demand / p_g)
        half_var = sigma**2 * tau / 2.0
        scale = sigma * np.sqrt(tau)
        a = -_normal_cdf((log_ratio - half_var) / scale)
        b = (demand / p_b) * _normal_cdf((log_ratio + half_var) / scale)
    return a, b, a * p_g + b * p_b


def ces_allocation(p_g, spec: MicrogridSpec, t, t_f, p_b) -> CesAllocation:
    """ReGU/battery policy for one microgrid at time t.

    At t == t_f exactly the closed form is 0/0, so the terminal rule
    applies: full hedge (a=-1, b=D/p_b) in deficit, empty otherwise.
    """
    if p_b <= 0:
        raise ValueError(f"p_b must be > 0, got {p_b}")
    if np.any(np.asarray(p_g) <= 0):
        raise NonPositiveGeneration(f"p_g must be > 0, got {p_g}")
    _check_time(t, t_f)
    if spec.gbm.sigma == 0:
        raise DegenerateVolatility("allocation requires sigma > 0")
    a, b, value = _policy(p_g, spec.demand, spec.gbm.sigma, t_f - t, p_b)
    if np.isscalar(p_g):
        return CesAllocation(float(a), float(b), float(value))
    return CesAllocation(a, b, value)


def ces_portfolio_value(p_g, spec: MicrogridSpec, t, t_f):
    """Portfolio power D*Phi(d+) - P*Phi(d-): a zero-rate put on generation."""
    if np.any(np.asarray(p_g) <= 0):
        raise NonPositiveGeneration(f"p_g must be > 0, got {p_g}")
    _check_time(t, t_f)
    if spec.gbm.sigma == 0 and t != t_f:
        raise DegenerateVolatility("valuation requires sigma > 0")
    value = _policy(p_g, spec.demand, spec.gbm.sigma, t_f - t, 1.0)[2]
    return float(value) if np.isscalar(p_g) else value


def ces_total_battery(states, specs, t, t_f, p_b):
    """Battery units summed over microgrids (the operator's total reserve)."""
    return float(
        sum(
            ces_allocation(p, spec, t, t_f, p_b).b_hat
            for p, spec in zip(states, specs, strict=True)
        )
    )


@dataclass(frozen=True)
class HedgeBacktest:
    """Discretized replication experiment along physical-measure paths."""

    terminal_errors: np.ndarray     # hedged portfolio minus terminal payoff, kW
    financing_gaps: np.ndarray      # sum over rebalances of da*P + db*P_b, kW
    n_steps: int


def hedge_backtest(
    spec: MicrogridSpec,
    p0: float,
    t_f: float,
    n_steps: int,
    n_paths: int,
    seed: int,
    p_b: float = 1.0,
    paths: np.ndarray = None,
) -> HedgeBacktest:
    """Rebalance the closed-form policy at n_steps points along GBM paths.

    The portfolio starts at the closed-form value and holds the formula ReGU
    weight over each interval; battery absorbs rebalancing.  Also accumulates
    the financing gap of taking *both* holdings from the formulas, which the
    rated-power-conservation constraint drives to zero as dt -> 0.
    """
    if paths is None:
        ensemble = simulate_paths(
            [spec.gbm],
            CorrelationMatrix.identity(1),
            np.array([p0]),
            horizon=t_f,
            n_steps=n_steps,
            n_paths=n_paths,
            seed=seed,
            measure="physical",
        )
        paths = ensemble.values[:, :, 0]
    else:
        paths = np.asarray(paths, dtype=float)
        if paths.shape[1] != n_steps + 1:
            raise ValueError(f"paths must have {n_steps + 1} time points")
        if not np.allclose(paths[:, 0], p0):
            raise ValueError("supplied paths do not start at p0")
    dt = t_f / n_steps
    times = dt * np.arange(n_steps + 1)

    value = np.full(paths.shape[0], ces_portfolio_value(p0, spec, 0.0, t_f))
    prev_a = prev_b = None
    gaps = np.zeros(paths.shape[0])
    for n in range(n_steps):
        state = paths[:, n]
        alloc = ces_allocation(state, spec, times[n], t_f, p_b)
        if n > 0:
            gaps += (alloc.a_hat - prev_a) * state + (alloc.b_hat - prev_b) * p_b
        prev_a, prev_b = alloc.a_hat, alloc.b_hat
        value = value + alloc.a_hat * (paths[:, n + 1] - state)
    payoff = terminal_payoff_ces(paths[:, -1], spec.demand)
    return HedgeBacktest(
        terminal_errors=value - payoff, financing_gaps=gaps, n_steps=n_steps
    )
