"""Closed-form per-microgrid allocation for the conventional system.

Each microgrid is hedged on its own: the operator holds a (negative) ReGU
weight and battery units so that the portfolio replicates the terminal
shortfall max(D - P(T_f), 0) almost surely.  The portfolio value is the
zero-rate lognormal put value with strike D and spot P.  The formulas are
written once, in the elementwise kernel ``_policy``; the scalar functions
here and the batched case-study engine (``scenario._batch_ces``) call it.
"""
import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateVolatility, TimeOutOfRange
from .gbm import GbmParams


def _normal_cdf(x):
    """Phi(x) for scalars or arrays: 0.5 * erfc(-x / sqrt(2)), within 1e-12 everywhere.

    The one binding of Phi.  ``_policy`` reads it at call time, and only the
    validator's fault-injection mode rebinds it.  The C library's erfc keeps
    the tails accurate, where 1 - Phi(x) would cancel.
    """
    z = -np.asarray(x, dtype=float) / math.sqrt(2.0)
    erfc = np.fromiter(map(math.erfc, z.ravel().tolist()), float, count=z.size)
    return 0.5 * erfc.reshape(z.shape)


@dataclass(frozen=True)
class MicrogridSpec:
    """Critical demand (kW) and fitted generation dynamics of one microgrid."""

    demand: float
    gbm: GbmParams

    def __post_init__(self):
        if not (np.isfinite(self.demand) and self.demand > 0):
            raise ValueError(f"demand must be finite and > 0, got {self.demand}")


@dataclass(frozen=True)
class CesAllocation:
    """ReGU weight in [-1, 0], battery units >= 0, and portfolio value (kW)."""

    a_hat: float
    b_hat: float
    value_hat: float


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
    applies: full hedge (a=-1, b=D/p_b) in deficit, empty otherwise.  It
    is the only rule that holds at sigma == 0.
    """
    if p_b <= 0:
        raise ValueError(f"p_b must be > 0, got {p_b}")
    if np.any(np.asarray(p_g) <= 0):
        raise ValueError(f"p_g must be > 0, got {p_g}")
    if t < 0 or t > t_f:
        raise TimeOutOfRange(f"t={t} outside [0, {t_f}]")
    if spec.gbm.sigma == 0 and t != t_f:
        raise DegenerateVolatility("allocation requires sigma > 0 before t_f")
    a, b, value = _policy(p_g, spec.demand, spec.gbm.sigma, t_f - t, p_b)
    if np.isscalar(p_g):
        return CesAllocation(float(a), float(b), float(value))
    return CesAllocation(a, b, value)


def ces_portfolio_value(p_g, spec: MicrogridSpec, t, t_f):
    """Portfolio power D*Phi(d+) - P*Phi(d-): a zero-rate put on generation.

    At t == t_f it is the terminal shortfall max(D - P, 0), where generation
    meeting demand exactly counts as surplus.
    """
    return ces_allocation(p_g, spec, t, t_f, 1.0).value_hat


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
    financing_gaps: np.ndarray      # sum over rebalances of da*P + db (P_b = 1), kW


def hedge_backtest(spec: MicrogridSpec, paths, t_f: float) -> HedgeBacktest:
    """Rebalance the closed-form policy at every time point of the paths.

    ``paths`` is an (n_paths, n_steps + 1) array of generation on an even
    grid over [0, t_f], such as ``simulate_paths(...)[:, :, 0]``.  Each
    portfolio starts at the closed-form value of its path's first point and
    holds the formula ReGU weight over each interval; battery absorbs
    rebalancing.  Also accumulates the financing gap of taking *both*
    holdings from the formulas, which the rated-power-conservation
    constraint drives to zero as dt -> 0.
    """
    paths = np.asarray(paths, dtype=float)
    if paths.ndim != 2 or paths.shape[1] < 2:
        raise ValueError(f"paths must be 2-D with >= 2 time points, got shape {paths.shape}")
    n_steps = paths.shape[1] - 1
    times = (t_f / n_steps) * np.arange(n_steps + 1)

    value = ces_portfolio_value(paths[:, 0], spec, 0.0, t_f)
    prev_a = prev_b = None
    gaps = np.zeros(paths.shape[0])
    for n in range(n_steps):
        state = paths[:, n]
        # battery units of 1 kW, so b_hat is the battery power D*Phi(d+)
        alloc = ces_allocation(state, spec, times[n], t_f, 1.0)
        if n > 0:
            gaps += (alloc.a_hat - prev_a) * state + (alloc.b_hat - prev_b)
        prev_a, prev_b = alloc.a_hat, alloc.b_hat
        value = value + alloc.a_hat * (paths[:, n + 1] - state)
    payoff = ces_portfolio_value(paths[:, -1], spec, t_f, t_f)
    return HedgeBacktest(terminal_errors=value - payoff, financing_gaps=gaps)
