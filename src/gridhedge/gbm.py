"""Correlated geometric Brownian motion: simulation, estimation and fit test.

Generation of each microgrid follows dP = mu*P*dt + sigma*P*dW with
correlated Wiener increments (dW_i dW_j = rho_ij dt).  The drift-removed
transformed measure, in which every generation process is a martingale, is
the physical law at mu = 0, so paths under it are drawn from zero-drift
``GbmParams``: the drift (0 - sigma^2/2)*dt is -sigma^2*dt/2 bit for bit.
The maximum-likelihood fit is checked by a chi-square goodness-of-fit test
whose p-value comes from a standard-library survival function, so this
module needs no scipy.
"""
import math
import numbers
import warnings
from dataclasses import dataclass, field

import numpy as np
from typing import NamedTuple

from .errors import DegenerateVolatility, DegenerateVolatilityWarning

@dataclass(frozen=True)
class GbmParams:
    """Drift (per hour) and volatility (per sqrt-hour) of one generator.

    ``sigma == 0`` is representable so that estimation of a constant series
    can report its degenerate fit; simulation and allocation reject it.
    """

    mu: float
    sigma: float

    def __post_init__(self):
        if not np.isfinite(self.mu):
            raise ValueError(f"mu must be finite, got {self.mu}")
        if not np.isfinite(self.sigma) or self.sigma < 0:
            raise ValueError(f"sigma must be finite and >= 0, got {self.sigma}")


@dataclass(frozen=True)
class CorrelationMatrix:
    """PSD unit-diagonal Wiener correlation ``rho``; lower ``factor`` @ factor.T == rho."""

    rho: np.ndarray
    factor: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        rho = np.atleast_2d(np.asarray(self.rho, dtype=float))
        if rho.ndim != 2 or rho.shape[0] != rho.shape[1]:
            raise ValueError(f"correlation matrix must be square, got {rho.shape}")
        if np.isnan(rho).any():
            raise ValueError("correlation matrix has a NaN entry")
        if not np.allclose(rho, rho.T, rtol=0, atol=1e-12):
            raise ValueError("correlation matrix must be symmetric")
        if not np.allclose(np.diag(rho), 1.0, rtol=0, atol=1e-12):
            raise ValueError("correlation matrix must have unit diagonal")
        object.__setattr__(self, "rho", rho)
        object.__setattr__(self, "factor", _lower_factor(rho))

    @property
    def n(self) -> int:
        return self.rho.shape[0]

    @classmethod
    def identity(cls, n: int) -> "CorrelationMatrix":
        return cls(np.eye(n))

    @classmethod
    def pairwise(cls, coefficient: float, n: int = 2) -> "CorrelationMatrix":
        """Uniform off-diagonal coefficient (the two-grid case of the demos)."""
        rho = np.full((n, n), float(coefficient))
        np.fill_diagonal(rho, 1.0)
        return cls(rho)


def _lower_factor(rho: np.ndarray) -> np.ndarray:
    """Column Cholesky in LAPACK's potf2 order; a pivot within 1e-12 of zero
    leaves its column zero (Higham 1990).  ValueError unless rho is PSD.
    """
    lower = np.zeros_like(rho)
    for j in range(len(rho)):
        row = lower[j, :j]
        pivot = rho[j, j] - row @ row
        if abs(pivot) <= 1e-12:
            continue
        if not pivot > 0:
            raise ValueError(f"not positive semi-definite (pivot {j} is {pivot:.6g})")
        lower[j, j] = np.sqrt(pivot)
        lower[j + 1:, j] = (rho[j + 1:, j] - lower[j + 1:, :j] @ row) * (1.0 / lower[j, j])
    residual = np.abs(lower @ lower.T - rho).max(initial=0.0)
    if not residual <= 1e-12:
        raise ValueError(f"not positive semi-definite (factor residual {residual:.3g})")
    return lower


def simulate_paths(
    params,
    corr: CorrelationMatrix,
    initial,
    horizon: float,
    n_steps: int,
    n_paths: int,
    seed: int,
) -> np.ndarray:
    """Exact log-space discretization of correlated GBM, in kW.

    Returns the (n_paths, n_steps + 1, n_assets) array of generation paths;
    step 0 holds ``initial``.

    Per-step log-increments are jointly Gaussian with mean (mu - sigma^2/2)*dt
    and covariance sigma_i*sigma_j*rho_ij*dt, so marginals are exactly
    lognormal at any step size.  Zero-drift params draw the transformed
    (driftless) measure.
    """
    params = list(params)
    initial = np.asarray(initial, dtype=float)
    if horizon <= 0:
        raise ValueError(f"horizon must be > 0, got {horizon}")
    if n_steps < 1 or n_paths < 1:
        raise ValueError("n_steps and n_paths must be >= 1")
    if initial.shape != (len(params),):
        raise ValueError("initial must supply one value per process")
    if np.any(initial <= 0):
        raise ValueError("initial generation must be strictly positive")
    if corr.n != len(params):
        raise ValueError("correlation dimension does not match params")
    sigma = np.array([p.sigma for p in params])
    mu = np.array([p.mu for p in params])
    if np.any(sigma == 0):
        raise DegenerateVolatility("simulation requires sigma > 0 for every process")

    dt = horizon / n_steps
    drift = (mu - sigma**2 / 2.0) * dt

    # one Philox stream keyed by the seed, drawn path-major in one call, so
    # identical (seed, shape) give bit-identical paths on every platform
    gen = np.random.Generator(np.random.Philox(key=seed))
    z = gen.standard_normal((n_paths, n_steps, len(params)))
    # drift + (z @ factor.T) * sigma * sqrt(dt), cumulated, offset by the
    # log of initial and exponentiated: the same operations in the same
    # order, in place in one buffer, with the draws freed after the product
    log_paths = z @ corr.factor.T
    del z
    log_paths *= sigma
    log_paths *= np.sqrt(dt)
    np.add(drift, log_paths, out=log_paths)
    np.cumsum(log_paths, axis=1, out=log_paths)
    log_paths += np.log(initial)
    np.exp(log_paths, out=log_paths)
    values = np.empty((n_paths, n_steps + 1, len(params)))
    values[:, 0, :] = initial
    values[:, 1:, :] = log_paths
    return values


def gbm_mle_from_returns(log_returns, dt: float) -> GbmParams:
    """Maximum-likelihood GBM fit from log-returns sampled at interval dt.

    Uses the MLE variance divisor n (not n-1), so sigma^2 carries the usual
    small-sample downward bias of order 1/n.
    """
    x = np.asarray(log_returns, dtype=float)
    if x.size < 2:
        raise ValueError(f"need at least 2 log-returns, got {x.size}")
    if dt <= 0:
        raise ValueError(f"dt must be > 0, got {dt}")
    sigma_sq = x.var(ddof=0) / dt
    mu = x.mean() / dt + sigma_sq / 2.0
    if sigma_sq == 0.0:
        warnings.warn(
            "log-returns are constant; fitted volatility is zero",
            DegenerateVolatilityWarning,
            stacklevel=2,
        )
    return GbmParams(mu=float(mu), sigma=float(np.sqrt(sigma_sq)))


def estimate_gbm_mle(series, dt: float):
    """Fit (mu, sigma) to a positive, uniformly sampled kW series.

    Returns the fitted parameters together with the log-return sample the
    fit was computed from (handy for the goodness-of-fit test).
    """
    values = np.asarray(series, dtype=float)
    if values.size < 3:
        raise ValueError(f"need at least 3 observations, got {values.size}")
    if np.any(values <= 0):
        bad = int(np.argmax(values <= 0))
        raise ValueError(f"series value at index {bad} is not positive")
    log_returns = np.diff(np.log(values))
    return gbm_mle_from_returns(log_returns, dt), log_returns


class GofResult(NamedTuple):
    statistic: float
    dof: int
    p_value: float


# fdlibm's two-part ln 2: k * _LN2_HI is exact for k < 2**21
_LN2_HI, _LN2_LO = 6.93147180369123816490e-01, 1.90821492927058770002e-10


def chi_square_survival(x: float, dof: int) -> float:
    """P(X > x) for X ~ chi-square(dof) with integer dof >= 1.

    With y = x/2 this is the finite series of Q(dof/2, y):
    e^-y * sum of y^j / Gamma(j + 1) over j = 0, 1, ... < dof/2 (even dof),
    or over j = 1/2, 3/2, ... < dof/2 plus erfc(sqrt(y)) (odd dof).  The
    terms follow t_j = t_(j-1) * y / j at a running power-of-two scale, and
    e^-y is applied last as 2^-k * e^-r (Cody-Waite), so neither underflows
    while the product is a normal float.
    """
    if not (isinstance(dof, numbers.Integral) and dof >= 1):
        raise ValueError(f"dof must be an integer >= 1, got {dof!r}")
    if not 0 < x < 2.0**61:  # beyond 2^61 every feasible dof gives 0
        return 1.0 if x <= 0 else 0.0 if x > 0 else math.nan
    y = 0.5 * x
    if dof % 2:
        head, term, j = math.erfc(math.sqrt(y)), 2.0 * math.sqrt(y / math.pi), 0.5
    else:
        head, term, j = 0.0, 1.0, 0.0
    total, scale = 0.0, 0
    while j < dof / 2:
        total += term
        j += 1
        term *= y / j
        if total > 2.0**512:
            total, term, scale = total * 2.0**-512, term * 2.0**-512, scale + 512
    k = round(y / math.log(2))
    r = (y - k * _LN2_HI) - k * _LN2_LO
    return head + math.ldexp(total * math.exp(-r), scale - k)


def normal_ppf(q):
    """Phi^-1(q) for 0 < q < 1, the inverse of ``ces._normal_cdf``.

    Only ``chi_square_gof``'s equal-probability bins need it, so
    ``statistics`` (about 4.5 ms of start-up after numpy) is imported here,
    not at module level.
    """
    from statistics import NormalDist

    inv_cdf = np.frompyfunc(NormalDist().inv_cdf, 1, 1)
    return np.asarray(inv_cdf(np.asarray(q, dtype=float)), dtype=float)


def chi_square_gof(log_returns, params: GbmParams, dt: float, n_bins: int) -> GofResult:
    """Equal-probability-bin chi-square test of the fitted log-return law.

    Bins are equiprobable under N((mu - sigma^2/2) dt, sigma^2 dt); the
    degrees of freedom are n_bins - 1 less the two parameters that
    ``gbm_mle_from_returns`` fits, n_bins - 3.
    """
    x = np.asarray(log_returns, dtype=float)
    if x.size == 0:
        raise ValueError("no log-returns supplied")
    if n_bins < 4:
        raise ValueError(f"n_bins={n_bins} leaves dof < 1")
    if n_bins > x.size:  # bounds the edge array before it is allocated
        raise ValueError(f"n_bins={n_bins} exceeds the {x.size} log-returns supplied")
    if params.sigma == 0:
        raise DegenerateVolatility("cannot bin against a zero-volatility law")
    mean = (params.mu - params.sigma**2 / 2.0) * dt
    scale = params.sigma * np.sqrt(dt)
    edges = mean + scale * normal_ppf(np.arange(1, n_bins) / n_bins)
    observed = np.bincount(np.searchsorted(edges, x), minlength=n_bins)
    expected = x.size / n_bins
    statistic = float(np.sum((observed - expected) ** 2) / expected)
    dof = n_bins - 3
    return GofResult(statistic, dof, chi_square_survival(statistic, dof))
