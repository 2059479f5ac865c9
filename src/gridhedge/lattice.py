"""Pooled (transactive) valuation and resource extraction on a lattice.

The remaining horizon is discretized into steps over which every microgrid's
generation moves up or down by a calibrated factor (u*d = 1).  Branch
probabilities are moment-matched to the driftless transformed-measure law of
the log-generation increments: mean -sigma^2*dt/2, variance sigma^2*dt, and
cross moments rho_ij*sigma_i*sigma_j*dt.  One closed form solves these
equations for any number of microgrids: the product-form probabilities with
pairwise correlation corrections of Boyle, Evnine & Gibbs (1989).  The
netted terminal shortfall is valued back to the root, and the operator's
ReGU/battery mix is read off a least-squares replication of the first-level
portfolio values.

One allocator does this for every caller: ``RecombiningLattice.allocate``.
Probabilities are state independent and u*d = 1, so the reach weights of
every root are one FFT convolution power of the one-step law.  The case
study calls it on all paths, ``dynamic_allocation`` on one root.
"""
import itertools
import numbers
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateVolatility,
    InfeasibleCalibration,
    LengthMismatch,
    RankDeficientWarning,
    TimeOutOfRange,
    TreeTooLarge,
)
from .gbm import simulate_paths
from .grid import GridEnsemble

DEFAULT_NODE_BUDGET = 10_000_000


# ---------------------------------------------------------------------------
# Step-model calibration
# ---------------------------------------------------------------------------

def branch_up_mask(n_assets: int) -> np.ndarray:
    """Boolean (2^n, n) matrix; row k marks which assets move up on branch k.

    Branch 0 moves every asset up, the last branch every asset down; asset 0
    occupies the most significant bit.  Matches the row order of the
    movement-factor matrix and the child order of ``RecombiningLattice``.
    """
    rows = list(itertools.product([True, False], repeat=n_assets))
    return np.array(rows, dtype=bool)


@dataclass(frozen=True)
class LatticeStepModel:
    """Calibrated per-step movement factors and branch probabilities."""

    n_assets: int
    dt: float
    log_steps: np.ndarray      # h_i = ln u_i
    branch_probs: np.ndarray   # length 2^n, ordered like branch_up_mask
    up_mask: np.ndarray

    @property
    def up(self) -> np.ndarray:
        return np.exp(self.log_steps)

    @property
    def down(self) -> np.ndarray:
        return np.exp(-self.log_steps)

    @property
    def branch_matrix(self) -> np.ndarray:
        """(2^n, n) movement factors; row k pairs with branch_probs[k]."""
        return np.where(self.up_mask, self.up, self.down)

    @property
    def n_branches(self) -> int:
        return 1 << self.n_assets


def _closed_form_h(sigmas: np.ndarray, dt: float) -> np.ndarray:
    # Mean and raw second moment jointly imply h^2 = s2 + (s2/2)^2, s2=sigma^2*dt
    s2 = sigmas**2 * dt
    return np.sqrt(s2 + (s2 / 2.0) ** 2)


def _walsh_probs(sigmas, rho, dt, h):
    """Product-form probabilities with pairwise correlation corrections."""
    n = len(sigmas)
    mask = branch_up_mask(n)
    signs = np.where(mask, 1.0, -1.0)
    m = -(sigmas**2) * dt / (2.0 * h)
    probs = np.ones(1 << n)
    probs += signs @ m
    for i in range(n):
        for j in range(i + 1, n):
            c = rho[i, j] * sigmas[i] * sigmas[j] * dt / (h[i] * h[j])
            probs += signs[:, i] * signs[:, j] * c
    return probs / (1 << n)


def calibrate_step_model(grid: GridEnsemble, dt: float) -> LatticeStepModel:
    """Solve movement factors and branch probabilities for one time step.

    One closed form serves every number of assets (Boyle, Evnine & Gibbs
    1989): h_i = sqrt(s_i + (s_i/2)^2) with s_i = sigma_i^2*dt, and branch k
    has probability (1 + sum_i e_ki*m_i + sum_{i<j} e_ki*e_kj*c_ij) / 2^n,
    where e_ki = +-1 marks asset i's move, m_i = -s_i/(2 h_i) and
    c_ij = rho_ij*sigma_i*sigma_j*dt/(h_i h_j).  This solves the printed
    moment equations exactly; for three or more assets, where they leave
    the probabilities underdetermined, it is the completion with every
    higher-order interaction zero.
    """
    if dt <= 0:
        raise ValueError(f"dt must be > 0, got {dt}")
    sigmas = grid.sigmas
    if np.any(sigmas == 0):
        raise DegenerateVolatility("lattice calibration requires sigma > 0")
    h = _closed_form_h(sigmas, dt)
    rho = grid.corr.rho
    mask = branch_up_mask(grid.n_microgrids)
    probs = _walsh_probs(sigmas, rho, dt, h)
    bad = (probs < -1e-15) | (probs > 1 + 1e-15)
    if np.any(bad):
        # As dt -> 0, branch k tends to (1 + sum_{i<j} s_i s_j rho_ij) / 2^n;
        # when that limit is negative no finer time step can restore feasibility.
        signs = np.where(mask, 1.0, -1.0)
        pairs = (np.einsum("ki,ij,kj->k", signs, rho, signs) - grid.n_microgrids) / 2.0
        limits = (1.0 + pairs) / (1 << grid.n_microgrids)
        if np.min(limits) < 0:
            k = int(np.argmin(limits))
            raise InfeasibleCalibration(
                branch=k, probability=float(probs[k]), dt=dt, limit=float(limits[k])
            )
        k = int(np.argmax(bad))
        raise InfeasibleCalibration(branch=k, probability=float(probs[k]), dt=dt)
    return LatticeStepModel(
        n_assets=grid.n_microgrids,
        dt=dt,
        log_steps=h,
        branch_probs=np.clip(probs, 0.0, 1.0),
        up_mask=mask,
    )


def moment_residuals(model: LatticeStepModel, grid: GridEnsemble) -> np.ndarray:
    """Plug the model back into the moment equations; all entries should be ~0.

    Order: per-asset means, per-asset raw second moments, upper-triangle
    cross moments, then normalization.
    """
    signs = np.where(model.up_mask, 1.0, -1.0)
    p = model.branch_probs
    h = model.log_steps
    sigmas = grid.sigmas
    dt = model.dt
    out = []
    for i in range(model.n_assets):
        s_i = signs[:, i] @ p
        out.append(h[i] * s_i + sigmas[i] ** 2 * dt / 2.0)
    for i in range(model.n_assets):
        s_i = signs[:, i] @ p
        out.append(h[i] ** 2 * p.sum() - h[i] ** 2 * s_i**2 - sigmas[i] ** 2 * dt)
    for i in range(model.n_assets):
        for j in range(i + 1, model.n_assets):
            cross = (signs[:, i] * signs[:, j]) @ p
            out.append(h[i] * h[j] * cross - grid.corr.rho[i, j] * sigmas[i] * sigmas[j] * dt)
    out.append(p.sum() - 1.0)
    return np.array(out)


# ---------------------------------------------------------------------------
# Recombining engine
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Allocation:
    """ReGU weights, battery units, and replication residual (2-norm, kW)."""

    a: np.ndarray
    b: float
    residual: float


# One block of root states is valued at a time; its terminal headroom holds
# at most this many floats (512 KiB, inside a 2 MiB L2 cache), whatever the
# path count.  A terminal grid larger than this is valued one root at a time.
LATTICE_BLOCK_ELEMENTS = 2**16


def _branch_slices(model, branch):
    """Per-asset slice of a grid one step longer that branch's move lands on."""
    return tuple(slice(1, None) if up else slice(0, -1) for up in model.up_mask[branch])


class RecombiningLattice:
    """Pooled allocation of many root states on one recombining lattice.

    Probabilities are state independent and u*d = 1, so a state is fixed by
    its per-asset up-counts, and the chance of reaching each up-count vector
    in l steps is the l-fold convolution power W_l of the one-step law (one
    FFT power), the same for every root.  With s steps left, child k (one
    step taken, up-counts up_k) is worth sum_j W_{s-1}[j] * H[j + up_k],
    where H is the terminal headroom max(D - sum_i pg_i * u_i^(2 j_i - s), 0).
    One matrix product per block of roots replaces s rounds of backward
    induction: the (2^n, states) child weights times a (states, roots)
    headroom block.  The roots are the innermost axis, and a block holds at
    most ``LATTICE_BLOCK_ELEMENTS`` headroom values, whatever the root count.

    The replication design of a root has rows [pg * factors_k, p_b]: the
    unit design [factors_k, p_b] with its generation columns scaled by the
    (positive) root state.  The scaling keeps the rank, so one rank check
    and one pseudoinverse of the unit design serve every root.  Equal roots
    are valued once.

    A lattice of up to ``max_steps`` steps whose terminal grid exceeds the
    node budget is refused at construction, before anything is allocated.
    """

    def __init__(self, model: LatticeStepModel, d_c, max_steps: int, p_b: float):
        nodes = (max_steps + 1) ** model.n_assets
        if nodes > DEFAULT_NODE_BUDGET:
            raise TreeTooLarge(
                f"{max_steps + 1}^{model.n_assets} = {nodes} terminal states "
                f"exceed the node budget {DEFAULT_NODE_BUDGET}"
            )
        if p_b <= 0:
            raise ValueError(f"p_b must be > 0, got {p_b}")
        self.model = model
        self.total_demand = float(np.sum(d_c))
        self.max_steps = max_steps
        self.p_b = p_b
        self.design_unit = np.column_stack([model.branch_matrix, np.full(model.n_branches, p_b)])
        rank = np.linalg.matrix_rank(self.design_unit)
        if rank < model.n_assets + 1:
            warnings.warn(
                f"replication design matrix rank {rank} < {model.n_assets + 1}; "
                "returning minimum-norm solutions",
                RankDeficientWarning,
                stacklevel=2,
            )
        self.pinv_unit = np.linalg.pinv(self.design_unit)

    def _child_weights(self, steps):
        """(2^n, (steps+1)^n) matrix; row k is W_{steps-1} shifted by up_k.

        W is the one-step law on the (2,)*n grid of up-counts raised to the
        power steps-1 by one FFT (length steps per axis holds its degree
        steps-1 without wrap-around), written straight into row 0.
        """
        model = self.model
        one_step = np.zeros((2,) * model.n_assets)
        one_step[tuple(model.up_mask.T.astype(int))] = model.branch_probs
        shape, axes = (steps,) * model.n_assets, tuple(range(model.n_assets))
        stacked = np.zeros((model.n_branches,) + (steps + 1,) * model.n_assets)
        reach = stacked[(0,) + _branch_slices(model, 0)]
        np.fft.irfftn(np.fft.rfftn(one_step, shape, axes) ** (steps - 1), shape, axes, out=reach)
        for k in range(1, model.n_branches):
            stacked[(k,) + _branch_slices(model, k)] = reach
        return stacked.reshape(model.n_branches, -1)

    def _headroom(self, pg, ladders):
        # (states, roots) with the roots innermost; broadcasting one asset at a
        # time needs no full-size zero grid and still sums each state's terms
        # in asset order
        total = ladders[0][:, None] * pg[:, 0]
        for i in range(1, self.model.n_assets):
            total = total[..., None, :] + ladders[i][:, None] * pg[:, i]
        np.subtract(self.total_demand, total, out=total)
        np.maximum(total, 0.0, out=total)
        return total.reshape(-1, pg.shape[0])

    def first_level(self, pg, steps: int):
        """Root values (m,) and child values (m, 2^n) for root states pg (m, n)."""
        if not 1 <= steps <= self.max_steps:
            raise ValueError(f"steps must lie in [1, {self.max_steps}], got {steps}")
        model = self.model
        weights = self._child_weights(steps)
        j = np.arange(steps + 1)
        ladders = [np.exp(model.log_steps[i] * (2 * j - steps)) for i in range(model.n_assets)]
        m = pg.shape[0]
        rows = max(1, LATTICE_BLOCK_ELEMENTS // weights.shape[1])
        child_values = np.empty((m, model.n_branches))
        for lo in range(0, m, rows):
            child_values[lo : lo + rows] = (
                weights @ self._headroom(pg[lo : lo + rows], ladders)
            ).T
        return child_values @ model.branch_probs, child_values

    def allocate(self, pg, steps: int, prev_a):
        """(value, a, b, residual) arrays for root states pg (m, n).

        The ReGU weights a and battery units b are the minimum-norm
        least-squares replication of the first-level values; residual is its
        2-norm (kW).  With no step left the portfolio must hold the terminal
        shortfall itself: the previous weights prev_a (m, n) are kept and
        battery makes up the rest.
        """
        n = self.model.n_assets
        if steps == 0:
            value = np.maximum(self.total_demand - pg.sum(axis=1), 0.0)
            b = (value - np.sum(prev_a * pg, axis=1)) / self.p_b
            return value, prev_a.copy(), b, np.zeros(pg.shape[0])
        # each distinct root is valued once, so equal roots get equal bytes
        # wherever they fall in a block
        roots, inverse = np.unique(pg, axis=0, return_inverse=True)
        root_value, child_values = self.first_level(roots, steps)
        scaled = child_values @ self.pinv_unit.T          # (roots, n+1)
        fit = scaled @ self.design_unit.T                 # root factors cancel
        residual = np.linalg.norm(fit - child_values, axis=1)
        a = scaled[:, :n] / roots
        return root_value[inverse], a[inverse], scaled[inverse, n], residual[inverse]


def dynamic_allocation(pg_now, d_c, model: LatticeStepModel, remaining_steps: int, prev_a, p_b):
    """End-to-end allocation step for one root: value and extract resources.

    This is ``RecombiningLattice.allocate`` with one root.  ``pg_now``,
    ``d_c`` and ``prev_a`` (default zero) each hold one entry per microgrid
    of ``model``.  Returns (portfolio value at the evaluation time,
    Allocation).
    """
    if isinstance(remaining_steps, bool) or not (
        isinstance(remaining_steps, numbers.Integral) and remaining_steps >= 0
    ):
        raise ValueError(f"remaining_steps must be an integer >= 0, got {remaining_steps!r}")
    pg_now = np.asarray(pg_now, dtype=float)
    d_c = np.asarray(d_c, dtype=float)
    prev_a = np.zeros(model.n_assets) if prev_a is None else np.asarray(prev_a, dtype=float)
    for name, vector in (("pg_now", pg_now), ("d_c", d_c), ("prev_a", prev_a)):
        if vector.shape != (model.n_assets,):
            raise LengthMismatch(
                f"{name} has shape {vector.shape}; the lattice has {model.n_assets} microgrids"
            )
    if np.any(pg_now <= 0):
        raise ValueError("root generation must be strictly positive")
    lattice = RecombiningLattice(model, d_c, remaining_steps, p_b)
    value, a, b, residual = lattice.allocate(pg_now[None, :], remaining_steps, prev_a[None, :])
    return float(value[0]), Allocation(a=a[0], b=float(b[0]), residual=float(residual[0]))


# ---------------------------------------------------------------------------
# Monte Carlo oracle
# ---------------------------------------------------------------------------

def tes_value_mc(grid: GridEnsemble, p_g_now, t, t_f, n_paths: int, seed: int):
    """Transformed-measure Monte Carlo estimate of the pooled portfolio value.

    One exact lognormal step to the horizon suffices because the terminal
    law is sampled exactly.  Returns (estimate, standard error).
    """
    if t >= t_f:
        raise TimeOutOfRange(f"need t < t_f, got t={t}, t_f={t_f}")
    ensemble = simulate_paths(
        grid.params,
        grid.corr,
        np.asarray(p_g_now, dtype=float),
        horizon=t_f - t,
        n_steps=1,
        n_paths=n_paths,
        seed=seed,
        measure="transformed",
    )
    terminal = ensemble.values[:, -1, :]
    payoff = np.maximum(np.sum(grid.demands - terminal, axis=1), 0.0)
    estimate = float(payoff.mean())
    stderr = float(payoff.std(ddof=1) / np.sqrt(n_paths))
    return estimate, stderr
