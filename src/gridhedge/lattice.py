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
    RankDeficientWarning,
    TimeOutOfRange,
    TreeTooLarge,
)
from .gbm import simulate_paths
from .grid import GridEnsemble

DEFAULT_NODE_BUDGET = 10_000_000


def max_lattice_steps(n_assets: int) -> int:
    """The most steps whose (steps + 1)^n_assets terminal states fit the node budget."""
    # the largest grid side whose n-th power fits: the rounded float root is
    # that side or one above it, which the integer test corrects
    side = round(DEFAULT_NODE_BUDGET ** (1 / n_assets))
    while side**n_assets > DEFAULT_NODE_BUDGET:
        side -= 1
    return side - 1


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


def _walsh(signs, first, pairs):
    """(1 + sum_i e_ki*first_i + sum_{i<j} e_ki*e_kj*pairs_ij) / 2^n for each branch k."""
    probs = 1.0 + signs @ first
    for i, j in itertools.combinations(range(signs.shape[1]), 2):
        probs += signs[:, i] * signs[:, j] * pairs[i, j]
    return probs / (1 << signs.shape[1])


def _branch_probs(grid: GridEnsemble, signs, dt: float):
    """(h, probs, bad): log steps, branch probabilities and the branches outside [0, 1].

    A step so long that a log step overflows marks every branch bad, as
    does a NaN probability.
    """
    sigmas = grid.sigmas
    with np.errstate(over="ignore", invalid="ignore"):
        s = sigmas**2 * dt
        h = np.sqrt(s + (s / 2.0) ** 2)
        pairs = grid.corr.rho * sigmas[:, None] * sigmas * dt / (h[:, None] * h)
        probs = _walsh(signs, -s / (2.0 * h), pairs)
    inside = (probs >= -1e-15) & (probs <= 1 + 1e-15) & np.isfinite(h).all()
    return h, probs, ~inside


def calibrate_step_model(grid: GridEnsemble, dt: float, horizon=None) -> LatticeStepModel:
    """Solve movement factors and branch probabilities for one time step.

    One closed form serves every number of assets (Boyle, Evnine & Gibbs
    1989): h_i = sqrt(s_i + (s_i/2)^2) with s_i = sigma_i^2*dt, and branch k
    has probability (1 + sum_i e_ki*m_i + sum_{i<j} e_ki*e_kj*c_ij) / 2^n,
    where e_ki = +-1 marks asset i's move, m_i = -s_i/(2 h_i) and
    c_ij = rho_ij*sigma_i*sigma_j*dt/(h_i h_j).  This solves the printed
    moment equations exactly; for three or more assets, where they leave
    the probabilities underdetermined, it is the completion with every
    higher-order interaction zero.

    dt is ``horizon`` / rebalance_steps (horizon defaults to dt, one step).
    When a finer step could restore a branch to [0, 1], the refusal names
    the fewest rebalance_steps over the horizon that calibrate, found by
    trying every count up to the most the node budget fits in turn, since
    feasibility need not be monotone in the step count.
    """
    if dt <= 0:
        raise ValueError(f"dt must be > 0, got {dt}")
    sigmas = grid.sigmas
    if np.any(sigmas == 0):
        raise DegenerateVolatility("lattice calibration requires sigma > 0")
    mask = branch_up_mask(grid.n_microgrids)
    signs = np.where(mask, 1.0, -1.0)
    h, probs, bad = _branch_probs(grid, signs, dt)
    if not np.isfinite(h).all():
        # (sigma^2*dt/2)^2 overflowed, which leaves NaN probabilities or
        # exactly 1/2^n ones, which no bounds test would refuse
        raise InfeasibleCalibration(
            f"a time step of {dt:g} h overflows the lattice's log step; lower horizon_hours",
            None, key="horizon_hours",
        )
    if np.any(bad):
        # as dt -> 0, m -> 0 and c -> rho; when that limit is negative, or
        # zero and approached from below as -(sum_i e_ki sigma_i)*sqrt(dt)/2^(n+1),
        # no finer time step can restore feasibility
        limits = _walsh(signs, np.zeros(grid.n_microgrids), grid.corr.rho)
        hopeless = (limits < 0) | ((np.abs(limits) <= 1e-15) & (signs @ sigmas > 0))
        k = int(np.argmin(np.where(hopeless, limits, np.inf)) if hopeless.any() else bad.argmax())
        refused = f"branch {k} probability {probs[k]:.6g} outside [0, 1]; "
        if hopeless[k]:
            raise InfeasibleCalibration(
                refused + f"it tends to {limits[k]:.6g} as dt -> 0: these correlations admit no "
                "moment-matched lattice at any fine time step, so refining dt cannot help",
                k, limit=float(limits[k]),
            )
        horizon = dt if horizon is None else horizon
        counts = range(1, max_lattice_steps(grid.n_microgrids) + 1)
        steps = next(
            (n for n in counts if not np.any(_branch_probs(grid, signs, horizon / n)[2])), None
        )
        if steps is None:
            advice = (
                f"no rebalance_steps up to {counts[-1]}, the most the node budget fits, "
                f"calibrates over {horizon:g} h"
            )
        else:
            advice = (
                f"set rebalance_steps to {steps} (dt = {horizon / steps:g} h), "
                f"the fewest that calibrate over {horizon:g} h"
            )
        raise InfeasibleCalibration(refused + advice, k, key="rebalance_steps", value=steps)
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
    s = sigmas**2 * model.dt
    first = signs.T @ p
    cross = np.einsum("k,ki,kj->ij", p, signs, signs)
    covariance = grid.corr.rho * sigmas[:, None] * sigmas * model.dt
    upper = np.triu_indices(model.n_assets, 1)
    return np.concatenate([
        h * first + s / 2.0,
        h**2 * p.sum() - h**2 * first**2 - s,
        (h[:, None] * h * cross - covariance)[upper],
        [p.sum() - 1.0],
    ])


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
    Two BLAS products per block of roots replace s rounds of backward
    induction: the (roots, n) root states times the (n, states) ladder
    values give the terminal generation, clipped in place to a (roots,
    states) headroom block, and that block times the transposed (2^n,
    states) child weights gives the child values.  The roots are the
    outermost axis, one reused buffer holds the block, and a block holds at
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
        n = model.n_assets
        nodes = (max_steps + 1) ** n
        if nodes > DEFAULT_NODE_BUDGET:
            raise TreeTooLarge(
                f"{max_steps + 1}^{n} = {nodes} terminal states "
                f"exceed the node budget {DEFAULT_NODE_BUDGET}; set rebalance_steps "
                f"to at most {max_lattice_steps(n)}, the most a {n}-grid lattice fits"
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

    def first_level(self, pg, steps: int):
        """Root values (m,) and child values (m, 2^n) for root states pg (m, n)."""
        if not 1 <= steps <= self.max_steps:
            raise ValueError(f"steps must lie in [1, {self.max_steps}], got {steps}")
        model = self.model
        n = model.n_assets
        weights = self._child_weights(steps)
        # levels[i, state] = u_i^(2 j_i - steps), asset i's ladder at that
        # terminal state, written in place one asset at a time
        states = weights.shape[1]
        levels = np.empty((n, states))
        grid = levels.reshape((n,) + (steps + 1,) * n)
        j = np.arange(steps + 1)
        for i in range(n):
            ladder = np.exp(model.log_steps[i] * (2 * j - steps))
            grid[i] = ladder.reshape((-1,) + (1,) * (n - 1 - i))
        m = pg.shape[0]
        rows = max(1, min(m, LATTICE_BLOCK_ELEMENTS // states))
        block = np.empty((rows, states))
        child_values = np.empty((m, model.n_branches))
        for lo in range(0, m, rows):
            headroom = block[: min(rows, m - lo)]
            np.matmul(pg[lo : lo + rows], levels, out=headroom)
            np.subtract(self.total_demand, headroom, out=headroom)
            np.maximum(headroom, 0.0, out=headroom)
            np.matmul(headroom, weights.T, out=child_values[lo : lo + rows])
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
        # wherever they fall in a block; the roots come out in lexicographic
        # row order, as np.unique(pg, axis=0) gives them
        order = np.lexsort(pg.T[::-1])
        ordered = pg[order]
        new = np.empty(pg.shape[0], dtype=bool)
        new[:1] = True
        np.any(ordered[1:] != ordered[:-1], axis=1, out=new[1:])
        roots = ordered[new]
        inverse = np.empty(pg.shape[0], dtype=np.intp)
        inverse[order] = np.cumsum(new) - 1
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
            raise ValueError(
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
    terminal = simulate_paths(
        grid.params,
        grid.corr,
        np.asarray(p_g_now, dtype=float),
        horizon=t_f - t,
        n_steps=1,
        n_paths=n_paths,
        seed=seed,
        measure="transformed",
    )[:, -1, :]
    payoff = np.maximum(np.sum(grid.demands - terminal, axis=1), 0.0)
    estimate = float(payoff.mean())
    stderr = float(payoff.std(ddof=1) / np.sqrt(n_paths))
    return estimate, stderr
