"""Pooled (transactive) valuation and resource extraction on a lattice.

The remaining horizon is discretized into steps over which every microgrid's
generation moves up or down by a calibrated factor (u*d = 1).  Branch
probabilities are moment-matched to the driftless transformed-measure law of
the log-generation increments: mean -sigma^2*dt/2, variance sigma^2*dt, and
cross moments rho_ij*sigma_i*sigma_j*dt.  One closed form solves these
equations for any number of microgrids: the product-form probabilities with
pairwise correlation corrections of Boyle, Evnine & Gibbs (1989).  A
branch is one row of the +-1 sign matrix ``LatticeStepModel.signs``, the
one basis that the calibration, the moment check, the reach law and the
replication all read.  The netted terminal shortfall is valued back to the
root, and the operator's ReGU/battery mix is read off a least-squares
replication of the first-level portfolio values.  Every child factor is
c_i +- delta_i, so that replication is solved in closed form from the Walsh
coefficients of the child values, with no matrix factorization.

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
from .gbm import GbmParams, simulate_paths
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

@dataclass(frozen=True)
class LatticeStepModel:
    """Calibrated per-step movement factors and branch probabilities.

    ``signs`` is the (2^n, n) branch basis: entry e_ki = +1 when asset i
    moves up on branch k, -1 when it moves down.  Branch 0 moves every asset
    up, the last branch every asset down; asset 0 occupies the most
    significant bit.  ``branch_probs``, the rows of ``branch_matrix`` and the
    children of ``RecombiningLattice`` all follow this order.
    """

    dt: float
    steps: int                 # dt is the horizon over this many steps
    log_steps: np.ndarray      # h_i = ln u_i
    branch_probs: np.ndarray   # length 2^n, ordered like signs
    signs: np.ndarray

    @property
    def n_assets(self) -> int:
        return self.log_steps.size

    @property
    def up(self) -> np.ndarray:
        return np.exp(self.log_steps)

    @property
    def down(self) -> np.ndarray:
        return np.exp(-self.log_steps)

    @property
    def branch_matrix(self) -> np.ndarray:
        """(2^n, n) movement factors; row k pairs with branch_probs[k]."""
        return np.where(self.signs > 0, self.up, self.down)

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
    """(h, probs, bad): log steps, branch probabilities and the branches that fail.

    A branch is bad when its probability leaves [0, 1] or is NaN, and every
    branch is bad when an up factor exp(h) overflows, h = inf included: the
    lattice's factors and its replication would turn it into NaN.
    """
    sigmas = grid.sigmas
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        s = sigmas**2 * dt
        h = np.sqrt(s + (s / 2.0) ** 2)
        pairs = grid.corr.rho * sigmas[:, None] * sigmas * dt / (h[:, None] * h)
        probs = _walsh(signs, -s / (2.0 * h), pairs)
        inside = (probs >= -1e-15) & (probs <= 1 + 1e-15) & np.isfinite(np.exp(h)).all()
    return h, probs, ~inside


def calibrate_step_model(grid: GridEnsemble, horizon: float, steps: int) -> LatticeStepModel:
    """Solve movement factors and branch probabilities for steps steps over horizon.

    One closed form serves every number of assets (Boyle, Evnine & Gibbs
    1989): h_i = sqrt(s_i + (s_i/2)^2) with s_i = sigma_i^2*dt, and branch k
    has probability (1 + sum_i e_ki*m_i + sum_{i<j} e_ki*e_kj*c_ij) / 2^n,
    where e_ki = +-1 marks asset i's move, m_i = -s_i/(2 h_i) and
    c_ij = rho_ij*sigma_i*sigma_j*dt/(h_i h_j).  This solves the printed
    moment equations exactly; for three or more assets, where they leave
    the probabilities underdetermined, it is the completion with every
    higher-order interaction zero.

    dt is horizon / steps.  This is where the node budget is decided: a
    count over it is refused with TreeTooLarge, advising the most
    rebalance_steps within it that calibrate; where none does, the refusals
    below speak of the most steps the budget fits.  A step fails when a
    branch probability leaves [0, 1] or an up factor exp(h) overflows.  The
    refusal then advises, in this order: nothing, when the correlations
    admit no lattice at any fine step, or when sigma^2 * horizon underflows
    to 0; the fewest rebalance_steps that calibrate over the horizon; sigma,
    when a one-hour step of it overflows; else horizon_hours, halved
    exactly until the step count calibrates (nothing if dt reaches 0 first).
    Both searches try every count the node budget fits, since feasibility
    need not be monotone in the count.
    """
    if isinstance(steps, bool) or not (isinstance(steps, numbers.Integral) and steps >= 1):
        raise ValueError(f"steps must be an integer >= 1, got {steps!r}")
    dt = horizon / steps
    if not dt > 0:
        raise ValueError(f"dt must be > 0, got {dt}")
    sigmas = grid.sigmas
    if np.any(sigmas == 0):
        raise DegenerateVolatility("lattice calibration requires sigma > 0")
    n = grid.n_microgrids
    signs = np.array(list(itertools.product([1.0, -1.0], repeat=n)))
    h, probs, bad = _branch_probs(grid, signs, dt)
    most = max_lattice_steps(n)
    over = steps > most
    if not (over or bad.any()):
        return LatticeStepModel(
            dt=dt, steps=steps, log_steps=h, branch_probs=np.clip(probs, 0.0, 1.0), signs=signs
        )
    # h > s/2, so exp(h) overflows at every count whose s = sigma^2 * horizon / count
    # exceeds twice the log of the float range; the searches skip those counts,
    # which for one grid can reach the node budget's millions
    first = min(horizon * sigmas.max() ** 2 / (2 * np.log(np.finfo(float).max)), most + 1)
    counts = range(max(1, int(first)), most + 1)
    calibrating = (count for count in (reversed(counts) if over else counts)
                   if not _branch_probs(grid, signs, horizon / count)[2].any())
    if over:
        fits = next(calibrating, None)
        if fits is not None:
            raise TreeTooLarge(
                f"{steps + 1}^{n} = {(steps + 1) ** n} terminal states exceed the node budget "
                f"{DEFAULT_NODE_BUDGET}; set rebalance_steps to "
                + (f"at most {most}, the most a {n}-grid lattice fits" if fits == most else
                   f"{fits}, the most up to {most} that calibrate over {horizon:g} h"),
                {"rebalance_steps": fits},
            )
        # none does: the refusal below names the most steps the budget fits
        dt = horizon / most
        h, probs, bad = _branch_probs(grid, signs, dt)
    with np.errstate(over="ignore"):
        overflows = np.isinf(np.exp(h)).any()
        hourly = np.isinf(np.exp(_branch_probs(grid, signs, 1.0)[0]))
        # one step over the horizon is the longest: where its sigma^2 * dt
        # underflows to 0, no count or halving gives the grid a move
        still = sigmas**2 * horizon == 0
    # an overflowing step has no offending branch
    k = int(bad.argmax())
    refused = (
        f"a time step of {dt:g} h overflows the lattice's up factor exp(h); " if overflows
        else f"branch {k} probability {probs[k]:.6g} outside [0, 1]; "
    )
    if over:
        refused = f"{steps:.6g} rebalance_steps exceed the node budget; at {most}, " + refused
    # as dt -> 0, m -> 0 and c -> rho; when that limit is negative, or zero
    # and approached from below as -(sum_i e_ki sigma_i)*sqrt(dt)/2^(n+1), no
    # finer time step can restore feasibility
    limits = _walsh(signs, np.zeros(n), grid.corr.rho)
    hopeless = (limits < 0) | ((np.abs(limits) <= 1e-15) & (signs @ sigmas > 0))
    if hopeless.any():
        j = int(np.argmin(np.where(hopeless, limits, np.inf)))
        raise InfeasibleCalibration(
            refused + f"branch {j}'s probability tends to {limits[j]:.6g} as dt -> 0: these "
            "correlations admit no moment-matched lattice at any fine time step, so refining "
            "dt cannot help"
        )
    if still.any():
        i = int(still.argmax())
        raise InfeasibleCalibration(
            refused + f"sigma^2 * horizon_hours underflows to 0 for sigma {sigmas[i]:g} of "
            f"microgrid {i + 1}, so no rebalance_steps calibrates; raise sigma or horizon_hours"
        )
    fewest = next(calibrating, None)  # None when the count is over the budget: searched above
    if fewest is not None:
        raise InfeasibleCalibration(
            refused + f"set rebalance_steps to {fewest} (dt = {horizon / fewest:g} h), "
            f"the fewest that calibrate over {horizon:g} h",
            {"rebalance_steps": fewest},
        )
    if hourly.any():
        i = int(hourly.argmax())
        raise InfeasibleCalibration(
            f"sigma {sigmas[i]:g} of microgrid {i + 1} overflows the lattice's up "
            "factor exp(h) at a time step of 1 h or more; lower sigma",
            {"sigma": None},
        )
    # halving is exact in binary, so the step tried here is bit for bit the
    # one that shorter / rebalance_steps gives the caller
    shorter = horizon
    while dt > 0 and bad.any():
        shorter, dt = shorter / 2, dt / 2
        bad = _branch_probs(grid, signs, dt)[2]
    at = (f"{most} steps calibrate, and rebalance_steps to {most}" if over
          else "this step count calibrates")
    advice = {"horizon_hours": shorter} | ({"rebalance_steps": most} if over else {})
    raise InfeasibleCalibration(
        refused + f"no rebalance_steps up to {most}, the most the node budget fits, "
        f"calibrates over {horizon:g} h; "
        + (f"set horizon_hours to {shorter!r}, the longest halving of it at which {at}"
           if dt else "no halving of horizon_hours calibrates"),
        advice if dt else {},
    )


def moment_residuals(model: LatticeStepModel, grid: GridEnsemble) -> np.ndarray:
    """Plug the model back into the moment equations; all entries should be ~0.

    Order: per-asset means, per-asset raw second moments, upper-triangle
    cross moments, then normalization.
    """
    signs = model.signs
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


def first_level_bytes(n_assets: int, steps: int) -> int:
    """Most bytes ``RecombiningLattice.first_level`` holds at ``steps``, outputs aside.

    This bounds the stacked path, which values two or more distinct roots:
    the child weights and ladder values, (2^n + n) state-sized arrays; two
    more for the FFT's spectrum (at most 1.5 of them); and one headroom
    block, which holds at most one grid or LATTICE_BLOCK_ELEMENTS values.
    One root holds less: the reach law and one headroom grid.
    """
    states = (steps + 1) ** n_assets
    return 8 * (states * ((1 << n_assets) + n_assets + 2) + max(states, LATTICE_BLOCK_ELEMENTS))


def _branch_slices(model, branch):
    """Per-asset slice of a grid one step longer that branch's move lands on."""
    return tuple(slice(1, None) if e > 0 else slice(0, -1) for e in model.signs[branch])


class RecombiningLattice:
    """Pooled allocation of many root states on one recombining lattice.

    Probabilities are state independent and u*d = 1, so a state is fixed by
    its per-asset up-counts, and the chance of reaching each up-count vector
    in l steps is the l-fold convolution power W_l of the one-step law (one
    FFT power), the same for every root.  With s steps left, child k (one
    step taken, up-counts up_k) is worth sum_j W_{s-1}[j] * H[j + up_k],
    where H is the terminal headroom max(D - sum_i pg_i * u_i^(2 j_i - s), 0).
    One root (``allocate --mode tes``, ``dynamic_allocation``, the case
    study's t = 0) contracts W with branch k's slice of its headroom grid,
    one branch at a time.  For two or more distinct roots two BLAS
    products per block of roots replace s rounds of backward induction:
    the (roots, n) root states times the (n, states) ladder values give the
    terminal generation, clipped in place to a (roots, states) headroom
    block, and that block times the transposed (2^n, states) child weights
    (W stacked once per branch) gives the child values.  The roots are the
    outermost axis, one reused buffer holds the block, and a block holds at
    most ``LATTICE_BLOCK_ELEMENTS`` headroom values, whatever the root count.

    The replication design of a root has rows [pg * factors_k, p_b]: the
    unit design [factors_k, p_b] with its generation columns scaled by the
    (positive) root state.  The scaling keeps the rank, so the unit design's
    closed-form solution (``_replicate``) serves every root, and its rank,
    1 plus the number of grids whose up and down factors differ, is known
    at construction.  Equal roots are valued once.

    A root is valued over at most ``model.steps`` steps, the count its
    calibration checked against the node budget.
    """

    def __init__(self, model: LatticeStepModel, d_c, p_b: float):
        if p_b <= 0:
            raise ValueError(f"p_b must be > 0, got {p_b}")
        self.model = model
        self.total_demand = float(np.sum(d_c))
        self.p_b = p_b
        up, down = model.up, model.down
        self.centre = (up + down) / 2.0
        self.half_spread = (up - down) / 2.0
        self.flat = self.half_spread == 0.0
        if self.flat.any():
            flat = np.flatnonzero(self.flat) + 1
            grids = "microgrid" + "s" * (flat.size > 1) + " " + ", ".join(map(str, flat))
            warnings.warn(
                f"replication design matrix rank {model.n_assets + 1 - flat.size} < "
                f"{model.n_assets + 1}: the up and down factors of {grids} are equal in "
                "floating point, so their columns are as constant as the battery's; "
                "raise sigma or the time step. Returning minimum-norm solutions",
                RankDeficientWarning,
                stacklevel=2,
            )
        # the flat grids' columns and the battery's are all constant, so the
        # minimum-norm solution splits the constant component r between them
        # in proportion to their entries: r * share / |shares|^2.  Scaled by
        # the largest entry, the squares cannot overflow at any p_b.
        shares = np.append(self.centre[self.flat], p_b)
        self.share_scale = shares.max()
        shares /= self.share_scale
        self.shares = shares / (shares @ shares)

    def _reach(self, steps, out=None):
        """W_{steps-1} on the (steps,)*n grid of up-counts, into out if given.

        The one-step law on the (2,)*n grid raised to the power steps-1 by
        one FFT (length steps per axis holds its degree steps-1 without
        wrap-around).  The power and the complex passes of the inverse
        (``np.fft.irfftn``'s, in its order) run in place, so one spectrum
        is the only temporary the size of W.
        """
        model = self.model
        one_step = np.zeros((2,) * model.n_assets)
        one_step[tuple((model.signs.T > 0).astype(int))] = model.branch_probs
        axes = range(model.n_assets)
        spectrum = np.fft.rfftn(one_step, (steps,) * model.n_assets, axes)
        spectrum **= steps - 1
        for axis in axes[:-1]:
            np.fft.ifft(spectrum, steps, axis, out=spectrum)
        return np.fft.irfft(spectrum, steps, axes[-1], out=out)

    def _child_weights(self, steps):
        """(2^n, (steps+1)^n) matrix; row k is W_{steps-1} shifted by up_k."""
        model = self.model
        stacked = np.zeros((model.n_branches,) + (steps + 1,) * model.n_assets)
        reach = self._reach(steps, out=stacked[(0,) + _branch_slices(model, 0)])
        for k in range(1, model.n_branches):
            stacked[(k,) + _branch_slices(model, k)] = reach
        return stacked.reshape(model.n_branches, -1)

    def _ladders(self, steps):
        """u_i^(2 j - steps) for j = 0..steps, one per asset i, shaped along axis i."""
        n = self.model.n_assets
        j = np.arange(steps + 1)
        # a rung past the float range is +inf generation, which leaves exactly
        # zero headroom: the root states are positive and the rungs are not
        # negative, so no 0 * inf or inf - inf arises
        with np.errstate(over="ignore"):
            return [np.exp(h * (2 * j - steps)).reshape((-1,) + (1,) * (n - 1 - i))
                    for i, h in enumerate(self.model.log_steps)]

    def _one_root_children(self, root, steps):
        """Child values (1, 2^n) of one root state, one branch at a time.

        Child k is W_{steps-1} contracted with branch k's strided slice of
        the terminal headroom grid, so neither the stacked weights nor the
        ladder matrix is built: the peak is W, the headroom and the FFT.
        """
        model = self.model
        reach = self._reach(steps)
        # headroom = D - sum_i pg_i * u_i^(2 j_i - steps), built in place one
        # asset's ladder at a time; a product past the float range is +inf
        # generation, which leaves zero headroom, as a rung does in _ladders
        headroom = np.zeros((steps + 1,) * model.n_assets)
        with np.errstate(over="ignore"):
            for pg_i, ladder in zip(root, self._ladders(steps)):
                headroom += pg_i * ladder
        np.subtract(self.total_demand, headroom, out=headroom)
        np.maximum(headroom, 0.0, out=headroom)
        axes = list(range(model.n_assets))
        children = [np.einsum(reach, axes, headroom[_branch_slices(model, k)], axes)
                    for k in range(model.n_branches)]
        return np.array([children])

    def first_level(self, pg, steps: int):
        """Root values (m,) and child values (m, 2^n) for root states pg (m, n).

        One root is valued branch by branch; two or more share the stacked
        child weights, two BLAS products per block of roots.
        """
        model = self.model
        if not 1 <= steps <= model.steps:
            raise ValueError(f"steps must lie in [1, {model.steps}], got {steps}")
        n = model.n_assets
        m = pg.shape[0]
        if m == 1:
            child_values = self._one_root_children(pg[0], steps)
            return child_values @ model.branch_probs, child_values
        weights = self._child_weights(steps)
        # levels[i, state] = asset i's ladder at that terminal state, written
        # in place one asset at a time
        states = weights.shape[1]
        levels = np.empty((n, states))
        grid = levels.reshape((n,) + (steps + 1,) * n)
        for i, ladder in enumerate(self._ladders(steps)):
            grid[i] = ladder
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
        unit_a, b = self._replicate(child_values)
        fit = unit_a @ self.model.branch_matrix.T + (b * self.p_b)[:, None]
        residual = np.linalg.norm(fit - child_values, axis=1)
        a = unit_a / roots
        return root_value[inverse], a[inverse], b[inverse], residual[inverse]

    def _replicate(self, child_values):
        """Unit ReGU weights (m, n) and battery units (m,) replicating child values (m, 2^n).

        Child k of asset i moves by c_i + delta_i * e_ki, so the unit design
        [factors, p_b] is the orthogonal +-1 Walsh basis [e, 1] times the
        lower-triangular [[diag(delta), 0], [c^T, p_b]].  Its least-squares
        solution is closed form: asset i's Walsh coefficient w_i = C e_i / 2^n
        over delta_i, and the battery takes the constant component left,
        mean(C) - a . c, over p_b.  A flat grid (delta_i = 0) has a constant
        column; it shares that component with the battery (minimum norm).
        """
        walsh = child_values @ self.model.signs / self.model.n_branches
        unit_a = np.divide(walsh, self.half_spread, out=np.zeros_like(walsh), where=~self.flat)
        rest = (child_values.mean(axis=1) - unit_a @ self.centre) / self.share_scale
        unit_a[:, self.flat] = rest[:, None] * self.shares[:-1]
        return unit_a, rest * self.shares[-1]


def dynamic_allocation(pg_now, d_c, model: LatticeStepModel, remaining_steps: int, prev_a, p_b):
    """End-to-end allocation step for one root: value and extract resources.

    This is ``RecombiningLattice.allocate`` with one root, over at most
    ``model.steps`` remaining steps.  ``pg_now``, ``d_c`` and ``prev_a``
    (default zero) each hold one entry per microgrid of ``model``.  Returns
    (portfolio value at the evaluation time, Allocation).
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
    lattice = RecombiningLattice(model, d_c, p_b)
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
    # the transformed measure is the physical law with the drift removed
    terminal = simulate_paths(
        [GbmParams(0.0, p.sigma) for p in grid.params],
        grid.corr,
        np.asarray(p_g_now, dtype=float),
        horizon=t_f - t,
        n_steps=1,
        n_paths=n_paths,
        seed=seed,
    )[:, -1, :]
    payoff = np.maximum(np.sum(grid.demands - terminal, axis=1), 0.0)
    estimate = float(payoff.mean())
    stderr = float(payoff.std(ddof=1) / np.sqrt(n_paths))
    return estimate, stderr
