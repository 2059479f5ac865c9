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

One allocator does this for every caller: ``RecombiningLattice.allocate``,
which exploits u*d = 1 and state-independent probabilities to value many
roots at once and makes hundreds of steps cheap.  The case study calls it
on all paths, ``dynamic_allocation`` on one root.  The explicit tree of
nodes (``forward_propagate``, ``backpropagate``, ``compute_resources``)
builds, values and replicates every joint state one by one; it is kept as
the reference the allocator is tested against.
"""
import itertools
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateVolatility,
    InfeasibleCalibration,
    LengthMismatch,
    MalformedTree,
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
    movement-factor matrix and the child order of forward propagation.
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
# Explicit tree (reference engine)
# ---------------------------------------------------------------------------

class TreeNode:
    """One joint generation state in the explicit tree."""

    __slots__ = ("pg", "value", "path_prob", "hop_prob", "node_id", "parent", "children")

    def __init__(self, pg, path_prob, hop_prob, node_id, parent=None):
        self.pg = pg
        self.value = 0.0
        self.path_prob = path_prob
        self.hop_prob = hop_prob
        self.node_id = node_id
        self.parent = parent
        self.children = []

    def __repr__(self):
        return f"TreeNode(id={self.node_id}, pg={self.pg}, p={self.path_prob:.3g})"


def tes_terminal_payoff(p_g_tf, d_c) -> float:
    """Netted shortfall max(sum(D - P), 0): surpluses offset deficits."""
    p = np.asarray(p_g_tf, dtype=float)
    d = np.asarray(d_c, dtype=float)
    if p.shape != d.shape:
        raise LengthMismatch(f"generation {p.shape} vs demand {d.shape}")
    return float(max(np.sum(d - p), 0.0))


def forward_propagate(
    root_pg,
    model: LatticeStepModel,
    n_steps: int,
    max_nodes: int = DEFAULT_NODE_BUDGET,
):
    """Build the complete 2^n-ary tree of depth n_steps; returns the leaves.

    Child k of a parent multiplies the parent state by row k of the movement
    matrix, carries hop probability P_k, and gets id 2^n * parent_id + k + 1.
    Interior nodes stay reachable through the leaves' parent links.
    """
    root_pg = np.asarray(root_pg, dtype=float)
    if np.any(root_pg <= 0):
        raise ValueError("root generation must be strictly positive")
    if n_steps < 0:
        raise ValueError("n_steps must be >= 0")
    branches = model.n_branches
    if branches**max(n_steps, 0) > max_nodes:
        raise TreeTooLarge(
            f"{branches}^{n_steps} leaves exceed the node budget {max_nodes}"
        )
    root = TreeNode(pg=root_pg, path_prob=1.0, hop_prob=1.0, node_id=0)
    level = [root]
    factors = model.branch_matrix
    for _ in range(n_steps):
        nxt = []
        for parent in level:
            base_id = branches * parent.node_id
            for k in range(branches):
                child = TreeNode(
                    pg=parent.pg * factors[k],
                    path_prob=parent.path_prob * model.branch_probs[k],
                    hop_prob=float(model.branch_probs[k]),
                    node_id=base_id + k + 1,
                    parent=parent,
                )
                parent.children.append(child)
                nxt.append(child)
        level = nxt
    return level


def tree_levels(leaves):
    """Group a complete tree into levels, leaves first, root last."""
    if not leaves:
        raise MalformedTree("empty leaf list")
    levels = [list(leaves)]
    while levels[-1][0].parent is not None:
        parents = []
        seen = set()
        for node in levels[-1]:
            if node.parent is None:
                raise MalformedTree("leaves have inconsistent depths")
            pid = id(node.parent)
            if pid not in seen:
                seen.add(pid)
                parents.append(node.parent)
        levels.append(parents)
    return levels


def backpropagate(leaves, d_c):
    """Fold terminal payoffs up the tree; every parent is the hop-probability
    average of its children.

    Returns the root value and the root's immediate children (the level used
    for resource extraction); for a depth-0 tree that level is the root
    itself, signalling the single-node branch of the allocation step.
    """
    levels = tree_levels(leaves)
    branches = None
    for node in leaves:
        if node.children:
            raise MalformedTree("leaf has children")
        node.value = tes_terminal_payoff(node.pg, d_c)
    for level in levels[1:]:
        for parent in level:
            if branches is None:
                branches = len(parent.children)
            if len(parent.children) != branches:
                raise MalformedTree("internal node with wrong child count")
            parent.value = float(
                sum(c.hop_prob * c.value for c in parent.children)
            )
    root = levels[-1][0]
    if len(levels) >= 2:
        if len(levels[-1]) != 1 or len(leaves) != branches ** (len(levels) - 1):
            raise MalformedTree("leaf count does not match a complete tree")
        first_level = levels[-2]
    else:
        first_level = [root]
    return root.value, first_level


@dataclass(frozen=True)
class Allocation:
    """ReGU weights, battery units, and replication residual (2-norm, kW)."""

    a: np.ndarray
    b: float
    residual: float


def compute_resources(root_value, first_level_nodes, prev_a, p_b) -> Allocation:
    """Minimum-norm least-squares replication of the first-level values.

    Row j of the design matrix is [P_G of child j, p_b]; the solve uses an
    orthogonal (SVD) decomposition, never normal equations.  A single-node
    level keeps the previous ReGU weights and tops up with battery.
    """
    if p_b <= 0:
        raise ValueError(f"p_b must be > 0, got {p_b}")
    nodes = list(first_level_nodes)
    if len(nodes) == 1:
        node = nodes[0]
        if prev_a is None:
            raise ValueError("single-node extraction needs the previous ReGU weights")
        a = np.asarray(prev_a, dtype=float).copy()
        b = (root_value - float(a @ node.pg)) / p_b
        return Allocation(a=a, b=float(b), residual=0.0)
    n_assets = len(nodes[0].pg)
    design = np.empty((len(nodes), n_assets + 1))
    for j, node in enumerate(nodes):
        design[j, :n_assets] = node.pg
        design[j, n_assets] = p_b
    values = np.array([node.value for node in nodes])
    solution, _, rank, _ = np.linalg.lstsq(design, values, rcond=None)
    if rank < n_assets + 1:
        warnings.warn(
            f"replication design matrix rank {rank} < {n_assets + 1}; "
            "returning the minimum-norm solution",
            RankDeficientWarning,
            stacklevel=2,
        )
    residual = float(np.linalg.norm(design @ solution - values))
    return Allocation(a=solution[:n_assets], b=float(solution[n_assets]), residual=residual)


def replicate_internal(leaves, p_b):
    """Replication solve at every internal node of a backpropagated tree.

    Yields (node, Allocation); with one asset the 2x2 systems are square and
    the residuals vanish to rounding.
    """
    for level in tree_levels(leaves)[1:]:
        for node in level:
            yield node, compute_resources(node.value, node.children, None, p_b)


# ---------------------------------------------------------------------------
# Recombining engine
# ---------------------------------------------------------------------------

# One block of root states is valued at a time; its terminal headroom holds
# at most this many floats (16 MiB), whatever the path count.
LATTICE_BLOCK_ELEMENTS = 2**21


def _branch_slices(model, branch):
    """Per-asset slice of a grid one step longer that branch's move lands on."""
    return tuple(slice(1, None) if up else slice(0, -1) for up in model.up_mask[branch])


class RecombiningLattice:
    """Pooled allocation of many root states on one recombining lattice.

    Probabilities are state independent and u*d = 1, so a state is fixed by
    its per-asset up-counts, and the chance of reaching each up-count vector
    in l steps is the l-fold convolution W_l of the one-step law, the same
    for every root.  With s steps left, child k (one step taken, up-counts
    up_k) is worth sum_j W_{s-1}[j] * H[j + up_k], where H is the terminal
    headroom max(D - sum_i pg_i * u_i^(2 j_i - s), 0).  One matrix product
    per block of roots replaces s rounds of backward induction.

    The replication design of a root has rows [pg * factors_k, p_b]: the
    unit design [factors_k, p_b] with its generation columns scaled by the
    (positive) root state.  The scaling keeps the rank, so one rank check
    and one pseudoinverse of the unit design serve every root.

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
        """((steps+1)^n, 2^n) matrix; column k is W_{steps-1} shifted by up_k.

        W is rebuilt from W_0 on each call: keeping every level would hold
        about steps/(n+1) terminal grids, while one rebuild costs as much as
        backward induction from a single root.
        """
        model = self.model
        reach = np.ones((1,) * model.n_assets)
        for level in range(1, steps):
            nxt = np.zeros((level + 1,) * model.n_assets)
            for k in range(model.n_branches):
                nxt[_branch_slices(model, k)] += model.branch_probs[k] * reach
            reach = nxt
        stacked = np.zeros((steps + 1,) * model.n_assets + (model.n_branches,))
        for k in range(model.n_branches):
            stacked[_branch_slices(model, k) + (k,)] = reach
        return stacked.reshape(-1, model.n_branches)

    def _headroom(self, pg, ladders):
        # broadcasting one asset at a time needs no full-size zero grid and
        # still sums each state's terms in asset order
        rows = pg.shape[0]
        total = pg[:, 0, None] * ladders[0]
        for i in range(1, self.model.n_assets):
            axis = (pg[:, i, None] * ladders[i]).reshape((rows,) + (1,) * i + (-1,))
            total = total[..., None] + axis
        np.subtract(self.total_demand, total, out=total)
        np.maximum(total, 0.0, out=total)
        return total.reshape(rows, -1)

    def first_level(self, pg, steps: int):
        """Root values (m,) and child values (m, 2^n) for root states pg (m, n)."""
        if not 1 <= steps <= self.max_steps:
            raise ValueError(f"steps must lie in [1, {self.max_steps}], got {steps}")
        model = self.model
        weights = self._child_weights(steps)
        j = np.arange(steps + 1)
        ladders = [np.exp(model.log_steps[i] * (2 * j - steps)) for i in range(model.n_assets)]
        m = pg.shape[0]
        rows = max(1, LATTICE_BLOCK_ELEMENTS // weights.shape[0])
        child_values = np.empty((m, model.n_branches))
        for lo in range(0, m, rows):
            child_values[lo : lo + rows] = self._headroom(pg[lo : lo + rows], ladders) @ weights
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
        root_value, child_values = self.first_level(pg, steps)
        scaled = child_values @ self.pinv_unit.T          # (m, n+1)
        fit = scaled @ self.design_unit.T                 # root factors cancel
        residual = np.linalg.norm(fit - child_values, axis=1)
        return root_value, scaled[:, :n] / pg, scaled[:, n], residual


def dynamic_allocation(
    pg_now,
    d_c,
    model: LatticeStepModel,
    remaining_steps: int,
    prev_a,
    p_b,
    engine: str = "recombining",
):
    """End-to-end allocation step for one root: value and extract resources.

    The recombining engine is RecombiningLattice.allocate with one root; the
    explicit tree (engine="tree") is its reference.  Returns (portfolio
    value at the evaluation time, Allocation).
    """
    pg_now = np.asarray(pg_now, dtype=float)
    if np.any(pg_now <= 0):
        raise ValueError("root generation must be strictly positive")
    prev_a = np.zeros(len(pg_now)) if prev_a is None else np.asarray(prev_a, dtype=float)
    if engine == "tree":
        leaves = forward_propagate(pg_now, model, remaining_steps)
        value, first_level = backpropagate(leaves, d_c)
        return value, compute_resources(value, first_level, prev_a, p_b)
    if engine != "recombining":
        raise ValueError(f"unknown engine {engine!r}")
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
