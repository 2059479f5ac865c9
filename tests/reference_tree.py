"""Reference oracle: the explicit tree of joint generation states.

The package values pooled allocations with one engine,
``gridhedge.lattice.RecombiningLattice``.  This module keeps the explicit
tree that the engine is tested against: it builds every joint state of a
2^n-ary tree (``forward_propagate``), folds the netted terminal shortfall
back to the root (``backpropagate``) and replicates the first-level values
by least squares (``compute_resources``).  The code is moved unchanged from
``gridhedge.lattice`` and, for ``classify_terminal``, ``gridhedge.scenario``;
only ``tree_allocation``, the one-root entry point, is new here.
"""
import warnings

import numpy as np

from gridhedge.config import CASE_GE, CASE_LT
from gridhedge.errors import GridHedgeError, RankDeficientWarning, TreeTooLarge
from gridhedge.lattice import DEFAULT_NODE_BUDGET, Allocation, LatticeStepModel


class MalformedTree(GridHedgeError):
    """Leaves do not form a complete tree produced by forward propagation."""


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
        raise ValueError(f"generation {p.shape} vs demand {d.shape}")
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


def tree_allocation(pg_now, d_c, model: LatticeStepModel, remaining_steps: int, prev_a, p_b):
    """One-root allocation step on the explicit tree.

    Returns (portfolio value at the evaluation time, Allocation), the same
    pair as ``gridhedge.dynamic_allocation``.
    """
    pg_now = np.asarray(pg_now, dtype=float)
    if np.any(pg_now <= 0):
        raise ValueError("root generation must be strictly positive")
    prev_a = np.zeros(len(pg_now)) if prev_a is None else np.asarray(prev_a, dtype=float)
    leaves = forward_propagate(pg_now, model, remaining_steps)
    value, first_level = backpropagate(leaves, d_c)
    return value, compute_resources(value, first_level, prev_a, p_b)


def classify_terminal(path, d_c):
    """Comparator tuple, one entry per microgrid: 'ge' iff P(T_f) >= D."""
    values = np.asarray(path, dtype=float)
    terminal = values[-1] if values.ndim == 2 else values
    return tuple(
        CASE_GE if p >= d else CASE_LT for p, d in zip(terminal, d_c, strict=True)
    )

