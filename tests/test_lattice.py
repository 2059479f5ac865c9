"""Moment-matched lattice: calibration, propagation, and replication.

Independent oracles used here: a brute-force root solve of the one-asset
moment system (scipy.optimize), residual evaluation written from scratch,
normal-equations least squares, the closed-form per-grid valuation,
transformed-measure Monte Carlo, and the binomial law of one asset's reach
weights (scipy.stats).
"""
import itertools
import math
import re
import tracemalloc
import warnings
from collections import namedtuple

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from scipy.optimize import brentq
from scipy.stats import binom

import gridhedge as gh
from gridhedge.errors import (
    InfeasibleCalibration,
    RankDeficientWarning,
    TimeOutOfRange,
    TreeTooLarge,
)
from gridhedge.lattice import DEFAULT_NODE_BUDGET, RecombiningLattice, max_lattice_steps

import reference_tree
from reference_tree import MalformedTree, tree_levels

# the (state, value) pair compute_resources reads from a first-level node
Node = namedtuple("Node", "pg value")


def make_grid(sigmas, rho=0.0, demands=None, mus=None):
    sigmas = np.atleast_1d(np.asarray(sigmas, dtype=float))
    n = sigmas.size
    mus = np.zeros(n) if mus is None else np.atleast_1d(mus)
    demands = np.full(n, 20.0) if demands is None else np.asarray(demands, float)
    corr = gh.CorrelationMatrix.identity(1) if n == 1 else gh.CorrelationMatrix.pairwise(rho, n)
    return gh.GridEnsemble(
        params=tuple(gh.GbmParams(m, s) for m, s in zip(mus, sigmas)),
        corr=corr,
        demands=demands,
        battery_unit_kw=1.0,
    )


def residual_oracle(model, sigmas, rho, dt):
    """Moment-equation residuals computed from scratch (no library code)."""
    n = len(sigmas)
    probs = model.branch_probs
    h = model.log_steps
    branches = list(itertools.product([1, -1], repeat=n))
    out = []
    for i in range(n):
        s_i = sum(b[i] * p for b, p in zip(branches, probs))
        out.append(h[i] * s_i + sigmas[i] ** 2 * dt / 2)
        out.append(h[i] ** 2 * sum(probs) - h[i] ** 2 * s_i**2 - sigmas[i] ** 2 * dt)
    for i in range(n):
        for j in range(i + 1, n):
            c = sum(b[i] * b[j] * p for b, p in zip(branches, probs))
            out.append(h[i] * h[j] * c - rho * sigmas[i] * sigmas[j] * dt)
    out.append(sum(probs) - 1.0)
    return np.array(out)


def loop_moment_residuals(model, grid):
    """Per-asset loop form of ``moment_residuals``, in the same output order."""
    signs = model.signs
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


class TestCalibration:
    def test_one_asset_closed_form_against_root_solve(self):
        # independent solve of the two-equation system: substituting the
        # mean equation h*(2p-1) = -s/2 into the raw-second-moment equation
        # leaves f(h) = h^2 - (s/2)^2 - s = 0, solved by bisection
        sigma, dt = 0.03, 1.0
        s = sigma**2 * dt
        h_solved = brentq(lambda h: h**2 - (s / 2.0) ** 2 - s, 1e-6, 1.0, xtol=1e-16)
        p_solved = (1.0 - s / (2.0 * h_solved)) / 2.0

        model = gh.calibrate_step_model(make_grid([sigma]), dt)
        h = float(model.log_steps[0])
        p_up = float(model.branch_probs[0])
        assert h == pytest.approx(h_solved, abs=1e-14)
        assert p_up == pytest.approx(p_solved, abs=1e-14)
        # plug back into both equations
        assert abs(h * (2 * p_up - 1) + s / 2) < 1e-14
        assert abs(h**2 * 1.0 - h**2 * (2 * p_up - 1) ** 2 - s) < 1e-15
        assert h == pytest.approx(0.0300034, abs=5e-8)
        assert p_up == pytest.approx(0.49250, abs=5e-6)

    def test_probabilities_sum_to_one(self):
        for sigmas, rho in [([0.03], 0.0), ([0.03, 0.04], 0.6), ([0.02, 0.05, 0.08], -0.3)]:
            model = gh.calibrate_step_model(make_grid(sigmas, rho), 1.0)
            assert model.branch_probs.sum() == pytest.approx(1.0, abs=1e-12)

    def test_u_times_d_is_one(self):
        model = gh.calibrate_step_model(make_grid([0.03, 0.04], 0.6), 1.0)
        assert np.allclose(model.up * model.down, 1.0, atol=1e-12)
        assert np.all(model.up > 1.0) and np.all(model.down < 1.0)

    def test_two_asset_residuals(self):
        model = gh.calibrate_step_model(make_grid([0.03, 0.04], 0.6), 1.0)
        res = residual_oracle(model, [0.03, 0.04], 0.6, 1.0)
        assert np.max(np.abs(res)) < 1e-10

    def test_residual_sweep(self):
        for s1 in (0.01, 0.05, 0.1):
            for s2 in (0.01, 0.1):
                for rho in (-0.9, -0.4, 0.0, 0.4, 0.9):
                    model = gh.calibrate_step_model(make_grid([s1, s2], rho), 1.0)
                    res = residual_oracle(model, [s1, s2], rho, 1.0)
                    assert np.max(np.abs(res)) < 1e-10
                    assert np.all(model.branch_probs >= 0)
                    assert np.all(model.branch_probs <= 1)

    @pytest.mark.parametrize("dt", [0.01, 0.1, 1.0])
    def test_moment_residuals_at_rounding_level(self, dt):
        # the validator's sweep plus a smaller sigma and finer steps; with
        # rho = 0 and sigma*sqrt(dt) <= 1e-3 an iterative solve that stops at
        # an absolute 1e-12 leaves residuals of order 1e-13
        for s1 in (0.005, 0.01, 0.05, 0.1):
            grid = make_grid([s1])
            model = gh.calibrate_step_model(grid, dt)
            assert np.max(np.abs(gh.moment_residuals(model, grid))) < 1e-15
            for s2 in (0.01, 0.1):
                for rho in (-0.9, -0.3, 0.0, 0.3, 0.9):
                    grid = make_grid([s1, s2], rho)
                    model = gh.calibrate_step_model(grid, dt)
                    assert np.max(np.abs(gh.moment_residuals(model, grid))) < 1e-15

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_moment_residuals_match_loop_reference(self, n):
        rng = np.random.Generator(np.random.Philox(key=40 + n))
        for _ in range(25):
            sigmas = rng.uniform(0.005, 0.1, n)
            factors = rng.standard_normal((n, n + 2))
            cov = factors @ factors.T
            scale = np.sqrt(np.diag(cov))
            # shrunk toward the identity, so every draw stays positive
            # definite and feasible (|rho| <= 0.12)
            rho = 0.12 * cov / np.outer(scale, scale) + 0.88 * np.eye(n)
            np.fill_diagonal(rho, 1.0)
            grid = gh.GridEnsemble(
                params=tuple(gh.GbmParams(0.0, s) for s in sigmas),
                corr=gh.CorrelationMatrix(rho),
                demands=np.full(n, 20.0),
                battery_unit_kw=1.0,
            )
            model = gh.calibrate_step_model(grid, rng.choice([0.01, 0.1, 1.0]))
            got = gh.moment_residuals(model, grid)
            want = loop_moment_residuals(model, grid)
            assert got.shape == want.shape == (2 * n + n * (n - 1) // 2 + 1,)
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-15)

    def test_infeasible_raises_with_suggestion(self):
        with pytest.raises(InfeasibleCalibration, match="; set rebalance_steps to 5 "):
            gh.calibrate_step_model(make_grid([0.1, 0.01], 0.98), 1.0)
        # shrinking dt restores feasibility
        model = gh.calibrate_step_model(make_grid([0.1, 0.01], 0.98), 0.01)
        assert np.all(model.branch_probs >= 0)

    @pytest.mark.parametrize("steps", [5, 10])
    def test_suggestion_is_the_fewest_steps_that_calibrate(self, steps):
        grid = make_grid([0.3, 0.04], -0.9)
        with pytest.raises(InfeasibleCalibration) as info:
            gh.calibrate_step_model(grid, 5.0 / steps, horizon=5.0)
        assert str(info.value).startswith("branch 0 probability ")
        assert str(info.value).endswith(
            "outside [0, 1]; set rebalance_steps to 14 (dt = 0.357143 h), "
            "the fewest that calibrate over 5 h"
        )
        assert (info.value.key, info.value.value) == ("rebalance_steps", 14)
        # every count below the suggestion is refused, so it is the fewest
        for fewer in range(1, 14):
            with pytest.raises(InfeasibleCalibration):
                gh.calibrate_step_model(grid, 5.0 / fewer)
        model = gh.calibrate_step_model(grid, 5.0 / 14)
        assert np.all((model.branch_probs >= 0) & (model.branch_probs <= 1))

    def test_suggestion_is_not_assumed_monotone(self, monkeypatch):
        # a calibration that fails at every count except 7 and 9, refused at
        # 8, gets 7: a search up from the refused count would give 9
        from gridhedge import lattice

        branch_probs = lattice._branch_probs

        def patchy(grid, signs, dt):
            h, probs, bad = branch_probs(grid, signs, dt)
            return h, probs, bad | (round(3.0 / dt) not in (7, 9))

        monkeypatch.setattr(lattice, "_branch_probs", patchy)
        with pytest.raises(InfeasibleCalibration, match="rebalance_steps to 7 ") as info:
            gh.calibrate_step_model(make_grid([0.03, 0.04], 0.6), 3.0 / 8, horizon=3.0)
        assert info.value.value == 7

    def assert_advised_horizon_calibrates(self, grid, error, dt, horizon):
        # the advised horizon is horizon / 2^j, and the caller's step count
        # calibrates over it
        assert error.key == "horizon_hours"
        assert math.frexp(error.value / horizon)[0] == 0.5 and error.value < horizon
        assert str(error).endswith(
            f"; set horizon_hours to {error.value!r}, the longest halving of it at which "
            "this step count calibrates"
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            model = gh.calibrate_step_model(
                grid, error.value / round(horizon / dt), horizon=error.value
            )
        assert np.all((model.branch_probs >= 0) & (model.branch_probs <= 1))
        assert np.all(np.isfinite(model.up))

    def test_no_step_count_under_the_budget_calibrates(self):
        # the limit (1 - 0.99999) / 4 is positive, but only a step far finer
        # than 5 h / 3161 reaches it, so the horizon is halved to one
        grid = make_grid([0.3, 0.04], -0.99999)
        with pytest.raises(InfeasibleCalibration) as info:
            gh.calibrate_step_model(grid, 1.0, horizon=5.0)
        assert "; no rebalance_steps up to 3161, the most the node budget fits, " \
            "calibrates over 5 h; " in str(info.value)
        assert info.value.value == 5.0 / 2**29
        self.assert_advised_horizon_calibrates(grid, info.value, 1.0, 5.0)

    @pytest.mark.parametrize("dt, horizon", [(2e199, 1e200), (2e307, 1e308)])
    def test_overflowing_log_step_names_the_horizon(self, dt, horizon):
        # (sigma^2*dt/2)^2 overflows, so h is inf and every probability is
        # 1/4 or NaN; accepted, such a model hung the lattice's pseudoinverse
        grid = make_grid([0.03, 0.04], 0.6)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InfeasibleCalibration) as info:
                gh.calibrate_step_model(grid, dt, horizon=horizon)
        assert str(info.value).startswith(f"a time step of {dt:g} h overflows ")
        assert info.value.branch is None
        self.assert_advised_horizon_calibrates(grid, info.value, dt, horizon)

    def test_step_count_advice_skips_overflowing_counts(self):
        # one step over 1e158 h overflows the log step; advising
        # rebalance_steps = 1 would have sent the caller to that overflow,
        # and no count the budget fits calibrates, so the horizon is halved
        grid = make_grid([0.03, 0.04], 0.6)
        with pytest.raises(InfeasibleCalibration) as info:
            gh.calibrate_step_model(grid, 1e155, horizon=1e158)
        self.assert_advised_horizon_calibrates(grid, info.value, 1e155, 1e158)

    @pytest.mark.parametrize("dt", [1.0, 1e-150 / 3000])
    def test_overflowing_up_factor_names_sigma(self, dt):
        # at 1 h the log step itself overflows; at 3.3e-154 h it is finite
        # but exp(h) is not, and lowering horizon_hours only moves between them
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InfeasibleCalibration, match="lower sigma$") as info:
                gh.calibrate_step_model(make_grid([0.03, 1e150], 0.6), dt)
        error = info.value
        assert str(error).startswith("sigma 1e+150 of microgrid 2 ")
        assert (error.branch, error.key, error.value) == (None, "sigma", None)

    def test_overflowing_up_factor_names_the_horizon(self):
        # one grid keeps its probabilities in [0, 1] at any step, and h is
        # finite at 2e7 h, yet exp(h) overflows; 23 steps of 8.7e5 h do not
        grid = make_grid([0.04])
        with pytest.raises(InfeasibleCalibration) as info:
            gh.calibrate_step_model(grid, 2e7)
        error = info.value
        assert (error.branch, error.key, error.value) == (None, "rebalance_steps", 23)
        model = gh.calibrate_step_model(grid, 2e7 / 23, horizon=2e7)
        assert np.all(np.isfinite(model.up))
        # over a horizon that no count the budget fits divides finely enough,
        # and where a one-hour step calibrates, the refusal names the horizon
        with pytest.raises(InfeasibleCalibration) as info:
            gh.calibrate_step_model(grid, 1e13, horizon=5e13)
        assert info.value.branch is None
        self.assert_advised_horizon_calibrates(grid, info.value, 1e13, 5e13)

    @pytest.mark.parametrize("sigmas, fits", [
        ([0.04], 9_999_999), ([0.03, 0.04], 3161), ([0.03, 0.04, 0.05], 214),
    ])
    def test_count_over_the_budget_refused_at_calibration(self, sigmas, fits):
        # the most steps that fit calibrate, so the refusal keeps the
        # lattice's own wording and advice
        grid = make_grid(sigmas, 0.3)
        with pytest.raises(TreeTooLarge) as refused:
            gh.calibrate_step_model(grid, 5.0 / (fits + 1), horizon=5.0)
        assert str(refused.value).endswith(
            f"; set rebalance_steps to at most {fits}, the most a {len(sigmas)}-grid lattice fits"
        )
        assert str(refused.value).startswith(f"{fits + 2}^{len(sigmas)} = ")
        assert (refused.value.key, refused.value.value) == ("rebalance_steps", fits)
        gh.calibrate_step_model(grid, 5.0 / fits, horizon=5.0)

    def test_count_over_the_budget_advises_the_most_that_calibrate(self, monkeypatch):
        # a calibration that fails at every count except 7 and 9: the count
        # search runs down from the budget's 3161 and stops at 9
        from gridhedge import lattice

        branch_probs = lattice._branch_probs

        def patchy(grid, signs, dt):
            h, probs, bad = branch_probs(grid, signs, dt)
            return h, probs, bad | (round(3.0 / dt) not in (7, 9))

        monkeypatch.setattr(lattice, "_branch_probs", patchy)
        with pytest.raises(TreeTooLarge) as refused:
            gh.calibrate_step_model(make_grid([0.03, 0.04], 0.6), 3.0 / 4000, horizon=3.0)
        assert str(refused.value) == (
            "4001^2 = 16008001 terminal states exceed the node budget 10000000; set "
            "rebalance_steps to 9, the most up to 3161 that calibrate over 3 h"
        )
        assert refused.value.value == 9

    def test_count_over_the_budget_that_no_count_mends_names_both_keys(self):
        # no count up to 3161 calibrates over 5 h: the horizon is halved until
        # 3161 steps do, and the count must come down to them as well
        grid = make_grid([0.3, 0.04], -0.99999)
        with pytest.raises(InfeasibleCalibration) as info:
            gh.calibrate_step_model(grid, 5.0 / 4000, horizon=5.0)
        error = info.value
        assert str(error).startswith("4000 rebalance_steps exceed the node budget; at 3161, ")
        assert str(error).endswith(
            f"; set horizon_hours to {error.value!r}, the longest halving of it at which "
            "3161 steps calibrate, and rebalance_steps to 3161"
        )
        # a halving of 5 h at which 3161 steps calibrate, and the longest one
        assert error.key == "horizon_hours" and math.frexp(error.value / 5.0)[0] == 0.5
        gh.calibrate_step_model(grid, error.value / 3161, horizon=error.value)
        with pytest.raises(InfeasibleCalibration):
            gh.calibrate_step_model(grid, 2 * error.value / 3161, horizon=2 * error.value)

    @pytest.mark.parametrize("dt", [0.0, -1.0])
    def test_step_must_be_positive(self, dt):
        with pytest.raises(ValueError, match=f"^dt must be > 0, got {dt}$"):
            gh.calibrate_step_model(make_grid([0.03, 0.04], 0.6), dt)

    def test_halving_that_reaches_dt_0_advises_no_value(self, monkeypatch):
        # a step that calibrates nowhere ends the halving at dt = 0
        from gridhedge import lattice

        branch_probs = lattice._branch_probs

        def nowhere(grid, signs, dt):
            h, probs, bad = branch_probs(grid, signs, dt)
            return h, probs, bad | True

        monkeypatch.setattr(lattice, "_branch_probs", nowhere)
        with pytest.raises(InfeasibleCalibration) as info:
            gh.calibrate_step_model(make_grid([0.03, 0.04], 0.6), 1.0, horizon=5.0)
        assert (info.value.key, info.value.value) == ("horizon_hours", None)
        assert str(info.value).endswith("; no halving of horizon_hours calibrates")

    def test_infeasible_as_dt_vanishes_says_so(self):
        # three equal anti-correlations: branch 0 tends to
        # (1 + 3 * -0.45) / 8 = -0.04375 as dt -> 0
        grid = make_grid([0.03, 0.03, 0.03], -0.45)
        for dt in (1.0, 1e-6):
            with pytest.raises(InfeasibleCalibration, match="no moment-matched lattice") as info:
                gh.calibrate_step_model(grid, dt)
            assert "smaller" not in str(info.value)
            assert info.value.branch == 0
            assert info.value.limit == pytest.approx(-0.04375, abs=1e-15)

    @pytest.mark.parametrize("dt", [1.0, 1e-8, 1e4])
    @pytest.mark.parametrize(
        "sigmas, rho", [([0.03, 0.04], 1.0), ([0.03, 0.04], -1.0), ([0.03, 0.03], -1.0)]
    )
    def test_perfect_correlation_infeasible_at_every_dt(self, sigmas, rho, dt):
        # a branch whose limit is exactly 0 sits at -(sum_i e_i sigma_i) sqrt(dt) / 8,
        # so a smaller step never helps and the advice must not suggest one
        with pytest.raises(InfeasibleCalibration, match="no moment-matched lattice") as info:
            gh.calibrate_step_model(make_grid(sigmas, rho), dt)
        assert "smaller" not in str(info.value)
        assert info.value.limit == 0
        # the probability printed is one that failed, even where the branch
        # with the hopeless limit is inside [0, 1] at this step (10^4 h, rho 1)
        printed = re.match(r"branch \d+ probability (\S+) outside \[0, 1\]; ", str(info.value))
        assert not 0 <= float(printed.group(1)) <= 1

    def test_equal_volatilities_perfectly_correlated_calibrate(self):
        for dt in (1.0, 1e-2, 1e-8):
            model = gh.calibrate_step_model(make_grid([0.03, 0.03], 1.0), dt)
            assert np.all(model.branch_probs >= 0)

    def test_zero_volatility_rejected(self):
        from gridhedge.errors import DegenerateVolatility

        grid = gh.GridEnsemble(
            params=(gh.GbmParams(0.006, 0.0),),
            corr=gh.CorrelationMatrix.identity(1),
            demands=np.array([20.0]),
            battery_unit_kw=1.0,
        )
        with pytest.raises(DegenerateVolatility):
            gh.calibrate_step_model(grid, 1.0)

    def test_three_assets_pairwise_completion(self):
        sigmas = [0.02, 0.05, 0.08]
        rho = -0.3
        model = gh.calibrate_step_model(make_grid(sigmas, rho), 1.0)
        corr = gh.CorrelationMatrix.pairwise(rho, 3)
        n = 3
        probs = model.branch_probs
        h = model.log_steps
        branches = list(itertools.product([1, -1], repeat=n))
        for i in range(n):
            s_i = sum(b[i] * p for b, p in zip(branches, probs))
            assert abs(h[i] * s_i + sigmas[i] ** 2 / 2) < 1e-12
        for i in range(n):
            for j in range(i + 1, n):
                c = sum(b[i] * b[j] * p for b, p in zip(branches, probs))
                assert abs(h[i] * h[j] * c - rho * sigmas[i] * sigmas[j]) < 1e-12


class TestForwardPropagation:
    def test_zero_steps_single_root(self):
        model = gh.calibrate_step_model(make_grid([0.03, 0.04], 0.6), 1.0)
        leaves = reference_tree.forward_propagate(np.array([20.0, 25.0]), model, 0)
        assert len(leaves) == 1
        assert leaves[0].path_prob == 1.0
        assert leaves[0].node_id == 0

    def test_two_steps_sixteen_leaves(self):
        model = gh.calibrate_step_model(make_grid([0.03, 0.04], 0.6), 1.0)
        leaves = reference_tree.forward_propagate(np.array([20.0, 25.0]), model, 2)
        assert len(leaves) == 16

    def test_probability_conservation(self):
        model = gh.calibrate_step_model(make_grid([0.03, 0.04], 0.6), 1.0)
        leaves = reference_tree.forward_propagate(np.array([20.0, 25.0]), model, 5)
        total = sum(leaf.path_prob for leaf in leaves)
        assert total == pytest.approx(1.0, abs=1e-9)

    def test_ids_unique_and_scheme(self):
        model = gh.calibrate_step_model(make_grid([0.03, 0.04], 0.6), 1.0)
        leaves = reference_tree.forward_propagate(np.array([20.0, 25.0]), model, 3)
        ids = set()
        for leaf in leaves:
            node = leaf
            while node is not None:
                ids.add(node.node_id)
                if node.parent is not None:
                    k = node.node_id - 4 * node.parent.node_id
                    assert 1 <= k <= 4
                node = node.parent
        assert len(ids) == 1 + 4 + 16 + 64

    def test_child_states_follow_branch_matrix(self):
        model = gh.calibrate_step_model(make_grid([0.03, 0.04], 0.6), 1.0)
        leaves = reference_tree.forward_propagate(np.array([20.0, 25.0]), model, 1)
        root = leaves[0].parent
        for k, child in enumerate(root.children):
            assert np.allclose(child.pg, root.pg * model.branch_matrix[k])
            assert child.hop_prob == pytest.approx(model.branch_probs[k])
            assert child.path_prob == pytest.approx(model.branch_probs[k])

    def test_node_budget(self):
        model = gh.calibrate_step_model(make_grid([0.03, 0.04], 0.6), 1.0)
        with pytest.raises(TreeTooLarge):
            reference_tree.forward_propagate(np.array([20.0, 25.0]), model, 20, max_nodes=10_000)

    def test_recombination_consistency(self):
        # equal per-asset up-counts imply equal states (u*d = 1)
        model = gh.calibrate_step_model(make_grid([0.03, 0.04], 0.6), 1.0)
        leaves = reference_tree.forward_propagate(np.array([20.0, 25.0]), model, 4)
        buckets = {}
        for leaf in leaves:
            ups = [0, 0]
            node = leaf
            while node.parent is not None:
                k = node.node_id - 4 * node.parent.node_id - 1
                for i in range(2):
                    if model.signs[k][i] > 0:
                        ups[i] += 1
                node = node.parent
            buckets.setdefault(tuple(ups), []).append(leaf.pg)
        for states in buckets.values():
            base = states[0]
            for pg in states[1:]:
                assert np.max(np.abs(pg - base)) < 1e-12 * np.max(base)


class TestTerminalPayoff:
    def test_netting_cases(self):
        assert reference_tree.tes_terminal_payoff([25.0, 30.0], [20.0, 25.0]) == 0.0
        # surplus of grid 1 offsets part of grid 2's deficit
        assert reference_tree.tes_terminal_payoff([25.0, 18.0], [20.0, 25.0]) == pytest.approx(2.0)
        assert reference_tree.tes_terminal_payoff([15.0, 20.0], [20.0, 25.0]) == pytest.approx(10.0)

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match=r"^generation \(2,\) vs demand \(1,\)$"):
            reference_tree.tes_terminal_payoff([25.0, 30.0], [20.0])


class TestBackpropagation:
    def make_tree(self, n_steps=3, demands=(20.0, 25.0)):
        model = gh.calibrate_step_model(make_grid([0.03, 0.04], 0.6,
                                                  demands=np.array(demands)), 1.0)
        leaves = reference_tree.forward_propagate(np.array([20.0, 25.0]), model, n_steps)
        return model, leaves

    def test_zero_payoffs_propagate_zero(self):
        model, leaves = self.make_tree(demands=(1.0, 1.0))
        value, first = reference_tree.backpropagate(leaves, np.array([1.0, 1.0]))
        assert value == 0.0
        assert len(first) == 4

    def test_tower_property(self):
        model, leaves = self.make_tree()
        value, _ = reference_tree.backpropagate(leaves, np.array([20.0, 25.0]))
        direct = sum(
            leaf.path_prob * reference_tree.tes_terminal_payoff(leaf.pg, [20.0, 25.0])
            for leaf in leaves
        )
        assert value == pytest.approx(direct, abs=1e-9)

    def test_martingale_identity_every_node(self):
        model, leaves = self.make_tree()
        reference_tree.backpropagate(leaves, np.array([20.0, 25.0]))
        for level in tree_levels(leaves)[1:]:
            for node in level:
                want = sum(c.hop_prob * c.value for c in node.children)
                assert abs(node.value - want) <= 1e-12 * max(1.0, abs(want))

    def test_zero_step_tree_returns_payoff(self):
        model, _ = self.make_tree()
        leaves = reference_tree.forward_propagate(np.array([18.0, 24.0]), model, 0)
        value, first = reference_tree.backpropagate(leaves, np.array([20.0, 25.0]))
        assert value == pytest.approx(3.0)
        assert first == leaves

    def test_malformed_tree_detected(self):
        model, leaves = self.make_tree(n_steps=2)
        with pytest.raises(MalformedTree):
            reference_tree.backpropagate(leaves[:-1], np.array([20.0, 25.0]))
        mixed = leaves[:-1] + [leaves[-1].parent]
        with pytest.raises(MalformedTree):
            reference_tree.backpropagate(mixed, np.array([20.0, 25.0]))


class TestComputeResources:
    def test_zero_values_give_zero_allocation(self):
        nodes = [
            Node(pg=np.array([20.6]), value=0.0),
            Node(pg=np.array([19.4]), value=0.0),
        ]
        alloc = reference_tree.compute_resources(0.0, nodes, np.zeros(1), 1.0)
        assert alloc.a[0] == 0.0 and alloc.b == 0.0 and alloc.residual == 0.0

    def test_hand_solved_two_by_two(self):
        # exact solve: a = (0 - 0.588)/(20.606 - 19.412), b = -a * 20.606
        nodes = [
            Node(pg=np.array([20.606]), value=0.0),
            Node(pg=np.array([19.412]), value=0.588),
        ]
        alloc = reference_tree.compute_resources(0.28, nodes, np.zeros(1), 1.0)
        a_want = (0.0 - 0.588) / (20.606 - 19.412)
        b_want = -a_want * 20.606
        assert alloc.a[0] == pytest.approx(a_want, abs=1e-12)
        assert alloc.a[0] == pytest.approx(-0.4925, abs=1e-4)
        assert alloc.b == pytest.approx(b_want, abs=1e-10)
        assert alloc.b == pytest.approx(10.148, abs=1e-3)
        assert alloc.residual < 1e-12

    def test_least_squares_matches_normal_equations(self):
        rng = np.random.default_rng(40)
        for _ in range(25):
            pgs = rng.uniform(5.0, 40.0, size=(4, 2))
            values = rng.uniform(0.0, 10.0, size=4)
            nodes = [Node(pg=pgs[j], value=values[j]) for j in range(4)]
            alloc = reference_tree.compute_resources(values.mean(), nodes, np.zeros(2), 2.0)
            design = np.column_stack([pgs, np.full(4, 2.0)])
            want = np.linalg.solve(design.T @ design, design.T @ values)
            got = np.concatenate([alloc.a, [alloc.b]])
            assert np.allclose(got, want, atol=1e-8)
            assert alloc.residual == pytest.approx(
                np.linalg.norm(design @ want - values), abs=1e-8
            )

    def test_single_node_keeps_previous_weights(self):
        node = Node(pg=np.array([18.0, 24.0]), value=3.0)
        alloc = reference_tree.compute_resources(3.0, [node], np.array([-0.4, -0.5]), 2.0)
        assert np.allclose(alloc.a, [-0.4, -0.5])
        assert alloc.b == pytest.approx((3.0 - (-0.4 * 18.0 - 0.5 * 24.0)) / 2.0)
        assert alloc.residual == 0.0

    def test_rank_deficient_warns(self):
        nodes = [Node(pg=np.array([20.0, 25.0]), value=1.0) for _ in range(4)]
        with pytest.warns(RankDeficientWarning):
            reference_tree.compute_resources(1.0, nodes, np.zeros(2), 1.0)


class TestEngines:
    @pytest.mark.parametrize("n_steps", [0, 1, 2, 4, 6])
    @pytest.mark.parametrize(
        "sigmas,rho", [([0.03], 0.0), ([0.03, 0.04], 0.6), ([0.03, 0.04, 0.05], 0.3)]
    )
    def test_reference_and_recombining_agree(self, n_steps, sigmas, rho):
        n = len(sigmas)
        demands = np.array([20.0, 25.0, 15.0][:n])
        grid = make_grid(sigmas, rho, demands=demands)
        model = gh.calibrate_step_model(grid, 1.0)
        root = np.array([20.0, 25.0, 15.0][:n])
        prev_a = np.array([-0.4, -0.5, -0.3][:n])
        value_t, alloc_t = reference_tree.tree_allocation(
            root, demands, model, n_steps, prev_a, 1.0
        )
        value_r, alloc_r = gh.dynamic_allocation(
            root, demands, model, n_steps, prev_a, 1.0
        )
        assert value_t == pytest.approx(value_r, abs=1e-9)
        assert np.allclose(alloc_t.a, alloc_r.a, atol=1e-9)
        assert alloc_t.b == pytest.approx(alloc_r.b, abs=1e-9)
        assert alloc_t.residual == pytest.approx(alloc_r.residual, abs=1e-9)

    @pytest.mark.parametrize("engine", ["tree", "recombining"])
    def test_non_positive_root_or_battery_unit_rejected(self, engine):
        allocate = {
            "tree": reference_tree.tree_allocation,
            "recombining": gh.dynamic_allocation,
        }[engine]
        model = gh.calibrate_step_model(make_grid([0.03, 0.04], 0.6), 1.0)
        demands = np.array([20.0, 25.0])
        with pytest.raises(ValueError, match="strictly positive"):
            allocate(np.array([0.0, 25.0]), demands, model, 2, None, 1.0)
        with pytest.raises(ValueError, match="p_b must be > 0"):
            allocate(demands, demands, model, 2, None, 0.0)

    @pytest.mark.parametrize(
        "pg_now,d_c,prev_a,steps",
        [
            ([20.0, 25.0], [20.0, 20.0, 5.0], None, 2),  # one demand too many
            ([20.0, 25.0], [20.0, 25.0], [-0.4], 0),  # one ReGU weight too few
            ([20.0, 25.0, 15.0], [20.0, 25.0], None, 2),  # one root state too many
        ],
        ids=["d_c", "prev_a", "pg_now"],
    )
    def test_inputs_must_match_the_lattice(self, pg_now, d_c, prev_a, steps):
        model = gh.calibrate_step_model(make_grid([0.03, 0.04], 0.6), 1.0)
        want = r"^(pg_now|d_c|prev_a) has shape \(\d,\); the lattice has 2 microgrids$"
        with pytest.raises(ValueError, match=want):
            gh.dynamic_allocation(pg_now, d_c, model, steps, prev_a, 1.0)

    @pytest.mark.parametrize("steps", [-1, 2.5])
    def test_remaining_steps_must_be_a_count(self, steps):
        model = gh.calibrate_step_model(make_grid([0.03, 0.04], 0.6), 1.0)
        demands = np.array([20.0, 25.0])
        with pytest.raises(ValueError, match="remaining_steps must be an integer >= 0"):
            gh.dynamic_allocation(demands, demands, model, steps, None, 1.0)

    def test_recombining_grid_budget_checked_before_allocation(self):
        grid = make_grid([0.03, 0.04, 0.05], 0.3, demands=np.array([20.0, 25.0, 15.0]))
        model = gh.calibrate_step_model(grid, 5.0 / 250)
        root = np.array([20.0, 25.0, 15.0])
        tracemalloc.start()
        try:
            with pytest.raises(TreeTooLarge, match="251\\^3"):
                gh.dynamic_allocation(root, grid.demands, model, 250, None, 1.0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000  # one 251^3 grid would be 126 MB

    @pytest.mark.parametrize("sigmas, fits", [
        ([0.03, 0.04], 3161), ([0.03, 0.04, 0.05], 214), ([0.03, 0.04, 0.05, 0.06], 55),
    ])
    def test_refusal_names_the_most_steps_that_fit(self, sigmas, fits):
        # construction allocates no lattice, so the advice is cheap to check
        model = gh.calibrate_step_model(make_grid(sigmas, 0.3), 0.01)
        demands = [20.0] * len(sigmas)
        with pytest.raises(TreeTooLarge, match="terminal states exceed the node budget") as refused:
            RecombiningLattice(model, demands, 2 * fits, 1.0)
        advice = re.search(r"set rebalance_steps to at most (\d+),", str(refused.value))
        assert int(advice[1]) == fits
        RecombiningLattice(model, demands, fits, 1.0)
        with pytest.raises(TreeTooLarge):
            RecombiningLattice(model, demands, fits + 1, 1.0)

    @pytest.mark.parametrize("steps", [0, 5])
    def test_first_level_steps_outside_the_lattice_refused(self, steps):
        model = gh.calibrate_step_model(make_grid([0.03, 0.04], 0.6), 1.0)
        lattice = RecombiningLattice(model, [20.0, 25.0], 4, 1.0)
        with pytest.raises(ValueError, match=rf"^steps must lie in \[1, 4\], got {steps}$"):
            lattice.first_level(np.array([[20.0, 25.0]]), steps)

    @pytest.mark.parametrize("n", range(1, 13))
    def test_max_lattice_steps_is_the_most_that_fit(self, n):
        steps = max_lattice_steps(n)
        assert (steps + 1) ** n <= DEFAULT_NODE_BUDGET < (steps + 2) ** n

    def test_single_asset_replication_exact_everywhere(self):
        grid = make_grid([0.03], demands=np.array([20.0]))
        model = gh.calibrate_step_model(grid, 1.0)
        leaves = reference_tree.forward_propagate(np.array([20.0]), model, 6)
        reference_tree.backpropagate(leaves, np.array([20.0]))
        for node, alloc in reference_tree.replicate_internal(leaves, 1.0):
            assert alloc.residual <= 1e-10

    def test_self_financing_across_transitions(self):
        # the held (old) allocation delivers every realized child's value
        # exactly when replication is exact, so rebalancing trades no power;
        # the child's own portfolio identity carries only the O(dt^2)
        # per-step level drift of a log-martingale tree, vanishing with dt
        def max_identity_defect(dt, n_steps):
            grid = make_grid([0.03], demands=np.array([20.0]))
            model = gh.calibrate_step_model(grid, dt)
            leaves = reference_tree.forward_propagate(np.array([20.0]), model, n_steps)
            reference_tree.backpropagate(leaves, np.array([20.0]))
            worst = 0.0
            for node, alloc in reference_tree.replicate_internal(leaves, 1.0):
                for child in node.children:
                    held = float(alloc.a @ child.pg) + alloc.b * 1.0
                    assert abs(held - child.value) < 1e-10  # exact transition
                worst = max(
                    worst, abs(float(alloc.a @ node.pg) + alloc.b - node.value)
                )
            return worst

        coarse = max_identity_defect(1.0, 5)
        fine = max_identity_defect(0.25, 10)
        assert fine < coarse / 3.0

    def test_convergence_to_closed_form(self):
        # single asset, 200 steps: within 1% of the closed-form valuation
        spec = gh.MicrogridSpec(demand=20.0, gbm=gh.GbmParams(0.006, 0.03))
        grid = make_grid([0.03], demands=np.array([20.0]))
        model = gh.calibrate_step_model(grid, 5.0 / 200)
        value, _ = gh.dynamic_allocation(
            np.array([20.0]), np.array([20.0]), model, 200, None, 1.0
        )
        want = gh.ces_portfolio_value(20.0, spec, 0.0, 5.0)
        assert abs(value - want) / want < 0.01


class TestClosedFormReplication:
    """``RecombiningLattice.allocate``'s replication against ``np.linalg.pinv``."""

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_matches_the_pinv_of_the_unit_design(self, data):
        n = data.draw(st.integers(1, 4))
        # 1e-17 makes u == d in floating point: an exactly constant column
        sigma = st.sampled_from([1e-17]) | st.floats(1e-3, 1.0)
        sigmas = data.draw(st.lists(sigma, min_size=n, max_size=n))
        try:
            model = gh.calibrate_step_model(
                make_grid(sigmas, data.draw(st.floats(-0.1, 0.5))),
                data.draw(st.floats(0.01, 10.0)),
            )
        except InfeasibleCalibration:
            assume(False)
        p_b = 10.0 ** data.draw(st.floats(-3.0, 300.0))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        # distinct roots in the order allocate values them
        roots = np.unique(rng.uniform(5.0, 40.0, size=(3, n)), axis=0)
        child_values = rng.uniform(0.0, 10.0, size=(len(roots), 1 << n))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RankDeficientWarning)
            engine = RecombiningLattice(model, np.full(n, 20.0), 1, p_b)
        engine.first_level = lambda pg, steps: (child_values @ model.branch_probs, child_values)
        value, a, b, residual = engine.allocate(roots, 1, np.zeros_like(roots))
        for got in (value, a, b, residual):
            assert np.all(np.isfinite(got))

        # pinv drops singular values below about 1e-15 of the largest, so a
        # battery column 1e300 times the others would hide them.  Scaling the
        # columns of the grids whose factors differ moves only their own
        # weights, which the values fix uniquely, and leaves the minimum-norm
        # split of the constant columns as it is.
        flat = model.up == model.down
        scale = np.where(flat, 1.0, max(1.0, p_b))
        design = np.column_stack([model.branch_matrix * scale, np.full(1 << n, p_b)])
        pinv = np.linalg.pinv(design)
        solution = child_values @ pinv.T
        want_residual = np.linalg.norm(child_values @ (design @ pinv).T - child_values, axis=1)
        # pinv's own error is about eps times the condition number of the
        # design on its column space; every difference is compared in kW
        singular = np.linalg.svd(design, compute_uv=False)
        condition = singular[0] / singular[n - np.count_nonzero(flat)]
        tol = 1e-12 * condition * child_values.max()
        assert np.all(np.abs(a - solution[:, :n] * scale / roots) * roots * model.up <= tol)
        assert np.all(np.abs(b - solution[:, n]) * p_b <= tol)
        assert np.all(np.abs(residual - want_residual) <= tol)

    @pytest.mark.parametrize("sigmas, rank, named", [
        ([0.03, 1e-17], "rank 2 < 3", "microgrid 2 are"),
        ([1e-17, 0.03, 1e-17], "rank 2 < 4", "microgrids 1, 3 are"),
    ])
    def test_rank_warning_names_the_flat_grids(self, sigmas, rank, named):
        model = gh.calibrate_step_model(make_grid(sigmas, 0.3), 1.0)
        with pytest.warns(RankDeficientWarning) as caught:
            RecombiningLattice(model, np.full(len(sigmas), 20.0), 2, 1.0)
        message = str(caught[0].message)
        assert rank in message and named in message
        assert "raise sigma or the time step" in message


class TestReachWeights:
    """Reach weights W_L, the L-fold convolution power of the one-step law."""

    @pytest.mark.parametrize("level", [2_000, 20_000])
    def test_one_asset_reach_is_binomial(self, level):
        model = gh.calibrate_step_model(make_grid([0.03]), 5.0 / level)
        weights = RecombiningLattice(model, [20.0], level + 1, 1.0)._child_weights(level + 1)
        # row 1 is the down branch, which leaves W_level unshifted
        want = binom.pmf(np.arange(level + 1), level, model.branch_probs[0])
        assert np.max(np.abs(weights[1, :-1] - want)) <= 1e-14

    @pytest.mark.parametrize(
        "sigmas,rho,steps",
        [([0.03], 0.0, 20_000), ([0.03, 0.04], 0.6, 300), ([0.03, 0.04, 0.05], 0.3, 60)],
    )
    def test_every_row_has_unit_mass(self, sigmas, rho, steps):
        model = gh.calibrate_step_model(make_grid(sigmas, rho), 5.0 / steps)
        weights = RecombiningLattice(model, [20.0] * len(sigmas), steps, 1.0)._child_weights(steps)
        # the mass is the one-step total, which rounds to within 2^n ulps of
        # 1, raised to the power steps - 1
        tol = (steps - 1) * model.n_branches * np.finfo(float).eps
        for row in weights:
            assert abs(math.fsum(row) - 1.0) <= tol

    @pytest.mark.parametrize(
        "sigmas,rho,steps", [([0.03, 0.04], 0.6, 300), ([0.03, 0.04, 0.05], 0.3, 60)]
    )
    def test_matches_level_by_level_convolution(self, sigmas, rho, steps):
        # the shifted-add loop the FFT power replaced: W_l is one scaled copy
        # of W_{l-1} per branch, shifted by that branch's up-counts
        n = len(sigmas)
        model = gh.calibrate_step_model(make_grid(sigmas, rho), 5.0 / steps)
        reach = np.ones((1,) * n)
        for level in range(1, steps):
            grown = np.zeros((level + 1,) * n)
            for e, p in zip(model.signs, model.branch_probs):
                grown[tuple(slice(1, None) if u > 0 else slice(0, -1) for u in e)] += p * reach
            reach = grown
        weights = RecombiningLattice(model, [20.0] * n, steps, 1.0)._child_weights(steps)
        # the last branch moves every asset down, which leaves W unshifted
        got = weights[-1].reshape((steps + 1,) * n)[(slice(0, -1),) * n]
        assert np.max(np.abs(got - reach)) <= 1e-15

    def test_deep_one_asset_root_value_is_the_binomial_sum(self):
        steps, demand = 20_000, 20.0
        model = gh.calibrate_step_model(make_grid([0.03]), 5.0 / steps)
        value, _ = gh.dynamic_allocation([demand], [demand], model, steps, None, 1.0)
        j = np.arange(steps + 1)
        headroom = np.maximum(demand - demand * np.exp(model.log_steps[0] * (2 * j - steps)), 0.0)
        want = math.fsum(binom.pmf(j, steps, model.branch_probs[0]) * headroom)
        assert abs(value - want) <= 1e-12 * demand


class TestDominance:
    def test_pooled_never_exceeds_sum_of_puts_on_same_lattice(self):
        # pointwise max(sum d, 0) <= sum max(d, 0) makes the discrete
        # expectations order exactly, independent of calibration
        rng = np.random.default_rng(77)
        for _ in range(100):
            sigmas = rng.uniform(0.01, 0.1, size=2)
            rho = rng.uniform(-0.9, 0.9)
            demands = rng.uniform(10.0, 40.0, size=2)
            root = demands * rng.uniform(0.8, 1.25, size=2)
            grid = make_grid(sigmas, rho, demands=demands)
            model = gh.calibrate_step_model(grid, 1.0)
            leaves = reference_tree.forward_propagate(root, model, 3)
            pooled, _ = reference_tree.backpropagate(leaves, demands)
            separate = sum(
                leaf.path_prob
                * (max(demands[0] - leaf.pg[0], 0.0) + max(demands[1] - leaf.pg[1], 0.0))
                for leaf in leaves
            )
            assert pooled <= separate + 1e-9

    def test_pooled_below_closed_form_sum(self):
        rng = np.random.default_rng(78)
        for _ in range(100):
            sigmas = rng.uniform(0.02, 0.08, size=2)
            rho = rng.uniform(-0.8, 0.8)
            demands = rng.uniform(10.0, 40.0, size=2)
            root = demands * rng.uniform(0.9, 1.1, size=2)
            grid = make_grid(sigmas, rho, demands=demands)
            model = gh.calibrate_step_model(grid, 0.5)
            value, _ = gh.dynamic_allocation(root, demands, grid and model, 8, None, 1.0)
            ces_sum = sum(
                gh.ces_portfolio_value(
                    root[i],
                    gh.MicrogridSpec(demand=demands[i], gbm=gh.GbmParams(0.0, sigmas[i])),
                    0.0,
                    4.0,
                )
                for i in range(2)
            )
            # allow the lattice discretization margin on near-equality draws
            assert value <= ces_sum + 0.02 * max(ces_sum, 0.05)


class TestMonteCarloOracle:
    def test_requires_time_before_horizon(self, demo_grid):
        with pytest.raises(TimeOutOfRange):
            gh.tes_value_mc(demo_grid, np.array([20.0, 25.0]), 5.0, 5.0, 100, 1)

    def test_short_horizon_limit(self, demo_grid):
        estimate, se = gh.tes_value_mc(
            demo_grid, np.array([18.0, 24.0]), 5.0 - 1e-9, 5.0, 20_000, 2
        )
        payoff = reference_tree.tes_terminal_payoff([18.0, 24.0], [20.0, 25.0])
        assert estimate == pytest.approx(payoff, abs=1e-3)
        assert se < 1e-4

    def test_single_asset_matches_closed_form(self, single_grid):
        spec = gh.MicrogridSpec(demand=20.0, gbm=gh.GbmParams(0.006, 0.03))
        estimate, se = gh.tes_value_mc(
            single_grid, np.array([20.0]), 0.0, 5.0, 400_000, 33
        )
        want = gh.ces_portfolio_value(20.0, spec, 0.0, 5.0)
        assert abs(estimate - want) < 3 * se

    def test_two_asset_lattice_agrees_within_margin(self, demo_grid):
        root = np.array([20.0, 25.0])
        model5 = gh.calibrate_step_model(demo_grid, 1.0)
        value5, _ = gh.dynamic_allocation(root, demo_grid.demands, model5, 5, None, 1.0)
        model80 = gh.calibrate_step_model(demo_grid, 5.0 / 80)
        value80, _ = gh.dynamic_allocation(root, demo_grid.demands, model80, 80, None, 1.0)
        estimate, se = gh.tes_value_mc(demo_grid, root, 0.0, 5.0, 1_000_000, 44)
        margin = 3 * se + abs(value5 - value80) + 0.01 * estimate
        assert abs(value5 - estimate) <= margin
        assert abs(value80 - estimate) <= 3 * se + 0.015 * estimate
