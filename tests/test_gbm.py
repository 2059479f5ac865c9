"""Correlated GBM simulation, estimation, and goodness of fit."""
import re
import tracemalloc

import numpy as np
import pytest

import gridhedge as gh
from gridhedge.errors import DegenerateVolatility, DegenerateVolatilityWarning


def random_correlation(rng, n, rank=None):
    """Correlation of rank ``rank`` (default n) from random factor loadings."""
    loadings = rng.normal(size=(n, n + 2 if rank is None else rank))
    cov = loadings @ loadings.T
    scale = np.sqrt(np.diag(cov))
    rho = cov / np.outer(scale, scale)
    rho = (rho + rho.T) / 2
    np.fill_diagonal(rho, 1.0)
    return rho


# positive semi-definite matrices with a zero eigenvalue
SINGULAR = {
    "rho=1": [[1.0, 1.0], [1.0, 1.0]],
    "rho=-1": [[1.0, -1.0], [-1.0, 1.0]],
    "pairwise=-0.5": [[1.0, -0.5, -0.5], [-0.5, 1.0, -0.5], [-0.5, -0.5, 1.0]],
    "rank1": [[1.0, 1.0, -1.0], [1.0, 1.0, -1.0], [-1.0, -1.0, 1.0]],
}


class TestCholesky:
    def test_identity(self):
        corr = gh.CorrelationMatrix.identity(2)
        assert np.allclose(corr.factor, np.eye(2))

    def test_hand_factor(self):
        # 0.8 = sqrt(1 - 0.36)
        corr = gh.CorrelationMatrix.pairwise(0.6)
        want = np.array([[1.0, 0.0], [0.6, 0.8]])
        assert np.allclose(corr.factor, want, atol=1e-15)

    def test_invalid_correlation_rejected(self):
        with pytest.raises(ValueError, match="not positive semi-definite"):
            gh.CorrelationMatrix(np.array([[1.0, 1.0001], [1.0001, 1.0]]))

    def test_reconstruction(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            rho = random_correlation(rng, 4)
            lower = gh.CorrelationMatrix(rho).factor
            assert np.max(np.abs(lower @ lower.T - rho)) < 1e-12

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            gh.CorrelationMatrix(np.array([[1.0, 0.2], [0.3, 1.0]]))
        with pytest.raises(ValueError):
            gh.CorrelationMatrix(np.array([[0.9, 0.2], [0.2, 1.0]]))
        # 1e-12 is an absolute tolerance, not numpy's default rtol of 1e-5
        with pytest.raises(ValueError, match="symmetric"):
            gh.CorrelationMatrix(np.array([[1.0, 0.5], [0.500001, 1.0]]))
        with pytest.raises(ValueError, match="unit diagonal"):
            gh.CorrelationMatrix(np.array([[1.000001, 0.5], [0.5, 1.0]]))

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_bit_identical_to_lapack_on_positive_definite(self, n):
        rng = np.random.default_rng(100 + n)
        for _ in range(2000):
            rho = random_correlation(rng, n)
            factor = gh.CorrelationMatrix(rho).factor
            assert np.array_equal(factor, np.linalg.cholesky(rho))

    @pytest.mark.parametrize("coefficient, n", [(0.6, 2), (0.3, 3)])
    def test_benchmark_correlations_bit_identical(self, coefficient, n):
        corr = gh.CorrelationMatrix.pairwise(coefficient, n)
        assert np.array_equal(corr.factor, np.linalg.cholesky(corr.rho))

    @pytest.mark.parametrize("rho", list(SINGULAR.values()), ids=list(SINGULAR))
    def test_singular_boundary_factored(self, rho):
        rho = np.array(rho)
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.cholesky(rho)
        lower = gh.CorrelationMatrix(rho).factor
        assert np.array_equal(lower, np.tril(lower))
        assert np.max(np.abs(lower @ lower.T - rho)) <= 1e-12

    @pytest.mark.parametrize(
        "rho",
        [
            [[1.0, 1.0, 0.0], [1.0, 1.0, 0.5], [0.0, 0.5, 1.0]],  # zero pivot, then a miss
            [[1.0, -0.6, -0.6], [-0.6, 1.0, -0.6], [-0.6, -0.6, 1.0]],
            [[1.0, np.inf], [np.inf, 1.0]],
        ],
        ids=["singular_inconsistent", "pairwise=-0.6", "inf"],
    )
    def test_not_semi_definite_rejected(self, rho):
        with pytest.raises(ValueError, match="^not positive semi-definite"):
            gh.CorrelationMatrix(np.array(rho))

    def test_nan_entry_named(self):
        with pytest.raises(ValueError, match="NaN"):
            gh.CorrelationMatrix(np.array([[1.0, np.nan], [np.nan, 1.0]]))

    def test_every_accepted_matrix_simulates(self):
        rng = np.random.default_rng(11)
        matrices = [np.array(rho) for rho in SINGULAR.values()]
        for n in (2, 3, 4):
            for rank in range(1, n + 1):
                matrices += [random_correlation(rng, n, rank) for _ in range(5)]
        simulated = 0
        for rho in matrices:
            try:
                corr = gh.CorrelationMatrix(rho)
            except ValueError:
                continue  # the property concerns accepted matrices only
            n = corr.n
            paths = gh.simulate_paths(
                [gh.GbmParams(0.005, 0.03)] * n, corr, np.full(n, 20.0),
                horizon=5.0, n_steps=5, n_paths=50, seed=3,
            )
            assert paths.shape == (50, 6, n)
            assert np.all(np.isfinite(paths)) and np.all(paths > 0)
            simulated += 1
        assert simulated >= len(SINGULAR) + 40

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_perfect_correlation_shares_or_negates_one_driver(self, sign):
        sigma, dt = 0.03, 1.0
        paths = gh.simulate_paths(
            [gh.GbmParams(0.0, sigma)] * 2, gh.CorrelationMatrix.pairwise(sign),
            np.array([20.0, 25.0]), horizon=5.0, n_steps=5, n_paths=200, seed=9,
        )
        shocks = np.diff(np.log(paths), axis=1) + sigma**2 * dt / 2
        assert np.max(np.abs(shocks[..., 1] - sign * shocks[..., 0])) < 1e-12
        assert np.std(shocks[..., 0]) > sigma / 2


class TestSimulatePaths:
    def setup_method(self):
        self.params = [gh.GbmParams(0.006, 0.03), gh.GbmParams(0.005, 0.04)]
        self.corr = gh.CorrelationMatrix.pairwise(0.6)
        self.initial = np.array([20.0, 25.0])

    def test_zero_volatility_rejected(self):
        with pytest.raises(DegenerateVolatility):
            gh.simulate_paths(
                [gh.GbmParams(0.006, 0.0)],
                gh.CorrelationMatrix.identity(1),
                np.array([20.0]),
                horizon=5.0,
                n_steps=5,
                n_paths=10,
                seed=1,
            )

    def test_bad_horizon(self):
        with pytest.raises(ValueError, match="^horizon must be > 0, got 0.0$"):
            gh.simulate_paths(
                self.params, self.corr, self.initial, horizon=0.0,
                n_steps=5, n_paths=10, seed=1,
            )

    def test_physical_mean_matches_analytic(self):
        # E[P_t] = P_0 exp(mu t)
        ens = gh.simulate_paths(
            [gh.GbmParams(0.006, 0.03)],
            gh.CorrelationMatrix.identity(1),
            np.array([20.0]),
            horizon=5.0,
            n_steps=5,
            n_paths=10_000,
            seed=11,
        )
        terminal = ens[:, -1, 0]
        want = 20.0 * np.exp(0.006 * 5.0)
        se = terminal.std(ddof=1) / np.sqrt(terminal.size)
        assert abs(terminal.mean() - want) < 3 * se

    def test_transformed_is_driftless(self):
        # the transformed measure is the physical law at zero drift
        ens = gh.simulate_paths(
            [gh.GbmParams(0.0, 0.03)],
            gh.CorrelationMatrix.identity(1),
            np.array([20.0]),
            horizon=5.0,
            n_steps=5,
            n_paths=10_000,
            seed=12,
        )
        terminal = ens[:, -1, 0]
        se = terminal.std(ddof=1) / np.sqrt(terminal.size)
        assert abs(terminal.mean() - 20.0) < 3 * se

    def test_per_step_martingale_under_transformed(self):
        # E[P_{n+1} | P_n] = P_n: regressing increments on the prior state
        # must give zero intercept and slope within 3 sigma
        driftless = [gh.GbmParams(0.0, p.sigma) for p in self.params]
        ens = gh.simulate_paths(
            driftless, self.corr, self.initial,
            horizon=5.0, n_steps=5, n_paths=10_000, seed=13,
        )
        increments = np.diff(ens, axis=1)
        for asset in range(2):
            y = increments[:, :, asset].ravel()
            x = ens[:, :-1, asset].ravel()
            design = np.column_stack([np.ones_like(x), x])
            beta, *_ = np.linalg.lstsq(design, y, rcond=None)
            resid = y - design @ beta
            cov = np.linalg.inv(design.T @ design) * (resid @ resid) / (y.size - 2)
            z = beta / np.sqrt(np.diag(cov))
            assert np.all(np.abs(z) < 3.0)

    def test_positivity_and_initial_condition(self):
        ens = gh.simulate_paths(
            self.params, self.corr, self.initial,
            horizon=5.0, n_steps=7, n_paths=500, seed=3,
        )
        assert np.all(ens > 0)
        assert np.allclose(ens[:, 0, :], self.initial)

    def test_seed_determinism(self):
        kwargs = dict(horizon=5.0, n_steps=5, n_paths=64, seed=42)
        a = gh.simulate_paths(self.params, self.corr, self.initial, **kwargs)
        b = gh.simulate_paths(self.params, self.corr, self.initial, **kwargs)
        assert np.array_equal(a, b)
        c = gh.simulate_paths(self.params, self.corr, self.initial,
                              horizon=5.0, n_steps=5, n_paths=64, seed=43)
        assert not np.array_equal(a, c)

    def test_log_increment_covariance(self):
        # empirical covariance vs sigma_i sigma_j rho_ij dt at 1e5 paths
        ens = gh.simulate_paths(
            self.params, self.corr, self.initial,
            horizon=1.0, n_steps=1, n_paths=100_000, seed=21,
        )
        x = np.diff(np.log(ens), axis=1)[:, 0, :]
        got = np.cov(x.T, ddof=0)
        sig = np.array([0.03, 0.04])
        want = np.outer(sig, sig) * self.corr.rho
        assert np.max(np.abs(got - want) / want) < 0.05


    @pytest.mark.parametrize("measure", ["physical", "transformed"])
    def test_bit_identical_to_the_expression(self, measure):
        # the in-place buffer must give the bytes of the plain expression;
        # the transformed measure, drawn at zero drift, must give the bytes
        # of its own driftless expression -sigma^2*dt/2
        sigma = np.array([0.03, 0.04])
        mu = np.array([0.006, 0.005])
        dt = 5.0 / 7
        drift = (mu - sigma**2 / 2.0) * dt if measure == "physical" else -(sigma**2) * dt / 2.0
        z = np.random.Generator(np.random.Philox(key=17)).standard_normal((301, 7, 2))
        increments = drift + (z @ self.corr.factor.T) * sigma * np.sqrt(dt)
        want = np.exp(np.cumsum(increments, axis=1) + np.log(self.initial))
        params = self.params if measure == "physical" else [
            gh.GbmParams(0.0, p.sigma) for p in self.params
        ]
        got = gh.simulate_paths(
            params, self.corr, self.initial,
            horizon=5.0, n_steps=7, n_paths=301, seed=17,
        )
        assert got[:, 1:, :].tobytes() == want.tobytes()
        assert np.array_equal(got[:, 0, :], np.broadcast_to(self.initial, (301, 2)))

    def test_peak_is_the_output_and_two_step_arrays(self):
        # one _collect_paths block: the draws and one increment buffer, then
        # that buffer and the output (3.4 MiB traced; 7.9 MiB when each step
        # of the expression made its own temporary)
        shape = (20_000, 5, 2)
        tracemalloc.start()
        try:
            values = gh.simulate_paths(
                self.params, self.corr, self.initial,
                horizon=5.0, n_steps=shape[1], n_paths=shape[0], seed=3,
            )
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= values.nbytes + 2 * 8 * np.prod(shape)


class TestMle:
    def test_round_trip_within_2pct(self):
        params = gh.GbmParams(0.007, 0.027)
        ens = gh.simulate_paths(
            [params], gh.CorrelationMatrix.identity(1), np.array([20.0]),
            horizon=100_000 / 12, n_steps=100_000, n_paths=1, seed=5,
        )
        fitted, returns = gh.estimate_gbm_mle(ens[0, :, 0], dt=1 / 12)
        assert returns.size == 100_000
        assert abs(fitted.sigma - 0.027) / 0.027 < 0.02

    def test_formula_against_hand_computation(self):
        series = np.array([10.0, 11.0, 10.5, 12.0, 11.8])
        dt = 0.5
        fitted, returns = gh.estimate_gbm_mle(series, dt)
        x = np.diff(np.log(series))
        sigma_sq = x.var(ddof=0) / dt  # MLE divisor n
        assert np.allclose(returns, x)
        assert fitted.sigma == pytest.approx(np.sqrt(sigma_sq), rel=1e-12)
        assert fitted.mu == pytest.approx(x.mean() / dt + sigma_sq / 2, rel=1e-12)

    def test_constant_series_warns_degenerate(self):
        with pytest.warns(DegenerateVolatilityWarning):
            fitted, _ = gh.estimate_gbm_mle(np.full(10, 7.0), dt=1.0)
        assert fitted.sigma == 0.0

    def test_error_cases(self):
        with pytest.raises(ValueError, match="^need at least 3 observations, got 2$"):
            gh.estimate_gbm_mle([1.0, 2.0], dt=1.0)
        with pytest.raises(ValueError, match="^series value at index 1 is not positive$"):
            gh.estimate_gbm_mle([1.0, -2.0, 3.0], dt=1.0)

    def test_consistency_error_shrinks_like_sqrt_n(self):
        params = gh.GbmParams(0.007, 0.027)
        ens = gh.simulate_paths(
            [params], gh.CorrelationMatrix.identity(1), np.array([20.0]),
            horizon=100_000 / 12, n_steps=100_000, n_paths=1, seed=17,
        )
        series = ens[0, :, 0]
        errors = []
        for n in (1_000, 10_000, 100_000):
            fitted, _ = gh.estimate_gbm_mle(series[: n + 1], dt=1 / 12)
            errors.append(abs(fitted.sigma - 0.027))
        assert errors[2] < 0.5 * errors[0]


class TestChiSquareSurvival:
    @pytest.mark.parametrize(
        "dofs, tolerance", [(range(1, 301), 1e-12), ((997, 9_997, 99_997), 1e-9)]
    )
    def test_matches_scipy_chdtrc(self, dofs, tolerance):
        from scipy.special import chdtrc, chdtri

        worst = 0.0
        for dof in dofs:
            # from near zero through the bulk to past p = 1e-300
            tail = chdtri(dof, 1e-300)
            xs = np.concatenate(
                [np.geomspace(1e-8, tail, 40), np.linspace(dof, tail, 40), [1.01 * tail]]
            )
            for x in xs:
                want = chdtrc(dof, x)
                if want >= 1e-300:
                    got = gh.chi_square_survival(float(x), dof)
                    worst = max(worst, abs(got - want) / want)
        assert worst < tolerance

    def test_large_dof_does_not_underflow(self):
        assert gh.chi_square_survival(99_849.0, 99_997) == pytest.approx(0.629, abs=5e-4)

    @pytest.mark.parametrize("dof", [1, 2, 13, 300])
    def test_zero_statistic_is_exactly_one(self, dof):
        assert gh.chi_square_survival(0.0, dof) == 1.0

    @pytest.mark.parametrize("dof", [0, -3, 2.5, 13.0])
    def test_dof_must_be_a_positive_integer(self, dof):
        with pytest.raises(ValueError, match="dof must be an integer >= 1"):
            gh.chi_square_survival(1.0, dof)


class TestChiSquareGof:
    def test_too_few_bins(self):
        with pytest.raises(ValueError, match="^n_bins=3 leaves dof < 1$"):
            gh.chi_square_gof(np.zeros(10), gh.GbmParams(0.0, 0.1), 1.0, n_bins=3)

    def test_empty_sample(self):
        with pytest.raises(ValueError, match="^no log-returns supplied$"):
            gh.chi_square_gof(np.array([]), gh.GbmParams(0.0, 0.1), 1.0, n_bins=8)

    def test_more_bins_than_log_returns(self):
        # checked before the n_bins - 1 edges are built
        with pytest.raises(ValueError, match="^n_bins=11 exceeds the 10 log-returns supplied$"):
            gh.chi_square_gof(np.zeros(10), gh.GbmParams(0.0, 0.1), 1.0, n_bins=11)
        result = gh.chi_square_gof(np.zeros(10), gh.GbmParams(0.0, 0.1), 1.0, n_bins=10)
        assert result.dof == 7

    def test_statistic_against_manual_binning(self):
        rng = np.random.default_rng(8)
        params = gh.GbmParams(0.01, 0.05)
        dt = 0.25
        x = rng.normal((params.mu - params.sigma**2 / 2) * dt,
                       params.sigma * np.sqrt(dt), size=2_000)
        result = gh.chi_square_gof(x, params, dt, n_bins=10)
        from scipy.stats import norm

        edges = norm.ppf(np.arange(1, 10) / 10,
                         loc=(params.mu - params.sigma**2 / 2) * dt,
                         scale=params.sigma * np.sqrt(dt))
        counts, _ = np.histogram(x, bins=np.concatenate([[-np.inf], edges, [np.inf]]))
        want = np.sum((counts - 200.0) ** 2 / 200.0)
        assert result.statistic == pytest.approx(want, rel=1e-12)
        assert result.dof == 7

    def test_known_parameters_calibration(self):
        # with the true parameters the statistic is chi2(n_bins - 1) exactly;
        # p-values should look uniform across independent samples
        params = gh.GbmParams(0.006, 0.03)
        dt = 1.0
        rng = np.random.default_rng(123)
        pvals = []
        for _ in range(300):
            x = rng.normal((params.mu - params.sigma**2 / 2) * dt,
                           params.sigma * np.sqrt(dt), size=4_000)
            # no parameter is fitted, so the p-value takes all 15 dof
            res = gh.chi_square_gof(x, params, dt, n_bins=16)
            pvals.append(gh.chi_square_survival(res.statistic, 15))
        pvals = np.array(pvals)
        grid = np.linspace(0, 1, 101)
        ecdf = np.searchsorted(np.sort(pvals), grid, side="right") / pvals.size
        assert np.max(np.abs(ecdf - grid)) < 1.63 / np.sqrt(pvals.size)  # KS 1%

    def test_estimated_parameters_calibration_loose(self):
        # dof correction for the two fitted parameters keeps p roughly uniform
        rng = np.random.default_rng(321)
        pvals = []
        for _ in range(200):
            series = 20.0 * np.exp(np.cumsum(
                rng.normal(-0.00045, 0.03, size=3_000)))
            fitted, returns = gh.estimate_gbm_mle(series, dt=1.0)
            pvals.append(gh.chi_square_gof(returns, fitted, 1.0, n_bins=16).p_value)
        pvals = np.array(pvals)
        assert 0.40 < pvals.mean() < 0.60
        assert pvals.min() < 0.2 and pvals.max() > 0.8


def simulate(**changed):
    """simulate_paths on the two-grid demo arguments, with some changed."""
    args = dict(
        params=[gh.GbmParams(0.006, 0.03), gh.GbmParams(0.005, 0.04)],
        corr=gh.CorrelationMatrix.pairwise(0.6),
        initial=np.array([20.0, 25.0]),
        horizon=5.0, n_steps=5, n_paths=10, seed=1,
    )
    return gh.simulate_paths(**{**args, **changed})


# each argument refusal of the module: its call, error class and whole message
REFUSALS = {
    "negative_sigma": (lambda: gh.GbmParams(0.0, -0.1), ValueError,
                       "sigma must be finite and >= 0, got -0.1"),
    "infinite_sigma": (lambda: gh.GbmParams(0.0, np.inf), ValueError,
                       "sigma must be finite and >= 0, got inf"),
    "nan_sigma": (lambda: gh.GbmParams(0.0, np.nan), ValueError,
                  "sigma must be finite and >= 0, got nan"),
    "non_square_correlation": (lambda: gh.CorrelationMatrix(np.ones((2, 3))), ValueError,
                               "correlation matrix must be square, got (2, 3)"),
    "no_steps": (lambda: simulate(n_steps=0), ValueError, "n_steps and n_paths must be >= 1"),
    "no_paths": (lambda: simulate(n_paths=0), ValueError, "n_steps and n_paths must be >= 1"),
    "initial_per_process": (lambda: simulate(initial=np.array([20.0])), ValueError,
                            "initial must supply one value per process"),
    "correlation_dimension": (lambda: simulate(corr=gh.CorrelationMatrix.identity(3)),
                              ValueError, "correlation dimension does not match params"),
    "one_return": (lambda: gh.gbm_mle_from_returns([0.01], 1.0), ValueError,
                   "need at least 2 log-returns, got 1"),
    "zero_dt": (lambda: gh.gbm_mle_from_returns([0.01, 0.02], 0.0), ValueError,
                "dt must be > 0, got 0.0"),
    "negative_dt": (lambda: gh.gbm_mle_from_returns([0.01, 0.02], -1.0), ValueError,
                    "dt must be > 0, got -1.0"),
    "zero_sigma_bins": (lambda: gh.chi_square_gof(np.zeros(8), gh.GbmParams(0.0, 0.0), 1.0, 4),
                        DegenerateVolatility, "cannot bin against a zero-volatility law"),
}


@pytest.mark.parametrize("call, error, message", REFUSALS.values(), ids=REFUSALS)
def test_argument_refused(call, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        call()
