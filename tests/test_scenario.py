"""Case-study driver: classification, savings, aggregation, CSV output."""
import importlib.util
import inspect
import sys
import tracemalloc
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import gridhedge as gh
from gridhedge import ces, cli, lattice, stats
from gridhedge.config import format_case, parse_case
from gridhedge.errors import (
    InfeasibleCalibration,
    InsufficientPaths,
    RankDeficientWarning,
    TreeTooLarge,
)
from gridhedge import scenario
from gridhedge.lattice import RecombiningLattice
from gridhedge.scenario import _batch_ces, _collect_paths, derive_seed

import reference_tree


def make_config(demo_grid, **overrides):
    base = dict(
        grid=demo_grid,
        initial_kw=np.array([20.0, 25.0]),
        horizon_hours=5.0,
        rebalance_steps=5,
        n_paths=1_500,
        seed=42,
        case_filter=("ge", "lt"),
        n_resamples=800,
    )
    base.update(overrides)
    return gh.ScenarioConfig(**base)


class TestClassification:
    def test_examples(self):
        d = [20.0, 25.0]
        assert reference_tree.classify_terminal([22.0, 26.0], d) == ("ge", "ge")
        assert reference_tree.classify_terminal([22.0, 24.0], d) == ("ge", "lt")
        assert reference_tree.classify_terminal([19.0, 24.0], d) == ("lt", "lt")

    def test_boundary_counts_as_surplus(self):
        assert reference_tree.classify_terminal([20.0, 25.0], [20.0, 25.0]) == ("ge", "ge")

    def test_accepts_full_path(self):
        path = np.array([[20.0, 25.0], [21.0, 24.0], [22.0, 26.0]])
        assert reference_tree.classify_terminal(path, [20.0, 25.0]) == ("ge", "ge")

    def test_label_round_trip(self):
        assert parse_case("ge, lt") == ("ge", "lt")
        assert format_case(("ge", "lt")) == "ge,lt"
        with pytest.raises(ValueError):
            parse_case("ge, up")


class TestBatterySavings:
    def test_equal_series_zero(self):
        series, overall = gh.battery_savings([3.0, 2.0, 1.0], [3.0, 2.0, 1.0])
        assert np.allclose(series, 0.0) and overall == 0.0

    def test_pointwise_formula_and_overall_mean(self):
        series, overall = gh.battery_savings([1.0, 1.0], [2.0, 4.0])
        assert np.allclose(series, [50.0, 75.0])
        assert overall == pytest.approx(62.5)

    def test_zero_denominator_reports_zero(self):
        series, overall = gh.battery_savings([0.0, 1.0], [0.0, 2.0])
        assert series[0] == 0.0 and series[1] == 50.0
        assert overall == pytest.approx(25.0)

    def test_misaligned_series_refused(self):
        with pytest.raises(ValueError, match="^series must be aligned$"):
            gh.battery_savings([1.0, 1.0], [2.0, 4.0, 8.0])


class TestDeriveSeed:
    def test_deterministic_and_distinct(self):
        assert derive_seed(42, "paths", 0) == derive_seed(42, "paths", 0)
        assert derive_seed(42, "paths", 0) != derive_seed(42, "paths", 1)
        assert derive_seed(42, "paths", 0) != derive_seed(43, "paths", 0)
        assert derive_seed(42, "paths", 0) != derive_seed(42, "bootstrap", 0)


class TestRunCaseStudy:
    def test_time_zero_is_seed_independent(self, demo_grid):
        runs = [
            gh.run_case_study(make_config(demo_grid, seed=seed, n_paths=300,
                                          n_resamples=150))
            for seed in (1, 2)
        ]
        for name in ("b_tes", "b_ces", "v_tes", "v_ces", "savings_pct"):
            a = runs[0].metrics[name]
            b = runs[1].metrics[name]
            assert a.mean[0] == pytest.approx(b.mean[0], abs=1e-12)
        # deterministic quantities have degenerate intervals at t=0
        assert runs[0].metrics["b_tes"].lo[0] == runs[0].metrics["b_tes"].hi[0]

    @pytest.mark.parametrize(
        "overrides",
        [dict(n_paths=200, n_resamples=150), dict(case_filter=None, n_paths=500, n_resamples=150)],
        ids=["ge,lt", "all"],
    )
    def test_point_mean_lies_in_its_interval(self, demo_grid, overrides):
        result = gh.run_case_study(make_config(demo_grid, **overrides))
        for name, series in result.metrics.items():
            assert np.all(series.lo <= series.mean), name
            assert np.all(series.mean <= series.hi), name
        # every path starts at the same state, so each t = 0 resample and the
        # point estimate average the same constant to the same bits
        for name in ("b_tes", "b_ces", "v_tes", "v_ces"):
            series = result.metrics[name]
            assert series.mean[0] == series.lo[0] == series.hi[0], name

    def test_time_zero_pooling_never_needs_more_battery(self, demo_grid):
        result = gh.run_case_study(make_config(demo_grid, n_paths=200, n_resamples=150))
        assert result.metrics["b_tes"].mean[0] <= result.metrics["b_ces"].mean[0]
        assert result.metrics["savings_pct"].mean[0] >= 0.0

    def test_case1_terminal_state(self, demo_grid):
        result = gh.run_case_study(
            make_config(demo_grid, case_filter=("ge", "ge"), n_paths=400,
                        n_resamples=150)
        )
        # every surplus-surplus path ends with no per-grid battery and both
        # portfolios worthless
        assert result.metrics["b_ces"].mean[-1] == 0.0
        assert result.metrics["v_ces"].mean[-1] == 0.0
        assert result.metrics["v_tes"].mean[-1] == 0.0

    def test_case2_terminal_ces_battery_is_demand(self, demo_grid):
        result = gh.run_case_study(
            make_config(demo_grid, case_filter=("ge", "lt"), n_paths=400,
                        n_resamples=150)
        )
        assert result.metrics["b_ces"].mean[-1] == pytest.approx(25.0, abs=1e-9)

    def test_ci_halfwidth_shrinks_with_paths(self, demo_grid):
        widths = []
        for n_paths in (250, 2_500):
            result = gh.run_case_study(
                make_config(demo_grid, n_paths=n_paths, n_resamples=600)
            )
            ms = result.metrics["b_tes"]
            widths.append(np.mean(ms.hi[1:] - ms.lo[1:]))
        ratio = widths[0] / widths[1]
        assert 1.8 < ratio < 5.5  # ~sqrt(10) with bootstrap noise

    def test_overall_savings_ci_brackets_point(self, demo_grid):
        result = gh.run_case_study(make_config(demo_grid, n_paths=500, n_resamples=400))
        _, overall = gh.battery_savings(
            result.metrics["b_tes"].mean, result.metrics["b_ces"].mean
        )
        savings = result.overall_savings
        assert savings.mean == overall
        assert savings.lo < savings.mean < savings.hi

    def test_counts_cover_all_cases(self, demo_grid):
        result = gh.run_case_study(make_config(demo_grid, n_paths=500, n_resamples=150))
        assert sum(result.case_counts.values()) >= 500
        assert set(result.case_counts) <= {"ge,ge", "ge,lt", "lt,ge", "lt,lt"}

    # 30 000 cuts the second 20 000-path block short at the cap
    @pytest.mark.parametrize("cap", [40_000, 30_000])
    def test_insufficient_paths(self, demo_grid, cap):
        config = make_config(
            demo_grid,
            case_filter=("lt", "lt"),
            initial_kw=np.array([2000.0, 2500.0]),  # deficit cannot happen
            n_paths=100,
            max_simulated_paths=cap,
        )
        with pytest.raises(InsufficientPaths, match=f"lt,lt.* of {cap} simulated paths"):
            gh.run_case_study(config)

    @pytest.mark.parametrize("case", [("ge",), ("ge", "lt", "ge"), ("ge", "up"), ()])
    def test_case_filter_needs_one_ge_or_lt_per_grid(self, demo_grid, case):
        with pytest.raises(ValueError, match="one 'ge' or 'lt' entry per microgrid"):
            make_config(demo_grid, case_filter=case)

    @pytest.mark.parametrize("n_grids", [2, 3])
    def test_case_counts_match_classify_terminal(self, n_grids):
        # an unfiltered run keeps every simulated path, so its counts must be
        # the per-path labels of the scalar classifier
        grid = make_fleet([0.03, 0.04, 0.05][:n_grids], 0.3, [20.0, 25.0, 15.0][:n_grids])
        config = gh.ScenarioConfig(
            grid=grid,
            initial_kw=grid.demands,
            horizon_hours=5.0,
            rebalance_steps=5,
            n_paths=3_000,
            seed=9,
        )
        paths, counts = _collect_paths(config)
        assert paths.shape[0] == 3_000
        want = Counter(format_case(reference_tree.classify_terminal(path, grid.demands)) for path in paths)
        assert counts == dict(want)
        assert len(counts) == 2**n_grids

    def test_unfiltered_run(self, demo_grid):
        result = gh.run_case_study(
            make_config(demo_grid, case_filter=None, n_paths=250, n_resamples=150)
        )
        assert result.n_paths == 250
        assert result.case is None


class TestResultsCsv:
    def test_format_and_determinism(self, demo_grid, tmp_path):
        config = make_config(demo_grid, n_paths=200, n_resamples=150)
        out1 = tmp_path / "a.csv"
        out2 = tmp_path / "b.csv"
        gh.write_results_csv(gh.run_case_study(config), out1)
        gh.write_results_csv(gh.run_case_study(config), out2)
        assert out1.read_bytes() == out2.read_bytes()
        lines = out1.read_text().splitlines()
        assert lines[0] == "t_hours,metric,case,mean,ci_lo,ci_hi"
        # 6 times x (5 metrics + 2 grids x 2 pg rows)
        assert len(lines) == 1 + 6 * (5 + 4)
        assert any('"ge,lt"' in line and "savings_pct" in line for line in lines)


# mean, ci_lo and ci_hi of every metric at t = 0..5 for
# make_config(demo_grid, n_paths=200, n_resamples=150).  The CI columns pin
# the bootstrap stream (SFC64 since version 0.2.0): a kernel change that
# draws the resample indices in another order moves them.
SEED_CONTRACT = {
    "b_tes": (
        (23.108993411018183, 22.683759927367806, 22.164968408209738,
         22.617879517258817, 22.935155663325105, 22.93419228551179),
        (23.108993411018186, 21.699788309712297, 20.940777839662097,
         21.17033623063006, 20.866716527295342, 20.852546081051567),
        (23.108993411018186, 23.595372883858268, 23.22206029473287,
         24.022987928117324, 24.790893508645873, 24.79192853022202),
    ),
    "b_ces": (
        (23.213450844019636, 22.624805398841335, 21.92366054712925,
         22.029648937702422, 22.199757290822195, 25.0),
        (23.213450844019636, 21.75723398225128, 20.954377441129633,
         20.90129027765066, 21.11411417493221, 25.0),
        (23.213450844019636, 23.41462170433995, 22.848099133987006,
         23.133854554395857, 23.310183047032353, 25.0),
    ),
    "v_tes": (
        (1.3131209191363897, 1.2363899440850454, 1.1347144207024165,
         1.0459760533977576, 0.8536904753330714, 0.49452141402272515),
        (1.3131209191363893, 1.1541220389284532, 1.0389115262449413,
         0.9567597101999027, 0.7686387078359576, 0.39196599302832597),
        (1.3131209191363893, 1.3129949865751454, 1.2240246406939703,
         1.1377975611724902, 0.9482929179901709, 0.6011144071882178),
    ),
    "v_ces": (
        (1.4269016880392655, 1.3654666219611005, 1.2866841529256359,
         1.2455965747994868, 1.1533634627081804, 1.005150388437039),
        (1.4269016880392655, 1.2857109639283104, 1.1874345921086187,
         1.1543405780819542, 1.050005731133891, 0.901535500014555),
        (1.4269016880392655, 1.4405144857866208, 1.371915073565896,
         1.3390195121414326, 1.2671562945452448, 1.1098691618889174),
    ),
    "savings_pct": (
        (0.44998666378103236, -0.2605747430185268, -1.1006732227118343,
         -2.6701768204289156, -3.312641498143476, 8.26323085795283),
        (0.44998666378101015, -0.9160450699513872, -1.9955870042966672,
         -4.11747673420709, -7.815927425535162, 0.8322858791119253),
        (0.44998666378101015, 0.35283102590590115, 0.035591327016896206,
         -1.0470284711645816, 1.1004479291253635, 16.589815675793734),
    ),
}


class TestSeedContract:
    def test_pinned_mean_and_ci_columns(self, demo_grid):
        result = gh.run_case_study(make_config(demo_grid, n_paths=200, n_resamples=150))
        assert list(result.metrics) == list(SEED_CONTRACT)
        for name, columns in SEED_CONTRACT.items():
            series = result.metrics[name]
            for got, want in zip((series.mean, series.lo, series.hi), columns):
                np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)


def make_fleet(sigmas, rho=0.0, demands=None):
    n = len(sigmas)
    demands = np.full(n, 20.0) if demands is None else np.asarray(demands, dtype=float)
    corr = gh.CorrelationMatrix.identity(1) if n == 1 else gh.CorrelationMatrix.pairwise(rho, n)
    return gh.GridEnsemble(
        params=tuple(gh.GbmParams(0.0, s) for s in sigmas),
        corr=corr,
        demands=demands,
        battery_unit_kw=1.0,
    )


def float_vector(lo, hi, size):
    return st.lists(st.floats(lo, hi), min_size=size, max_size=size)


class TestBatchEngines:
    """The vectorized per-time engines against their scalar references."""

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_batch_ces_matches_per_grid_allocation(self, data):
        n = data.draw(st.integers(1, 3))
        demands = np.array(data.draw(float_vector(5.0, 50.0, n)))
        sigmas = np.array(data.draw(float_vector(0.01, 0.1, n)))
        pg = demands * np.array(data.draw(float_vector(0.5, 2.0, n)))
        tau = data.draw(st.one_of(st.just(0.0), st.floats(1e-3, 10.0)))
        p_b = data.draw(st.floats(0.5, 2.0))
        b, v = _batch_ces(pg[None, :], demands, sigmas, tau, p_b)
        specs = [gh.MicrogridSpec(demand=d, gbm=gh.GbmParams(0.0, s)) for d, s in zip(demands, sigmas)]
        want_b = sum(gh.ces_allocation(p, spec, 0.0, tau, p_b).b_hat for p, spec in zip(pg, specs))
        want_v = sum(gh.ces_portfolio_value(p, spec, 0.0, tau) for p, spec in zip(pg, specs))
        tol = 1e-12 * demands.sum()
        assert abs(b[0] - want_b) * p_b <= tol
        assert abs(v[0] - want_v) <= tol

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_batch_lattice_matches_tree(self, data):
        n = data.draw(st.integers(1, 3))
        steps = data.draw(st.integers(1, 4))
        demands = np.array(data.draw(float_vector(10.0, 40.0, n)))
        sigmas = data.draw(float_vector(0.01, 0.08, n))
        grid = make_fleet(sigmas, data.draw(st.floats(-0.2, 0.6)), demands)
        try:
            model = gh.calibrate_step_model(grid, data.draw(st.floats(0.1, 1.0)) * steps, steps)
        except InfeasibleCalibration:
            assume(False)
        pg = demands * np.array(data.draw(float_vector(0.7, 1.4, 2 * n))).reshape(2, n)
        p_b = data.draw(st.floats(0.5, 2.0))
        value, a, b, residual = RecombiningLattice(model, demands, p_b).allocate(
            pg, steps, np.zeros((2, n))
        )
        tol = 1e-12 * demands.sum()  # every compared quantity is in kW
        for row in range(2):
            want_value, want = reference_tree.tree_allocation(
                pg[row], demands, model, steps, None, p_b
            )
            assert abs(value[row] - want_value) <= tol
            assert np.all(np.abs(a[row] - want.a) * pg[row] <= tol)
            assert abs(b[row] - want.b) * p_b <= tol
            assert abs(residual[row] - want.residual) <= tol

    def test_block_size_does_not_change_results(self, demo_grid, monkeypatch):
        three_grids = make_fleet([0.03, 0.04, 0.05], 0.3, [20.0, 25.0, 15.0])
        for grid in (demo_grid, three_grids):
            n = grid.n_microgrids
            model = gh.calibrate_step_model(grid, 5.0, 10)
            rng = np.random.default_rng(5)
            pg = grid.demands * rng.uniform(0.7, 1.4, size=(37, n))
            prev_a = rng.uniform(-1.0, 0.0, size=(37, n))
            engine = RecombiningLattice(model, grid.demands, 1.0)
            runs = []
            # one root per block, a ragged last block, all roots in one block
            for block in (1, 2**12, 2**40):
                monkeypatch.setattr(lattice, "LATTICE_BLOCK_ELEMENTS", block)
                runs.append([engine.allocate(pg, steps, prev_a) for steps in (1, 4, 10)])
            # a 1-row block may go through a matrix-vector BLAS kernel, which
            # can round the last bit differently from the matrix-matrix one
            scale = grid.demands.sum()
            for run in runs[:-1]:
                for blocked, whole in zip(run, runs[-1]):
                    for got, want in zip(blocked, whole):
                        np.testing.assert_allclose(got, want, rtol=1e-13, atol=1e-13 * scale)

    def test_identical_roots_get_identical_bytes(self, demo_grid):
        # valued one by one, 5 000 roots at 5 steps fill three blocks; a
        # root's place in a block must not move the last bit of its result
        model = gh.calibrate_step_model(demo_grid, 5.0, 5)
        pg = np.tile(demo_grid.demands, (5_000, 1))
        value, a, b, _ = RecombiningLattice(model, demo_grid.demands, 1.0).allocate(
            pg, 5, np.zeros_like(pg)
        )
        assert len(np.unique(value)) == len(np.unique(b)) == 1
        for i in range(demo_grid.n_microgrids):
            assert len(np.unique(a[:, i])) == 1

    @pytest.mark.parametrize("m", [2_000, 8_000])
    def test_first_level_memory_bounded_by_block(self, m):
        # the traced peak is the child weights, the outputs and at most two
        # headroom blocks, however many roots are valued
        grid = make_fleet([0.03, 0.04, 0.05], 0.3, [20.0, 25.0, 15.0])
        model = gh.calibrate_step_model(grid, 5.0, 20)
        engine = RecombiningLattice(model, grid.demands, 1.0)
        pg = grid.demands * np.random.default_rng(3).uniform(0.7, 1.4, size=(m, 3))
        tracemalloc.start()
        try:
            root_values, child_values = engine.first_level(pg, 20)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        weights = model.n_branches * 21**3 * 8
        outputs = root_values.nbytes + child_values.nbytes
        assert peak <= weights + 2 * lattice.LATTICE_BLOCK_ELEMENTS * 8 + outputs

    @pytest.mark.parametrize("sigmas, steps", [([0.03, 0.04], 200), ([0.03, 0.04, 0.05], 20)])
    def test_one_root_peak_is_reach_headroom_and_fft(self, sigmas, steps):
        # one root is valued branch by branch: the peak holds the reach law
        # W (steps^n), and beside it first the FFT's one spectrum, then the
        # (steps+1)^n headroom grid, plus the outputs; no stacked child
        # weights and no ladder matrix.  The slack holds einsum's 64 KiB
        # iterator buffer, the per-asset ladders and small objects, far
        # less than the 2^n + n state-sized arrays of the stacked path
        n = len(sigmas)
        grid = make_fleet(sigmas, 0.3, [20.0, 25.0, 15.0][:n])
        model = gh.calibrate_step_model(grid, 5.0, steps)
        engine = RecombiningLattice(model, grid.demands, 1.0)
        pg = grid.demands[None, :] * 1.1
        engine.first_level(pg, steps)  # numpy caches its FFT plan on first use
        tracemalloc.start()
        try:
            root_values, child_values = engine.first_level(pg, steps)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        reach = steps**n * 8
        headroom = (steps + 1) ** n * 8
        spectrum = steps ** (n - 1) * (steps // 2 + 1) * 16
        outputs = root_values.nbytes + child_values.nbytes
        assert peak <= reach + max(headroom, spectrum) + outputs + 80 * 1024

    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_one_root_matches_the_stacked_path(self, data):
        # a root valued alone takes the branch-by-branch path; beside a
        # second distinct root it takes the stacked block products
        n = data.draw(st.integers(1, 3))
        steps = data.draw(st.integers(1, 30))
        demands = np.array(data.draw(float_vector(10.0, 40.0, n)))
        sigmas = data.draw(float_vector(0.01, 0.08, n))
        grid = make_fleet(sigmas, data.draw(st.floats(-0.2, 0.6)), demands)
        try:
            model = gh.calibrate_step_model(grid, data.draw(st.floats(0.05, 1.0)) * steps, steps)
        except InfeasibleCalibration:
            assume(False)
        root, other = demands * np.array(data.draw(float_vector(0.7, 1.4, 2 * n))).reshape(2, n)
        assume(np.any(root != other))
        p_b = data.draw(st.floats(0.5, 2.0))
        engine = RecombiningLattice(model, demands, p_b)
        alone = engine.allocate(root[None, :], steps, np.zeros((1, n)))
        beside = engine.allocate(np.stack([root, other]), steps, np.zeros((2, n)))
        # value, a * pg, b * p_b and the residual are all in kW
        scale = 1e-12 * demands.sum()
        for got, want, unit in zip(alone, beside, (1.0, root, p_b, 1.0)):
            np.testing.assert_allclose(got[0] * unit, want[0] * unit, rtol=1e-12, atol=scale)

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_equal_roots_valued_once_in_unique_order(self, data):
        # roots drawn from a few levels per grid repeat whole rows and share
        # leading columns; with a few roots per block the copies of a root
        # fall in different blocks, yet it is valued once, and the distinct
        # roots reach first_level in np.unique(axis=0) order
        n = data.draw(st.integers(1, 3))
        steps = data.draw(st.integers(1, 4))
        grid = make_fleet([0.03, 0.04, 0.05][:n], 0.3, [20.0, 25.0, 15.0][:n])
        model = gh.calibrate_step_model(grid, 0.5 * steps, steps)
        engine = RecombiningLattice(model, grid.demands, 1.0)
        m = data.draw(st.integers(1, 40))
        factors = data.draw(
            st.lists(st.sampled_from([0.8, 0.95, 1.0, 1.2]), min_size=m * n, max_size=m * n)
        )
        pg = grid.demands * np.array(factors).reshape(m, n)
        per_block = data.draw(st.sampled_from([1, 2, 3, 7]))
        seen = []
        original = engine.first_level

        def spy(roots, steps):
            seen.append(roots.copy())
            return original(roots, steps)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(lattice, "LATTICE_BLOCK_ELEMENTS", per_block * (steps + 1) ** n)
            patch.setattr(engine, "first_level", spy)
            outputs = engine.allocate(pg, steps, np.zeros_like(pg))
        assert len(seen) == 1
        np.testing.assert_array_equal(seen[0], np.unique(pg, axis=0))
        for out in outputs:
            bits = np.ascontiguousarray(out).reshape(m, -1).view(np.uint64)
            for root in seen[0]:
                copies = bits[np.all(pg == root, axis=1)]
                assert np.all(copies == copies[0])

    def test_batch_ces_reads_the_validator_phi_seam(self, monkeypatch):
        # validate --inject-phi-fault rebinds ces._normal_cdf; the batched
        # path that simulate runs must see the perturbed CDF too
        pg = np.array([[18.0, 27.0], [22.0, 24.0]])
        args = (pg, np.array([20.0, 25.0]), np.array([0.03, 0.04]), 2.0, 1.0)
        b0, v0 = _batch_ces(*args)
        original = ces._normal_cdf
        monkeypatch.setattr(ces, "_normal_cdf", lambda x: original(x) + 5e-7)
        b1, v1 = _batch_ces(*args)
        np.testing.assert_allclose(b1 - b0, 5e-7 * 45.0, rtol=1e-6)
        assert np.all(v1 != v0)

    def test_traced_benchmark_name_is_the_lattice(self):
        # perfbench/traced.py wraps scenario._BatchLattice.allocate to time
        # the pooled lattice; the alias must stay bound to the one class
        assert scenario._BatchLattice is RecombiningLattice

    def test_traced_benchmark_binds_these_argument_names(self):
        # perfbench/traced.py reads the remaining-step count and the root
        # states by parameter name; a rename would leave its spans empty
        assert {"pg_now", "remaining_steps"} <= set(
            inspect.signature(gh.dynamic_allocation).parameters
        )
        assert {"pg", "steps"} <= set(inspect.signature(RecombiningLattice.allocate).parameters)

    def test_every_traced_benchmark_target_resolves(self, monkeypatch):
        # perfbench/traced.py reports a layer whose target it cannot find as
        # absent, and binds these argument names to describe its spans
        monkeypatch.setattr(sys, "dont_write_bytecode", True)
        path = Path(__file__).resolve().parents[1] / "perfbench" / "traced.py"
        spec = importlib.util.spec_from_file_location("perfbench_traced", path)
        traced = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(traced)
        modules = {"cli": cli, "scenario": scenario}
        for name, owners, dotted, _ in traced.TARGETS:
            for owner in owners:
                assert traced._resolve(modules[owner], dotted)[0] is not None, name
        bound = {
            scenario.simulate_paths: {"n_paths"},
            scenario._collect_paths: {"config"},
            scenario._bootstrap_time_metrics: {"samples", "n_resamples"},
        }
        for fn, names in bound.items():
            assert names <= set(inspect.signature(fn).parameters), fn.__name__

    def test_rank_deficient_design_warns(self):
        # sigma so small that u == d in floating point: every child state
        # equals the root, so the design has rank 1
        grid = make_fleet([1e-17, 1e-17])
        model = gh.calibrate_step_model(grid, 3.0, 3)
        assert np.all(model.up == model.down)
        with pytest.warns(RankDeficientWarning, match="rank 1 < 3"):
            RecombiningLattice(model, grid.demands, 1.0)

    def test_oversized_lattice_refused_before_any_allocation(self):
        # 251^3 terminal states exceed the node budget; neither paths nor
        # the grid may be allocated before the refusal
        grid = make_fleet([0.03, 0.04, 0.05], 0.3, [20.0, 25.0, 15.0])
        config = gh.ScenarioConfig(
            grid=grid,
            initial_kw=np.array([20.0, 25.0, 15.0]),
            horizon_hours=5.0,
            rebalance_steps=250,
            n_paths=1_000,
            seed=1,
        )
        tracemalloc.start()
        try:
            with pytest.raises(TreeTooLarge, match="node budget"):
                gh.run_case_study(config)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000


class TestMemoryBudget:
    @staticmethod
    def traced_peak(config):
        gh.run_case_study(config)  # numpy loads its FFT module on first use
        tracemalloc.start()
        try:
            gh.run_case_study(config)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        return peak

    @pytest.mark.parametrize(
        "sigmas, case, n_paths, steps, n_resamples",
        [
            ([0.03, 0.04], ("ge", "lt"), 2_000, 5, 500),
            ([0.03, 0.04, 0.05], None, 1_000, 20, 200),
            ([0.03, 0.04], None, 1, 5, 1_000),
        ],
        ids=["two_grids_ge_lt", "three_grids_all", "one_path"],
    )
    def test_estimate_bounds_the_traced_peak(self, sigmas, case, n_paths, steps, n_resamples):
        # an upper estimate, and not so loose that it refuses what would fit
        n = len(sigmas)
        config = gh.ScenarioConfig(
            grid=make_fleet(sigmas, 0.3, [20.0, 25.0, 15.0][:n]),
            initial_kw=np.array([20.0, 25.0, 15.0][:n]),
            horizon_hours=5.0,
            rebalance_steps=steps,
            n_paths=n_paths,
            seed=4,
            case_filter=case,
            n_resamples=n_resamples,
        )
        peak = self.traced_peak(config)
        estimate = scenario.case_study_bytes(config)
        assert peak <= estimate <= 3 * peak

    def test_bootstrap_counts_beside_the_split_alone(self, demo_grid):
        # the count phase is the peak, and the metric arrays are freed before
        # it: the split of their columns, the resampled means, two uint16
        # count blocks, the float tile of a product and the product with the
        # split, and beside them the worker's four draw arrays.  Holding the
        # metric arrays (1.3 MB) through the draws would overrun it: that
        # traced 12.3 MB against this 11.5 MB bound, and so would float64
        # count blocks, at 16.0 MB; the release traces 9.7 MB.
        config = make_config(
            demo_grid, case_filter=None, n_paths=2_000, rebalance_steps=40, n_resamples=500
        )
        peak = self.traced_peak(config)
        m, k = 2_000, 4 * 41
        split = 2 * 8 * m * k
        resampled = 8 * 500 * k
        block = min(stats.RESAMPLE_BLOCK_ELEMENTS // m, 500)
        count_blocks = 2 * np.min_scalar_type(m).itemsize * block * m
        # the float tile of the 4 * 40 varying columns, the product's two
        # part sums, and a tile's product or two temporaries of their means
        product = 8 * (stats._TILE_MULADDS // (2 * 4 * 40)) + 4 * 8 * block * k
        draw_arrays = 4 * 8 * stats._DRAW_ELEMENTS
        assert peak <= split + resampled + count_blocks + product + draw_arrays

    def test_bootstrap_takes_the_sample_and_leaves_its_shape(self):
        # the entries keep their names and path count for run_case_study and
        # the tracer, and hold no data
        rng = np.random.Generator(np.random.Philox(5))
        samples = {name: rng.uniform(1.0, 2.0, size=(300, 4))
                   for name in ("b_tes", "b_ces", "v_tes", "v_ces")}
        want = scenario._bootstrap_time_metrics(
            {name: value.copy() for name, value in samples.items()}, 200, 9
        )
        got = scenario._bootstrap_time_metrics(samples, 200, 9)
        assert list(samples) == ["b_tes", "b_ces", "v_tes", "v_ces"]
        for value in samples.values():
            assert value.shape == (300, 0)
            assert len(value) == 300
            assert value.nbytes == 0
        for name, ci in got[0].items():
            for field in ("mean", "lo", "hi"):
                assert getattr(ci, field).tobytes() == getattr(want[0][name], field).tobytes()
        assert got[1] == want[1]

    def test_over_budget_refused_before_any_allocation(self, demo_grid):
        config = make_config(demo_grid, n_resamples=2**32)
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match=r"memory budget; lower n_paths \(1500\)"):
                gh.run_case_study(config)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000

    def test_budget_bounds_a_run_that_fits(self, demo_grid, monkeypatch):
        # the refusal compares the estimate with the budget, nothing else
        config = make_config(demo_grid, n_paths=300, n_resamples=150)
        need = scenario.case_study_bytes(config)
        monkeypatch.setattr(scenario, "DEFAULT_MEMORY_BUDGET", need)
        gh.run_case_study(config)
        monkeypatch.setattr(scenario, "DEFAULT_MEMORY_BUDGET", need - 1)
        with pytest.raises(ValueError, match="memory budget"):
            gh.run_case_study(config)
