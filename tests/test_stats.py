"""KS two-sample test and percentile bootstrap."""
import math
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.stats import ks_2samp

import gridhedge as gh
from gridhedge import stats


class TestKsTwoSample:
    def test_identical_samples(self):
        x = np.linspace(0, 1, 50)
        assert gh.ks_two_sample(x, x) == 0.0

    def test_disjoint_supports(self):
        assert gh.ks_two_sample([1.0, 2.0, 3.0], [10.0, 11.0]) == 1.0

    def test_empty_sample(self):
        with pytest.raises(ValueError, match="^both samples must be nonempty$"):
            gh.ks_two_sample([], [1.0])

    def test_matches_scipy_on_random_samples(self):
        rng = np.random.default_rng(5)
        for _ in range(30):
            a = rng.normal(size=rng.integers(5, 400))
            b = rng.normal(loc=rng.uniform(-1, 1), size=rng.integers(5, 400))
            assert gh.ks_two_sample(a, b) == pytest.approx(
                ks_2samp(a, b).statistic, abs=1e-12
            )

    def test_symmetry(self):
        rng = np.random.default_rng(6)
        a, b = rng.normal(size=40), rng.normal(size=70)
        assert gh.ks_two_sample(a, b) == gh.ks_two_sample(b, a)

    @settings(max_examples=50, deadline=None)
    @given(data=st.data())
    def test_invariant_under_monotone_transform(self, data):
        # grid-valued draws keep exp() injective in floating point
        a = np.array(data.draw(st.lists(
            st.integers(-5000, 5000), min_size=2, max_size=40))) / 100.0
        b = np.array(data.draw(st.lists(
            st.integers(-5000, 5000), min_size=2, max_size=40))) / 100.0
        before = gh.ks_two_sample(a, b)
        after = gh.ks_two_sample(np.exp(a / 25.0), np.exp(b / 25.0))
        assert before == pytest.approx(after, abs=1e-12)

    def test_same_gbm_marginal_usually_below_critical(self):
        ens = gh.simulate_paths(
            [gh.GbmParams(0.006, 0.03)], gh.CorrelationMatrix.identity(1),
            np.array([20.0]), horizon=5.0, n_steps=1, n_paths=20_000, seed=1001,
        )
        terminal = ens[:, -1, 0]
        statistic = gh.ks_two_sample(terminal[:10_000], terminal[10_000:])
        assert statistic < gh.ks_critical_value(10_000, 10_000, 0.05)


class TestKsCriticalValue:
    def test_published_threshold(self):
        assert gh.ks_critical_value(10_000, 10_000, 0.05) == pytest.approx(
            0.0192, abs=1e-4
        )

    def test_formula_arithmetic(self):
        # 1.3581 * sqrt(0.02)
        assert gh.ks_critical_value(100, 100, 0.05) == pytest.approx(0.1921, abs=2e-4)

    def test_asymptotic_consistency(self):
        assert gh.ks_critical_value(10**9, 10**9, 0.05) < 1e-4

    def test_invalid_alpha(self):
        with pytest.raises(ValueError, match=r"^alpha must be in \(0, 1\), got 1.5$"):
            gh.ks_critical_value(10, 10, 1.5)

    @pytest.mark.parametrize("n, m", [(0, 10), (10, 0), (-3, 10)])
    def test_empty_sample_size_refused(self, n, m):
        with pytest.raises(ValueError, match="^sample sizes must be >= 1$"):
            gh.ks_critical_value(n, m, 0.05)

    def test_shifted_sample_rejected(self):
        rng = np.random.default_rng(9)
        statistic = gh.ks_two_sample(rng.normal(size=500), rng.normal(loc=1.0, size=500))
        assert 0.0 <= statistic <= 1.0
        assert statistic > gh.ks_critical_value(500, 500, 0.05)


class TestBootstrap:
    def test_constant_sample_degenerates(self):
        ci = gh.bootstrap_ci(np.full(50, 3.25), n_resamples=200, seed=1)
        assert ci.lo == ci.hi == ci.mean == 3.25

    def test_width_matches_clt(self):
        rng = np.random.Generator(np.random.Philox(key=99))
        sample = rng.standard_normal(10_000)
        ci = gh.bootstrap_ci(sample, n_resamples=2_000, level=0.95, seed=7)
        want = 2 * 1.96 / np.sqrt(10_000)
        assert abs((ci.hi - ci.lo) - want) / want < 0.10

    def test_coverage_between_93_and_97(self):
        rng = np.random.Generator(np.random.Philox(key=1234))
        covered = 0
        for trial in range(500):
            sample = rng.standard_normal(200) + 1.5
            ci = gh.bootstrap_ci(sample, n_resamples=500, level=0.95, seed=trial)
            covered += ci.lo <= 1.5 <= ci.hi
        assert 0.93 <= covered / 500 <= 0.97

    def test_levels_nest_for_same_seed(self):
        rng = np.random.Generator(np.random.Philox(key=11))
        sample = rng.standard_normal(400)
        narrow = gh.bootstrap_ci(sample, n_resamples=1_000, level=0.90, seed=3)
        mid = gh.bootstrap_ci(sample, n_resamples=1_000, level=0.95, seed=3)
        wide = gh.bootstrap_ci(sample, n_resamples=1_000, level=0.99, seed=3)
        assert wide.lo <= mid.lo <= narrow.lo
        assert narrow.hi <= mid.hi <= wide.hi
        assert narrow.lo <= narrow.mean <= narrow.hi

    def test_determinism_and_validation(self):
        sample = np.arange(25, dtype=float)
        a = gh.bootstrap_ci(sample, n_resamples=300, seed=5)
        b = gh.bootstrap_ci(sample, n_resamples=300, seed=5)
        assert (a.lo, a.hi) == (b.lo, b.hi)
        with pytest.raises(ValueError, match="^sample must be nonempty$"):
            gh.bootstrap_ci([], n_resamples=300, seed=5)
        with pytest.raises(ValueError):
            gh.bootstrap_ci(sample, n_resamples=50, seed=5)

    @pytest.mark.parametrize("level", [0.0, 1.0, -0.5, 95.0])
    def test_level_outside_the_unit_interval_refused(self, level):
        with pytest.raises(ValueError, match=rf"^level must be in \(0, 1\), got {level}$"):
            gh.bootstrap_ci(np.arange(25, dtype=float), n_resamples=300, level=level, seed=5)


def philox(seed):
    return np.random.Generator(np.random.Philox(key=seed))


@pytest.mark.parametrize("k", [1, 5])
@pytest.mark.parametrize("tail", [0.025, 0.05, 0.5])
@pytest.mark.parametrize("n", [1, 2, 7, 200, 10_000])
def test_percentile_ends_are_numpy_quantiles(n, tail, k):
    # the same bytes as np.quantile's linear method, ties, signed zeros and
    # 1-D input included
    resampled = philox(n + k).standard_normal((n, k))
    resampled[::3] = np.round(resampled[::3])
    resampled[1::7] = -0.0
    for sample in (resampled, resampled[:, 0]):
        ci = stats.percentile_ci(1.5, sample, tail)
        want = np.quantile(sample, [tail, 1.0 - tail], axis=0)
        assert np.asarray(ci.lo).tobytes() == want[0].tobytes()
        assert np.asarray(ci.hi).tobytes() == want[1].tobytes()
        assert type(ci.lo) is type(want[0])
        assert ci.mean == 1.5


def run_threads(calls, timeout=60):
    """Each call on a thread of its own, all at once, each joined within
    timeout; what each returned or raised, in order."""
    out = [None] * len(calls)

    def run(i):
        try:
            out[i] = calls[i]()
        except BaseException as error:
            out[i] = error

    # daemons, so that a call that hangs fails its test and not the exit
    threads = [threading.Thread(target=run, args=(i,), daemon=True) for i in range(len(calls))]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout)
        assert not thread.is_alive()
    return out


class TestResampledMeans:
    # m = 257 is odd, so consecutive draws share a 64-bit word
    @pytest.mark.parametrize("m", [1, 2, 257, 1_000])
    def test_matches_gathered_means(self, m):
        x = 20.0 + 3.0 * philox(21).standard_normal((m, 5))
        got = stats.resampled_means(x, 300, 4)[1]
        idx = np.random.Generator(np.random.SFC64(4)).integers(0, m, size=(300, m))
        want = np.stack([x[idx, j].mean(axis=1) for j in range(x.shape[1])], axis=1)
        assert np.max(np.abs(got - want) / np.abs(want)) <= 1e-12

    def test_constant_columns_are_exact(self):
        x = np.column_stack([np.full(10_000, 0.1), np.full(10_000, 25 / 3)])
        means = stats.resampled_means(x, 400, 8)[1]
        for j in range(x.shape[1]):
            lo, hi = np.quantile(means[:, j], [0.025, 0.975])
            assert lo == hi
            assert np.unique(means[:, j]).size == 1

    def test_exact_column_means_match_constant_resamples(self):
        constants = [np.full(10_000, 0.1), np.full(10_000, 25 / 3)]
        x = np.column_stack(constants + [philox(4).exponential(size=10_000)])
        means, resampled = stats.resampled_means(x, 50, 8)
        assert np.all(resampled[:, :2] == means[:2])
        correctly_rounded = [math.fsum(column) / column.size for column in x.T]
        np.testing.assert_allclose(means, correctly_rounded, rtol=1e-15, atol=0)
        ci = gh.bootstrap_ci(x[:, 0], n_resamples=200, seed=2)
        assert ci.lo == ci.hi == ci.mean

    def test_all_constant_columns_draw_nothing(self, monkeypatch):
        monkeypatch.setattr(np.random, "SFC64", None)  # a draw would raise
        # the exact mean of 100 copies of 11.038066690348302 is one ulp below it
        columns = np.column_stack([np.full(100, 0.1), np.full(100, 11.038066690348302)])
        for x in (np.full((1, 3), 2.5), columns):
            means, resampled = stats.resampled_means(x, 120, 3)
            assert np.all(resampled == means)

    def test_independent_of_block_size(self, monkeypatch):
        x = philox(13).exponential(size=(257, 3)) * np.array([1.0, 1e-3, 1e4])
        results = []
        for rows in (1, 7, 150):
            monkeypatch.setattr(stats, "RESAMPLE_BLOCK_ELEMENTS", rows * x.shape[0])
            results.append(stats.resampled_means(x, 150, 6)[1].tobytes())
        assert results[0] == results[1] == results[2]

    @pytest.mark.parametrize("draw_rows", [1, 3, 150])
    @pytest.mark.parametrize("block_rows", [1, 7, 150])
    def test_independent_of_draw_size(self, monkeypatch, block_rows, draw_rows):
        x = philox(13).exponential(size=(257, 3)) * np.array([1.0, 1e-3, 1e4])
        want = stats.resampled_means(x, 150, 6)[1].tobytes()
        monkeypatch.setattr(stats, "RESAMPLE_BLOCK_ELEMENTS", block_rows * x.shape[0])
        monkeypatch.setattr(stats, "_DRAW_ELEMENTS", draw_rows * x.shape[0])
        assert stats.resampled_means(x, 150, 6)[1].tobytes() == want

    @pytest.mark.parametrize("m", [255, 256, 257])
    def test_a_row_drawn_m_times_counts_m(self, monkeypatch, m):
        # every index is 0, so row 0 counts m in each resample: a uint8
        # count block would wrap that count to 0 at m = 256
        monkeypatch.setattr(stats._RowIndices, "draw", lambda self, n: np.zeros(n, np.int64))
        x = 20.0 + philox(5).exponential(size=(m, 3))
        parts = stats._exact_parts(x.T, m)
        want = (m * parts[0, :3] + m * parts[0, 3:]) / m
        assert np.all(stats.resampled_means(x, 120, 2)[1] == want)

    @pytest.mark.parametrize("all_zero", [False, True], ids=["drawn", "all_zero"])
    @pytest.mark.parametrize("m", [2, 255, 256, 257])
    def test_matches_a_float_count_product(self, monkeypatch, m, all_zero):
        # the narrow count blocks and their float tiles give the bytes of one
        # float64 bincount block times the split, whether 1-row or 7-row
        # blocks pass between the worker and the caller or one whole block
        # does (a loop, not a parameter, so that the test keeps its ids)
        x = philox(23).exponential(size=(m, 4)) * np.array([1.0, 1e-3, 1e4, 7.0])
        idx = np.random.Generator(np.random.SFC64(9)).integers(0, m, size=(150, m))
        if all_zero:
            monkeypatch.setattr(stats._RowIndices, "draw", lambda self, n: np.zeros(n, np.int64))
            idx[:] = 0
        counts = np.stack([np.bincount(row, minlength=m) for row in idx]).astype(float)
        sums = counts @ stats._exact_parts(x.T, m)
        want = (sums[:, :4] + sums[:, 4:]) / m
        for block_rows in (1, 7, 150):
            monkeypatch.setattr(stats, "RESAMPLE_BLOCK_ELEMENTS", block_rows * m)
            assert stats.resampled_means(x, 150, 9)[1].tobytes() == want.tobytes(), block_rows

    @pytest.mark.parametrize("failing", ["draw", "product"])
    def test_a_failure_propagates_and_no_thread_outlives_the_call(self, monkeypatch, failing):
        # blocks of 7 rows, one draw each: the worker's draw fails on block
        # 4, or the caller's product on block 2, while the other side has a
        # block in flight; the error keeps its type and the worker is joined
        class DrawFailed(Exception):
            pass

        class ProductFailed(Exception):
            pass

        x = philox(13).exponential(size=(257, 3))
        monkeypatch.setattr(stats, "RESAMPLE_BLOCK_ELEMENTS", 7 * x.shape[0])
        draw, count_means = stats._RowIndices.draw, stats._count_means
        blocks = []

        def failing_draw(self, n):
            blocks.append(n)
            if len(blocks) == 5:
                raise DrawFailed
            return draw(self, n)

        def failing_product(counts, parts, m):
            if counts.shape == (7, m):
                blocks.append(counts)
                if len(blocks) == 3:
                    raise ProductFailed
            return count_means(counts, parts, m)

        if failing == "draw":
            monkeypatch.setattr(stats._RowIndices, "draw", failing_draw)
        else:
            monkeypatch.setattr(stats, "_count_means", failing_product)
        threads = threading.active_count()
        [error] = run_threads([lambda: stats.resampled_means(x, 150, 6)])
        assert type(error) is (DrawFailed if failing == "draw" else ProductFailed)
        assert threading.active_count() == threads

    def test_blocks_in_flight_keep_their_bytes_under_thread_switches(self, monkeypatch):
        # three calls at once, each a worker and a caller passing 1-row
        # blocks, with a thread switch every microsecond: a block drawn over
        # while it is multiplied would change the bytes
        x = philox(13).exponential(size=(257, 3)) * np.array([1.0, 1e-3, 1e4])
        want = stats.resampled_means(x, 150, 6)[1].tobytes()
        monkeypatch.setattr(stats, "RESAMPLE_BLOCK_ELEMENTS", x.shape[0])
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            got = run_threads([lambda: stats.resampled_means(x, 150, 6)[1].tobytes()] * 3)
        finally:
            sys.setswitchinterval(interval)
        assert got == [want] * 3

    def test_working_memory_is_two_count_blocks(self):
        # The count phase peaks at 7.41 MiB traced with every column varying
        # (float64 count blocks would trace 13.35 MiB, over this bound), and
        # at 6.65 MiB with 5 constant columns of 24: the split of the
        # varying columns (2 * 8 bytes per entry), two 1 MiB uint16 count
        # blocks, the outputs, and the draw's index buffer, raw words, low
        # halves and bincount on the worker beside the float tile of a
        # product on the caller.  A constant column is neither split nor
        # counted.  _exact_parts before it peaks at 3.74 MiB.  The bound
        # takes four 8-byte arrays of _DRAW_ELEMENTS for the draw, 2 MiB
        # against the 1.4 MiB drawn here; that 0.6 MiB is the slack, which
        # also covers the copy a rejected candidate makes.
        for constant in (0, 5):
            x = philox(3).standard_normal((10_000, 24))
            x[:, :constant] = np.arange(constant) + 0.5
            tracemalloc.start()
            try:
                stats.resampled_means(x, 1_000, 5)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            split = 2 * 8 * x.shape[0] * (x.shape[1] - constant)
            outputs = 8 * (1_000 + 1) * 24
            draw_arrays = 4 * 8 * stats._DRAW_ELEMENTS
            tile = 8 * (stats._TILE_MULADDS // (2 * (x.shape[1] - constant)))
            assert peak < split + 2 * 2**20 + outputs + draw_arrays + tile, constant

    def test_column_blocks_are_read_as_one_sample(self):
        # a list of column blocks gives the bytes of their joined array,
        # constant columns included, without being joined
        x = philox(9).exponential(size=(257, 7))
        x[:, 2] = 0.1
        joined = stats.resampled_means(x, 150, 6)
        blocks = stats.resampled_means([x[:, :3], x[:, 3:4], x[:, 4:]], 150, 6)
        for want, got in zip(joined, blocks):
            assert got.tobytes() == want.tobytes()

    def test_a_list_is_released_and_read_as_kept(self):
        # the same bytes for one array, for a list whose blocks the caller
        # keeps and for a list handed over, which is cleared
        x = philox(9).exponential(size=(257, 7))
        x[:, 2] = 0.1
        joined = stats.resampled_means(x, 150, 6)
        kept = [x[:, :3].copy(), x[:, 3:].copy()]
        from_kept = stats.resampled_means(list(kept), 150, 6)
        handed = [x[:, :3].copy(), x[:, 3:].copy()]
        from_handed = stats.resampled_means(handed, 150, 6)
        assert handed == []
        assert [block.shape for block in kept] == [(257, 3), (257, 4)]
        for want, a, b in zip(joined, from_kept, from_handed):
            assert a.tobytes() == b.tobytes() == want.tobytes()

    @pytest.mark.parametrize("shape", [(10_000, 24), (7, 3), (1_000, 84)])
    def test_exact_parts_are_the_two_level_split(self, shape):
        # each level rounds what is left to its column quantum, as written
        # out here, for column scales from 1e-300 to 1e300
        rng = philox(17)
        x = rng.standard_normal(shape) * 10.0 ** rng.integers(-300, 301, size=shape[1])
        m = shape[0]
        bits = 53 - m.bit_length()
        exponent = np.frexp(np.abs(x).max(axis=0))[1]
        high_q, low_q = (np.ldexp(1.0, np.maximum(exponent - level * bits, -1074))
                         for level in (1, 2))
        high = np.round(x / high_q) * high_q
        low = np.round((x - high) / low_q) * low_q
        assert stats._exact_parts(x.T, m).tobytes() == np.hstack([high, low]).tobytes()

    def test_exact_parts_peak_is_the_split_and_one_sample(self):
        # both levels of each column are written into the returned split:
        # 3.74 MiB traced on the case-study shape, of which the split is
        # 3.66 MiB
        x = philox(3).standard_normal((10_000, 24))
        tracemalloc.start()
        try:
            parts = stats._exact_parts(x.T, x.shape[0])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= parts.nbytes + x.nbytes

    @pytest.mark.parametrize("entries, count", [
        ({(3, 1): np.nan}, 1),
        ({(0, 0): np.inf, (9, 2): -np.inf, (4, 0): np.nan}, 3),
    ])
    def test_non_finite_entries_refused(self, entries, count):
        x = philox(7).standard_normal((10, 3))
        for at, value in entries.items():
            x[at] = value
        message = rf"^sample must be finite; NaN or inf entries: {count} of 30$"
        with pytest.raises(ValueError, match=message):
            stats.resampled_means(x, 100, 1)
        column = x[:, next(iter(entries))[1]]
        with pytest.raises(ValueError, match=r"^sample must be finite; NaN or inf entries: "):
            gh.bootstrap_ci(column, n_resamples=100, seed=1)


class TestRowIndices:
    @pytest.mark.parametrize(
        "m", [2, 3, 7, 257, 10_000, 65_537, 2**31 + 1, 2**32 - 1]
    )
    def test_matches_generator_integers(self, m):
        # odd takes leave a half-word for the next one
        takes = [1, 3, 2, 7, 1_000, 5, 4_096, 1, 333]
        indices = stats._RowIndices(11, m)
        got = np.concatenate([indices.draw(n).copy() for n in takes])
        want = np.random.Generator(np.random.SFC64(11)).integers(0, m, size=sum(takes))
        assert got.dtype == want.dtype
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("m", [2**31 + 1, 3 * 2**30 + 1])
    def test_takes_that_end_on_a_rejection(self, m):
        # numpy rejects half-word u when the low half of u * m is below
        # 2**32 % m: about half of them at 2**31 + 1, a third at 3 * 2**30 + 1.
        # Each take here ends on the last value before a rejected half-word.
        half = np.random.SFC64(12).random_raw(2_000).astype("<u8").view("<u4")
        accepted = half.astype(object) * m % 2**32 >= 2**32 % m
        rejected = np.flatnonzero(~accepted)
        ends = np.unique(np.cumsum(accepted)[rejected[rejected > 0] - 1])[:80]
        takes = np.diff(ends, prepend=0)
        assert takes.min() >= 1 and (takes % 2).any() and (takes % 2 == 0).any()
        indices = stats._RowIndices(12, m)
        got = np.concatenate([indices.draw(int(n)).copy() for n in takes])
        want = np.random.Generator(np.random.SFC64(12)).integers(0, m, size=ends[-1])
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("m", [2**31 + 1, 3 * 2**30 + 1, 10_000 + 1])
    def test_candidate_at_the_threshold_is_kept(self, monkeypatch, m):
        # SFC64's first word is a + b + counter, so a state of (u, 0, 0, 0)
        # yields u first; u * m then has a low half of exactly 2**32 % m,
        # the smallest that numpy keeps
        u = (2**32 % m) * pow(m, -1, 2**32) % 2**32
        sfc64 = np.random.SFC64

        def from_u(seed):
            bits = sfc64(seed)
            bits.state = {**bits.state, "state": {"state": np.array([u, 0, 0, 0], np.uint64)}}
            return bits

        monkeypatch.setattr(np.random, "SFC64", from_u)
        got = stats._RowIndices(0, m).draw(9).copy()
        want = np.random.Generator(from_u(0)).integers(0, m, size=9)
        assert got[0] == u * m >> 32
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("m", [2**32, 2**32 + 1, 2**40])
    def test_bound_beyond_32_bits_refused_before_drawing(self, monkeypatch, m):
        # numpy switches to a 64-bit draw there; such an x would need 32 GiB
        monkeypatch.setattr(np.random, "SFC64", None)  # a draw would raise
        with pytest.raises(ValueError, match=rf"^m must be in \[2, 2\*\*32\), got {m}$"):
            stats._RowIndices(0, m)
