"""Validation statistics: two-sample KS test and bootstrap intervals."""
import math
import threading
from dataclasses import dataclass

import numpy as np

from .config import MIN_RESAMPLES


@dataclass(frozen=True)
class BootstrapCi:
    """A point estimate and its percentile interval: floats, or arrays over time."""

    mean: "float | np.ndarray"
    lo: "float | np.ndarray"
    hi: "float | np.ndarray"


def percentile_ci(mean, resampled, tail: float = 0.025) -> BootstrapCi:
    """mean with the tail and 1 - tail quantiles of resampled along axis 0.

    The quantiles are numpy's default linear ones (Hyndman & Fan type 7),
    read from one partition with numpy's indices and two-sided lerp, so
    they equal ``np.quantile(resampled, [tail, 1 - tail], axis=0)`` bit for
    bit without its ``np.unique``, which loads ``numpy.ma``.
    """
    resampled = np.asarray(resampled, dtype=float)
    n = resampled.shape[0]
    position = (n - 1) * np.array([tail, 1.0 - tail])
    below = np.floor(position)
    above = below + 1
    # a position at or past the last index reads the last value, as -1
    last = position >= n - 1
    below[last] = above[last] = -1
    t = (position - below).reshape((2,) + (1,) * (resampled.ndim - 1))
    below, above = below.astype(np.intp), above.astype(np.intp)
    ordered = np.partition(resampled, sorted({0, -1, *below.tolist(), *above.tolist()}), axis=0)
    low, high = ordered[below], ordered[above]
    span = high - low
    ends = low + span * t
    np.subtract(high, span * (1 - t), out=ends, where=t >= 0.5)
    lo, hi = ends
    return BootstrapCi(mean=mean, lo=lo, hi=hi)


def ks_two_sample(a, b) -> float:
    """sup-norm distance between the two empirical CDFs.

    Evaluated over the pooled sorted support, which is where the supremum of
    a difference of step functions is attained.
    """
    a = np.sort(np.asarray(a, dtype=float))
    b = np.sort(np.asarray(b, dtype=float))
    if a.size == 0 or b.size == 0:
        raise ValueError("both samples must be nonempty")
    pooled = np.concatenate([a, b])
    cdf_a = np.searchsorted(a, pooled, side="right") / a.size
    cdf_b = np.searchsorted(b, pooled, side="right") / b.size
    return float(np.max(np.abs(cdf_a - cdf_b)))


def ks_critical_value(n: int, m: int, alpha: float) -> float:
    """Asymptotic two-sample threshold c(alpha) * sqrt((n + m) / (n * m)).

    c(alpha) = sqrt(-ln(alpha / 2) / 2), e.g. 1.3581 at the 5% level.  The
    asymptotic form is accurate in the 10^4-sample regime this package
    targets; no exact small-sample tables are attempted.
    """
    if n < 1 or m < 1:
        raise ValueError("sample sizes must be >= 1")
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must be in (0, 1), got {alpha}")
    coefficient = np.sqrt(-np.log(alpha / 2.0) / 2.0)
    return float(coefficient * np.sqrt((n + m) / (n * m)))


# Elements per block of resample counts.  Two blocks of the narrowest
# unsigned integers that hold m (1 MiB each of uint16 at m < 65 536) are
# reused in turn, one filled by the draws while the other is multiplied,
# which bounds the bootstrap's working memory whatever the number of
# resamples; the results do not depend on it.
RESAMPLE_BLOCK_ELEMENTS = 1 << 19

# Elements per draw of row indices: small enough that a draw and its counts
# stay in cache; the results do not depend on it.
_DRAW_ELEMENTS = 1 << 16

# Multiply-adds per product tile of counts and parts: small enough that
# BLAS keeps a tile on the calling thread and leaves the other core to the
# draws.  With OpenBLAS 0.3.31 on 2 cores, the case study's 52 x 240 x 42
# tiles ran the bootstrap in 0.63 s, against 0.69 s at 2**18 and 0.9 s at
# 2**20, where BLAS takes both cores; the results do not depend on it.
_TILE_MULADDS = 1 << 19


class _RowIndices:
    """Uniform integers in [0, m) from one SFC64 stream, n at a time.

    Successive ``draw`` calls return, in order, exactly the values of one
    ``Generator(SFC64(seed)).integers(0, m, size)`` call whose size is their
    total: numpy's bounded draw (Lemire 2019, "Fast Random Integer
    Generation in an Interval"), one vector step for all candidates.  Each
    raw 64-bit word gives two 32-bit candidates u, low half first; u gives
    (u * m) >> 32 unless the low half of u * m is below 2**32 % m, in which
    case numpy rejects it and tries the next.  A value left over by one draw
    starts the next.  Needs 2 <= m < 2**32, numpy's 32-bit path.
    """

    def __init__(self, seed, m: int):
        if not 2 <= m < 1 << 32:
            raise ValueError(f"m must be in [2, 2**32), got {m}")
        self._bits = np.random.SFC64(seed)
        self._m = m
        self._threshold = (1 << 32) % m
        self._buffer = np.empty(0, dtype=np.uint64)
        self._spare = np.empty(0, dtype=np.uint64)

    def draw(self, n: int) -> np.ndarray:
        """The next n values, as an int64 view that the next draw overwrites."""
        if self._buffer.size <= n:
            self._buffer = np.empty(n + 1, dtype=np.uint64)
        filled = self._spare.size
        self._buffer[:filled] = self._spare
        while filled < n:
            words = self._bits.random_raw((n - filled + 1) // 2)
            u = words.astype("<u8", copy=False).view("<u4")
            product = self._buffer[filled : filled + u.size]
            # dtype fixes each loop's width under every numpy promotion rule
            np.multiply(u, self._m, out=product, dtype=np.uint64)
            product >>= 32
            low = np.multiply(u, self._m, dtype=np.uint32)  # the low half of u * m
            if low.min() < self._threshold:
                kept = product[low >= self._threshold]
                product[: kept.size] = kept
                product = product[: kept.size]
            filled += product.size
        self._spare = self._buffer[n:filled].copy()
        return self._buffer[:n].view(np.int64)


def _exact_parts(columns, m: int):
    """Split each column into two addends whose count sums are exact.

    columns are k equal-length 1-D arrays (``x.T`` gives those of a 2-D x).
    Each addend is an integer multiple of a per-column power-of-two
    quantum, with at most ``53 - bit_length(m)`` significant bits, so a
    product with nonnegative integer counts that sum to m never rounds, in
    any summation order.  Only bits below 2**-(2 * bits) of the column's
    largest magnitude are dropped.  Returns the (rows, 2k) array [high
    parts, low parts]; both levels of each column are written into it in
    place.
    """
    bits = 53 - int(m).bit_length()
    k = len(columns)
    parts = np.empty((len(columns[0]), 2 * k))
    for j, column in enumerate(columns):
        high, low = parts[:, j], parts[:, k + j]
        _, exponent = np.frexp(np.max(np.abs(column)))
        rest = column
        for level, part in ((1, high), (2, low)):
            quantum = np.ldexp(1.0, max(exponent - level * bits, -1074))
            np.divide(rest, quantum, out=part)
            np.round(part, out=part)
            part *= quantum
            if level == 1:
                # the second level splits the remainder, held in the low half
                rest = np.subtract(column, high, out=low)
    return parts


def _count_means(counts, parts, m: int):
    """Means over m rows weighted by (r, rows) integer counts that each sum to m.

    The counts are copied, one tile at a time, into a reused float array,
    and each tile's product with its rows of parts is added to its rows of
    the part sums.  A tile takes at most ``_TILE_MULADDS`` multiply-adds:
    up to the square root of its entries in rows of counts, and as many
    columns as the rest allows.
    parts are the columns' exact parts, so every count product and every
    partial sum is exact, and the tiling cannot change a byte.
    """
    r, rows = counts.shape
    entries = max(1, _TILE_MULADDS // parts.shape[1])
    height = min(r, math.isqrt(entries))
    width = min(rows, entries // height)
    floats = np.empty(height * width)
    sums = np.zeros((r, parts.shape[1]))
    for r0 in range(0, r, height):
        tall = min(height, r - r0)
        for c0 in range(0, rows, width):
            piece = floats[: tall * min(width, rows - c0)].reshape(tall, -1)
            piece[...] = counts[r0 : r0 + tall, c0 : c0 + piece.shape[1]]
            sums[r0 : r0 + tall] += piece @ parts[c0 : c0 + piece.shape[1]]
    k = parts.shape[1] // 2
    return (sums[:, :k] + sums[:, k:]) / m


def resampled_means_bytes(m: int, k: int, n_resamples: int) -> int:
    """Most bytes ``resampled_means`` holds in its count phase, for an (m, k) sample.

    That phase comes after the sample is released: the split of every
    column, the resampled means, two integer count blocks (one when one
    block holds every resample), the float tile of a product and the
    product with the split (the two part sums and a tile's product with its
    parts, or two temporaries of the means), and, beside them on the worker
    thread, four 8-byte arrays of one draw (its indices, raw words, low
    halves and bincount).  The split phase before it holds the sample and
    its split, which the caller counts.  A one-row sample is constant in
    every column, so it holds only the resampled means.
    """
    if m == 1:
        return 8 * n_resamples * k
    block = min(max(1, RESAMPLE_BLOCK_ELEMENTS // m), n_resamples)
    draw = min(max(1, _DRAW_ELEMENTS // m), block)
    counts = min(2, -(-n_resamples // block)) * np.min_scalar_type(m).itemsize * block * m
    floats = min(block * m, _TILE_MULADDS // 2)  # the tile of one varying column
    return counts + 8 * (2 * m * k + n_resamples * k + 4 * block * k + floats + 4 * draw * m)


def resampled_means(x, n_resamples: int, seed):
    """Column means of x and of n_resamples bootstrap resamples of its rows.

    x is the (m, k) sample: one array, or a list of (m, k_i) column blocks
    read in order as one and never joined.  Returns (means, resampled), the
    (k,) column means and the (n_resamples, k) resampled means.  Resample r
    takes its m row indices from row r of ``Generator(SFC64(seed)).integers(0,
    m, size=(n_resamples, m))``, computed by ``_RowIndices`` from the raw
    SFC64 words a few rows at a time.  Each draw is counted per row with one
    ``bincount`` and stored into a count block of ``np.min_scalar_type(m)``,
    which holds any count up to m in 1, 2 or 4 bytes against a float's 8,
    and the means are BLAS products of the block's float tiles with the
    columns' rows (``_count_means``).  The two run side by side: one worker
    thread draws and counts the blocks in order, into two reused count
    blocks in turn, while the calling thread multiplies the block before,
    in tiles that BLAS keeps on the calling thread.  Draws of consecutive
    rows use up the stream exactly as one draw of all rows does, each
    block's means depend on its counts alone, and every product and partial
    sum is exact (see ``_exact_parts``), so the means are bit-identical
    whatever the block size, draw size, tile shape, BLAS kernel or thread
    count.  An error on either thread stops the worker, which is joined
    before the error leaves the call.

    Once the point means are taken and the varying columns split, the
    sample is no longer read: every reference to it is dropped, and a list
    x is cleared, before the resampled means are allocated.  So a caller
    that hands over its only references to the blocks frees the sample
    before the draws, and the resampled means can take its place in the
    heap; a caller that keeps the blocks passes a copy of the list.

    A column that is constant over the rows has its point mean in every
    resample, so only the varying columns are split and counted.  A
    constant column's rows share one split, so its point mean is its first
    row's split counted m times: the same exact product as every row
    counted once.  When every column is constant, which includes m == 1,
    nothing is drawn.  A NaN or infinite entry raises ValueError: it has no
    exact parts.
    """
    blocks = x if isinstance(x, list) else [x]
    columns = [column for block in blocks for column in np.asarray(block, dtype=float).T]
    m, k = columns[0].size, len(columns)
    nonfinite = sum(m - np.count_nonzero(np.isfinite(column)) for column in columns)
    if nonfinite:
        raise ValueError(f"sample must be finite; NaN or inf entries: {nonfinite} of {m * k}")
    constant = np.array([not np.any(column != column[0]) for column in columns])
    varying = np.flatnonzero(~constant)
    means = np.empty(k)
    count_type = np.min_scalar_type(m)
    if constant.any():
        first = _exact_parts([columns[j][:1] for j in np.flatnonzero(constant)], m)
        means[constant] = _count_means(np.full((1, 1), m, dtype=count_type), first, m)[0]
    if varying.size:
        parts = _exact_parts([columns[j] for j in varying], m)
        means[varying] = _count_means(np.ones((1, m), dtype=count_type), parts, m)[0]
    # the split is all the draws read: release the sample first, so that
    # the resampled means can reuse its memory
    blocks.clear()
    del columns
    resampled = np.empty((n_resamples, k))
    resampled[:, constant] = means[constant]
    if varying.size == 0:
        return means, resampled
    indices = _RowIndices(seed, m)
    block = max(1, RESAMPLE_BLOCK_ELEMENTS // m)
    draw = max(1, _DRAW_ELEMENTS // m)
    starts = range(0, n_resamples, block)
    counts = np.empty((min(2, len(starts)), min(block, n_resamples), m), dtype=count_type)
    offsets = np.arange(0, draw * m, m)[:, None]
    # the worker may fill a block once it is free, and the caller multiply
    # it once it is ready; block i is counts[i % 2]
    free, ready = threading.Semaphore(2), threading.Semaphore(0)
    stop, failed = threading.Event(), []

    def fill():
        try:
            for i, start in enumerate(starts):
                free.acquire()
                if stop.is_set():
                    return
                take = min(block, n_resamples - start)
                for lo in range(0, take, draw):
                    rows = min(draw, take - lo)
                    idx = indices.draw(rows * m).reshape(rows, m)
                    idx += offsets[:rows]
                    counts[i % 2, lo : lo + rows] = np.bincount(
                        idx.ravel(), minlength=rows * m).reshape(rows, m)
                ready.release()
        except BaseException as error:  # raised again on the calling thread
            failed.append(error)
            ready.release()

    worker = threading.Thread(target=fill, daemon=True)
    worker.start()
    try:
        for i, start in enumerate(starts):
            ready.acquire()
            if failed:
                raise failed[0]
            take = min(block, n_resamples - start)
            resampled[start : start + take, varying] = _count_means(counts[i % 2, :take], parts, m)
            free.release()
    finally:
        stop.set()
        free.release()
        worker.join()
    return means, resampled


def bootstrap_ci(
    sample, n_resamples: int = 10_000, level: float = 0.95, seed: int = 0
) -> BootstrapCi:
    """Percentile bootstrap interval for the mean, deterministic per seed.

    Quantiles of any level are read from the same resampled-mean array, so
    widening the level can never narrow the interval.
    """
    x = np.asarray(sample, dtype=float).ravel()
    if x.size == 0:
        raise ValueError("sample must be nonempty")
    if n_resamples < MIN_RESAMPLES:
        raise ValueError(f"n_resamples must be >= {MIN_RESAMPLES}, got {n_resamples}")
    if not 0.0 < level < 1.0:
        raise ValueError(f"level must be in (0, 1), got {level}")
    mean, resampled = resampled_means(x[:, None], n_resamples, seed)
    return percentile_ci(float(mean[0]), resampled[:, 0], (1.0 - level) / 2.0)
