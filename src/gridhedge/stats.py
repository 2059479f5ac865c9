"""Validation statistics: two-sample KS test and bootstrap intervals."""
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class BootstrapCi:
    """A point estimate and its percentile interval: floats, or arrays over time."""

    mean: "float | np.ndarray"
    lo: "float | np.ndarray"
    hi: "float | np.ndarray"


def percentile_ci(mean, resampled, tail: float = 0.025) -> BootstrapCi:
    """mean with the tail and 1 - tail quantiles of resampled along axis 0."""
    lo, hi = np.quantile(resampled, [tail, 1.0 - tail], axis=0)
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


# Elements per block of resample counts.  One float64 block (at most 4 MiB) is
# reused for every block, which bounds the bootstrap's working memory
# whatever the number of resamples; the results do not depend on it.
RESAMPLE_BLOCK_ELEMENTS = 1 << 19

# Elements per draw of row indices: small enough that a draw and its counts
# stay in cache; the results do not depend on it.
_DRAW_ELEMENTS = 1 << 16


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


def _exact_parts(x, m: int):
    """Split each column of x into two addends whose count sums are exact.

    Each addend is an integer multiple of a per-column power-of-two quantum,
    with at most ``53 - bit_length(m)`` significant bits, so a product with
    nonnegative integer counts that sum to m never rounds, in any summation
    order.  Only bits below 2**-(2 * bits) of the column's largest magnitude
    are dropped.  Returns the (m, 2k) array [high parts, low parts]; both
    levels are written into it in place.
    """
    bits = 53 - int(m).bit_length()
    _, exponent = np.frexp(np.max(np.abs(x), axis=0))
    k = x.shape[1]
    parts = np.empty((x.shape[0], 2 * k))
    high, low = parts[:, :k], parts[:, k:]
    rest = x
    for level, part in ((1, high), (2, low)):
        quantum = np.ldexp(1.0, np.maximum(exponent - level * bits, -1074))
        np.divide(rest, quantum, out=part)
        np.round(part, out=part)
        part *= quantum
        if level == 1:
            # the second level splits the remainder, held in the low half
            rest = np.subtract(x, high, out=low)
    return parts


def _count_means(counts, parts):
    """Means of x weighted by (r, m) row counts that each sum to m.

    parts are x's exact parts, so every count product is exact.
    """
    sums = counts @ parts
    k = parts.shape[1] // 2
    return (sums[:, :k] + sums[:, k:]) / parts.shape[0]


def resampled_means(x, n_resamples: int, seed):
    """Column means of x and of n_resamples bootstrap resamples of its rows.

    x is (m, k) and finite; returns (means, resampled), the (k,) column
    means and the (n_resamples, k) resampled means.  Resample r takes its m
    row indices from row r of ``Generator(SFC64(seed)).integers(0, m,
    size=(n_resamples, m))``, computed by ``_RowIndices`` from the raw SFC64
    words a few rows at a time.  Each draw is counted per row with one
    ``bincount`` and written into one reused float count block, and the
    means are a BLAS product of each block with the columns.  Draws of
    consecutive rows use up the stream exactly as one draw of all rows does,
    and the product is exact (see ``_exact_parts``), so the means are
    bit-identical whatever the block size, draw size, BLAS kernel or thread
    count.

    The point means are the same exact product with every count 1, so a
    column that is constant over the rows has its point mean in every
    resample; it is filled with that value and left out of the product.
    When every column is constant, which includes m == 1, nothing is drawn.
    A NaN or infinite entry raises ValueError: it has no exact parts.
    """
    x = np.asarray(x, dtype=float)
    m, k = x.shape
    nonfinite = x.size - np.count_nonzero(np.isfinite(x))
    if nonfinite:
        raise ValueError(f"sample must be finite; NaN or inf entries: {nonfinite} of {x.size}")
    parts = _exact_parts(x, m)
    means = _count_means(np.ones((1, m)), parts)[0]
    resampled = np.tile(means, (n_resamples, 1))
    varying = np.flatnonzero(np.any(x != x[:1], axis=0))
    if varying.size == 0:
        return means, resampled
    parts = parts[:, np.concatenate([varying, varying + k])]
    indices = _RowIndices(seed, m)
    block = max(1, RESAMPLE_BLOCK_ELEMENTS // m)
    draw = max(1, _DRAW_ELEMENTS // m)
    counts = np.empty((min(block, n_resamples), m))
    offsets = np.arange(0, draw * m, m)[:, None]
    for start in range(0, n_resamples, block):
        take = min(block, n_resamples - start)
        for lo in range(0, take, draw):
            rows = min(draw, take - lo)
            idx = indices.draw(rows * m).reshape(rows, m)
            idx += offsets[:rows]
            counts[lo : lo + rows] = np.bincount(idx.ravel(), minlength=rows * m).reshape(rows, m)
        resampled[start : start + take, varying] = _count_means(counts[:take], parts)
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
    if n_resamples < 100:
        raise ValueError(f"n_resamples must be >= 100, got {n_resamples}")
    if not 0.0 < level < 1.0:
        raise ValueError(f"level must be in (0, 1), got {level}")
    mean, resampled = resampled_means(x[:, None], n_resamples, seed)
    return percentile_ci(float(mean[0]), resampled[:, 0], (1.0 - level) / 2.0)
