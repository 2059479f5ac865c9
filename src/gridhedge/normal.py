"""Standard normal CDF shared by the allocation formulas.

Built on the C library's complementary error function, which keeps the
absolute error below 1e-12 over the whole real line (erfc is accurate to
~1 ulp even deep in the tails, where ``1 - Phi(x)`` would cancel
catastrophically).  Both functions use the standard library only, so
importing this module does not load scipy.
"""
import math

import numpy as np

_SQRT2 = np.sqrt(2.0)


def normal_cdf(x):
    """Phi(x) for scalars or arrays via 0.5 * erfc(-x / sqrt(2))."""
    z = -np.asarray(x, dtype=float) / _SQRT2
    erfc = np.fromiter(map(math.erfc, z.ravel().tolist()), float, count=z.size)
    return 0.5 * erfc.reshape(z.shape)


def normal_ppf(q):
    """Inverse of ``normal_cdf`` for 0 < q < 1 (equal-probability binning).

    Only ``estimate``'s chi-square bins need it, so ``statistics`` (about
    4.5 ms of start-up after numpy) is imported here, not at module level.
    """
    from statistics import NormalDist

    inv_cdf = np.frompyfunc(NormalDist().inv_cdf, 1, 1)
    return np.asarray(inv_cdf(np.asarray(q, dtype=float)), dtype=float)
