"""Phi (``ces._normal_cdf``) and its inverse (``gbm.normal_ppf``) against an
arbitrary-precision oracle."""
import mpmath
import numpy as np

from gridhedge.ces import _normal_cdf as normal_cdf
from gridhedge.gbm import normal_ppf

mpmath.mp.dps = 50


def test_matches_mpmath_below_1e12():
    xs = np.concatenate([np.linspace(-8, 8, 401), [-37.0, 37.0, 0.033541, -0.033541]])
    for x in xs:
        want = float(mpmath.ncdf(mpmath.mpf(float(x))))
        assert abs(normal_cdf(x) - want) < 1e-12


def test_symmetry_and_bounds():
    xs = np.linspace(-6, 6, 101)
    vals = normal_cdf(xs)
    assert np.all(vals >= 0) and np.all(vals <= 1)
    assert np.allclose(vals + normal_cdf(-xs), 1.0, atol=1e-15)


def test_ppf_round_trip():
    qs = np.linspace(0.01, 0.99, 25)
    assert np.allclose(normal_cdf(normal_ppf(qs)), qs, atol=1e-12)


def test_ppf_matches_mpmath_below_1e14_relative():
    tails = np.logspace(-10, np.log10(0.5), 60)
    qs = np.concatenate([np.arange(1, 16) / 16, tails, 1.0 - tails])
    got = normal_ppf(qs)
    for q, value in zip(qs, got):
        q = mpmath.mpf(float(q))
        want = float(mpmath.sqrt(2) * mpmath.erfinv(2 * q - 1))
        assert abs(value - want) <= 1e-14 * abs(want)
