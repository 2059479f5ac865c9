"""The per-metric verdict of tools/bench_pairs.py."""
import importlib.util
from pathlib import Path

import pytest

_SPEC = importlib.util.spec_from_file_location(
    "bench_pairs", Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"
)
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)


def verdict_of(base, change, better="lower", bound=0.25):
    sign = 1.0 if better == "lower" else -1.0
    wins = sum(sign * (c - b) < 0 for b, c in zip(base, change))
    return bench_pairs.verdict(
        bench_pairs.spread(base), bench_pairs.spread(change), wins, sign, bound
    )


STEADY = [1.00, 1.01, 0.99, 1.02, 0.98, 1.00, 1.01, 0.99, 1.00, 1.00]


@pytest.mark.parametrize(
    "base, change, better, bound, want",
    [
        # 10/10 wins and a median gap far wider than the base IQR
        (STEADY, [v - 0.1 for v in STEADY], "lower", 0.25, "gain"),
        (STEADY, [v + 0.1 for v in STEADY], "higher", 0.25, "gain"),
        # 9/10 wins is enough, but not when the gap is inside the base IQR
        (STEADY, [v - 0.1 for v in STEADY[:9]] + [1.2], "lower", 0.25, "gain"),
        (STEADY, [v - 0.001 for v in STEADY], "lower", 0.25, "unchanged"),
        # 30% worse in the median against a 25% bound
        (STEADY, [v * 1.3 for v in STEADY], "lower", 0.25, "regression"),
        (STEADY, [v * 0.7 for v in STEADY], "higher", 0.25, "regression"),
        # a base spread wider than the bound cannot resolve a small move ...
        ([1.0, 2.0] * 5, [1.1, 1.9] * 5, "lower", 0.25, "unresolved"),
        # ... unless every change run beats every base run
        ([1.0, 1.1] * 5, [0.98, 0.99] * 5, "lower", 0.05, "unchanged"),
    ],
)
def test_verdict(base, change, better, bound, want):
    assert verdict_of(base, change, better, bound) == want
