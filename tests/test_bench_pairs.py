"""Verdicts of tools/bench_pairs.py and the Tier-1 summary of tools/tier1_pairs.py."""
import importlib.util
import sys
from pathlib import Path

import pytest

TOOLS = Path(__file__).resolve().parents[1] / "tools"


def load_tool(name):
    # registered in sys.modules so that tier1_pairs can import bench_pairs
    spec = importlib.util.spec_from_file_location(name, TOOLS / f"{name}.py")
    module = sys.modules[name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


bench_pairs = load_tool("bench_pairs")
tier1_pairs = load_tool("tier1_pairs")


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


@pytest.mark.parametrize(
    "stdout, want",
    [
        ("..F.\n2 failed, 366 passed in 44.10s\n", {"failed": 2, "passed": 366}),
        ("x\n= 367 passed, 1 error, 3 warnings in 1.5s =\n",
         {"passed": 367, "error": 1, "warnings": 3}),
    ],
)
def test_tier1_outcomes(stdout, want):
    assert tier1_pairs.outcomes(stdout) == want


def test_tier1_outcomes_needs_a_summary_line():
    with pytest.raises(ValueError, match="no pytest summary line"):
        tier1_pairs.outcomes("collecting ...\nInterrupted: 1 error during collection\n")


def test_tier1_summary():
    base = [44.0, 45.0, 43.0, 46.0, 44.5, 44.0, 45.5, 43.5, 44.0, 45.0]
    change = [33.0, 34.0, 46.5, 33.5, 32.5, 33.0, 34.5, 33.0, 33.5, 34.0]
    counts = {"base": {"failed": 2, "passed": 366}, "change": {"failed": 2, "passed": 368}}
    runs = [
        {side: {"wall_s": wall, "outcomes": counts[side]} for side, wall in
         (("base", b), ("change", c))}
        for b, c in zip(base, change)
    ]
    got = tier1_pairs.summarise(runs)
    assert got["wall_s"]["base"] == {"median": 44.25, "iqr": 1.0, "runs": base}
    assert got["wall_s"]["change"]["median"] == 33.5
    assert got["wall_s"]["change_wins"] == 9
    assert got["wall_s"]["pairs"] == 10
    assert got["outcomes"] == {side: [counts[side]] * 10 for side in ("base", "change")}
