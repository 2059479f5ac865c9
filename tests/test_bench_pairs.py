"""tools/bench_pairs.py: verdicts, the second-set rule, the Tier-1 summary, pair order and
the report's shape."""
import importlib.util
import json
import math
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def load_tool(name):
    spec = importlib.util.spec_from_file_location(name, ROOT / "tools" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


bench_pairs = load_tool("bench_pairs")


def pairs_of(base, change):
    return [{"base": b, "change": c} for b, c in zip(base, change)]


def verdict_of(base, change, better="lower", bound=0.25):
    entry = bench_pairs.compare(pairs_of(base, change), lambda run: run, better)
    return bench_pairs.verdict(entry, bound)


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


def summary_of(change, better="lower"):
    return bench_pairs.summarise(pairs_of([{"metrics": {"m": {"value": v}}} for v in STEADY],
                                          [{"metrics": {"m": {"value": v}}} for v in change]),
                                 [{"name": "m", "better": better, "bound": 0.25}])


@pytest.mark.parametrize(
    "first, second, want",
    [
        # a claim that both sets make stands
        ([v - 0.1 for v in STEADY], [v - 0.1 for v in STEADY], "gain"),
        ([v * 1.3 for v in STEADY], [v * 1.3 for v in STEADY], "regression"),
        # one set wins and the other does not: no claim
        ([v - 0.1 for v in STEADY], [v - 0.001 for v in STEADY], "unresolved"),
        ([v * 1.3 for v in STEADY], STEADY, "unresolved"),
        # opposite claims cannot both stand
        ([v - 0.1 for v in STEADY], [v * 1.3 for v in STEADY], "unresolved"),
    ],
)
def test_a_claim_stands_only_when_the_second_set_agrees(first, second, want):
    summary, again = summary_of(first), summary_of(second)
    claimed = summary["m"]["verdict"]
    bench_pairs.confirm(summary, again)
    entry = summary["m"]
    assert entry["verdict"] == want
    # the report keeps both sets: the first at the top, the second beside it
    assert entry["set_verdicts"] == [claimed, again["m"]["verdict"]]
    assert entry["second_set"] == {k: v for k, v in again["m"].items() if k != "verdict"}
    assert entry["base"]["runs"] == STEADY and entry["change"]["runs"] == first


def test_a_verdict_that_claims_nothing_is_not_rerun():
    summary = summary_of([v - 0.001 for v in STEADY])
    bench_pairs.confirm(summary, summary_of([v - 0.1 for v in STEADY]))
    assert summary["m"]["verdict"] == "unchanged"
    assert "second_set" not in summary["m"] and "set_verdicts" not in summary["m"]


@pytest.mark.parametrize(
    "stdout, want",
    [
        ("..F.\n2 failed, 366 passed in 44.10s\n", {"failed": 2, "passed": 366}),
        ("x\n= 367 passed, 1 error, 3 warnings in 1.5s =\n",
         {"passed": 367, "error": 1, "warnings": 3}),
    ],
)
def test_tier1_outcomes(stdout, want):
    assert bench_pairs.outcomes(stdout) == want


def test_tier1_outcomes_needs_a_summary_line():
    with pytest.raises(ValueError, match="no pytest summary line"):
        bench_pairs.outcomes("collecting ...\nInterrupted: 1 error during collection\n")


@pytest.mark.parametrize(
    "change, want",
    [
        ({"failed": 2, "passed": 510}, True),
        ({"failed": 2, "passed": 515, "warnings": 3}, True),
        ({"failed": 1, "passed": 511}, True),
        ({"failed": 2, "passed": 509}, False),
        ({"failed": 3, "passed": 510}, False),
        ({"failed": 2, "passed": 510, "error": 1}, False),
        ({"failed": 2, "passed": 510, "errors": 2}, False),
    ],
)
def test_tier1_outcomes_no_worse(change, want):
    assert bench_pairs.outcomes_no_worse({"failed": 2, "passed": 510}, change) is want


def test_tier1_summary():
    base = [44.0, 45.0, 43.0, 46.0, 44.5, 44.0, 45.5, 43.5, 44.0, 45.0]
    change = [33.0, 34.0, 46.5, 33.5, 32.5, 33.0, 34.5, 33.0, 33.5, 34.0]
    runs = [{side: {"wall_s": wall} for side, wall in (("base", b), ("change", c))}
            for b, c in zip(base, change)]
    got = bench_pairs.compare(runs, lambda run: run["wall_s"])
    assert got["base"] == {"median": 44.25, "iqr": 1.0, "runs": base}
    assert got["change"]["median"] == 33.5
    assert got["change_wins"] == 9
    assert got["pairs"] == 10
    assert got["better"] == "lower"


DIFF_KEYS = {"diff_median", "diff_interval", "diff_coverage"}


def binomial_tail(n, k):
    """P(B <= k) for B ~ binomial(n, 1/2), as a fraction of 2**n outcomes."""
    return sum(math.comb(n, j) for j in range(k + 1)) / 2**n


@pytest.mark.parametrize("n", [6, 9, 10, 11, 20, 30])
def test_sign_interval_takes_the_widest_rank_inside_the_level(n):
    # shuffled differences 0.1, 0.2, ..., n/10: the interval is the k-th
    # smallest and the k-th largest, k the largest rank whose two-sided tail
    # stays within the 5% level
    diffs = [0.1 * ((7 * i) % n + 1) for i in range(n)]
    interval, coverage = bench_pairs.sign_interval(diffs)
    k = round(interval[0] / 0.1)
    assert interval == pytest.approx([0.1 * k, 0.1 * (n + 1 - k)])
    assert 2 * binomial_tail(n, k - 1) <= 0.05 < 2 * binomial_tail(n, k)
    assert coverage == 1 - 2 * binomial_tail(n, k - 1)


def test_sign_interval_at_ten_pairs_and_below_six():
    interval, coverage = bench_pairs.sign_interval([0.5, -0.1, 0.3, 0.0, 0.9, 0.2, -0.4, 0.6,
                                                    0.1, 0.4])
    assert interval == [-0.1, 0.6]  # the 2nd smallest and 2nd largest
    assert coverage == 1 - 22 / 1024  # 97.9%
    # with 5 pairs even the full range covers less than 95%: 1 - 2/32
    assert bench_pairs.sign_interval([0.1, 0.2, 0.3, 0.4, 0.5]) == (None, None)


@pytest.mark.parametrize("better", ["lower", "higher"])
def test_compare_reports_the_paired_differences_and_keeps_the_verdict(better):
    # change - base per pair: -0.10 at every pair but two outliers, so the
    # median reads the typical pair and the interval's ends skip the outliers
    change = [v - 0.1 for v in STEADY]
    change[3], change[7] = STEADY[3] + 0.5, STEADY[7] - 0.9
    entry = bench_pairs.compare(pairs_of(STEADY, change), lambda run: run, better)
    assert entry["diff_median"] == pytest.approx(-0.1)
    assert entry["diff_interval"] == pytest.approx([-0.1, -0.1])
    assert entry["diff_coverage"] == 1 - 22 / 1024
    # the verdict still reads the medians and wins: 9 of 10 wins when lower is better
    assert bench_pairs.verdict(entry, 0.25) == ("gain" if better == "lower" else "unchanged")


def test_tier1_wall_regression_past_its_bound():
    # 15% slower with a tight spread reads regression against the 10% bound;
    # 5% slower stays inside it
    assert bench_pairs.TIER1_BOUND == 0.10
    base = [50.0 + 0.1 * i for i in range(10)]
    assert verdict_of(base, [v * 1.15 for v in base], bound=bench_pairs.TIER1_BOUND) \
        == "regression"
    assert verdict_of(base, [v * 1.05 for v in base], bound=bench_pairs.TIER1_BOUND) \
        == "unchanged"


def test_alternate_swaps_the_first_side_and_passes_the_pair_index():
    calls = []

    def run(root, i):
        calls.append((root, i))
        return f"{root}{i}"

    runs, first = bench_pairs.alternate({"base": "B", "change": "C"}, run, "fake")
    assert bench_pairs.PAIRS == 10
    assert first == ["base", "change"] * 5
    assert calls == [call for i in range(10)
                     for call in ([("B", i), ("C", i)] if i % 2 == 0 else [("C", i), ("B", i)])]
    assert runs == [{"base": f"B{i}", "change": f"C{i}"} for i in range(10)]


def key_paths(tree, prefix=()):
    """The paths of every dict key in tree; lists are leaves."""
    if not isinstance(tree, dict):
        return set()
    return set().union(*({prefix + (k,)} | key_paths(v, prefix + (k,)) for k, v in tree.items()))


def stub(monkeypatch, value):
    """bench_pairs with git, export and both runners replaced by instant fakes.

    Every end-to-end metric of a perfbench run reads value(side, seed).
    Returns the list of calls, in order.
    """
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    calls = []

    def perfbench(root, workload, seed, seconds):
        calls.append((root.name, workload, seed))
        return {"correct": True, "metrics": {
            m["name"]: {"value": value(root.name, seed)} for m in benchmark["end_to_end"]}}

    def tier1(root):
        calls.append((root.name, "tier1", None))
        return {"wall_s": 30.0, "outcomes": {"failed": 2, "passed": 377}}

    monkeypatch.setattr(bench_pairs, "git", lambda *args, **kw: "0" * 40)
    def export(rev, dest):
        # the base tree has one line more under src/ than the change
        package = dest / "src" / "pkg"
        package.mkdir(parents=True)
        (package / "mod.py").write_text("a\nb\n" if dest.name == "base" else "a\n")
        return dest

    monkeypatch.setattr(bench_pairs, "export", export)
    monkeypatch.setattr(bench_pairs, "run_once", perfbench)
    monkeypatch.setattr(bench_pairs, "run_tier1", tier1)
    return calls


@pytest.fixture
def stubbed(monkeypatch):
    """The change reads 0.9 against the base's 1.0 on every run, so every metric claims."""
    return stub(monkeypatch, lambda side, seed: 1.0 if side == "base" else 0.9)


def test_main_writes_the_keys_of_bench_20(stubbed, tmp_path, capsys):
    out = tmp_path / "BENCH.json"
    assert bench_pairs.main(["--base", "a", "--change", "b", "--seed", "40",
                             "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    # BENCH_20's keys, and each side's line count under src/
    # and, for the claims the stub makes on every metric, the second set
    src_lines = {("src_lines",), ("src_lines", "base"), ("src_lines", "change")}
    second = {path for path in key_paths(report)
              if "second_set" in path or path[-1] == "set_verdicts"}
    # and, beside each change_wins, the paired differences' median and interval
    diffs = {path[:-1] + (key,) for path in key_paths(report) - second
             if path[-1] == "change_wins" for key in DIFF_KEYS}
    assert key_paths(report) - second == \
        key_paths(json.loads((ROOT / "BENCH_20.json").read_text())) \
        | src_lines | diffs | {("tier1", "outcomes_no_worse"), ("tier1", "wall_s", "verdict")}
    assert report["src_lines"] == {"base": 2, "change": 1}
    for workload, entry in report["workloads"].items():
        assert entry["seeds"] == list(range(40, 50))
        assert entry["second_set"] == {"seeds": list(range(50, 60)),
                                       "first": ["base", "change"] * 5}
        for side in ("base", "change"):
            assert [seed for root, w, seed in stubbed if (root, w) == (side, workload)] == \
                entry["seeds"] + entry["second_set"]["seeds"]
        for name, metric in entry["metrics"].items():
            want = "gain" if name != "success_rate" else "regression"
            assert metric["verdict"] == want
            assert metric["set_verdicts"] == [want, want]
            assert set(metric["second_set"]) == {"better", "base", "change", "change_wins",
                                                 "pairs", *DIFF_KEYS}
    # Tier-1 runs last, after every workload
    assert [w for _, w, _ in stubbed[-20:]] == ["tier1"] * 20
    assert report["tier1"]["outcomes"]["change"] == [{"failed": 2, "passed": 377}] * 10
    assert report["tier1"]["first"] == ["base", "change"] * 5
    out = capsys.readouterr().out
    assert "src: 2 -> 1 lines (-1)" in out
    assert "tier1: wall_s 30.0 -> 30.0 s unchanged" in out
    assert report["tier1"]["wall_s"]["verdict"] == "unchanged"
    assert report["tier1"]["outcomes_no_worse"] is True
    assert out.rstrip().endswith("outcomes no worse True")


def test_main_reruns_a_claim_and_unresolves_it_when_the_sets_disagree(
        monkeypatch, tmp_path, capsys):
    # the change wins every pair of the first set and no pair of the second
    calls = stub(monkeypatch, lambda side, seed: 0.9 if side == "change" and seed < 10 else 1.0)
    out = tmp_path / "BENCH.json"
    assert bench_pairs.main(["--base", "a", "--change", "b", "--seed", "0",
                             "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    for workload, entry in report["workloads"].items():
        wall = entry["metrics"]["wall_s"]
        assert wall["verdict"] == "unresolved"
        assert wall["set_verdicts"] == ["gain", "unchanged"]
        assert wall["change_wins"] == 10 and wall["second_set"]["change_wins"] == 0
        assert wall["change"]["runs"] == [0.9] * 10
        assert wall["second_set"]["change"]["runs"] == [1.0] * 10
        assert entry["second_set"]["seeds"] == list(range(10, 20))
    assert "wall_s unresolved (10/10; sets gain and unchanged, second 0/10)" \
        in capsys.readouterr().out
    assert len([call for call in calls if call[1] != "tier1"]) == \
        2 * 2 * bench_pairs.PAIRS * len(report["workloads"])


def test_main_runs_one_set_when_nothing_is_claimed(monkeypatch, tmp_path):
    calls = stub(monkeypatch, lambda side, seed: 1.0)
    out = tmp_path / "BENCH.json"
    assert bench_pairs.main(["--base", "a", "--change", "b", "--seed", "0",
                             "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    for entry in report["workloads"].values():
        assert "second_set" not in entry
        assert {m["verdict"] for m in entry["metrics"].values()} == {"unchanged"}
    assert len([call for call in calls if call[1] != "tier1"]) == \
        2 * bench_pairs.PAIRS * len(report["workloads"])


def test_src_lines_counts_every_file_under_src_as_wc_does(tmp_path):
    (tmp_path / "src" / "pkg").mkdir(parents=True)
    (tmp_path / "src" / "pkg" / "a.py").write_text("x\ny\n")
    (tmp_path / "src" / "pkg" / "data.txt").write_text("1\n2\n3\n")
    (tmp_path / "src" / "b.py").write_text("no final newline")
    (tmp_path / "README.md").write_text("outside src\n")
    assert bench_pairs.src_lines(tmp_path) == 5


def test_a_compiled_tree_counts_the_same_lines(tmp_path):
    (tmp_path / "src" / "pkg").mkdir(parents=True)
    (tmp_path / "src" / "pkg" / "a.py").write_text("x = 1\ny = 2\n")
    (tmp_path / "src" / "b.py").write_text("z = 3\n")
    assert bench_pairs.src_lines(tmp_path) == 3
    bench_pairs.compile_src(tmp_path)
    assert len(list((tmp_path / "src").rglob("__pycache__/*.pyc"))) == 2
    assert bench_pairs.src_lines(tmp_path) == 3


def test_missing_out_directory_exits_2_before_any_export(monkeypatch, tmp_path, capsys):
    def export(rev, dest):
        raise AssertionError("exported")

    monkeypatch.setattr(bench_pairs, "export", export)
    with pytest.raises(SystemExit) as exc:
        bench_pairs.main(["--base", "a", "--change", "b", "--seed", "1",
                          "--out", str(tmp_path / "missing" / "BENCH.json")])
    assert exc.value.code == 2
    assert f"directory {tmp_path / 'missing'} does not exist" in capsys.readouterr().err
