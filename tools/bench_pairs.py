"""Paired perfbench and Tier-1 runs of a base revision against a change, as BENCH_<n>.json.

Usage, from the root of a checkout::

    python3 tools/bench_pairs.py --base c6d8b54 --change dc5a245 --seed 101 --out BENCH_11.json

Both revisions are exported with ``git archive`` into a temporary
directory, and each tree's ``src`` is compiled to bytecode (``compileall``)
as an installed package has it: so no command recompiles the package when
``PYTHONDONTWRITEBYTECODE`` is set, and peak RSS does not move with the
byte layout of the sources.  For each workload in BENCHMARK.json the
script runs ``PAIRS`` pairs of ``perfbench/run.py --trace 0``, pair i with
seed ``--seed`` + i; then ``PAIRS`` pairs of ROADMAP.md's Tier-1 command in
the same trees, last, so that no test artifact can reach perfbench's
inputs.  One process runs at a time, and the side that runs first
alternates from pair to pair, so drift on the host falls on both sides
alike.

For each end-to-end metric, and for the Tier-1 wall time, the output holds
both sides' per-pair values, their medians and interquartile ranges and the
number of pairs the change won (strictly better, in the direction
BENCHMARK.json gives).  Each metric also gets a verdict, the Tier-1 wall
time against the relative bound ``TIER1_BOUND``:

- ``gain``: the change won at least 9 pairs in 10 and the medians differ,
  in its favour, by more than the base's interquartile range;
- ``regression``: the change's median is worse than the base's by more
  than the metric's relative ``bound`` in BENCHMARK.json;
- ``unresolved``: the base's interquartile range is wider than the bound,
  and not every run of the change beats every run of the base;
- ``unchanged``: otherwise.

Ten pairs in one session cannot tell a change from drift over that
session, so a workload with a ``gain`` or ``regression`` on any metric runs
a second set of ``PAIRS`` pairs, on the disjoint seeds ``--seed`` + PAIRS +
i.  A claim stands only when the second set gives it the same verdict;
otherwise it reads ``unresolved``.  The report keeps both sets: the
workload's ``second_set`` holds its seeds and pair order, and each rerun
metric its second ``compare()`` entry as ``second_set`` and both verdicts
as ``set_verdicts``.  The Tier-1 wall time has no seed and is run once.

A side whose perfbench runs are all correct has ``"correct": true``.  The
``tier1`` section keeps each run's outcome counts from the pytest summary
line (``passed``, ``failed``, ...) and ``outcomes_no_worse``, true when no
pair has the change with fewer passed or more failed or errored tests than
the base; ``src_lines`` holds each side's line count under ``src/``, bytecode
skipped, so a size change comes from the same trees as the timings.
"""
import argparse
import compileall
import json
import os
import re
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# Pairs per workload and for Tier-1: the fewest from which a gain may be claimed.
PAIRS = 10
SIDES = ("base", "change")
# verdicts that a second, disjoint set of pairs must confirm
CLAIMS = ("gain", "regression")

# the Tier-1 command of ROADMAP.md, after the interpreter
TIER1 = ["-m", "pytest", "-q", "--continue-on-collection-errors"]
# the Tier-1 wall time's relative bound: its base IQR ran 8-12% of the median
# in BENCH_26 to BENCH_30
TIER1_BOUND = 0.10


def git(*args, cwd=ROOT) -> str:
    return subprocess.run(
        ["git", *args], cwd=cwd, check=True, capture_output=True, text=True
    ).stdout.strip()


def export(rev: str, dest: Path) -> Path:
    """The committed files of rev, extracted under dest, with src compiled."""
    dest.mkdir(parents=True)
    archive = subprocess.Popen(["git", "archive", rev], cwd=ROOT, stdout=subprocess.PIPE)
    subprocess.run(["tar", "-x", "-C", str(dest)], stdin=archive.stdout, check=True)
    archive.stdout.close()
    if archive.wait() != 0:
        raise SystemExit(f"git archive {rev} failed")
    compile_src(dest)
    return dest


def compile_src(root: Path) -> None:
    """Compile every module under root/src to bytecode in its ``__pycache__``."""
    if not compileall.compile_dir(root / "src", quiet=1):
        raise SystemExit(f"compileall failed under {root / 'src'}")


def src_lines(root: Path) -> int:
    """Lines of every file under root/src but bytecode, counted as ``wc -l`` counts them."""
    return sum(path.read_bytes().count(b"\n") for path in (root / "src").rglob("*")
               if path.is_file() and "__pycache__" not in path.relative_to(root).parts)


def run_once(root: Path, workload: str, seed: int, seconds: float) -> dict:
    """One ``perfbench/run.py --trace 0`` run; its JSON result line."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=root, capture_output=True, text=True,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"perfbench failed in {root} ({workload}, seed {seed}):\n{proc.stderr}")
    return json.loads(lines[-1])


def outcomes(stdout: str) -> dict:
    """Outcome counts of pytest's summary line, e.g. {"failed": 2, "passed": 366}."""
    for line in reversed(stdout.splitlines()):
        if re.search(r"\d+ (passed|failed|errors?)\b.* in ", line):
            return {word: int(n) for n, word in re.findall(r"(\d+) ([a-z]+)", line)}
    raise ValueError("no pytest summary line in the output")


def outcomes_no_worse(base: dict, change: dict) -> bool:
    """True when the change has no fewer passed and no more failed or errored tests."""
    fewer = change.get("passed", 0) < base.get("passed", 0)
    return not fewer and all(
        change.get(word, 0) <= base.get(word, 0) for word in ("failed", "error", "errors"))


def run_tier1(root: Path) -> dict:
    """One Tier-1 run in root: its wall time and outcome counts."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, ["src", os.environ.get("PYTHONPATH")]))}
    start = time.monotonic()
    proc = subprocess.run([sys.executable, *TIER1], cwd=root, env=env,
                          capture_output=True, text=True)
    wall_s = time.monotonic() - start
    try:
        counts = outcomes(proc.stdout)
    except ValueError:
        raise SystemExit(
            f"Tier-1 did not finish in {root}:\n{proc.stdout[-2000:]}{proc.stderr}"
        ) from None
    return {"wall_s": wall_s, "outcomes": counts}


def alternate(roots: dict, run, label: str):
    """PAIRS pairs of run(root, i), base first in even pairs; the pairs and who ran first."""
    runs, first = [], []
    for i in range(PAIRS):
        order = SIDES if i % 2 == 0 else SIDES[::-1]
        pair = {}
        for side in order:
            start = time.monotonic()
            pair[side] = run(roots[side], i)
            print(f"{label} pair {i} {side}: {time.monotonic() - start:.1f} s", flush=True)
        runs.append(pair)
        first.append(order[0])
    return runs, first


def workload_pairs(roots: dict, workload: str, seed: int, seconds: float, label: str):
    """PAIRS alternated perfbench pairs on seeds seed, seed + 1, ...; the runs, seeds and order."""
    runs, first = alternate(
        roots, lambda root, i: run_once(root, workload, seed + i, seconds), label)
    return runs, {"seeds": [seed + i for i in range(PAIRS)], "first": first}


def spread(values) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "iqr": q3 - q1, "runs": values}


def compare(runs, value, better="lower") -> dict:
    """Both sides' spread of value(run) over the pairs, and the pairs the change won."""
    base, change = (spread([value(pair[side]) for pair in runs]) for side in SIDES)
    sign = 1.0 if better == "lower" else -1.0
    wins = sum(sign * (c - b) < 0 for b, c in zip(base["runs"], change["runs"]))
    return {"better": better, "base": base, "change": change,
            "change_wins": wins, "pairs": len(runs)}


def verdict(entry: dict, bound: float) -> str:
    """gain, regression, unresolved or unchanged, for one compare() entry."""
    base, change = entry["base"], entry["change"]
    sign = 1.0 if entry["better"] == "lower" else -1.0
    gap = sign * (base["median"] - change["median"])  # > 0: the change is better
    if 10 * entry["change_wins"] >= 9 * len(base["runs"]) and gap > base["iqr"]:
        return "gain"
    if -gap > bound * abs(base["median"]):
        return "regression"
    separated = max(sign * c for c in change["runs"]) < min(sign * b for b in base["runs"])
    if base["iqr"] > bound * abs(base["median"]) and not separated:
        return "unresolved"
    return "unchanged"


def summarise(runs, metrics) -> dict:
    """Per-metric spreads, change wins and verdicts over one workload's pairs."""
    out = {}
    for metric in metrics:
        name = metric["name"]
        entry = compare(runs, lambda run: run["metrics"][name]["value"], metric["better"])
        out[name] = {**entry, "verdict": verdict(entry, metric["bound"])}
    return out


def confirm(summary: dict, second: dict) -> None:
    """Hold each claim of summary to second, the summary of a disjoint set of pairs.

    A gain or regression stands only when the second set gives the same
    verdict, else it becomes unresolved; the metric keeps the second set's
    entry and both verdicts.  Other verdicts are left as they are.
    """
    for name, entry in summary.items():
        if entry["verdict"] in CLAIMS:
            again = dict(second[name])
            entry["set_verdicts"] = [entry["verdict"], again.pop("verdict")]
            entry["second_set"] = again
            if entry["set_verdicts"][1] != entry["verdict"]:
                entry["verdict"] = "unresolved"


def out_path(text: str) -> Path:
    """--out, refused before any run when its directory does not exist."""
    path = Path(text)
    if not path.parent.is_dir():
        raise argparse.ArgumentTypeError(f"directory {path.parent} does not exist")
    return path


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", required=True, help="base git revision")
    parser.add_argument("--change", required=True, help="change git revision")
    parser.add_argument("--seed", required=True, type=int, help="seed of the first pair")
    parser.add_argument("--out", required=True, type=out_path)
    args = parser.parse_args(argv)

    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = benchmark["run_seconds"]
    revs = {side: {"rev": rev, "commit": git("rev-parse", rev)}
            for side, rev in zip(SIDES, (args.base, args.change))}
    report = {"command": f"perfbench/run.py --seconds {seconds} --trace 0",
              **revs, "pairs": PAIRS, "workloads": {}}
    with tempfile.TemporaryDirectory(prefix="bench_pairs_") as tmp:
        roots = {side: export(revs[side]["rev"], Path(tmp) / side) for side in SIDES}
        report["src_lines"] = {side: src_lines(roots[side]) for side in SIDES}
        for workload in (entry["name"] for entry in benchmark["workloads"]):
            runs, entry = workload_pairs(roots, workload, args.seed, seconds, workload)
            metrics = summarise(runs, benchmark["end_to_end"])
            if any(metric["verdict"] in CLAIMS for metric in metrics.values()):
                again, entry["second_set"] = workload_pairs(
                    roots, workload, args.seed + PAIRS, seconds, f"{workload} second set")
                confirm(metrics, summarise(again, benchmark["end_to_end"]))
                runs += again
            entry["correct"] = {side: all(pair[side]["correct"] for pair in runs)
                                for side in SIDES}
            entry["metrics"] = metrics
            report["workloads"][workload] = entry
        runs, first = alternate(roots, lambda root, i: run_tier1(root), "tier1")
    wall = compare(runs, lambda run: run["wall_s"])
    report["tier1"] = {
        "command": "PYTHONPATH=src python " + " ".join(TIER1),
        **revs,
        "first": first,
        "wall_s": {**wall, "verdict": verdict(wall, TIER1_BOUND)},
        "outcomes": {side: [pair[side]["outcomes"] for pair in runs] for side in SIDES},
        "outcomes_no_worse": all(
            outcomes_no_worse(pair["base"]["outcomes"], pair["change"]["outcomes"])
            for pair in runs),
    }
    args.out.write_text(json.dumps(report, indent=1) + "\n")
    for workload, entry in report["workloads"].items():
        print(f"{workload}: correct {entry['correct']}, " + ", ".join(
            f"{name} {m['verdict']} ({m['change_wins']}/{m['pairs']}" + (
                f"; sets {' and '.join(m['set_verdicts'])}, second "
                f"{m['second_set']['change_wins']}/{m['second_set']['pairs']}"
                if "second_set" in m else "") + ")"
            for name, m in entry["metrics"].items()))
    lines = report["src_lines"]
    print(f"src: {lines['base']} -> {lines['change']} lines "
          f"({lines['change'] - lines['base']:+d})")
    wall = report["tier1"]["wall_s"]
    print(f"tier1: wall_s {wall['base']['median']:.1f} -> {wall['change']['median']:.1f} s "
          f"{wall['verdict']} (change won {wall['change_wins']}/{wall['pairs']}), "
          f"outcomes no worse {report['tier1']['outcomes_no_worse']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
