"""Paired perfbench runs of a base revision against a change, as BENCH_<n>.json.

Usage, from the root of a checkout::

    python3 tools/bench_pairs.py --base c6d8b54 --change dc5a245 --seed 101 --out BENCH_11.json

Both revisions are exported with ``git archive`` into a temporary
directory.  For each workload in BENCHMARK.json the script runs ``PAIRS``
pairs of ``perfbench/run.py --trace 0``, one on each side, one process at a
time.  Pair i uses seed ``--seed`` + i, and the side that runs first
alternates from pair to pair, so drift on the host falls on both sides
alike.

For each end-to-end metric the output holds both sides' per-pair values,
their medians and interquartile ranges, the number of pairs the change
won (strictly better, in the direction BENCHMARK.json gives) and a verdict:

- ``gain``: the change won at least 9 pairs in 10 and the medians differ,
  in its favour, by more than the base's interquartile range;
- ``regression``: the change's median is worse than the base's by more
  than the metric's relative ``bound`` in BENCHMARK.json;
- ``unresolved``: the base's interquartile range is wider than the bound,
  and not every run of the change beats every run of the base;
- ``unchanged``: otherwise.

One summary row per workload is printed at the end.  A run that perfbench
reports as not correct is kept and marked; a side whose runs are all
correct has ``"correct": true``.
"""
import argparse
import json
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# Pairs per workload: the fewest from which a gain may be claimed.
PAIRS = 10


def git(*args, cwd=ROOT) -> str:
    return subprocess.run(
        ["git", *args], cwd=cwd, check=True, capture_output=True, text=True
    ).stdout.strip()


def export(rev: str, dest: Path) -> Path:
    """The committed files of rev, extracted under dest."""
    dest.mkdir(parents=True)
    archive = subprocess.Popen(["git", "archive", rev], cwd=ROOT, stdout=subprocess.PIPE)
    subprocess.run(["tar", "-x", "-C", str(dest)], stdin=archive.stdout, check=True)
    archive.stdout.close()
    if archive.wait() != 0:
        raise SystemExit(f"git archive {rev} failed")
    return dest


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


def spread(values) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "iqr": q3 - q1, "runs": values}


def verdict(base: dict, change: dict, wins: int, sign: float, bound: float) -> str:
    """gain, regression, unresolved or unchanged; sign is +1 where lower is better."""
    gap = sign * (base["median"] - change["median"])  # > 0: the change is better
    if 10 * wins >= 9 * len(base["runs"]) and gap > base["iqr"]:
        return "gain"
    if -gap > bound * abs(base["median"]):
        return "regression"
    separated = max(sign * c for c in change["runs"]) < min(sign * b for b in base["runs"])
    if base["iqr"] > bound * abs(base["median"]) and not separated:
        return "unresolved"
    return "unchanged"


def summarise(runs, metrics) -> dict:
    """Per-metric medians, IQRs, change wins and verdicts over one workload's pairs."""
    out = {}
    for metric in metrics:
        name, better = metric["name"], metric["better"]
        base = spread([pair["base"]["metrics"][name]["value"] for pair in runs])
        change = spread([pair["change"]["metrics"][name]["value"] for pair in runs])
        sign = 1.0 if better == "lower" else -1.0
        wins = sum(sign * (c - b) < 0 for b, c in zip(base["runs"], change["runs"]))
        out[name] = {
            "better": better,
            "base": base,
            "change": change,
            "change_wins": wins,
            "pairs": len(runs),
            "verdict": verdict(base, change, wins, sign, metric["bound"]),
        }
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", required=True, help="base git revision")
    parser.add_argument("--change", required=True, help="change git revision")
    parser.add_argument("--seed", required=True, type=int, help="seed of the first pair")
    parser.add_argument("--out", required=True, type=Path)
    args = parser.parse_args(argv)

    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = benchmark["run_seconds"]
    report = {
        "command": f"perfbench/run.py --seconds {seconds} --trace 0",
        "base": {"rev": args.base, "commit": git("rev-parse", args.base)},
        "change": {"rev": args.change, "commit": git("rev-parse", args.change)},
        "pairs": PAIRS,
        "workloads": {},
    }
    with tempfile.TemporaryDirectory(prefix="bench_pairs_") as tmp:
        roots = {side: export(rev, Path(tmp) / side)
                 for side, rev in (("base", args.base), ("change", args.change))}
        for workload in (entry["name"] for entry in benchmark["workloads"]):
            runs, seeds, first = [], [], []
            for i in range(PAIRS):
                seed = args.seed + i
                order = ("base", "change") if i % 2 == 0 else ("change", "base")
                pair = {}
                for side in order:
                    start = time.monotonic()
                    pair[side] = run_once(roots[side], workload, seed, seconds)
                    print(f"{workload} pair {i} seed {seed} {side}: "
                          f"wall_s {pair[side]['metrics']['wall_s']['value']:.4g} "
                          f"correct {pair[side]['correct']} "
                          f"({time.monotonic() - start:.0f} s)", flush=True)
                runs.append(pair)
                seeds.append(seed)
                first.append(order[0])
            report["workloads"][workload] = {
                "seeds": seeds,
                "first": first,
                "correct": {side: all(pair[side]["correct"] for pair in runs)
                            for side in ("base", "change")},
                "metrics": summarise(runs, benchmark["end_to_end"]),
            }
    args.out.write_text(json.dumps(report, indent=1) + "\n")
    for workload, entry in report["workloads"].items():
        print(f"{workload}: " + ", ".join(
            f"{name} {m['verdict']} ({m['change_wins']}/{m['pairs']})"
            for name, m in entry["metrics"].items()
        ))
    return 0


if __name__ == "__main__":
    sys.exit(main())
