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
their medians and interquartile ranges, and the number of pairs the change
won (strictly better, in the direction BENCHMARK.json gives).  A run that
perfbench reports as not correct is kept and marked; a side whose runs are
all correct has ``"correct": true``.
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


def summarise(runs, directions) -> dict:
    """Per-metric medians, IQRs and change wins over the pairs of one workload."""
    out = {}
    for name, better in directions.items():
        base = [pair["base"]["metrics"][name]["value"] for pair in runs]
        change = [pair["change"]["metrics"][name]["value"] for pair in runs]
        sign = 1.0 if better == "lower" else -1.0
        wins = sum(sign * (c - b) < 0 for b, c in zip(base, change))
        out[name] = {
            "better": better,
            "base": spread(base),
            "change": spread(change),
            "change_wins": wins,
            "pairs": len(runs),
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
    directions = {metric["name"]: metric["better"] for metric in benchmark["end_to_end"]}
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
                "metrics": summarise(runs, directions),
            }
    args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
