"""Paired Tier-1 wall times of a base revision against a change, into BENCH_<n>.json.

Usage, from the root of a checkout, after ``tools/bench_pairs.py`` wrote
the file::

    python3 tools/tier1_pairs.py --base 775410c --change HEAD --out BENCH_19.json

Both revisions are exported with ``git archive``.  For ``PAIRS`` pairs the
script runs the Tier-1 command of ROADMAP.md in each tree, one process at a
time, and the side that runs first alternates from pair to pair.  It adds a
``tier1`` section to ``--out``, keeping what the file already holds: each
run's wall time, both sides' medians and interquartile ranges, the number
of pairs the change won (strictly faster) and each run's outcome counts
from the pytest summary line (``passed``, ``failed``, ...).
"""
import argparse
import json
import os
import re
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from bench_pairs import PAIRS, export, git, spread

# the Tier-1 command of ROADMAP.md, after the interpreter
COMMAND = ["-m", "pytest", "-q", "--continue-on-collection-errors"]
SIDES = ("base", "change")


def outcomes(stdout: str) -> dict:
    """Outcome counts of pytest's summary line, e.g. {"failed": 2, "passed": 366}."""
    for line in reversed(stdout.splitlines()):
        if re.search(r"\d+ (passed|failed|errors?)\b.* in ", line):
            return {word: int(n) for n, word in re.findall(r"(\d+) ([a-z]+)", line)}
    raise ValueError("no pytest summary line in the output")


def run_once(root: Path) -> dict:
    """One Tier-1 run in root: its wall time and outcome counts."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, ["src", os.environ.get("PYTHONPATH")]))}
    start = time.monotonic()
    proc = subprocess.run([sys.executable, *COMMAND], cwd=root, env=env,
                          capture_output=True, text=True)
    wall_s = time.monotonic() - start
    try:
        counts = outcomes(proc.stdout)
    except ValueError:
        raise SystemExit(
            f"Tier-1 did not finish in {root}:\n{proc.stdout[-2000:]}{proc.stderr}"
        ) from None
    return {"wall_s": wall_s, "outcomes": counts}


def summarise(runs) -> dict:
    """Both sides' wall-time spread, the change's wins and each run's outcomes."""
    wall = {side: spread([pair[side]["wall_s"] for pair in runs]) for side in SIDES}
    wins = sum(c < b for b, c in zip(wall["base"]["runs"], wall["change"]["runs"]))
    return {
        "wall_s": {**wall, "better": "lower", "change_wins": wins, "pairs": len(runs)},
        "outcomes": {side: [pair[side]["outcomes"] for pair in runs] for side in SIDES},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", required=True, help="base git revision")
    parser.add_argument("--change", required=True, help="change git revision")
    parser.add_argument("--out", required=True, type=Path, help="BENCH_<n>.json to extend")
    args = parser.parse_args(argv)

    revs = {"base": args.base, "change": args.change}
    runs, first = [], []
    with tempfile.TemporaryDirectory(prefix="tier1_pairs_") as tmp:
        roots = {side: export(rev, Path(tmp) / side) for side, rev in revs.items()}
        for i in range(PAIRS):
            order = SIDES if i % 2 == 0 else SIDES[::-1]
            pair = {}
            for side in order:
                pair[side] = run_once(roots[side])
                print(f"tier1 pair {i} {side}: {pair[side]['wall_s']:.1f} s "
                      f"{pair[side]['outcomes']}", flush=True)
            runs.append(pair)
            first.append(order[0])
    report = json.loads(args.out.read_text()) if args.out.exists() else {}
    report["tier1"] = {
        "command": "PYTHONPATH=src python " + " ".join(COMMAND),
        **{side: {"rev": rev, "commit": git("rev-parse", rev)} for side, rev in revs.items()},
        "first": first,
        **summarise(runs),
    }
    args.out.write_text(json.dumps(report, indent=1) + "\n")
    wall = report["tier1"]["wall_s"]
    print(f"tier1: wall_s {wall['base']['median']:.1f} -> {wall['change']['median']:.1f} s "
          f"(change won {wall['change_wins']}/{wall['pairs']})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
