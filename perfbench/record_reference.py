"""Record reference.json: the outputs the benchmark's checks pin.

Usage, from the root of a checkout::

    python3 perfbench/record_reference.py

Runs every allocate command of ``cli_calls`` (their outputs do not depend on
the seed), and ``estimate`` and both ``simulate`` configs at
``DEFAULT_SEED``, then writes the parsed values.  Re-record only when a
change is meant to alter these outputs, and say so where the change is
described.
"""
import csv
import json
import shutil
import sys
import time

import checks
import workloads
from run import WORK, BenchError, Runner


def main():
    workdir = WORK / "record_reference"
    shutil.rmtree(workdir, ignore_errors=True)
    inputs = workloads.write_inputs(workdir, workloads.DEFAULT_SEED)
    runner = Runner(time.monotonic() + 600.0)
    reference = {"allocate": {}, "estimate": None, "results_means": {}}
    for command in workloads.cycle("cli_calls", inputs, workdir):
        outcome = runner.gridhedge(command, workdir)
        if outcome.returncode != 0:
            raise BenchError(f"{command.args} failed:\n{outcome.stderr}")
        values = {k: float(v) for k, v in checks.parse_output(outcome.stdout).items()}
        if command.reference:
            reference["allocate"][command.reference] = values
        else:
            reference["estimate"] = values
    for workload in ("case_study", "deep_lattice"):
        out_dir = workdir / workload
        (command,) = workloads.cycle(workload, inputs, out_dir)
        outcome = runner.gridhedge(command, out_dir)
        if outcome.returncode != 0:
            raise BenchError(f"{command.args} failed:\n{outcome.stderr}")
        with open(out_dir / "results.csv", newline="") as handle:
            rows = {(r[0], r[1]): float(r[3]) for r in list(csv.reader(handle))[1:]}
        keys = checks.pinned_mean_keys(command.scenario)
        reference["results_means"][command.scenario.name] = {
            key: rows[tuple(key.split("|"))] for key in keys
        }
    with open(checks.REFERENCE_PATH, "w") as handle:
        json.dump(reference, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"wrote {checks.REFERENCE_PATH}")


if __name__ == "__main__":
    try:
        main()
    except BenchError as exc:
        print(f"record_reference: {exc}", file=sys.stderr)
        sys.exit(2)
