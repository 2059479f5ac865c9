"""Show that the benchmark's checks reject wrong outputs.

Usage, from the root of a checkout::

    python3 perfbench/selftest.py

Produces a real ``results.csv`` (a small two-grid simulate), a real
``allocate`` and a real ``estimate`` output, confirms the checks accept
them, then corrupts each one in several ways and confirms every corrupted
copy is rejected.  It also confirms that BENCHMARK.json names exactly the
metrics run.py prints.  Exits 1 if any expectation fails.
"""
import csv
import io
import json
import shutil
import sys
import time

import checks
import run
import workloads

SMALL = {**workloads.TWO_GRID, "n_paths": "400", "n_resamples": "200"}


def rows_of(text):
    return list(csv.reader(io.StringIO(text)))


def text_of(rows):
    out = io.StringIO()
    csv.writer(out).writerows(rows)
    return out.getvalue()


def find(rows, t, metric):
    return next(i for i, r in enumerate(rows) if r[0] == t and r[1] == metric)


def corrupt_results(rows):
    """(description, corrupted rows) pairs; each must fail the check."""
    out = []

    def edit(description, fn):
        copy = [list(r) for r in rows]
        fn(copy)
        out.append((description, copy))

    edit("row missing", lambda r: r.pop(find(r, "1", "v_ces")))
    edit("row duplicated", lambda r: r.append(list(r[find(r, "2", "b_tes")])))
    edit("mean not a number", lambda r: r[find(r, "3", "b_ces")].__setitem__(3, "nan"))

    def swap_ci(r):
        i = find(r, "2", "b_tes")
        r[i][4], r[i][5] = r[i][5], r[i][4]

    edit("CI bounds swapped", swap_ci)
    edit("mean above ci_hi", lambda r: r[find(r, "4", "v_tes")].__setitem__(
        3, repr(float(r[find(r, "4", "v_tes")][5]) + 0.5)))
    edit("t=0 CI not degenerate", lambda r: r[find(r, "0", "b_tes")].__setitem__(
        5, repr(float(r[find(r, "0", "b_tes")][5]) + 0.01)))

    def pooled_above_per_grid(r):
        i = find(r, "1", "v_tes")
        high = float(r[find(r, "1", "v_ces")][3]) * 1.1
        r[i][3:6] = [repr(high), repr(high - 1.0), repr(high + 1.0)]

    edit("v_tes mean above v_ces", pooled_above_per_grid)
    edit("wrong case label", lambda r: r[find(r, "5", "b_tes")].__setitem__(2, "all"))
    edit("pg mean off by 1e-5", lambda r: r[find(r, "2", "pg_mean_1")].__setitem__(
        3, repr(float(r[find(r, "2", "pg_mean_1")][3]) * (1 + 1e-5))))
    return out


def pinned_from(rows, scenario):
    table = {(r[0], r[1]): float(r[3]) for r in rows[1:]}
    return {key: table[tuple(key.split("|"))] for key in checks.pinned_mean_keys(scenario)}


class Expectations:
    def __init__(self):
        self.failed = 0

    def expect(self, ok, what):
        print(f"{'PASS' if ok else 'FAIL'}\t{what}")
        self.failed += not ok


def main():
    workdir = run.WORK / "selftest"
    shutil.rmtree(workdir, ignore_errors=True)
    inputs = workloads.write_inputs(workdir, workloads.DEFAULT_SEED)
    reference = checks.load_reference()
    runner = run.Runner(time.monotonic() + 300.0)
    ex = Expectations()

    config = workdir / "small.cfg"
    small = workloads.write_config(config, "small", SMALL, 7)
    out_dir = workdir / "small_out"
    command = workloads.Command("simulate", ("simulate", str(config), "--out", str(out_dir)), small)
    outcome = runner.gridhedge(command, out_dir)
    ex.expect(outcome.returncode == 0, "small simulate ran")
    results = out_dir / "results.csv"
    rows = rows_of(results.read_text())
    pinned = pinned_from(rows, small)
    clean = checks.check_results_csv(results, small, pinned)
    ex.expect(not clean, f"clean results.csv accepted {clean[:2]}")
    for description, bad in corrupt_results(rows):
        path = workdir / "corrupt.csv"
        path.write_text(text_of(bad))
        errors = checks.check_results_csv(path, small, pinned)
        ex.expect(bool(errors), f"results.csv rejected: {description} -> {errors[:1]}")
    ex.expect(bool(checks.check_results_csv(workdir / "missing.csv", small, None)),
              "results.csv rejected: file missing")

    for command in workloads.cycle("cli_calls", inputs, workdir):
        if command.kind not in ("allocate_ces", "estimate"):
            continue
        outcome = runner.gridhedge(command, workdir)
        good = checks.check_command(command, 0, outcome.stdout, workdir, inputs, reference)
        ex.expect(not good, f"clean {command.kind} accepted {good[:2]}")
        lines = outcome.stdout.splitlines()
        target = "total_portfolio_kw" if command.kind == "allocate_ces" else "sigma_per_rth"
        i = next(i for i, line in enumerate(lines) if line.startswith(target))
        key, _, value = lines[i].partition("=")
        wrong = float(value) * (1 + 1e-4) + 1e-5
        bad_stdout = "\n".join(lines[:i] + [f"{key}= {wrong:.6g}"] + lines[i + 1:]) + "\n"
        errors = checks.check_command(command, 0, bad_stdout, workdir, inputs, reference)
        ex.expect(bool(errors), f"{command.kind} rejected: wrong {key.strip()} -> {errors[:1]}")
        dropped = "\n".join(lines[:i] + lines[i + 1:]) + "\n"
        errors = checks.check_command(command, 0, dropped, workdir, inputs, reference)
        ex.expect(bool(errors), f"{command.kind} rejected: line missing -> {errors[:1]}")
        errors = checks.check_command(command, 1, outcome.stdout, workdir, inputs, reference)
        ex.expect(bool(errors), f"{command.kind} rejected: non-zero exit")

    with open(run.ROOT / "BENCHMARK.json") as handle:
        spec = json.load(handle)
    ex.expect([(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END),
              "BENCHMARK.json end_to_end matches run.py")
    ex.expect([(m["name"], m["unit"]) for m in spec["per_layer"]]
              == [(name, unit) for name, unit, _ in run.PER_LAYER],
              "BENCHMARK.json per_layer matches run.py")
    ex.expect([w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS),
              "BENCHMARK.json workloads match workloads.py")
    print(f"{ex.failed} expectation(s) failed")
    return 1 if ex.failed else 0


if __name__ == "__main__":
    sys.exit(main())
