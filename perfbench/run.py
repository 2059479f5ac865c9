"""gridhedge benchmark: end-to-end and per-layer timings of the public CLI.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload case_study --seed 1 --seconds 20 --trace 0

Workloads (see workloads.py and README.md):

* ``case_study``   - one ``simulate`` of the README two-grid case study;
  the bootstrap dominates.
* ``deep_lattice`` - one ``simulate`` of a three-grid, 20-step fleet; the
  batched pooled lattice dominates.
* ``cli_calls``    - a closed loop, one client, of short fresh-process
  ``allocate`` and ``estimate`` commands; start-up and import dominate.

Every input is generated from ``--seed``.  Commands run one at a time as
fresh ``python -m gridhedge`` processes with ``src`` on PYTHONPATH, after
one untimed warm-up process.  A run measures whole workload cycles until
the next one would overrun ``--seconds``, and at least the workload's
minimum.  Every output is checked; a command that fails or prints a wrong
output counts as failed.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` alternates
untraced cycles with traced ones, which run each command through
``traced.py`` (the same command in-process through ``gridhedge.cli.main``,
with spans around each layer), and prints the per-layer metrics.  The last
line of stdout is the JSON result.
"""
import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import checks
import workloads
from workloads import Command

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
TRACED = Path(__file__).with_name("traced.py")

SETUP_REPEATS = 3
TRACED_CYCLES = 2
IMPORTTIME_REPEATS = 3
# The run must end within 180 s; no command is started past this budget.
RUN_BUDGET_S = 165.0
MAX_K = 20

clock = time.monotonic

END_TO_END = (
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("cmd_p50_s", "s"),
    ("success_rate", "ratio"),
)

# Span name -> per-layer metric that receives the span's self time.
SELF_METRIC = {
    "bench.cycle": "trace.gaps_s",
    "cli.process": "cli.interpreter_s",
    "cli.import": "cli.import_s",
    "cli.main": "cli.main_s",
    "config.load": "config.load_s",
    "config.write_manifest": "scenario.write_s",
    "scenario.write_results": "scenario.write_s",
    "scenario.run": "scenario.self_s",
    "scenario.collect": "scenario.collect_s",
    "gbm.simulate": "gbm.simulate_s",
    "gbm.mle": "gbm.mle_s",
    "gbm.gof": "gbm.gof_s",
    "timeseries.load": "timeseries.load_s",
    "ces.batch": "ces.batch_s",
    "ces.allocation": "ces.allocation_s",
    "lattice.calibrate": "lattice.calibrate_s",
    "lattice.allocate": "lattice.allocate_s",
    "lattice.dynamic_allocation": "lattice.dynamic_allocation_s",
    "stats.bootstrap": "stats.bootstrap_s",
}
K_METRICS = [f"lattice.allocate_s.k{k:02d}" for k in range(MAX_K + 1)]

# (metric, unit, how it is obtained).  "self": summed self time per traced
# cycle; "latency": median traced process wall per command kind;
# "computed": derived from span arguments, not counted by the program.
PER_LAYER = (
    ("cli.import_s", "s", "self"),
    ("cli.import_scipy_stats_s", "s", "python -X importtime, cumulative"),
    ("cli.interpreter_s", "s", "self: interpreter start-up and exit"),
    ("cli.main_s", "s", "self"),
    ("cli.allocate_ces_s", "s", "latency"),
    ("cli.allocate_tes_s", "s", "latency"),
    ("cli.estimate_s", "s", "latency"),
    ("config.load_s", "s", "self"),
    ("gbm.simulate_s", "s", "self"),
    ("gbm.paths_simulated", "count", "computed"),
    ("gbm.mle_s", "s", "self"),
    ("gbm.gof_s", "s", "self"),
    ("timeseries.load_s", "s", "self"),
    ("scenario.self_s", "s", "self"),
    ("scenario.collect_s", "s", "self"),
    ("scenario.filter_accept_ratio", "ratio", "matched the case filter / simulated"),
    ("scenario.write_s", "s", "self"),
    ("ces.batch_s", "s", "self"),
    ("ces.batch_calls", "count", "counted"),
    ("ces.allocation_s", "s", "self"),
    ("lattice.calibrate_s", "s", "self"),
    ("lattice.calibrate_calls", "count", "counted"),
    ("lattice.allocate_s", "s", "self"),
    *((name, "s", "self, by remaining steps") for name in K_METRICS),
    ("lattice.dynamic_allocation_s", "s", "self"),
    ("lattice.nodes", "count", "computed"),
    ("lattice.terminal_bytes_max", "B", "computed"),
    ("stats.bootstrap_s", "s", "self"),
    ("stats.resample_draws", "count", "computed"),
    ("trace.wall_s", "s", "traced cycle wall"),
    ("trace.overhead_s", "s", "traced minus untraced cycle wall"),
    ("trace.gaps_s", "s", "self: gaps between commands"),
    ("trace.spans", "count", "counted"),
)
COUNT_METRICS = (
    "gbm.paths_simulated",
    "ces.batch_calls",
    "lattice.calibrate_calls",
    "lattice.nodes",
    "lattice.terminal_bytes_max",
    "stats.resample_draws",
    "trace.spans",
)
LATENCY_KINDS = {
    "cli.allocate_ces_s": "allocate_ces",
    "cli.allocate_tes_s": "allocate_tes",
    "cli.estimate_s": "estimate",
}
# Metric -> span names it is measured from; absent if any wrap target is.
DEPENDS = {
    **{metric: [span for span, m in SELF_METRIC.items() if m == metric]
       for metric in set(SELF_METRIC.values())},
    **{name: ["lattice.allocate"] for name in K_METRICS},
    "gbm.paths_simulated": ["gbm.simulate"],
    "scenario.filter_accept_ratio": ["gbm.simulate", "scenario.collect"],
    "ces.batch_calls": ["ces.batch"],
    "lattice.calibrate_calls": ["lattice.calibrate"],
    "lattice.nodes": ["lattice.allocate", "lattice.dynamic_allocation"],
    "lattice.terminal_bytes_max": ["lattice.allocate", "lattice.dynamic_allocation"],
    "stats.resample_draws": ["stats.bootstrap"],
}

FACTS_SNIPPET = r"""
import ctypes, json, os, platform, sys
import gridhedge, gridhedge.cli, numpy, scipy

def blas_threads():
    try:
        with open("/proc/self/maps") as maps:
            libs = sorted({l.split()[-1] for l in maps if "openblas" in l.lower()})
    except OSError:
        return None
    for path in libs:
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None

try:
    blas = numpy.__config__.CONFIG["Build Dependencies"]["blas"]
    blas = f"{blas['name']} {blas['version']}"
except (AttributeError, KeyError, TypeError):
    blas = None
print(json.dumps({
    "nproc": len(os.sched_getaffinity(0)),
    "cpu_count": os.cpu_count(),
    "machine": platform.machine(),
    "python": platform.python_version(),
    "numpy": numpy.__version__,
    "scipy": scipy.__version__,
    "blas": blas,
    "blas_threads": blas_threads(),
    "thread_env": {k: v for k, v in os.environ.items()
                   if k.endswith("_NUM_THREADS") or k == "OMP_THREAD_LIMIT"},
    "gridhedge": gridhedge.__version__,
    "gridhedge_file": gridhedge.__file__,
}))
"""


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


@dataclass
class Outcome:
    command: Command
    start: float
    end: float
    returncode: "int | None"
    stdout: str
    stderr: str
    out_dir: Path
    spans_path: "Path | None" = None

    @property
    def seconds(self):
        return self.end - self.start


@dataclass
class Tally:
    attempted: int = 0
    failures: list = field(default_factory=list)

    def record(self, label, errors):
        self.attempted += 1
        if errors:
            self.failures.append((label, errors))

    def extra_failure(self, label, error):
        """A failed check that is not a command's output; it counts as attempted too."""
        self.record(label, [error])


class Runner:
    """Launches commands one at a time as fresh processes, under a budget."""

    def __init__(self, deadline):
        self.deadline = deadline
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(SRC), os.environ.get("PYTHONPATH", "")) if p
        )
        self.env = env

    def launch(self, argv, command, out_dir, spans_path=None):
        start = clock()
        try:
            proc = subprocess.run(
                argv, cwd=ROOT, env=self.env, capture_output=True, text=True,
                timeout=max(1.0, self.deadline - start),
            )
            code, out, err = proc.returncode, proc.stdout, proc.stderr
        except subprocess.TimeoutExpired:
            code, out, err = None, "", "killed: run budget exhausted"
        return Outcome(command, start, clock(), code, out, err, out_dir, spans_path)

    def gridhedge(self, command, out_dir):
        return self.launch([sys.executable, "-m", "gridhedge", *command.args], command, out_dir)

    def traced(self, command, out_dir, spans_path, run_id):
        argv = [sys.executable, str(TRACED), str(spans_path), run_id, "--", *command.args]
        return self.launch(argv, command, out_dir, spans_path)

    def python(self, *args):
        return self.launch([sys.executable, *args], Command("python", args), ROOT)


def warm_up(runner):
    """Untimed first process: reads cold files, checks the import, reports facts."""
    outcome = runner.python("-c", FACTS_SNIPPET)
    if outcome.returncode != 0:
        raise BenchError(f"gridhedge does not import from {SRC}:\n{outcome.stderr.strip()}")
    facts = json.loads(outcome.stdout)
    if Path(facts["gridhedge_file"]).resolve().parent.parent != SRC.resolve():
        raise BenchError(f"imported gridhedge from {facts['gridhedge_file']}, not {SRC}")
    return facts


def run_cycle(workload, inputs, out_dir, launch):
    """One run of the workload: its commands in order, each a fresh process."""
    commands = workloads.cycle(workload, inputs, out_dir)
    return [launch(command, out_dir, i) for i, command in enumerate(commands)]


def budget_allows(runner, cycles, tally, wanted, ahead=1):
    """Whether ``ahead`` more cycles fit in the run budget.

    Running out of budget before ``wanted`` cycles is a failure.
    """
    if cycles and clock() + ahead * cycle_wall(cycles[-1]) > runner.deadline:
        if len(cycles) < wanted:
            tally.extra_failure("budget", f"run budget allows only {len(cycles)} of {wanted} cycles")
        return False
    return True


def check_cycles(cycles, inputs, reference, tally):
    for cycle in cycles:
        for outcome in cycle:
            errors = checks.check_command(
                outcome.command, outcome.returncode, outcome.stdout, outcome.out_dir,
                inputs, reference,
            )
            if errors and outcome.stderr:
                errors.append(outcome.stderr.strip().splitlines()[-1])
            command = outcome.command
            tally.record(" ".join(filter(None, (command.kind, command.reference))), errors)


def cycle_wall(cycle):
    return cycle[-1].end - cycle[0].start


def measure_end_to_end(workload, seconds, inputs, workdir, runner, reference, tally):
    """Whole cycles until the next would overrun ``seconds``, at least the minimum.

    The set-up samples are spread over the run (one before each cycle, the
    rest after the last) so that their median does not rest on one moment
    of a machine whose speed drifts.
    """
    version = Command("version", ("--version",))
    min_cycles = workloads.MIN_CYCLES[workload]
    setup, cycles = [], []
    begin = clock()
    while budget_allows(runner, cycles, tally, min_cycles):
        if len(setup) < SETUP_REPEATS:
            setup.append(runner.gridhedge(version, ROOT))
        cycles.append(run_cycle(workload, inputs, workdir / f"run{len(cycles)}",
                                lambda c, out, _i: runner.gridhedge(c, out)))
        typical = statistics.fmean(cycle_wall(c) for c in cycles)
        if len(cycles) >= min_cycles and clock() - begin + typical > seconds:
            break
    while len(setup) < SETUP_REPEATS:
        setup.append(runner.gridhedge(version, ROOT))
    check_cycles([setup, *cycles], inputs, reference, tally)
    return {
        "wall_s": statistics.median(cycle_wall(c) for c in cycles),
        "setup_s": statistics.median(o.seconds for o in setup),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0,
        "cmd_p50_s": statistics.median(o.seconds for c in cycles for o in c),
        "success_rate": 1.0 - len(tally.failures) / tally.attempted,
    }, {"cycles": len(cycles), "commands": sum(len(c) for c in cycles)}


def scipy_stats_import_s(runner):
    """Cumulative ``scipy.stats`` import time of ``import gridhedge.cli``; 0 if not imported."""
    outcome = runner.python("-X", "importtime", "-c", "import gridhedge.cli")
    if outcome.returncode != 0:
        return None
    for line in outcome.stderr.splitlines():
        fields = line.split("|")
        if len(fields) == 3 and fields[2].strip() == "scipy.stats":
            return int(fields[1]) / 1e6
    return 0.0


def cycle_spans(cycle, run_id, tally):
    """Spans of this process for one traced cycle, with each command's spans nested."""
    spans = [{"id": 0, "name": "bench.cycle", "start": cycle[0].start, "end": cycle[-1].end,
              "parent": None, "run_id": run_id, "attrs": None}]
    absent = set()
    for outcome in cycle:
        process = len(spans)
        spans.append({"id": process, "name": "cli.process", "start": outcome.start,
                      "end": outcome.end, "parent": 0, "run_id": run_id,
                      "attrs": {"kind": outcome.command.kind}})
        try:
            with open(outcome.spans_path) as handle:
                child = json.load(handle)
        except (OSError, ValueError):
            tally.extra_failure(outcome.command.kind, "traced process wrote no spans")
            continue
        absent.update(child["absent"])
        base = len(spans)
        for name, start, end, parent, attrs in child["spans"]:
            if not outcome.start <= start <= end <= outcome.end:
                tally.extra_failure(name, "span lies outside its process span")
            spans.append({"id": len(spans), "name": name, "start": start, "end": end,
                          "parent": process if parent is None else base + parent,
                          "run_id": run_id, "attrs": attrs})
    child_time = [0.0] * len(spans)
    for span in spans:
        if span["parent"] is not None:
            child_time[span["parent"]] += span["end"] - span["start"]
    for span in spans:
        span["self"] = span["end"] - span["start"] - child_time[span["id"]]
    return spans, absent


def lattice_nodes(attrs):
    m, n, k = attrs["m"], attrs["n"], attrs["k"]
    return m * sum((level + 1) ** n for level in range(k + 1))


def layer_values(spans):
    """Per-layer self times and counts of one traced cycle."""
    values = {metric: 0.0 for metric in set(SELF_METRIC.values()) | set(K_METRICS)}
    counts = dict.fromkeys(COUNT_METRICS, 0)
    accepted = 0
    nodes_max = 0
    for span in spans:
        name, attrs = span["name"], span["attrs"] or {}
        if name in SELF_METRIC:
            values[SELF_METRIC[name]] += span["self"]
        if name == "lattice.allocate" and attrs.get("k", MAX_K + 1) <= MAX_K:
            values[f"lattice.allocate_s.k{attrs['k']:02d}"] += span["self"]
        if name in ("lattice.allocate", "lattice.dynamic_allocation"):
            counts["lattice.nodes"] += lattice_nodes(attrs)
            nodes_max = max(nodes_max, attrs["m"] * (attrs["k"] + 1) ** attrs["n"] * 8)
        counts["gbm.paths_simulated"] += attrs.get("paths", 0)
        counts["stats.resample_draws"] += attrs.get("draws", 0)
        accepted += attrs.get("accepted", 0)
        counts["ces.batch_calls"] += name == "ces.batch"
        counts["lattice.calibrate_calls"] += name == "lattice.calibrate"
    counts["lattice.terminal_bytes_max"] = nodes_max
    counts["trace.spans"] = len(spans)
    simulated = counts["gbm.paths_simulated"]
    values["scenario.filter_accept_ratio"] = accepted / simulated if simulated else 0.0
    return values, counts


def measure_per_layer(workload, inputs, workdir, runner, reference, tally, run_tag):
    """Alternating untraced and traced cycles; per-layer values from the traced ones."""
    untraced, traced = [], []
    while len(traced) < TRACED_CYCLES and budget_allows(
            runner, [c for _, c in traced], tally, TRACED_CYCLES, ahead=2):
        index = len(traced)
        untraced.append(run_cycle(workload, inputs, workdir / f"untraced{index}",
                                  lambda c, out, _i: runner.gridhedge(c, out)))
        run_id = f"{run_tag}-cycle{index}"
        spans_dir = workdir / f"spans{index}"
        spans_dir.mkdir(parents=True, exist_ok=True)
        traced.append((run_id, run_cycle(
            workload, inputs, workdir / f"traced{index}",
            lambda c, out, i: runner.traced(c, out, spans_dir / f"cmd{i}.json", run_id),
        )))
    check_cycles(untraced + [cycle for _, cycle in traced], inputs, reference, tally)
    importtime = [scipy_stats_import_s(runner) for _ in range(IMPORTTIME_REPEATS)]

    all_spans, absent, per_cycle = [], set(), []
    for run_id, cycle in traced:
        spans, missing = cycle_spans(cycle, run_id, tally)
        all_spans.extend(spans)
        absent |= missing
        per_cycle.append(layer_values(spans))
    for name in COUNT_METRICS:
        seen = {counts[name] for _, counts in per_cycle}
        if len(seen) != 1:
            tally.extra_failure(name, f"count differs across traced cycles: {sorted(seen)}")

    metrics = {}
    for name, _unit, _how in PER_LAYER:
        if name in COUNT_METRICS:
            metrics[name] = per_cycle[0][1][name]
        elif name in LATENCY_KINDS:
            walls = [o.seconds for _, c in traced for o in c if o.command.kind == LATENCY_KINDS[name]]
            metrics[name] = statistics.median(walls) if walls else 0.0
        elif name in per_cycle[0][0]:
            metrics[name] = statistics.fmean(values[name] for values, _ in per_cycle)
    metrics["cli.import_scipy_stats_s"] = (
        None if None in importtime else statistics.median(importtime)
    )
    traced_wall = statistics.fmean(cycle_wall(c) for _, c in traced)
    metrics["trace.wall_s"] = traced_wall
    metrics["trace.overhead_s"] = traced_wall - statistics.fmean(cycle_wall(c) for c in untraced)
    self_sum = sum(metrics[m] for m in set(SELF_METRIC.values()))
    for name, spans_needed in DEPENDS.items():
        if absent.intersection(spans_needed):
            metrics[name] = None
    if abs(self_sum - traced_wall) > abs(metrics["trace.overhead_s"]) + 1e-6:
        tally.extra_failure("trace", f"self times sum to {self_sum}, traced wall {traced_wall}")
    details = {"absent": sorted(absent), "spans": all_spans, "self_time_sum_s": self_sum}
    return metrics, details


def render(metrics, units, how):
    lines = []
    for name, value in metrics.items():
        shown = "absent" if value is None else f"{value:.6g}"
        lines.append(f"  {name:<34} {shown:>14} {units[name]:<6} {how.get(name, '')}".rstrip())
    return "\n".join(lines)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "gridhedge" / "__init__.py").is_file():
        raise BenchError(f"no gridhedge sources under {SRC}")
    runner = Runner(clock() + RUN_BUDGET_S)
    run_tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = WORK / run_tag
    shutil.rmtree(workdir, ignore_errors=True)
    inputs = workloads.write_inputs(workdir, args.seed)
    reference = checks.load_reference()
    facts = warm_up(runner)
    tally = Tally()
    if args.trace:
        metrics, details = measure_per_layer(
            args.workload, inputs, workdir, runner, reference, tally, run_tag)
        units = {name: unit for name, unit, _ in PER_LAYER}
        how = {name: text for name, _, text in PER_LAYER}
    else:
        metrics, details = measure_end_to_end(
            args.workload, args.seconds, inputs, workdir, runner, reference, tally)
        units = dict(END_TO_END)
        how = {}
    result = {
        "correct": not tally.failures,
        "attempted": tally.attempted,
        "failed": len(tally.failures),
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    with open(workdir / "result.json", "w") as handle:
        json.dump({"result": result, "facts": facts, "how": how,
                   "failures": tally.failures, **details}, handle)
    for label, errors in tally.failures:
        print(f"FAILED {label}: {'; '.join(errors[:3])}", file=sys.stderr)
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"details {workdir.relative_to(ROOT) / 'result.json'}")
    print(render({name: metrics[name] for name in units}, units, how))
    print("machine " + json.dumps(facts, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        sys.exit(2)
