"""Run one gridhedge CLI command in-process, with a span around each layer.

Usage (from the checkout root, with ``src`` on PYTHONPATH)::

    python3 perfbench/traced.py SPANS.json RUN_ID -- <gridhedge arguments>

Spans wrap the names that ``gridhedge.cli`` and ``gridhedge.scenario`` look
up at call time, so the library itself is untouched.  Spans are kept in
memory and written to SPANS.json when the command ends.  A wrap target that
no longer exists is listed as absent; the benchmark then reports its layer
as absent rather than as zero.  Timestamps come from ``time.monotonic``,
the same clock run.py uses, so run.py can nest these spans under its own
process span.
"""
import functools
import inspect
import json
import sys
import time

clock = time.monotonic


def _bound(fn, args, kwargs):
    return inspect.signature(fn).bind(*args, **kwargs).arguments


def _simulate_attrs(fn, args, kwargs, result):
    return {"paths": int(_bound(fn, args, kwargs)["n_paths"])}


def _collect_attrs(fn, args, kwargs, result):
    """Paths that matched the case filter among all simulated (before truncation)."""
    case = _bound(fn, args, kwargs)["config"].case_filter
    counts = result[1]
    return {"accepted": counts.get(",".join(case), 0) if case else sum(counts.values())}


def _batch_allocate_attrs(fn, args, kwargs, result):
    bound = _bound(fn, args, kwargs)
    m, n = bound["pg"].shape
    return {"k": int(bound["steps"]), "m": int(m), "n": int(n)}


def _dynamic_allocation_attrs(fn, args, kwargs, result):
    bound = _bound(fn, args, kwargs)
    return {"k": int(bound["remaining_steps"]), "m": 1, "n": len(bound["pg_now"])}


def _bootstrap_attrs(fn, args, kwargs, result):
    bound = _bound(fn, args, kwargs)
    m = len(next(iter(bound["samples"].values())))
    return {"draws": int(bound["n_resamples"]) * m}


# (span name, modules whose global is looked up by the caller, attribute
# path inside those modules, function deriving span attributes or None)
TARGETS = (
    ("config.load", ("cli",), "load_scenario_config", None),
    ("config.write_manifest", ("cli",), "write_manifest", None),
    ("scenario.run", ("cli",), "run_case_study", None),
    ("scenario.write_results", ("cli",), "write_results_csv", None),
    ("scenario.collect", ("scenario",), "_collect_paths", _collect_attrs),
    ("gbm.simulate", ("scenario",), "simulate_paths", _simulate_attrs),
    ("gbm.mle", ("cli",), "gbm_mle_from_returns", None),
    ("gbm.gof", ("cli",), "chi_square_gof", None),
    ("timeseries.load", ("cli",), "load_power_csv", None),
    ("ces.batch", ("scenario",), "_batch_ces", None),
    ("ces.allocation", ("cli",), "ces_allocation", None),
    ("lattice.calibrate", ("cli", "scenario"), "calibrate_step_model", None),
    ("lattice.allocate", ("scenario",), "_BatchLattice.allocate", _batch_allocate_attrs),
    ("lattice.dynamic_allocation", ("cli",), "dynamic_allocation", _dynamic_allocation_attrs),
    ("stats.bootstrap", ("scenario",), "_bootstrap_time_metrics", _bootstrap_attrs),
)


class Recorder:
    """In-memory span list: [name, start, end, parent index, attrs]."""

    def __init__(self):
        self.spans = []
        self._stack = []

    def add(self, name, start, end):
        """A span timed by the caller, outside any wrapped call."""
        self.spans.append([name, start, end, None, None])

    def wrap(self, name, fn, describe=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(self.spans)
            record = [name, 0.0, 0.0, self._stack[-1] if self._stack else None, None]
            self.spans.append(record)
            self._stack.append(index)
            record[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = clock()
                self._stack.pop()
            if describe is not None:
                record[4] = describe(fn, args, kwargs, result)
            return result

        return wrapper


def _resolve(module, dotted):
    owner = module
    parts = dotted.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part, None)
    if owner is None or not hasattr(owner, parts[-1]):
        return None, None
    return owner, parts[-1]


def install(recorder, modules):
    """Wrap every target; return the span names whose target is missing."""
    absent = []
    for name, owners, dotted, describe in TARGETS:
        found = [_resolve(modules[owner], dotted) for owner in owners]
        if any(owner is None for owner, _ in found):
            absent.append(name)
            continue
        for owner, attr in found:
            setattr(owner, attr, recorder.wrap(name, getattr(owner, attr), describe))
    return absent


def main(argv):
    spans_path, run_id, sep, *cli_args = argv
    if sep != "--":
        raise SystemExit("usage: traced.py SPANS.json RUN_ID -- <gridhedge arguments>")
    recorder = Recorder()
    start = clock()
    import gridhedge.cli
    import gridhedge.scenario

    recorder.add("cli.import", start, clock())
    modules = {"cli": gridhedge.cli, "scenario": gridhedge.scenario}
    absent = install(recorder, modules)
    code = 1
    try:
        code = recorder.wrap("cli.main", gridhedge.cli.main)(cli_args)
    finally:
        sys.stdout.flush()
        with open(spans_path, "w") as handle:
            json.dump(
                {"run_id": run_id, "exit_code": code, "absent": absent, "spans": recorder.spans},
                handle,
            )
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
