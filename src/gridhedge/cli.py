"""Command-line surface: estimate, allocate, simulate, validate.

Exit codes: 0 success, 1 validation failure, 2 input error, 3 calibration
infeasible, 4 precondition violation, 5 empty result.
"""
import argparse
import math
import os
import shlex
import sys
import warnings

from . import __version__
from .errors import GridHedgeError, InfeasibleCalibration, InsufficientPaths, TimeOutOfRange

EXIT_VALIDATION = 1
EXIT_INPUT = 2
EXIT_CALIBRATION = 3
EXIT_PRECONDITION = 4
EXIT_EMPTY = 5

# main() exits with the code of the first row whose types match the error
EXIT_CODES = (
    ((ValueError, OSError), EXIT_INPUT),
    (InfeasibleCalibration, EXIT_CALIBRATION),
    (InsufficientPaths, EXIT_EMPTY),
    (GridHedgeError, EXIT_PRECONDITION),
)


# Each layer a command runs is a package export, taken on its first use (PEP
# 562), so a command loads only the modules it runs.  Commands call layers as
# attributes of this module, so a wrapper set on it (perfbench/traced.py times
# each layer this way) is what runs.
def __getattr__(name):
    package = sys.modules[__package__]
    if name not in package.__all__:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(package, name)
    return value


_here = sys.modules[__name__]


def _cmd_estimate(args) -> int:
    from .timeseries import parse_clock, window_log_returns

    if args.interval_minutes is not None and not 0 < args.interval_minutes < math.inf:
        raise ValueError(
            f"--interval-minutes must be finite and > 0, got {args.interval_minutes:g}"
        )
    series = _here.load_power_csv(args.input)
    window = None
    if args.window:
        try:
            start, end = args.window.split("-")
            window = (parse_clock(start), parse_clock(end))
        except ValueError:
            raise ValueError(f"window must be HH:MM-HH:MM, got {args.window!r}") from None
        if window[0] > window[1]:
            raise ValueError(
                f"--window {args.window} starts after it ends; a window cannot span midnight"
            )
    if args.interval_minutes is not None:
        expected = args.interval_minutes / 60.0
        if abs(series.dt_hours - expected) > 1e-9:
            raise ValueError(
                f"file interval {series.dt_hours * 60:.6g} min "
                f"!= requested {args.interval_minutes:.6g} min"
            )
    returns = window_log_returns(series, window)
    if returns.size < 2:
        raise ValueError("window leaves fewer than 2 log-returns")
    params = _here.gbm_mle_from_returns(returns, series.dt_hours)
    # every input error is raised before the first line is printed
    gof = None
    if params.sigma > 0:
        gof = _here.chi_square_gof(returns, params, series.dt_hours, args.bins)
    print(f"samples        = {len(series)}")
    print(f"dt_hours       = {series.dt_hours:.6g}")
    print(f"log_returns    = {returns.size}")
    print(f"mu_per_hour    = {params.mu:.6g}")
    print(f"sigma_per_rth  = {params.sigma:.6g}")
    if gof is not None:
        print(f"chi2_statistic = {gof.statistic:.6g}")
        print(f"chi2_dof       = {gof.dof}")
        print(f"chi2_p_value   = {gof.p_value:.6g}")
    else:
        print("chi2_statistic = n/a (zero volatility)")
    return 0


def _cmd_allocate(args) -> int:
    config = _here.load_scenario_config(args.config)
    grid = config.grid
    t = args.time
    t_f = config.horizon_hours
    if not 0 <= t < t_f:
        raise TimeOutOfRange(f"time out of range: need 0 <= t < {t_f}, got {t}")
    pg = config.initial_kw
    if args.mode == "ces":
        from .ces import MicrogridSpec

        total_b = 0.0
        total_v = 0.0
        for i, (p, d, g) in enumerate(zip(pg, grid.demands, grid.params), start=1):
            spec = MicrogridSpec(demand=d, gbm=g)
            alloc = _here.ces_allocation(p, spec, t, t_f, grid.battery_unit_kw)
            total_b += alloc.b_hat
            total_v += alloc.value_hat
            print(
                f"microgrid_{i}: a_hat = {alloc.a_hat:.6f}  "
                f"b_hat = {alloc.b_hat:.6f}  value_kw = {alloc.value_hat:.6f}"
            )
        print(f"total_battery_units = {total_b:.6f}")
        print(f"total_portfolio_kw  = {total_v:.6f}")
    else:
        model = _here.calibrate_step_model(grid, t_f, config.rebalance_steps)
        steps_done = t / model.dt
        snapped = round(steps_done)
        # a time that snaps to the horizon has no step left to allocate
        if abs(steps_done - snapped) > 1e-9 or snapped == model.steps:
            # the grid times either side of t that fall before the horizon,
            # each printed as its shortest exact decimal
            below = min(math.floor(steps_done), model.steps - 1)
            near = [k * model.dt for k in (below, below + 1) if k < model.steps]
            raise TimeOutOfRange(
                f"time out of range: tes allocation rebalances every {model.dt:g} h; use --time "
                + " or ".join(str(time).removesuffix(".0") for time in near)
            )
        value, alloc = _here.dynamic_allocation(
            pg, grid.demands, model, model.steps - snapped, None, grid.battery_unit_kw
        )
        for i, a in enumerate(alloc.a, start=1):
            print(f"a_{i} = {a:.6f}")
        print(f"battery_units = {alloc.b:.6f}")
        print(f"portfolio_kw  = {value:.6f}")
        print(f"replication_residual_kw = {alloc.residual:.3e}")
    return 0


def _cmd_simulate(args) -> int:
    from dataclasses import replace
    from pathlib import Path

    from .config import parse_case

    config = _here.load_scenario_config(args.config)
    case = None if args.case_filter is None else parse_case(args.case_filter)
    overrides = {"n_paths": args.paths, "seed": args.seed, "case_filter": case}
    config = replace(config, **{key: v for key, v in overrides.items() if v is not None})
    # an unusable --out fails before the run; a failed run removes the
    # directories it made, deepest first
    out = Path(args.out).absolute()
    made = [path for path in (out, *out.parents) if not os.path.lexists(path)]
    os.makedirs(args.out, exist_ok=True)
    try:
        result = _here.run_case_study(config)
    except BaseException:
        for path in made:
            os.rmdir(path)
        raise
    results_path = os.path.join(args.out, "results.csv")
    _here.write_results_csv(result, results_path)
    _here.write_manifest(
        os.path.join(args.out, "manifest.txt"),
        command=args.command_line,
        config=config,
        outputs=["results.csv"],
    )
    print(f"case          = {result.case_label}")
    print(f"paths         = {result.n_paths}")
    savings = result.overall_savings
    print(f"overall_savings_pct = {savings.mean:.4f}")
    print(f"overall_savings_ci_lo_pct = {savings.lo:.4f}")
    print(f"overall_savings_ci_hi_pct = {savings.hi:.4f}")
    print(f"results       = {results_path}")
    return 0


def _cmd_validate(args) -> int:
    # imported here: no other command needs the validation suite
    from .validate import run_suite

    results = run_suite(args.suite, inject_phi_fault=args.inject_phi_fault)
    failures = 0
    for check in results:
        status = "PASS" if check.passed else "FAIL"
        if not check.passed:
            failures += 1
        print(f"{status}\t{check.name}\t{check.detail}")
    if failures:
        print(f"{failures} check(s) failed", file=sys.stderr)
        return EXIT_VALIDATION
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gridhedge",
        description="Demand-meeting battery/renewable allocation under GBM uncertainty",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    est = sub.add_parser("estimate", help="fit GBM drift/volatility from a power CSV")
    est.add_argument("input", help="CSV with header timestamp,power_kw")
    est.add_argument("--window", help="daily clock window, e.g. 10:00-17:00")
    est.add_argument("--interval-minutes", type=float, help="expected sampling interval")
    est.add_argument("--bins", type=int, default=16, help="chi-square bins (default 16)")
    est.set_defaults(func=_cmd_estimate)

    alloc = sub.add_parser("allocate", help="print the allocation at a given time")
    alloc.add_argument("config", help="scenario config file")
    alloc.add_argument("--mode", choices=("ces", "tes"), required=True)
    alloc.add_argument("--time", type=float, default=0.0, help="evaluation time, hours")
    alloc.set_defaults(func=_cmd_allocate)

    sim = sub.add_parser("simulate", help="run a rebalancing case study")
    sim.add_argument("config", help="scenario config file")
    sim.add_argument("--paths", type=int, help="override n_paths")
    sim.add_argument("--seed", type=int, help="override seed")
    sim.add_argument("--case-filter", help="terminal case, e.g. 'ge,lt'")
    sim.add_argument("--out", required=True, help="output directory")
    sim.set_defaults(func=_cmd_simulate)

    val = sub.add_parser("validate", help="run built-in oracle/statistics checks")
    val.add_argument("--suite", choices=("oracle", "stats", "all"), default="all")
    val.add_argument(
        "--inject-phi-fault",
        action="store_true",
        help="perturb the allocator's normal CDF (the oracle check must fail)",
    )
    val.set_defaults(func=_cmd_validate)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = build_parser().parse_args(argv)
    args.command_line = "gridhedge " + shlex.join(argv)
    try:
        return args.func(args)
    except (GridHedgeError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for types, code in EXIT_CODES if isinstance(exc, types))


def run():
    """The ``gridhedge`` command: main(), then exit without interpreter teardown.

    Once the output is flushed the process has nothing left to do, and
    tearing down numpy's and gridhedge's modules would add about 40 ms to
    every command (2-core host).  argparse ends ``--version`` and
    usage errors by raising SystemExit, whose code is the exit code here too.
    Uncaught exceptions, KeyboardInterrupt among them, keep Python's
    traceback and teardown.  Output that cannot be flushed (a full disk, a
    closed pipe) gets an ``error:`` line and exit code 120, the code
    Python's own shutdown gives it.  A warning is shown as one ``warning:``
    line, without the source path and line that Python's format adds.
    """
    warnings.formatwarning = lambda message, *rest: f"warning: {message}\n"
    try:
        code = main()
    except SystemExit as stop:
        code = stop.code
    try:
        sys.stdout.flush()
        sys.stderr.flush()
    except OSError as exc:
        try:
            print(f"error: cannot write output: {exc}", file=sys.stderr, flush=True)
        finally:
            os._exit(120)
    os._exit(code)
