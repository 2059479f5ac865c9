"""Command-line surface: estimate, allocate, simulate, validate.

Exit codes: 0 success, 1 validation failure, 2 input error, 3 calibration
infeasible, 4 precondition violation, 5 empty result.
"""
import argparse
import os
import sys

from . import __version__
from .ces import MicrogridSpec, ces_allocation, ces_portfolio_value
from .config import load_scenario_config, write_manifest
from .errors import (
    GridHedgeError,
    InfeasibleCalibration,
    InsufficientPaths,
    MalformedSeries,
    NonPositiveGeneration,
    NonPositiveSample,
    SeriesTooShort,
    TimeOutOfRange,
)
from .gbm import chi_square_gof, gbm_mle_from_returns
from .lattice import calibrate_step_model, dynamic_allocation
from .scenario import format_case, parse_case, run_case_study, write_results_csv
from .timeseries import load_power_csv, parse_clock, window_log_returns
from .validate import run_suite

EXIT_VALIDATION = 1
EXIT_INPUT = 2
EXIT_CALIBRATION = 3
EXIT_PRECONDITION = 4
EXIT_EMPTY = 5


def _cmd_estimate(args) -> int:
    series = load_power_csv(args.input)
    window = None
    if args.window:
        start, end = args.window.split("-")
        window = (parse_clock(start), parse_clock(end))
    if args.interval_minutes is not None:
        expected = args.interval_minutes / 60.0
        if abs(series.dt_hours - expected) > 1e-9:
            raise MalformedSeries(
                f"file interval {series.dt_hours * 60:.6g} min "
                f"!= requested {args.interval_minutes:.6g} min"
            )
    returns = window_log_returns(series, window)
    if returns.size < 2:
        raise MalformedSeries("window leaves fewer than 2 log-returns")
    params = gbm_mle_from_returns(returns, series.dt_hours)
    print(f"samples        = {len(series)}")
    print(f"dt_hours       = {series.dt_hours:.6g}")
    print(f"log_returns    = {returns.size}")
    print(f"mu_per_hour    = {params.mu:.6g}")
    print(f"sigma_per_rth  = {params.sigma:.6g}")
    if params.sigma > 0:
        gof = chi_square_gof(returns, params, series.dt_hours, args.bins)
        print(f"chi2_statistic = {gof.statistic:.6g}")
        print(f"chi2_dof       = {gof.dof}")
        print(f"chi2_p_value   = {gof.p_value:.6g}")
    else:
        print("chi2_statistic = n/a (zero volatility)")
    return 0


def _cmd_allocate(args) -> int:
    config = load_scenario_config(args.config)
    grid = config.grid
    t = args.time
    t_f = config.horizon_hours
    if not 0 <= t < t_f:
        raise TimeOutOfRange(f"time out of range: need 0 <= t < {t_f}, got {t}")
    pg = config.initial_kw
    if args.mode == "ces":
        total_b = 0.0
        total_v = 0.0
        for i, (p, d, g) in enumerate(zip(pg, grid.demands, grid.params), start=1):
            spec = MicrogridSpec(demand=d, gbm=g, label=f"microgrid_{i}")
            alloc = ces_allocation(p, spec, t, t_f, grid.battery_unit_kw)
            value = ces_portfolio_value(p, spec, t, t_f)
            total_b += alloc.b_hat
            total_v += value
            print(
                f"microgrid_{i}: a_hat = {alloc.a_hat:.6f}  "
                f"b_hat = {alloc.b_hat:.6f}  value_kw = {value:.6f}"
            )
        print(f"total_battery_units = {total_b:.6f}")
        print(f"total_portfolio_kw  = {total_v:.6f}")
    else:
        dt = t_f / config.rebalance_steps
        steps_done = t / dt
        if abs(steps_done - round(steps_done)) > 1e-9:
            raise TimeOutOfRange(
                f"time out of range: tes allocation rebalances every {dt:g} h"
            )
        remaining = config.rebalance_steps - int(round(steps_done))
        model = calibrate_step_model(grid, dt)
        value, alloc = dynamic_allocation(
            pg, grid.demands, model, remaining, None, grid.battery_unit_kw
        )
        for i, a in enumerate(alloc.a, start=1):
            print(f"a_{i} = {a:.6f}")
        print(f"battery_units = {alloc.b:.6f}")
        print(f"portfolio_kw  = {value:.6f}")
        print(f"replication_residual_kw = {alloc.residual:.3e}")
    return 0


def _cmd_simulate(args) -> int:
    config = load_scenario_config(args.config)
    overrides = {}
    if args.paths is not None:
        overrides["n_paths"] = args.paths
    if args.seed is not None:
        overrides["seed"] = args.seed
    if args.case_filter is not None:
        overrides["case_filter"] = parse_case(args.case_filter)
    if overrides:
        from dataclasses import replace

        config = replace(config, **overrides)
    result = run_case_study(config)
    os.makedirs(args.out, exist_ok=True)
    results_path = os.path.join(args.out, "results.csv")
    write_results_csv(result, results_path)
    write_manifest(
        os.path.join(args.out, "manifest.txt"),
        command=" ".join(sys.argv),
        config=config,
        outputs=["results.csv"],
    )
    label = format_case(result.case) if result.case else "all"
    print(f"case          = {label}")
    print(f"paths         = {result.n_paths}")
    print(f"overall_savings_pct = {result.overall_savings:.4f}")
    print(f"overall_savings_ci_lo_pct = {result.overall_savings_lo:.4f}")
    print(f"overall_savings_ci_hi_pct = {result.overall_savings_hi:.4f}")
    print(f"results       = {results_path}")
    return 0


def _cmd_validate(args) -> int:
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
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (MalformedSeries, NonPositiveSample, SeriesTooShort, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except InfeasibleCalibration as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CALIBRATION
    except (TimeOutOfRange, NonPositiveGeneration) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    except InsufficientPaths as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_EMPTY
    except GridHedgeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION


if __name__ == "__main__":
    sys.exit(main())
