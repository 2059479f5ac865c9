"""Battery/renewable allocation policies under correlated GBM uncertainty.

A distribution system operator must guarantee each microgrid's critical
demand at a future time while its renewable generation diffuses.  Per-grid
operation has a closed-form hedge (``ces``); pooled operation is valued and
allocated on a moment-matched multi-asset lattice (``lattice``); ``scenario``
reproduces hourly-rebalancing case studies and their statistics.

Each public name is imported from its module on first use, so a command
loads only the modules it runs.
"""
import importlib

__version__ = "0.2.0"

# public name -> the module that defines it; gridhedge.cli's layers among them
_EXPORTS = {
    "CesAllocation": "ces",
    "MicrogridSpec": "ces",
    "ces_allocation": "ces",
    "ces_portfolio_value": "ces",
    "ces_total_battery": "ces",
    "hedge_backtest": "ces",
    "ScenarioConfig": "config",
    "load_scenario_config": "config",
    "write_manifest": "config",
    "CorrelationMatrix": "gbm",
    "GbmParams": "gbm",
    "GofResult": "gbm",
    "chi_square_gof": "gbm",
    "chi_square_survival": "gbm",
    "estimate_gbm_mle": "gbm",
    "gbm_mle_from_returns": "gbm",
    "simulate_paths": "gbm",
    "GridEnsemble": "grid",
    "Allocation": "lattice",
    "LatticeStepModel": "lattice",
    "calibrate_step_model": "lattice",
    "dynamic_allocation": "lattice",
    "moment_residuals": "lattice",
    "tes_value_mc": "lattice",
    "CaseResult": "scenario",
    "battery_savings": "scenario",
    "run_case_study": "scenario",
    "write_results_csv": "scenario",
    "BootstrapCi": "stats",
    "bootstrap_ci": "stats",
    "ks_critical_value": "stats",
    "ks_two_sample": "stats",
    "PowerSeries": "timeseries",
    "load_power_csv": "timeseries",
    "window_log_returns": "timeseries",
}

__all__ = sorted(_EXPORTS)


def __getattr__(name):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_EXPORTS[name]}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
