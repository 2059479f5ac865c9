"""Battery/renewable allocation policies under correlated GBM uncertainty.

A distribution system operator must guarantee each microgrid's critical
demand at a future time while its renewable generation diffuses.  Per-grid
operation has a closed-form hedge (``ces``); pooled operation is valued and
allocated on a moment-matched multi-asset lattice (``lattice``); ``scenario``
reproduces hourly-rebalancing case studies and their statistics.
"""
__version__ = "0.2.0"

from .ces import (
    CesAllocation,
    MicrogridSpec,
    ces_allocation,
    ces_portfolio_value,
    ces_total_battery,
    hedge_backtest,
)
from .gbm import (
    CorrelationMatrix,
    GbmParams,
    GofResult,
    chi_square_gof,
    chi_square_survival,
    estimate_gbm_mle,
    gbm_mle_from_returns,
    simulate_paths,
)
from .grid import GridEnsemble
from .lattice import (
    Allocation,
    LatticeStepModel,
    calibrate_step_model,
    dynamic_allocation,
    moment_residuals,
    tes_value_mc,
)
from .scenario import (
    CaseResult,
    ScenarioConfig,
    battery_savings,
    run_case_study,
    write_results_csv,
)
from .stats import (
    BootstrapCi,
    bootstrap_ci,
    ks_critical_value,
    ks_two_sample,
)
from .timeseries import PowerSeries, load_power_csv, window_log_returns

__all__ = [
    "Allocation",
    "BootstrapCi",
    "CaseResult",
    "CesAllocation",
    "CorrelationMatrix",
    "GbmParams",
    "GofResult",
    "GridEnsemble",
    "LatticeStepModel",
    "MicrogridSpec",
    "PowerSeries",
    "ScenarioConfig",
    "battery_savings",
    "bootstrap_ci",
    "calibrate_step_model",
    "ces_allocation",
    "ces_portfolio_value",
    "ces_total_battery",
    "chi_square_gof",
    "chi_square_survival",
    "dynamic_allocation",
    "estimate_gbm_mle",
    "gbm_mle_from_returns",
    "hedge_backtest",
    "ks_critical_value",
    "ks_two_sample",
    "load_power_csv",
    "moment_residuals",
    "run_case_study",
    "simulate_paths",
    "tes_value_mc",
    "window_log_returns",
    "write_results_csv",
]
