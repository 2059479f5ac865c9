"""Battery/renewable allocation policies under correlated GBM uncertainty.

A distribution system operator must guarantee each microgrid's critical
demand at a future time while its renewable generation diffuses.  Per-grid
operation has a closed-form hedge (``ces``); pooled operation is valued and
allocated on a moment-matched multi-asset lattice (``lattice``); ``scenario``
reproduces hourly-rebalancing case studies and their statistics.
"""
__version__ = "0.1.0"

from .ces import (
    CesAllocation,
    MicrogridSpec,
    ces_allocation,
    ces_portfolio_value,
    ces_total_battery,
    hedge_backtest,
    terminal_payoff_ces,
)
from .gbm import (
    CorrelationMatrix,
    GbmParams,
    GofResult,
    PathEnsemble,
    chi_square_gof,
    cholesky_factor,
    estimate_gbm_mle,
    gbm_mle_from_returns,
    simulate_paths,
)
from .grid import GridEnsemble
from .lattice import (
    Allocation,
    LatticeStepModel,
    TreeNode,
    backpropagate,
    calibrate_step_model,
    compute_resources,
    dynamic_allocation,
    forward_propagate,
    moment_residuals,
    replicate_internal,
    tes_terminal_payoff,
    tes_value_mc,
)
from .scenario import (
    CaseResult,
    ScenarioConfig,
    battery_savings,
    classify_terminal,
    run_case_study,
    write_results_csv,
)
from .stats import (
    BootstrapCi,
    KsResult,
    bootstrap_ci,
    ks_critical_value,
    ks_test,
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
    "KsResult",
    "LatticeStepModel",
    "MicrogridSpec",
    "PathEnsemble",
    "PowerSeries",
    "ScenarioConfig",
    "TreeNode",
    "backpropagate",
    "battery_savings",
    "bootstrap_ci",
    "calibrate_step_model",
    "ces_allocation",
    "ces_portfolio_value",
    "ces_total_battery",
    "chi_square_gof",
    "cholesky_factor",
    "classify_terminal",
    "compute_resources",
    "dynamic_allocation",
    "estimate_gbm_mle",
    "forward_propagate",
    "gbm_mle_from_returns",
    "hedge_backtest",
    "ks_critical_value",
    "ks_test",
    "ks_two_sample",
    "load_power_csv",
    "moment_residuals",
    "replicate_internal",
    "run_case_study",
    "simulate_paths",
    "terminal_payoff_ces",
    "tes_terminal_payoff",
    "tes_value_mc",
    "window_log_returns",
    "write_results_csv",
]
