"""Fit a GBM generation model to a power time series and test the fit.

Walks through the estimation workflow on synthetic data: simulate a
"ground truth" wind-like series at five-minute resolution, recover drift
and volatility by maximum likelihood, and judge the fitted law with an
equal-probability-bin chi-square test.  Point ``load_power_csv`` at a real
``timestamp,power_kw`` file to run the same steps on measured data, e.g.

    series = gh.load_power_csv("wind_june.csv")
    returns = gh.window_log_returns(series, (time(10, 0), time(17, 0)))
"""
import numpy as np

import gridhedge as gh

truth = gh.GbmParams(mu=0.007, sigma=0.027)   # per hour / per sqrt-hour
dt_hours = 1 / 12                              # five-minute sampling

print("simulating 30 days of five-minute generation data")
n_steps = 30 * 24 * 12
ensemble = gh.simulate_paths(
    [truth],
    gh.CorrelationMatrix.identity(1),
    initial=np.array([1200.0]),
    horizon=n_steps * dt_hours,
    n_steps=n_steps,
    n_paths=1,
    seed=20,
)
series = ensemble[0, :, 0]

fitted, log_returns = gh.estimate_gbm_mle(series, dt_hours)
print(f"true  mu={truth.mu:.4f}  sigma={truth.sigma:.4f}")
print(f"fit   mu={fitted.mu:.4f}  sigma={fitted.sigma:.4f}")

gof = gh.chi_square_gof(log_returns, fitted, dt_hours, n_bins=16)
print(f"chi-square {gof.statistic:.2f} at {gof.dof} dof -> p = {gof.p_value:.3f}")
print("a p-value above the significance level supports the GBM description")
