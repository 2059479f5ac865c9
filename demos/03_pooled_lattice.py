"""Pooled (transactive) valuation on the moment-matched lattice.

Two correlated microgrids share surpluses: the pooled terminal requirement
nets deficits against surpluses, so the pooled portfolio is never worth
more than the two per-grid portfolios combined.  The script calibrates a
lattice step, values the pooled shortfall on the recombining lattice,
extracts the replicating ReGU/battery mix, and cross-checks the value by
Monte Carlo.
"""
import numpy as np

import gridhedge as gh

grid = gh.GridEnsemble(
    params=(gh.GbmParams(0.006, 0.03), gh.GbmParams(0.005, 0.04)),
    corr=gh.CorrelationMatrix.pairwise(0.6),
    demands=np.array([20.0, 25.0]),
    battery_unit_kw=1.0,
)
state = np.array([20.0, 25.0])
horizon, steps = 5.0, 5

model = gh.calibrate_step_model(grid, dt=horizon / steps)
print("calibrated one-hour step")
print("  up factors   :", np.round(model.up, 6))
print("  down factors :", np.round(model.down, 6))
print("  branch probs :", np.round(model.branch_probs, 6),
      f"(sum - 1 = {model.branch_probs.sum() - 1.0:.1e})")
print("  moment residuals:", f"{np.max(np.abs(gh.moment_residuals(model, grid))):.2e}")

value, alloc = gh.dynamic_allocation(
    state, grid.demands, model, steps, prev_a=None, p_b=grid.battery_unit_kw
)
print(f"\npooled portfolio value V(0) = {value:.4f} kW")
print(f"ReGU weights a = {np.round(alloc.a, 4)}, battery b = {alloc.b:.4f} units")
print(f"replication residual = {alloc.residual:.4f} kW (4 children, 3 unknowns)")

estimate, stderr = gh.tes_value_mc(grid, state, 0.0, horizon, n_paths=200_000, seed=3)
print(f"\nMonte Carlo cross-check: {estimate:.4f} +/- {stderr:.4f} kW (1 s.e.)")

specs = [gh.MicrogridSpec(demand=d, gbm=p) for d, p in zip(grid.demands, grid.params)]
separate = sum(gh.ces_portfolio_value(s, spec, 0.0, horizon)
               for s, spec in zip(state, specs))
print(f"sum of per-grid portfolio values = {separate:.4f} kW >= pooled {value:.4f} kW")

print("\nsingle-asset sanity: the lattice converges to the closed form")
single = gh.GridEnsemble(
    params=(grid.params[0],), corr=gh.CorrelationMatrix.identity(1),
    demands=np.array([20.0]), battery_unit_kw=1.0,
)
want = gh.ces_portfolio_value(20.0, specs[0], 0.0, horizon)
for n in (5, 25, 200):
    m = gh.calibrate_step_model(single, horizon / n)
    v, _ = gh.dynamic_allocation(np.array([20.0]), single.demands, m, n, None, 1.0)
    print(f"  N={n:4d}: V={v:.5f}  (closed form {want:.5f}, "
          f"rel err {abs(v - want) / want:.2%})")
