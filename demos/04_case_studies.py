"""Hourly rebalancing case studies: pooled vs per-grid battery reserves.

Simulates physical-measure generation paths for the two-microgrid fleet,
filters them by which grids end above/below their demand, and rebalances
both operating modes every hour.  Prints the battery trajectories and the
battery savings of pooling per terminal case, and writes the plot-ready
CSV that the ``simulate`` CLI command also produces.

Smaller path counts keep the demo quick; raise ``n_paths`` (and the
bootstrap resamples) for production-quality intervals.
"""
import numpy as np

import gridhedge as gh

grid = gh.GridEnsemble(
    params=(gh.GbmParams(0.006, 0.03), gh.GbmParams(0.005, 0.04)),
    corr=gh.CorrelationMatrix.pairwise(0.6),
    demands=np.array([20.0, 25.0]),
    battery_unit_kw=1.0,
)

cases = [
    (("ge", "ge"), "both grids end in surplus"),
    (("ge", "lt"), "grid 1 surplus, grid 2 deficit"),
    (("lt", "lt"), "both grids end in deficit"),
]

for case, story in cases:
    config = gh.ScenarioConfig(
        grid=grid,
        initial_kw=np.array([20.0, 25.0]),
        horizon_hours=5.0,
        rebalance_steps=5,
        n_paths=2_000,
        seed=11,
        case_filter=case,
        n_resamples=1_000,
    )
    result = gh.run_case_study(config)
    print(f"\ncase {','.join(case)}: {story} ({result.n_paths} paths)")
    print(f"  t (h)        : {np.round(result.times, 1)}")
    print(f"  pooled b(t)  : {np.round(result.metrics['b_tes'].mean, 2)}")
    print(f"  per-grid b(t): {np.round(result.metrics['b_ces'].mean, 2)}")
    print(f"  savings %    : {np.round(result.metrics['savings_pct'].mean, 2)}")
    savings = result.overall_savings
    print(
        f"  overall savings = {savings.mean:.2f}% "
        f"(95% CI {savings.lo:.2f} to {savings.hi:.2f})"
    )
    out = f"case_{'_'.join(case)}.csv"
    gh.write_results_csv(result, out)
    print(f"  wrote {out}")

print("\nat t=0 the allocation is deterministic, so every case shares the")
print("same initial batteries; terminal batteries follow the terminal rule")
print("(per-grid: full demand when in deficit; pooled: single-node top-up)")
