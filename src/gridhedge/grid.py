"""Container describing the fleet of microgrids an operator manages."""
from dataclasses import dataclass

import numpy as np

from .gbm import CorrelationMatrix, GbmParams


@dataclass(frozen=True)
class GridEnsemble:
    """Per-microgrid GBM parameters, their correlation, demands and P_b."""

    params: "tuple[GbmParams, ...]"
    corr: CorrelationMatrix
    demands: np.ndarray          # kW, one per microgrid
    battery_unit_kw: float       # P_b

    def __post_init__(self):
        demands = np.asarray(self.demands, dtype=float)
        object.__setattr__(self, "demands", demands)
        object.__setattr__(self, "params", tuple(self.params))
        if not self.params:
            raise ValueError("a fleet needs at least one microgrid, got none")
        if self.corr.n != len(self.params) or demands.shape != (len(self.params),):
            raise ValueError("params, correlation and demands sizes disagree")
        if not np.all(np.isfinite(demands) & (demands > 0)):
            raise ValueError(f"demand_kw must be finite and > 0, got {demands}")
        # the lattice squares residuals of the size of the demands
        largest = np.sqrt(np.finfo(float).max)
        if np.any(demands > largest):
            raise ValueError(
                f"demand_kw must be at most {largest:.3g}, whose square is finite, got {demands}"
            )
        p_b = self.battery_unit_kw
        if not (np.isfinite(p_b) and p_b > 0):
            raise ValueError(f"battery_unit_kw must be finite and > 0, got {p_b}")

    @property
    def n_microgrids(self) -> int:
        return len(self.params)

    @property
    def sigmas(self) -> np.ndarray:
        return np.array([p.sigma for p in self.params])
