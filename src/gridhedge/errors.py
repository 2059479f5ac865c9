"""Exception and warning types shared across the package.

Bad arguments raise ``ValueError``, and the CLI exits 2 on it.  Each class
here is a failure the CLI reports with its own exit code: 3 for an
infeasible calibration, 5 for an empty case filter and 4 for the other
preconditions.
"""


class GridHedgeError(Exception):
    """Base class for all package-specific errors."""


class DegenerateVolatility(GridHedgeError):
    """An operation requiring sigma > 0 received a zero-volatility process."""


class TimeOutOfRange(GridHedgeError):
    """Evaluation time lies outside the allocation horizon."""


class InfeasibleCalibration(GridHedgeError):
    """Lattice calibration produced a branch probability outside [0, 1].

    Carries the offending branch index.  As dt -> 0 branch probabilities
    approach (1 + sum_{i<j} s_i s_j rho_ij) / 2**n_assets.  When that limit
    is negative, or zero and approached from below, it is passed as
    ``limit`` and no finer time step helps.  Otherwise ``key`` is
    "rebalance_steps" and ``value`` the fewest steps over ``horizon`` that
    calibrate, or None when no count up to ``most``, the most the node
    budget fits, does.
    """

    def __init__(self, branch, probability, dt, limit=None, horizon=None, steps=None, most=None):
        self.branch = branch
        self.probability = probability
        self.dt = dt
        self.limit = limit
        self.key = None if limit is not None else "rebalance_steps"
        self.value = steps
        if limit is not None:
            advice = (
                f"it tends to {limit:.6g} as dt -> 0: these correlations admit no "
                "moment-matched lattice at any fine time step, so refining dt cannot help"
            )
        elif steps is None:
            advice = (
                f"no rebalance_steps up to {most}, the most the node budget fits, "
                f"calibrates over {horizon:g} h"
            )
        else:
            advice = (
                f"set rebalance_steps to {steps} (dt = {horizon / steps:g} h), "
                f"the fewest that calibrate over {horizon:g} h"
            )
        super().__init__(
            f"branch {branch} probability {probability:.6g} outside [0, 1]; {advice}"
        )


class TreeTooLarge(GridHedgeError):
    """A lattice's terminal grid would exceed the node budget."""


class InsufficientPaths(GridHedgeError):
    """No simulated path satisfied the requested terminal case filter."""


class DegenerateVolatilityWarning(UserWarning):
    """Estimated volatility is exactly zero (constant input series)."""


class RankDeficientWarning(UserWarning):
    """Replication design matrix is rank deficient; solution is minimum-norm."""
