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

    Carries the offending ``branch``.  When no finer time step helps,
    ``limit`` is that branch's probability as dt -> 0; otherwise ``key`` is
    "rebalance_steps" and ``value`` the fewest steps that calibrate, or None
    when no count the node budget fits does.  A time step so long that the
    log step overflows has no offending branch: ``branch`` is None and
    ``key`` is "horizon_hours".
    """

    def __init__(self, message, branch, limit=None, key=None, value=None):
        super().__init__(message)
        self.branch = branch
        self.limit = limit
        self.key = key
        self.value = value


class TreeTooLarge(GridHedgeError):
    """A lattice's terminal grid would exceed the node budget."""


class InsufficientPaths(GridHedgeError):
    """No simulated path satisfied the requested terminal case filter."""


class DegenerateVolatilityWarning(UserWarning):
    """Estimated volatility is exactly zero (constant input series)."""


class RankDeficientWarning(UserWarning):
    """Replication design matrix is rank deficient; solution is minimum-norm."""
