"""Exception and warning types shared across the package.

Bad arguments raise ``ValueError``, and the CLI exits 2 on it.  Each class
here is a failure the CLI reports with its own exit code: 3 for an
infeasible calibration, 5 for an empty case filter and 4 for the other
preconditions.
"""


class GridHedgeError(Exception):
    """Base class for all package-specific errors.

    A refusal that advises a config change names the ``key`` and the
    ``value`` to set it to; both are None where it advises none.
    """

    def __init__(self, message, key=None, value=None):
        super().__init__(message)
        self.key = key
        self.value = value


class DegenerateVolatility(GridHedgeError):
    """An operation requiring sigma > 0 received a zero-volatility process."""


class TimeOutOfRange(GridHedgeError):
    """Evaluation time lies outside the allocation horizon."""


class InfeasibleCalibration(GridHedgeError):
    """A lattice step left a branch probability outside [0, 1] or overflowed exp(h).

    Carries the offending ``branch``, None where the up factor overflows.
    When no finer time step helps, ``limit`` is that branch's probability as
    dt -> 0.  Otherwise ``key`` and ``value`` are, in this order,
    "rebalance_steps" and the fewest steps that calibrate; "sigma" and None
    when a one-hour step of that sigma overflows; or "horizon_hours" and the
    horizon halved until the step count calibrates, None if dt reaches 0.
    """

    def __init__(self, message, branch, limit=None, key=None, value=None):
        super().__init__(message, key, value)
        self.branch = branch
        self.limit = limit


class TreeTooLarge(GridHedgeError):
    """A lattice's terminal grid would exceed the node budget.

    ``key`` is "rebalance_steps" and ``value`` the most steps the node
    budget fits that calibrate.
    """


class InsufficientPaths(GridHedgeError):
    """No simulated path satisfied the requested terminal case filter.

    ``key`` is "max_simulated_paths" and ``value`` the cap advised, or None
    when no path matched.
    """


class DegenerateVolatilityWarning(UserWarning):
    """Estimated volatility is exactly zero (constant input series)."""


class RankDeficientWarning(UserWarning):
    """A grid's up and down factors coincide, so the replication solution is minimum-norm."""
