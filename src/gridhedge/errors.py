"""Exception and warning types shared across the package.

Bad arguments raise ``ValueError``, and the CLI exits 2 on it.  Each class
here is a failure the CLI reports with its own exit code: 3 for an
infeasible calibration, 5 for an empty case filter and 4 for the other
preconditions.
"""


class GridHedgeError(Exception):
    """Base class for all package-specific errors.

    A refusal that advises a config change carries ``advice``, each key it
    names mapped to the value to set it to (None where it has no value);
    the mapping is empty where it advises none.
    """

    def __init__(self, message, advice=()):
        super().__init__(message)
        self.advice = dict(advice)


class DegenerateVolatility(GridHedgeError):
    """An operation requiring sigma > 0 received a zero-volatility process."""


class TimeOutOfRange(GridHedgeError):
    """Evaluation time lies outside the allocation horizon."""


class InfeasibleCalibration(GridHedgeError):
    """A lattice step left a branch probability outside [0, 1] or overflowed exp(h).

    ``advice`` is empty when no step count or halving of the horizon helps.
    Otherwise it maps, in this order, "rebalance_steps" to the fewest steps
    that calibrate; "sigma" to None when a one-hour step of that sigma
    overflows; or "horizon_hours" to the horizon halved until the step
    count calibrates, with "rebalance_steps" to the node budget's most
    steps when the count given exceeds it.
    """


class TreeTooLarge(GridHedgeError):
    """A lattice's terminal grid would exceed the node budget.

    ``advice`` maps "rebalance_steps" to the most steps the node budget
    fits that calibrate.
    """


class InsufficientPaths(GridHedgeError):
    """No simulated path satisfied the requested terminal case filter.

    ``advice`` maps "max_simulated_paths" to the cap advised, or to None
    when no path matched.
    """


class DegenerateVolatilityWarning(UserWarning):
    """Estimated volatility is exactly zero (constant input series)."""


class RankDeficientWarning(UserWarning):
    """A grid's up and down factors coincide, so the replication solution is minimum-norm."""
