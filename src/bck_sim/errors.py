"""Exception types shared across the solver and the command line front end."""

from __future__ import annotations


class DegeneracyError(RuntimeError):
    """The pointwise factor 1 + 2k*u_t came too close to zero.

    The third-order evolution divides by this factor, so the solver refuses
    to continue once ``|2k u_t|`` reaches ``1 - eps_deg`` anywhere on the
    evaluation grid.  ``time``, ``index`` and ``factor`` record where the
    guard tripped.  Every solve starts at t = 0, so a trip at time 0 is a
    trip of the initial data and a later one a mid-run failure.
    """

    def __init__(self, message, time=None, index=None, factor=None):
        super().__init__(message)
        self.time = time
        self.index = index
        self.factor = factor
        self.partial_trajectory = None


class NonConvergenceError(RuntimeError):
    """Fixed-point iteration failed to contract within the iteration budget;
    ``picard_solve`` attaches the ``ratios`` and ``increments`` measured."""


class BlowUpError(OverflowError):
    """A trajectory norm exceeded the configured blow-up bound."""

    def __init__(self, message, time=None, norm=None, bound=None):
        super().__init__(message)
        self.time = time
        self.norm = norm
        self.bound = bound
        self.partial_trajectory = None


class FitError(RuntimeError):
    """Log-linear decay fit is ill-posed on the requested window."""


class DivisionGuardError(RuntimeError):
    """An audit denominator vanished while the numerator did not."""


class ConfigError(ValueError):
    """Configuration file or override is malformed, unknown or out of range."""
