"""Exception types shared across the toolkit."""


class RenewlimError(Exception):
    """Base class for all toolkit-specific failures."""


class DomainError(RenewlimError, ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class NoBracketError(RenewlimError, RuntimeError):
    """The scaling-equation solver could not bracket a root.

    Raised when the initial bracket around x**(1/alpha) fails to straddle
    the root even after repeated widening, which signals that x is below
    the regime where c**alpha / ell(c) is monotone.
    """


class ToleranceNotMetError(RenewlimError, RuntimeError):
    """An adaptive numerical routine stalled above its error target."""


class ParameterMismatchError(RenewlimError, ValueError):
    """Supplied parameters are inconsistent with the requested case."""


class CaseMismatchError(RenewlimError, ValueError):
    """A convergence case was requested for a law outside its regime."""


class SpecParseError(RenewlimError, ValueError):
    """A distribution / scaling-function spec string failed to parse."""


class ConfigError(RenewlimError, ValueError):
    """A CLI/JSON experiment configuration is invalid.

    The message is a single line naming the offending field.
    """


class InvariantError(RenewlimError, RuntimeError):
    """A pathwise identity that holds for every correct simulation failed.

    It signals a defect, not bad input, and it is raised by an explicit
    check so that ``python -O`` cannot strip it.
    """
