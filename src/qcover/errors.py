"""Exception types shared across the toolkit."""


class SpaceTooLargeError(ValueError):
    """A full-space scan was requested beyond the enumeration guard."""


class InfeasibleParamsError(ValueError):
    """Parameters violate a stated precondition (the message names it)."""


class DominationFailure(RuntimeError):
    """No sampling trial met the partial-domination thresholds.

    The message states the threshold and the best attempt's miss count.
    """
