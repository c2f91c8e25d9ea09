"""Exception types shared across the package."""


class ParseError(ValueError):
    """A file or mini-grammar string could not be parsed."""


class SpaceMismatchError(ValueError):
    """Two vectors living on different measure spaces were combined."""


class Refusal(Exception):
    """A hypothesis of the requested operation fails for its inputs. The
    CLI reports these, and only these, with exit code 4."""


class SlopeConditionError(Refusal, RuntimeError):
    """An operation requiring lim Phi(t)/t = +inf was given a function that
    fails it (equivalently: its conjugate is not finite-valued)."""


class NumericFailure(RuntimeError):
    """A numeric search failed to bracket or converge."""


class ClosureRefusal(Refusal, RuntimeError):
    """Target point lies outside the convex set beyond tolerance."""

    def __init__(self, message: str, margin: float):
        super().__init__(message)
        self.margin = margin
