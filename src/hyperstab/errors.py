"""Exception types shared across the package, and its one check of a number
read from a JSON input."""

import sys

_FLOAT_MAX = int(sys.float_info.max)


def is_number(value) -> bool:
    """True for a JSON number: a float, or an int within the float range. A
    bool is an int to Python and a quoted number is a str; neither counts."""
    if isinstance(value, float):
        return True
    return isinstance(value, int) and not isinstance(value, bool) and abs(value) <= _FLOAT_MAX


class HyperstabError(Exception):
    """Base class for all package errors."""


class ZeroDenominator(HyperstabError):
    pass


class ZeroNumerator(HyperstabError):
    pass


class ImproperTransferFunction(HyperstabError):
    pass


class DegenerateInput(HyperstabError):
    pass


class EvaluationAtPole(HyperstabError):
    pass


class RepeatedAxisPole(HyperstabError):
    pass


class PoleOnGrid(HyperstabError):
    pass


class GridMismatch(HyperstabError):
    pass


class TimeOutOfRange(HyperstabError):
    pass


class DimensionMismatch(HyperstabError):
    pass


class InvalidParams(HyperstabError):
    pass


class DeclarationViolated(HyperstabError):
    pass


class AlgebraicLoopNoConvergence(HyperstabError):
    pass


class GradeUnsupported(HyperstabError):
    pass


class SchemaError(HyperstabError):
    pass
