"""Exception types shared across the package."""


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
