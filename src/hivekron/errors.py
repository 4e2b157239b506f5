"""Exception types shared across the package, and the integer input checks."""

import operator


class HivekronError(Exception):
    """Base class for all package errors."""


class UnknownVertex(HivekronError):
    pass


class MutationAtFrozen(HivekronError):
    pass


class NotAWeightConfig(HivekronError):
    pass


class SizeTooSmall(HivekronError):
    pass


class OutOfRange(HivekronError):
    pass


def as_ints(values, what: str) -> tuple:
    """values as a tuple of ints; OutOfRange for a float, a string or any
    other non-integer, which is never truncated."""
    values = tuple(values)
    try:
        return tuple(operator.index(x) for x in values)
    except TypeError:
        raise OutOfRange(f"{what} must be integers, got {values}") from None


def as_worker_count(workers) -> int:
    """workers as an int >= 1; OutOfRange for anything else."""
    (workers,) = as_ints((workers,), "worker counts")
    if workers < 1:
        raise OutOfRange(f"worker count must be >= 1, got {workers}")
    return workers


class IndexOutOfRange(HivekronError):
    pass


class WeightConfigInconsistent(HivekronError):
    pass


class WeightRoutesDisagree(HivekronError):
    pass


class UnderdeterminedWeights(HivekronError):
    pass


class UnsupportedDiamond(HivekronError):
    pass


class NonSquare(HivekronError):
    pass


class DegenerateSample(HivekronError):
    pass


class NotBoundaryFrozen(HivekronError):
    pass


class ArrowMissing(HivekronError):
    pass


class UnboundedFibre(HivekronError):
    pass


class SizeMismatch(HivekronError):
    pass


class LengthExceedsL(HivekronError):
    pass


class LengthExceedsM(HivekronError):
    pass


class SizeTooLargeForOracle(HivekronError):
    pass
