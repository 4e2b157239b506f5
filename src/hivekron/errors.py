"""Six exception types, and the integer input checks."""

import operator


class HivekronError(Exception):
    """Base class for all package errors."""


class OutOfRange(HivekronError):
    """An input the construction does not accept: a size, an index, a
    vertex, a mutation at a frozen vertex, a weight that is no weight
    configuration, or partitions of different sizes or lengths."""


class Inconsistent(HivekronError):
    """A construction contradicts the paper: unbalanced weights, two
    routes that disagree, a missing arrow or a non-square presentation."""


class DegenerateSample(HivekronError):
    """A random representation on which a semi-invariant vanishes."""


class UnboundedFibre(HivekronError):
    """A fibre of the cone that is not a polytope."""


class SizeTooLargeForOracle(HivekronError):
    """n beyond the character oracle's reach."""


def as_ints(values, what: str) -> tuple:
    """values as a tuple of ints; OutOfRange for a float, a string or any
    other non-integer, which is never truncated."""
    values = tuple(values)
    try:
        return tuple(map(operator.index, values))
    except TypeError:
        raise OutOfRange(f"{what} must be integers, got {values}") from None


def as_worker_count(workers) -> int:
    """workers as an int >= 1; OutOfRange for anything else."""
    (workers,) = as_ints((workers,), "worker counts")
    if workers < 1:
        raise OutOfRange(f"worker count must be >= 1, got {workers}")
    return workers
