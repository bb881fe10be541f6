"""Exception types shared across the package, and the rule for each kind of input."""

import contextlib
import math
import numbers
import sys
from collections.abc import Iterable

import numpy as np


class OimError(Exception):
    """Base class for all oimsim errors."""


class DimensionError(OimError):
    """Array lengths disagree with the problem size."""


class SpecificationError(OimError):
    """Inconsistent construction arguments (bad topology, invalid params)."""


class ParseError(OimError):
    """Malformed input file. Carries the offending location when known."""

    def __init__(self, message, line=None, path=None):
        loc = []
        if path is not None:
            loc.append(str(path))
        if line is not None:
            loc.append(f"line {line}")
        if loc:
            message = f"{message} ({', '.join(loc)})"
        super().__init__(message)
        self.line = line
        self.path = path


class CapacityError(OimError):
    """Requested exact computation exceeds the hard size guard."""


class NumericalDivergenceError(OimError):
    """Integration produced non-finite phases.

    Carries the step index, and the seed and problem (its name, or its
    position in a packed group when unnamed) of the first diverged run.
    """

    def __init__(self, message, step=None, seed=None, problem=None):
        if step is not None:
            message = f"{message} (by step {step})"
        if seed is not None:
            message = f"{message} [seed {seed}]"
        if problem is not None:
            message = f"{message} [problem {problem!r}]"
        super().__init__(message)
        self.step = step
        self.seed = seed
        self.problem = problem


def _number(value, kind=numbers.Real):
    """Whether value is a `kind` number (Python or numpy); True and False,
    though Python ints, are not numbers here."""
    return isinstance(value, kind) and not isinstance(value, bool)


def _integer(value, name, least):
    """value if it is an integer (Python or numpy) >= least; else SpecificationError."""
    if not _number(value, numbers.Integral) or value < least:
        raise SpecificationError(f"{name} must be an integer >= {least}")
    return value


def _finite_real(value):
    """Whether value is a real number (see _number) that is finite: an int by
    its size, any other number by math.isfinite, so that no numpy scalar is cast."""
    return _number(value) and (
        abs(value) <= sys.float_info.max if isinstance(value, int) else math.isfinite(value))


def _finite(value, name, least=0, strict=False):
    """value as a Python number (a numpy scalar's .item()) if it is a finite
    real number >= least (> least when strict); else SpecificationError."""
    x = float(value) if _finite_real(value) else math.nan
    if not (least < x if strict else least <= x):
        raise SpecificationError(f"{name} must be finite and {'>' if strict else '>='} {least}")
    return value.item() if isinstance(value, np.generic) else value


def _reals(value, name):
    """A new float64 array of value (an array, any other iterable or a scalar) if
    each entry is a finite real number, not a bool, judging an array by its dtype
    and a list by its entries' types; else SpecificationError with .index, the
    first bad entry's flat index (None for ragged nesting)."""
    entries = np.empty(0)
    with contextlib.suppress(ValueError, OverflowError):  # ragged nesting; an int beyond float64
        entries = value if isinstance(value, np.ndarray) else np.array(
            list(value) if isinstance(value, Iterable) else value, dtype=object)
        kinds = set(map(type, entries.flat)) if entries.dtype == object else {entries.dtype.type}
        if (all(issubclass(t, numbers.Real) and t is not bool for t in kinds)
                and np.isfinite(arr := entries.astype(np.float64)).all()):
            return arr
    error = SpecificationError(f"{name} must be finite real numbers, not booleans or strings")
    k, x = next(((k, x) for k, x in enumerate(entries.flat) if not _finite_real(x)), (None, ()))
    error.index = None if isinstance(x, (list, tuple, np.ndarray)) else k
    raise error


def _one_or_many(value, kind, name):
    """(value,) if value is not iterable, else tuple(value); SpecificationError
    unless that holds at least one item and each item is a `kind`."""
    items = tuple(value) if isinstance(value, Iterable) else (value,)
    if not items or not all(isinstance(x, kind) for x in items):
        raise SpecificationError(f"{name} must be one {kind.__name__} or a non-empty sequence")
    return items
