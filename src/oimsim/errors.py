"""Exception types shared across the package, and the integer and real rules."""

import numbers
import sys


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


def _finite(value, name, least=0, strict=False):
    """value if it is a real number, finite and >= least (> least when strict),
    never an integer beyond the float range; else SpecificationError."""
    if not (_number(value) and (least < value if strict else least <= value)
            and value <= sys.float_info.max):
        raise SpecificationError(f"{name} must be finite and {'>' if strict else '>='} {least}")
    return value
