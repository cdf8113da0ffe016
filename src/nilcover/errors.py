"""Exception types shared across the library, and the checks of numeric
arguments that raise them."""

import math
import numbers


class NilcoverError(Exception):
    """Base class for all library errors."""


class DomainError(NilcoverError, ValueError):
    """An argument lies outside the mathematical domain of the operation."""


class NoSolutionError(NilcoverError, RuntimeError):
    """A numerical solve found no admissible root."""


class DegenerateLatticeError(NilcoverError, ValueError):
    """Lattice basis with vanishing projected area; no discrete lattice."""


class DegenerateGeometryError(NilcoverError, ValueError):
    """Input points are in special position and the solve cannot proceed."""


def _finite_number(value, message: str) -> float:
    """float(value) for a real number (an int, a float or a numpy scalar,
    not a str) of finite value; an int past the float range counts as inf.
    Anything else raises DomainError(message)."""
    try:
        # float and int first: they pass without the ABC's slower check
        if (isinstance(value, (float, int, numbers.Real))
                and math.isfinite(value)):
            return float(value)
    except OverflowError:  # an int past the float range
        pass
    raise DomainError(message)


def _whole_number(value, least, most, message: str) -> int:
    """int(value) for a finite real number of integral value in
    [least, most]; an integral float is read as that integer.  Anything
    else raises DomainError(message)."""
    if not (_finite_number(value, message).is_integer()
            and least <= value <= most):
        raise DomainError(message)
    return int(value)
