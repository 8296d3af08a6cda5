"""Finite-dimensional channel simulator and exact bound checker for the
switched rocket/erasure construction."""

from fractions import Fraction

__version__ = "0.1.0"

__all__ = ["__version__", "as_fraction", "fmt9"]


def fmt9(x) -> str:
    """A float at 9 significant digits, the format of every float qcap
    prints. It lives here so the exact lane can use it without numpy."""
    return "%.9g" % float(x)


def as_fraction(x) -> Fraction:
    """An int, Fraction, "a/b" string or float as a Fraction; a float reads
    as the decimal it prints as (0.1 is 1/10). Anything else, a bool (a
    JSON true is not the number 1), a bad string and a zero denominator
    raise ValueError. Standard library only, like fmt9, so the exact lane
    stays free of numpy."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, float):
        x = str(x)
    elif isinstance(x, bool) or not isinstance(x, (int, str)):
        raise ValueError(f"cannot interpret {x!r} as a rational")
    try:
        return Fraction(x)
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"bad rational {x!r}: {exc}") from None
