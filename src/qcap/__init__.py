"""Finite-dimensional channel simulator and exact bound checker for the
switched rocket/erasure construction."""

__version__ = "0.1.0"

__all__ = ["__version__", "fmt9"]


def fmt9(x) -> str:
    """A float at 9 significant digits, the format of every float qcap
    prints. It lives here so the exact lane can use it without numpy."""
    return "%.9g" % float(x)
