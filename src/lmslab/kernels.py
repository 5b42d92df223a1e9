"""Scalar special functions and element-wise vector kernels.

These are the numerical primitives shared by every filter variant: the
Gamma function (needed for the fractional step-size normalisation) and
the element-wise fractional magnitude ``|w|**p``, which the batched
kernel (:func:`lmslab.filters.advance`) evaluates inline, without
re-checking an exponent its update rule has validated.

Everything here is a pure function of its arguments and safe to call
from any number of threads.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["gamma", "abs_pow", "GAMMA_DOMAIN"]

# Supported domain for gamma(); the filters only ever need (1, 2) but a
# wider range makes the recurrence Gamma(x+1) = x*Gamma(x) testable.
GAMMA_DOMAIN = (0.0, 3.0)

# Lanczos approximation, g = 7, 9 coefficients.  Gives ~1e-14 relative
# accuracy on the supported domain, comfortably below the 1e-12 contract.
_LANCZOS_G = 7.0
_LANCZOS_COEFFS = (
    0.99999999999980993,
    676.5203681218851,
    -1259.1392167224028,
    771.32342877765313,
    -176.61502916214059,
    12.507343278686905,
    -0.13857109526572012,
    9.9843695780195716e-6,
    1.5056327351493116e-7,
)


def _lanczos(x: float) -> float:
    # Valid for x >= 0.5.
    acc = _LANCZOS_COEFFS[0]
    for i, c in enumerate(_LANCZOS_COEFFS[1:], start=1):
        acc += c / (x - 1.0 + i)
    t = x - 0.5 + _LANCZOS_G
    return math.sqrt(2.0 * math.pi) * t ** (x - 0.5) * math.exp(-t) * acc


def gamma(x: float) -> float:
    """Gamma function on the interval (0, 3].

    Parameters
    ----------
    x: float
        Evaluation point.  Must lie in ``(0, 3]``; values outside raise
        ``ValueError``.

    Returns
    -------
    float
        ``Gamma(x)``, accurate to better than 1e-12 absolute error.
    """
    x = float(x)
    if not math.isfinite(x) or x <= GAMMA_DOMAIN[0] or x > GAMMA_DOMAIN[1]:
        raise ValueError(f"gamma() is defined on (0, 3], got {x!r}")
    if x < 0.5:
        # Reflection formula keeps the Lanczos series in its sweet spot.
        return math.pi / (math.sin(math.pi * x) * _lanczos(1.0 - x))
    return _lanczos(x)


def abs_pow(w, p: float) -> np.ndarray:
    """Element-wise ``|w_i|**p`` for an exponent ``p`` in [0, 1].

    The convention ``0**0 == 1`` applies (numpy's native behaviour),
    which keeps the ``p -> 0`` limit continuous.  ``0**p == 0`` for
    ``p > 0``.

    Parameters
    ----------
    w: array_like
        Input values, any shape.
    p: float
        Exponent in ``[0, 1]``.

    Returns
    -------
    numpy.ndarray
        Array of the same shape as ``w`` with non-negative entries.
    """
    p = float(p)
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"exponent must lie in [0, 1], got {p!r}")
    w = np.asarray(w, dtype=np.float64)
    return np.power(np.abs(w), p)
