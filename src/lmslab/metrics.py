"""Fitness and estimation-error measures.

Two measures are used throughout the benchmark:

* ``nwd`` -- normalized weight difference ``||theta_hat - theta|| / ||theta||``,
  the fitness tracked along learning curves;
* ``mse`` -- mean of squared coordinate errors of a final estimate.

Either can be evaluated in the interleaved ``(b, c)`` weight space or in
amplitude/phase space; :class:`MetricSpace` selects which.  Phases are
compared without angle wrapping: every benchmark phase and any converged
estimate lives well inside ``(0, pi/2)``, where wrapping is unreachable.
"""

from __future__ import annotations

import enum

import numpy as np

__all__ = ["MetricSpace", "nwd", "mse"]


class MetricSpace(enum.Enum):
    """Parameter space a metric is evaluated in."""

    BC = "bc"
    APHI = "aphi"


def _norm(x: np.ndarray) -> np.ndarray:
    # sqrt of an explicit pairwise sum; deterministic, BLAS-free.
    return np.sqrt((x * x).sum(axis=-1))


def nwd(theta_hat, theta) -> float | np.ndarray:
    """Normalized weight difference ``||theta_hat - theta|| / ||theta||``.

    ``theta_hat`` may carry leading batch dimensions; ``theta`` is the
    1-D truth vector and must have non-zero norm.
    """
    theta_hat = np.asarray(theta_hat, dtype=np.float64)
    theta = np.asarray(theta, dtype=np.float64)
    if theta_hat.shape[-1] != theta.shape[-1]:
        raise ValueError("estimate and truth must share a length")
    denom = _norm(theta)
    if not denom > 0:
        raise ValueError("truth vector must have non-zero norm")
    diff = theta_hat - theta
    diff *= diff  # squared in place: a batch of estimates needs one temporary fewer
    out = np.sqrt(diff.sum(axis=-1)) / denom
    return float(out) if out.ndim == 0 else out


def mse(theta_hat, theta) -> float | np.ndarray:
    """Mean squared coordinate error between two parameter vectors.

    Symmetric in its arguments; supports leading batch dimensions on
    ``theta_hat``.
    """
    theta_hat = np.asarray(theta_hat, dtype=np.float64)
    theta = np.asarray(theta, dtype=np.float64)
    if theta_hat.shape[-1] != theta.shape[-1]:
        raise ValueError("estimate and truth must share a length")
    diff = theta_hat - theta
    out = (diff * diff).mean(axis=-1)
    return float(out) if out.ndim == 0 else out
