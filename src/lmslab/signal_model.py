"""The benchmark signal, its regressor and the parameter transforms.

The estimation target is a sum of ``N`` sinusoids with known angular
frequencies,

    y(n) = sum_k a_k * sin(n*w_k + phi_k) + eps(n),

which is linear in the ``(b, c)`` parameterisation ``b_k = a_k*cos(phi_k)``,
``c_k = a_k*sin(phi_k)``:

    y(n) = psi(n) . theta_bc + eps(n),

with the interleaved regressor ``psi(n) = [sin w_1 n, cos w_1 n, ...]``.
The adaptive filters estimate ``theta_bc``; results are reported in the
amplitude/phase coordinates ``theta_aphi = [a_1..a_N, phi_1..phi_N]``.

The sample index starts at ``n = 1``: at ``n = 0`` every sine component
vanishes, which would bias the first update, so the conventional start
at 1 is used throughout.

The benchmark is one fixed signal of four harmonics: the tuples
``BENCHMARK_AMPLITUDES``, ``BENCHMARK_FREQUENCIES`` and
``BENCHMARK_PHASES`` state it, and the read-only vectors ``FREQUENCIES``,
``THETA_BC`` and ``THETA_APHI`` are built from them once, at import.
Noise is added by the experiment engine, where all randomness lives.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "regressor",
    "bc_from_aphi",
    "aphi_from_bc",
    "BENCHMARK_AMPLITUDES",
    "BENCHMARK_FREQUENCIES",
    "BENCHMARK_PHASES",
    "FREQUENCIES",
    "THETA_BC",
    "THETA_APHI",
]


def _as_vector(x, name: str) -> np.ndarray:
    arr = np.asarray(x, dtype=np.float64)
    if arr.ndim != 1 or arr.size == 0:
        raise ValueError(f"{name} must be a non-empty 1-D vector")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} must be finite")
    return arr


def regressor(frequencies, n) -> np.ndarray:
    """Interleaved sin/cos regressor ``psi(n)`` for known frequencies.

    Parameters
    ----------
    frequencies: array_like, shape (N,)
        Angular frequencies in radians per sample.
    n: int or array_like of int
        Sample index (or indices), each ``>= 1``.

    Returns
    -------
    numpy.ndarray
        Shape ``(2N,)`` for a scalar ``n``, else ``(len(n), 2N)``, laid
        out as ``[sin w_1 n, cos w_1 n, ..., sin w_N n, cos w_N n]``.
    """
    freqs = _as_vector(frequencies, "frequencies")
    n_arr = np.atleast_1d(np.asarray(n, dtype=np.float64))
    if np.any(n_arr < 1):
        raise ValueError("sample index starts at n = 1")
    ang = n_arr[:, None] * freqs[None, :]
    out = np.empty((len(n_arr), 2 * len(freqs)))
    out[:, 0::2] = np.sin(ang)
    out[:, 1::2] = np.cos(ang)
    if np.isscalar(n) or np.ndim(n) == 0:
        return out[0]
    return out


def bc_from_aphi(amplitudes, phases) -> np.ndarray:
    """Map amplitude/phase pairs to the interleaved ``(b, c)`` vector."""
    a = np.atleast_1d(np.asarray(amplitudes, dtype=np.float64))
    phi = np.atleast_1d(np.asarray(phases, dtype=np.float64))
    if a.shape != phi.shape:
        raise ValueError("amplitudes and phases must share a shape")
    out = np.empty(a.shape[:-1] + (2 * a.shape[-1],))
    out[..., 0::2] = a * np.cos(phi)
    out[..., 1::2] = a * np.sin(phi)
    return out


def aphi_from_bc(theta_bc) -> np.ndarray:
    """Recover ``[a_1..a_N, phi_1..phi_N]`` from an interleaved ``(b, c)`` vector.

    The phase uses the quadrant-aware two-argument arctangent, which
    extends the textbook ``atan(c/b)`` to ``b <= 0``; ``b = c = 0`` maps
    to ``a = 0, phi = 0``.  Supports leading batch dimensions.
    """
    theta = np.asarray(theta_bc, dtype=np.float64)
    if theta.shape[-1] % 2:
        raise ValueError("(b, c) vector length must be even")
    b = theta[..., 0::2]
    c = theta[..., 1::2]
    a = b * b
    a += c * c
    np.sqrt(a, out=a)  # in place: a batch holds two temporaries fewer
    return np.concatenate([a, np.arctan2(c, b)], axis=-1)


# The benchmark: four sinusoids, frequencies known to the estimator.
BENCHMARK_AMPLITUDES = (1.8, 2.9, 4.0, 2.5)
BENCHMARK_FREQUENCIES = (0.07, 0.5, 2.0, 1.6)
BENCHMARK_PHASES = (0.95, 0.8, 0.76, 1.1)

# The same as float64 vectors, built once: the angular frequencies and the
# true parameters in the filters' (b, c) space and in the reported
# amplitudes-then-phases order.  Every caller shares them, so they are
# read-only.
FREQUENCIES = np.array(BENCHMARK_FREQUENCIES)
THETA_BC = bc_from_aphi(BENCHMARK_AMPLITUDES, BENCHMARK_PHASES)
THETA_APHI = np.array(BENCHMARK_AMPLITUDES + BENCHMARK_PHASES)
FREQUENCIES.flags.writeable = THETA_BC.flags.writeable = THETA_APHI.flags.writeable = False
