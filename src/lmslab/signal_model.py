"""Multi-harmonic signal model, regressor construction and parameter transforms.

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

Noise is injected by the caller (a pre-drawn scalar), keeping these
functions deterministic; all randomness lives in the experiment engine.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "HarmonicSpec",
    "ModelTruth",
    "regressor",
    "synthesize",
    "bc_from_aphi",
    "aphi_from_bc",
    "benchmark_spec",
    "BENCHMARK_AMPLITUDES",
    "BENCHMARK_FREQUENCIES",
    "BENCHMARK_PHASES",
]

# Built-in benchmark: four sinusoids, frequencies known to the estimator.
BENCHMARK_AMPLITUDES = (1.8, 2.9, 4.0, 2.5)
BENCHMARK_FREQUENCIES = (0.07, 0.5, 2.0, 1.6)
BENCHMARK_PHASES = (0.95, 0.8, 0.76, 1.1)


def _as_vector(x, name: str) -> np.ndarray:
    arr = np.asarray(x, dtype=np.float64)
    if arr.ndim != 1 or arr.size == 0:
        raise ValueError(f"{name} must be a non-empty 1-D vector")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} must be finite")
    return arr


@dataclass(frozen=True)
class HarmonicSpec:
    """Amplitudes, angular frequencies and phases of a multi-harmonic signal.

    ``noise_std`` is the standard deviation of the additive Gaussian
    disturbance ``eps(n)``.
    """

    amplitudes: np.ndarray
    frequencies: np.ndarray
    phases: np.ndarray
    noise_std: float = 0.0

    def __post_init__(self):
        a = _as_vector(self.amplitudes, "amplitudes")
        w = _as_vector(self.frequencies, "frequencies")
        p = _as_vector(self.phases, "phases")
        if not (len(a) == len(w) == len(p)):
            raise ValueError("amplitudes, frequencies and phases must share a length")
        # Zero amplitudes express degenerate (pure noise) test signals.
        if np.any(a < 0):
            raise ValueError("amplitudes must be non-negative")
        if self.noise_std < 0:
            raise ValueError("noise_std must be non-negative")
        object.__setattr__(self, "amplitudes", a)
        object.__setattr__(self, "frequencies", w)
        object.__setattr__(self, "phases", p)

    @property
    def n_harmonics(self) -> int:
        return len(self.amplitudes)


@dataclass(frozen=True)
class ModelTruth:
    """True parameters in both coordinate systems.

    ``theta_bc`` interleaves ``[b_1, c_1, ..., b_N, c_N]`` (the weight
    space the filters adapt in); ``theta_aphi`` lists all amplitudes then
    all phases (the space results are reported in).
    """

    theta_bc: np.ndarray
    theta_aphi: np.ndarray

    def __post_init__(self):
        bc = _as_vector(self.theta_bc, "theta_bc")
        ap = _as_vector(self.theta_aphi, "theta_aphi")
        if len(bc) != len(ap) or len(bc) % 2:
            raise ValueError("parameter vectors must share an even length")
        object.__setattr__(self, "theta_bc", bc)
        object.__setattr__(self, "theta_aphi", ap)
        # Cross-consistency of the two coordinate systems.
        n = len(bc) // 2
        a, phi = ap[:n], ap[n:]
        if not np.allclose(bc, bc_from_aphi(a, phi), rtol=0, atol=1e-12):
            raise ValueError("theta_bc and theta_aphi describe different signals")

    @classmethod
    def from_aphi(cls, amplitudes, phases) -> "ModelTruth":
        a = _as_vector(amplitudes, "amplitudes")
        phi = _as_vector(phases, "phases")
        theta_aphi = np.concatenate([a, phi])
        return cls(theta_bc=bc_from_aphi(a, phi), theta_aphi=theta_aphi)


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


def synthesize(spec: HarmonicSpec, n: int, noise: float) -> float:
    """One sample of the signal model: ``psi(n) . theta_bc + noise``.

    ``noise`` is supplied by the caller (typically a pre-drawn Gaussian
    variate with standard deviation ``spec.noise_std``).
    """
    if np.ndim(n) != 0:
        raise ValueError("synthesize() takes a scalar sample index")
    theta_bc = bc_from_aphi(spec.amplitudes, spec.phases)
    psi = regressor(spec.frequencies, n)
    return float((psi * theta_bc).sum(axis=-1) + noise)


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


def benchmark_spec(noise_std: float = 0.0) -> tuple[HarmonicSpec, ModelTruth]:
    """The built-in four-harmonic benchmark and its true parameters."""
    spec = HarmonicSpec(
        amplitudes=np.array(BENCHMARK_AMPLITUDES),
        frequencies=np.array(BENCHMARK_FREQUENCIES),
        phases=np.array(BENCHMARK_PHASES),
        noise_std=noise_std,
    )
    truth = ModelTruth.from_aphi(spec.amplitudes, spec.phases)
    return spec, truth
