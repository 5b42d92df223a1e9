#!/usr/bin/env python3
"""The built-in benchmark signal and its two parameter coordinate systems.

A four-harmonic signal with known frequencies is linear in the
interleaved (b, c) = (a cos phi, a sin phi) parameters, which is what
makes LMS-style adaptation applicable; results are reported in the
amplitude/phase coordinates.
"""

import numpy as np

from lmslab import aphi_from_bc, bc_from_aphi, regressor
from lmslab.signal_model import (
    BENCHMARK_AMPLITUDES,
    BENCHMARK_FREQUENCIES,
    BENCHMARK_PHASES,
    FREQUENCIES,
    THETA_APHI,
    THETA_BC,
)

NOISE_STD = 0.5

print("benchmark harmonics:")
for k, (a, w, p) in enumerate(zip(BENCHMARK_AMPLITUDES, BENCHMARK_FREQUENCIES, BENCHMARK_PHASES), start=1):
    print(f"  {k}: amplitude {a:4.1f}, angular frequency {w:4.2f} rad/sample, phase {p:4.2f} rad")

print()
print("truth in amplitude/phase order:", THETA_APHI)
print("truth in interleaved (b, c):   ", np.round(THETA_BC, 4))
print("round trip through the transforms:",
      np.allclose(aphi_from_bc(THETA_BC), THETA_APHI, atol=1e-12)
      and np.array_equal(bc_from_aphi(BENCHMARK_AMPLITUDES, BENCHMARK_PHASES), THETA_BC))

print()
print("regressor rows psi(n) = [sin w1 n, cos w1 n, ...] for n = 1..3:")
for n in (1, 2, 3):
    print(f"  psi({n}) =", np.round(regressor(FREQUENCIES, n), 4))
print("||psi(n)||^2 equals the harmonic count:",
      float((regressor(FREQUENCIES, 123) ** 2).sum()))

print()
print("clean samples y(n) = psi(n) . theta_bc for n = 1..8:")
clean = (regressor(FREQUENCIES, np.arange(1, 9)) * THETA_BC).sum(axis=-1)
print(" ", np.round(clean, 4))

rng = np.random.default_rng(7)
noisy = [y + rng.normal(0, NOISE_STD) for y in clean]
print(f"with injected Gaussian noise (std {NOISE_STD}):")
print(" ", np.round(noisy, 4))
