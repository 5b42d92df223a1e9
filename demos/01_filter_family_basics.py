#!/usr/bin/env python3
"""Tour of the filter family on a tiny identification problem.

Shows the one-step update rules, the reduction chain connecting them
(momentum-fractional -> fractional -> plain LMS), and why the collapsed
published recursion can never leave an all-zero start while the
corrected recursion escapes immediately.
"""

import numpy as np

from lmslab import (
    FilterParams,
    FilterState,
    Variant,
    default_muf,
    step,
)

rng = np.random.default_rng(0)

# A 4-tap system to identify: d = u . theta + noise.
theta = np.array([0.8, -0.4, 1.5, 0.3])
M = len(theta)


def run(params, n_steps=400, w0=None, noise_std=0.05):
    gen = np.random.default_rng(1)
    w = np.zeros(M) if w0 is None else np.asarray(w0, dtype=float)
    state = FilterState(w=w.copy(), w_prev=w.copy(), v=np.zeros(M))
    for n in range(n_steps):
        u = gen.normal(0, 1, M)
        d = float(u @ theta + gen.normal(0, noise_std))
        state, record = step(state, u, d, params)
    return state.w


print("target weights:", theta)
print()

lms = FilterParams(mu1=0.05, muf=0.0, f=0.5, alpha=0.0, variant=Variant.LMS)
print("LMS(mu1=0.05)              ->", np.round(run(lms), 3))

flms = FilterParams(mu1=0.05, muf=default_muf(0.05, 0.5), f=0.5, alpha=0.0,
                    variant=Variant.FLMS)
print("FLMS(f=0.5)                ->", np.round(run(flms), 3))

mflms = FilterParams(mu1=0.03, muf=default_muf(0.03, 0.5), f=0.5, alpha=0.4,
                     variant=Variant.MFLMS_ASSEMBLED)
print("mFLMS(f=0.5, alpha=0.4)    ->", np.round(run(mflms), 3))

print()
print("Reduction chain: with alpha = 0 and mu_f = 0 every variant collapses")
print("to plain LMS, bit for bit.")
collapsed = FilterParams(mu1=0.05, muf=0.0, f=0.5, alpha=0.0,
                         variant=Variant.MFLMS_ASSEMBLED)
print("mFLMS(alpha=0, mu_f=0) == LMS:",
      np.array_equal(run(collapsed), run(lms)))

print()
print("The collapsed published recursion drops the plain gradient term, so")
print("from w = 0 the update is proportional to |w|**(1-f) = 0 and nothing")
print("ever moves; the corrected recursion keeps the term and escapes.")
# Both read mu1 where mFLMS reads muf/Gamma(2-f), so they take muf = 0.
published = FilterParams(mu1=0.05, muf=0.0, f=0.5, alpha=0.4,
                         variant=Variant.MFLMS_PUBLISHED16)
corrected = FilterParams(mu1=0.05, muf=0.0, f=0.5, alpha=0.4,
                         variant=Variant.MFLMS_CORRECTED)
print("published form after 400 steps:", run(published))
print("corrected form after 400 steps:", np.round(run(corrected), 3))
