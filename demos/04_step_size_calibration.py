#!/usr/bin/env python3
"""Equal-convergence calibration of the momentum-fractional step size.

Comparing two adaptive algorithms is only fair if they are set up at
equal convergence (then compare steady state) or equal steady state
(then compare convergence).  This demo calibrates the
momentum-fractional base step so its ensemble fitness at iteration 100
matches the paired plain LMS, then shows both full learning curves.
"""

import math

import numpy as np

from lmslab import ScenarioConfig, calibrate_mu1, lms_params, mflms_params, run_monte_carlo

scenario = ScenarioConfig(
    noise_std=math.sqrt(0.30),
    alpha=0.2,
    f=0.25,
    lms_eta=0.027,
    n_runs=200,
    n_iters=1000,
    checkpoint_interval=100,
    base_seed=42,
)

print(f"pairing: LMS(eta={scenario.lms_eta}) vs mFLMS(alpha={scenario.alpha}, f={scenario.f})")
print("calibrating mu1 by bisection on the iteration-100 ensemble fitness...")
mu1 = calibrate_mu1(scenario, tolerance=0.05, calibration_runs=200)
print(f"calibrated mu1 = {mu1:.5f}")
print()

lms = run_monte_carlo(lms_params(scenario.lms_eta), scenario)
mflms = run_monte_carlo(mflms_params(mu1, scenario.alpha, scenario.f), scenario)

print("checkpoint   LMS      mFLMS    ratio")
for it, a, b in zip(scenario.checkpoints, lms.mean_nwd_at_checkpoints,
                    mflms.mean_nwd_at_checkpoints):
    print(f"{it:>10d}   {a:6.4f}   {b:6.4f}   {a / b:5.3f}")

print()
print("Matched at iteration 100 by construction; at the later checkpoints")
print("the momentum-fractional variant settles at or above the plain LMS.")
