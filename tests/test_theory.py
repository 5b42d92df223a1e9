"""Steady-state theory as an oracle independent of the engine's history.

With the benchmark's regressor (four harmonics at distinct frequencies)
the input correlation matrix is ``R = I/2`` with ``M = 8`` taps, so
``tr R = 4``.  Textbook LMS theory (Haykin, *Adaptive Filter Theory*;
Sayed, *Fundamentals of Adaptive Filtering*, 2003) gives the
steady-state mean-square deviation

    MSD = eta * sigma^2 * M / (2 * (1 - eta * tr(R) / 2)),

spread evenly over the eight (isotropic) weight errors.  The mean of the
error norm is then ``sqrt(MSD) * c_8`` with ``c_8 = E[chi_8] / sqrt(8)``,
so the Monte-Carlo NWD over ``sqrt(MSD) / ||theta||`` should read
``c_8 = 0.9693``.  Momentum LMS with coefficient ``alpha`` behaves like
LMS at ``mu / (1 - alpha)`` for small steps (Sharma, Sethares & Bucklew,
IEEE TSP 1998), so running it at ``mu = eta * (1 - alpha)`` must give
the same ratio.

Momentum-fractional LMS at the default ``muf = mu1 * Gamma(2 - f)``
steps by ``mu1 * (1 + |w_i|^(1-f)) * e * psi_i`` through the momentum
accumulator.  Near ``theta_bc`` that is LMS with the fixed diagonal step
matrix ``D = mu1 * diag(1 + |theta_bc,i|^(1-f)) / (1 - alpha)``, whose
steady-state error is Gaussian with covariance
``sigma^2 * D / (2 * (1 - tr(D) / 4))``.  Its mean norm has no closed
form and is averaged over seeded standard normal draws.
"""

import math

import numpy as np
import pytest

from lmslab.experiment import (
    ALPHAS,
    PAIRED_LMS_ETAS,
    ScenarioConfig,
    lms_params,
    mflms_params,
    run_monte_carlo,
)
from lmslab.filters import FilterParams, Variant
from lmslab.metrics import MetricSpace
from lmslab.signal_model import THETA_BC

M = 8
TRACE_R = M / 2
C_8 = math.sqrt(2) * math.gamma((M + 1) / 2) / math.gamma(M / 2) / math.sqrt(M)

# Observed at seed 42 with 300 runs: LMS 0.9656-0.9708 (within 0.4% of
# c_8), so a 1% band leaves a margin of 0.6%.  Momentum LMS 0.9587-0.9645
# (up to 1.1% below c_8, the most at alpha = 0.8, where the small-step
# equivalence is loosest), so a 2% band leaves a margin of 0.9%.
LMS_BAND = 0.01
MOMENTUM_BAND = 0.02
# mFLMS at mu1 = 0.01, observed at seed 42 with 300 runs: 0.50-0.83%
# below the diagonal-step prediction for alpha <= 0.5, so a 1.5% band
# leaves a margin of 0.67%; 1.55-2.55% below it at alpha = 0.8, where the
# momentum equivalence is loosest, so a 3.5% band leaves 0.95%.  The
# exponent f in place of 1 - f misses by 10-13%.
MFLMS_BAND = 0.015
MFLMS_HIGH_MOMENTUM_BAND = 0.035


def steady_nwd(params: FilterParams, level: float, eta: float, alpha: float, f: float = 0.25) -> float:
    """Monte-Carlo mean NWD (``bc`` space) over checkpoints 500-1000."""
    sc = ScenarioConfig(
        noise_std=math.sqrt(level), alpha=alpha, f=f, lms_eta=eta,
        n_runs=300, n_iters=1000, checkpoint_interval=100, base_seed=42,
        metric_space=MetricSpace.BC,
    )
    aggregate = run_monte_carlo(params, sc)
    assert aggregate.divergence_count == 0
    return float(aggregate.mean_nwd_at_checkpoints[sc.checkpoints >= 500].mean())


def steady_state_ratio(params: FilterParams, level: float, eta: float, alpha: float) -> float:
    """Mean NWD over checkpoints 500-1000 in units of the theory's ``sqrt(MSD)/||theta||``."""
    msd = eta * level * M / (2 * (1 - eta * TRACE_R / 2))
    return steady_nwd(params, level, eta, alpha) / (math.sqrt(msd) / np.linalg.norm(THETA_BC))


def diagonal_step_nwd(level: float, mu1: float, alpha: float, f: float) -> float:
    """Mean NWD of the Gaussian steady-state error of LMS with the step matrix ``D``."""
    d = mu1 * (1 + np.abs(THETA_BC) ** (1 - f)) / (1 - alpha)
    covariance = level * d / (2 * (1 - d.sum() / 4))
    # 2^16 draws: a sampling error of about 0.1% of the mean norm.
    z = np.random.default_rng(0).standard_normal((2**16, M))
    return float(np.linalg.norm(z * np.sqrt(covariance), axis=1).mean() / np.linalg.norm(THETA_BC))


PAIRS = list(zip(ALPHAS, PAIRED_LMS_ETAS))


def test_chi_mean_constant():
    assert C_8 == pytest.approx(0.9693, abs=1e-4)


@pytest.mark.parametrize("level", [0.30, 0.90])
@pytest.mark.parametrize("alpha, eta", PAIRS)
def test_lms_misadjustment_matches_theory(level, alpha, eta):
    ratio = steady_state_ratio(lms_params(eta), level, eta, alpha)
    assert ratio == pytest.approx(C_8, rel=LMS_BAND)


@pytest.mark.parametrize("level", [0.30, 0.90])
@pytest.mark.parametrize("alpha, eta", PAIRS)
def test_momentum_lms_matches_lms_at_effective_step(level, alpha, eta):
    params = FilterParams(
        mu1=eta * (1 - alpha), muf=0.0, f=0.5, alpha=alpha, variant=Variant.MOMENTUM_LMS
    )
    ratio = steady_state_ratio(params, level, eta, alpha)
    assert ratio == pytest.approx(C_8, rel=MOMENTUM_BAND)


@pytest.mark.parametrize("level", [0.30, 0.90])
@pytest.mark.parametrize("alpha, eta", PAIRS)
@pytest.mark.parametrize("f", [0.25, 0.75])
def test_mflms_matches_lms_with_diagonal_step(level, alpha, eta, f):
    mu1 = 0.01
    steady = steady_nwd(mflms_params(mu1, alpha, f), level, eta, alpha, f)
    band = MFLMS_BAND if alpha <= 0.5 else MFLMS_HIGH_MOMENTUM_BAND
    assert steady == pytest.approx(diagonal_step_nwd(level, mu1, alpha, f), rel=band)
