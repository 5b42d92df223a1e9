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

Before the steady state, LMS has an exact oracle.  The regressor is
deterministic and the noise Gaussian, so the weight error ``e = theta -
w`` (in ``bc`` space) is Gaussian at every iteration: ``e' = A e - eta *
sigma * z * u`` with ``A = I - eta u u^T``, from ``e0 ~ N(theta, I)``
(the weights start at standard normal draws).  Its second moment follows

    P' = A P A^T + eta^2 * sigma^2 * u u^T,    P0 = theta theta^T + I,

and ``trace(P)`` is the mean-square deviation at every iteration, the
transient included, which a run's ``NWD^2 * ||theta||^2`` estimates.
Momentum LMS (``v' = alpha v + mu e u``, ``w' = w + v'``, from ``v0 =
0``) has one too, over the state ``x = [w - theta; v]``: ``x' = A x +
mu * sigma * z * [u; u]`` with ``A = [[I - mu u u^T, alpha I], [-mu u
u^T, alpha I]]``, so

    P' = A P A^T + mu^2 * sigma^2 * [u; u] [u; u]^T,

from ``P0`` holding ``theta theta^T + I`` in its top-left block and
zeros elsewhere, and the MSD is the trace of that block.  At ``alpha =
0`` its top-left block follows the LMS recursion.
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
from lmslab.signal_model import FREQUENCIES, THETA_BC, regressor
from test_experiment import simulate_one

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
# The engine's 1000-run LMS MSD over the exact one, at every checkpoint of
# the three paired (level, eta) cells, read 0.9689-1.0379 at seeds 42, 7
# and 1234 (at most 3.8% off; one 1000-run MSD has a sampling error of
# about sqrt(2/8/1000) = 1.6%), so a 5% band leaves a margin of 1.2%.
# The test checks two other seeds, which read 0.9694-1.0283.  Momentum
# LMS at mu = eta * (1 - alpha), at the three paired (level, alpha, eta)
# cells, read 0.9690-1.0366 at seeds 42 and 7 (a margin of 1.3%), and
# 0.9656-1.0410 at the two seeds the test checks.
EXACT_MSD_BAND = 0.05


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


def exact_msd(level: float, mu: float, alpha: float, sc: ScenarioConfig) -> np.ndarray:
    """The momentum-LMS (LMS at ``alpha = 0``) MSD at each of ``sc``'s checkpoints, by the exact recursion."""
    u = regressor(FREQUENCIES, np.arange(1, sc.n_iters + 1))
    p = np.zeros((2 * M, 2 * M))
    p[:M, :M] = np.outer(THETA_BC, THETA_BC) + np.eye(M)
    msd = []
    for k in range(sc.n_iters):
        uu = np.outer(u[k], u[k])
        a = np.block([[np.eye(M) - mu * uu, alpha * np.eye(M)], [-mu * uu, alpha * np.eye(M)]])
        p = a @ p @ a.T + mu**2 * level * np.tile(uu, (2, 2))
        if (k + 1) % sc.checkpoint_interval == 0:
            msd.append(np.trace(p[:M, :M]))
    return np.array(msd)


def engine_msd(params: FilterParams, sc: ScenarioConfig) -> np.ndarray:
    """The engine's bc-space MSD at each checkpoint: ``mean(NWD^2) * ||theta||^2`` over ``sc``'s runs."""
    nwd_ck, _, frozen = simulate_one(params, sc, range(sc.n_runs))
    assert not frozen.any()
    return (nwd_ck**2).mean(axis=0) * (THETA_BC @ THETA_BC)


@pytest.mark.parametrize("seed", [11, 2024])
@pytest.mark.parametrize("level, eta", [(0.30, 0.027), (0.60, 0.042), (0.90, 0.1)])
def test_lms_transient_matches_the_exact_recursion(level, eta, seed):
    sc = ScenarioConfig(
        noise_std=math.sqrt(level), alpha=0.0, f=0.25, lms_eta=eta,
        n_runs=1000, n_iters=1000, checkpoint_interval=100, base_seed=seed,
        metric_space=MetricSpace.BC,
    )
    np.testing.assert_allclose(engine_msd(lms_params(eta), sc), exact_msd(level, eta, 0.0, sc),
                               rtol=EXACT_MSD_BAND)


@pytest.mark.parametrize("seed", [11, 2024])
@pytest.mark.parametrize("level, alpha, eta", [(0.30, 0.2, 0.027), (0.60, 0.5, 0.042), (0.90, 0.8, 0.1)])
def test_momentum_lms_transient_matches_the_exact_recursion(level, alpha, eta, seed):
    mu = eta * (1 - alpha)
    sc = ScenarioConfig(
        noise_std=math.sqrt(level), alpha=alpha, f=0.25, lms_eta=eta,
        n_runs=1000, n_iters=1000, checkpoint_interval=100, base_seed=seed,
        metric_space=MetricSpace.BC,
    )
    params = FilterParams(mu1=mu, muf=0.0, f=0.5, alpha=alpha, variant=Variant.MOMENTUM_LMS)
    np.testing.assert_allclose(engine_msd(params, sc), exact_msd(level, mu, alpha, sc), rtol=EXACT_MSD_BAND)
