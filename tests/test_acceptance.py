"""Acceptance suite: the benchmark's exit criteria, one test per criterion.

Each test prints a single ``[criterion N] name: PASS/FAIL`` line (visible
with ``pytest tests/test_acceptance.py -v -s``) and asserts the stated
tolerance.  The Monte-Carlo criteria run at the reduced desk-scale
ensemble sizes written into them; the statistical bands account for
that reduction.
"""

import math
import time
from dataclasses import replace

import mpmath
import numpy as np
import pytest

from lmslab.cli import main as cli_main
from lmslab.experiment import (
    GridConfig,
    ScenarioConfig,
    calibrate_mu1,
    full_grid,
    lms_params,
    run_monte_carlo,
)
from lmslab.filters import (
    FilterParams,
    FilterState,
    Variant,
    step,
)
from lmslab.filters import gamma
from lmslab.metrics import nwd
from lmslab.signal_model import FREQUENCIES, THETA_APHI, THETA_BC, aphi_from_bc, regressor

from test_filters import naive_step

mpmath.mp.dps = 50

SEED = 42
SIGMA_030 = math.sqrt(0.30)  # noise level 0.30 read as a variance


def announce(num, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {num:2d}] {name}: {status}  {detail}")
    assert ok, f"criterion {num} ({name}): {detail}"


def steady_state(aggregate, checkpoints, first_iteration=300):
    mask = checkpoints >= first_iteration
    return float(aggregate.mean_nwd_at_checkpoints[mask].mean())


@pytest.fixture(scope="module")
def grid300():
    """The 27-scenario grid plus 9 paired LMS rows at 300 runs, calibrated."""
    return full_grid(GridConfig(n_runs=300, base_seed=SEED))


def random_step_inputs(rng):
    m = int(rng.integers(1, 9))
    w = rng.normal(0, 2, m)
    v = rng.normal(0, 1, m)
    u = rng.normal(0, 1.5, m)
    d = float(rng.normal(0, 2))
    mu1 = float(rng.uniform(0.01, 0.4))
    muf = float(rng.uniform(0.0, 0.3))
    f = float(rng.uniform(0.05, 0.95))
    return m, w, v, u, d, mu1, muf, f


def test_criterion_1_reduction_identities():
    t0 = time.perf_counter()
    rng = np.random.default_rng(SEED)
    for _ in range(1000):
        m, w, v, u, d, mu1, muf, f = random_step_inputs(rng)

        def advance(variant, mu_f, alpha):
            params = FilterParams(mu1=mu1, muf=mu_f, f=f, alpha=alpha, variant=variant)
            state = FilterState(w=w.copy(), w_prev=w.copy(), v=v.copy())
            new, err = step(state, u, d, params)
            return new.w, err

        pairs = [
            (advance(Variant.MFLMS_ASSEMBLED, muf, 0.0), advance(Variant.FLMS, muf, 0.0)),
            (advance(Variant.FLMS, 0.0, 0.0), advance(Variant.LMS, 0.0, 0.0)),
            (advance(Variant.MFLMS_ASSEMBLED, 0.0, 0.0), advance(Variant.LMS, 0.0, 0.0)),
        ]
        for (w_a, e_a), (w_b, e_b) in pairs:
            assert e_a == e_b
            assert np.array_equal(w_a, w_b)
    announce(1, "reduction identities bit-identical", True,
             f"3x1000 draws, {time.perf_counter() - t0:.2f}s")


def test_criterion_2_discrepancy_identity():
    t0 = time.perf_counter()
    rng = np.random.default_rng(SEED + 1)
    worst = 0.0
    for _ in range(1000):
        m, w, v, u, d, mu1, _, f = random_step_inputs(rng)
        w_prev = rng.normal(0, 2, m)
        alpha = float(rng.uniform(0, 0.95))
        pc = FilterParams(mu1=mu1, muf=0.0, f=f, alpha=alpha, variant=Variant.MFLMS_CORRECTED)
        pp = FilterParams(mu1=mu1, muf=0.0, f=f, alpha=alpha, variant=Variant.MFLMS_PUBLISHED16)
        sc = FilterState(w=w.copy(), w_prev=w_prev.copy(), v=v.copy())
        sp = FilterState(w=w.copy(), w_prev=w_prev.copy(), v=v.copy())
        nc, ec = step(sc, u, d, pc)
        np16, _ = step(sp, u, d, pp)
        expected = mu1 * ec * u
        scale = max(np.linalg.norm(expected), np.linalg.norm(w))
        err = np.linalg.norm((nc.w - np16.w) - expected) / scale
        worst = max(worst, err)
    announce(2, "corrected minus published-form step equals mu1*e*u", worst <= 1e-14,
             f"worst relative residual {worst:.2e}, {time.perf_counter() - t0:.2f}s")


def test_criterion_3_published_form_origin_stall():
    t0 = time.perf_counter()
    rng = np.random.default_rng(SEED)
    mu1, alpha, f = 0.01, 0.2, 0.5

    pp = FilterParams(mu1=mu1, muf=0.0, f=f, alpha=alpha, variant=Variant.MFLMS_PUBLISHED16)
    state = FilterState(w=np.zeros(8), w_prev=np.zeros(8), v=np.zeros(8))
    psi = regressor(FREQUENCIES, np.arange(1, 10_001))
    noise = rng.normal(0.0, SIGMA_030, 10_000)
    for k in range(10_000):
        d = float((psi[k] * THETA_BC).sum() + noise[k])
        state, _ = step(state, psi[k], d, pp)
    stalled = np.all(state.w == 0.0) and np.all(state.w_prev == 0.0)

    pc = replace(pp, variant=Variant.MFLMS_CORRECTED)
    state = FilterState(w=np.zeros(8), w_prev=np.zeros(8), v=np.zeros(8))
    noise = rng.normal(0.0, SIGMA_030, 1000)
    for k in range(1000):
        d = float((psi[k] * THETA_BC).sum() + noise[k])
        state, _ = step(state, psi[k], d, pc)
    final_nwd = nwd(aphi_from_bc(state.w), THETA_APHI)
    announce(3, "published form stalls at origin, corrected form converges",
             stalled and final_nwd < 0.5,
             f"corrected NWD {final_nwd:.4f} after 1000 iters, "
             f"{time.perf_counter() - t0:.2f}s")


def test_criterion_4_step_oracle_equivalence():
    t0 = time.perf_counter()
    rng = np.random.default_rng(SEED + 2)
    variants = list(Variant)
    worst = 0.0
    for i in range(1000):
        variant = variants[i % len(variants)]
        m, w, v, u, d, mu1, muf, f = random_step_inputs(rng)
        alpha = float(rng.uniform(0, 0.95))
        if variant is Variant.LMS:
            muf, alpha = 0.0, 0.0
        elif variant is Variant.FLMS:
            alpha = 0.0
        elif variant is not Variant.MFLMS_ASSEMBLED:
            muf = 0.0  # momentum LMS has no fractional term; the collapsed forms read mu1 for it
        params = FilterParams(mu1=mu1, muf=muf, f=f, alpha=alpha, variant=variant)
        w_prev = rng.normal(0, 2, m)
        state = FilterState(w=w.copy(), w_prev=w_prev.copy(), v=v.copy())
        w_exp, _, e_exp = naive_step(variant, w, w_prev, v, u, d, mu1, muf, f, alpha)
        new, err = step(state, u, d, params)
        scale = max(np.linalg.norm(w_exp), 1.0)
        worst = max(worst, np.linalg.norm(new.w - w_exp) / scale)
        worst = max(worst, abs(err - e_exp) / max(abs(e_exp), 1.0))
    announce(4, "every variant matches the naive loop evaluator", worst <= 1e-12,
             f"worst relative deviation {worst:.2e}, {time.perf_counter() - t0:.2f}s")


def test_criterion_5_gamma_accuracy():
    t0 = time.perf_counter()
    worst = 0.0
    for x in (1.25, 1.5, 1.75):  # the Gamma(2 - f) points of the grid
        oracle = float(mpmath.gamma(mpmath.mpf(repr(x))))
        worst = max(worst, abs(gamma(x) - oracle))
    ok_points = worst <= 1e-12
    rng = np.random.default_rng(SEED + 3)
    worst_rec = 0.0
    for x in rng.uniform(0.5, 2.0, 100):
        x = float(x)
        rel = abs(gamma(x + 1.0) - x * gamma(x)) / abs(x * gamma(x))
        worst_rec = max(worst_rec, rel)
    announce(5, "Gamma accuracy and recurrence", ok_points and worst_rec <= 1e-12,
             f"max abs err {worst:.2e}, max recurrence rel err {worst_rec:.2e}, "
             f"{time.perf_counter() - t0:.2f}s")


def test_criterion_6_reference_fitness_band():
    t0 = time.perf_counter()
    scenario = ScenarioConfig(
        noise_std=SIGMA_030, alpha=0.8, f=0.5, lms_eta=0.1,
        n_runs=300, n_iters=1000, checkpoint_interval=100, base_seed=SEED,
    )
    agg = run_monte_carlo(lms_params(0.1), scenario)
    late = agg.mean_nwd_at_checkpoints[2:]  # checkpoints 300..1000
    ok = bool(np.all(late >= 0.041) and np.all(late <= 0.052))
    announce(6, "LMS(eta=0.1) steady-state band at noise level 0.30", ok,
             f"checkpoints 300-1000 in [{late.min():.4f}, {late.max():.4f}] "
             f"(band [0.041, 0.052]), {time.perf_counter() - t0:.1f}s")


def test_criterion_7_lms_dominance(grid300):
    t0 = time.perf_counter()
    checkpoints = grid300[0].scenario.checkpoints
    late = checkpoints >= 300
    worst = 0.0
    worst_case = ""
    for sigma in ("0.30", "0.60", "0.90"):
        block = [e for e in grid300 if e.sigma_label == sigma]
        for alpha in (0.2, 0.5, 0.8):
            lms = next(e for e in block if e.variant is Variant.LMS and e.alpha == alpha)
            lms_late = lms.aggregate.mean_nwd_at_checkpoints[late]
            for entry in block:
                if entry.variant is Variant.LMS or entry.alpha != alpha:
                    continue
                ratio = float(np.max(lms_late / entry.aggregate.mean_nwd_at_checkpoints[late]))
                if ratio > worst:
                    worst, worst_case = ratio, f"sigma={sigma} a={alpha} f={entry.f}"
    announce(7, "paired LMS never worse than 1.05x any calibrated mFLMS", worst <= 1.05,
             f"27 scenarios at 300 runs, worst LMS/mFLMS ratio {worst:.3f} "
             f"({worst_case}), {time.perf_counter() - t0:.1f}s")


def test_criterion_8_step_size_tradeoff(grid300):
    checkpoints = grid300[0].scenario.checkpoints
    ok = True
    detail = []
    for sigma in ("0.30", "0.60", "0.90"):
        values = []
        for eta in (0.027, 0.042, 0.1):
            entry = next(e for e in grid300
                         if e.sigma_label == sigma and e.variant is Variant.LMS
                         and e.step_size == eta)
            values.append(steady_state(entry.aggregate, checkpoints))
        ok = ok and values[0] < values[1] < values[2]
        detail.append(f"{sigma}: {values[0]:.4f}<{values[1]:.4f}<{values[2]:.4f}")
    announce(8, "LMS steady-state error increases with its step size", ok,
             "; ".join(detail))


def test_criterion_9_noise_monotonicity(grid300):
    checkpoints = grid300[0].scenario.checkpoints
    ok = True
    violations = []
    configs = {}
    for e in grid300:
        key = (e.variant, e.alpha, e.f if e.variant is not Variant.LMS else e.step_size)
        configs.setdefault(key, {})[e.sigma_label] = steady_state(e.aggregate, checkpoints)
    for key, by_sigma in configs.items():
        seq = [by_sigma[s] for s in ("0.30", "0.60", "0.90")]
        if not (seq[0] < seq[1] < seq[2]):
            ok = False
            violations.append(str(key))
    announce(9, "steady-state error increases with the noise level", ok,
             f"12 configurations x 3 levels{'; violations: ' + ', '.join(violations) if violations else ''}")


def test_criterion_10_mse_of_mean_magnitude():
    t0 = time.perf_counter()
    scenario = ScenarioConfig(
        noise_std=SIGMA_030, alpha=0.2, f=0.25, lms_eta=0.027,
        n_runs=1000, n_iters=1000, checkpoint_interval=100, base_seed=SEED,
    )
    agg = run_monte_carlo(lms_params(0.027), scenario)
    reference = 6.41e-07
    ratio = agg.mse_of_mean / reference
    ok = 0.2 <= ratio <= 5.0
    announce(10, "MSE of the run-averaged parameters is in magnitude band", ok,
             f"mse_of_mean {agg.mse_of_mean:.3e} vs reference {reference:.2e} "
             f"(ratio {ratio:.2f}, band [0.2, 5]), {time.perf_counter() - t0:.1f}s")


def test_criterion_11_cli_grid_determinism(tmp_path):
    t0 = time.perf_counter()
    out1 = tmp_path / "workers1"
    out2 = tmp_path / "workers3"
    assert cli_main(["grid", "--seed", str(SEED), "--out", str(out1), "--workers", "1"]) == 0
    assert cli_main(["grid", "--seed", str(SEED), "--out", str(out2), "--workers", "3"]) == 0
    names1 = sorted(p.name for p in out1.iterdir())
    names2 = sorted(p.name for p in out2.iterdir())
    identical = names1 == names2 and all(
        (out1 / n).read_bytes() == (out2 / n).read_bytes() for n in names1
    )
    announce(11, "full grid output trees byte-identical across worker counts",
             identical,
             f"{len(names1)} files per tree, {time.perf_counter() - t0:.1f}s")
