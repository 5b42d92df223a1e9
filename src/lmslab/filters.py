"""One-step update rules for the LMS family of adaptive filters.

The six variants are one recursion.  From the pre-update error
``e = d - sum(u*w)`` each forms ``g = (a*e)*u + ((b*e)*u)*|w|**(1-f)``
(second term skipped when ``b == 0``) and applies it in one of three
forms: plain ``w' = w + g``; velocity ``v' = alpha*v + g``,
``w' = w + v'``; collapsed ``w' = w + (alpha*(w - w_prev) + g)``.

    variant             form       a     b
    LMS                 plain      mu1   0
    FLMS                plain      mu1   muf/Gamma(2-f)
    MOMENTUM_LMS        velocity   mu1   0
    MFLMS_ASSEMBLED     velocity   mu1   muf/Gamma(2-f)
    MFLMS_PUBLISHED16   collapsed  0     mu1
    MFLMS_CORRECTED     collapsed  mu1   mu1

``b = 0`` whenever ``muf = 0``, so the reduction identities between
variants hold to the bit.  ``MFLMS_ASSEMBLED`` is the canonical
momentum-fractional variant of the benchmark.  ``MFLMS_PUBLISHED16``
presumes ``muf = mu1*Gamma(2-f)`` and drops the plain gradient term:
from a zero start it never leaves the origin, and it exists so that
defect is testable.  ``MFLMS_CORRECTED`` restores the term.  As
``v = w - w_prev`` in exact arithmetic, the collapsed form evaluates
``w + (alpha*m + g)`` with ``m = w - w_prev``, adding momentum and
gradient before the weights as the velocity form does; that keeps the
corrected form within about 1e-14 of the assembled one over a run,
where ``(w + alpha*m) + g`` drifts to about 1e-13.

Filters know nothing about the signal model: the caller supplies the
regressor/desired pair for each step.  :func:`advance` is the one
batched in-place kernel.  :func:`step` and the ``*_step`` names wrap it
as pure state transitions; the experiment engine calls
``step(..., in_place=True, work=...)``, which reuses the state's buffers
and a batch's :func:`workspace`, and leaves the divergence guard to the
caller (:func:`diverged_rows`).

The kernel is layout-agnostic: a batch ``(..., M)`` may be a row-major
array or the transposed view of a component-major ``(M, ...)`` buffer,
as the experiment engine holds it, and gives the same bits either way.
Its scratch follows ``w``'s layout, and the error's dot product sums
the last axis in numpy's own pairwise order (:func:`_pairwise_sum`)
instead of ``.sum(axis=-1)``, whose order depends on the layout.
"""

from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .kernels import gamma

__all__ = [
    "Variant",
    "FilterParams",
    "FilterState",
    "StepRecord",
    "DivergenceError",
    "WEIGHT_LIMIT",
    "default_muf",
    "make_filter",
    "update_rule",
    "workspace",
    "advance",
    "step",
    "lms_step",
    "momentum_lms_step",
    "flms_step",
    "mflms_assembled_step",
    "mflms_published16_step",
    "mflms_corrected_step",
    "diverged_rows",
]

# A run whose weight magnitude crosses this bound, or turns NaN, is
# declared diverged; the experiment engine records the event instead of
# propagating overflow toward infinity.
WEIGHT_LIMIT = 1e6


class DivergenceError(RuntimeError):
    """A weight crossed :data:`WEIGHT_LIMIT` or turned NaN during a step."""


class Variant(enum.Enum):
    LMS = "lms"
    MOMENTUM_LMS = "momentum_lms"
    FLMS = "flms"
    MFLMS_ASSEMBLED = "mflms"
    MFLMS_PUBLISHED16 = "mflms_published16"
    MFLMS_CORRECTED = "mflms_corrected"


def default_muf(mu1: float, f: float) -> float:
    """Conventional fractional step size ``muf = mu1 * Gamma(2 - f)``.

    With this choice the fractional term's coefficient
    ``muf / Gamma(2 - f)`` collapses to ``mu1``, which makes the three
    momentum-fractional variants directly comparable.
    """
    return mu1 * gamma(2.0 - f)


@dataclass(frozen=True)
class FilterParams:
    """Step sizes, fractional order, momentum coefficient and variant.

    Parameters
    ----------
    mu1: float
        Base step size, ``> 0``.  For plain LMS this is the learning
        rate usually written ``eta``.
    muf: float
        Fractional-term step size, ``>= 0``.
    f: float
        Fractional order, strictly inside ``(0, 1)``.
    alpha: float
        Momentum coefficient in ``[0, 1)``; ``0`` expresses the
        momentum-free degenerate case.
    variant: Variant
        Which update rule :func:`step` dispatches to.
    """

    mu1: float
    muf: float
    f: float
    alpha: float
    variant: Variant

    def __post_init__(self):
        if not (self.mu1 > 0 and math.isfinite(self.mu1)):
            raise ValueError("mu1 must be positive and finite")
        if not (self.muf >= 0 and math.isfinite(self.muf)):
            raise ValueError("muf must be non-negative and finite")
        if not 0.0 < self.f < 1.0:
            raise ValueError("fractional order f must lie strictly in (0, 1)")
        if not 0.0 <= self.alpha < 1.0:
            raise ValueError("alpha must lie in [0, 1)")
        if self.variant is Variant.LMS and (self.muf != 0 or self.alpha != 0):
            raise ValueError("LMS requires muf = 0 and alpha = 0")
        if self.variant is Variant.MOMENTUM_LMS and self.muf != 0:
            raise ValueError("momentum LMS requires muf = 0")
        if self.variant is Variant.FLMS and self.alpha != 0:
            raise ValueError("FLMS requires alpha = 0")


@dataclass
class FilterState:
    """Weights, previous weights, velocity and the iteration counter.

    All three vectors share the trailing length ``M``; ``w_prev`` is
    consumed only by the collapsed-recursion variants and ``v`` only by
    the velocity-driven ones, but every variant carries the full state
    so a single runner serves them all.
    """

    w: np.ndarray
    w_prev: np.ndarray
    v: np.ndarray
    n: int = 0

    def __post_init__(self):
        self.w = np.asarray(self.w, dtype=np.float64)
        self.w_prev = np.asarray(self.w_prev, dtype=np.float64)
        self.v = np.asarray(self.v, dtype=np.float64)
        if not (self.w.shape == self.w_prev.shape == self.v.shape):
            raise ValueError("w, w_prev and v must share a shape")
        if self.n < 0:
            raise ValueError("iteration counter must be non-negative")


@dataclass
class StepRecord:
    """Instantaneous error and the norm of the applied weight update."""

    error: float | np.ndarray
    gradient_norm: float | np.ndarray


def make_filter(
    variant: Variant,
    mu1: float,
    muf: float | None,
    f: float,
    alpha: float,
    m: int,
    initial_w,
) -> tuple[FilterState, FilterParams]:
    """Build a validated parameter set and a cold-start state.

    ``initial_w`` is injected by the caller (the benchmark initialises
    weights from standard Gaussian draws); ``muf=None`` selects the
    conventional default :func:`default_muf` for the fractional
    variants and ``0`` otherwise.

    Returns the state (``w = w_prev = initial_w``, zero velocity,
    ``n = 0``) together with the parameters.
    """
    if muf is None:
        if variant in (Variant.FLMS, Variant.MFLMS_ASSEMBLED):
            muf = default_muf(mu1, f)
        else:
            muf = 0.0
    params = FilterParams(mu1=mu1, muf=muf, f=f, alpha=alpha, variant=variant)
    w0 = np.asarray(initial_w, dtype=np.float64)
    if w0.ndim != 1 or len(w0) != m:
        raise ValueError(f"initial_w must be a vector of length {m}")
    if not np.all(np.isfinite(w0)):
        raise ValueError("initial_w must be finite")
    state = FilterState(w=w0.copy(), w_prev=w0.copy(), v=np.zeros(m), n=0)
    return state, params


def _pairwise_sum(x: np.ndarray):
    """Sum over the last axis, bit-equal to ``x.sum(axis=-1)`` in any layout.

    numpy reduces a contiguous row pairwise: a left fold below 8 terms;
    8 strided accumulators joined as ``((0+1)+(2+3))+((4+5)+(6+7))``,
    then the remainder, up to 128; halving above that; all added to an
    initial ``0.0``.  Done here with one vector operation per term, so a
    component-major batch keeps that order instead of folding rows left.
    """
    return 0.0 + _pairwise_tree(x)


def _pairwise_tree(x: np.ndarray):
    """:func:`_pairwise_sum` before its initial ``0.0``; it recurses only above 128 terms."""
    n = x.shape[-1]
    if n > 128:
        half = n // 2 - n // 2 % 8
        return _pairwise_tree(x[..., :half]) + _pairwise_tree(x[..., half:])
    if n < 8:
        s = x[..., 0] if n else np.zeros(x.shape[:-1])
        for i in range(1, n):
            s = s + x[..., i]
        return s
    tail = n - n % 8
    r = x[..., :8]
    for i in range(8, tail, 8):
        r = r + x[..., i:i + 8]
    r = r[..., 0::2] + r[..., 1::2]
    r = r[..., 0::2] + r[..., 1::2]
    s = r[..., 0] + r[..., 1]
    for i in range(tail, n):
        s = s + x[..., i]
    return s


def diverged_rows(w: np.ndarray) -> np.ndarray:
    """Mask of batch rows holding a NaN, an inf or a weight beyond the guard."""
    inside = w <= WEIGHT_LIMIT  # two boolean comparisons: no float temporary like |w|
    inside &= w >= -WEIGHT_LIMIT
    return ~inside.all(axis=-1)


class Form(enum.Enum):
    """How a rule turns the gradient ``g`` into new weights."""

    PLAIN = "plain"
    VELOCITY = "velocity"
    COLLAPSED = "collapsed"


class Rule(NamedTuple):
    """One row of the coefficient table, plus ``p = 1 - f`` and ``alpha``."""

    form: Form
    a: float
    b: float
    p: float
    alpha: float


@functools.lru_cache(maxsize=64)
def update_rule(params: FilterParams) -> Rule:
    """The coefficient-table row :func:`advance` applies for ``params``.

    Cached, so a simulation stepping with one parameter set computes its
    coefficients once rather than once per step.
    """
    mu1 = params.mu1
    b = params.muf / gamma(2.0 - params.f) if params.muf != 0.0 else 0.0
    form, a, b = {
        Variant.LMS: (Form.PLAIN, mu1, b),
        Variant.FLMS: (Form.PLAIN, mu1, b),
        Variant.MOMENTUM_LMS: (Form.VELOCITY, mu1, b),
        Variant.MFLMS_ASSEMBLED: (Form.VELOCITY, mu1, b),
        Variant.MFLMS_PUBLISHED16: (Form.COLLAPSED, 0.0, mu1),
        Variant.MFLMS_CORRECTED: (Form.COLLAPSED, mu1, mu1),
    }[params.variant]
    return Rule(form, a, b, 1.0 - params.f, params.alpha)


def _nonzero(coefficient) -> bool:
    """Whether a coefficient, a float or a column of nonzero floats, is nonzero."""
    return isinstance(coefficient, np.ndarray) or coefficient != 0.0


def workspace(w) -> tuple[np.ndarray, ...]:
    """Scratch for :func:`advance` on batches shaped and laid out like ``w``.

    Two arrays like ``w`` and one ``(..., 1)`` column.  A batch can step
    with one workspace throughout: after its rows shrink to ``n``, the
    first ``n`` rows of each array serve.
    """
    return np.empty_like(w), np.empty_like(w), np.empty(w.shape[:-1] + (1,))


def advance(rule: Rule, w, w_prev, v, u, d, work=None) -> np.ndarray:
    """Advance every row of a batch one iteration in place; return the error.

    ``w``, ``w_prev`` and ``v`` share a shape ``(..., M)`` and any
    memory layout; ``u`` has length ``M`` and ``d`` one entry per row.
    The new weights overwrite ``w_prev``; the velocity form also updates
    ``v``.  ``rule.a``, ``rule.b`` and ``rule.alpha`` may be per-row
    ``(..., 1)`` columns, so one batch can mix step sizes; a column of
    ``b`` or ``alpha`` must hold no zero, as it takes the nonzero branch.
    ``work`` is scratch from :func:`workspace`, allocated here if None.
    """
    g, t, c = workspace(w) if work is None else work
    e = np.asarray(d - _pairwise_sum(np.multiply(u, w, out=g)))
    col = e[..., None]
    if _nonzero(rule.b):
        # g = (a*e)*u + ((b*e)*u)*|w|**p in two scratch arrays: the
        # fractional term is formed first and the plain term added to it,
        # which rounds the same, as IEEE addition commutes.  The power is
        # kernels.abs_pow without its checks: update_rule's p is in (0, 1).
        np.power(np.abs(w, out=g), rule.p, out=g)
        g *= np.multiply(np.multiply(rule.b, col, out=c), u, out=t)
        g += np.multiply(np.multiply(rule.a, col, out=c), u, out=t)
    else:
        np.multiply(np.multiply(rule.a, col, out=c), u, out=g)
    if rule.form is Form.PLAIN:
        np.add(w, g, out=w_prev)
    elif rule.form is Form.VELOCITY:
        if not _nonzero(rule.alpha):
            np.copyto(v, g)
        else:
            v *= rule.alpha
            v += g
        np.add(w, v, out=w_prev)
    else:
        momentum = np.subtract(w, w_prev, out=t)
        momentum *= rule.alpha
        momentum += g
        np.add(w, momentum, out=w_prev)
    return e


def step(
    state: FilterState, u, d, params: FilterParams, *,
    in_place: bool = False, rule: Rule | None = None, work: tuple | None = None,
):
    """Advance one iteration with the update rule selected by ``params.variant``.

    Returns the new state and a :class:`StepRecord`; an unbatched step
    whose weights leave the guard raises :class:`DivergenceError`.

    With ``in_place=True`` the step overwrites ``state`` instead (the
    ``w`` and ``w_prev`` buffers swap, ``v`` updates in place) and
    returns only the error, leaving the guard to the caller: this is how
    the experiment engine steps a batch without per-step allocations.

    ``rule`` replaces ``update_rule(params)``: the engine passes per-row
    coefficient columns for a batch that mixes step sizes (see
    :func:`advance`), with ``params`` one of the batch's parameter sets.
    ``work`` is the kernel's scratch (:func:`workspace`); the engine
    passes one per batch, so that a step allocates no ``(rows, M)`` array.
    """
    u = np.asarray(u, dtype=np.float64)
    if u.shape[-1] != state.w.shape[-1]:
        raise ValueError(
            f"regressor length {u.shape[-1]} does not match filter length "
            f"{state.w.shape[-1]}"
        )
    rule = update_rule(params) if rule is None else rule
    if in_place:
        e = advance(rule, state.w, state.w_prev, state.v, u, d, work)
        state.w, state.w_prev = state.w_prev, state.w
        state.n += 1
        return e
    new = FilterState(w=state.w_prev.copy(), w_prev=state.w.copy(), v=state.v.copy(), n=state.n + 1)
    e = advance(rule, state.w, new.w, new.v, u, d, work)
    if new.w.ndim == 1 and diverged_rows(new.w):
        raise DivergenceError(
            f"weights left the guard (NaN or magnitude above {WEIGHT_LIMIT:g}) "
            f"at iteration {new.n}"
        )
    norm = np.sqrt(((new.w - state.w) ** 2).sum(axis=-1))
    if e.ndim == 0:
        return new, StepRecord(error=float(e), gradient_norm=float(norm))
    return new, StepRecord(error=e, gradient_norm=norm)


def _variant_step(variant: Variant, doc: str):
    def variant_step(state: FilterState, u, d, params: FilterParams):
        if params.variant is not variant:
            raise ValueError(f"params.variant is {params.variant}, expected {variant}")
        return step(state, u, d, params)

    variant_step.__name__ = variant_step.__qualname__ = f"{variant.name.lower()}_step"
    variant_step.__doc__ = doc
    return variant_step


lms_step = _variant_step(Variant.LMS, "Plain LMS update.")
momentum_lms_step = _variant_step(Variant.MOMENTUM_LMS, "LMS through the velocity accumulator.")
flms_step = _variant_step(Variant.FLMS, "Fractional LMS update.")
mflms_assembled_step = _variant_step(Variant.MFLMS_ASSEMBLED, "FLMS through the velocity accumulator.")
mflms_published16_step = _variant_step(Variant.MFLMS_PUBLISHED16, "Collapsed form without the plain term.")
mflms_corrected_step = _variant_step(Variant.MFLMS_CORRECTED, "Collapsed form with the plain term restored.")
