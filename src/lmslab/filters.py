"""One-step update rules for the LMS family of adaptive filters.

The six variants are one recursion.  From the pre-update error
``e = d - sum(u*w)`` each forms ``g = (a*e)*u + ((b*e)*u)*|w|**(1-f)``
(second term skipped when ``b == 0``) and applies it in one of three
forms: plain ``w' = w + g``; velocity ``v' = alpha*v + g``,
``w' = w + v'``; collapsed ``w' = w + (alpha*(w - w_prev) + g)``.

    variant             form       a     b               name
    LMS                 plain      mu1   0               LMS
    FLMS                plain      mu1   muf/Gamma(2-f)  FLMS
    MOMENTUM_LMS        velocity   mu1   0               mLMS
    MFLMS_ASSEMBLED     velocity   mu1   muf/Gamma(2-f)  mFLMS
    MFLMS_PUBLISHED16   collapsed  0     mu1             mFLMS-published
    MFLMS_CORRECTED     collapsed  mu1   mu1             mFLMS-corrected

This table is :data:`KINDS`; every per-rule decision reads it.  A rule
whose ``b`` does not read ``muf`` takes none (the collapsed forms read
``mu1`` in its place) and one of plain form no ``alpha``
(:class:`FilterParams` requires them 0); ``muf`` defaults to
:func:`default_muf` where ``b`` reads it, else to 0.  Table rows read
``name(eta=...)`` where ``b`` is 0, else ``name(f=...)``, then
`` a=...`` where the rule takes ``alpha``.  ``Gamma`` is :func:`gamma`
(Lanczos, g = 7).

Every parameter's range is a row of :data:`RANGES`, the one table of
value ranges: :class:`FilterParams`, the experiment's scenario and grid
configurations and the configuration parser all check through it.

Where ``b`` reads ``muf``, ``b = 0`` whenever ``muf = 0``, so the
reduction identities between variants hold to the bit.
``MFLMS_ASSEMBLED`` is the canonical momentum-fractional variant of the
benchmark.  ``MFLMS_PUBLISHED16`` presumes ``muf = mu1*Gamma(2-f)``
(its ``b`` is ``mu1``) and drops the plain gradient term:
from a zero start it never leaves the origin, and it exists so that
defect is testable.  ``MFLMS_CORRECTED`` restores the term.  As
``v = w - w_prev`` in exact arithmetic, the collapsed form evaluates
``w + (alpha*m + g)`` with ``m = w - w_prev``, adding momentum and
gradient before the weights as the velocity form does; that keeps the
corrected form within about 1e-14 of the assembled one over a run,
where ``(w + alpha*m) + g`` drifts to about 1e-13.

Filters know nothing about the signal model: the caller supplies the
regressor/desired pair for each step.  :func:`advance` is the one
batched in-place kernel.  :func:`step` wraps it as a pure state
transition; the experiment engine calls
``step(..., in_place=True, work=...)``, which reuses the state's buffers
and a batch's :func:`workspace`, and leaves the divergence guard to the
caller (:func:`diverged_rows`).

The fractional magnitude ``|w|**(1-f)`` of the default orders (f = 0.25,
0.5, 0.75) is formed from correctly rounded operations, so its bits are
the same on every IEEE-754 machine and SIMD path: ``sqrt(|w|)``,
``sqrt(sqrt(|w|))`` and ``sqrt(|w|)*sqrt(sqrt(|w|))``, within 0.5, 1
and 2.5 ulp of the exact power.  Any other order takes ``np.power``,
whose last bit may follow the CPU's SIMD loops.

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
import numbers
from collections.abc import Iterable
from dataclasses import dataclass, fields
from typing import NamedTuple

import numpy as np

__all__ = [
    "Variant",
    "KINDS",
    "RANGES",
    "FilterParams",
    "FilterState",
    "DivergenceError",
    "WEIGHT_LIMIT",
    "gamma",
    "default_muf",
    "update_rule",
    "workspace",
    "advance",
    "step",
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


class Form(enum.Enum):
    """How a rule turns the gradient ``g`` into new weights."""

    PLAIN = "plain"
    VELOCITY = "velocity"
    COLLAPSED = "collapsed"


class Kind(NamedTuple):
    """A row of :data:`KINDS`: the form, the parameter ``a`` and ``b`` read (None for 0), the name."""

    form: Form
    a: str | None
    b: str | None  # "muf" reads muf/Gamma(2-f)
    name: str

    @property
    def takes_alpha(self) -> bool:
        return self.form is not Form.PLAIN


KINDS = {
    Variant.LMS: Kind(Form.PLAIN, "mu1", None, "LMS"),
    Variant.FLMS: Kind(Form.PLAIN, "mu1", "muf", "FLMS"),
    Variant.MOMENTUM_LMS: Kind(Form.VELOCITY, "mu1", None, "mLMS"),
    Variant.MFLMS_ASSEMBLED: Kind(Form.VELOCITY, "mu1", "muf", "mFLMS"),
    Variant.MFLMS_PUBLISHED16: Kind(Form.COLLAPSED, None, "mu1", "mFLMS-published"),
    Variant.MFLMS_CORRECTED: Kind(Form.COLLAPSED, "mu1", "mu1", "mFLMS-corrected"),
}


# Lanczos approximation, g = 7, 9 coefficients: about 1e-14 relative
# accuracy on gamma's domain, below its 1e-12 contract.
_LANCZOS_G = 7.0
_LANCZOS_COEFFS = (
    0.99999999999980993,
    676.5203681218851,
    -1259.1392167224028,
    771.32342877765313,
    -176.61502916214059,
    12.507343278686905,
    -0.13857109526572012,
    9.9843695780195716e-6,
    1.5056327351493116e-7,
)


def _lanczos(x: float) -> float:
    # Valid for x >= 0.5.
    acc = _LANCZOS_COEFFS[0]
    for i, c in enumerate(_LANCZOS_COEFFS[1:], start=1):
        acc += c / (x - 1.0 + i)
    t = x - 0.5 + _LANCZOS_G
    return math.sqrt(2.0 * math.pi) * t ** (x - 0.5) * math.exp(-t) * acc


def gamma(x: float) -> float:
    """Gamma function on ``(0, 3]``, to better than 1e-12 absolute error.

    The rules only need ``Gamma(2 - f)`` on ``(1, 2)``; the wider domain
    makes the recurrence ``Gamma(x + 1) = x*Gamma(x)`` testable.  Values
    outside it raise ``ValueError``.
    """
    x = float(x)
    if not 0.0 < x <= 3.0:  # NaN fails too; inf is above 3
        raise ValueError(f"gamma() is defined on (0, 3], got {x!r}")
    if x < 0.5:
        # Reflection formula keeps the Lanczos series in its sweet spot.
        return math.pi / (math.sin(math.pi * x) * _lanczos(1.0 - x))
    return _lanczos(x)


def default_muf(mu1: float, f: float) -> float:
    """Conventional fractional step size ``muf = mu1 * Gamma(2 - f)``.

    With this choice the fractional term's coefficient
    ``muf / Gamma(2 - f)`` collapses to ``mu1``, which makes the three
    momentum-fractional variants directly comparable.
    """
    return mu1 * gamma(2.0 - f)


class Range(NamedTuple):
    """A field's values: ``kind`` numbers from ``lo`` (excluded after ``"("``) up to ``hi``, excluded."""

    kind: type
    bracket: str
    lo: float
    hi: float

    def check(self, name: str, value):
        """``value`` as a ``kind``; a ``TypeError`` or ``ValueError`` names ``name`` unless it is one in the range."""
        if isinstance(value, bool) or not isinstance(value, numbers.Integral if self.kind is int else numbers.Real):
            raise TypeError(f"{name}: must be {'an integer' if self.kind is int else 'a real number'}, got {value!r}")
        try:
            x = self.kind(value)
        except OverflowError:  # an int beyond every float
            x = math.inf
        # NaN fails every comparison, and hi is excluded, so a float in range is finite.
        if not ((self.lo < x) if self.bracket == "(" else (self.lo <= x)) or not x < self.hi:
            raise ValueError(f"{name}: must lie in {self.bracket}{self.lo}, {self.hi}), got {value!r}")
        return x


# The range of every filter parameter and every scenario and grid value,
# stated once: FilterParams, ScenarioConfig, GridConfig,
# prefetch_calibration and the configuration parser check through it.  A
# filter parameter shares the row of the scenario field that sets it, and
# a grid axis that of its scenario field; a noise level's is that of the
# standard deviation under either scale.
RANGES = {name: rule for names, rule in [
    (("noise_std", "noise_levels"), Range(float, "[", 0, math.inf)),
    (("alpha", "alphas"), Range(float, "[", 0, 1)),
    (("f", "fractional_orders"), Range(float, "(", 0, 1)),
    (("mu1", "lms_eta", "lms_etas", "mflms_mu1"), Range(float, "(", 0, math.inf)),
    (("muf", "mflms_muf"), Range(float, "[", 0, math.inf)),
    (("n_runs", "n_iters", "checkpoint_interval", "calibration_runs"), Range(int, "[", 1, math.inf)),
    (("base_seed",), Range(int, "[", 0, 2**64)),
    (("calibration_tolerance",), Range(float, "(", 0, math.inf)),  # a zero-width match is unreachable
] for name in names}


def _check_fields(config, may_be_none: tuple = ()) -> None:
    """Hold each field of the frozen ``config`` that :data:`RANGES` names as :meth:`Range.check` returns it.

    A grid axis (a tuple field) is checked value by value, and must be an
    iterable other than text.  A field may be None where its default is
    None or ``may_be_none`` names it.
    """
    for name, rule, axis, optional in _field_checks(type(config)):
        value = getattr(config, name)
        if axis and (isinstance(value, (str, bytes)) or not isinstance(value, Iterable)):
            raise TypeError(f"{name}: must be a sequence of numbers, got {value!r}")
        if not (value is None and (optional or name in may_be_none)):
            value = tuple(rule.check(name, x) for x in value) if axis else rule.check(name, value)
            object.__setattr__(config, name, value)


@functools.cache
def _field_checks(cls) -> tuple:
    """``(name, rule, is_axis, default_is_none)`` of each field of ``cls`` that :data:`RANGES` names; built once a class."""
    return tuple((f.name, RANGES[f.name], isinstance(f.default, tuple), f.default is None)
                 for f in fields(cls) if f.name in RANGES)


@dataclass(frozen=True)
class FilterParams:
    """Step sizes, fractional order, momentum coefficient and variant.

    Each number is held as a float in its range, a row of :data:`RANGES`.

    Parameters
    ----------
    mu1: float
        Base step size.  For plain LMS this is the learning rate usually
        written ``eta``.
    muf: float or None
        Fractional-term step size; None selects the rule's default (see
        :data:`KINDS`).
    f: float
        Fractional order.
    alpha: float
        Momentum coefficient; ``0`` expresses the momentum-free
        degenerate case.
    variant: Variant
        Which update rule :func:`step` dispatches to; its text value
        (``"lms"``) is held as the enum.
    """

    mu1: float
    muf: float | None
    f: float
    alpha: float
    variant: Variant

    def __post_init__(self):
        object.__setattr__(self, "variant", Variant(self.variant))
        kind = KINDS[self.variant]
        _check_fields(self, may_be_none=("muf",))
        if self.muf is None:
            object.__setattr__(self, "muf", default_muf(self.mu1, self.f) if kind.b == "muf" else 0.0)
        unused = [name for name, used in (("muf", kind.b == "muf"), ("alpha", kind.takes_alpha)) if not used]
        if any(getattr(self, name) != 0 for name in unused):
            raise ValueError(f"{kind.name} requires {' and '.join(f'{name} = 0' for name in unused)}")


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


class Rule(NamedTuple):
    """A rule's form and coefficients for one parameter set, plus ``p = 1 - f`` and ``alpha``."""

    form: Form
    a: float
    b: float
    p: float
    alpha: float


def update_rule(params: FilterParams) -> Rule:
    """The :data:`KINDS` row of ``params.variant`` as :func:`advance` applies it to ``params``."""
    kind = KINDS[params.variant]
    coefficient = {
        None: 0.0,
        "mu1": params.mu1,
        "muf": params.muf / gamma(2.0 - params.f) if params.muf != 0.0 else 0.0,
    }
    return Rule(kind.form, coefficient[kind.a], coefficient[kind.b], 1.0 - params.f, params.alpha)


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
        # which rounds the same, as IEEE addition commutes.  The power
        # needs no check: update_rule's p = 1 - f, and FilterParams checks f.
        # At p = 0.5, 0.25 and 0.75 (exact as 1 - f) it is taken from square
        # roots, portable and cheaper than np.power; p = 0.75 uses t,
        # which is overwritten only after.
        np.abs(w, out=g)
        if rule.p == 0.5:
            np.sqrt(g, out=g)
        elif rule.p == 0.25:
            np.sqrt(np.sqrt(g, out=g), out=g)
        elif rule.p == 0.75:
            np.sqrt(np.sqrt(g, out=t), out=g)
            g *= t
        else:
            np.power(g, rule.p, out=g)
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

    Returns the new state and the pre-update error: a float for one
    row, else an array.  An unbatched step whose weights leave the guard
    raises :class:`DivergenceError`.

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
    return new, float(e) if e.ndim == 0 else e
