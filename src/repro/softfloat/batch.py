"""Numpy batch backend: vectorized integer bit-twiddling over uint64 lanes.

This backend re-implements the scalar round-and-pack pipeline
(:mod:`repro.softfloat._round`) with numpy array operations so that
thousands of packed encodings are evaluated per Python bytecode
dispatch.  It is **bit-identical** to the scalar ops — same packed
results, same per-lane sticky flags — for every combination it claims
via :meth:`BatchBackend.supports`; the differential suite in
``tests/softfloat/test_backends.py`` pins this against the exact
oracle.

Width bounds (why ``supports`` stops at precision 53)
----------------------------------------------------
All lane arithmetic runs in ``uint64``/``int64`` words; a *wide* value
is a ``(hi, lo)`` pair of uint64 words built from 32-bit limbs.  Every
op hands :func:`_round_pack` a mantissa below ``2**61`` plus a sticky
bit; with ``p <= 53`` the round bit then sits at least 7 places above
anything folded into sticky (:func:`_narrow`).  ``mul``/``div``/``fma``/
``sqrt`` first shift subnormal significands up to exactly ``p`` bits
(:func:`_sig_norm`), which pins every width below:

- *add/sub*: operands are aligned into a shared granularity window
  ``g = max(min(e1, e2), M - 57)`` where ``M`` is the larger operand's
  MSB exponent.  Each aligned magnitude then spans at most 58 bits and
  the signed sum fits ``int64``.  Discarding below the window is sound:
  bits are only lost when the granularities differ by more than 57, in
  which case the non-dominant operand is below ``2**(M-4)``, the sum
  keeps its MSB at ``M`` or ``M-1``, and the result's round bit sits at
  least 3 bits above the window floor — the discarded amount is pure
  sticky.  A lost amount on the side opposite the result's sign turns
  into a borrow (``mag -= 1``) plus sticky.
- *mul*: the product of two ``p``-bit significands has ``2p - 1`` or
  ``2p <= 106`` bits and is exact in :func:`_mul_wide` (every limb
  partial sum is below ``2**64``).  One fixed cut of ``max(2p - 61, 0)``
  bits leaves 60 or 61 bits (all of them when ``2p <= 61``).
- *div*: ``num << (p + 2)`` over ``den``, both ``p``-bit, by long
  division in chunks of ``63 - p >= 10`` bits (:func:`_long_divide`):
  the running remainder is below ``den < 2**p``, so each chunk's
  numerator is below ``2**63``.  The quotient has ``p + 2`` or ``p + 3
  <= 56`` bits; the remainder is the sticky bit.
- *sqrt*: the radicand ``R = m << s`` with ``s`` in ``{p + 4, p + 5}``
  (even exponent) is below ``2**(2p + 5) <= 2**111`` and its root has
  ``p + 2 <= 55`` bits.  ``ldexp(m, s)`` is exact for ``m < 2**53``, so
  the float64 root is within 5 of the true root; every candidate that
  close has ``|R - r*r| < 2**60``, so the residual is the wrapping
  difference of the low words read as ``int64`` (:func:`_isqrt_wide`).
- *fma*: the ``2p``-bit product and the ``p``-bit addend are
  top-aligned below ``2**125`` by fixed shifts ``125 - 2p`` and
  ``125 - p``; the one on the finer grid moves right onto the other's
  grid (:func:`_fma_sum`), and the two's-complement sum stays below
  ``2**126``.  Set bits are lost only when the mover travels past its
  lowest possible set bit (``125 - 2p`` or ``125 - p``), which leaves
  it below ``2**(2p - 1)`` beside a stayer of at least ``2**123``: the
  sum is then at least ``2**122``, its round bit at least 68 places up,
  and the lost amount (under one grid unit) is pure sticky, with the
  add/sub borrow rule.  :func:`_narrow` compresses the sum to 61 bits.

Precision 53 is where these stop holding: the float64 estimate needs
``m < 2**53`` and the 61-bit mantissa needs ``p <= 53`` for its sticky
margin.

The vectorized :func:`_round_pack` mirrors ``round_and_pack`` branch for
branch (tininess before rounding, underflow only when tiny *and*
inexact, FTZ flushing, per-mode overflow saturation), with dead lanes
masked via safe substitute values.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.fpenv.flags import FPFlag
from repro.fpenv.rounding import RoundingMode
from repro.softfloat.backend import (
    ORD_EQUAL,
    ORD_GREATER,
    ORD_LESS,
    ORD_UNORDERED,
    BatchResult,
    SoftFloatBackend,
)
from repro.softfloat.formats import FloatFormat

__all__ = ["BatchBackend"]

U64 = np.uint64
I64 = np.int64

F_INVALID = np.uint8(FPFlag.INVALID.value)
F_DIVZERO = np.uint8(FPFlag.DIV_BY_ZERO.value)
F_OVERFLOW = np.uint8(FPFlag.OVERFLOW.value)
F_UNDERFLOW = np.uint8(FPFlag.UNDERFLOW.value)
F_INEXACT = np.uint8(FPFlag.INEXACT.value)
F_DENORMAL = np.uint8(FPFlag.DENORMAL_RESULT.value)


# ----------------------------------------------------------------------
# Integer lane primitives
# ----------------------------------------------------------------------
def _bit_length(x: np.ndarray) -> np.ndarray:
    """Per-lane ``int.bit_length`` for uint64 values.

    Exact by construction: each 32-bit half converts to float64 without
    rounding, and ``frexp``'s exponent *is* the bit length.
    """
    hi = (x >> 32).astype(np.float64)
    lo = (x & U64(0xFFFFFFFF)).astype(np.float64)
    _, ehi = np.frexp(hi)
    _, elo = np.frexp(lo)
    return np.where(hi > 0, ehi.astype(I64) + 32, elo.astype(I64))


def _count(k: np.ndarray, lo: int, hi: int) -> np.ndarray:
    """Shift counts ``k`` clamped into [lo, hi] as uint64 (``np.clip`` is
    several times slower on short lanes)."""
    return np.minimum(np.maximum(k, lo), hi).astype(U64)


def _select(conds: list, choices: list, default: np.ndarray) -> np.ndarray:
    """``np.select`` as a chain of ``np.where`` (the first true condition
    wins), which is several times cheaper on short lanes."""
    for cond, choice in zip(reversed(conds), reversed(choices)):
        default = np.where(cond, choice, default)
    return default


def _shl(x: np.ndarray, k: np.ndarray) -> np.ndarray:
    """``x << k`` with ``k`` clamped into [0, 63] (callers bound live
    lanes; dead lanes may wrap harmlessly)."""
    return x << _count(k, 0, 63)


def _shr_sticky(x: np.ndarray, k: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(x >> k, any bits lost)`` — exact for ``x < 2**62`` with the
    shift clamped at 62 (a clamped lane keeps all of ``x`` as sticky)."""
    kc = _count(k, 0, 62)
    kept = x >> kc
    lost = (x & ((U64(1) << kc) - U64(1))) != 0
    return kept, lost


# ----------------------------------------------------------------------
# Two-limb (128-bit) lane arithmetic: a wide value is a ``(hi, lo)``
# pair of uint64 lanes meaning ``hi * 2**64 + lo``.
# ----------------------------------------------------------------------
_LIMB = U64(32)
_LIMB_MASK = U64(0xFFFFFFFF)


def _mul_wide(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Exact ``a * b`` of two uint64 lane arrays as a wide ``(hi, lo)``.

    Schoolbook over 32-bit limbs; each partial sum is at most
    ``(2**32 - 1)**2 + (2**32 - 1) < 2**64``, so nothing wraps.
    """
    a0, a1 = a & _LIMB_MASK, a >> _LIMB
    b0, b1 = b & _LIMB_MASK, b >> _LIMB
    t = a0 * b0
    w0 = t & _LIMB_MASK
    t = a1 * b0 + (t >> _LIMB)
    w1, w2 = t & _LIMB_MASK, t >> _LIMB
    t = a0 * b1 + w1
    return a1 * b1 + w2 + (t >> _LIMB), (t << _LIMB) | w0


def _bit_length_wide(hi: np.ndarray, lo: np.ndarray) -> np.ndarray:
    """Per-lane bit length of a wide value."""
    return np.where(hi != 0, _bit_length(hi) + 64, _bit_length(lo))


def _shl_wide(
    hi: np.ndarray, lo: np.ndarray, k: int
) -> tuple[np.ndarray, np.ndarray]:
    """Wide ``(hi, lo) << k`` for a fixed ``k`` in [1, 127]; callers keep
    the shifted value below ``2**128``."""
    if k >= 64:
        return lo << U64(k - 64), np.zeros_like(lo)
    return (hi << U64(k)) | (lo >> U64(64 - k)), lo << U64(k)


def _shr_wide_sticky(
    hi: np.ndarray, lo: np.ndarray, k: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Wide ``((hi, lo) >> k, any bits lost)`` for per-lane ``k >= 0``.

    ``k`` is clamped at 127, which loses every bit of a value below
    ``2**127`` (all callers' values are).  Every numpy shift count stays
    in [0, 63].
    """
    k = _count(k, 0, 127)
    small = k < U64(64)
    ks = np.minimum(k, U64(63))
    kb = np.maximum(k, U64(64)) - U64(64)
    lo_small = (lo >> ks) | ((hi << U64(1)) << (U64(63) - ks))
    lost_small = (lo & ((U64(1) << ks) - U64(1))) != 0
    lost_big = (lo != 0) | ((hi & ((U64(1) << kb) - U64(1))) != 0)
    return (
        np.where(small, hi >> ks, U64(0)),
        np.where(small, lo_small, hi >> kb),
        np.where(small, lost_small, lost_big),
    )


def _negate_wide(
    hi: np.ndarray, lo: np.ndarray, mask: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Two's-complement negation of the wide lanes selected by ``mask``."""
    neg_hi = ~hi + (lo == 0).astype(U64)
    return np.where(mask, neg_hi, hi), np.where(mask, U64(0) - lo, lo)


def _narrow(
    hi: np.ndarray, lo: np.ndarray, exp2: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Compress a wide ``(hi, lo) * 2**exp2`` magnitude below ``2**127``
    to ``(mant, exp2', sticky)`` with ``mant < 2**61``, the
    :func:`_round_pack` contract.

    The dropped bits are pure sticky: a 61-bit ``mant`` keeps its round
    bit at least ``61 - 53 - 1 = 7`` places above the cut for every
    precision up to 53 (and further above on tiny results, whose lsb is
    coarser still).
    """
    shift = np.maximum(_bit_length_wide(hi, lo) - 61, 0)
    _, mant, lost = _shr_wide_sticky(hi, lo, shift)
    return mant, exp2 + shift, lost


def _long_divide(
    num: np.ndarray, den: np.ndarray, precision: int, extra: int
) -> tuple[np.ndarray, np.ndarray]:
    """``divmod(num << extra, den)`` for ``den < 2**precision`` and
    ``num < 2 * den``.

    Long division in chunks of ``63 - precision`` bits: the running
    remainder stays below ``den``, so each chunk's numerator
    ``rem << k`` is below ``2**63`` and native uint64 ``//`` is exact.
    The quotient is below ``2**(extra + 1)``.
    """
    quotient = (num >= den).astype(U64)
    rem = num - quotient * den
    while extra > 0:
        k = min(63 - precision, extra)
        rem = rem << U64(k)
        digit = rem // den
        rem = rem - digit * den
        quotient = (quotient << U64(k)) | digit
        extra -= k
    return quotient, rem


def _isqrt_wide(
    mant: np.ndarray, shift: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """``(r, R - r*r)`` with ``r = isqrt(R)`` for the radicand
    ``R = mant << shift``, where ``mant < 2**53`` and ``R < 2**111``.

    ``ldexp`` of a 53-bit integer is exact, so the float64 root is
    correctly rounded: within 5 of the true root (below ``2**56``, ulp at
    most 8).  For every candidate within 5 of the root ``|R - r*r|`` is
    below ``2**60``, so the wide residual equals the difference of the
    low words, taken in wrapping uint64 and read as int64.  One Newton
    step on that residual lands within 1 of ``isqrt(R)``; one compare
    each way finishes.
    """
    r_lo = mant << shift.astype(U64)
    root = np.sqrt(np.ldexp(mant.astype(np.float64), shift)).astype(U64)
    resid = (r_lo - root * root).view(I64)
    step = np.floor(resid / (2.0 * root.astype(np.float64))).astype(I64)
    root = (root.astype(I64) + step).astype(U64)
    resid = (r_lo - root * root).view(I64)
    over = resid < 0  # root**2 > R
    under = resid > 2 * root.astype(I64)  # (root + 1)**2 <= R
    root = root - over.astype(U64) + under.astype(U64)
    return root, (r_lo - root * root).view(I64)


def _rounds_away(
    mode: RoundingMode,
    sign: np.ndarray,
    lsb: np.ndarray,
    round_bit: np.ndarray,
    sticky: np.ndarray,
) -> np.ndarray:
    """Vectorized :meth:`RoundingMode.rounds_away` (sign/lsb/round_bit
    are uint64 0-or-more lanes, sticky is boolean)."""
    rb = round_bit != 0
    inexact = rb | sticky
    if mode is RoundingMode.NEAREST_EVEN:
        return rb & (sticky | (lsb != 0))
    if mode is RoundingMode.NEAREST_AWAY:
        return rb
    if mode is RoundingMode.TOWARD_ZERO:
        return np.zeros_like(rb)
    if mode is RoundingMode.TOWARD_POSITIVE:
        return inexact & (sign == 0)
    if mode is RoundingMode.TOWARD_NEGATIVE:
        return inexact & (sign == 1)
    raise AssertionError(f"unhandled rounding mode {mode!r}")


def _round_pack(
    fmt: FloatFormat,
    mode: RoundingMode,
    ftz: bool,
    sign: np.ndarray,
    mant: np.ndarray,
    exp2: np.ndarray,
    sticky_in: np.ndarray,
    live: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized ``round_and_pack``: round ``(-1)**sign * mant * 2**exp2
    (+ sticky)`` into ``fmt``, delivering (bits, flag bytes).

    ``mant`` must be positive and below ``2**61`` on live lanes; dead
    lanes produce zeros in both outputs.
    """
    n = mant.shape[0]
    p = fmt.precision
    mant = np.where(live & (mant > 0), mant, U64(1))
    sticky_in = sticky_in & live

    bl = _bit_length(mant)
    msb_exp = exp2 + bl - 1
    tiny = msb_exp < fmt.emin
    lsb_exp = np.where(tiny, I64(fmt.emin - (p - 1)), msb_exp - (p - 1))

    shift = lsb_exp - exp2
    left = shift <= 0
    kept_l = _shl(mant, -shift)
    below = _count(shift - 1, 0, 61)
    kept_r, rb_r, stk_r = (
        mant >> _count(shift, 1, 62),
        (mant >> below) & U64(1),
        sticky_in | ((mant & ((U64(1) << below) - U64(1))) != 0),
    )
    kept = np.where(left, kept_l, kept_r)
    round_bit = np.where(left, U64(0), rb_r)
    stk = np.where(left, sticky_in, stk_r)
    inexact = (round_bit != 0) | stk

    away = _rounds_away(mode, sign, kept & U64(1), round_bit, stk)
    kept = kept + away.astype(U64)
    kbl = _bit_length(kept)
    carry = kbl > p
    kept = np.where(carry, kept >> U64(1), kept)
    lsb_exp = lsb_exp + carry.astype(I64)
    kbl = kbl - carry.astype(I64)

    flags = np.zeros(n, dtype=np.uint8)
    flags[inexact] |= F_INEXACT
    flags[inexact & tiny] |= F_UNDERFLOW

    is_zero = kept == 0
    rounded_msb = lsb_exp + kbl - 1
    overflow = (~is_zero) & (rounded_msb > fmt.emax)
    normal = (~is_zero) & (~overflow) & (kbl == p)
    subnormal = (~is_zero) & (~overflow) & (kbl < p)

    signbit = sign << U64(fmt.width - 1)
    if mode.is_nearest:
        ovf_bits = signbit | U64(fmt.inf_bits(0))
    elif mode is RoundingMode.TOWARD_ZERO:
        ovf_bits = signbit | U64(fmt.max_finite_bits(0))
    elif mode is RoundingMode.TOWARD_POSITIVE:
        ovf_bits = np.where(
            sign == 0, U64(fmt.inf_bits(0)), U64(fmt.max_finite_bits(1))
        )
    else:  # TOWARD_NEGATIVE
        ovf_bits = np.where(
            sign == 1, U64(fmt.inf_bits(1)), U64(fmt.max_finite_bits(0))
        )
    flags[overflow & live] |= F_OVERFLOW | F_INEXACT

    biased = _count(rounded_msb + fmt.bias, 0, fmt.max_biased_exp)
    normal_bits = signbit | (biased << U64(fmt.frac_bits)) | (kept & U64(fmt.sig_mask))

    if ftz:
        flags[subnormal & live] |= F_UNDERFLOW | F_INEXACT
        sub_bits = signbit
    else:
        flags[subnormal & live] |= F_DENORMAL
        sub_bits = signbit | kept

    bits = np.where(
        is_zero,
        signbit,
        np.where(overflow, ovf_bits, np.where(normal, normal_bits, sub_bits)),
    )
    bits = np.where(live, bits, U64(0))
    flags = np.where(live, flags, np.uint8(0))
    return bits, flags


# ----------------------------------------------------------------------
# Operand decomposition
# ----------------------------------------------------------------------
class _Lanes:
    """Unpacked fields and class masks of one packed-operand array."""

    __slots__ = ("bits", "sign", "bexp", "frac", "nan", "snan", "inf", "zero", "sub")

    def __init__(self, fmt: FloatFormat, bits: np.ndarray) -> None:
        self.bits = bits
        self.sign = (bits >> U64(fmt.width - 1)) & U64(1)
        self.bexp = (bits >> U64(fmt.frac_bits)) & U64(fmt.max_biased_exp)
        self.frac = bits & U64(fmt.sig_mask)
        max_be = self.bexp == fmt.max_biased_exp
        self.nan = max_be & (self.frac != 0)
        self.snan = self.nan & ((self.frac & U64(fmt.quiet_bit)) == 0)
        self.inf = max_be & (self.frac == 0)
        self.zero = (self.bexp == 0) & (self.frac == 0)
        self.sub = (self.bexp == 0) & (self.frac != 0)


def _daz(fmt: FloatFormat, lanes: _Lanes) -> _Lanes:
    """Denormals-are-zero: flush subnormal lanes to signed zero."""
    bits = np.where(lanes.sub, lanes.sign << U64(fmt.width - 1), lanes.bits)
    return _Lanes(fmt, bits)


def _sig_value(fmt: FloatFormat, lanes: _Lanes) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized ``SoftFloat.significand_value``: (mant, exp2) lanes."""
    is_normal = lanes.bexp > 0
    mant = np.where(is_normal, lanes.frac | U64(fmt.hidden_bit), lanes.frac)
    exp2 = np.where(
        is_normal,
        lanes.bexp.astype(I64) - (fmt.bias + fmt.frac_bits),
        I64(fmt.emin - fmt.frac_bits),
    )
    return mant, exp2


def _sig_norm(fmt: FloatFormat, lanes: _Lanes) -> tuple[np.ndarray, np.ndarray]:
    """:func:`_sig_value` with subnormal significands shifted up to exactly
    ``precision`` bits (exponent adjusted, value unchanged); zero lanes
    stay zero."""
    mant, exp2 = _sig_value(fmt, lanes)
    shift = np.maximum(fmt.precision - _bit_length(mant), 0)
    return mant << shift.astype(U64), exp2 - shift


def _nan_propagation(
    fmt: FloatFormat, operands: Sequence[_Lanes]
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """IEEE NaN propagation lanes: (any-NaN mask, first NaN quieted,
    invalid mask for signaling NaNs)."""
    any_nan = operands[0].nan.copy()
    any_snan = operands[0].snan.copy()
    for ln in operands[1:]:
        any_nan |= ln.nan
        any_snan |= ln.snan
    quiet = U64(fmt.quiet_bit)
    result = np.zeros_like(operands[0].bits)
    remaining = any_nan.copy()
    for ln in operands:
        take = remaining & ln.nan
        result = np.where(take, ln.bits | quiet, result)
        remaining &= ~ln.nan
    return any_nan, result, any_snan


def _signed_sum(
    m1: np.ndarray,
    e1: np.ndarray,
    s1: np.ndarray,
    m2: np.ndarray,
    e2: np.ndarray,
    s2: np.ndarray,
    live: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Windowed exact signed sum of two (mant, exp2, sign) lane triples.

    Returns ``(is_zero, sign, mag, exp, sticky)``.  ``m1`` must be
    positive on live lanes; ``m2`` may be zero (the lane then reduces to
    operand 1).  See the module docstring for the window bound.
    """
    m1 = np.where(live, m1, U64(1))
    has2 = live & (m2 > 0)
    m2s = np.where(has2, m2, U64(1))

    bl1 = _bit_length(m1)
    bl2 = _bit_length(m2s)
    msb1 = e1 + bl1 - 1
    msb2 = np.where(has2, e2 + bl2 - 1, I64(-(1 << 40)))
    big = np.maximum(msb1, msb2)
    floor_exp = np.where(has2, np.minimum(e1, e2), e1)
    g = np.maximum(floor_exp, big - 57)

    sh1 = e1 - g
    a1_r, lost1_r = _shr_sticky(m1, -sh1)
    a1 = np.where(sh1 >= 0, _shl(m1, sh1), a1_r)
    lost1 = np.where(sh1 >= 0, False, lost1_r)

    sh2 = e2 - g
    a2_r, lost2_r = _shr_sticky(m2s, -sh2)
    a2 = np.where(sh2 >= 0, _shl(m2s, sh2), a2_r)
    lost2 = np.where(sh2 >= 0, False, lost2_r)
    a2 = np.where(has2, a2, U64(0))
    lost2 = np.where(has2, lost2, False)

    v1 = a1.astype(I64) * np.where(s1 != 0, -1, 1)
    v2 = a2.astype(I64) * np.where(s2 != 0, -1, 1)
    total = v1 + v2
    lost = lost1 | lost2
    s_lost = np.where(lost1, s1, s2)  # at most one side can lose bits

    is_zero = (total == 0) & live  # only reachable when nothing was lost
    sign = (total < 0).astype(U64)
    mag = np.abs(total).astype(U64)
    # A lost amount on the side opposite the result's sign is a borrow:
    # |total*2^g - d| = (|total|-1)*2^g + (2^g - d), both parts sticky.
    mag = mag - (lost & (s_lost != sign)).astype(U64)
    return is_zero, sign, mag, g, lost


def _fma_sum(
    precision: int,
    phi: np.ndarray,
    plo: np.ndarray,
    pe: np.ndarray,
    ps: np.ndarray,
    m3: np.ndarray,
    e3: np.ndarray,
    s3: np.ndarray,
    live: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Windowed exact signed sum of a wide product ``(phi, plo) * 2**pe``
    and a one-word addend ``m3 * 2**e3``, narrowed for :func:`_round_pack`.

    Returns ``(is_zero, sign, mant, exp2, sticky)``.  The product must
    come from normalized significands (``2p - 1`` or ``2p`` bits) and
    ``m3`` must have ``p`` bits or be zero.  See the module docstring for
    the window bound.
    """
    has3 = live & (m3 != 0)
    # Top-align both operands just below 2**125 with fixed shifts.
    lift_p = 125 - 2 * precision
    lift_c = 125 - precision
    phi, plo = _shl_wide(phi, plo, lift_p)
    chi, clo = _shl_wide(np.zeros_like(m3), np.where(has3, m3, U64(0)), lift_c)
    d = (pe - lift_p) - (e3 - lift_c)
    # The operand on the finer grid moves right onto the other's grid.
    p_moves = has3 & (d < 0)
    shi, slo = np.where(p_moves, chi, phi), np.where(p_moves, clo, plo)
    mhi, mlo, lost = _shr_wide_sticky(
        np.where(p_moves, phi, chi), np.where(p_moves, plo, clo), np.abs(d)
    )
    s_sign = np.where(p_moves, s3, ps)
    m_sign = np.where(p_moves, ps, s3)
    g = np.where(p_moves, e3 - lift_c, pe - lift_p)

    # Two's-complement sum relative to the staying operand's sign.
    mhi, mlo = _negate_wide(mhi, mlo, s_sign != m_sign)
    lo = slo + mlo
    hi = shi + mhi + (lo < slo).astype(U64)
    neg = (hi >> U64(63)) != 0
    hi, lo = _negate_wide(hi, lo, neg)
    sign = s_sign ^ neg.astype(U64)
    is_zero = live & (hi == 0) & (lo == 0)  # only reachable when nothing was lost
    # A lost amount on the side opposite the result's sign is a borrow.
    borrow = lost & (m_sign != sign)
    hi = hi - (borrow & (lo == 0)).astype(U64)
    lo = lo - borrow.astype(U64)
    mant, exp2, sticky = _narrow(hi, lo, g)
    return is_zero, sign, mant, exp2, sticky | lost


# ----------------------------------------------------------------------
# Batched operations
# ----------------------------------------------------------------------
def _batch_addsub(fmt, a, b, mode, ftz, daz, negate_b):
    n = a.shape[0]
    lanes_a = _Lanes(fmt, a)
    lanes_b = _Lanes(fmt, b)
    # NaN propagation sees the *original* operands (fp_sub semantics).
    nan_mask, nan_bits, any_snan = _nan_propagation(fmt, [lanes_a, lanes_b])
    flags = np.zeros(n, dtype=np.uint8)
    flags[any_snan] |= F_INVALID
    if negate_b:
        lanes_b = _Lanes(fmt, b ^ (U64(1) << U64(fmt.width - 1)))
    if daz:
        lanes_a = _daz(fmt, lanes_a)
        lanes_b = _daz(fmt, lanes_b)
    A, B = lanes_a, lanes_b

    ezs_bits = U64(fmt.zero_bits(1 if mode is RoundingMode.TOWARD_NEGATIVE else 0))
    default_nan = U64(fmt.quiet_nan_bits())

    inf_any = A.inf | B.inf
    inf_invalid = A.inf & B.inf & (A.sign != B.sign)
    flags[inf_invalid] |= F_INVALID
    inf_bits = np.where(A.inf, A.bits, B.bits)

    both_zero = A.zero & B.zero
    both_zero_bits = np.where(A.sign == B.sign, A.bits, ezs_bits)
    a_zero_only = A.zero & ~B.zero
    b_zero_only = B.zero & ~A.zero

    generic = ~nan_mask & ~inf_any & ~A.zero & ~B.zero
    m1, e1 = _sig_value(fmt, A)
    m2, e2 = _sig_value(fmt, B)
    is_zero, sign, mag, g, stk = _signed_sum(m1, e1, A.sign, m2, e2, B.sign, generic)
    rbits, rflags = _round_pack(fmt, mode, ftz, sign, mag, g, stk, generic & ~is_zero)
    flags |= rflags

    bits = _select(
        [nan_mask, inf_invalid, inf_any, both_zero, a_zero_only, b_zero_only, is_zero],
        [nan_bits, default_nan, inf_bits, both_zero_bits, B.bits, A.bits, ezs_bits],
        default=rbits,
    )
    return bits, flags


def _batch_mul(fmt, a, b, mode, ftz, daz):
    n = a.shape[0]
    A = _Lanes(fmt, a)
    B = _Lanes(fmt, b)
    nan_mask, nan_bits, any_snan = _nan_propagation(fmt, [A, B])
    flags = np.zeros(n, dtype=np.uint8)
    flags[any_snan] |= F_INVALID
    if daz:
        A, B = _daz(fmt, A), _daz(fmt, B)
    sign = A.sign ^ B.sign
    signbit = sign << U64(fmt.width - 1)
    default_nan = U64(fmt.quiet_nan_bits())

    inf_any = A.inf | B.inf
    mul_invalid = inf_any & (A.zero | B.zero)  # 0 * inf
    flags[mul_invalid & ~nan_mask] |= F_INVALID
    zero_res = (A.zero | B.zero) & ~inf_any

    generic = ~nan_mask & ~inf_any & ~A.zero & ~B.zero
    m1, e1 = _sig_norm(fmt, A)
    m2, e2 = _sig_norm(fmt, B)
    # Normalized significands make the product exactly 2p-1 or 2p bits,
    # so one fixed cut narrows it to at most 61 bits plus sticky.
    hi, lo = _mul_wide(m1, m2)
    cut = max(2 * fmt.precision - 61, 0)
    lost = (lo & U64((1 << cut) - 1)) != 0
    mant = (lo >> U64(cut)) | (hi << U64(64 - cut)) if cut else lo
    rbits, rflags = _round_pack(
        fmt, mode, ftz, sign, mant, e1 + e2 + cut, lost, generic
    )
    flags |= rflags

    bits = _select(
        [nan_mask, mul_invalid, inf_any, zero_res],
        [nan_bits, default_nan, signbit | U64(fmt.inf_bits(0)), signbit],
        default=rbits,
    )
    return bits, flags


def _batch_div(fmt, a, b, mode, ftz, daz):
    n = a.shape[0]
    A = _Lanes(fmt, a)
    B = _Lanes(fmt, b)
    nan_mask, nan_bits, any_snan = _nan_propagation(fmt, [A, B])
    flags = np.zeros(n, dtype=np.uint8)
    flags[any_snan] |= F_INVALID
    if daz:
        A, B = _daz(fmt, A), _daz(fmt, B)
    sign = A.sign ^ B.sign
    signbit = sign << U64(fmt.width - 1)
    default_nan = U64(fmt.quiet_nan_bits())

    div_invalid = (A.inf & B.inf) | (A.zero & B.zero)
    div_by_zero = B.zero & ~A.zero & ~A.inf  # finite nonzero / 0
    flags[div_invalid & ~nan_mask] |= F_INVALID
    flags[div_by_zero & ~nan_mask] |= F_DIVZERO
    inf_res = (A.inf & ~B.inf) | div_by_zero
    zero_res = (B.inf & ~A.inf) | (A.zero & ~B.zero & ~B.inf)

    generic = ~nan_mask & ~A.inf & ~B.inf & ~A.zero & ~B.zero
    m1, e1 = _sig_norm(fmt, A)
    m2, e2 = _sig_norm(fmt, B)
    num = np.where(generic, m1, U64(1))
    den = np.where(generic, m2, U64(1))
    # Both significands have exactly p bits, so num < 2*den and the
    # quotient of num * 2**extra carries extra or extra + 1 bits:
    # p + 2 or p + 3, past the round bit, with the remainder as sticky.
    extra = fmt.precision + 2
    quotient, rem = _long_divide(num, den, fmt.precision, extra)
    rbits, rflags = _round_pack(
        fmt, mode, ftz, sign, quotient, e1 - e2 - extra, rem != 0, generic
    )
    flags |= rflags

    bits = _select(
        [nan_mask, div_invalid, inf_res, zero_res],
        [nan_bits, default_nan, signbit | U64(fmt.inf_bits(0)), signbit],
        default=rbits,
    )
    return bits, flags


def _batch_fma(fmt, a, b, c, mode, ftz, daz):
    n = a.shape[0]
    A0 = _Lanes(fmt, a)
    B0 = _Lanes(fmt, b)
    C0 = _Lanes(fmt, c)
    flags = np.zeros(n, dtype=np.uint8)
    default_nan = U64(fmt.quiet_nan_bits())

    # x86 FMA3 ordering: a signaling NaN anywhere wins; otherwise an
    # invalid 0*inf product beats even a quiet NaN in c.
    snan_any = A0.snan | B0.snan | C0.snan
    product_invalid = (A0.inf & B0.zero) | (A0.zero & B0.inf)
    nan_any = A0.nan | B0.nan | C0.nan
    _, nan_bits, _ = _nan_propagation(fmt, [A0, B0, C0])
    pinv_path = product_invalid & ~snan_any
    qnan_path = nan_any & ~snan_any & ~pinv_path
    nan_like = snan_any | pinv_path | qnan_path
    flags[snan_any] |= F_INVALID
    flags[pinv_path] |= F_INVALID

    A, B, C = A0, B0, C0
    if daz:
        A, B, C = _daz(fmt, A), _daz(fmt, B), _daz(fmt, C)
    psign = A.sign ^ B.sign
    psignbit = psign << U64(fmt.width - 1)
    ezs_bits = U64(fmt.zero_bits(1 if mode is RoundingMode.TOWARD_NEGATIVE else 0))

    ab_inf = (A.inf | B.inf) & ~nan_like
    inf_c_invalid = ab_inf & C.inf & (C.sign != psign)
    flags[inf_c_invalid] |= F_INVALID
    c_inf = C.inf & ~ab_inf & ~nan_like

    prod_zero = (A.zero | B.zero) & ~ab_inf & ~nan_like
    pz_c_zero = prod_zero & C.zero
    pz_c_zero_bits = np.where(psign == C.sign, psignbit, ezs_bits)
    pz_c = prod_zero & ~C.zero

    generic = ~nan_like & ~ab_inf & ~C.inf & ~prod_zero
    m1, e1 = _sig_norm(fmt, A)
    m2, e2 = _sig_norm(fmt, B)
    m3, e3 = _sig_norm(fmt, C)
    phi, plo = _mul_wide(m1, m2)
    is_zero, sign, mag, g, stk = _fma_sum(
        fmt.precision, phi, plo, e1 + e2, psign, m3, e3, C.sign, generic
    )
    rbits, rflags = _round_pack(fmt, mode, ftz, sign, mag, g, stk, generic & ~is_zero)
    flags |= rflags

    bits = _select(
        [
            snan_any,
            pinv_path,
            qnan_path,
            inf_c_invalid,
            ab_inf,
            c_inf,
            pz_c_zero,
            pz_c,
            is_zero,
        ],
        [
            nan_bits,
            default_nan,
            nan_bits,
            default_nan,
            psignbit | U64(fmt.inf_bits(0)),
            C.bits,
            pz_c_zero_bits,
            C.bits,
            ezs_bits,
        ],
        default=rbits,
    )
    return bits, flags


def _batch_sqrt(fmt, a, mode, ftz, daz):
    n = a.shape[0]
    A = _Lanes(fmt, a)
    nan_mask, nan_bits, any_snan = _nan_propagation(fmt, [A])
    flags = np.zeros(n, dtype=np.uint8)
    flags[any_snan] |= F_INVALID
    if daz:
        A = _daz(fmt, A)
    default_nan = U64(fmt.quiet_nan_bits())

    negative = ~nan_mask & ~A.zero & (A.sign == 1)  # includes -inf
    flags[negative] |= F_INVALID
    pos_inf = A.inf & (A.sign == 0)
    generic = ~nan_mask & ~A.zero & ~negative & ~pos_inf

    mant, exp2 = _sig_norm(fmt, A)
    mant = np.where(generic, mant, U64(1))
    # Scale the p-bit significand to a 2p+4 or 2p+5 bit radicand with an
    # even exponent, whose integer root then carries p + 2 bits.
    p = fmt.precision
    shift = np.where(((exp2 - (p + 4)) & 1) != 0, p + 5, p + 4)
    root, rem = _isqrt_wide(mant, shift)
    rbits, rflags = _round_pack(
        fmt, mode, ftz, np.zeros(n, dtype=U64), root, (exp2 - shift) >> 1,
        rem != 0, generic,
    )
    flags |= rflags

    bits = _select(
        [nan_mask, A.zero, negative, pos_inf],
        [nan_bits, A.bits, default_nan, A.bits],
        default=rbits,
    )
    return bits, flags


def _batch_compare(fmt, a, b, signaling):
    n = a.shape[0]
    A = _Lanes(fmt, a)
    B = _Lanes(fmt, b)
    flags = np.zeros(n, dtype=np.uint8)
    any_nan = A.nan | B.nan
    flags[any_nan if signaling else (A.snan | B.snan)] |= F_INVALID

    mag_mask = U64((1 << (fmt.width - 1)) - 1)
    mag_a = a & mag_mask
    mag_b = b & mag_mask
    eq_mag = mag_a == mag_b
    lt_mag = mag_a < mag_b
    pos = np.where(eq_mag, ORD_EQUAL, np.where(lt_mag, ORD_LESS, ORD_GREATER))
    neg = np.where(eq_mag, ORD_EQUAL, np.where(lt_mag, ORD_GREATER, ORD_LESS))
    same_sign = np.where(A.sign == 1, neg, pos)
    diff_sign = np.where(A.sign == 1, ORD_LESS, ORD_GREATER)
    ordered = np.where(
        A.zero & B.zero,
        ORD_EQUAL,
        np.where(A.sign != B.sign, diff_sign, same_sign),
    )
    code = np.where(any_nan, ORD_UNORDERED, ordered).astype(U64)
    return code, flags


def _batch_convert(src, dst, a, mode, ftz):
    n = a.shape[0]
    A = _Lanes(src, a)
    flags = np.zeros(n, dtype=np.uint8)
    flags[A.snan] |= F_INVALID
    if src == dst:
        bits = np.where(A.snan, a | U64(src.quiet_bit), a)
        return bits, flags

    dst_signbit = A.sign << U64(dst.width - 1)
    # NaN payloads move across, truncating from the low end if needed.
    payload = A.frac & ~U64(src.quiet_bit)
    shift = dst.frac_bits - src.frac_bits
    payload = payload << U64(shift) if shift >= 0 else payload >> U64(-shift)
    payload &= U64(dst.quiet_bit - 1)
    nan_bits = dst_signbit | U64(dst.quiet_nan_bits(0, 0)) | payload

    generic = ~A.nan & ~A.inf & ~A.zero
    mant, exp2 = _sig_value(src, A)
    rbits, rflags = _round_pack(
        dst, mode, ftz, A.sign, mant, exp2, np.zeros(n, dtype=bool), generic
    )
    flags |= rflags

    bits = _select(
        [A.nan, A.inf, A.zero],
        [nan_bits, dst_signbit | U64(dst.inf_bits(0)), dst_signbit],
        default=rbits,
    )
    return bits, flags


# ----------------------------------------------------------------------
# The backend
# ----------------------------------------------------------------------
class BatchBackend(SoftFloatBackend):
    """Vectorized integer backend over uint64 lanes (see module docs)."""

    name = "batch"

    def supports(
        self,
        op: str,
        fmt: FloatFormat,
        mode: RoundingMode,
        ftz: bool,
        daz: bool,
        dst_fmt: FloatFormat | None = None,
    ) -> bool:
        if fmt.width > 64:
            return False
        if op in ("compare_quiet", "compare_signaling"):
            return True
        if op == "convert":
            return (
                dst_fmt is not None
                and dst_fmt.width <= 64
                and fmt.precision <= 53
                and dst_fmt.precision <= 53
            )
        if op in ("add", "sub", "mul", "div", "fma", "sqrt"):
            return fmt.precision <= 53
        return False

    def run_packed(
        self,
        op: str,
        fmt: FloatFormat,
        operands: Sequence[np.ndarray],
        mode: RoundingMode,
        ftz: bool,
        daz: bool,
        dst_fmt: FloatFormat | None = None,
    ) -> BatchResult:
        if not self.supports(op, fmt, mode, ftz, daz, dst_fmt):
            raise ValueError(f"batch backend does not support {op} on {fmt.name}")
        mask = U64((1 << fmt.width) - 1) if fmt.width < 64 else U64(2**64 - 1)
        arrays = [np.asarray(o, dtype=U64) & mask for o in operands]
        if op in ("add", "sub"):
            bits, flags = _batch_addsub(
                fmt, arrays[0], arrays[1], mode, ftz, daz, op == "sub"
            )
        elif op == "mul":
            bits, flags = _batch_mul(fmt, arrays[0], arrays[1], mode, ftz, daz)
        elif op == "div":
            bits, flags = _batch_div(fmt, arrays[0], arrays[1], mode, ftz, daz)
        elif op == "fma":
            bits, flags = _batch_fma(
                fmt, arrays[0], arrays[1], arrays[2], mode, ftz, daz
            )
        elif op == "sqrt":
            bits, flags = _batch_sqrt(fmt, arrays[0], mode, ftz, daz)
        elif op in ("compare_quiet", "compare_signaling"):
            bits, flags = _batch_compare(
                fmt, arrays[0], arrays[1], op == "compare_signaling"
            )
        else:  # convert
            assert dst_fmt is not None
            bits, flags = _batch_convert(fmt, dst_fmt, arrays[0], mode, ftz)
        return BatchResult(bits.astype(U64), flags)
