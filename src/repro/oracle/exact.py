"""The exact-rounding reference: IEEE 754 computed over exact integers.

This module is the *oracle* half of the conformance subsystem.  Each
operand is decoded once into a sign and an exact integer significand
scaled by a power of two, ``mant * 2**exp2``; every operation is then
computed exactly on those integers — sums by aligning exponents,
products and quotients as an integer ratio ``num / den * 2**exp2``, and
square root by integer square root with exact square comparisons — and
correctly rounded into the destination format by comparing the exact
remainder against the halfway point.  Nothing here shares code with
the engine's round-and-pack path — the engine works on shifted integer
mantissas with guard/sticky markers, the oracle on exact
remainder-vs-halfway comparisons of a full-width ratio — so a bug has
to appear *twice, independently* to escape the differential runner.

The oracle reproduces the engine's *documented* latitude choices so
that agreement can be demanded bit-for-bit:

- NaN propagation returns the first NaN operand, quieted, raising
  *invalid* iff some operand was signaling;
- ``fma(0, inf, c)`` is invalid with the default NaN even for quiet
  NaN ``c`` (the x86 FMA3 rule);
- exact zeros from cancellation are ``+0`` except under
  roundTowardNegative;
- tininess is detected before rounding by default (the x86/SSE choice);
  pass ``tininess="after"`` for the other 754-sanctioned convention.
"""

from __future__ import annotations

import dataclasses
import math
from typing import TYPE_CHECKING

from repro.fpenv.flags import FPFlag
from repro.fpenv.rounding import RoundingMode
from repro.softfloat.formats import FloatFormat
from repro.softfloat.value import SoftFloat

if TYPE_CHECKING:  # pragma: no cover
    from fractions import Fraction

__all__ = [
    "OracleConfig",
    "OracleResult",
    "ORACLE_OPS",
    "OP_ARITY",
    "oracle_add",
    "oracle_sub",
    "oracle_mul",
    "oracle_div",
    "oracle_sqrt",
    "oracle_fma",
    "oracle_operation",
    "round_fraction_exact",
]

# How the discarded part of an exact value compares to half a ULP.
_EXACT, _BELOW_HALF, _HALF, _ABOVE_HALF = range(4)


@dataclasses.dataclass(frozen=True)
class OracleConfig:
    """Environment parameters the oracle evaluates under.

    ``tininess`` selects the underflow-detection convention: ``"before"``
    (tiny iff the exact value is below the smallest normal; x86/SSE) or
    ``"after"`` (tiny iff the result rounded as if the exponent range
    were unbounded is below it; PowerPC/ARM FPSCR).
    """

    rounding: RoundingMode = RoundingMode.NEAREST_EVEN
    ftz: bool = False
    daz: bool = False
    tininess: str = "before"

    def __post_init__(self) -> None:
        if self.tininess not in ("before", "after"):
            raise ValueError(f"tininess must be 'before' or 'after', got"
                             f" {self.tininess!r}")


@dataclasses.dataclass(frozen=True)
class OracleResult:
    """What the oracle says an operation must deliver: the exact result
    encoding and the exact sticky-flag set."""

    bits: int
    flags: FPFlag

    def value(self, fmt: FloatFormat) -> SoftFloat:
        """The result as a SoftFloat in ``fmt``."""
        return SoftFloat(fmt, self.bits)


# ----------------------------------------------------------------------
# Correct rounding of an exact magnitude
# ----------------------------------------------------------------------
_RNE = RoundingMode.NEAREST_EVEN
_RNA = RoundingMode.NEAREST_AWAY
_RTZ = RoundingMode.TOWARD_ZERO
_RTP = RoundingMode.TOWARD_POSITIVE
_RTN = RoundingMode.TOWARD_NEGATIVE

# Every flag set by its integer value, so results index instead of
# combining enum members on the hot path.
_FLAGS = tuple(FPFlag(value) for value in range(FPFlag.ALL.value + 1))
_INVALID = FPFlag.INVALID.value
_DIV_BY_ZERO = FPFlag.DIV_BY_ZERO.value
_OVERFLOW = FPFlag.OVERFLOW.value
_UNDERFLOW = FPFlag.UNDERFLOW.value
_INEXACT = FPFlag.INEXACT.value
_DENORMAL = FPFlag.DENORMAL_RESULT.value


def _ilog2(num: int, den: int) -> int:
    """``floor(log2(num/den))`` for positive integers, exactly."""
    k = num.bit_length() - den.bit_length()
    # 2**k <= num/den  iff  num >= den * 2**k
    if k >= 0:
        return k if num >= (den << k) else k - 1
    return k if (num << -k) >= den else k - 1


def _rounds_up(mode: RoundingMode, sign: int, odd: int, state: int) -> bool:
    """Independent reimplementation of the five rounding decisions."""
    if state == _EXACT:
        return False
    if mode is _RNE:
        return state == _ABOVE_HALF or (state == _HALF and odd == 1)
    if mode is _RNA:
        return state != _BELOW_HALF
    if mode is _RTZ:
        return False
    if mode is _RTP:
        return sign == 0
    if mode is _RTN:
        return sign == 1
    raise AssertionError(f"unhandled rounding mode {mode!r}")


def _overflow_bits(fmt: FloatFormat, mode: RoundingMode, sign: int) -> int:
    """Result encoding on overflow (inf or max-finite per direction)."""
    if mode is _RNE or mode is _RNA:
        return fmt.inf_bits(sign)
    if mode is _RTZ:
        return fmt.max_finite_bits(sign)
    if mode is _RTP:
        return fmt.inf_bits(0) if sign == 0 else fmt.max_finite_bits(1)
    return fmt.inf_bits(1) if sign == 1 else fmt.max_finite_bits(0)


def _finish(
    fmt: FloatFormat,
    cfg: OracleConfig,
    sign: int,
    n: int,
    q: int,
    state: int,
    tiny_before: bool,
) -> OracleResult:
    """Deliver the truncated significand ``n`` at granularity ``2**q``
    whose discarded part compares to half a ULP as ``state``."""
    precision = fmt.precision
    if _rounds_up(cfg.rounding, sign, n & 1, state):
        n += 1
        if n >> precision:  # carry out of the significand
            n >>= 1
            q += 1
    sign_bits = sign << (fmt.width - 1)

    if n == 0:
        # A tiny value rounded all the way down to zero.
        return OracleResult(sign_bits, _FLAGS[_INEXACT | _UNDERFLOW])

    msb_exp = q + n.bit_length() - 1
    if msb_exp > fmt.emax:
        return OracleResult(_overflow_bits(fmt, cfg.rounding, sign),
                            _FLAGS[_OVERFLOW | _INEXACT])

    subnormal = n.bit_length() < precision
    if cfg.tininess == "before":
        tiny = tiny_before
    else:
        tiny = tiny_before and subnormal
    flags = 0
    if state != _EXACT:
        flags = _INEXACT | _UNDERFLOW if tiny else _INEXACT

    if not subnormal:
        biased_exp = msb_exp + fmt.bias
        return OracleResult(
            sign_bits | (biased_exp << fmt.frac_bits) | (n & fmt.sig_mask),
            _FLAGS[flags])

    if q != fmt.emin - fmt.frac_bits:  # pragma: no cover - invariant
        raise AssertionError("subnormal delivered at the wrong granularity")
    if cfg.ftz:
        return OracleResult(sign_bits,
                            _FLAGS[flags | _UNDERFLOW | _INEXACT])
    return OracleResult(sign_bits | n, _FLAGS[flags | _DENORMAL])


def _round_ratio(
    fmt: FloatFormat, cfg: OracleConfig, sign: int, num: int, den: int,
    exp2: int,
) -> OracleResult:
    """Correctly round the positive value ``num / den * 2**exp2`` into
    ``fmt`` with the exact flag set.  This is the oracle's core
    primitive: every finite nonzero sum, product and quotient ends
    here."""
    e = _ilog2(num, den) + exp2
    emin = fmt.emin
    tiny_before = e < emin
    q = (emin if tiny_before else e) - fmt.frac_bits
    # n = floor(value / 2**q), remainder compared against half a ULP.
    shift = exp2 - q
    if shift >= 0:
        num <<= shift
    else:
        den <<= -shift
    n, rem = divmod(num, den)
    if rem == 0:
        state = _EXACT
    else:
        doubled = rem << 1
        state = (_BELOW_HALF if doubled < den
                 else _HALF if doubled == den else _ABOVE_HALF)
    return _finish(fmt, cfg, sign, n, q, state, tiny_before)


def round_fraction_exact(
    fmt: FloatFormat, magnitude: Fraction, cfg: OracleConfig, sign: int = 0
) -> OracleResult:
    """Correctly round the positive rational ``magnitude`` into ``fmt``
    with the exact flag set (a thin wrapper over the integer core)."""
    if magnitude <= 0:
        raise ValueError("round_fraction_exact needs a positive magnitude")
    return _round_ratio(fmt, cfg, sign, magnitude.numerator,
                        magnitude.denominator, 0)


def _round_sqrt(
    fmt: FloatFormat, cfg: OracleConfig, mant: int, exp2: int
) -> OracleResult:
    """Correctly round ``sqrt(mant * 2**exp2)``: integer square root
    plus exact square comparisons against the halfway point."""
    e_r = (mant.bit_length() - 1 + exp2) // 2  # floor exponent of the root
    emin = fmt.emin
    tiny_before = e_r < emin
    q = (emin if tiny_before else e_r) - fmt.frac_bits
    # sqrt(value) / 2**q = sqrt(m) with the integer m = value * 4**(-q);
    # the shift is never negative for an operand of the format.
    m = mant << (exp2 - 2 * q)
    n = math.isqrt(m)
    if n * n == m:
        state = _EXACT
    else:
        # Compare m against (n + 1/2)**2 = (2n+1)**2 / 4.
        lhs, rhs = m << 2, ((n << 1) + 1) ** 2
        state = (_BELOW_HALF if lhs < rhs
                 else _HALF if lhs == rhs else _ABOVE_HALF)
    return _finish(fmt, cfg, 0, n, q, state, tiny_before)


# ----------------------------------------------------------------------
# Operand decoding and the special-operand policy (an independent
# restatement of the engine's rules)
# ----------------------------------------------------------------------
def _decode(fmt: FloatFormat, cfg: OracleConfig, bits: int) -> tuple[int, int]:
    """``(sign, magnitude)`` of an encoding, with DAZ applied: the
    magnitude is the encoding without its sign bit, so it orders
    zero < subnormal < normal < inf < NaN."""
    sign = bits >> (fmt.width - 1)
    magnitude = bits & ~(sign << (fmt.width - 1))
    if cfg.daz and magnitude < fmt.hidden_bit:
        magnitude = 0
    return sign, magnitude


def _scaled(fmt: FloatFormat, magnitude: int) -> tuple[int, int]:
    """A finite magnitude as ``(mant, exp2)``: value = mant * 2**exp2."""
    biased_exp = magnitude >> fmt.frac_bits
    if biased_exp == 0:  # zero or subnormal: the exponent of emin
        return magnitude, 1 - fmt.bias - fmt.frac_bits
    return ((magnitude & fmt.sig_mask) | fmt.hidden_bit,
            biased_exp - fmt.bias - fmt.frac_bits)


def _inf(fmt: FloatFormat) -> int:
    """The magnitude of infinity; anything above it is a NaN."""
    return fmt.max_biased_exp << fmt.frac_bits


def _propagated_nan(fmt: FloatFormat, *operands: int) -> OracleResult:
    inf, quiet = _inf(fmt), fmt.quiet_bit
    sign_bit = 1 << (fmt.width - 1)
    nans = [x for x in operands if x & ~sign_bit > inf]
    signaling = any(not x & quiet for x in nans)
    return OracleResult(nans[0] | quiet,
                        _FLAGS[_INVALID if signaling else 0])


def _default_nan(fmt: FloatFormat) -> OracleResult:
    return OracleResult(fmt.quiet_nan_bits(), _FLAGS[_INVALID])


def _exact(fmt: FloatFormat, sign: int, magnitude: int,
           flags: int = 0) -> OracleResult:
    """A result delivered without rounding (zeros, infinities, and
    operands passed through)."""
    return OracleResult((sign << (fmt.width - 1)) | magnitude, _FLAGS[flags])


def _cancel_zero_sign(cfg: OracleConfig) -> int:
    return 1 if cfg.rounding is _RTN else 0


def _round_sum(
    fmt: FloatFormat, cfg: OracleConfig,
    sa: int, ma: int, ea: int, sb: int, mb: int, eb: int,
) -> OracleResult:
    """Correctly round ``±ma * 2**ea ± mb * 2**eb``, aligned exactly."""
    if ea > eb:
        ma <<= ea - eb
        ea = eb
    else:
        mb <<= eb - ea
    total = (-ma if sa else ma) + (-mb if sb else mb)
    if total == 0:
        return _exact(fmt, _cancel_zero_sign(cfg), 0)
    if total < 0:
        return _round_ratio(fmt, cfg, 1, -total, 1, ea)
    return _round_ratio(fmt, cfg, 0, total, 1, ea)


# ----------------------------------------------------------------------
# Operations on encodings
# ----------------------------------------------------------------------
def _add(fmt: FloatFormat, cfg: OracleConfig, a: int, b: int) -> OracleResult:
    inf = _inf(fmt)
    sa, ma = _decode(fmt, cfg, a)
    sb, mb = _decode(fmt, cfg, b)
    if ma > inf or mb > inf:
        return _propagated_nan(fmt, a, b)
    if ma == inf or mb == inf:
        if ma == mb and sa != sb:
            return _default_nan(fmt)
        return _exact(fmt, sa, ma) if ma == inf else _exact(fmt, sb, mb)
    if ma == 0 and mb == 0:
        return _exact(fmt, sa if sa == sb else _cancel_zero_sign(cfg), 0)
    if ma == 0:
        return _exact(fmt, sb, mb)
    if mb == 0:
        return _exact(fmt, sa, ma)
    return _round_sum(fmt, cfg, sa, *_scaled(fmt, ma), sb, *_scaled(fmt, mb))


def _sub(fmt: FloatFormat, cfg: OracleConfig, a: int, b: int) -> OracleResult:
    # NaN payloads come from the *original* operands, then a + (-b).
    inf = _inf(fmt)
    sign_bit = 1 << (fmt.width - 1)
    if a & ~sign_bit > inf or b & ~sign_bit > inf:
        return _propagated_nan(fmt, a, b)
    return _add(fmt, cfg, a, b ^ sign_bit)


def _mul(fmt: FloatFormat, cfg: OracleConfig, a: int, b: int) -> OracleResult:
    inf = _inf(fmt)
    sa, ma = _decode(fmt, cfg, a)
    sb, mb = _decode(fmt, cfg, b)
    if ma > inf or mb > inf:
        return _propagated_nan(fmt, a, b)
    sign = sa ^ sb
    if ma == inf or mb == inf:
        if ma == 0 or mb == 0:
            return _default_nan(fmt)
        return _exact(fmt, sign, inf)
    if ma == 0 or mb == 0:
        return _exact(fmt, sign, 0)
    mant_a, ea = _scaled(fmt, ma)
    mant_b, eb = _scaled(fmt, mb)
    return _round_ratio(fmt, cfg, sign, mant_a * mant_b, 1, ea + eb)


def _div(fmt: FloatFormat, cfg: OracleConfig, a: int, b: int) -> OracleResult:
    inf = _inf(fmt)
    sa, ma = _decode(fmt, cfg, a)
    sb, mb = _decode(fmt, cfg, b)
    if ma > inf or mb > inf:
        return _propagated_nan(fmt, a, b)
    sign = sa ^ sb
    if ma == inf:
        return _default_nan(fmt) if mb == inf else _exact(fmt, sign, inf)
    if mb == inf:
        return _exact(fmt, sign, 0)
    if mb == 0:
        if ma == 0:
            return _default_nan(fmt)
        return _exact(fmt, sign, inf, _DIV_BY_ZERO)
    if ma == 0:
        return _exact(fmt, sign, 0)
    mant_a, ea = _scaled(fmt, ma)
    mant_b, eb = _scaled(fmt, mb)
    return _round_ratio(fmt, cfg, sign, mant_a, mant_b, ea - eb)


def _sqrt(fmt: FloatFormat, cfg: OracleConfig, a: int) -> OracleResult:
    inf = _inf(fmt)
    sa, ma = _decode(fmt, cfg, a)
    if ma > inf:
        return _propagated_nan(fmt, a)
    if ma == 0:
        return _exact(fmt, sa, 0)  # sqrt(±0) = ±0
    if sa:
        return _default_nan(fmt)
    if ma == inf:
        return _exact(fmt, 0, inf)
    return _round_sqrt(fmt, cfg, *_scaled(fmt, ma))


def _fma(
    fmt: FloatFormat, cfg: OracleConfig, a: int, b: int, c: int
) -> OracleResult:
    inf = _inf(fmt)
    sign_bit = 1 << (fmt.width - 1)
    raw = (a & ~sign_bit, b & ~sign_bit, c & ~sign_bit)
    if any(m > inf and not m & fmt.quiet_bit for m in raw):
        return _propagated_nan(fmt, a, b, c)
    # Judged on the operands as given, before DAZ.
    if (raw[0] == inf and raw[1] == 0) or (raw[0] == 0 and raw[1] == inf):
        return _default_nan(fmt)
    if max(raw) > inf:
        return _propagated_nan(fmt, a, b, c)
    sa, ma = _decode(fmt, cfg, a)
    sb, mb = _decode(fmt, cfg, b)
    sc, mc = _decode(fmt, cfg, c)
    psign = sa ^ sb
    if ma == inf or mb == inf:
        if mc == inf and sc != psign:
            return _default_nan(fmt)
        return _exact(fmt, psign, inf)
    if mc == inf:
        return _exact(fmt, sc, inf)
    if ma == 0 or mb == 0:
        if mc == 0:
            return _exact(fmt, psign if psign == sc
                          else _cancel_zero_sign(cfg), 0)
        return _exact(fmt, sc, mc)
    mant_a, ea = _scaled(fmt, ma)
    mant_b, eb = _scaled(fmt, mb)
    return _round_sum(fmt, cfg, psign, mant_a * mant_b, ea + eb,
                      sc, *_scaled(fmt, mc))


# ----------------------------------------------------------------------
# SoftFloat entry points
# ----------------------------------------------------------------------
def oracle_add(cfg: OracleConfig, a: SoftFloat, b: SoftFloat) -> OracleResult:
    """Exact-rounding reference for IEEE addition."""
    return _add(a.fmt, cfg, a.bits, b.bits)


def oracle_sub(cfg: OracleConfig, a: SoftFloat, b: SoftFloat) -> OracleResult:
    """Exact-rounding reference for IEEE subtraction (NaN payloads come
    from the *original* operands, then ``a + (-b)``)."""
    return _sub(a.fmt, cfg, a.bits, b.bits)


def oracle_mul(cfg: OracleConfig, a: SoftFloat, b: SoftFloat) -> OracleResult:
    """Exact-rounding reference for IEEE multiplication."""
    return _mul(a.fmt, cfg, a.bits, b.bits)


def oracle_div(cfg: OracleConfig, a: SoftFloat, b: SoftFloat) -> OracleResult:
    """Exact-rounding reference for IEEE division."""
    return _div(a.fmt, cfg, a.bits, b.bits)


def oracle_sqrt(cfg: OracleConfig, a: SoftFloat) -> OracleResult:
    """Exact-rounding reference for IEEE square root."""
    return _sqrt(a.fmt, cfg, a.bits)


def oracle_fma(
    cfg: OracleConfig, a: SoftFloat, b: SoftFloat, c: SoftFloat
) -> OracleResult:
    """Exact-rounding reference for fused multiply-add (one rounding)."""
    return _fma(a.fmt, cfg, a.bits, b.bits, c.bits)


#: Oracle dispatch by operation name.
ORACLE_OPS = {
    "add": oracle_add,
    "sub": oracle_sub,
    "mul": oracle_mul,
    "div": oracle_div,
    "sqrt": oracle_sqrt,
    "fma": oracle_fma,
}

#: Operand count by operation name.
OP_ARITY = {"add": 2, "sub": 2, "mul": 2, "div": 2, "sqrt": 1, "fma": 3}


def oracle_operation(
    op: str, cfg: OracleConfig, *operands: SoftFloat
) -> OracleResult:
    """Run the named operation through the exact-rounding reference."""
    try:
        fn = ORACLE_OPS[op]
    except KeyError:
        raise ValueError(f"oracle has no operation {op!r};"
                         f" knows {sorted(ORACLE_OPS)}") from None
    if len(operands) != OP_ARITY[op]:
        raise ValueError(f"{op} takes {OP_ARITY[op]} operands,"
                         f" got {len(operands)}")
    return fn(cfg, *operands)
