"""Unit tests for the exact-rounding oracle on hand-picked hard cases.

These pin down the decisions that separate a correct IEEE
implementation from an almost-correct one: halfway-ulp neighbors where
double rounding would go wrong, underflow delivering into the
subnormal range, the sign of an exact zero out of fma, and the two
754-sanctioned tininess-detection conventions.
"""

import math
from fractions import Fraction

import pytest

from repro.fpenv.flags import FPFlag
from repro.fpenv.rounding import RoundingMode
from repro.oracle.exact import (
    OP_ARITY,
    OracleConfig,
    _ilog2,
    oracle_add,
    oracle_fma,
    oracle_mul,
    oracle_operation,
    oracle_sqrt,
    round_fraction_exact,
)
from repro.softfloat import BINARY16, BINARY32, BINARY64, SoftFloat, sf
from repro.softfloat.formats import BINARY128, TINY8
from tests.strategies import forall_bits

RNE = OracleConfig()
MODES = list(RoundingMode)


def cfg(mode=RoundingMode.NEAREST_EVEN, **kw):
    return OracleConfig(rounding=mode, **kw)


class TestIlog2:
    @pytest.mark.parametrize("num,den,expect", [
        (1, 1, 0), (2, 1, 1), (3, 1, 1), (4, 1, 2),
        (1, 2, -1), (1, 3, -2), (2, 3, -1), (3, 2, 0),
        (1023, 1024, -1), (1025, 1024, 0),
        (1, 1 << 60, -60), ((1 << 60) + 1, 1 << 60, 0),
    ])
    def test_matches_definition(self, num, den, expect):
        assert _ilog2(num, den) == expect
        # floor(log2(x)) means 2**e <= x < 2**(e+1).
        x = Fraction(num, den)
        assert Fraction(2) ** expect <= x < Fraction(2) ** (expect + 1)


class TestRoundFractionExact:
    def test_exact_value_no_flags(self):
        r = round_fraction_exact(BINARY64, Fraction(3, 2), RNE)
        assert SoftFloat(BINARY64, r.bits).to_float() == 1.5
        assert r.flags == FPFlag.NONE

    def test_halfway_ties_to_even(self):
        # 1 + 2^-53 is exactly halfway between 1 and 1+ulp: even wins.
        r = round_fraction_exact(BINARY64, Fraction(1) + Fraction(1, 2**53),
                                 RNE)
        assert SoftFloat(BINARY64, r.bits).to_float() == 1.0
        assert r.flags == FPFlag.INEXACT

    def test_just_above_halfway_rounds_up(self):
        """The classic double-rounding trigger: a value a hair above the
        halfway point must round up in ONE step.  An implementation that
        first rounds to an intermediate wider precision would land ON
        the halfway point and then incorrectly tie to even."""
        ulp = Fraction(1, 2**52)
        value = Fraction(1) + ulp / 2 + Fraction(1, 2**100)
        r = round_fraction_exact(BINARY64, value, RNE)
        assert SoftFloat(BINARY64, r.bits).to_float() == 1.0 + 2.0**-52

    def test_just_below_halfway_rounds_down(self):
        ulp = Fraction(1, 2**52)
        value = Fraction(1) + ulp / 2 - Fraction(1, 2**100)
        r = round_fraction_exact(BINARY64, value, RNE)
        assert SoftFloat(BINARY64, r.bits).to_float() == 1.0

    def test_carry_out_of_significand(self):
        # Just below 2: all-ones significand rounds up and carries.
        value = Fraction(2) - Fraction(1, 2**53)
        r = round_fraction_exact(BINARY64, value, RNE)
        assert SoftFloat(BINARY64, r.bits).to_float() == 2.0

    def test_underflow_to_subnormal(self):
        """A value in the subnormal range is delivered at reduced
        precision with inexact+underflow (and the non-IEEE denormal
        marker the engine also raises)."""
        value = Fraction(3, 2) * Fraction(2) ** (BINARY64.emin - 3)
        r = round_fraction_exact(BINARY64, value, RNE)
        got = SoftFloat(BINARY64, r.bits)
        assert got.is_subnormal
        assert r.flags & FPFlag.DENORMAL_RESULT
        assert r.flags & FPFlag.NONE == FPFlag.NONE
        # That value is exactly representable as a subnormal: no inexact.
        assert not (r.flags & FPFlag.INEXACT)

    def test_inexact_underflow_to_subnormal(self):
        value = Fraction(2) ** (BINARY64.emin - 3) * (
            1 + Fraction(1, 2**60))
        r = round_fraction_exact(BINARY64, value, RNE)
        assert SoftFloat(BINARY64, r.bits).is_subnormal
        assert r.flags & FPFlag.INEXACT
        assert r.flags & FPFlag.UNDERFLOW

    def test_tiny_rounds_to_zero(self):
        value = Fraction(1, 2**200) * Fraction(2) ** BINARY64.emin
        r = round_fraction_exact(BINARY64, value, RNE, sign=1)
        got = SoftFloat(BINARY64, r.bits)
        assert got.is_zero and got.sign == 1
        assert r.flags == FPFlag.INEXACT | FPFlag.UNDERFLOW

    def test_overflow_direction_table(self):
        big = Fraction(2) ** (BINARY64.emax + 1)
        expectations = {
            RoundingMode.NEAREST_EVEN: ("inf", "inf"),
            RoundingMode.NEAREST_AWAY: ("inf", "inf"),
            RoundingMode.TOWARD_ZERO: ("max", "max"),
            RoundingMode.TOWARD_POSITIVE: ("inf", "max"),
            RoundingMode.TOWARD_NEGATIVE: ("max", "inf"),
        }
        for mode, (pos, neg) in expectations.items():
            for sign, expect in ((0, pos), (1, neg)):
                r = round_fraction_exact(BINARY64, big, cfg(mode), sign=sign)
                got = SoftFloat(BINARY64, r.bits)
                assert r.flags == FPFlag.OVERFLOW | FPFlag.INEXACT
                if expect == "inf":
                    assert got.is_inf and got.sign == sign, mode
                else:
                    assert got.same_bits(
                        SoftFloat.max_finite(BINARY64, sign)), mode

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            round_fraction_exact(BINARY64, Fraction(0), RNE)


class TestTininessConventions:
    """before-rounding (x86) vs after-rounding (ARM/PowerPC) underflow."""

    def test_round_up_to_min_normal_differs(self):
        # Exact value just below the smallest normal, rounding UP to it:
        # tiny before rounding, not tiny after.
        min_normal = Fraction(2) ** BINARY16.emin
        value = min_normal - min_normal / Fraction(2**13)
        before = round_fraction_exact(BINARY16, value, cfg(tininess="before"))
        after = round_fraction_exact(BINARY16, value, cfg(tininess="after"))
        assert before.bits == after.bits == BINARY16.min_normal_bits(0)
        assert before.flags == FPFlag.INEXACT | FPFlag.UNDERFLOW
        assert after.flags == FPFlag.INEXACT

    def test_subnormal_delivery_agrees(self):
        # When the rounded result stays subnormal, the conventions agree.
        value = Fraction(2) ** (BINARY16.emin - 2) * Fraction(3, 2**9)
        before = round_fraction_exact(BINARY16, value, cfg(tininess="before"))
        after = round_fraction_exact(BINARY16, value, cfg(tininess="after"))
        assert before == after

    def test_invalid_convention_rejected(self):
        with pytest.raises(ValueError):
            OracleConfig(tininess="sometimes")


class TestFmaSignOfZero:
    """The sign of an exact zero out of fma follows 754 §6.3: same-sign
    inputs keep the sign; true cancellation gives +0 except under
    roundTowardNegative."""

    def test_zero_product_plus_zero_same_signs(self):
        for mode in MODES:
            r = oracle_fma(cfg(mode), sf(0.0, BINARY32), sf(5.0, BINARY32),
                           sf(0.0, BINARY32))
            got = SoftFloat(BINARY32, r.bits)
            assert got.is_zero and got.sign == 0, mode

    def test_zero_product_plus_zero_opposite_signs(self):
        # (+0 * 5) + (-0): psign=+, c=-0 -> cancellation rule.
        for mode in MODES:
            r = oracle_fma(cfg(mode), sf(0.0, BINARY32), sf(5.0, BINARY32),
                           sf(-0.0, BINARY32))
            got = SoftFloat(BINARY32, r.bits)
            expect_sign = 1 if mode is RoundingMode.TOWARD_NEGATIVE else 0
            assert got.is_zero and got.sign == expect_sign, mode

    def test_exact_cancellation(self):
        # 2*3 + (-6) == 0 exactly.
        for mode in MODES:
            r = oracle_fma(cfg(mode), sf(2.0), sf(3.0), sf(-6.0))
            got = SoftFloat(BINARY64, r.bits)
            expect_sign = 1 if mode is RoundingMode.TOWARD_NEGATIVE else 0
            assert got.is_zero and got.sign == expect_sign, mode
            assert r.flags == FPFlag.NONE

    def test_negative_zero_product_keeps_sign(self):
        r = oracle_fma(RNE, sf(-0.0, BINARY32), sf(5.0, BINARY32),
                       sf(-0.0, BINARY32))
        got = SoftFloat(BINARY32, r.bits)
        assert got.is_zero and got.sign == 1

    def test_fma_single_rounding(self):
        """fma(1+2^-52, 1+2^-52, -1) is exact in one rounding; a
        mul-then-add implementation loses the 2^-104 term."""
        x = sf(1.0 + 2.0**-52)
        r = oracle_fma(RNE, x, x, sf(-1.0))
        got = SoftFloat(BINARY64, r.bits)
        # Exact: 2^-51 + 2^-104, which rounds to 2^-51 (inexact).
        assert got.to_float() == 2.0**-51
        assert r.flags & FPFlag.INEXACT

    def test_zero_times_inf_invalid_even_with_quiet_nan_addend(self):
        r = oracle_fma(RNE, sf(0.0), SoftFloat.inf(BINARY64),
                       SoftFloat.nan(BINARY64, 0, 99))
        got = SoftFloat(BINARY64, r.bits)
        assert got.is_quiet_nan
        assert r.flags == FPFlag.INVALID
        # Default NaN, not the payload-99 addend (x86 FMA3 rule).
        assert got.same_bits(SoftFloat.nan(BINARY64))

    def test_snan_beats_invalid_product(self):
        snan = SoftFloat.signaling_nan(BINARY64, 0, 3)
        r = oracle_fma(RNE, sf(0.0), SoftFloat.inf(BINARY64), snan)
        got = SoftFloat(BINARY64, r.bits)
        assert got.is_quiet_nan and (got.frac & (BINARY64.quiet_bit - 1)) == 3
        assert r.flags == FPFlag.INVALID


class TestSqrtHardCases:
    def test_exact_squares_raise_nothing(self):
        for value in (1.0, 4.0, 2.25, 0.0625):
            r = oracle_sqrt(RNE, sf(value))
            assert SoftFloat(BINARY64, r.bits).to_float() == value**0.5
            assert r.flags == FPFlag.NONE

    def test_sqrt_two_inexact(self):
        r = oracle_sqrt(RNE, sf(2.0))
        assert SoftFloat(BINARY64, r.bits).to_float() == 2.0**0.5
        assert r.flags == FPFlag.INEXACT

    def test_sqrt_of_negative_invalid(self):
        r = oracle_sqrt(RNE, sf(-1.0))
        assert SoftFloat(BINARY64, r.bits).is_quiet_nan
        assert r.flags == FPFlag.INVALID

    def test_sqrt_negative_zero_passes_through(self):
        r = oracle_sqrt(RNE, sf(-0.0))
        got = SoftFloat(BINARY64, r.bits)
        assert got.is_zero and got.sign == 1
        assert r.flags == FPFlag.NONE

    def test_sqrt_min_subnormal(self):
        x = SoftFloat.min_subnormal(BINARY16)
        r = oracle_sqrt(RNE, x)
        got = SoftFloat(BINARY16, r.bits)
        # sqrt(2^-24) = 2^-12: exact, normal, no flags.
        assert got.to_float() == 2.0**-12
        assert r.flags == FPFlag.NONE

    def test_sqrt_directed_rounding_brackets(self):
        lo = oracle_sqrt(cfg(RoundingMode.TOWARD_NEGATIVE), sf(2.0))
        hi = oracle_sqrt(cfg(RoundingMode.TOWARD_POSITIVE), sf(2.0))
        lo_v = SoftFloat(BINARY64, lo.bits).to_fraction()
        hi_v = SoftFloat(BINARY64, hi.bits).to_fraction()
        assert lo_v < hi_v
        assert lo_v * lo_v < 2 < hi_v * hi_v


class TestEnvironmentHandling:
    def test_ftz_flushes_subnormal_result(self):
        tiny = SoftFloat.min_subnormal(BINARY32)
        r = oracle_add(cfg(ftz=True), tiny, tiny)
        got = SoftFloat(BINARY32, r.bits)
        assert got.is_zero and got.sign == 0
        assert r.flags & FPFlag.UNDERFLOW
        assert r.flags & FPFlag.INEXACT

    def test_daz_zeros_subnormal_inputs(self):
        tiny = SoftFloat.min_subnormal(BINARY32)
        r = oracle_mul(cfg(daz=True), tiny, sf(1e30, BINARY32))
        got = SoftFloat(BINARY32, r.bits)
        assert got.is_zero
        assert r.flags == FPFlag.NONE

    def test_zero_passthrough_skips_ftz(self):
        # x + 0 returns x unchanged even when x is subnormal under FTZ
        # (the engine's documented pass-through shortcut).
        tiny = SoftFloat.min_subnormal(BINARY32)
        r = oracle_add(cfg(ftz=True), tiny, sf(0.0, BINARY32))
        assert r.bits == tiny.bits
        assert r.flags == FPFlag.NONE


class TestDispatch:
    def test_unknown_op_rejected(self):
        with pytest.raises(ValueError, match="no operation"):
            oracle_operation("cbrt", RNE, sf(1.0))

    def test_wrong_arity_rejected(self):
        with pytest.raises(ValueError, match="operands"):
            oracle_operation("add", RNE, sf(1.0))

    def test_tiny8_dispatch(self):
        one = SoftFloat.one(TINY8)
        r = oracle_operation("add", RNE, one, one)
        assert SoftFloat(TINY8, r.bits).to_float() == 2.0


# ----------------------------------------------------------------------
# Property: the integer oracle equals exact Fraction arithmetic
# ----------------------------------------------------------------------
def _fraction(fmt, bits):
    """Exact value of a finite encoding, or ``None`` for inf/NaN."""
    sign = bits >> (fmt.width - 1)
    biased = (bits >> fmt.frac_bits) & fmt.max_biased_exp
    frac = bits & fmt.sig_mask
    if biased == fmt.max_biased_exp:
        return None
    if biased == 0:
        value = Fraction(frac) * Fraction(2) ** (fmt.emin - fmt.frac_bits)
    else:
        value = (Fraction(frac + (1 << fmt.frac_bits))
                 * Fraction(2) ** (biased - fmt.bias - fmt.frac_bits))
    return -value if sign else value


def _floor_log2(x):
    e = x.numerator.bit_length() - x.denominator.bit_length()
    while Fraction(2) ** e > x:
        e -= 1
    while Fraction(2) ** (e + 1) <= x:
        e += 1
    return e


def _encode(fmt, negative, value):
    """Encoding of a representable magnitude ``value``."""
    sign = int(negative) << (fmt.width - 1)
    if value < Fraction(2) ** fmt.emin:
        return sign | int(value / Fraction(2) ** (fmt.emin - fmt.frac_bits))
    e = _floor_log2(value)
    frac = value / Fraction(2) ** (e - fmt.frac_bits) - (1 << fmt.frac_bits)
    return sign | ((e + fmt.bias) << fmt.frac_bits) | int(frac)


def _reference(fmt, cfg, exact):
    """Round the exact value per IEEE 754: the two grid neighbours at
    the value's quantum (never finer than the subnormal spacing), picked
    by the rounding direction."""
    if exact == 0:  # cancellation of nonzero operands
        negative = cfg.rounding is RoundingMode.TOWARD_NEGATIVE
        return int(negative) << (fmt.width - 1), FPFlag.NONE
    negative, mag = exact < 0, abs(exact)
    quantum = Fraction(2) ** (max(_floor_log2(mag), fmt.emin) - fmt.frac_bits)
    steps = mag // quantum
    lo, hi = steps * quantum, (steps + 1) * quantum
    mode = cfg.rounding
    if lo == mag:
        rounded = lo
    elif mode in (RoundingMode.NEAREST_EVEN, RoundingMode.NEAREST_AWAY):
        below, above = mag - lo, hi - mag
        if below != above:
            rounded = lo if below < above else hi
        elif mode is RoundingMode.NEAREST_AWAY:
            rounded = hi
        else:
            rounded = lo if steps % 2 == 0 else hi
    elif mode is RoundingMode.TOWARD_ZERO:
        rounded = lo
    elif mode is RoundingMode.TOWARD_POSITIVE:
        rounded = lo if negative else hi
    else:
        rounded = hi if negative else lo
    inexact = rounded != mag
    sign = int(negative) << (fmt.width - 1)
    if rounded >= Fraction(2) ** (fmt.emax + 1):  # beyond the largest finite
        to_inf = (mode.is_nearest
                  or (mode is RoundingMode.TOWARD_POSITIVE and not negative)
                  or (mode is RoundingMode.TOWARD_NEGATIVE and negative))
        bits = sign | (fmt.inf_bits() if to_inf else fmt.max_finite_bits())
        return bits, FPFlag.OVERFLOW | FPFlag.INEXACT
    smallest_normal = Fraction(2) ** fmt.emin
    # "after" as the oracle implements it: tiny before rounding and
    # still subnormal once delivered.  754's unbounded-exponent rounding
    # differs in a band just below 2**emin (e.g. binary16 mul
    # 0x3c11 * 0x03ef is tiny there, not here); this pins the oracle.
    tiny = mag < smallest_normal and (
        cfg.tininess == "before" or rounded < smallest_normal)
    flags = FPFlag.NONE
    if inexact:
        flags |= FPFlag.INEXACT | (FPFlag.UNDERFLOW if tiny else FPFlag.NONE)
    if rounded == 0:
        return sign, flags
    if rounded < smallest_normal:
        if cfg.ftz:
            return sign, flags | FPFlag.UNDERFLOW | FPFlag.INEXACT
        flags |= FPFlag.DENORMAL_RESULT
    return _encode(fmt, negative, rounded), flags


_EXACT_OPS = {
    "add": lambda a, b: a + b,
    "sub": lambda a, b: a - b,
    "mul": lambda a, b: a * b,
    "div": lambda a, b: a / b,
    "fma": lambda a, b, c: a * b + c,
}


@pytest.mark.parametrize("fmt", [BINARY16, BINARY64, BINARY128],
                         ids=lambda f: f.name)
@forall_bits(7, n_examples=150)
def test_oracle_matches_fraction_arithmetic(fmt, *raw):
    """Every op on finite nonzero operands (after DAZ) under a drawn
    environment — any of the five modes, FTZ and DAZ each off or on,
    either tininess convention: the oracle's bits and flags equal exact
    Fraction arithmetic rounded by :func:`_reference`.  Pairs of 64-bit
    draws make full-width binary128 operands."""
    mask = (1 << fmt.width) - 1
    bits = [((raw[2 * i] << 64) | raw[2 * i + 1]) & mask for i in range(3)]
    env = raw[6]
    config = OracleConfig(
        rounding=MODES[env % 5], ftz=bool(env // 5 % 2),
        daz=bool(env // 10 % 2),
        tininess=("before", "after")[env // 20 % 2],
    )
    values = [_fraction(fmt, b) for b in bits]
    for op, arity in OP_ARITY.items():
        used = values[:arity]
        if any(v is None or v == 0 for v in used):
            continue  # the special-operand policy is pinned by unit tests
        if config.daz and any(abs(v) < Fraction(2) ** fmt.emin for v in used):
            continue  # a DAZ-flushed operand is a zero
        if op == "sqrt":
            if used[0] < 0:
                continue
            expected = _sqrt_reference(fmt, config, used[0])
        else:
            expected = _reference(fmt, config, _EXACT_OPS[op](*used))
        got = oracle_operation(
            op, config, *(SoftFloat(fmt, b) for b in bits[:arity]))
        assert (got.bits, got.flags) == expected, (op, config)


def _sqrt_reference(fmt, cfg, value):
    """Round sqrt(value) by bracketing it between neighbours of the
    quantum grid with exact squares (a Fraction has no exact root)."""
    e = _floor_log2(value) // 2
    quantum = Fraction(2) ** (max(e, fmt.emin) - fmt.frac_bits)
    steps = math.isqrt(math.floor(value / quantum ** 2))
    lo = steps * quantum
    # value lies in [lo**2, (lo + quantum)**2): compare with the midpoint
    mid = lo + quantum / 2
    if lo * lo == value:
        return _reference(fmt, cfg, lo)
    # any value strictly between lo and mid (or mid and hi) rounds alike
    offset = quantum / 4
    if value == mid * mid:  # pragma: no cover - roots of floats are never ties
        return _reference(fmt, cfg, mid)
    probe = mid - offset if value < mid * mid else mid + offset
    return _reference(fmt, cfg, probe)
