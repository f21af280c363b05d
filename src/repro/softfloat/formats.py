"""Binary interchange format descriptions.

A :class:`FloatFormat` is fully determined by its exponent width and its
precision (significand bits *including* the hidden bit).  The standard
IEEE 754 binary formats are provided as module constants, along with
``bfloat16`` (widely used in ML hardware and relevant to the paper's
point about proliferating precisions) and a couple of tiny formats that
are small enough for exhaustive testing.
"""

from __future__ import annotations

import dataclasses

from repro.errors import FormatError

__all__ = [
    "FloatFormat",
    "BINARY16",
    "BINARY32",
    "BINARY64",
    "BINARY128",
    "BFLOAT16",
    "E4M3",
    "E5M2",
    "TINY8",
    "STANDARD_FORMATS",
    "FORMATS_BY_NAME",
]


@dataclasses.dataclass(frozen=True)
class FloatFormat:
    """An IEEE-754-style binary floating point format.

    Parameters
    ----------
    exp_bits:
        Width of the biased exponent field (``w`` in the standard).
    precision:
        Number of significand bits including the implicit leading bit
        (``p`` in the standard).  ``binary64`` has ``precision=53``.
    name:
        Display name.

    Derived geometry (plain attributes, computed once at construction):

    - ``frac_bits``: width of the trailing significand field, ``p - 1``;
    - ``width``: total encoding width (sign + exponent + fraction);
    - ``bias``: exponent bias, ``2**(w-1) - 1``;
    - ``emax`` / ``emin``: largest and smallest unbiased exponent of a
      normal number (``emin = 1 - emax``);
    - ``max_biased_exp``: the all-ones biased exponent (inf/NaN);
    - ``sig_mask``: bit mask of the trailing significand field;
    - ``quiet_bit``: the NaN quiet bit, the MSB of the trailing field;
    - ``hidden_bit``: the implicit leading significand bit, ``2**(p-1)``.
    """

    exp_bits: int
    precision: int
    name: str = ""

    def __post_init__(self) -> None:
        if self.exp_bits < 2:
            raise FormatError(f"exponent field needs >= 2 bits, got {self.exp_bits}")
        if self.precision < 2:
            raise FormatError(f"precision needs >= 2 bits, got {self.precision}")
        frac_bits = self.precision - 1
        bias = (1 << (self.exp_bits - 1)) - 1
        # The kernels and the oracle read these millions of times per
        # sweep.  They must never become dataclass fields: ``repr`` (and
        # through it every canonical spec and cache key), ``==`` and
        # ``hash`` see only the three defining fields.
        self.__dict__.update(
            frac_bits=frac_bits,
            width=1 + self.exp_bits + frac_bits,
            bias=bias,
            emax=bias,
            emin=1 - bias,
            max_biased_exp=(1 << self.exp_bits) - 1,
            sig_mask=(1 << frac_bits) - 1,
            quiet_bit=1 << (frac_bits - 1),
            hidden_bit=1 << frac_bits,
        )
        if not self.name:
            object.__setattr__(self, "name", f"E{self.exp_bits}M{frac_bits}")

    def __reduce__(self):
        # Pickle the defining fields only; geometry is rebuilt on load.
        return type(self), (self.exp_bits, self.precision, self.name)

    # ------------------------------------------------------------------
    # Landmark encodings
    # ------------------------------------------------------------------
    def pack(self, sign: int, biased_exp: int, frac: int) -> int:
        """Assemble an encoding from raw fields (no validation of ranges
        beyond masking errors; use for landmark constants)."""
        if sign not in (0, 1):
            raise FormatError(f"sign must be 0 or 1, got {sign}")
        if not 0 <= biased_exp <= self.max_biased_exp:
            raise FormatError(f"biased exponent {biased_exp} out of range")
        if not 0 <= frac <= self.sig_mask:
            raise FormatError(f"fraction {frac} out of range")
        return (sign << (self.width - 1)) | (biased_exp << self.frac_bits) | frac

    def unpack(self, bits: int) -> tuple[int, int, int]:
        """Split an encoding into ``(sign, biased_exp, frac)`` fields."""
        if not 0 <= bits < (1 << self.width):
            raise FormatError(f"bit pattern 0x{bits:x} out of range for {self.name}")
        sign = bits >> (self.width - 1)
        biased_exp = (bits >> self.frac_bits) & self.max_biased_exp
        frac = bits & self.sig_mask
        return sign, biased_exp, frac

    def inf_bits(self, sign: int = 0) -> int:
        """Encoding of ±infinity."""
        return self.pack(sign, self.max_biased_exp, 0)

    def quiet_nan_bits(self, sign: int = 0, payload: int = 0) -> int:
        """Encoding of a quiet NaN with the given payload."""
        return self.pack(sign, self.max_biased_exp, self.quiet_bit | payload)

    def signaling_nan_bits(self, sign: int = 0, payload: int = 1) -> int:
        """Encoding of a signaling NaN; payload must be nonzero."""
        if payload == 0 or payload & self.quiet_bit:
            raise FormatError("signaling NaN payload must be nonzero w/o quiet bit")
        return self.pack(sign, self.max_biased_exp, payload)

    def zero_bits(self, sign: int = 0) -> int:
        """Encoding of ±0."""
        return self.pack(sign, 0, 0)

    def max_finite_bits(self, sign: int = 0) -> int:
        """Encoding of the largest finite magnitude."""
        return self.pack(sign, self.max_biased_exp - 1, self.sig_mask)

    def min_normal_bits(self, sign: int = 0) -> int:
        """Encoding of the smallest positive normal magnitude."""
        return self.pack(sign, 1, 0)

    def min_subnormal_bits(self, sign: int = 0) -> int:
        """Encoding of the smallest positive subnormal magnitude."""
        return self.pack(sign, 0, 1)

    def one_bits(self, sign: int = 0) -> int:
        """Encoding of ±1.0."""
        return self.pack(sign, self.bias, 0)

    # ------------------------------------------------------------------
    # Landmark values (exact, as integers scaled by powers of two)
    # ------------------------------------------------------------------
    @property
    def max_finite_value(self) -> tuple[int, int]:
        """Largest finite magnitude as ``(mantissa, exponent2)``:
        value = mantissa * 2**exponent2."""
        mant = (1 << self.precision) - 1
        return mant, self.emax - self.frac_bits

    @property
    def min_subnormal_value(self) -> tuple[int, int]:
        """Smallest positive magnitude as ``(mantissa, exponent2)``."""
        return 1, self.emin - self.frac_bits

    @property
    def ulp_of_one(self) -> tuple[int, int]:
        """ULP at 1.0 as ``(mantissa, exponent2)`` (machine epsilon)."""
        return 1, -self.frac_bits

    def __str__(self) -> str:
        return self.name

    def __repr__(self) -> str:
        return (
            f"FloatFormat(exp_bits={self.exp_bits}, precision={self.precision},"
            f" name={self.name!r})"
        )


#: IEEE 754 binary16 (half precision).
BINARY16 = FloatFormat(5, 11, "binary16")
#: IEEE 754 binary32 (single precision; C ``float``).
BINARY32 = FloatFormat(8, 24, "binary32")
#: IEEE 754 binary64 (double precision; C ``double``, Python ``float``).
BINARY64 = FloatFormat(11, 53, "binary64")
#: IEEE 754 binary128 (quadruple precision).
BINARY128 = FloatFormat(15, 113, "binary128")
#: Google brain float: binary32's exponent range with 8 significand bits.
BFLOAT16 = FloatFormat(8, 8, "bfloat16")
#: OCP 8-bit FP8 E4M3 variant (IEEE-style interpretation, with infinities).
E4M3 = FloatFormat(4, 4, "e4m3")
#: OCP 8-bit FP8 E5M2 variant.
E5M2 = FloatFormat(5, 3, "e5m2")
#: A deliberately tiny format (6 bits total) for exhaustive testing.
TINY8 = FloatFormat(3, 3, "tiny8")

STANDARD_FORMATS: tuple[FloatFormat, ...] = (
    BINARY16,
    BINARY32,
    BINARY64,
    BINARY128,
)

#: Every named format, by its CLI/wire spelling.
FORMATS_BY_NAME: dict[str, FloatFormat] = {
    f.name: f
    for f in (TINY8, E4M3, E5M2, BFLOAT16, BINARY16, BINARY32, BINARY64,
              BINARY128)
}
