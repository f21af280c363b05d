"""IEEE 754 rounding-direction attributes.

The five 754-2008 rounding directions.  The default, and the only mode
most developers ever see, is round-to-nearest-even; several quiz ground
truths (*Operation Precision*, *Associativity*) are consequences of it.
"""

from __future__ import annotations

import enum

__all__ = ["RoundingMode", "MODE_ALIASES"]


class RoundingMode(enum.Enum):
    """Rounding direction attribute.

    - ``NEAREST_EVEN``: roundTiesToEven, the IEEE default.
    - ``NEAREST_AWAY``: roundTiesToAway (required for decimal, optional
      for binary in 754-2008).
    - ``TOWARD_ZERO``: roundTowardZero (truncation; C's ``FE_TOWARDZERO``).
    - ``TOWARD_POSITIVE``: roundTowardPositive (ceiling).
    - ``TOWARD_NEGATIVE``: roundTowardNegative (floor).
    """

    NEAREST_EVEN = "nearest-even"
    NEAREST_AWAY = "nearest-away"
    TOWARD_ZERO = "toward-zero"
    TOWARD_POSITIVE = "toward-positive"
    TOWARD_NEGATIVE = "toward-negative"

    @property
    def is_nearest(self) -> bool:
        """True for the two round-to-nearest modes."""
        return self in (RoundingMode.NEAREST_EVEN, RoundingMode.NEAREST_AWAY)

    def rounds_away(self, sign: int, lsb: int, round_bit: int, sticky: int) -> bool:
        """Decide whether a truncated magnitude must be incremented.

        Parameters describe the discarded part of an exact result:
        ``sign`` is 1 for negative, ``lsb`` is the least significant kept
        bit, ``round_bit`` is the first discarded bit, and ``sticky`` is
        nonzero when any lower discarded bit is nonzero.

        >>> RoundingMode.NEAREST_EVEN.rounds_away(0, 0, 1, 0)  # tie, even
        False
        >>> RoundingMode.NEAREST_EVEN.rounds_away(0, 1, 1, 0)  # tie, odd
        True
        >>> RoundingMode.TOWARD_POSITIVE.rounds_away(0, 0, 0, 1)
        True
        """
        if round_bit == 0 and sticky == 0:
            return False  # exact: never round
        if self is RoundingMode.NEAREST_EVEN:
            if round_bit == 0:
                return False
            if sticky:
                return True
            return lsb == 1  # tie: round to even
        if self is RoundingMode.NEAREST_AWAY:
            return round_bit == 1
        if self is RoundingMode.TOWARD_ZERO:
            return False
        if self is RoundingMode.TOWARD_POSITIVE:
            return sign == 0
        if self is RoundingMode.TOWARD_NEGATIVE:
            return sign == 1
        raise AssertionError(f"unhandled rounding mode {self!r}")


#: CLI/wire spellings for rounding modes.
MODE_ALIASES = {
    "rne": RoundingMode.NEAREST_EVEN,
    "rna": RoundingMode.NEAREST_AWAY,
    "rtz": RoundingMode.TOWARD_ZERO,
    "rtp": RoundingMode.TOWARD_POSITIVE,
    "rtn": RoundingMode.TOWARD_NEGATIVE,
}
