"""Shared test-input strategies: hypothesis with a seeded fallback.

Several suites (softfloat properties, staticfp soundness, the
cross-backend differential harness) want the same discipline — property
-based generation via hypothesis when installed, and a seeded in-repo
sampler running the *same* checks otherwise, so minimal environments
lose shrinking and example diversity, not coverage.  This module is the
single home for that pattern plus the deterministic operand corpora the
suites share:

- :func:`forall_bits` — run a test over random packed encodings of a
  pytest-parametrized format;
- :func:`forall_seeds` — run a test over random 32-bit scenario seeds;
- :func:`special_bits` — the boundary-value encoding corpus (signed
  zeros, NaN payloads, subnormal extremes, overflow thresholds);
- :func:`hard_cases` — per-op operand tuples aimed at the rounding
  machinery: exact results, ties, the tiny/normal and overflow
  thresholds, fma cancellation, and subnormal operands for DAZ;
- :data:`ENV_MATRIX` / :data:`HARDWARE_DEFAULT` — the rounding ×
  FTZ/DAZ environment lattice the quiz scenarios care about.
"""

from __future__ import annotations

import random

from repro.fpenv.rounding import RoundingMode
from repro.softfloat import SoftFloat
from repro.softfloat.formats import FloatFormat

try:
    from hypothesis import given, settings
    from hypothesis import strategies as st

    HAVE_HYPOTHESIS = True
except ImportError:  # pragma: no cover - hypothesis is in the test extras
    HAVE_HYPOTHESIS = False

__all__ = [
    "HAVE_HYPOTHESIS",
    "ENV_MATRIX",
    "HARDWARE_DEFAULT",
    "forall_bits",
    "forall_seeds",
    "special_bits",
    "special_pairs",
    "hard_cases",
]

#: Every environment combination the quiz references: all five rounding
#: directions crossed with FTZ/DAZ off and on.
ENV_MATRIX: tuple[tuple[RoundingMode, bool, bool], ...] = tuple(
    (mode, ftz, daz)
    for mode in RoundingMode
    for ftz in (False, True)
    for daz in (False, True)
)

#: The hardware power-on environment: round-to-nearest-even, no flushing.
HARDWARE_DEFAULT: tuple[RoundingMode, bool, bool] = (
    RoundingMode.NEAREST_EVEN, False, False,
)


def forall_bits(arity: int, *, n_examples: int = 200, seed: int = 754):
    """Decorate ``test(fmt, *bits)`` to run over ``arity`` random
    encodings of ``fmt``.  Bits are drawn 64 wide and masked down so one
    strategy serves every format (hypothesis strategies cannot depend on
    the pytest-parametrized ``fmt`` argument); uniform over the encoding
    space, so subnormals, infinities, and NaNs all appear.
    """
    if HAVE_HYPOTHESIS:

        def wrap(test):
            raw_strategy = st.tuples(
                *[st.integers(min_value=0, max_value=(1 << 64) - 1)] * arity
            )

            @settings(max_examples=n_examples, deadline=None)
            @given(raw=raw_strategy)
            def inner(fmt, raw):
                mask = (1 << fmt.width) - 1
                test(fmt, *(r & mask for r in raw))

            inner.__name__ = test.__name__
            inner.__doc__ = test.__doc__
            return inner

        return wrap

    def wrap(test):
        def inner(fmt):
            rng = random.Random(seed + arity)
            for _ in range(n_examples):
                bits = tuple(rng.getrandbits(fmt.width) for _ in range(arity))
                test(fmt, *bits)

        inner.__name__ = test.__name__
        inner.__doc__ = test.__doc__
        return inner

    return wrap


def forall_seeds(*, n_examples: int = 150, fallback_seed: int = 754):
    """Decorate a test whose *last* parameter is named ``seed`` to run
    over random 32-bit scenario seeds — the pattern for tests that
    derive a whole random scenario (expression, bindings, …) from one
    integer.  Earlier parameters stay visible to pytest (parametrize
    and fixtures work unchanged); only ``seed`` is supplied here.
    """
    if HAVE_HYPOTHESIS:

        def wrap(test):
            return settings(max_examples=n_examples, deadline=None)(
                given(seed=st.integers(min_value=0, max_value=2**32 - 1))(test)
            )

        return wrap

    def wrap(test):
        import inspect

        def inner(*args, **kwargs):
            rng = random.Random(fallback_seed)
            for _ in range(n_examples):
                test(*args, **kwargs, seed=rng.getrandbits(32))

        sig = inspect.signature(test)
        inner.__signature__ = sig.replace(parameters=[
            p for name, p in sig.parameters.items() if name != "seed"
        ])
        inner.__name__ = test.__name__
        inner.__doc__ = test.__doc__
        return inner

    return wrap


# The boundary-value corpus moved into the library proper
# (repro.softfloat.landmarks) so the divergence search's corner tier,
# the guided witness engine, and this harness share one operand set;
# re-exported here so test suites keep importing from one place.
from repro.softfloat.landmarks import special_bits, special_pairs  # noqa: E402,F401


def _exact_bits(fmt: FloatFormat, sign: int, sig: int, exp: int) -> int | None:
    """The encoding of ``(-1)**sign * sig * 2**exp`` when ``fmt`` holds it
    exactly, else ``None``."""
    while sig and not sig & 1:
        sig, exp = sig >> 1, exp + 1
    p = fmt.precision
    msb = exp + sig.bit_length() - 1
    if sig <= 0 or sig.bit_length() > p or msb > fmt.emax:
        return None
    if msb >= fmt.emin:
        frac = (sig << (p - sig.bit_length())) & fmt.sig_mask
        return fmt.pack(sign, msb + fmt.bias, frac)
    if exp < fmt.emin - (p - 1):
        return None
    return fmt.pack(sign, 0, sig << (exp - (fmt.emin - (p - 1))))


def hard_cases(fmt: FloatFormat, op: str) -> list[tuple[int, ...]]:
    """Deterministic operand tuples (arity of ``op``) that stress rounding.

    - exact products, quotients and squares;
    - round-to-nearest ties, with even and odd kept significands;
    - products whose only bit below the round bit sits at any one
      position (sticky-only residues);
    - results tiny before rounding and normal after, on both sides of
      ``2**emin``;
    - results around the overflow threshold, both signs, so every
      directed mode saturates or overflows somewhere;
    - ``fma(a, b, -round(a*b))``: full cancellation and sticky-only
      residues;
    - subnormal operands (flushed under DAZ).
    """
    from repro.fpenv.env import FPEnv
    from repro.softfloat import fp_mul

    p, emin, emax = fmt.precision, fmt.emin, fmt.emax
    hidden = 2 ** (p - 1)  # 1 + k*ulp(1) is sig (hidden + k) at exponent 1 - p
    sign_bit = 1 << (fmt.width - 1)

    def enc(sig: int, exp: int, sign: int = 0) -> int | None:
        return _exact_bits(fmt, sign, sig, exp)

    one = enc(1, 0)
    below_one = enc(2**p - 1, -p)
    half = enc(1, -1)
    min_normal = enc(1, emin)
    max_finite = enc(2**p - 1, emax - p + 1)
    min_sub = enc(1, emin - p + 1)
    max_sub = enc(2 ** (p - 1) - 1, emin - p + 1)
    near_one = [enc(hidden + k, 1 - p) for k in (1, 2, 3)]
    near_two = [enc(2**p - 1 - k, 1 - p) for k in (0, 2)]
    near_tiny = [enc(hidden + k, emin + 1 - p) for k in (0, 1, 2)]
    near_max = [enc(2**p - 1 - k, emax - p + 1) for k in (0, 1, 2)]
    shorts = [enc(s, 0) for s in (3, 5, 7, 9, 11, 13)]

    pairs: list[tuple] = []
    pairs += [(a, b) for a in shorts for b in shorts]  # exact products
    pairs += [(a, enc(3, -1)) for a in near_one]  # 1.5 + 1.5k ulp: ties
    pairs += [(a, b) for a in near_one + near_two for b in near_one + near_two]
    # (1 + 2**(i+1-p)) * (1 + 2**(j+1-p)): a lone residue bit below the
    # round bit at every position, the sticky-only case
    residues = [(enc(hidden + 2**i, 1 - p), enc(hidden + 2**j, 1 - p))
                for i in range(p - 1) for j in (i, i + 1) if j < p - 1]
    pairs += residues
    pairs += [(a, below_one) for a in near_tiny]  # straddle 2**emin
    just_below = enc(2**p - 2, -p)  # 1 - 2**(1-p)
    pairs += [(just_below, near_tiny[1])]  # 2**emin*(1 - 2**(2-2p)): RNE up
    pairs += [(a, enc(2**p - 1, -p - 3)) for a in
              (enc(hidden + k, emin + 4 - p) for k in (0, 1, 2))]
    pairs += [(a, b) for a in near_max for b in near_one + [below_one]]
    pairs += [(max_finite, enc(1, 1)), (enc(3, emax - 1), enc(3, -1))]
    pairs += [(s, enc(5, k)) for s in (min_sub, max_sub, enc(5, emin - p + 1))
              for k in (p - 3, p + 2, 2 * p)]  # subnormal operands
    signed = [(a, b) for a, b in pairs if None not in (a, b)]
    signed += [(a ^ sign_bit, b) for a, b in signed]

    if op in ("add", "sub", "mul", "compare_quiet", "compare_signaling"):
        cases = signed
    elif op == "div":
        exact = [(enc(x * y, 0), enc(y, 0))
                 for x in (3, 5, 7, 9) for y in (3, 5, 7, 9)]
        cases = exact + [(b, a) for a, b in signed] + [
            (one, enc(3, 0)), (max_finite, below_one), (max_finite, half),
            (min_normal, near_one[0]), (near_tiny[1], near_one[0]),
            (enc(2**p - 2, emin + 10), enc(2**p - 1, 10)),  # RTP up
            (enc(2**p - 2, emin + 10, 1), enc(2**p - 1, 10)),  # RTN up
            (near_tiny[2], near_one[0]), (max_sub, enc(1, -p - 2)),
            (min_normal, min_sub), (min_sub, max_finite),
        ]
    elif op == "sqrt":
        roots = [enc(x * x, 2 * k) for x in (1, 3, 5, 7, 9, 15)
                 for k in (-2, 0, 3)]
        cases = [(x,) for x in roots + near_one + near_two + near_tiny
                 + near_max + [enc(1, 1), enc(1, emin + 1), min_sub, max_sub,
                               enc(9, emin - p + 1)]]
    elif op == "fma":
        env = FPEnv()
        negated = [
            (a, b, fp_mul(SoftFloat(fmt, a), SoftFloat(fmt, b), env).bits
             ^ sign_bit) for a, b in signed
        ]
        cases = negated + [
            (a, b, c) for a, b in residues  # the residue bit alone
            for c in (one, one ^ sign_bit)  # decides sticky
        ] + [
            (x, one, enc(1, -p, sign)) for x in near_one + near_two
            for sign in (0, 1)  # exact ties
        ] + [
            (max_finite, one, enc(1, emax - p)),  # tie at the threshold
            (max_finite, one, enc(1, emax - p - 1)),
            (max_finite, near_one[0], max_finite ^ sign_bit),
            (min_normal, one, min_sub ^ sign_bit),
            (min_normal, below_one, min_sub),
            (min_normal, below_one, min_sub ^ sign_bit),
            (near_tiny[1], below_one, min_sub ^ sign_bit),
            (just_below, enc(hidden + 1, emin + 3 - p), enc(3, emin, 1)),
            (max_sub, enc(5, p + 2), min_normal),
            (min_sub, min_sub, min_normal),
            (max_sub, enc(3, 0), max_sub ^ sign_bit),
        ]
    else:
        raise ValueError(f"no hard cases for {op!r}")
    return [c for c in cases if None not in c]
