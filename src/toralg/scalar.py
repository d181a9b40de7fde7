"""Exact rational scalars.

Everything in this package computes over Q. Coefficients are arbitrary
precision rationals kept in lowest terms with positive denominator, which
is exactly what gmpy2.mpq (fast) and fractions.Fraction (always available)
both guarantee. gmpy2 is the declared dependency; the Fraction fallback
keeps the package importable on interpreters without the C extension.

A coefficient is an int or a value of the backend rational type, never
a float. Integral values may stay ints (binom of an int top, the
lattice pairings, unit coefficients): int and rational arithmetic mix
exactly, and an integral rational equals and hashes like its int. For
that reason every `/` in the package has a rational operand, so that no
int / int quotient can turn into a float.
"""

from __future__ import annotations

from math import factorial

try:
    from gmpy2 import mpq as _mpq

    def Q(num=0, den=1):
        return _mpq(num, den)

    EXACT_TYPES = (type(_mpq(0)), int)
except ImportError:  # pragma: no cover - exercised only without gmpy2
    from fractions import Fraction as _Fraction

    def Q(num=0, den=1):
        return _Fraction(num, den)

    EXACT_TYPES = (_Fraction, int)

ZERO = Q(0)
ONE = Q(1)


def is_rational(x) -> bool:
    return isinstance(x, EXACT_TYPES)


def qstr(x) -> str:
    """Format a rational as 'p' or 'p/q' (lowest terms, q > 0)."""
    x = Q(x)
    num, den = x.numerator, x.denominator
    return str(num) if den == 1 else f"{num}/{den}"


def parse_q(s) -> "Q":
    """Parse 'p' or 'p/q' into an exact rational."""
    if isinstance(s, str):
        s = s.strip()
        if "/" in s:
            num, den = s.split("/")
            return Q(int(num), int(den))
        return Q(int(s))
    if is_rational(s):
        return Q(s)
    raise ValueError(f"not a rational literal: {s!r}")


def binom(top, k: int) -> int:
    """Exact binomial with an integer (possibly negative) top.

    The top is an int or an integral rational; any other top raises
    ValueError. The product of k consecutive integers is divisible by
    k!, so the floor division is exact and the result is an int."""
    if k < 0:
        return 0
    if type(top) is not int:
        if getattr(top, "denominator", None) != 1:
            raise ValueError(f"binom needs an integral top, got {top!r}")
        top = int(top)
    out = 1
    for i in range(k):
        out *= top - i
    return out // factorial(k)
