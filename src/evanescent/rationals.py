"""Exact rational scalars used throughout the library.

gmpy2's mpq is preferred (much faster under heavy arithmetic);
fractions.Fraction is the fallback.  Both are always normalized,
hashable, and mix freely with ints.
"""

try:
    from gmpy2 import mpq as Q
except ImportError:  # pragma: no cover
    from fractions import Fraction as Q

ZERO = Q(0)
ONE = Q(1)


def as_q(c):
    """c as Q, without reconverting a Q (Fraction(Fraction) is slow)."""
    return c if type(c) is Q else Q(c)
