"""Exact rational scalars used throughout the library.

``Q`` is ``fractions.Fraction``: always normalized, hashable, and mixing
freely with ints.  The hot loops (elimination in ``homgen``, evaluation
in ``baric``) run in Python ints instead: ``as_ints`` puts a vector over
the lcm of its denominators, and ``Q`` comes back only in results.
"""

import math
from fractions import Fraction as Q

ZERO = Q(0)
ONE = Q(1)


def as_q(c):
    """c as Q, without reconverting a Q (Fraction(Fraction) is slow)."""
    return c if type(c) is Q else Q(c)


def format_sum(terms, sep: str = " ") -> str:
    """Render (c, text) pairs, c a nonzero int or Q, as a signed sum: each
    as its magnitude, read from numerator and denominator as ``str`` prints
    it, then sep and text; a magnitude 1 is left out unless text is empty."""
    parts = []
    for c, text in terms:
        num, den = c.numerator, c.denominator
        mag = str(abs(num)) if den == 1 else f"{abs(num)}/{den}"
        body = text if mag == "1" and text else f"{mag}{sep}{text}" if text else mag
        sign = ("" if num > 0 else "-") if not parts else ("+ " if num > 0 else "- ")
        parts.append(sign + body)
    return " ".join(parts) if parts else "0"


def as_ints(vec):
    """(den, ints) with vec = ints / den over the lcm den of the
    denominators of vec's entries, which are ints or Q."""
    den = math.lcm(*(c.denominator for c in vec))
    return den, [c.numerator * (den // c.denominator) for c in vec]
