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


def q_text(num: int, den: int) -> str:
    """The text ``str`` prints for Q(num, den), num / den in lowest terms
    with den > 0."""
    return str(num) if den == 1 else f"{num}/{den}"


def format_sum(terms, sep: str = " ") -> str:
    """Render (num, den, text) triples, num / den a nonzero rational in
    lowest terms with den > 0, as a signed sum: each as its magnitude,
    printed as ``q_text`` prints it, then sep and text; a magnitude 1 is
    left out unless text is empty."""
    parts = []
    for num, den, text in terms:
        if num > 0:
            sign = "+ " if parts else ""
        else:
            sign, num = "- " if parts else "-", -num
        if den != 1:
            mag = f"{num}/{den}"
        elif num == 1 and text:
            parts.append(sign + text)
            continue
        else:
            mag = str(num)
        parts.append(f"{sign}{mag}{sep}{text}" if text else sign + mag)
    return " ".join(parts) if parts else "0"


def as_ints(vec):
    """(den, ints) with vec = ints / den over the lcm den of the
    denominators of vec's entries, which are ints or Q."""
    den = math.lcm(*(c.denominator for c in vec))
    return den, [c.numerator * (den // c.denominator) for c in vec]
