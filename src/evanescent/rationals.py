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


def format_sum(den: int, terms, texts, sep: str = " ") -> str:
    """Render sum(n key) / den, den > 0, as a signed sum, from its (key, n)
    pairs in print order, n a nonzero int, and a lookup ``texts[key]``:
    each term as its magnitude |n| / den, printed as ``q_text`` prints it
    in lowest terms, then sep and its text; a magnitude 1 is left out
    unless the text is empty.  One loop renders every term, and only a
    den other than 1 is reduced, by one gcd per term."""
    parts = []
    for key, n in terms:
        if n > 0:
            sign = "+ " if parts else ""
        else:
            sign, n = "- " if parts else "-", -n
        text, d = texts[key], den
        if d != 1:
            g = math.gcd(n, d)
            n, d = n // g, d // g
        if d != 1:
            mag = f"{n}/{d}"
        elif n == 1 and text:
            parts.append(sign + text)
            continue
        else:
            mag = str(n)
        parts.append(f"{sign}{mag}{sep}{text}" if text else sign + mag)
    return " ".join(parts) if parts else "0"


def as_ints(vec):
    """(den, ints) with vec = ints / den over the lcm den of the
    denominators of vec's entries, which are ints or Q."""
    den = math.lcm(*(c.denominator for c in vec))
    return den, [c.numerator * (den // c.denominator) for c in vec]
