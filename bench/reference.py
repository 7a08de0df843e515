"""Independent reference computations for the benchmark's checkers.

Nothing here imports ``evanescent``.  Monomials are canonical strings:
a leaf is its variable name (``x``, ``y``, ``z``, ``t4``, ...), and the
product of u and v is ``"(" + min(u, v) + "," + max(u, v) + ")"``, so
two monomials are equal exactly when their strings are.  The height of
a leaf is its parenthesis depth, which is what the Peirce polynomial
counts.  Polynomials are dicts from monomial strings to exact rationals
(ints or Fractions).
"""

from __future__ import annotations

import functools
import itertools
import re
from fractions import Fraction

NAMES = ("x", "y", "z")


def var_name(index: int) -> str:
    return NAMES[index - 1] if 1 <= index <= 3 else f"t{index}"


def var_index(name: str) -> int:
    return NAMES.index(name) + 1 if name in NAMES else int(name[1:])


def mul(u: str, v: str) -> str:
    return f"({u},{v})" if u <= v else f"({v},{u})"


def power(v: str, k: int) -> str:
    """Left-normed principal power v^k = v^(k-1) v."""
    m = v
    for _ in range(k - 1):
        m = mul(m, v)
    return m


def plenary(v: str, k: int) -> str:
    """Plenary power v^[k] = v^[k-1] v^[k-1]."""
    m = v
    for _ in range(k - 1):
        m = mul(m, m)
    return m


def left_iterate(v: str, r: int, f: str) -> str:
    """v^{r} f = v (v (... (v f)))."""
    for _ in range(r):
        f = mul(v, f)
    return f


# ---------------------------------------------------------------------------
# polynomial arithmetic


def padd(acc: dict, f: dict, scale=1) -> dict:
    for m, c in f.items():
        s = acc.get(m, 0) + scale * c
        if s:
            acc[m] = s
        else:
            acc.pop(m, None)
    return acc


def pmul(f: dict, g: dict) -> dict:
    out: dict = {}
    for m1, c1 in f.items():
        for m2, c2 in g.items():
            m = mul(m1, m2)
            s = out.get(m, 0) + c1 * c2
            if s:
                out[m] = s
            else:
                out.pop(m, None)
    return out


# ---------------------------------------------------------------------------
# parser for the surface grammar (program output and corpus files)

_TOKEN = re.compile(r"t\d+|[xyz]|\d+|[-+/^(){}\[\]]")


class ParseError(ValueError):
    pass


def _tokens(text: str) -> list[str]:
    out = _TOKEN.findall(text)
    if "".join(out) != "".join(text.split()):
        raise ParseError(f"bad character in {text!r}")
    return out


def parse(text: str) -> dict:
    """Polynomial from text: juxtaposition is a left-associated product,
    ``v^k`` the left-normed power, ``v^[k]`` the plenary power and
    ``v^{r} f`` r-fold left multiplication of f by v."""
    if text.strip() == "0":
        return {}
    toks = _tokens(text)
    pos = 0

    def peek():
        return toks[pos] if pos < len(toks) else None

    def take(expected=None):
        nonlocal pos
        if pos >= len(toks):
            raise ParseError(f"unexpected end of {text!r}")
        tok = toks[pos]
        if expected is not None and tok != expected:
            raise ParseError(f"expected {expected!r}, found {tok!r} in {text!r}")
        pos += 1
        return tok

    def integer():
        tok = take()
        if not tok.isdigit():
            raise ParseError(f"expected an integer, found {tok!r} in {text!r}")
        return int(tok)

    def factor() -> dict:
        tok = take()
        if tok == "(":
            inner = poly()
            take(")")
            return inner
        if not (tok in NAMES or tok[0] == "t"):
            raise ParseError(f"expected a factor, found {tok!r} in {text!r}")
        if peek() != "^":
            return {tok: 1}
        take("^")
        if peek() == "{":
            take("{")
            r = integer()
            take("}")
            arg = factor()
            for _ in range(r):
                arg = pmul({tok: 1}, arg)
            return arg
        if peek() == "[":
            take("[")
            k = integer()
            take("]")
            return {plenary(tok, k): 1}
        return {power(tok, integer()): 1}

    def term() -> dict:
        coeff = 1
        if peek() is not None and peek().isdigit():
            coeff = integer()
            if peek() == "/":
                take("/")
                coeff = Fraction(coeff, integer())
        result = factor()
        while peek() is not None and peek() not in ("+", "-", ")"):
            result = pmul(result, factor())
        return {m: coeff * c for m, c in result.items()}

    def poly() -> dict:
        sign = 1
        if peek() in ("+", "-"):
            sign = -1 if take() == "-" else 1
        total = padd({}, term(), sign)
        while peek() in ("+", "-"):
            sign = -1 if take() == "-" else 1
            padd(total, term(), sign)
        return total

    result = poly()
    if pos != len(toks):
        raise ParseError(f"trailing input in {text!r}")
    return result


def canon_text(f: dict) -> str:
    """Order-free serialization of a polynomial, for exact comparison."""
    return " ".join(f"{c}*{m}" for m, c in sorted(f.items()))


# ---------------------------------------------------------------------------
# leaf counts: type vector and Peirce polynomials

_LEAF = re.compile(r"[()]|t\d+|[xyz]")


def leaves(m: str):
    """(variable name, height) for every leaf of a monomial."""
    depth = 0
    for tok in _LEAF.findall(m):
        if tok == "(":
            depth += 1
        elif tok == ")":
            depth -= 1
        else:
            yield tok, depth


def type_of(m: str) -> tuple[int, ...]:
    counts: dict[int, int] = {}
    for name, _ in leaves(m):
        i = var_index(name)
        counts[i] = counts.get(i, 0) + 1
    return tuple(counts.get(i, 0) for i in range(1, max(counts) + 1))


def peirce(f: dict) -> dict:
    """{variable: {height: coefficient}}: the Peirce polynomials of f,
    each as the coefficient-weighted count of leaves by height."""
    out: dict = {}
    for m, c in f.items():
        for name, h in leaves(m):
            row = out.setdefault(name, {})
            row[h] = row.get(h, 0) + c
    return out


def peirce_zero(f: dict) -> bool:
    return all(not c for row in peirce(f).values() for c in row.values())


def is_evanescent_identity(f: dict) -> bool:
    return bool(f) and peirce_zero(f) and sum(f.values()) == 0


# ---------------------------------------------------------------------------
# enumeration, basis families, linear algebra


def normalize_type(ty) -> tuple[int, ...]:
    ty = tuple(ty)
    while ty and ty[-1] == 0:
        ty = ty[:-1]
    return ty


@functools.cache
def monomials(ty: tuple[int, ...]) -> tuple[str, ...]:
    """Every canonical monomial of a type (sorted)."""
    ty = normalize_type(ty)
    if sum(ty) == 1:
        return (var_name(ty.index(1) + 1),)
    out = set()
    for sub in itertools.product(*(range(c + 1) for c in ty)):
        rest = tuple(a - b for a, b in zip(ty, sub))
        if not any(sub) or not any(rest) or sub > rest:
            continue
        for u in monomials(normalize_type(sub)):
            for v in monomials(normalize_type(rest)):
                out.add(mul(u, v))
    return tuple(sorted(out))


def shape_of(ty) -> str | None:
    """Train shape of a type by its sorted variable degrees."""
    degrees = sorted((c for c in ty if c), reverse=True)
    if len(degrees) == 1:
        return "n"
    if len(degrees) == 2 and degrees[1] == 1:
        return "n1"
    if len(degrees) == 2 and degrees[1] == 2:
        return "n2"
    if len(degrees) == 3 and degrees[1:] == [1, 1]:
        return "n11"
    return None


def canonical_type(ty) -> tuple[int, ...]:
    """The type with its variable degrees sorted, largest first."""
    return tuple(sorted((c for c in ty if c), reverse=True))


def basis_monomials(ty) -> list[str]:
    """The basis monomials of a canonical type (``canonical_type``), which
    have no train identity: x^n; x^n y and x^{n} y; (x^{n} y) y and
    x^{n} (y y); x^{n-1} ((x y) z), x^{n-1} ((x z) y) and x^{n} (y z)."""
    if tuple(ty) != canonical_type(ty):
        raise ValueError(f"type {ty} is not canonical")
    n = ty[0]
    shape = shape_of(ty)
    if shape == "n":
        out = [power("x", n)]
    elif shape == "n1":
        out = [mul(power("x", n), "y"), left_iterate("x", n, "y")]
    elif shape == "n2":
        out = [mul(left_iterate("x", n, "y"), "y"), left_iterate("x", n, mul("y", "y"))]
    elif shape == "n11":
        out = [
            left_iterate("x", n - 1, mul(mul("x", "y"), "z")),
            left_iterate("x", n - 1, mul(mul("x", "z"), "y")),
            left_iterate("x", n, mul("y", "z")),
        ]
    else:
        raise ValueError(f"type {ty} has no train shape")
    return sorted(set(out))


class Echelon:
    """Exact incremental row echelon form over Q on sparse rows."""

    def __init__(self):
        self.rows: dict = {}  # pivot key -> row normalized to 1 at the pivot

    def residual(self, vec: dict) -> dict:
        vec = {k: Fraction(c) for k, c in vec.items() if c}
        while vec:
            pivots = [k for k in vec if k in self.rows]
            if not pivots:
                return vec
            k = min(pivots)
            padd(vec, self.rows[k], -vec[k])
        return vec

    def add(self, vec: dict) -> bool:
        """Add a row; False when it is already in the span."""
        vec = self.residual(vec)
        if not vec:
            return False
        k = min(vec)
        inv = 1 / vec[k]
        self.rows[k] = {m: c * inv for m, c in vec.items()}
        return True

    @property
    def rank(self) -> int:
        return len(self.rows)


def peirce_system_rank(ty) -> int:
    """Rank of the evanescence conditions of a type: one row per
    (variable, height), plus the coefficient-sum row."""
    rows: dict = {}
    mons = monomials(ty)
    for m in mons:
        for name, h in leaves(m):
            row = rows.setdefault((name, h), {})
            row[m] = row.get(m, 0) + 1
    ech = Echelon()
    for row in rows.values():
        ech.add(row)
    ech.add({m: 1 for m in mons})
    return ech.rank


# ---------------------------------------------------------------------------
# algebras given by structure constants


def algebra_mul(c, a, b):
    d = len(a)
    out = [Fraction(0)] * d
    for i in range(d):
        if a[i]:
            for j in range(d):
                if b[j]:
                    s = a[i] * b[j]
                    for k, v in enumerate(c[i][j]):
                        if v:
                            out[k] += s * v
    return out


def split(m: str) -> tuple[str, str]:
    depth = 0
    for i, ch in enumerate(m):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        elif ch == "," and depth == 1:
            return m[1:i], m[i + 1 : -1]
    raise ValueError(m)


def evaluate(f: dict, c, weight, bindings: dict, weighted: bool = False):
    """Value of f at the bindings, in plain or weighted evaluation.

    Weighted evaluation scales each term by the product over variables
    of omega(binding)^(degree of f in it - degree of the term in it)."""
    cache: dict = {}

    def walk(m):
        got = cache.get(m)
        if got is None:
            if m[0] == "(":
                u, v = split(m)
                got = algebra_mul(c, walk(u), walk(v))
            else:
                got = list(bindings[m])
            cache[m] = got
        return got

    types = {m: dict(_counts(m)) for m in f}
    full = {}
    for counts in types.values():
        for v, n in counts.items():
            full[v] = max(full.get(v, 0), n)
    omega = {v: sum(w * x for w, x in zip(weight, vec)) for v, vec in bindings.items()}
    total = [Fraction(0)] * len(weight)
    for m, coeff in f.items():
        scale = Fraction(coeff)
        if weighted:
            for v, n in full.items():
                scale *= omega[v] ** (n - types[m].get(v, 0))
        for k, x in enumerate(walk(m)):
            total[k] += scale * x
    return total


def _counts(m: str):
    counts: dict = {}
    for name, _ in leaves(m):
        counts[name] = counts.get(name, 0) + 1
    return counts.items()


def mutation_structure(matrix, weight):
    """e_i e_j = (w_j M(e_i) + w_i M(e_j)) / 2, with M(e_i) the i-th column."""
    d = len(weight)
    return [
        [
            [Fraction(weight[j] * matrix[k][i] + weight[i] * matrix[k][j], 2) for k in range(d)]
            for j in range(d)
        ]
        for i in range(d)
    ]


def standard_identity(d: int) -> dict:
    """Sum over permutations s of sign(s) f_{s1}(f_{s2}(...(f_{sd} t_{d+1}))),
    f_i = t_i^2 - t_i."""
    total: dict = {}
    for perm in itertools.permutations(range(1, d + 1)):
        inversions = sum(1 for a, b in itertools.combinations(perm, 2) if a > b)
        chain = {var_name(d + 1): 1}
        for i in reversed(perm):
            v = var_name(i)
            chain = pmul({mul(v, v): 1, v: -1}, chain)
        padd(total, chain, -1 if inversions % 2 else 1)
    return total
