"""Exact sparse multivariate polynomial arithmetic over the rationals.

Polynomials are immutable once constructed: every operation returns a new
object, so values may be shared freely across worker threads and caches.
Every constructor stores a coefficient as a plain ``int`` when it is
integral and as a ``Fraction`` otherwise; arithmetic may leave an integral
Fraction behind, which compares, hashes and prints as its int.  No code
here applies ``/`` to a coefficient: ``int / int`` is a float.
Monomials are plain exponent tuples; term orders produce flat integer sort
keys so that terms can be heapified and compared cheaply.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations_with_replacement
from math import lcm, perm
from operator import add, sub

Mono = tuple


# ---------------------------------------------------------------------------
# monomial helpers
# ---------------------------------------------------------------------------

def mono_mul(a: Mono, b: Mono) -> Mono:
    return tuple(map(add, a, b))


def mono_deg(a: Mono) -> int:
    return sum(a)


def monomials_of_degree(nvars: int, d: int):
    """All exponent tuples of total degree d, in descending lexicographic
    order: (d, 0, .., 0) first."""
    if d < 0:
        return []
    if nvars == 1:
        return [(d,)]
    out = []
    for combo in combinations_with_replacement(range(nvars), d):
        expo = [0] * nvars
        for i in combo:
            expo[i] += 1
        out.append(tuple(expo))
    return out


# ---------------------------------------------------------------------------
# term orders
# ---------------------------------------------------------------------------

class TermOrder:
    """Total multiplicative order on monomials.

    ``key`` maps a monomial to a flat tuple of ints, linear in the
    exponents (``groebner`` packs it into one int); monomials compare the
    way their keys compare.  Keys of one order instance are only ever
    compared with each other.
    """

    name = "order"

    def key(self, m: Mono) -> tuple:
        raise NotImplementedError

    def __repr__(self):
        return self.name


class Degrevlex(TermOrder):
    """Degree reverse lexicographic; refines total degree, 1 is minimal."""

    name = "degrevlex"

    def key(self, m):
        return (sum(m), *(-e for e in reversed(m)))


class Lex(TermOrder):
    """Lexicographic with x1 > x2 > ...; admissible but not degree-refining."""

    name = "lex"

    def key(self, m):
        return m


class BlockElim(TermOrder):
    """Block order eliminating a subset of variables.

    The eliminated block is compared first (degrevlex within the block), so
    any monomial involving an eliminated variable beats every monomial free
    of them; Groebner bases under this order intersect to the subring.
    """

    def __init__(self, elim, nvars):
        self.elim = tuple(sorted(elim))
        keep = [i for i in range(nvars) if i not in set(self.elim)]
        self.keep = tuple(keep)
        self.name = f"block(elim={self.elim})"

    def key(self, m):
        e = tuple(m[i] for i in self.elim)
        k = tuple(m[i] for i in self.keep)
        return (sum(e), *(-x for x in reversed(e)), sum(k), *(-x for x in reversed(k)))


class LastVariableRevlex(TermOrder):
    """Weighted degree, then reverse lexicographic with x_last the smallest
    variable and the others as in degrevlex.  Within one degree a monomial
    divisible by x_last is below every monomial that is not, so x_last
    divides the lead of a homogeneous element iff it divides the element
    (Bayer and Stillman, 1987)."""

    def __init__(self, weights, last):
        self.weights = tuple(weights)
        self.last = last
        self.rest = tuple(j for j in reversed(range(len(self.weights)))
                          if j != last)
        self.name = f"revlex(w={self.weights},last={last})"

    def key(self, m):
        return (sum(w * e for w, e in zip(self.weights, m)), -m[self.last],
                *(-m[j] for j in self.rest))


DEGREVLEX = Degrevlex()
LEX = Lex()


class ModuleOrder:
    """Total order on module terms ``(component, monomial)``."""

    name = "module-order"

    def key(self, term) -> tuple:
        raise NotImplementedError

    def __repr__(self):
        return self.name


class TopOrder(ModuleOrder):
    """Term-over-position; monomials compared by the ring order, ties go to
    the lower component.  Optional shifts add per-component degree offsets
    (only meaningful over a degree-refining ring order)."""

    def __init__(self, ring_order=DEGREVLEX, shifts=None):
        self.ring_order = ring_order
        self.shifts = tuple(shifts) if shifts is not None else None
        self.name = f"top({ring_order.name})"

    def key(self, term):
        c, m = term
        k = self.ring_order.key(m)
        if self.shifts is not None:
            k = (k[0] + self.shifts[c], *k[1:])
        return (*k, -c)


class PotOrder(ModuleOrder):
    """Position-over-term.  With ``ascending=True`` higher component index
    wins, which realises an order refining e_1 < e_2 < ... < e_rank."""

    def __init__(self, ring_order=DEGREVLEX, ascending=True):
        self.ring_order = ring_order
        self.ascending = ascending
        self.name = f"pot({ring_order.name},{'asc' if ascending else 'desc'})"

    def key(self, term):
        c, m = term
        return (c if self.ascending else -c, *self.ring_order.key(m))


class SyzElimOrder(ModuleOrder):
    """Internal elimination order: components below ``split`` dominate the
    rest, term-over-position within each block.  Used for syzygy and lift
    computations via tagged generators."""

    def __init__(self, split, ring_order=DEGREVLEX):
        self.split = split
        self.ring_order = ring_order
        self.name = f"syzelim(split={split})"

    def key(self, term):
        c, m = term
        return (1 if c < self.split else 0, *self.ring_order.key(m), -c)


# ---------------------------------------------------------------------------
# polynomials
# ---------------------------------------------------------------------------

def _coerce(c):
    """The coefficient c: an int if integral, otherwise a Fraction."""
    if type(c) is int:
        return c
    if type(c) is not Fraction:
        c = Fraction(c)
    return c.numerator if c.denominator == 1 else c


def integer_form(coeffs):
    """(den, ints) for a collection, not an iterator, of int or Fraction
    coefficients: den is the lcm of their denominators (1 for none) and ints
    the integers den*c, in order.  With ``Polynomial.from_integers``, the
    one way between Fraction and integer coefficients."""
    den = lcm(*(c.denominator for c in coeffs))
    if den == 1:
        return 1, [c.numerator for c in coeffs]
    return den, [c.numerator * (den // c.denominator) for c in coeffs]


class Polynomial:
    """Sparse polynomial: a finite map monomial -> nonzero coefficient, an
    int when integral and a Fraction otherwise."""

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars: int, terms=None, _clean=True):
        self.nvars = nvars
        if terms is None:
            self.terms = {}
        elif _clean:
            self.terms = {m: _coerce(c) for m, c in terms.items() if c != 0}
        else:
            self.terms = terms

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero(nvars):
        return Polynomial(nvars, {}, _clean=False)

    @staticmethod
    def constant(nvars, c):
        c = _coerce(c)
        if c == 0:
            return Polynomial.zero(nvars)
        return Polynomial(nvars, {(0,) * nvars: c}, _clean=False)

    @staticmethod
    def one(nvars):
        return Polynomial.constant(nvars, 1)

    @staticmethod
    def variable(nvars, i):
        if not 0 <= i < nvars:
            raise ValueError(f"variable index {i} out of range for {nvars} variables")
        expo = (0,) * i + (1,) + (0,) * (nvars - i - 1)
        return Polynomial(nvars, {expo: 1}, _clean=False)

    @staticmethod
    def monomial(nvars, expo, coeff=1):
        coeff = _coerce(coeff)
        if len(expo) != nvars:
            raise ValueError("exponent length does not match variable count")
        if coeff == 0:
            return Polynomial.zero(nvars)
        return Polynomial(nvars, {tuple(expo): coeff}, _clean=False)

    @staticmethod
    def from_integers(nvars, terms, den=1):
        """The polynomial with coefficient c/den at m for each pair (m, c)
        of ``terms``: distinct monomials, nonzero ints.  The inverse of
        ``integer_form``; c/den is an int where den divides c."""
        if den == 1:
            return Polynomial(nvars, dict(terms), _clean=False)
        out = {}
        for m, c in terms:
            q, r = divmod(c, den)
            out[m] = Fraction(c, den) if r else q
        return Polynomial(nvars, out, _clean=False)

    # -- basic queries -------------------------------------------------------

    def is_zero(self):
        return not self.terms

    def is_constant(self):
        return all(mono_deg(m) == 0 for m in self.terms)

    def constant_term(self):
        return self.terms.get((0,) * self.nvars, 0)

    def degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return max(mono_deg(m) for m in self.terms)

    def weighted_degree(self, weights) -> int:
        if not self.terms:
            return -1
        return max(sum(w * e for w, e in zip(weights, m)) for m in self.terms)

    def is_homogeneous(self) -> bool:
        degs = {mono_deg(m) for m in self.terms}
        return len(degs) <= 1

    def is_weighted_homogeneous(self, weights) -> bool:
        degs = {sum(w * e for w, e in zip(weights, m)) for m in self.terms}
        return len(degs) <= 1

    def lead_coeff(self, order: TermOrder = DEGREVLEX):
        if not self.terms:
            raise ValueError("zero polynomial has no leading monomial")
        return self.terms[max(self.terms, key=order.key)]

    def sorted_terms(self, order: TermOrder = DEGREVLEX, reverse=True):
        key = order.key
        return sorted(self.terms.items(), key=lambda t: key(t[0]), reverse=reverse)

    # -- arithmetic ----------------------------------------------------------

    def _check(self, other):
        if self.nvars != other.nvars:
            raise ValueError(
                f"ring dimension mismatch: {self.nvars} vs {other.nvars}")

    def __add__(self, other):
        if not isinstance(other, Polynomial):
            other = Polynomial.constant(self.nvars, other)
        self._check(other)
        res = dict(self.terms)
        for m, c in other.terms.items():
            s = res.get(m, 0) + c
            if s:
                res[m] = s
            elif m in res:
                del res[m]
        return Polynomial(self.nvars, res, _clean=False)

    __radd__ = __add__

    def __neg__(self):
        return Polynomial(self.nvars, {m: -c for m, c in self.terms.items()},
                          _clean=False)

    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, Polynomial):
            c = _coerce(other)
            if c == 0:
                return Polynomial.zero(self.nvars)
            return Polynomial(self.nvars,
                              {m: c * v for m, v in self.terms.items()},
                              _clean=False)
        self._check(other)
        res = {}
        if len(self.terms) > len(other.terms):
            a, b = other, self
        else:
            a, b = self, other
        if len(a.terms) == 1:  # a term times b: nothing can cancel
            (m1, c1), = a.terms.items()
            return Polynomial(self.nvars,
                              {mono_mul(m1, m2): c1 * c2
                               for m2, c2 in b.terms.items()}, _clean=False)
        for m1, c1 in a.terms.items():
            for m2, c2 in b.terms.items():
                m = mono_mul(m1, m2)
                s = res.get(m, 0) + c1 * c2
                if s:
                    res[m] = s
                elif m in res:
                    del res[m]
        return Polynomial(self.nvars, res, _clean=False)

    __rmul__ = __mul__

    def __pow__(self, k):
        if k < 0:
            raise ValueError("negative power")
        if len(self.terms) == 1:  # c*x^m -> c^k*x^(k*m) in one step
            (m, c), = self.terms.items()
            return Polynomial(self.nvars, {tuple(k * e for e in m): c ** k},
                              _clean=False)
        return power(self, k, Polynomial.one(self.nvars), Polynomial.__mul__)

    def __eq__(self, other):
        if not isinstance(other, Polynomial):
            if self.is_constant():
                return self.constant_term() == _coerce(other)
            return NotImplemented
        return self.nvars == other.nvars and self.terms == other.terms

    def __bool__(self):
        return bool(self.terms)

    def __repr__(self):
        return format_polynomial(self)

    # -- calculus ------------------------------------------------------------

    def deriv(self, i):
        res = {}
        for m, c in self.terms.items():
            e = m[i]
            if e:
                res[m[:i] + (e - 1,) + m[i + 1:]] = c * e
        return Polynomial(self.nvars, res, _clean=False)

    def partial(self, beta):
        """Apply the monomial differential operator d^beta (a tuple of
        nvars exponents): d^beta x^m = prod_i m_i!/(m_i - beta_i)! x^(m - beta)
        on each term at once, and 0 on a term with some m_i < beta_i."""
        if not any(beta):
            return self
        res = {}
        for m, c in self.terms.items():
            k = 1
            for e, b in zip(m, beta):
                if e < b:
                    break
                if b:
                    k *= perm(e, b)
            else:
                res[tuple(map(sub, m, beta))] = c * k
        return Polynomial(self.nvars, res, _clean=False)


def power(base, k: int, one, mul):
    """base^k by square-and-multiply, ``mul`` the product and ``one`` its
    unit: the one power loop of polynomials and operators."""
    result = one
    while k:
        if k & 1:
            result = mul(result, base)
        base = mul(base, base) if k > 1 else base
        k >>= 1
    return result


# ---------------------------------------------------------------------------
# division
# ---------------------------------------------------------------------------

def divide_exact(g: Polynomial, h: Polynomial):
    """Exact quotient g / h, or None if h does not divide g: the Groebner
    engine's lift of g onto the principal ideal (h), unique when it exists."""
    if h.is_zero():
        raise ZeroDivisionError("division by the zero polynomial")
    g._check(h)
    from .groebner import ideal_lift   # groebner imports this module
    lift = ideal_lift(g, [h])
    return None if lift is None else lift[0]


# ---------------------------------------------------------------------------
# printing (the parser lives in grammar.py and round-trips this format)
# ---------------------------------------------------------------------------

_ALIAS = ("x", "y", "z", "w")

_DIGITS = 600
"""Digits that ``parse_int`` hands to one ``int`` call: below 640, the
smallest limit on int/str conversion an interpreter can be set to."""


def format_int(n: int) -> str:
    """Decimal digits of an int of any length.  ``str`` refuses an int past
    the interpreter's limit on int/str conversion (4300 digits by default);
    such an int is split at a power of ten into halves until each
    converts."""
    try:
        return str(n)
    except ValueError:
        pass
    if n < 0:
        return "-" + format_int(-n)
    half = n.bit_length() * 3 // 20   # about half the digits, log10(2) > 0.3
    hi, lo = divmod(n, 10 ** half)
    return format_int(hi) + format_int(lo).zfill(half)


def parse_int(digits: str) -> int:
    """The int of a string of ASCII digits of any length, the inverse of
    ``format_int``."""
    if len(digits) <= _DIGITS:
        return int(digits)
    half = len(digits) // 2
    return parse_int(digits[:-half]) * 10 ** half + parse_int(digits[-half:])


def var_name(i: int, nvars: int) -> str:
    if nvars <= 4:
        return _ALIAS[i]
    return f"x{i + 1}"


def format_polynomial(p: Polynomial, order: TermOrder = DEGREVLEX) -> str:
    if p.is_zero():
        return "0"
    return format_terms(p.sorted_terms(order), p.nvars)


def format_terms(terms, nvars: int) -> str:
    """Nonzero (monomial, coefficient) pairs in print order, written as
    ``format_polynomial`` writes the polynomial they form.  A coefficient
    is an int or a Fraction, written as ``str`` writes it, ``num/den`` if
    not integral, with ``format_int`` digits."""
    names = [var_name(i, nvars) for i in range(nvars)]
    bits = []
    for m, c in terms:
        factors = [v if e == 1 else f"{v}^{format_int(e)}"
                   for v, e in zip(names, m) if e]
        num, den = c.numerator, c.denominator
        mag = format_int(abs(num))
        if den != 1:
            mag = f"{mag}/{format_int(den)}"
        if not factors:
            body = mag
        elif mag == "1":
            body = "*".join(factors)
        else:
            body = "*".join([mag] + factors)
        if not bits:
            bits.append(body if num > 0 else "-" + body)
        else:
            bits.append((" + " if num > 0 else " - ") + body)
    return "".join(bits)
