"""Weyl algebra: normally ordered differential operators with polynomial
coefficients, composition via the Leibniz rule, application to polynomials,
order filtration and principal symbols."""

from __future__ import annotations

from itertools import product
from math import comb, inf, prod

from .poly import (DEGREVLEX, Polynomial, format_int, format_terms,
                   mono_deg, mono_mul, power, var_name)


class WeylOperator:
    """Differential operator sum_beta p_beta * d^beta.

    The map representation (d-exponent -> polynomial coefficient) enforces
    normal order: coefficients stand to the left of all derivatives.
    """

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars: int, terms=None, _clean=True):
        self.nvars = nvars
        if terms is None:
            self.terms = {}
        elif _clean:
            self.terms = {b: p for b, p in terms.items() if not p.is_zero()}
        else:
            self.terms = terms

    # -- constructors --------------------------------------------------------

    @staticmethod
    def zero(nvars):
        return WeylOperator(nvars, {}, _clean=False)

    @staticmethod
    def from_polynomial(p: Polynomial):
        if p.is_zero():
            return WeylOperator.zero(p.nvars)
        return WeylOperator(p.nvars, {(0,) * p.nvars: p}, _clean=False)

    @staticmethod
    def constant(nvars, c):
        return WeylOperator.from_polynomial(Polynomial.constant(nvars, c))

    @staticmethod
    def partial(nvars, i):
        beta = tuple(1 if j == i else 0 for j in range(nvars))
        return WeylOperator(nvars, {beta: Polynomial.one(nvars)}, _clean=False)

    @staticmethod
    def vector_field(coeffs):
        """First-order operator sum a_i * d_i from coefficient polynomials."""
        n = coeffs[0].nvars
        terms = {}
        for i, a in enumerate(coeffs):
            if a.is_zero():
                continue
            beta = tuple(1 if j == i else 0 for j in range(n))
            terms[beta] = a
        return WeylOperator(n, terms, _clean=False)

    # -- queries ---------------------------------------------------------------

    def is_zero(self):
        return not self.terms

    def order(self):
        """Order of the operator; -inf for the zero operator."""
        if not self.terms:
            return -inf
        return max(mono_deg(b) for b in self.terms)

    def first_order_part(self):
        """Coefficient vector (a_1..a_n) of the degree-one derivatives."""
        coeffs = []
        for i in range(self.nvars):
            beta = tuple(1 if j == i else 0 for j in range(self.nvars))
            coeffs.append(self.terms.get(beta, Polynomial.zero(self.nvars)))
        return coeffs

    def weight(self, weights=None):
        """Weight if weight-homogeneous, else None; None for zero.  A term
        x^m*d^beta has weight w.m - w.beta."""
        w = tuple(weights) if weights is not None else (1,) * self.nvars
        found = {sum(x * (y - z) for x, y, z in zip(w, m, b))
                 for b, p in self.terms.items() for m in p.terms}
        return found.pop() if len(found) == 1 else None

    # -- arithmetic ------------------------------------------------------------

    def _check(self, other):
        if self.nvars != other.nvars:
            raise ValueError(
                f"ring dimension mismatch: {self.nvars} vs {other.nvars}")

    def __add__(self, other):
        if isinstance(other, Polynomial):
            other = WeylOperator.from_polynomial(other)
        elif not isinstance(other, WeylOperator):
            other = WeylOperator.constant(self.nvars, other)
        self._check(other)
        res = dict(self.terms)
        for b, p in other.terms.items():
            s = res.get(b)
            s = p if s is None else s + p
            if s.is_zero():
                res.pop(b, None)
            else:
                res[b] = s
        return WeylOperator(self.nvars, res, _clean=False)

    __radd__ = __add__

    def __neg__(self):
        return WeylOperator(self.nvars, {b: -p for b, p in self.terms.items()},
                            _clean=False)

    def __sub__(self, other):
        return self + (-other)

    def scale(self, c):
        if c == 0:
            return WeylOperator.zero(self.nvars)
        return WeylOperator(self.nvars,
                            {b: p * c for b, p in self.terms.items()},
                            _clean=False)

    def left_mul(self, p: Polynomial):
        """Multiply by a polynomial on the left (stays normally ordered)."""
        if p.is_zero():
            return WeylOperator.zero(self.nvars)
        return WeylOperator(self.nvars, {b: p * q for b, q in self.terms.items()})

    def right_mul(self, Q):
        """Compose with a constant-coefficient operator Q on the right:
        p*d^beta * c*d^gamma = c*p*d^(beta+gamma), with no Leibniz terms."""
        self._check(Q)
        acc = {}
        for beta, p in self.terms.items():
            for gamma, q in Q.terms.items():
                b = mono_mul(beta, gamma)
                s = acc.get(b)
                acc[b] = p * q if s is None else s + p * q
        return WeylOperator(self.nvars, acc)

    def __pow__(self, k):
        """k-th power; c*d^beta with c constant goes to c^k*d^(k*beta) in
        one step, anything else squares with ``compose``."""
        if k < 0:
            raise ValueError("negative power")
        if len(self.terms) == 1:
            (beta, c), = self.terms.items()
            if c.is_constant():
                return WeylOperator(self.nvars,
                                    {tuple(k * e for e in beta): c ** k},
                                    _clean=False)
        return power(self, k, WeylOperator.constant(self.nvars, 1), compose)

    def __eq__(self, other):
        if not isinstance(other, WeylOperator):
            return NotImplemented
        return self.nvars == other.nvars and self.terms == other.terms

    def __repr__(self):
        return format_operator(self)


def apply_op(P: WeylOperator, g: Polynomial) -> Polynomial:
    """Apply the operator to a polynomial: sum_beta p_beta * d^beta(g)."""
    if P.nvars != g.nvars:
        raise ValueError("ring dimension mismatch")
    result = Polynomial.zero(g.nvars)
    for b, p in P.terms.items():
        dg = g.partial(b)
        if not dg.is_zero():
            result = result + p * dg
    return result


def compose(P: WeylOperator, Q: WeylOperator) -> WeylOperator:
    """Normally ordered product P*Q, so apply(compose(P,Q), g) equals
    apply(P, apply(Q, g)).  Uses d^beta q = sum_{delta<=beta} C(beta,delta)
    (d^delta q) d^(beta-delta); delta_i runs only up to the x_i-degree of
    q, since higher derivatives of q vanish."""
    P._check(Q)
    n = P.nvars
    # per term of Q: its coefficient's degree in each variable
    qterms = [(gamma, q, tuple(map(max, zip(*q.terms))))
              for gamma, q in Q.terms.items()]
    acc = {}
    for beta, p in P.terms.items():
        for gamma, q, top in qterms:
            for delta in product(*(range(min(b, t) + 1)
                                   for b, t in zip(beta, top))):
                dq = q.partial(delta)
                if dq.is_zero():
                    continue
                c = prod(map(comb, beta, delta))
                coeff = p * dq if c == 1 else p * dq * c
                b = tuple(x - d + g for x, d, g in zip(beta, delta, gamma))
                s = acc.get(b)
                acc[b] = coeff if s is None else s + coeff
    return WeylOperator(n, acc)


def symbol(P: WeylOperator) -> Polynomial:
    """Principal symbol: top-order part with d_i replaced by xi_i.

    Lives in the polynomial ring on 2n variables x_1..x_n, xi_1..xi_n
    (the xi_i occupy indices n..2n-1)."""
    if P.is_zero():
        raise ValueError("the zero operator has no symbol")
    d = P.order()
    n = P.nvars
    terms = {}
    for b, p in P.terms.items():
        if mono_deg(b) != d:
            continue
        for m, c in p.terms.items():
            terms[m + b] = c
    return Polynomial(2 * n, terms, _clean=False)


def xi_component_vector(sym: Polynomial, nvars: int, k: int, xi_monos):
    """Coordinates of a symbol polynomial over the xi-monomials of degree k:
    returns the list of base-ring coefficient polynomials, one per entry of
    xi_monos; raises if the symbol has terms of other xi-degrees."""
    coords = {m: {} for m in xi_monos}
    for m, c in sym.terms.items():
        xm, dm = m[:nvars], m[nvars:]
        if mono_deg(dm) != k or dm not in coords:
            raise ValueError("symbol has terms outside the requested xi-degree")
        coords[dm][xm] = c
    return [Polynomial(nvars, coords[m]) for m in xi_monos]


# ---------------------------------------------------------------------------
# printing
# ---------------------------------------------------------------------------

def _d_name(i, nvars):
    return "d" + var_name(i, nvars)


def format_operator(P: WeylOperator) -> str:
    if P.is_zero():
        return "0"
    key = DEGREVLEX.key
    return format_blocks([(b, P.terms[b].sorted_terms())
                          for b in sorted(P.terms, key=key, reverse=True)],
                         P.nvars)


def format_blocks(blocks, nvars: int) -> str:
    """A nonzero operator given as (beta, coefficient terms) blocks, the
    betas and each block's (monomial, coefficient) pairs in print order,
    written as ``format_operator`` writes it."""
    pieces = []  # (negative, body)
    for b, terms in blocks:
        dfactors = []
        for i, e in enumerate(b):
            if e == 0:
                continue
            name = _d_name(i, nvars)
            dfactors.append(name if e == 1 else f"{name}^{format_int(e)}")
        ds = "*".join(dfactors)
        coeff = format_terms(terms, nvars)
        if len(terms) > 1:
            body = f"({coeff})*{ds}" if ds else f"({coeff})"
            pieces.append((False, body))
            continue
        neg = coeff.startswith("-")
        mag = coeff[1:] if neg else coeff
        if not ds:
            body = mag
        elif mag == "1":
            body = ds
        else:
            body = f"{mag}*{ds}"
        pieces.append((neg, body))
    neg0, body0 = pieces[0]
    out = ("-" + body0) if neg0 else body0
    for neg, body in pieces[1:]:
        out += (" - " if neg else " + ") + body
    return out
