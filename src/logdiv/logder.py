"""Logarithmic vector fields along a divisor: the module Der(log D), the
annihilator of the defining equation, Euler fields, Saito's freeness
criterion, the splitting test and the determinant polynomiality check."""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd

from . import linalg
from .groebner import (FreeModuleVector, GroebnerBasis, buchberger,
                       graded_min_generators, ideal_lift, in_submodule,
                       syzygies)
from .poly import Polynomial, divide_exact
from .weyl import WeylOperator, apply_op


class InvalidDivisor(ValueError):
    pass


def gradient(f: Polynomial):
    return [f.deriv(i) for i in range(f.nvars)]


def quasi_weights(f: Polynomial):
    """Positive integer weights making f weighted-homogeneous, or None.

    Variables absent from f get weight 1.  Only kernel dimensions 0 and 1
    are searched beyond the plain-homogeneous shortcut; that covers every
    (quasi-)homogeneous divisor treated here.
    """
    if f.is_zero() or f.is_constant():
        return None
    n = f.nvars
    if f.is_homogeneous():
        return (1,) * n
    monos = list(f.terms)
    present = sorted({i for m in monos for i in range(n) if m[i]})
    m0 = monos[0]
    rows = [[m[i] - m0[i] for i in present] for m in monos[1:]]
    basis = linalg.kernel_basis(rows, len(present))
    if len(basis) != 1:
        return None
    v = basis[0]
    if any(c == 0 for c in v):
        return None
    if v[0] < 0:
        v = [-c for c in v]
    if any(c < 0 for c in v):
        return None
    den = 1
    for c in v:
        den = den * c.denominator // gcd(den, c.denominator)
    ints = [int(c * den) for c in v]
    g = 0
    for c in ints:
        g = gcd(g, c)
    ints = [c // g for c in ints]
    w = [1] * n
    for i, wi in zip(present, ints):
        w[i] = wi
    return tuple(w)


@dataclass
class DerivationModule:
    """Generating set of a module of vector fields stabilising <f>.

    Each generator is the coefficient vector (a_1..a_n) of a field
    sum a_i d_i; the stored cofactor c satisfies sum a_i d_i(f) = c*f.
    """

    divisor: Polynomial
    generators: list
    cofactors: list
    first_syzygies: list
    _gb: GroebnerBasis | None = field(default=None, repr=False, compare=False)

    @property
    def nvars(self):
        return self.divisor.nvars

    def gb(self) -> GroebnerBasis:
        if self._gb is None:
            self._gb = buchberger(self.generators)
        return self._gb

    def operators(self):
        return [WeylOperator.vector_field(v.components) for v in self.generators]

    def contains(self, vec: FreeModuleVector) -> bool:
        return in_submodule(vec, self.gb())

    def minimalized(self, weights=None) -> "DerivationModule":
        """Graded minimal generating set (homogeneous data only)."""
        w = weights or quasi_weights(self.divisor)
        if w is None:
            raise ValueError("minimalization needs (quasi-)homogeneous data")
        shifts = tuple(-wi for wi in w)
        kept, _ = graded_min_generators(self.generators, weights=w,
                                        shifts=shifts)
        cofs = [_cofactor(v, self.divisor) for v in kept]
        return DerivationModule(self.divisor, kept, cofs, syzygies(kept))


def _cofactor(v: FreeModuleVector, f: Polynomial) -> Polynomial:
    val = Polynomial.zero(f.nvars)
    for a, df in zip(v.components, gradient(f)):
        val = val + a * df
    if val.is_zero():
        return Polynomial.zero(f.nvars)
    c = divide_exact(val, f)
    if c is None:
        raise ValueError("vector field is not logarithmic along f")
    return c


def log_derivations(f: Polynomial) -> DerivationModule:
    """Der(log f) = {theta : theta(f) in <f>} with cofactors and first
    syzygies, computed as the syzygy module of (d_1 f, .., d_n f, -f)
    projected to the first n coordinates."""
    if f.is_zero() or f.is_constant():
        raise InvalidDivisor("divisor must be defined by a nonconstant polynomial")
    n = f.nvars
    inputs = [FreeModuleVector.from_polynomial(g) for g in gradient(f)]
    inputs.append(FreeModuleVector.from_polynomial(-f))
    syz = syzygies(inputs)
    generators = [FreeModuleVector(s.components[:n]) for s in syz]
    cofactors = [s.components[n] for s in syz]
    first = syzygies(generators) if generators else []
    return DerivationModule(f, generators, cofactors, first)


def ann_theta(f: Polynomial) -> DerivationModule:
    """Ann_Theta(f) = {theta : theta(f) = 0}: syzygies of the gradient."""
    if f.is_zero() or f.is_constant():
        raise InvalidDivisor("divisor must be defined by a nonconstant polynomial")
    n = f.nvars
    gens = syzygies([FreeModuleVector.from_polynomial(g) for g in gradient(f)])
    zero = Polynomial.zero(n)
    first = syzygies(gens) if gens else []
    return DerivationModule(f, gens, [zero] * len(gens), first)


def euler_field(f: Polynomial):
    """A field chi with chi(f) = f exactly, or None when f is not in the
    ideal of its partials.  Homogeneous f of degree e gets the classical
    (1/e) sum x_i d_i."""
    if f.is_zero() or f.is_constant():
        raise InvalidDivisor("divisor must be defined by a nonconstant polynomial")
    n = f.nvars
    if f.is_homogeneous():
        e = f.degree()
        coeffs = [Polynomial.variable(n, i) * Fraction(1, e) for i in range(n)]
        chi = WeylOperator.vector_field(coeffs)
    else:
        lift = ideal_lift(f, gradient(f))
        if lift is None:
            return None
        chi = WeylOperator.vector_field(lift)
    assert apply_op(chi, f) == f
    return chi


@dataclass
class FreenessVerdict:
    status: str            # "free" | "not free at 0" | "inconclusive"
    basis: list | None = None
    determinant: Polynomial | None = None
    min_generators: int | None = None

    def __bool__(self):
        return self.status == "free"


def saito_freeness_test(dm: DerivationModule) -> FreenessVerdict:
    """Saito's criterion in the graded setting: n minimal generators whose
    coefficient determinant is a nonzero constant multiple of f mean free;
    more than n graded minimal generators mean not free at 0."""
    f = dm.divisor
    n = f.nvars
    w = quasi_weights(f)
    if w is None:
        return FreenessVerdict("inconclusive")
    shifts = tuple(-wi for wi in w)
    try:
        kept, _ = graded_min_generators(dm.generators, weights=w, shifts=shifts)
    except ValueError:
        return FreenessVerdict("inconclusive")
    mu = len(kept)
    if mu > n:
        return FreenessVerdict("not free at 0", min_generators=mu)
    if mu < n:
        return FreenessVerdict("inconclusive", min_generators=mu)
    det = poly_det([list(v.components) for v in kept])
    if not det.is_zero():
        q = divide_exact(det, f)
        if q is not None and q.is_constant() and not q.is_zero():
            return FreenessVerdict("free", basis=kept, determinant=det,
                                   min_generators=mu)
    return FreenessVerdict("not free at 0", min_generators=mu)


def split_check(dm: DerivationModule, chi: WeylOperator,
                a_generators=None) -> bool:
    """Is O*chi + <A> a direct sum?  True iff no syzygy of (chi, A) has a
    nonzero chi-coefficient; A defaults to the generators of dm that differ
    from chi."""
    f = dm.divisor
    unit_betas = {tuple(int(i == j) for j in range(dm.nvars))
                  for i in range(dm.nvars)}
    if not chi.terms or not set(chi.terms) <= unit_betas:
        raise ValueError("chi is not a vector field")
    chi_vec = FreeModuleVector(chi.first_order_part())
    val = apply_op(chi, f)
    if not val.is_zero() and divide_exact(val, f) is None:
        raise ValueError("chi is not logarithmic along f")
    if a_generators is None:
        a_generators = [g for g in dm.generators if g != chi_vec]
    syz = syzygies([chi_vec] + list(a_generators))
    return all(s.components[0].is_zero() for s in syz)


def poly_det(rows):
    """Determinant of a square polynomial matrix by minor expansion."""
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise ValueError("matrix is not square")
    nvars = rows[0][0].nvars
    cache = {}

    def minor(r, cols):
        if not cols:
            return Polynomial.one(nvars)
        key = (r, cols)
        if key in cache:
            return cache[key]
        acc = Polynomial.zero(nvars)
        sign = 1
        for k, c in enumerate(cols):
            entry = rows[r][c]
            if not entry.is_zero():
                sub = minor(r + 1, cols[:k] + cols[k + 1:])
                term = entry * sub
                acc = acc + term if sign > 0 else acc - term
            sign = -sign
        cache[key] = acc
        return acc

    return minor(0, tuple(range(n)))


def polynomiality_det(generators) -> bool:
    """For exactly n fields on n variables: is the coefficient determinant
    nonzero (so the fields generate a polynomial subring of the symbols)?"""
    generators = list(generators)
    if not generators:
        raise ValueError("no generators given")
    n = generators[0].nvars
    if len(generators) != n:
        raise ValueError(f"expected exactly {n} fields, got {len(generators)}")
    det = poly_det([list(v.components) for v in generators])
    return not det.is_zero()
