"""Logarithmic vector fields along a divisor: the module Der(log D), the
annihilator of the defining equation, Euler fields and Saito's freeness
criterion.

Der(log f) has two constructors.  ``log_derivations`` runs the syzygies of
(d_1 f, .., d_n f, -f).  For an Euler field chi (chi(f) = f),
Der(log f) = Ann(f) + O*chi (K. Saito, 1980): a syzygy (a, c) is
(a - c*chi, 0) + c*(chi, 1) with a - c*chi in Ann(f).  So
``log_derivations_from_ann`` takes the reduced basis of Ann(f) x 0 and
(chi, 1), the same generators, cofactors and order; the criterion
pipeline uses it whenever it builds Ann(f) anyway.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property

from . import linalg
from .groebner import (FreeModuleVector, buchberger, graded_ranking,
                       graded_redundant, ideal_lift, syzygies, tagged_basis,
                       tagged_lift, tagged_syzygies, vector_degree)
from .poly import Polynomial, divide_exact
from .weyl import WeylOperator, apply_op


class InvalidDivisor(ValueError):
    pass


def require_divisor(f: Polynomial):
    """The one check of every entry point that takes a divisor: f must be
    a nonconstant polynomial (0 is constant too)."""
    if f.is_constant():
        raise InvalidDivisor("divisor must be a nonconstant polynomial")


def gradient(f: Polynomial):
    return [f.deriv(i) for i in range(f.nvars)]


def quasi_weights(f: Polynomial):
    """Positive integer weights making f weighted-homogeneous, or None.

    Variables absent from f get weight 1.  Only kernel dimensions 0 and 1
    are searched beyond the plain-homogeneous shortcut; that covers every
    (quasi-)homogeneous divisor treated here.
    """
    if f.is_constant():
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
    # a primitive integer vector: up to sign, the weights themselves
    v = basis[0]
    if 0 in v:
        return None
    if v[0] < 0:
        v = [-c for c in v]
    if any(c < 0 for c in v):
        return None
    w = [1] * n
    for i, wi in zip(present, v):
        w[i] = wi
    return tuple(w)


@dataclass
class DerivationModule:
    """Generating set of a module of vector fields stabilising <f>.

    Each generator is the coefficient vector (a_1..a_n) of a field
    sum a_i d_i; the stored cofactor c satisfies sum a_i d_i(f) = c*f.
    What is derived from the generators (their tagged basis, which gives
    the first syzygies and lifts, the grading and the minimal generating
    subset) is computed on first use and kept.
    """

    divisor: Polynomial
    generators: list
    cofactors: list
    _minimal: DerivationModule | None = field(default=None, repr=False,
                                              compare=False)
    # set on a minimalized() result, which is its own: a flag, not a
    # reference to itself, keeps the module out of reference cycles
    _is_minimal: bool = field(default=False, repr=False, compare=False)

    @property
    def nvars(self):
        return self.divisor.nvars

    @cached_property
    def tagged(self):
        """The generators' ``groebner.tagged_basis``."""
        return tagged_basis(self.generators)

    @cached_property
    def first_syzygies(self) -> list:
        """Generators of the relations among the generators."""
        return tagged_syzygies(self.tagged) if self.generators else []

    def lift(self, v: FreeModuleVector):
        """Coefficients (q_i) with v = sum q_i g_i, or None if v is not in
        the module."""
        return tagged_lift(v, self.tagged)

    @cached_property
    def grading(self):
        """(w, degrees): the divisor's quasi_weights and the degree of each
        generator, a field sum a_i d_i with weighted-homogeneous a_i having
        degree deg(a_i) - w_i.  w is None when the divisor is not
        quasi-homogeneous; degrees is None then and when some generator is
        not homogeneous."""
        w = quasi_weights(self.divisor)
        if w is None:
            return None, None
        try:
            return w, [vector_degree(g, weights=w, shifts=[-wi for wi in w])
                       for g in self.generators]
        except ValueError:
            return w, None

    def operators(self):
        return [WeylOperator.vector_field(v.components) for v in self.generators]

    def minimalized(self) -> "DerivationModule":
        """Graded minimal generating subset, in increasing degree (graded
        data only), read off the ranked generators' syzygies; when none is
        redundant, the ranked module itself with its tagged basis."""
        if self._is_minimal:
            return self
        if self._minimal is None:
            _, degrees = self.grading
            if degrees is None:
                raise ValueError("minimalization needs (quasi-)homogeneous data")
            ranked = self.subset(graded_ranking(self.generators, degrees))
            m = len(ranked.generators)
            redundant = graded_redundant(ranked.first_syzygies, m)
            mini = (ranked.subset([j for j in range(m) if j not in redundant])
                    if redundant else ranked)
            mini._is_minimal = True
            self._minimal = mini
        return self._minimal

    def subset(self, indices) -> "DerivationModule":
        """The generators at ``indices`` with their cofactors."""
        return DerivationModule(self.divisor,
                                [self.generators[i] for i in indices],
                                [self.cofactors[i] for i in indices])


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


def _from_syzygies(f: Polynomial, syz) -> DerivationModule:
    """The fields and cofactors of syzygies (a_1..a_n, c) of
    (d_1 f, .., d_n f, -f)."""
    n = f.nvars
    return DerivationModule(f, [FreeModuleVector(s.components[:n])
                                for s in syz],
                            [s.components[n] for s in syz])


def log_derivations(f: Polynomial) -> DerivationModule:
    """Der(log f) = {theta : theta(f) in <f>} with cofactors, computed as
    the syzygy module of (d_1 f, .., d_n f, -f) projected to the first n
    coordinates."""
    require_divisor(f)
    inputs = [FreeModuleVector.from_polynomial(g) for g in gradient(f)]
    inputs.append(FreeModuleVector.from_polynomial(-f))
    return _from_syzygies(f, syzygies(inputs))


def log_derivations_from_ann(ann: DerivationModule, chi) -> DerivationModule:
    """``log_derivations(ann.divisor)`` from Ann(f) and an Euler field chi:
    the reduced basis of Ann(f) x 0 and (chi, 1), which generate the same
    syzygies under the same order (``groebner.tagged_basis``)."""
    f = ann.divisor
    zero, one = Polynomial.zero(f.nvars), Polynomial.one(f.nvars)
    gens = [FreeModuleVector([*a.components, zero]) for a in ann.generators]
    gens.append(FreeModuleVector([*chi.first_order_part(), one]))
    return _from_syzygies(f, buchberger(gens).generators)


def ann_theta(f: Polynomial) -> DerivationModule:
    """Ann_Theta(f) = {theta : theta(f) = 0}: syzygies of the gradient."""
    require_divisor(f)
    gens = syzygies([FreeModuleVector.from_polynomial(g) for g in gradient(f)])
    return DerivationModule(f, gens, [Polynomial.zero(f.nvars)] * len(gens))


def euler_field(f: Polynomial):
    """A field chi with chi(f) = f exactly, or None when f is not in the
    ideal of its partials.  Homogeneous f of degree e gets the classical
    (1/e) sum x_i d_i.  A chi with chi(f) != f raises AssertionError: the
    engine is inconsistent."""
    require_divisor(f)
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
    if apply_op(chi, f) != f:
        raise AssertionError("Euler field does not map f to f: engine "
                             "inconsistency")
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
    try:
        kept = dm.minimalized().generators
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
