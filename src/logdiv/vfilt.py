"""The V-filtration along a divisor: pointwise membership testing, graded
bases of the order-bounded pieces for homogeneous divisors, comparison with
the subalgebra generated by logarithmic vector fields, and the reduction of
V_k to V_0.

Membership is decided by finitely many divisibility conditions
P(x^alpha f^l) in O * f^(l-k) over |alpha| + l <= order(P); conditions with
l - k <= 0 hold automatically and contribute nothing.  Graded bases exist
for homogeneous f only, where each (order, weight) piece is a
finite-dimensional exact linear algebra problem.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations_with_replacement
from math import lcm

from . import linalg
from .groebner import ideal_gb, local_membership_at_origin
from .logder import DerivationModule, InvalidDivisor, log_derivations
from .poly import (DEGREVLEX, Polynomial, divide_exact, mono_deg,
                   monomials_of_degree)
from .weyl import WeylOperator, apply_op, compose


# ---------------------------------------------------------------------------
# membership
# ---------------------------------------------------------------------------

@dataclass
class VMembershipQuery:
    divisor: Polynomial
    operator: WeylOperator
    level: int
    order: int = field(init=False)

    def __post_init__(self):
        if self.divisor.is_zero() or self.divisor.is_constant():
            raise InvalidDivisor("divisor must be a nonconstant polynomial")
        d = self.operator.order()
        self.order = 0 if self.operator.is_zero() else int(d)

    def conditions(self):
        """All (alpha, l) with |alpha| + l <= order and l - level >= 1."""
        out = []
        for l in range(self.order + 1):
            if l - self.level < 1:
                continue
            for adeg in range(self.order - l + 1):
                for alpha in monomials_of_degree(self.divisor.nvars, adeg):
                    out.append((alpha, l))
        return out


def v_membership(query: VMembershipQuery) -> bool:
    f = query.divisor
    P = query.operator
    if P.is_zero():
        return True
    n = f.nvars
    homog = f.is_homogeneous()
    powers = {0: Polynomial.one(n)}

    def fpow(p):
        if p not in powers:
            powers[p] = fpow(p - 1) * f
        return powers[p]

    gbs = {}
    for alpha, l in query.conditions():
        p = l - query.level
        g = apply_op(P, Polynomial.monomial(n, alpha) * fpow(l))
        if g.is_zero():
            continue
        if homog:
            if divide_exact(g, fpow(p)) is None:
                return False
        else:
            if p not in gbs:
                gbs[p] = ideal_gb([fpow(p)])
            if not local_membership_at_origin(g, gbs[p]):
                return False
    return True


def v_member(f: Polynomial, P: WeylOperator, k: int) -> bool:
    return v_membership(VMembershipQuery(f, P, k))


# ---------------------------------------------------------------------------
# graded operator coordinates
# ---------------------------------------------------------------------------

class OperatorCoordinates:
    """Coordinates of {order <= d, weight w} operators for homogeneous f:
    one column per (beta, coefficient monomial of degree w + |beta|), the
    top-order block first."""

    def __init__(self, nvars, d, w):
        self.nvars = nvars
        self.d = d
        self.w = w
        key = DEGREVLEX.key
        betas = []
        for bd in range(d, -1, -1):
            betas.extend(sorted(monomials_of_degree(nvars, bd),
                                key=key, reverse=True))
        cols = []
        for beta in betas:
            cdeg = w + mono_deg(beta)
            if cdeg < 0:
                continue
            for mono in sorted(monomials_of_degree(nvars, cdeg),
                               key=key, reverse=True):
                cols.append((beta, mono))
        self.cols = cols
        self.index = {bm: i for i, bm in enumerate(cols)}

    def __len__(self):
        return len(self.cols)

    def op_to_vec(self, op: WeylOperator):
        """Coordinate vector; integral coefficients are stored as ints."""
        vec = [0] * len(self.cols)
        for beta, p in op.terms.items():
            for mono, c in p.terms.items():
                pos = self.index.get((beta, mono))
                if pos is None:
                    raise ValueError("operator does not fit the (d, w) box")
                vec[pos] = c.numerator if c.denominator == 1 else c
        return vec

    def vec_to_op(self, vec) -> WeylOperator:
        terms = {}
        for (beta, mono), c in zip(self.cols, vec):
            if c:
                terms.setdefault(beta, {})[mono] = c
        return WeylOperator(self.nvars,
                            {b: Polynomial(self.nvars, t) for b, t in terms.items()})


@dataclass
class GradedOperatorSpace:
    divisor: Polynomial
    order_bound: int
    weight: int
    basis: list
    coords: OperatorCoordinates
    _rref: list = field(repr=False, default=None)
    _pivots: list = field(repr=False, default=None)

    @property
    def dim(self):
        return len(self.basis)

    def residual(self, op: WeylOperator):
        vec = self.coords.op_to_vec(op)
        return linalg.residual(vec, self._rref or [], self._pivots or [])

    def contains(self, op: WeylOperator) -> bool:
        return all(c == 0 for c in self.residual(op))


def _space_from_vectors(f, d, w, coords, vectors) -> GradedOperatorSpace:
    if vectors:
        red, pivots = linalg.rref(vectors, len(coords))
    else:
        red, pivots = [], []
    basis = [coords.vec_to_op(row) for row in red]
    return GradedOperatorSpace(f, d, w, basis, coords, red, pivots)


class NonHomogeneousError(ValueError):
    """Graded basis computations are defined for homogeneous divisors only."""


def _require_homogeneous(f):
    if f.is_zero() or f.is_constant():
        raise InvalidDivisor("divisor must be a nonconstant polynomial")
    if not f.is_homogeneous():
        raise NonHomogeneousError("graded bases need a homogeneous divisor")


def _condition_kernel(f, coords, levels):
    """Kernel of the stacked conditions P(x^alpha f^l) in f^p * O over the
    coordinate columns; ``levels`` lists (alpha, l, p).

    A level contributes one row per target monomial: the images of the
    coordinate columns reduced against the rref of the f^p multiples.  The
    reduction runs in integers.  Each level block is scaled as a whole by
    the common denominator of that rref and of the images; scaling rows
    leaves the kernel alone."""
    n = f.nvars
    e = f.degree()
    powers = {0: Polynomial.one(n)}

    def fpow(p):
        if p not in powers:
            powers[p] = fpow(p - 1) * f
        return powers[p]

    rows = []
    for alpha, l, p in levels:
        target_deg = mono_deg(alpha) + l * e + coords.w
        if target_deg < 0:
            continue
        g = Polynomial.monomial(n, alpha) * fpow(l)
        dvals = {}
        for beta, _ in coords.cols:
            if beta not in dvals:
                dvals[beta] = g.partial(beta).terms
        scale = 1
        for terms in dvals.values():
            for c in terms.values():
                scale = lcm(scale, c.denominator)
        dvals = {beta: [(dm, c.numerator * (scale // c.denominator))
                        for dm, c in terms.items()]
                 for beta, terms in dvals.items()}
        tmonos = monomials_of_degree(n, target_deg)
        tindex = {m: i for i, m in enumerate(tmonos)}
        # subspace f^p * (monomials of degree target_deg - p*e)
        sub = []
        rdeg = target_deg - p * e
        if rdeg >= 0:
            fp = fpow(p)
            for m in monomials_of_degree(n, rdeg):
                vec = [0] * len(tmonos)
                for fm, c in fp.terms.items():
                    vec[tindex[tuple(x + y for x, y in zip(fm, m))]] = c
                sub.append(vec)
        sred, spiv = linalg.rref(sub, len(tmonos)) if sub else ([], [])
        # At a pivot column the reduction coefficient is the image's own
        # entry there, so the integer rows den * sred do the whole job.
        den = 1
        for row in sred:
            for c in row:
                den = lcm(den, c.denominator)
        pivot_of = {col: i for i, col in enumerate(spiv)}
        reducers = [[(pos, c.numerator * (den // c.denominator))
                     for pos, c in enumerate(row)
                     if c and pos not in pivot_of] for row in sred]
        residuals = []
        for beta, mono in coords.cols:
            res = [0] * len(tmonos)
            for dm, c in dvals[beta]:
                q = tindex[tuple(x + y for x, y in zip(dm, mono))]
                i = pivot_of.get(q)
                if i is None:
                    res[q] += den * c
                else:
                    for pos, s in reducers[i]:
                        res[pos] -= c * s
            residuals.append(res)
        rows.extend(row for row in zip(*residuals) if any(row))
    return linalg.kernel_basis(rows, len(coords))


def v0_graded_basis(f: Polynomial, d: int, w: int) -> GradedOperatorSpace:
    """Basis of {P : order(P) <= d, weight(P) = w, P in V_0} for
    homogeneous f, by exact linear algebra on the divisibility conditions."""
    return vk_graded_basis(f, 0, d, w)


def vk_graded_basis(f: Polynomial, k: int, d: int, w: int) -> GradedOperatorSpace:
    """Graded piece of V_k: V_0 itself at k = 0, f^(-k) V_0 for k < 0 and
    f^(-k) (V_0 intersect f^k D) for k > 0."""
    _require_homogeneous(f)
    if d < 0:
        raise ValueError("order bound must be nonnegative")
    n = f.nvars
    e = f.degree()
    coords = OperatorCoordinates(n, d, w)
    if k < 0:
        inner = vk_graded_basis(f, 0, d, w + k * e)
        fk = f ** (-k)
        vectors = [coords.op_to_vec(op.left_mul(fk)) for op in inner.basis]
        return _space_from_vectors(f, d, w, coords, vectors)
    levels = []
    for l in range(d + 1):
        p = l - k
        if p < 1:
            continue
        for adeg in range(d - l + 1):
            for alpha in monomials_of_degree(n, adeg):
                levels.append((alpha, l, p))
    vectors = _condition_kernel(f, coords, levels)
    return _space_from_vectors(f, d, w, coords, vectors)


# ---------------------------------------------------------------------------
# the vector-field generated subalgebra
# ---------------------------------------------------------------------------

def logder_generated_graded(f: Polynomial, d: int, w: int,
                            dm: DerivationModule | None = None) -> GradedOperatorSpace:
    """Weight-w, order <= d piece of O[Der(log f)]: spanned by
    x^gamma * theta_{i_1} ... theta_{i_r} with r <= d.  Sorted words suffice
    because reordering only creates shorter words with polynomial
    coefficients, which the span already contains."""
    _require_homogeneous(f)
    n = f.nvars
    if dm is None:
        dm = log_derivations(f)
    try:
        dm = dm.minimalized()
    except ValueError:
        pass
    fields = dm.operators()
    weights = []
    for op in fields:
        wt = op.weight()
        if wt is None:
            raise ValueError("generator is not weight-homogeneous")
        weights.append(wt)
    coords = OperatorCoordinates(n, d, w)
    vectors = []
    for r in range(d + 1):
        for word in combinations_with_replacement(range(len(fields)), r):
            wt = sum(weights[i] for i in word)
            gdeg = w - wt
            if gdeg < 0:
                continue
            op = WeylOperator.constant(n, 1)
            for i in word:
                op = compose(op, fields[i])
            if op.is_zero():
                continue
            for gamma in monomials_of_degree(n, gdeg):
                shifted = op.left_mul(Polynomial.monomial(n, gamma))
                vectors.append(coords.op_to_vec(shifted))
    return _space_from_vectors(f, d, w, coords, vectors)


@dataclass
class V0Comparison:
    order_bound: int
    weight: int
    dim_v0: int
    dim_generated: int
    equal: bool
    witness: WeylOperator | None


def compare_v0(f: Polynomial, d: int, w: int,
               dm: DerivationModule | None = None) -> V0Comparison:
    """Compare the (d, w) piece of V_0 against the piece generated by
    logarithmic vector fields; on strict inclusion returns a witness in V_0
    outside the generated subspace (first basis element, reduced against
    the subspace and scaled to leading coefficient 1)."""
    v0 = vk_graded_basis(f, 0, d, w)
    gen = logder_generated_graded(f, d, w, dm)
    for op in gen.basis:
        if not v0.contains(op):
            raise AssertionError(
                "generated subalgebra escaped V_0: engine inconsistency")
    if gen.dim == v0.dim:
        return V0Comparison(d, w, v0.dim, gen.dim, True, None)
    witness = None
    for op in v0.basis:
        res = gen.residual(op)
        if any(res):
            lead = next(c for c in res if c)
            res = [c / lead for c in res]
            witness = v0.coords.vec_to_op(res)
            break
    return V0Comparison(d, w, v0.dim, gen.dim, False, witness)


def default_weight_range(f: Polynomial, d: int):
    """Heuristic scan range [-d, d*(deg f - 1)] where order <= d
    logarithmic operators of a homogeneous divisor can live."""
    e = f.degree()
    return range(-d, d * (e - 1) + 1)
