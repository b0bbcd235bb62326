"""The V-filtration along a divisor: pointwise membership testing, graded
bases of the order-bounded pieces for homogeneous divisors, comparison with
the subalgebra generated by logarithmic vector fields, and the reduction of
V_k to V_0.

P is in V_k iff P(x^alpha f^l) in f^(l-k) * O for the (alpha, l) of
``_conditions``.  Membership and the graded pieces both state these
conditions on the conjugated operator f^-l P f^l instead: with
P = sum a_beta d^beta, Leibniz gives P(x^alpha f^l) =
sum_{gamma <= alpha} alpha!/(alpha - gamma)! x^(alpha - gamma) E_gamma for
E_gamma = sum_{beta >= gamma} C(beta, gamma) a_beta d^(beta - gamma)(f^l),
C(beta, gamma) = prod_i C(beta_i, gamma_i).  The coefficient of E_alpha is
alpha! != 0, so by induction on |alpha| the conditions E_gamma in
f^(l-k) * O over the same (gamma, l) decide the same, in O and in the local
ring at 0.  The term beta = gamma, a_gamma f^l, lies in f^(l-k) * O for
k >= 0 and is dropped there (``_DerivTable.conjugated``).  Graded bases
exist for homogeneous f only, where each (order, weight) piece is a
finite-dimensional exact linear algebra problem.

Above p = l - k = 1 a condition is needed only modulo f: for k >= 0, once
every condition of a lower level holds, E_gamma in f^p * O is read off the
target monomials that L^(p-1) divides, L = max(f.terms) the lex-leading
monomial of f.  Here E_gamma keeps its term beta = gamma; dropping it
changes E_gamma by a_gamma f^l, which lies in f^p * O.  For an operator of
order <= d:
(1) P f^l = (P f^(l-1)) f gives E_delta(l) = sum_{gamma >= delta}
    C(gamma, delta) d^(gamma - delta)(f) E_gamma(l-1).
(2) Faa di Bruno gives d^mu(f^l) = sum_r (l)_r f^(l-r) Q_(mu, r), (l)_r the
    falling factorial, Q_(mu, r) free of l and zero for r > |mu|.  So
    E_gamma(l) = sum_{r <= R} (l)_r f^(l-r) B_r, R = d - |gamma|, with
    B_r free of l, and its conditions E_gamma(j) in f^(j-k) * O,
    k < j <= R, say sum_{r <= j} (j)_r B_r / f^r in f^-k * O.  That holds
    for j <= k anyway, and the system is triangular with (j)_j = j! != 0:
    every B_r / f^r lies in f^-k * O, so E_gamma(m) is in f^(m-k) * O at
    every level m.
(3) If every condition below level l holds, each E_gamma(l-1) is in
    f^(p-1) * O: by its own condition when |gamma| <= d - l + 1, by (2)
    otherwise, all its levels lying below l.  By (1) so is E_delta(l).
(4) The reduced image of E_delta(l) against the f^p block differs from it
    by an element of f^p * O, so it is f^(p-1) h, with h = 0 exactly when
    E_delta(l) is in f^p * O.  For h != 0 its lex lead L^(p-1) lm(h) is
    one of its terms, at a free monomial that L^(p-1) divides.
By induction on l, the rows at those monomials cut out the same kernel.
The block's columns run in descending lex order (``monomials_of_degree``),
so its pivots are the leads L^p m of the f^p multiples, and the kept
monomials L^(p-1) m, m not a multiple of L, are exactly as many as the
dimension of O/(f) in that degree.  The lead of f in another term order
(the lex-smallest term, say) would cut out the same kernel, with more
rows.

A piece of V_0 is the kernel of integer condition rows A, and the piece
generated by logarithmic vector fields is the span of word vectors G that
lie in it.  ``compare_v0`` proves them equal without an rref: modulo one
prime p, let P be the pivot columns of G and F the others.  If A restricted
to F has rank |F| mod p, it has rank |F| over Q (a minor nonzero mod p is
nonzero), so dim ker A <= |P| <= rank G; one exact product A G = 0 over Z
then gives span G = ker A.  Any other outcome is decided by the canonical
bases of both pieces, so a certified piece reports what the exact
comparison would.

Pieces stay in integers end to end: a piece is the canonical rref in
``linalg``'s integer form (primitive rows, positive at their pivots), and
its rows are reduced, multiplied by f^(-k) and printed without a Fraction
row.  Fractions appear only in the basis operators, row / row[pivot], and
in a witness; f and the operators enter as integer multiples, by
``poly.integer_form``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from itertools import combinations_with_replacement, compress
from math import comb, lcm, prod
from operator import le, sub

from . import linalg
from .groebner import ideal_gb, ideal_member, local_membership_at_origin
from .logder import DerivationModule, log_derivations, require_divisor
from .poly import (DEGREVLEX, Polynomial, integer_form, mono_deg, mono_mul,
                   monomials_of_degree)
from .weyl import WeylOperator, compose


# ---------------------------------------------------------------------------
# membership
# ---------------------------------------------------------------------------

def _integer_terms(op):
    """den * op as one (beta, [(monomial, int), ...]) block per derivative,
    den the lcm of op's denominators."""
    ints = iter(integer_form([c for p in op.terms.values()
                              for c in p.terms.values()])[1])
    # zip draws from ints only while p.terms lasts: each block takes its own
    return [(beta, list(zip(p.terms, ints))) for beta, p in op.terms.items()]


def _conditions(nvars, order, level, least=0, fdeg=0):
    """All (alpha, l) with |alpha| + l <= order, l - level >= 1 and
    |alpha| >= least - l*fdeg.  With least the smallest |beta| of an
    operator and fdeg = deg f, the pairs left out have E_alpha = 0 at
    level l: each d^(beta - alpha)(f^l) in it differentiates f^l more
    than l*deg f times."""
    for l in range(max(level + 1, 0), order + 1):
        for adeg in range(max(least - l * fdeg, 0), order - l + 1):
            for alpha in monomials_of_degree(nvars, adeg):
                yield alpha, l


def _deriv(terms, shift, mask):
    """d/dx_i of packed (monomial, coefficient) pairs, x_i's slot at shift."""
    unit = 1 << shift
    return [(t - unit, c * x) for t, c in terms if (x := (t >> shift) & mask)]


class _DerivTable:
    """Packed integer powers of f and their derivatives, for one call.

    Monomials are ints with one slot per variable, each slot wide enough for
    ``degree``: an exponent of a monomial of degree <= degree is at most
    degree, so no sum of such monomials carries into the next slot and a
    monomial product is one int add.  ``power(p)`` is the integer terms of
    fden^p * f^p, fden the ``integer_form`` scale of f.  ``table(l)`` maps
    delta to the terms of fden^l * d^delta(f^l), each made on first use by
    ``conjugated`` as one derivative of the entry of delta - e_i, i its
    first nonzero; an entry with |delta| > l*deg f is zero and never
    stored."""

    def __init__(self, f, degree):
        self.nvars = f.nvars
        self.bits = bits = max(degree, 1).bit_length()
        self.mask = (1 << bits) - 1
        self.fdeg = f.degree()
        self.fint = [(self.pack(m), c) for m, c in
                     zip(f.terms, integer_form(f.terms.values())[1])]
        self.powers = [[(0, 1)]]
        self.tables = {}

    def pack(self, m):
        bits = self.bits
        return sum(x << (i * bits) for i, x in enumerate(m))

    def polynomial(self, terms):
        """Decode (packed monomial, coefficient) pairs; zeros drop out."""
        mask, shifts = self.mask, range(0, self.nvars * self.bits, self.bits)
        return Polynomial.from_integers(self.nvars, (
            (tuple((t >> s) & mask for s in shifts), c) for t, c in terms if c))

    def power(self, p):
        powers = self.powers
        while len(powers) <= p:
            acc = {}
            for m1, c1 in powers[-1]:
                for m2, c2 in self.fint:
                    acc[m1 + m2] = acc.get(m1 + m2, 0) + c1 * c2
            powers.append([(m, c) for m, c in acc.items() if c])
        return powers[p]

    def table(self, l):
        if l not in self.tables:
            self.tables[l] = {(0,) * self.nvars: self.power(l)}
        return self.tables[l]

    def conjugated(self, l, k, beta, gamma):
        """fden^l * C(beta, gamma) d^(beta - gamma)(f^l), the part of a_beta
        in E_gamma at level l (module docstring), for reading only: empty
        unless beta >= gamma, and at beta = gamma for k >= 0."""
        delta = tuple(map(sub, beta, gamma))
        if (min(delta) < 0 or k >= 0 and not any(delta)
                or sum(delta) > l * self.fdeg):
            return []
        table, chain = self.table(l), []
        while delta not in table:
            i = next(j for j, x in enumerate(delta) if x)
            chain.append((delta, i * self.bits))
            delta = delta[:i] + (delta[i] - 1,) + delta[i + 1:]
        terms = table[delta]
        for delta, shift in reversed(chain):
            terms = table[delta] = (_deriv(terms, shift, self.mask)
                                    if terms else [])
        binom = prod(map(comb, beta, gamma))
        return terms if binom == 1 else [(m, binom * c) for m, c in terms]


def v_membership(f: Polynomial, P: WeylOperator, k: int) -> bool:
    """Decide P in V_k along the divisor f: E_gamma in O * f^(l-k) for
    each (gamma, l) of ``_conditions`` at order(P), E_gamma as in the
    module docstring.  A constant f is an ``InvalidDivisor`` and an
    operator over another ring a ``ValueError``, also when P = 0.

    If f(0) != 0, each f^p is a unit at the origin.  Else a nonzero
    multiple of f^p has order >= p * ord(f) there, so a smaller E_gamma
    fails before f^p is formed: p <= deg g at any level k.
    For homogeneous f, membership in f^p * O_0 is membership in (f^p);
    otherwise membership in (f^p) implies it, and the local test runs only
    for the E_gamma outside (f^p).

    Each E_gamma is summed as the integer multiple pden * fden^l * E_gamma,
    pden and fden the ``integer_form`` scales of P and f, over a
    ``_DerivTable`` whose slots fit every term and every power f^p it
    forms.  An E_gamma has degree <= top, l*deg f plus the largest degree
    of P's coefficients at l = order(P).  The order test forms f^p only
    for p*ord(f) <= top, and p <= order(P) - k; for non-homogeneous f,
    p*deg f can exceed top.  Scaling leaves membership alone.  The scan
    starts each level at the first |gamma| whose E_gamma can be nonzero,
    min |beta| - l*deg f, so an operator of huge order with no term of
    low order is decided at its first conditions."""
    require_divisor(f)
    if P.nvars != f.nvars:
        raise ValueError("ring dimension mismatch")
    if P.is_zero() or f.constant_term():
        return True
    order = P.order()
    coeffs = P.terms.values()
    e, ford = f.degree(), min(map(mono_deg, f.terms))
    top = order * e + max(mono_deg(m) for c in coeffs for m in c.terms)
    derivs = _DerivTable(f, max(top, min(order - k, top // ford) * e))
    pint = [(beta, [(derivs.pack(m), c) for m, c in terms])
            for beta, terms in _integer_terms(P)]
    gbs = {}
    for gamma, l in _conditions(f.nvars, order, k,
                                min(map(mono_deg, P.terms)), e):
        p = l - k
        acc = {}
        for beta, coeff in pint:
            for m1, c1 in derivs.conjugated(l, k, beta, gamma):
                for m2, c2 in coeff:
                    acc[m1 + m2] = acc.get(m1 + m2, 0) + c1 * c2
        g = derivs.polynomial(acc.items())
        if g.is_zero():
            continue
        if min(map(mono_deg, g.terms)) < p * ford:
            return False
        if p not in gbs:
            gbs[p] = ideal_gb([derivs.polynomial(derivs.power(p))])
        gb = gbs[p]
        if not ideal_member(g, gb) and (
                f.is_homogeneous() or not local_membership_at_origin(g, gb)):
            return False
    return True


v_member = v_membership


# ---------------------------------------------------------------------------
# graded operator coordinates
# ---------------------------------------------------------------------------

class OperatorCoordinates:
    """Coordinates of {order <= d, weight w} operators for homogeneous f:
    one column per (beta, coefficient monomial of degree w + |beta|), the
    top-order block first."""

    def __init__(self, nvars, d, w):
        self.nvars = nvars
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
        """Integer coordinates of op times the lcm of its denominators."""
        vec = [0] * len(self.cols)
        for beta, terms in _integer_terms(op):
            for mono, c in terms:
                pos = self.index.get((beta, mono))
                if pos is None:
                    raise ValueError("operator does not fit the (d, w) box")
                vec[pos] = c
        return vec

    def blocks(self, vec, den):
        """The terms of vec / den, a Fraction at each nonzero entry, as
        ``weyl.format_blocks`` takes them: one (beta, [(monomial,
        coefficient), ...]) block per derivative.  The columns run in the
        printer's term order, so the blocks need no sort."""
        cols, out = self.cols, []
        for j in compress(range(len(vec)), vec):
            beta, mono = cols[j]
            if not out or out[-1][0] != beta:
                out.append((beta, []))
            out[-1][1].append((mono, Fraction(vec[j], den)))
        return out

    def vec_to_op(self, vec, den) -> WeylOperator:
        """The operator of vec / den."""
        n = self.nvars
        return WeylOperator(n, {
            beta: Polynomial(n, dict(terms), _clean=False)
            for beta, terms in self.blocks(vec, den)}, _clean=False)


@dataclass
class GradedOperatorSpace:
    """A (d, w) piece, held as the canonical rref of its coordinate vectors
    in ``linalg``'s integer form: primitive rows, positive at their pivots.
    Basis operators are row / row[pivot]."""
    divisor: Polynomial
    order_bound: int
    weight: int
    coords: OperatorCoordinates
    rows: list = field(repr=False)
    pivots: list = field(repr=False)

    @property
    def dim(self):
        return len(self.rows)

    @cached_property
    def basis(self):
        return [self.coords.vec_to_op(row, row[p])
                for row, p in zip(self.rows, self.pivots)]

    def contains(self, op: WeylOperator) -> bool:
        vec = self.coords.op_to_vec(op)
        return not any(linalg.residual(vec, self.rows, self.pivots))


class NonHomogeneousError(ValueError):
    """Graded basis computations are defined for homogeneous divisors only."""


def _require_homogeneous(f):
    require_divisor(f)
    if not f.is_homogeneous():
        raise NonHomogeneousError("graded bases need a homogeneous divisor")


def _piece_coords(f, d, w):
    """The coordinates of the (d, w) piece of a homogeneous divisor."""
    _require_homogeneous(f)
    if d < 0:
        raise ValueError("order bound must be nonnegative")
    return OperatorCoordinates(f.nvars, d, w)


def _condition_rows(f, coords, d, k):
    """Integer rows whose kernel is the (d, w) piece of V_k, k >= 0, over
    the coordinate columns in reverse order.

    The conditions are E_gamma in f^p * O, p = l - k, for the (gamma, l)
    of ``_conditions`` (module docstring).  For k >= 0 the term beta =
    gamma drops, so condition (gamma, l) has entries only in the columns
    with beta > gamma.

    A condition contributes one row per free target monomial of degree
    t = |gamma| + l*deg f + w that L^(p-1) divides, L = max(f.terms): the
    images of the coordinate columns reduced against the rref of the f^p
    multiples of degree t.  At p = 1 that is every free monomial; above it
    the lower levels already put E_gamma in f^(p-1) * O, where those
    monomials decide (module docstring), so the other rows are never
    built.  That block depends on (p, t) only, so it is built once per key
    and shared by every gamma of the call.  The E_gamma terms come from
    ``_DerivTable.conjugated``, whose slots fit the largest degree of the
    call, max(t, l*deg f), so the target of mono * term is one int add.
    The reduction runs in integers.  Each condition's rows are scaled as a
    whole: by the common denominator of the block's rref (the lcm of its
    integer rows' pivot entries), and by fden^l, since the table holds
    fden^l times the derivatives, fden the ``integer_form`` scale of f.
    Scaling rows leaves the kernel alone."""
    n, e, w = f.nvars, f.degree(), coords.w
    conds = [(gamma, l, mono_deg(gamma) + l * e + w)
             for gamma, l in _conditions(n, d, k)]
    conds = [c for c in conds if c[2] >= 0]
    groups = {}
    for beta, mono in coords.cols:
        groups.setdefault(beta, []).append(mono)
    # below weight 0, f^l (degree t - |gamma| - w) is the largest
    derivs = _DerivTable(f, max([0] + [t - min(w, 0) for _, _, t in conds]))
    pack = derivs.pack
    groups = {beta: [pack(m) for m in monos] for beta, monos in groups.items()}
    lead = max(f.terms)

    blocks = {}

    def block(p, t):
        """Per target monomial of degree t, the (row, coefficient) pairs
        that subtract its reduction against the f^p multiples.  A reduced
        image is zero at every pivot column, so only the free columns of
        the block give rows, and of those only the multiples of
        lead^(p - 1) (module docstring)."""
        tuples = monomials_of_degree(n, t)
        tmonos = [pack(m) for m in tuples]
        sub = []
        if t - p * e >= 0:
            fp = derivs.power(p)
            tindex = {m: i for i, m in enumerate(tmonos)}
            for m in monomials_of_degree(n, t - p * e):
                vec = [0] * len(tmonos)
                pm = pack(m)
                for fm, c in fp:
                    vec[tindex[fm + pm]] = c
                sub.append(vec)
        sred, spiv = linalg.rref(sub, len(tmonos)) if sub else ([], [])
        # At a pivot column the reduction coefficient is the image's own
        # entry there, so the rows den * row / row[pivot] do the whole job.
        # A primitive row's pivot entry is the lcm of its reduced
        # denominators, so den is that of all of them.
        den = lcm(*(row[q] for row, q in zip(sred, spiv)))
        pivot_of = {col: i for i, col in enumerate(spiv)}
        low = [(p - 1) * x for x in lead]
        kept = [q for q, m in enumerate(tuples)
                if q not in pivot_of and all(map(le, low, m))]
        row_of = {q: j for j, q in enumerate(kept)}
        action = {}
        for q, m in enumerate(tmonos):
            i = pivot_of.get(q)
            if i is None:
                action[m] = [(row_of[q], -den)] if q in row_of else []
                continue
            row = sred[i]
            scale = den // row[q]
            action[m] = [(row_of[pos], row[pos] * scale)
                         for pos in compress(range(len(row)), row)
                         if pos in row_of]
        return len(kept), action

    rows = []
    for gamma, l, t in conds:
        key = (l - k, t)
        if key not in blocks:
            blocks[key] = block(*key)
        nfree, action = blocks[key]
        zero = [0] * nfree
        residuals = []
        for beta, pmonos in groups.items():
            terms = derivs.conjugated(l, k, beta, gamma)
            if not terms:
                residuals.extend([zero] * len(pmonos))
                continue
            for pm in pmonos:
                res = [0] * nfree
                for m, c in terms:
                    for pos, s in action[m + pm]:
                        res[pos] -= c * s
                residuals.append(res)
        rows.extend(row for row in zip(*reversed(residuals)) if any(row))
    return rows


def _condition_kernel(rows, ncols):
    """The rref of the piece cut out by ``_condition_rows`` and its pivots,
    from one elimination.  With the columns reversed, the kernel vector of
    free column c, read in the original order, has its positive entry at c,
    other entries only at pivot columns right of c, and zeros at the other
    free columns: an rref in ``linalg``'s integer form, primitive and
    positive at its pivot."""
    kernel = [v[::-1] for v in linalg.kernel_basis(rows, ncols)[::-1]]
    # the free entry is a row's first nonzero one, so index finds the pivot
    return kernel, [v.index(next(filter(None, v))) for v in kernel]


def v0_graded_basis(f: Polynomial, d: int, w: int) -> GradedOperatorSpace:
    """Basis of {P : order(P) <= d, weight(P) = w, P in V_0} for
    homogeneous f, by exact linear algebra on the divisibility conditions."""
    return vk_graded_basis(f, 0, d, w)


def vk_graded_basis(f: Polynomial, k: int, d: int, w: int) -> GradedOperatorSpace:
    """Graded piece of V_k: V_0 itself at k = 0, f^(-k) V_0 for k < 0 and
    f^(-k) (V_0 intersect f^k D) for k > 0."""
    coords = _piece_coords(f, d, w)
    if k < 0:
        inner = vk_graded_basis(f, 0, d, w + k * f.degree())
        vectors = []
        if inner.rows:
            # form f^(-k) only for a nonempty inner piece: it then fits the
            # box; each row times an integer multiple of it is a vector
            fk = f ** (-k)
            fint = list(zip(fk.terms, integer_form(fk.terms.values())[1]))
            index = coords.index
            for row in inner.rows:
                vec = [0] * len(coords)
                for j in compress(range(len(row)), row):
                    beta, mono = inner.coords.cols[j]
                    for m, c in fint:
                        vec[index[beta, mono_mul(mono, m)]] += row[j] * c
                vectors.append(vec)
        return GradedOperatorSpace(f, d, w, coords,
                                   *linalg.rref(vectors, len(coords)))
    rows = _condition_rows(f, coords, d, k)
    return GradedOperatorSpace(f, d, w, coords,
                               *_condition_kernel(rows, len(coords)))


# ---------------------------------------------------------------------------
# the vector-field generated subalgebra
# ---------------------------------------------------------------------------

def _generated_vectors(f, coords, d, dm):
    """Coordinate vectors of x^gamma * theta_{i_1} ... theta_{i_r}, r <= d,
    sorted words in the minimal generators of Der(log f) (``dm`` or
    computed), that land in the box of ``coords``."""
    n = f.nvars
    if dm is None:
        dm = log_derivations(f)
    dm = dm.minimalized()
    fields = dm.operators()
    weights = dm.grading[1]
    # each word is its prefix, one letter shorter, composed with one field
    words = {(): WeylOperator.constant(n, 1)}

    def word_op(word):
        if word not in words:
            words[word] = compose(word_op(word[:-1]), fields[word[-1]])
        return words[word]

    vectors = []
    for r in range(d + 1):
        for word in combinations_with_replacement(range(len(fields)), r):
            gdeg = coords.w - sum(weights[i] for i in word)
            if gdeg < 0:
                continue
            op = word_op(word)
            if op.is_zero():
                continue
            # x^gamma * op shifts each coefficient monomial by gamma; the
            # word's integer multiple spans the same line
            terms = _integer_terms(op)
            for gamma in monomials_of_degree(n, gdeg):
                vec = [0] * len(coords)
                for beta, block in terms:
                    for mono, c in block:
                        vec[coords.index[beta, mono_mul(mono, gamma)]] = c
                vectors.append(vec)
    return vectors


def logder_generated_graded(f: Polynomial, d: int, w: int,
                            dm: DerivationModule | None = None) -> GradedOperatorSpace:
    """Weight-w, order <= d piece of O[Der(log f)]: spanned by
    x^gamma * theta_{i_1} ... theta_{i_r} with r <= d.  Sorted words suffice
    because reordering only creates shorter words with polynomial
    coefficients, which the span already contains."""
    _require_homogeneous(f)
    coords = OperatorCoordinates(f.nvars, d, w)
    vectors = _generated_vectors(f, coords, d, dm)
    return GradedOperatorSpace(f, d, w, coords,
                               *linalg.rref(vectors, len(coords)))


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
    the subspace and scaled to leading coefficient 1).

    Equal pieces are proved equal by ``linalg.span_is_kernel`` on the
    condition rows A and the generated vectors G, without an rref: modulo
    one prime, A has full rank on the columns that are not pivots of G, so
    dim ker A over Q is at most the rank of G, and the exact product
    A G = 0 puts G in ker A.  Both dimensions are then the rank of G mod p,
    which is what the exact comparison reports.  When that rank falls short
    (a real gap, or an unlucky prime) or the product is not zero, the
    canonical bases of both pieces are built and compared exactly; that
    path gives the witness and the "escaped V_0" error."""
    coords = _piece_coords(f, d, w)
    rows = _condition_rows(f, coords, d, 0)
    vectors = _generated_vectors(f, coords, d, dm)
    # the condition rows run over the columns in reverse order
    dim = linalg.span_is_kernel(rows, [v[::-1] for v in vectors], len(coords))
    if dim is not None:
        return V0Comparison(d, w, dim, dim, True, None)
    v0_rows, v0_pivots = _condition_kernel(rows, len(coords))
    gen_rows, gen_pivots = linalg.rref(vectors, len(coords))
    for row in gen_rows:
        if any(linalg.residual(row, v0_rows, v0_pivots)):
            raise AssertionError(
                "generated subalgebra escaped V_0: engine inconsistency")
    if len(gen_rows) == len(v0_rows):
        return V0Comparison(d, w, len(v0_rows), len(gen_rows), True, None)
    # gen is a proper subspace of v0, so some row of v0 is outside it; the
    # residual is a positive multiple of the rational one, so dividing by
    # its lead gives the same witness
    res = next(filter(any, (linalg.residual(row, gen_rows, gen_pivots)
                            for row in v0_rows)))
    witness = coords.vec_to_op(res, next(filter(None, res)))
    return V0Comparison(d, w, len(v0_rows), len(gen_rows), False, witness)


def default_weight_range(f: Polynomial, d: int):
    """Heuristic scan range [-d, d*(deg f - 1)] where order <= d
    logarithmic operators of a homogeneous divisor can live."""
    require_divisor(f)
    if d < 0:
        raise ValueError("order bound must be nonnegative")
    e = f.degree()
    return range(-d, d * (e - 1) + 1)
