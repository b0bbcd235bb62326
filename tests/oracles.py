"""Independent oracles for cross-checking the engine.

Everything here deliberately avoids the code paths it is used to check:
multiplication runs on sorted term lists, linear algebra is a plain
Fraction Gaussian elimination, exact division is a single-divisor
division on Fraction term maps instead of the Groebner engine, the
graded-piece dimension oracle uses that division instead of the subspace
row reductions in the main library, graded minimal generators come
from a search of Groebner bases instead of one syzygy computation, and the
condition rows of a graded piece come from the row builder the library
used before its packed one (Fraction derivatives, one rref per condition),
with the rows kept modulo f chosen by f's first monomial in the block's
column order rather than by the library's ``max(f.terms)``, reduced
Groebner bases come from a textbook Buchberger on Fraction term maps that
treats every pair (no pair criteria, no packed terms),
derivatives d^beta are |beta| successive ``Polynomial.deriv`` calls
(``iterated_partial``) instead of the library's one-step ``partial``,
and the operator parser is checked against the one the library used before
it kept coefficients as polynomials (every value an operator, every
product a Leibniz composition over all delta <= beta), with frozen copies
of its character-by-character tokenizer and name resolution; the
monomial enumeration is checked against the recursion it replaced
(``recursive_monomials``).

The last section holds helpers that tests share but the library does not
need: ``subs`` (substitution), ``affine_map`` and ``affine_transform`` (an
operator pulled through x = A u + a, with A inverted by ``gauss_rref``, not
by the library's linear algebra), ``commutator`` (built on the library's
``compose``, which the bracket tests check) and ``is_direct_sum`` (no
syzygy of (chi, gens) has a chi entry).
"""

import random
from fractions import Fraction
from itertools import combinations
from math import comb, lcm

from logdiv.grammar import ParseError
from logdiv.groebner import (FreeModuleVector, buchberger, in_submodule,
                             syzygies, vector_lead_term)
from logdiv.poly import Polynomial, mono_deg, monomials_of_degree
from logdiv.weyl import WeylOperator, compose


def schoolbook_mul(p: Polynomial, q: Polynomial) -> Polynomial:
    """Convolution on explicit term lists."""
    acc = {}
    for m1, c1 in sorted(p.terms.items()):
        for m2, c2 in sorted(q.terms.items()):
            m = tuple(a + b for a, b in zip(m1, m2))
            acc[m] = acc.get(m, Fraction(0)) + c1 * c2
    return Polynomial(p.nvars, acc)


def recursive_monomials(nvars, d):
    """Exponent tuples of total degree d, first exponent from d down: the
    recursion the library used before it counted
    ``combinations_with_replacement``."""
    if d < 0:
        return []
    if nvars == 0:
        return [()] if d == 0 else []
    out = []

    def rec(prefix, remaining, slots):
        if slots == 1:
            out.append(prefix + (remaining,))
            return
        for e in range(remaining, -1, -1):
            rec(prefix + (e,), remaining - e, slots - 1)

    rec((), d, nvars)
    return out


def rand_poly(rng, nvars, max_deg, max_terms=4, zero_ok=False) -> Polynomial:
    terms = {}
    for _ in range(rng.randint(0 if zero_ok else 1, max_terms)):
        m = tuple(rng.randint(0, max_deg) for _ in range(nvars))
        if mono_deg(m) > max_deg:
            continue
        c = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
        if c:
            terms[m] = terms.get(m, Fraction(0)) + c
    return Polynomial(nvars, terms)


def rand_op(rng, nvars, max_order, max_coeff_deg=2) -> WeylOperator:
    terms = {}
    for _ in range(rng.randint(1, 3)):
        beta = tuple(rng.randint(0, max_order) for _ in range(nvars))
        if sum(beta) > max_order:
            continue
        p = rand_poly(rng, nvars, max_coeff_deg, zero_ok=True)
        if not p.is_zero():
            terms[beta] = terms.get(beta, Polynomial.zero(nvars)) + p
    return WeylOperator(nvars, terms)


def rand_homog_poly(rng, nvars, deg, max_terms=4) -> Polynomial:
    monos = monomials_of_degree(nvars, deg)
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        m = monos[rng.randrange(len(monos))]
        terms[m] = terms.get(m, Fraction(0)) + rng.randint(-3, 3)
    return Polynomial(nvars, terms)


def planes(seed, n=3, m=5):
    """Product of m integer linear forms in n variables, coefficients in
    [-2, 2], in general position (every n of them independent)."""
    rng = random.Random(seed)
    forms = []
    while len(forms) < m:
        c = [rng.randint(-2, 2) for _ in range(n)]
        k = min(len(forms), n - 1)
        if all(gauss_rank([c, *rest], n) == k + 1
               for rest in combinations(forms, k)):
            forms.append(c)
    f = Polynomial.one(n)
    for c in forms:
        f = f * sum((Polynomial.variable(n, i) * a for i, a in enumerate(c)),
                    Polynomial.zero(n))
    return f


# ---------------------------------------------------------------------------
# single-divisor division on Fraction term maps (no Groebner engine)
# ---------------------------------------------------------------------------

def _degrevlex(m):
    return (sum(m), tuple(-e for e in reversed(m)))


def divmod_single(g: Polynomial, h: Polynomial):
    """(q, r) with g = q*h + r and no term of r divisible by the degrevlex
    leading monomial of h.  One polynomial is a Groebner basis of its
    principal ideal, so r is the unique normal form: r = 0 iff h | g."""
    if h.is_zero():
        raise ZeroDivisionError("division by the zero polynomial")
    if g.nvars != h.nvars:
        raise ValueError("ring dimension mismatch")
    hm = max(h.terms, key=_degrevlex)
    hc = h.terms[hm]
    cur = dict(g.terms)
    q, r = {}, {}
    while cur:
        m = max(cur, key=_degrevlex)
        c = cur.pop(m)
        if c == 0:
            continue
        if all(a <= b for a, b in zip(hm, m)):
            u = tuple(b - a for a, b in zip(hm, m))
            f = Fraction(c) / hc
            q[u] = q.get(u, 0) + f
            for m2, c2 in h.terms.items():
                if m2 != hm:
                    t = tuple(a + b for a, b in zip(u, m2))
                    cur[t] = cur.get(t, 0) - f * c2
        else:
            r[m] = c
    return Polynomial(g.nvars, q), Polynomial(g.nvars, r)


# ---------------------------------------------------------------------------
# textbook Buchberger on Fraction term maps (no pair criteria)
# ---------------------------------------------------------------------------

def _module_terms(v):
    return {(c, m): a for c, p in enumerate(v.components)
            for m, a in p.terms.items()}


def _reduce_terms(f, basis, key):
    """Full reduction of the term map ``f`` by the (lead, term map) pairs of
    ``basis``, always by the first one whose lead divides."""
    f, out = dict(f), {}
    while f:
        t = max(f, key=key)
        c = f.pop(t)
        for lt, g in basis:
            if lt[0] == t[0] and all(a <= b for a, b in zip(lt[1], t[1])):
                u = tuple(b - a for a, b in zip(lt[1], t[1]))
                q = Fraction(c) / g[lt]
                for (gc, gm), ga in g.items():
                    if (gc, gm) != lt:
                        s = (gc, tuple(a + b for a, b in zip(u, gm)))
                        val = f.get(s, 0) - q * ga
                        if val:
                            f[s] = val
                        else:
                            f.pop(s, None)
                break
        else:
            out[t] = c
    return out


def textbook_buchberger(gens, order):
    """Generators of the reduced Groebner basis of <gens> under ``order``,
    monic and sorted by ascending lead.  Every pair of elements with leads
    in one component is treated, with no criterion; then the elements whose
    lead another lead divides are dropped and the rest fully interreduced."""
    key = order.key
    rank, nvars = gens[0].rank, gens[0].nvars
    basis = []
    for v in gens:
        f = _module_terms(v)
        if f:
            basis.append((max(f, key=key), f))
    pairs = list(combinations(range(len(basis)), 2))
    while pairs:
        i, j = pairs.pop()
        (li, fi), (lj, fj) = basis[i], basis[j]
        if li[0] != lj[0]:
            continue
        top = tuple(map(max, li[1], lj[1]))
        s = {}
        for lt, f, sign in ((li, fi, 1), (lj, fj, -1)):
            u = tuple(a - b for a, b in zip(top, lt[1]))
            q = Fraction(sign) / f[lt]
            for (c, m), a in f.items():
                t = (c, tuple(x + y for x, y in zip(u, m)))
                s[t] = s.get(t, 0) + q * a
        r = _reduce_terms({t: a for t, a in s.items() if a}, basis, key)
        if r:
            pairs.extend((k, len(basis)) for k in range(len(basis)))
            basis.append((max(r, key=key), r))
    minimal = []
    for lt, f in sorted(basis, key=lambda b: key(b[0])):
        if not any(k[0] == lt[0] and all(a <= b for a, b in zip(k[1], lt[1]))
                   for k, _ in minimal):
            minimal.append((lt, f))
    out = []
    for pos, (lt, f) in enumerate(minimal):
        r = _reduce_terms(f, minimal[:pos] + minimal[pos + 1:], key)
        comps = [{} for _ in range(rank)]
        for (c, m), a in r.items():
            comps[c][m] = Fraction(a) / r[lt]
        out.append(FreeModuleVector([Polynomial(nvars, p) for p in comps]))
    return out


# ---------------------------------------------------------------------------
# plain Gaussian elimination (no content tricks, no integer fast path)
# ---------------------------------------------------------------------------

def gauss_rref(rows, ncols):
    rows = [[Fraction(c) for c in row] for row in rows]
    pivots = []
    r = 0
    for col in range(ncols):
        piv = next((i for i in range(r, len(rows)) if rows[i][col] != 0), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        lead = rows[r][col]
        rows[r] = [Fraction(c) / lead for c in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][col] != 0:
                factor = rows[i][col]
                rows[i] = [a - factor * b for a, b in zip(rows[i], rows[r])]
        pivots.append(col)
        r += 1
        if r == len(rows):
            break
    return [row for row in rows[:r]], pivots


def gauss_rank(rows, ncols):
    return len(gauss_rref(rows, ncols)[0])


def in_row_span(rows, target, ncols):
    base = gauss_rank(rows, ncols)
    return gauss_rank(rows + [list(target)], ncols) == base


# ---------------------------------------------------------------------------
# brute-force ideal membership as linear algebra on monomial multiples
# ---------------------------------------------------------------------------

def monomials_up_to(nvars, d):
    out = []
    for k in range(d + 1):
        out.extend(monomials_of_degree(nvars, k))
    return out


def poly_to_row(p, index):
    row = [Fraction(0)] * len(index)
    for m, c in p.terms.items():
        row[index[m]] = c
    return row


def span_membership(g: Polynomial, gens, bound: int) -> bool:
    """Is g a polynomial combination sum q_i gens_i with every product of
    total degree <= bound?  Exact for homogeneous data at bound = deg g."""
    monos = monomials_up_to(g.nvars, bound)
    index = {m: i for i, m in enumerate(monos)}
    rows = []
    for p in gens:
        if p.is_zero():
            continue
        room = bound - p.degree()
        for m in monomials_up_to(g.nvars, max(room, -1)):
            q = p * Polynomial.monomial(g.nvars, m)
            rows.append(poly_to_row(q, index))
    return in_row_span(rows, poly_to_row(g, index), len(monos))


def iterated_partial(g: Polynomial, beta) -> Polynomial:
    """d^beta(g) by |beta| successive ``Polynomial.deriv`` calls."""
    for i, k in enumerate(beta):
        for _ in range(k):
            g = g.deriv(i)
    return g


# ---------------------------------------------------------------------------
# graded V-filtration piece by brute force
# ---------------------------------------------------------------------------

# brute_v0_dimension takes seconds per piece above this many columns.
BRUTE_MAX_COLS = 81


def brute_v0_dimension(f: Polynomial, d: int, w: int, k: int = 0) -> int:
    """Dimension of {order <= d, weight w} operators P with
    P(x^alpha f^l) divisible by f^(l-k) for all |alpha| + l <= d.

    Conditions are evaluated with single-divisor polynomial division
    (remainder must vanish), one equation per remainder coefficient, and
    the kernel dimension comes from the plain Gaussian elimination above.
    """
    n = f.nvars
    e = f.degree()
    unknowns = []  # (beta, mono)
    for bd in range(d + 1):
        for beta in monomials_of_degree(n, bd):
            cdeg = w + bd
            if cdeg < 0:
                continue
            for mono in monomials_of_degree(n, cdeg):
                unknowns.append((beta, mono))
    conditions = []
    for l in range(d + 1):
        if l - k < 1:
            continue
        for adeg in range(d - l + 1):
            for alpha in monomials_of_degree(n, adeg):
                conditions.append((alpha, l))
    rows_by_condition = []
    for alpha, l in conditions:
        g = Polynomial.monomial(n, alpha) * f ** l
        fp = f ** (l - k)
        residues = []
        for beta, mono in unknowns:
            val = iterated_partial(g, beta) * Polynomial.monomial(n, mono)
            _, r = divmod_single(val, fp)
            residues.append(r)
        monos = sorted({m for r in residues for m in r.terms})
        index = {m: i for i, m in enumerate(monos)}
        for m in monos:
            rows_by_condition.append(
                [r.terms.get(m, Fraction(0)) for r in residues])
    if not unknowns:
        return 0
    rank = gauss_rank(rows_by_condition, len(unknowns))
    return len(unknowns) - rank


def condition_rows(f: Polynomial, cols, d: int, w: int, k: int):
    """The rows ``vfilt._condition_kernel`` stacks for the (d, w) piece of
    V_k over the coordinate columns ``cols``, built the way the library
    built them before its packed builder: every d^beta(x^alpha f^l) by
    repeated ``Polynomial.deriv`` and one rref of the f^p multiples per
    condition.  The rref is the plain Fraction elimination ``gauss_rref``
    above, so the oracle shares no elimination with the code it checks."""
    n = f.nvars
    e = f.degree()
    rows = []
    for l in range(max(k + 1, 0), d + 1):
        for adeg in range(d - l + 1):
            for alpha in monomials_of_degree(n, adeg):
                p = l - k
                target_deg = adeg + l * e + w
                if target_deg < 0:
                    continue
                g = Polynomial.monomial(n, alpha) * f ** l
                dvals = {}
                for beta, _ in cols:
                    if beta not in dvals:
                        dvals[beta] = iterated_partial(g, beta).terms
                scale = lcm(*(c.denominator for terms in dvals.values()
                              for c in terms.values()))
                dvals = {beta: [(dm, c.numerator * (scale // c.denominator))
                                for dm, c in terms.items()]
                         for beta, terms in dvals.items()}
                tmonos = monomials_of_degree(n, target_deg)
                tindex = {m: i for i, m in enumerate(tmonos)}
                sub = []
                rdeg = target_deg - p * e
                if rdeg >= 0:
                    fp = f ** p
                    for m in monomials_of_degree(n, rdeg):
                        vec = [0] * len(tmonos)
                        for fm, c in fp.terms.items():
                            vec[tindex[tuple(x + y for x, y in zip(fm, m))]] = c
                        sub.append(vec)
                sred, spiv = gauss_rref(sub, len(tmonos)) if sub else ([], [])
                den = lcm(*(c.denominator for row in sred for c in row))
                pivot_of = {col: i for i, col in enumerate(spiv)}
                reducers = [[(pos, c.numerator * (den // c.denominator))
                             for pos, c in enumerate(row)
                             if c and pos not in pivot_of] for row in sred]
                residuals = []
                for beta, mono in cols:
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
                rows.extend(row[::-1] for row in zip(*residuals) if any(row))
    return rows


def conjugate_condition_rows(f: Polynomial, cols, d: int, w: int, k: int):
    """Every condition row of the (d, w) piece of V_k, k >= 0, over the
    coordinate columns ``cols``, as one (l, target monomial, row) triple
    per nonzero row: condition (gamma, l) asks E_gamma = sum_{beta >=
    gamma} C(beta, gamma) a_beta d^(beta - gamma)(f^l) to lie in f^p * O,
    p = l - k, one row per free target monomial of the f^p block.  Every
    d^delta(f^l) comes from ``iterated_partial``, C(beta, gamma) from
    ``math.comb`` and the block rref from ``gauss_rref``.  The term
    beta = gamma, which the library skips, is kept: it lies in f^p * O and
    reduces to zero.  The images are scaled by fden^l, fden the lcm of f's
    denominators, and by the lcm of the block's denominators, so they are
    integer."""
    n = f.nvars
    e = f.degree()
    fden = lcm(*(c.denominator for c in f.terms.values()))
    rows = []
    for l in range(max(k + 1, 0), d + 1):
        p = l - k
        fl = f ** l
        derivs = {}
        for gdeg in range(d - l + 1):
            for gamma in monomials_of_degree(n, gdeg):
                target_deg = gdeg + l * e + w
                if target_deg < 0:
                    continue
                tmonos = monomials_of_degree(n, target_deg)
                tindex = {m: i for i, m in enumerate(tmonos)}
                sub = []
                if target_deg - p * e >= 0:
                    fp = f ** p
                    for m in monomials_of_degree(n, target_deg - p * e):
                        vec = [0] * len(tmonos)
                        for fm, c in fp.terms.items():
                            vec[tindex[tuple(x + y for x, y in zip(fm, m))]] = c
                        sub.append(vec)
                sred, spiv = gauss_rref(sub, len(tmonos)) if sub else ([], [])
                den = lcm(*(c.denominator for row in sred for c in row))
                pivot_of = {col: i for i, col in enumerate(spiv)}
                reducers = [[(pos, c.numerator * (den // c.denominator))
                             for pos, c in enumerate(row)
                             if c and pos not in pivot_of] for row in sred]
                residuals = []
                for beta, mono in cols:
                    res = [0] * len(tmonos)
                    delta = tuple(b - g for b, g in zip(beta, gamma))
                    if min(delta) >= 0:
                        if delta not in derivs:
                            derivs[delta] = [
                                (dm, int(c * fden ** l)) for dm, c in
                                iterated_partial(fl, delta).terms.items()]
                        binom = 1
                        for b, g in zip(beta, gamma):
                            binom *= comb(b, g)
                        for dm, c in derivs[delta]:
                            c *= binom
                            q = tindex[tuple(x + y for x, y in zip(dm, mono))]
                            i = pivot_of.get(q)
                            if i is None:
                                res[q] += den * c
                            else:
                                for pos, s in reducers[i]:
                                    res[pos] -= c * s
                    residuals.append(res)
                rows.extend((l, m, row[::-1])
                            for m, row in zip(tmonos, zip(*residuals))
                            if any(row))
    return rows


def rows_modulo_f(f: Polynomial, table, k: int):
    """The rows of a ``conjugate_condition_rows`` table that state each
    condition modulo f: at p = l - k >= 2 only those at target monomials
    that L^(p-1) divides, L the pivot of f's own row, i.e. its first
    monomial in the order ``monomials_of_degree`` lists a block's columns.
    Every row of p = 1 stays."""
    lead = next(m for m in monomials_of_degree(f.nvars, f.degree())
                if m in f.terms)
    return [row for l, m, row in table
            if all(x >= (l - k - 1) * y for x, y in zip(m, lead))]


# ---------------------------------------------------------------------------
# degreewise torsion oracle for graded module presentations
# ---------------------------------------------------------------------------

def module_vec_to_row(vec, rank, index):
    row = [Fraction(0)] * (rank * len(index))
    for comp, p in enumerate(vec.components):
        for m, c in p.terms.items():
            row[comp * len(index) + index[m]] = c
    return row


def torsion_class_exists_at_degree(rel_vecs, rank, nvars, var, d):
    """Is there v in (R^rank)_d, v not in Rel_d, with x_var * v in Rel_(d+1)?

    Pure linear algebra: build Rel_d and Rel_(d+1) as row spans over the
    monomial coordinates and compare kernel dimensions.  Assumes the
    relation vectors are homogeneous with entries of a single degree each
    (true for the symmetric-power presentations used here).
    """
    lo = monomials_of_degree(nvars, d)
    hi = monomials_of_degree(nvars, d + 1)
    lo_index = {m: i for i, m in enumerate(lo)}
    hi_index = {m: i for i, m in enumerate(hi)}

    def span_rows(target_deg, index):
        rows = []
        for vec in rel_vecs:
            deg = max(p.degree() for p in vec.components if not p.is_zero())
            room = target_deg - deg
            if room < 0:
                continue
            for m in monomials_of_degree(nvars, room):
                shifted = vec.scale(Polynomial.monomial(nvars, m))
                rows.append(module_vec_to_row(shifted, rank, index))
        return rows

    rel_lo = span_rows(d, lo_index)
    rel_hi = span_rows(d + 1, hi_index)
    hi_red, hi_piv = gauss_rref(rel_hi, rank * len(hi))
    hi_pivset = set(hi_piv)

    # matrix of "multiply by x_var then reduce mod Rel_(d+1)" on (R^rank)_d
    xv = Polynomial.variable(nvars, var)
    rows = []
    for comp in range(rank):
        for m in lo:
            vec_comps = [Polynomial.zero(nvars)] * rank
            vec_comps[comp] = Polynomial.monomial(nvars, m) * xv
            row = module_vec_to_row(FreeModuleVector(vec_comps), rank, hi_index)
            for rrow, piv in zip(hi_red, hi_piv):
                c = row[piv]
                if c:
                    row = [a - c * b for a, b in zip(row, rrow)]
            rows.append(row)
    # kernel of the composite map, column-indexed by (comp, lo-monomial)
    ncols_dom = rank * len(lo)
    mat = [[rows[j][i] for j in range(ncols_dom)]
           for i in range(rank * len(hi))]
    kernel_dim = ncols_dom - gauss_rank(mat, ncols_dom)
    rel_lo_dim = gauss_rank(rel_lo, ncols_dom)
    # Rel_d always sits inside the kernel; strict excess is a torsion class
    return kernel_dim > rel_lo_dim


# ---------------------------------------------------------------------------
# graded minimal generators by a Groebner search
# ---------------------------------------------------------------------------

def greedy_min_indices(vectors, degrees):
    """The subset graded Nakayama keeps, found by search: in the order
    (degree, lead, index), keep each vector that is not in the submodule
    the kept ones generate, with one fresh basis per kept vector."""
    deco = sorted((d, vector_lead_term(v)[1], i)
                  for i, (v, d) in enumerate(zip(vectors, degrees))
                  if not v.is_zero())
    kept = []
    gb = None
    for _, _, i in deco:
        if gb is not None and in_submodule(vectors[i], gb):
            continue
        kept.append(i)
        gb = buchberger([vectors[k] for k in kept])
    return kept, [degrees[i] for i in kept]


# ---------------------------------------------------------------------------
# compose-everything operator parser
# ---------------------------------------------------------------------------

def leibniz_compose(P: WeylOperator, Q: WeylOperator) -> WeylOperator:
    """P*Q by d^beta q = sum over every delta <= beta of
    C(beta, delta) (d^delta q) d^(beta-delta), vanishing terms included."""
    def below(beta):
        if not beta:
            yield ()
            return
        for tail in below(beta[1:]):
            for d in range(beta[0] + 1):
                yield (d,) + tail
    acc = {}
    for beta, p in P.terms.items():
        for gamma, q in Q.terms.items():
            for delta in below(beta):
                dq = iterated_partial(q, delta)
                c = 1
                for b, d in zip(beta, delta):
                    c *= comb(b, d)
                b = tuple(x - d + g for x, d, g in zip(beta, delta, gamma))
                acc[b] = acc.get(b, Polynomial.zero(P.nvars)) + p * dq * c
    return WeylOperator(P.nvars, acc)


_OPS = set("+-*^/()")
_ALIAS_INDEX = {"x": 0, "y": 1, "z": 2, "w": 3}


def tokenize(text):
    """(kind, text, line, column) tokens, as the library's tokenizer made
    them before products were bounded and integers of any length read."""
    tokens = []
    line, col = 1, 1
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch.isspace():
            col += 1
            i += 1
            continue
        if ch in _OPS:
            tokens.append((ch, ch, line, col))
            col += 1
            i += 1
            continue
        if "0" <= ch <= "9":
            j = i
            while j < n and "0" <= text[j] <= "9":
                j += 1
            tokens.append(("INT", text[i:j], line, col))
            col += j - i
            i = j
            continue
        if ch.isalpha():
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(("NAME", text[i:j], line, col))
            col += j - i
            i = j
            continue
        raise ParseError(f"unexpected character {ch!r}", line, col)
    tokens.append(("EOF", "", line, col))
    return tokens


def resolve_name(name, nvars, allow_d, line, col):
    """('var'|'dvar', index) of a variable or derivative name."""
    kind = "var"
    body = name
    if name.startswith("d") and len(name) > 1:
        if allow_d:
            kind, body = "dvar", name[1:]
    idx = None
    if body in _ALIAS_INDEX and nvars <= 4:
        idx = _ALIAS_INDEX[body]
    elif (body.startswith("x") and body[1:].isascii()
          and body[1:].isdigit()):
        idx = int(body[1:]) - 1
    if kind == "var" and idx is None and allow_d is False and name.startswith("d"):
        raise ParseError(f"unknown variable {name!r} (derivatives are not "
                         "allowed in a polynomial)", line, col)
    if idx is None or not 0 <= idx < nvars:
        raise ParseError(f"unknown variable {name!r} in a ring with "
                         f"{nvars} variable(s)", line, col)
    return kind, idx


class ComposeEverythingParser:
    """The grammar's recursive descent, evaluating in operator mode with
    every value a ``WeylOperator``, every product ``leibniz_compose`` and
    powers by its own squaring loop."""

    def __init__(self, text, nvars, operator_mode):
        self.tokens = tokenize(text)
        self.pos = 0
        self.nvars = nvars
        self.operator_mode = operator_mode

    def peek(self):
        return self.tokens[self.pos]

    def next(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def error(self, message, tok=None):
        tok = tok or self.peek()
        raise ParseError(message, tok[2], tok[3])

    def const(self, c):
        if self.operator_mode:
            return WeylOperator.constant(self.nvars, c)
        return Polynomial.constant(self.nvars, c)

    def atom_var(self, kind, idx):
        if kind == "dvar":
            return WeylOperator.partial(self.nvars, idx)
        if self.operator_mode:
            return WeylOperator.from_polynomial(
                Polynomial.variable(self.nvars, idx))
        return Polynomial.variable(self.nvars, idx)

    def mul(self, a, b):
        if self.operator_mode:
            return leibniz_compose(a, b)
        return a * b

    def parse(self):
        try:
            value = self.expr()
        except RecursionError:
            tok = self.tokens[min(self.pos, len(self.tokens) - 1)]
            raise ParseError("expression nested too deeply", tok[2],
                             tok[3]) from None
        tok = self.peek()
        if tok[0] != "EOF":
            self.error(f"unexpected {tok[1]!r}")
        return value

    def expr(self):
        if self.peek()[0] == "-":
            self.next()
            value = -self.term()
        else:
            value = self.term()
        while self.peek()[0] in ("+", "-"):
            op = self.next()[0]
            rhs = self.term()
            value = value + rhs if op == "+" else value - rhs
        return value

    def term(self):
        value = self.unary()
        while self.peek()[0] == "*":
            self.next()
            value = self.mul(value, self.unary())
        return value

    def unary(self):
        if self.peek()[0] == "-":
            self.next()
            return -self.unary()
        return self.power()

    def power(self):
        base = self.atom()
        if self.peek()[0] == "^":
            self.next()
            tok = self.next()
            if tok[0] != "INT":
                self.error("exponent must be a nonnegative integer", tok)
            k = int(tok[1])
            value = self.const(1)
            while k:  # repeated squaring
                if k & 1:
                    value = self.mul(value, base)
                k >>= 1
                if k:
                    base = self.mul(base, base)
            return value
        return base

    def atom(self):
        tok = self.next()
        if tok[0] == "INT":
            num = int(tok[1])
            if self.peek()[0] == "/":
                self.next()
                den = self.next()
                if den[0] != "INT" or int(den[1]) == 0:
                    self.error("expected a nonzero integer denominator", den)
                return self.const(Fraction(num, int(den[1])))
            return self.const(num)
        if tok[0] == "NAME":
            kind, idx = resolve_name(tok[1], self.nvars,
                                     self.operator_mode, tok[2], tok[3])
            return self.atom_var(kind, idx)
        if tok[0] == "(":
            value = self.expr()
            closing = self.next()
            if closing[0] != ")":
                self.error("expected ')'", closing)
            return value
        self.error(f"unexpected {tok[1]!r}" if tok[0] != "EOF"
                   else "unexpected end of input", tok)


# ---------------------------------------------------------------------------
# substitution, affine coordinate changes, brackets and direct sums
# ---------------------------------------------------------------------------

def subs(p: Polynomial, values) -> Polynomial:
    """p with values[i] (polynomials over one ring) substituted for x_i."""
    nvars = values[0].nvars
    out = Polynomial.zero(nvars)
    for m, c in p.terms.items():
        term = Polynomial.constant(nvars, c)
        for v, e in zip(values, m):
            term = term * v ** e
        out = out + term
    return out


def affine_map(A, a):
    """The coordinates x = A u + a as polynomials in u."""
    n = len(A)
    return [sum((Polynomial.variable(n, i) * A[j][i] for i in range(n)),
                Polynomial.constant(n, a[j])) for j in range(n)]


def affine_transform(P: WeylOperator, A, a) -> WeylOperator:
    """Q with Q(g o phi) = (P g) o phi for phi(u) = A u + a: coefficients
    are substituted, and d/dx_j becomes sum_i B[i][j] d/du_i, B = A^-1
    from ``gauss_rref`` of (A | I)."""
    n = P.nvars
    red, pivots = gauss_rref([list(row) + [int(i == j) for j in range(n)]
                              for i, row in enumerate(A)], 2 * n)
    if pivots[:n] != list(range(n)):
        raise ValueError("affine transform needs an invertible matrix")
    d = [WeylOperator.vector_field([Polynomial.constant(n, red[i][n + j])
                                    for i in range(n)]) for j in range(n)]
    phi = affine_map(A, a)
    out = WeylOperator.zero(n)
    for beta, p in P.terms.items():
        term = WeylOperator.from_polynomial(subs(p, phi))
        for j, e in enumerate(beta):
            for _ in range(e):
                term = term.right_mul(d[j])
        out = out + term
    return out


def commutator(P: WeylOperator, Q: WeylOperator) -> WeylOperator:
    return compose(P, Q) - compose(Q, P)


def is_direct_sum(chi_vec, gens) -> bool:
    """Is O*chi + <gens> direct?  True iff no syzygy of (chi, gens) has a
    nonzero chi entry."""
    return all(s.components[0].is_zero()
               for s in syzygies([chi_vec] + list(gens)))
