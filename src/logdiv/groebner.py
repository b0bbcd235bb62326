"""Buchberger engine for ideals and submodules of free modules over the
polynomial ring, with syzygies, lifting, module and ideal colons,
elimination and codimension.

The public API works with Fraction-coefficient vectors.  Inside, a vector
is a map from packed terms to integer coefficients, with content stripped
as reductions proceed (packed exponents after Monagan and Pearce, 2007):

* A term (component, monomial) is one int.  Its low bits hold a slot per
  variable and then the component.  The top bit of each variable slot is
  a guard bit kept clear, so one monomial divides another iff their
  difference sets no guard bit.
* Above those bits sits the term's sort key.  Every order in ``poly`` is
  linear in the exponent vector, so its key tuple packs into one int with
  key(t*u) = key(t) + key(u).  The packing is derived from ``order.key`` on
  unit monomials, once per (order, ring dimension, rank, slot width).
  Multiplying a term by a monomial is one int add that moves the key and
  the exponents together, and terms compare as ints.
* A product that sets a guard bit raises ``_Overflow``, and the
  computation restarts from its inputs with slots of twice the width.
* Buchberger's algorithm keeps its pairs and basis by the Gebauer-Moller
  update (J. Symbolic Comput. 6, 1988): criteria B, M and F, and the
  product criterion for ideals, prune the S-pairs, and a reducer whose
  lead a new lead divides leaves the basis.  The lcm tests are int ops on
  packed monomials.

The colon (M : x_i) by a variable is read off the reduced basis of M under
the x_i-last order (Bayer and Stillman, Invent. Math. 87, 1987): the
quotients g/x_i of the elements whose lead x_i divides.  It is exact once
each such element is itself divisible by x_i, one mask test per term,
which graded M always passes.  Otherwise the colon by any g comes from one
tagged syzygy run on (g*e_1, .., g*e_rank, M), ``module_quotient_by_poly``.

Coefficients cross the API boundary only in ``encode`` and ``decode``, by
``poly``'s two conversions.  Reduced Groebner bases are unique for a fixed
order, so all results are deterministic across runs.
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from heapq import heapify, heappop, heappush
from math import gcd, inf
from operator import mul

from .linalg import rref
from .poly import (DEGREVLEX, BlockElim, LastVariableRevlex, ModuleOrder,
                   Polynomial, SyzElimOrder, TopOrder, integer_form)

SLOT_BITS = 8
"""Initial width of an exponent slot, guard bit included (exponents up to
127); a computation whose exponents outgrow it restarts twice as wide."""


class FreeModuleVector:
    """Element of a free module O^m, stored as a tuple of polynomials."""

    __slots__ = ("components",)

    def __init__(self, components):
        self.components = tuple(components)
        if not self.components:
            raise ValueError("rank-zero vectors are not supported")

    @property
    def rank(self):
        return len(self.components)

    @property
    def nvars(self):
        return self.components[0].nvars

    @staticmethod
    def from_polynomial(p: Polynomial):
        return FreeModuleVector((p,))

    @staticmethod
    def zero(rank, nvars):
        z = Polynomial.zero(nvars)
        return FreeModuleVector((z,) * rank)

    def is_zero(self):
        return all(p.is_zero() for p in self.components)

    def __add__(self, other):
        return FreeModuleVector(tuple(a + b for a, b in
                                      zip(self.components, other.components)))

    def scale(self, c):
        return FreeModuleVector(tuple(a * c for a in self.components))

    def __eq__(self, other):
        if not isinstance(other, FreeModuleVector):
            return NotImplemented
        return self.components == other.components

    def __repr__(self):
        return "(" + ", ".join(repr(p) for p in self.components) + ")"


class GroebnerBasis:
    """Reduced Groebner basis of a submodule of O^rank (rank 1: an ideal)."""

    __slots__ = ("_generators", "order", "rank", "nvars", "_packed")

    def __init__(self, generators, order, rank, nvars):
        # None: decoded from the packed reducers on first use
        self._generators = None if generators is None else list(generators)
        self.order = order
        self.rank = rank
        self.nvars = nvars
        self._packed = None

    @property
    def generators(self):
        if self._generators is None:
            eng, reducers, _ = self._packed
            self._generators = [eng.decode([(r[0], r[2]), *r[3]], r[2])
                                for r in reducers]
        return self._generators

    def __len__(self):
        return len(self.generators)

    def __iter__(self):
        return iter(self.generators)

    def is_zero_module(self):
        return not self.generators

    def contains_unit(self):
        """Rank-1 only: does the ideal contain a nonzero constant?"""
        return any(v.components[0].is_constant() and not v.components[0].is_zero()
                   for v in self.generators)

    def _reducers(self, slot):
        """(engine, reducers, reducers by component) for the generators,
        with slots at least ``slot`` wide; built once and kept."""
        if self._packed is None or self._packed[0].slot < slot:
            eng = _engine(self.order, self.nvars, self.rank, slot)
            reducers = [eng.reducer(eng.ivec(v)) for v in self.generators]
            self._packed = (eng, reducers, eng.index(reducers))
        return self._packed

    def __repr__(self):
        return (f"GroebnerBasis({len(self.generators)} generators, "
                f"rank {self.rank}, {self.order.name})")


# ---------------------------------------------------------------------------
# packed engine
# ---------------------------------------------------------------------------

class _Overflow(Exception):
    """An exponent outgrew its slot."""


def _strip(vec):
    g = gcd(*vec.values())
    if g > 1:
        for t in vec:
            vec[t] //= g
    return vec


def _widening(run):
    """``run(slot)``, retried with doubled slots until nothing overflows."""
    slot = SLOT_BITS
    while True:
        try:
            return run(slot)
        except _Overflow:
            slot *= 2


class _Engine:
    """Packed terms, normal forms and Buchberger for one module order, ring
    dimension, rank and slot width.  A reducer is (lead term, lead
    monomial bits, lead coefficient, tail as (term, coefficient) pairs)."""

    def __init__(self, order: ModuleOrder, nvars, rank, slot):
        self.order, self.nvars, self.rank, self.slot = order, nvars, rank, slot
        self.emax = (1 << (slot - 1)) - 1
        self.cshift = nvars * slot
        mbits = self.cshift + rank.bit_length()
        self.mmask = (1 << mbits) - 1
        self.vmask = (1 << self.cshift) - 1     # the variable slots
        self.guard = sum(1 << (k * slot + slot - 1) for k in range(nvars))
        # guard bits plus the component field: zero iff divisible, same component
        self.dmask = self.guard | (self.mmask ^ self.vmask)
        zero = (0,) * nvars
        base = [order.key((c, zero)) for c in range(rank)]
        units = []
        for k in range(nvars):
            e = tuple(int(i == k) for i in range(nvars))
            steps = {tuple(a - b for a, b in zip(order.key((c, e)), base[c]))
                     for c in range(rank)}
            if len(steps) != 1:
                raise ValueError(f"{order.name} is not linear in the exponents")
            units.append(steps.pop())
        # every key digit of a term whose exponents fit stays below 2^(width-1)
        bound = max(max(abs(b[j]) for b in base) +
                    self.emax * sum(abs(u[j]) for u in units)
                    for j in range(len(base[0])))
        width = bound.bit_length() + 1

        def pack(digits):
            v = 0
            for d in digits:
                v = (v << width) + d
            return v << mbits

        self.cterm = [pack(b) + (c << self.cshift) for c, b in enumerate(base)]
        self.vterm = [pack(u) + (1 << (k * slot)) for k, u in enumerate(units)]

    # -- conversion at the API boundary -------------------------------------

    def term(self, comp, mono):
        if mono and max(mono) > self.emax:
            raise _Overflow
        return self.cterm[comp] + sum(map(mul, mono, self.vterm))

    def exps(self, t):
        m = t & self.vmask
        if self.slot == 8:   # the default width: one byte per exponent
            return tuple(m.to_bytes(self.nvars, "little"))
        return tuple((m >> (k * self.slot)) & self.emax
                     for k in range(self.nvars))

    def encode(self, v: FreeModuleVector):
        """(vec, den) with vec the integer vector of den * v."""
        den, ints = integer_form([c for p in v.components
                                  for c in p.terms.values()])
        ints = iter(ints)
        term = self.term
        return {term(comp, m): next(ints) for comp, p in enumerate(v.components)
                for m in p.terms}, den

    def ivec(self, v: FreeModuleVector):
        return _strip(self.encode(v)[0])

    def decode(self, items, divisor=1) -> FreeModuleVector:
        """The vector of the integer items divided by ``divisor``."""
        polys = [[] for _ in range(self.rank)]
        for t, c in items:
            polys[(t & self.mmask) >> self.cshift].append((self.exps(t), c))
        zero = Polynomial.zero(self.nvars)
        return FreeModuleVector([Polynomial.from_integers(self.nvars, p, divisor)
                                 if p else zero for p in polys])

    # -- reduction ------------------------------------------------------------

    def reducer(self, vec):
        lt = max(vec)
        return (lt, lt & self.mmask, vec[lt],
                [(t, c) for t, c in vec.items() if t != lt])

    def index(self, reducers):
        by_comp = {}
        for r in reducers:
            by_comp.setdefault(r[1] >> self.cshift, []).append(r)
        return by_comp

    def normal_form(self, vec, by_comp, primitive=True):
        """Full normal form.  Returns (out, scale) with
        scale * vec == out (mod the submodule); if ``primitive`` the result
        is content-stripped and scale is returned as None."""
        mmask, guard, cshift = self.mmask, self.guard, self.cshift
        cur = dict(vec)
        out = {}
        scale = 1
        heap = [-t for t in cur]
        heapify(heap)
        pop, push, get, candidates = heappop, heappush, cur.get, by_comp.get
        while heap:
            t = -pop(heap)
            c = cur.pop(t, 0)
            if not c:
                continue
            m = t & mmask
            for lt, lm, lc, tail in candidates(m >> cshift, ()):
                if not (m - lm) & guard:
                    break
            else:
                out[t] = c
                continue
            g = gcd(c, lc)
            a, b = lc // g, c // g
            if a < 0:
                a, b = -a, -b
            if a != 1:
                for t2 in cur:
                    cur[t2] *= a
                for t2 in out:
                    out[t2] *= a
                scale *= a
            shift = t - lt
            for t2, cc in tail:
                t2 += shift
                prev = get(t2)
                if prev is None:
                    if t2 & guard:
                        raise _Overflow
                    cur[t2] = -b * cc
                    push(heap, -t2)
                else:
                    val = prev - b * cc
                    if val:
                        cur[t2] = val
                    else:
                        del cur[t2]
        if primitive:
            return _strip(out), None
        return out, scale

    def lcm(self, ti, tj):
        """Term of lcm(ti, tj) for terms in one component, and its degree."""
        ei, ej = self.exps(ti), self.exps(tj)
        for k, (x, y) in enumerate(zip(ei, ej)):
            if y > x:
                ti += (y - x) * self.vterm[k]
        return ti, sum(map(max, ei, ej))

    def s_vector(self, ri, rj, tl):
        """S-vector of two reducers whose leads have lcm term ``tl``."""
        g = gcd(ri[2], rj[2])
        s = {}
        for r, f in ((ri, rj[2] // g), (rj, -(ri[2] // g))):
            shift = tl - r[0]
            for t, c in r[3]:
                t += shift
                if t & self.guard:
                    raise _Overflow
                val = s.get(t, 0) + f * c
                if val:
                    s[t] = val
                else:
                    del s[t]
        return s

    # -- Buchberger ---------------------------------------------------------

    def buchberger(self, vecs):
        """Reduced basis as reducers sorted by lead.

        Pairs and basis follow the Gebauer-Moller update (1988).  When a
        reducer h joins, criterion B drops each pending pair (i, j) of h's
        component whose lcm T lead(h) divides with lcm(i, h) and lcm(j, h)
        both unequal to T.  Of the new pairs (g, h), criteria M and F keep
        one per minimal lcm, and for ideals none whose lcm group holds a
        pair with coprime leads (the product criterion).  Reducers whose
        lead lead(h) divides leave the basis that forms pairs and the
        normal-form candidates, so ``_reduce`` sees only the current basis.
        """
        guard, shift = self.guard, self.slot - 1
        low = (guard >> shift) * self.emax      # emax in each variable slot
        ideal = self.rank == 1
        reducers = []   # in order found; pairs refer to positions
        basis = {}      # component -> positions of the current basis
        by_comp = {}    # component -> the same reducers, for normal forms
        pending = {}    # component -> {(i, j): lcm monomial} of open pairs
        heap = []

        def add(vec):
            r = self.reducer(vec)
            h, lt, lm = len(reducers), r[0], r[1]
            reducers.append(r)
            comp = lm >> self.cshift
            if comp not in basis:
                basis[comp], by_comp[comp], pending[comp] = [], [], {}
            same, pend = basis[comp], pending[comp]
            # criterion B; for a, h | T, lcm(a, h) != T iff some slot has
            # both a and h below T, iff (T - a + low) & (T - h + low)
            # sets a guard bit
            for (i, j), big in list(pend.items()):
                th = big - lm
                if th & guard:
                    continue
                th += low
                if (th & (big - reducers[i][1] + low) & guard and
                        th & (big - reducers[j][1] + low) & guard):
                    del pend[i, j]
            # criteria M and F: a pair is kept only if no kept lcm divides
            # its own.  A divisor of a packed monomial is a smaller int, so
            # ascending lcms put divisors first; a coprime pair goes first
            # within its lcm, so the product criterion drops the group.
            # lcm(a, h) takes a's slots where a + guard - h keeps the guard
            # bit, i.e. where a >= h.
            new = []
            divided = False
            for g in same:
                a = reducers[g][1]
                ge = ((a | guard) - lm) & guard
                mask = (ge << 1) - (ge >> shift)
                big = (a & mask) | (lm & ~mask)
                new.append((big, not (ideal and big == a + lm), g))
                divided = divided or big == a
            new.sort()
            lcms = []
            for big, not_coprime, g in new:
                for m in lcms:
                    if not (big - m) & guard:
                        break
                else:
                    lcms.append(big)
                    if not_coprime:
                        tl, deg = self.lcm(reducers[g][0], lt)
                        pend[g, h] = big
                        heappush(heap, (deg, tl, g, h))
            if divided:
                same[:] = [g for g in same if (reducers[g][1] - lm) & guard]
                by_comp[comp] = [reducers[g] for g in same]
            same.append(h)
            by_comp[comp].append(r)

        for vec in vecs:
            if vec:
                add(dict(vec))
        while heap:
            _, tl, i, j = heappop(heap)
            if pending[reducers[i][1] >> self.cshift].pop((i, j), None) is None:
                continue  # dropped by criterion B
            s = self.s_vector(reducers[i], reducers[j], tl)
            if s:
                nf, _ = self.normal_form(s, by_comp)
                if nf:
                    add(nf)
        return self._reduce(itertools.chain.from_iterable(by_comp.values()))

    def _reduce(self, reducers):
        # a lead divides only leads of its own component
        mmask, guard, cshift = self.mmask, self.guard, self.cshift
        kept, by_comp = [], {}
        for r in sorted(reducers, key=lambda r: r[0]):
            same = by_comp.setdefault(r[1] >> cshift, [])
            if not any(not (r[1] - k[1]) & self.dmask for k in same):
                kept.append(r)
                same.append(r)
        # tail-reduce each survivor against all of them, the ones before it
        # already reduced; no lead divides a term below itself.  A reducer
        # is primitive, so one whose tail no lead divides stays as it is.
        for pos, r in enumerate(kept):
            if not any(not ((t & mmask) - k[1]) & guard for t, _ in r[3]
                       for k in by_comp.get((t & mmask) >> cshift, ())):
                continue
            tail, scale = self.normal_form(dict(r[3]), by_comp, primitive=False)
            kept[pos] = self.reducer(_strip({r[0]: r[2] * scale, **tail}))
            same = by_comp[r[1] >> cshift]
            same[same.index(r)] = kept[pos]
        return kept


_engine = lru_cache(maxsize=64)(_Engine)


# ---------------------------------------------------------------------------
# public operations
# ---------------------------------------------------------------------------

_DEFAULT_ORDER = TopOrder(DEGREVLEX)


def default_module_order():
    return _DEFAULT_ORDER


def _prep(gens):
    gens = list(gens)
    if not gens:
        raise ValueError("empty generator list (rank is undetermined)")
    rank = gens[0].rank
    nvars = gens[0].nvars
    for v in gens:
        if v.rank != rank or v.nvars != nvars:
            raise ValueError("generators of mixed rank or ring dimension")
    return gens, rank, nvars


def _basis(order, nvars, rank, encode):
    """Reduced basis of the integer vectors ``encode(engine)``, restarted
    with wider slots on overflow, as a GroebnerBasis that keeps them packed."""

    def run(slot):
        eng = _engine(order, nvars, rank, slot)
        return eng, eng.buchberger(encode(eng))

    eng, reducers = _widening(run)
    gb = GroebnerBasis(None, order, rank, nvars)
    gb._packed = (eng, reducers, eng.index(reducers))
    return gb


def buchberger(gens, order: ModuleOrder | None = None) -> GroebnerBasis:
    """Reduced Groebner basis of the submodule generated by ``gens``."""
    gens, rank, nvars = _prep(gens)
    return _basis(order or default_module_order(), nvars, rank,
                  lambda eng: [eng.ivec(v) for v in gens])


@lru_cache(maxsize=64)
def _last_variable_order(weights, shifts, i):
    return TopOrder(LastVariableRevlex(weights, i), shifts)


def colon_by_variable(gens, i, weights=None, shifts=None):
    """Generators of (<gens> : x_i) modulo <gens>, read off the reduced
    basis G of <gens> under the x_i-last order (``LastVariableRevlex`` with
    component shifts): the quotients g/x_i of the g in G whose lead x_i
    divides.  The list is empty iff x_i is a nonzerodivisor on
    O^rank/<gens>.  None if some such g is not itself divisible by x_i.

    Once each such g is, the quotients and G form a Groebner basis of the
    colon: for v in the colon a lead of G divides x_i*lead(v), so that lead
    or that lead over x_i divides lead(v).  For gens graded by the weights
    (all ones if None) and shifts, x_i | lead(g) implies x_i | g under the
    x_i-last order (Bayer-Stillman), so only ungraded gens give None.  No
    quotient lies in <gens>, since no lead of G divides another."""
    gens, rank, nvars = _prep(gens)
    weights = (1,) * nvars if weights is None else tuple(weights)
    shifts = None if shifts is None else tuple(shifts)
    gb = buchberger(gens, _last_variable_order(weights, shifts, i))
    eng, reducers, _ = gb._packed
    field, step = eng.emax << (i * eng.slot), eng.vterm[i]
    hit = [r for r in reducers if r[1] & field]
    if not all(t & field for r in hit for t, _ in r[3]):
        return None
    # dividing a term by x_i subtracts x_i's packed term
    return [eng.decode([(t - step, c) for t, c in [(r[0], r[2]), *r[3]]], r[2])
            for r in hit]


def vector_lead_term(v: FreeModuleVector):
    """Leading (component, monomial) of a nonzero vector under the default
    module order, with its sort key and coefficient."""
    if v.is_zero():
        raise ValueError("the zero vector has no leading term")
    key = default_module_order().key
    k, t = max((key((c, m)), (c, m))
               for c, p in enumerate(v.components) for m in p.terms)
    return t, k, v.components[t[0]].terms[t[1]]


def _packed_normal_form(v: FreeModuleVector, gb: GroebnerBasis):
    """(engine, integer vector, divisor) whose quotient is the normal form
    of v modulo the basis, or None for the zero vector."""
    if v.rank != gb.rank:
        raise ValueError("rank mismatch between vector and basis")
    if v.is_zero():
        return None

    def run(slot):
        eng, _, by_comp = gb._reducers(slot)
        vec, den = eng.encode(v)
        out, scale = eng.normal_form(vec, by_comp, primitive=False)
        return eng, out, scale * den

    return _widening(run)


def normal_form(v: FreeModuleVector, gb: GroebnerBasis) -> FreeModuleVector:
    """Complete reduction of v modulo the basis; zero iff v lies in the
    submodule; idempotent and linear over the rationals."""
    nf = _packed_normal_form(v, gb)
    return v if nf is None else nf[0].decode(nf[1].items(), nf[2])


def _reduces_to_zero(v: FreeModuleVector, gb: GroebnerBasis) -> bool:
    """Is v in the submodule?  The normal form's zero test, not decoded."""
    nf = _packed_normal_form(v, gb)
    return nf is None or not nf[1]


def in_submodule(v: FreeModuleVector, gb: GroebnerBasis) -> bool:
    return _reduces_to_zero(v, gb)


def is_groebner_basis(gens, order: ModuleOrder | None = None) -> bool:
    """Buchberger's criterion: every S-vector reduces to zero against the
    generators themselves (no pair-skipping criteria are applied)."""
    gens, rank, nvars = _prep(gens)
    order = order or default_module_order()

    def run(slot):
        eng = _engine(order, nvars, rank, slot)
        reducers = [eng.reducer(eng.ivec(v)) for v in gens if not v.is_zero()]
        by_comp = eng.index(reducers)
        for ri, rj in itertools.combinations(reducers, 2):
            if (ri[1] ^ rj[1]) >> eng.cshift:
                continue  # different components
            s = eng.s_vector(ri, rj, eng.lcm(ri[0], rj[0])[0])
            if eng.normal_form(s, by_comp)[0]:
                return False
        return True

    return _widening(run)


# ---------------------------------------------------------------------------
# syzygies, the module colon and lifting
# ---------------------------------------------------------------------------

_syz_order = lru_cache(maxsize=64)(SyzElimOrder)


def tagged_basis(gens) -> GroebnerBasis:
    """Reduced basis of the generators g_i tagged as g_i + e_(rank+i), under
    the order that puts the components below ``rank`` first (its
    ``order.split``).  Its elements supported purely on the tags are a
    basis of the syzygy module (``tagged_syzygies``), and the normal form
    of v padded with zero tags holds v's lift (``tagged_lift``).  On the
    tags the order is ``TopOrder(DEGREVLEX)`` with the components shifted
    by ``rank``, so the syzygy basis is the reduced one under the default
    order."""
    gens, rank, nvars = _prep(gens)

    def encode(eng):
        vecs = []
        for i, g in enumerate(gens):
            vec, den = eng.encode(g)
            vec[eng.cterm[rank + i]] = den
            vecs.append(_strip(vec))
        return vecs

    return _basis(_syz_order(rank), nvars, rank + len(gens), encode)


def tagged_syzygies(tagged):
    """Generators of the first syzygy module, read off a ``tagged_basis``."""
    # an element lives on the tags alone iff its lead does; only those are
    # decoded
    rank = tagged.order.split
    eng, reducers, _ = tagged._packed
    return [FreeModuleVector(eng.decode([(r[0], r[2]), *r[3]], r[2])
                             .components[rank:])
            for r in reducers if r[1] >> eng.cshift >= rank]


def syzygies(gens):
    """Generators of the first syzygy module {(a_1..a_m) : sum a_i g_i = 0}."""
    return tagged_syzygies(tagged_basis(gens))


def module_quotient_by_poly(rel_vecs, g: Polynomial, rank: int, nvars: int):
    """Generators of (Rel : g) = {v in O^rank : g*v in Rel}: the g e_b parts
    of the syzygies of (g e_1, .., g e_rank, Rel)."""
    gens = []
    for b in range(rank):
        comps = [Polynomial.zero(nvars)] * rank
        comps[b] = g
        gens.append(FreeModuleVector(comps))
    gens.extend(rel_vecs)
    out = []
    for s in syzygies(gens):
        v = FreeModuleVector(s.components[:rank])
        if not v.is_zero():
            out.append(v)
    return out


def tagged_lift(v: FreeModuleVector, tagged):
    """Coefficients (q_1..q_m) with v = sum q_i g_i, read off the
    ``tagged_basis`` of the g_i, or None if v is not in their span."""
    rank = tagged.order.split
    m = tagged.rank - rank
    padded = FreeModuleVector(list(v.components) +
                              [Polynomial.zero(tagged.nvars)] * m)
    nf = normal_form(padded, tagged)
    if any(not nf.components[c].is_zero() for c in range(rank)):
        return None
    return [-nf.components[rank + i] for i in range(m)]


def ideal_lift(g: Polynomial, polys):
    """Cofactors (q_1..q_m) with g = sum q_i p_i, or None if g is not in
    the ideal of the p_i."""
    return tagged_lift(FreeModuleVector.from_polynomial(g), tagged_basis(
        [FreeModuleVector.from_polynomial(p) for p in polys]))


# ---------------------------------------------------------------------------
# ideal operations (rank 1)
# ---------------------------------------------------------------------------

def ideal_gb(polys, order=None) -> GroebnerBasis:
    return buchberger([FreeModuleVector.from_polynomial(p) for p in polys],
                      order)


def gb_polys(gb: GroebnerBasis):
    return [v.components[0] for v in gb.generators]


def ideal_member(g: Polynomial, gb: GroebnerBasis) -> bool:
    return _reduces_to_zero(FreeModuleVector.from_polynomial(g), gb)


def ideal_quotient(gb: GroebnerBasis, g: Polynomial) -> GroebnerBasis:
    """(I : g) = {h : h*g in I}, the rank-1 case of module_quotient_by_poly."""
    if g.is_zero():
        raise ValueError("quotient by the zero polynomial")
    if gb.is_zero_module():
        return GroebnerBasis([], gb.order, 1, gb.nvars)
    return buchberger(module_quotient_by_poly(gb.generators, g, 1, gb.nvars))


def gb_equal(a: GroebnerBasis, b: GroebnerBasis) -> bool:
    """Equality of the generated submodules via mutual membership."""
    if a.rank != b.rank or a.nvars != b.nvars:
        return False
    return (all(in_submodule(v, b) for v in a.generators) and
            all(in_submodule(v, a) for v in b.generators))


def eliminate(polys, elim_vars, nvars=None) -> GroebnerBasis:
    """Intersection with the subring on the complementary variables, as a
    reduced degrevlex Groebner basis (still in the ambient ring)."""
    polys = list(polys)
    if nvars is None:
        if not polys:
            raise ValueError("an empty generator list needs nvars")
        nvars = polys[0].nvars
    elim = sorted(set(elim_vars))
    # the zero polynomial generates what an empty list does
    gb = ideal_gb(polys or [Polynomial.zero(nvars)],
                  TopOrder(BlockElim(elim, nvars)))
    kept = []
    elimset = set(elim)
    for v in gb.generators:
        p = v.components[0]
        if all(all(m[i] == 0 for i in elimset) for m in p.terms):
            kept.append(v)
    return GroebnerBasis(kept, default_module_order(), 1, nvars)


def codim(gb: GroebnerBasis):
    """n - dim(R/I) from the leading term ideal; +inf for the unit ideal,
    0 for the zero ideal."""
    if gb.rank != 1:
        raise ValueError("codim is defined for ideals (rank 1)")
    if gb.is_zero_module():
        return 0
    if gb.contains_unit():
        return inf
    n = gb.nvars
    key = gb.order.key
    supports = []
    for v in gb.generators:
        p = v.components[0]
        lead = max(p.terms, key=lambda m: key((0, m)))
        supports.append(frozenset(i for i, e in enumerate(lead) if e))
    for size in range(n, -1, -1):
        for subset in itertools.combinations(range(n), size):
            s = set(subset)
            if all(not sup <= s for sup in supports):
                return n - size
    return n


def local_membership_at_origin(g: Polynomial, gb: GroebnerBasis) -> bool:
    """g in I*O_0 (the local ring at the origin): some generator of (I : g)
    has a nonzero value at 0."""
    if g.is_zero():
        return True
    quot = ideal_quotient(gb, g)
    return any(p.constant_term() != 0 for p in gb_polys(quot))


# ---------------------------------------------------------------------------
# graded minimal generators
# ---------------------------------------------------------------------------

def vector_degree(v: FreeModuleVector, weights=None, shifts=None):
    """Degree of a homogeneous vector (component degree + shift, consistent
    across components); raises if the vector is not homogeneous."""
    w = tuple(weights) if weights is not None else (1,) * v.nvars
    degs = set()
    for comp, p in enumerate(v.components):
        if p.is_zero():
            continue
        if not p.is_weighted_homogeneous(w):
            raise ValueError("vector component is not homogeneous")
        d = p.weighted_degree(w)
        degs.add(d + (shifts[comp] if shifts else 0))
    if len(degs) > 1:
        raise ValueError("vector is not homogeneous for the given shifts")
    return degs.pop() if degs else None


def graded_min_generators(vectors, weights=None, shifts=None):
    """Minimal homogeneous generating subset (graded Nakayama), read off
    one syzygy computation: in the order (degree, lead, index) of
    ``graded_ranking``, a vector stays unless it lies in the submodule of
    the ones before it.  Degrees are ``vector_degree`` under ``weights``
    and ``shifts``; zero vectors drop out.  Returns (kept_vectors,
    degrees), in that order."""
    vectors = list(vectors)
    degrees = [vector_degree(v, weights, shifts) for v in vectors]
    ranked = graded_ranking(vectors, degrees)
    if not ranked:
        return [], []
    redundant = graded_redundant(syzygies([vectors[i] for i in ranked]),
                                 len(ranked))
    kept = [i for j, i in enumerate(ranked) if j not in redundant]
    return [vectors[i] for i in kept], [degrees[i] for i in kept]


def graded_ranking(vectors, degrees):
    """Positions of the nonzero vectors in the order (degree, lead, index),
    the order in which ``graded_redundant`` reads their syzygies."""
    return [i for _, _, i in sorted(
        (d, vector_lead_term(v)[1], i)
        for i, (v, d) in enumerate(zip(vectors, degrees)) if not v.is_zero())]


def graded_redundant(syz, m):
    """Positions j of the m ranked vectors v_j that lie in <v_1..v_(j-1)>,
    given generators ``syz`` of their syzygies.

    v_j lies there iff some syzygy has its last constant entry at j (an
    entry between vectors of different degree has positive degree): the
    pivots of the reversed-column rref of the syzygies' constant terms."""
    consts = [integer_form([s.components[j].constant_term()
                            for j in reversed(range(m))])[1] for s in syz]
    return {m - 1 - p for p in rref(consts, m)[1]}
