"""Symmetric algebras of derivation modules, the Rees kernel, the
injectivity/torsion tests and the grade criterion.

Ring conventions: the symmetric algebra of a module with m generators over
O = Q[x_1..x_n] is presented in the polynomial ring on n+m variables
x_1..x_n, T_1..T_m (the T block occupies indices n..n+m-1).  The Rees
kernel is computed in the auxiliary ring x_1..x_n, xi_1..xi_n, T_1..T_m by
eliminating the xi block.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations_with_replacement

from .groebner import (FreeModuleVector, GroebnerBasis, buchberger, codim,
                       colon_by_variable, default_module_order, eliminate,
                       gb_equal, graded_min_generators, ideal_gb,
                       module_quotient_by_poly, normal_form, vector_lead_term)
from .logder import DerivationModule
from .poly import Polynomial, monomials_of_degree
from .weyl import WeylOperator, symbol, xi_component_vector


@dataclass
class SymPresentation:
    """Sym_O M = O[T_1..T_m] / J with J spanned by the linear forms
    sum_j a_ij T_j, one per first syzygy (a_i1..a_im) of the generators."""

    base_dim: int
    module_rank: int
    syzygies: list
    gen_degrees: list | None = None
    weights: tuple | None = None

    @property
    def ring_dim(self):
        return self.base_dim + self.module_rank

    @property
    def relations(self):
        """The linear forms sum_j a_ij T_j as polynomials in O[T]."""
        m = self.module_rank
        tvars = [(0,) * j + (1,) + (0,) * (m - 1 - j) for j in range(m)]
        return [Polynomial(self.ring_dim, {mono + tvars[j]: c
                                           for j, a in enumerate(s.components)
                                           for mono, c in a.terms.items()})
                for s in self.syzygies]


def sym_presentation(dm: DerivationModule) -> SymPresentation:
    return SymPresentation(dm.nvars, len(dm.generators), dm.first_syzygies,
                           gen_degrees=dm.grading[1], weights=dm.grading[0])


def rees_kernel(dm: DerivationModule) -> GroebnerBasis:
    """The Rees kernel Q: the full relation ideal of the generator symbols
    sigma(theta_i) = sum_j a_ij xi_j inside O[T], by eliminating the xi
    variables from <T_i - sigma_i>.  Returned as its reduced degrevlex
    Groebner basis in the ring x_1..x_n, T_1..T_m (``gb_polys`` lists the
    polynomials); it always contains the linear syzygy ideal J."""
    n = dm.nvars
    m = len(dm.generators)
    big = 2 * n + m
    # x^mono * xi_j has the exponents mono + xis[j] in the ring x, xi, T
    xis = [(0,) * j + (1,) + (0,) * (n - 1 - j + m) for j in range(n)]
    gens = []
    for i, g in enumerate(dm.generators):
        terms = {(0,) * (2 * n + i) + (1,) + (0,) * (m - 1 - i): 1}
        for j, a in enumerate(g.components):
            terms.update((mono + xis[j], -c) for mono, c in a.terms.items())
        gens.append(Polynomial(big, terms))
    elim = eliminate(gens, list(range(n, 2 * n)), nvars=big)
    # the eliminated xi block occurs in no element: drop its exponents
    projected = [FreeModuleVector.from_polynomial(Polynomial(
        n + m, {mono[:n] + mono[2 * n:]: c
                for mono, c in v.components[0].terms.items()}, _clean=False))
        for v in elim.generators]
    return GroebnerBasis(projected, default_module_order(), 1, n + m)


def pi_injectivity_test(sp: SymPresentation, rk: GroebnerBasis) -> bool:
    """Sym -> Rees is injective iff J = Q as ideals, Q the ``rees_kernel``."""
    rels = sp.relations
    if not rels:
        return rk.is_zero_module()
    return gb_equal(ideal_gb(rels), rk)


# ---------------------------------------------------------------------------
# degreewise torsion
# ---------------------------------------------------------------------------

def symk_module(sp: SymPresentation, k: int):
    """The T-degree-k piece of O[T]/J as an O-module: generator basis = the
    degree-k monomials in T, relations = (degree k-1 monomials) * (linear
    forms of J).  Returns (tmonos, relation_vectors, shifts)."""
    if k < 1:
        raise ValueError("k must be >= 1")
    n, m = sp.base_dim, sp.module_rank
    tmonos = monomials_of_degree(m, k)
    index = {t: i for i, t in enumerate(tmonos)}
    zero = Polynomial.zero(n)
    rel_vecs = []
    for tm in monomials_of_degree(m, k - 1):
        for s in sp.syzygies:
            # the entry a_j of the syzygy multiplies T^tm * T_j
            comps = [zero] * len(tmonos)
            for j, a in enumerate(s.components):
                if not a.is_zero():
                    comps[index[tm[:j] + (tm[j] + 1,) + tm[j + 1:]]] = a
            v = FreeModuleVector(comps)
            if not v.is_zero():
                rel_vecs.append(v)
    shifts = None
    if sp.gen_degrees is not None:
        shifts = [sum(d * e for d, e in zip(sp.gen_degrees, t))
                  for t in tmonos]
    return tmonos, rel_vecs, shifts


@dataclass
class TorsionReport:
    tdegree: int
    torsion_free: bool
    witnesses: list          # (variable index, canonical annihilated class)


def torsion_test_symk(sp: SymPresentation, k: int) -> TorsionReport:
    """Degreewise torsion of Sym^k: for every variable x_i, look for a
    nonzero class killed by x_i.  The colon (Rel : x_i) comes off the
    reduced basis of Rel under the x_i-last order (Bayer-Stillman): the
    quotients g/x_i of the elements whose lead x_i divides, none if x_i is
    a nonzerodivisor.  This is exact once x_i divides each such element,
    which graded Rel always passes; otherwise the tagged colon of
    ``module_quotient_by_poly`` is the fallback.  Witnesses are canonical:
    the normal form of the annihilated element, smallest lead first,
    scaled monic."""
    n = sp.base_dim
    tmonos, rel_vecs, shifts = symk_module(sp, k)
    if not rel_vecs:
        return TorsionReport(k, True, [])
    relgb = None
    witnesses = []
    for i in range(n):
        colon = colon_by_variable(rel_vecs, i, sp.weights, shifts)
        if colon is None:
            colon = module_quotient_by_poly(
                rel_vecs, Polynomial.variable(n, i), len(tmonos), n)
        if not colon:
            continue
        if relgb is None:
            relgb = buchberger(rel_vecs)
        candidates = [_canonical_vector(nf) for nf in
                      (normal_form(v, relgb) for v in colon)
                      if not nf.is_zero()]
        if candidates:
            witnesses.append((i, min(candidates, key=_vector_sort_key)))
    return TorsionReport(k, not witnesses, witnesses)


def _canonical_vector(v: FreeModuleVector) -> FreeModuleVector:
    _, _, lc = vector_lead_term(v)
    return v.scale(Fraction(1, lc))


def _vector_sort_key(v: FreeModuleVector):
    _, key, _ = vector_lead_term(v)
    return (key, repr(v))


def alpha_image_nf(dm: DerivationModule, op, k: int = 2) -> FreeModuleVector:
    """Normal form of the symbol of ``op`` against the O-module spanned by
    k-fold products of the generator symbols (the degree-k image of the
    symmetric algebra in the symbol ring).  Nonzero means the symbol class
    is not reached by vector fields."""
    n = dm.nvars
    xi_monos = monomials_of_degree(n, k)
    sym_gens = [symbol(WeylOperator.vector_field(g.components))
                for g in dm.generators]
    products = []
    for word in combinations_with_replacement(range(len(sym_gens)), k):
        p = Polynomial.one(2 * n)
        for i in word:
            p = p * sym_gens[i]
        products.append(FreeModuleVector(
            xi_component_vector(p, n, k, xi_monos)))
    target = FreeModuleVector(
        xi_component_vector(symbol(op), n, k, xi_monos))
    gb = buchberger(products)
    return normal_form(target, gb)


# ---------------------------------------------------------------------------
# grade criterion (rank-one resolution)
# ---------------------------------------------------------------------------

@dataclass
class GradeCertificate:
    applicable: bool
    reason: str
    syzygy_vector: FreeModuleVector | None = None
    ideal_generators: list | None = None
    grade: float | int | None = None
    required: int | None = None
    certified: bool = False


def grade_criterion(dm: DerivationModule, dimZ: int) -> GradeCertificate:
    """Certify via the length-one resolution 0 -> R -> R^m -> A -> 0: the
    single syzygy vector (a_1..a_m) must generate all first syzygies, and
    codim<a_1..a_m> (= grade over the Cohen-Macaulay ambient ring) must be
    at least dimZ + 3."""
    required = dimZ + 3
    w, gen_degs = dm.grading
    if w is None:
        return GradeCertificate(False, "divisor is not (quasi-)homogeneous",
                                required=required)
    if not dm.first_syzygies:
        return GradeCertificate(
            False, "module is free (no syzygies): resolution has length 0",
            required=required)
    try:
        if gen_degs is None:
            raise ValueError("generators are not graded")
        kept, _ = graded_min_generators(dm.first_syzygies, weights=w,
                                        shifts=gen_degs)
    except ValueError:
        return GradeCertificate(False, "syzygies are not graded",
                                required=required)
    if len(kept) != 1:
        return GradeCertificate(
            False, f"first syzygy module needs {len(kept)} generators, not 1",
            required=required)
    vec = kept[0]
    entries = [p for p in vec.components if not p.is_zero()]
    igb = ideal_gb(entries)
    grade = codim(igb)
    return GradeCertificate(True, "rank-one resolution found",
                            syzygy_vector=vec,
                            ideal_generators=entries,
                            grade=grade, required=required,
                            certified=bool(grade >= required))
