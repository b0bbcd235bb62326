"""The syzygy path against the constructions it replaced: syzygies from a
Buchberger run over Fraction-tagged vectors, Sym^k relation vectors split
back out of the relation polynomials, and the ideal colon read off the
syzygies of (gens, g)."""

import random

import pytest

from logdiv import groebner, symalg
from logdiv.arrangements import generic_dn
from logdiv.grammar import parse_polynomial
from logdiv.groebner import (FreeModuleVector, buchberger, gb_equal, ideal_gb,
                             ideal_quotient, syzygies)
from logdiv.logder import ann_theta, gradient
from logdiv.poly import Polynomial, SyzElimOrder, monomials_of_degree
from logdiv.symalg import sym_presentation, symk_module

from oracles import rand_poly

QUADRIC = "x^2+y^2+z^2+w^2"


def tagged_syzygies(gens):
    """Generators g_i + e_(rank+i) as Fraction vectors, a reduced basis
    under SyzElimOrder(rank), and the elements that live on the tags."""
    rank, nvars, m = gens[0].rank, gens[0].nvars, len(gens)
    zero, one = Polynomial.zero(nvars), Polynomial.one(nvars)
    tagged = []
    for i, g in enumerate(gens):
        comps = list(g.components) + [zero] * m
        comps[rank + i] = one
        tagged.append(FreeModuleVector(comps))
    gb = buchberger(tagged, SyzElimOrder(rank))
    return [FreeModuleVector(v.components[rank:]) for v in gb.generators
            if all(p.is_zero() for p in v.components[:rank])]


def random_modules():
    rng = random.Random(61)
    out = []
    for nvars, rank in ((2, 1), (3, 1), (2, 2), (3, 2)):
        for _ in range(3):
            out.append([FreeModuleVector([rand_poly(rng, nvars, 2, zero_ok=True)
                                          for _ in range(rank)])
                        for _ in range(3)])
    return out


def quadric_gradient():
    f = parse_polynomial(QUADRIC, 4)
    return [FreeModuleVector.from_polynomial(g) for g in gradient(f)]


@pytest.mark.parametrize("gens", [*random_modules(), generic_dn(4).eta_list(),
                                  quadric_gradient()])
def test_syzygies_equal_the_fraction_tagged_run(gens):
    assert syzygies(gens) == tagged_syzygies(gens)


def symk_from_relations(sp, k):
    """Relation vectors of Sym^k split out of the polynomials sum_j a_j T_j."""
    n, m = sp.base_dim, sp.module_rank
    tmonos = monomials_of_degree(m, k)
    index = {t: i for i, t in enumerate(tmonos)}
    zero = Polynomial.zero(n)
    decomposed = []
    for rel in sp.relations:
        coeffs = {}
        for mono, c in rel.terms.items():
            j = next(i for i, e in enumerate(mono[n:]) if e)
            coeffs.setdefault(j, {})[mono[:n]] = c
        decomposed.append({j: Polynomial(n, t) for j, t in coeffs.items()})
    out = []
    for tm in monomials_of_degree(m, k - 1):
        for dec in decomposed:
            comps = [zero] * len(tmonos)
            for j, cj in dec.items():
                target = tuple(e + (i == j) for i, e in enumerate(tm))
                comps[index[target]] = cj
            v = FreeModuleVector(comps)
            if not v.is_zero():
                out.append(v)
    return tmonos, out


@pytest.mark.parametrize("module", ["d4", "quadric"])
@pytest.mark.parametrize("k", [2, 3])
def test_symk_module_equals_the_split_relations(module, k):
    dm = (generic_dn(4).a_module() if module == "d4"
          else ann_theta(parse_polynomial(QUADRIC, 4)))
    sp = sym_presentation(dm)
    tmonos, rel_vecs, _ = symk_module(sp, k)
    assert (tmonos, rel_vecs) == symk_from_relations(sp, k)


def old_ideal_quotient(gb, g):
    gens = [FreeModuleVector.from_polynomial(p)
            for p in groebner.gb_polys(gb)] + [FreeModuleVector.from_polynomial(g)]
    return ideal_gb([s.components[-1] for s in syzygies(gens)])


def test_ideal_quotient_equals_the_syzygy_construction():
    rng = random.Random(67)
    cases = [(["x^2*y", "x*y^3"], "x*y"), (["x^2", "y^2"], "x+y"),
             (["x*y - z", "x*z - y"], "x")]
    cases = [([parse_polynomial(t, 3) for t in gens], parse_polynomial(g, 3))
             for gens, g in cases]
    while len(cases) < 12:
        gens = [rand_poly(rng, 3, 2) for _ in range(2)]
        g = rand_poly(rng, 3, 2)
        if all(p.is_zero() for p in gens) or g.is_zero():
            continue
        cases.append((gens, g))
    for gens, g in cases:
        gb = ideal_gb(gens)
        assert gb_equal(ideal_quotient(gb, g), old_ideal_quotient(gb, g))


def test_module_colon_is_defined_once():
    assert symalg.module_quotient_by_poly is groebner.module_quotient_by_poly
