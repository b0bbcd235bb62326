"""The pair criteria of the Buchberger engine (Gebauer-Moller): reduced
bases equal those of a criteria-free textbook Buchberger, and the pruning
keeps the S-vector count of the criterion pipeline down.
"""

import random

import pytest

from logdiv import groebner
from logdiv.arrangements import generic_dn
from logdiv.criterion import criterion_certificate
from logdiv.groebner import FreeModuleVector, buchberger, is_groebner_basis
from logdiv.poly import DEGREVLEX, LEX, Polynomial, SyzElimOrder, TopOrder

from oracles import rand_homog_poly, rand_poly, textbook_buchberger


def _random_gens(rng, nvars, rank, count):
    """``count`` nonzero vectors: homogeneous ones half the time, each
    entry zero with probability 1/3."""
    homog = rng.random() < 0.5
    gens = []
    while len(gens) < count:
        comps = []
        for _ in range(rank):
            if rng.random() < 1 / 3:
                comps.append(Polynomial.zero(nvars))
            elif homog:
                comps.append(rand_homog_poly(rng, nvars, rng.randint(1, 2), 3))
            else:
                comps.append(rand_poly(rng, nvars, 2, 3))
        v = FreeModuleVector(comps)
        if not v.is_zero():
            gens.append(v)
    return gens


def _orders(rank):
    return [TopOrder(DEGREVLEX), TopOrder(LEX),
            TopOrder(DEGREVLEX, shifts=range(rank, 0, -1))]


def _check(gens, order):
    got = buchberger(gens, order).generators
    assert got == textbook_buchberger(gens, order), order
    assert is_groebner_basis(got, order), order


def _check_tagged(gens):
    """The basis of the tagged generators g_i + e_(rank+i) under the
    syzygy order."""
    rank, nvars, m = gens[0].rank, gens[0].nvars, len(gens)
    tags = [FreeModuleVector(list(g.components) +
                             [Polynomial.constant(nvars, int(k == i))
                              for k in range(m)])
            for i, g in enumerate(gens)]
    got = groebner.tagged_basis(gens).generators
    assert got == textbook_buchberger(tags, SyzElimOrder(rank))
    assert is_groebner_basis(got, SyzElimOrder(rank))


@pytest.mark.parametrize("rank", [1, 2, 3])
def test_bases_match_the_criteria_free_buchberger(rank):
    rng = random.Random(4100 + rank)
    for _ in range(30):
        count = rng.randint(2, 3 if rank < 3 else 2)
        gens = _random_gens(rng, rng.choice((2, 3)), rank, count)
        for order in _orders(rank):
            _check(gens, order)
        _check_tagged(gens)


def test_duplicate_and_dividing_inputs():
    # equal leads, a lead dividing a later one and a unit: the basis
    # bookkeeping drops reducers that the new lead divides
    n = 3
    x, y, z = (Polynomial.variable(n, i) for i in range(n))
    cases = [[x * y - z, x * y - z, x * x * y + y],
             [x * x - y, x - z, y * z - 1],
             [x + y, (x + y) * z, x * y * z - 1, Polynomial.constant(n, 3)]]
    for polys in cases:
        for order in _orders(1):
            _check([FreeModuleVector([p]) for p in polys], order)
    # module inputs whose new pairs share lcms
    vecs = [FreeModuleVector([x, y]), FreeModuleVector([y, z]),
            FreeModuleVector([z, x]), FreeModuleVector([x * y, x * z])]
    for order in _orders(2):
        _check(vecs, order)
    _check_tagged(vecs)


def _count_s_vectors(monkeypatch):
    calls = []
    real = groebner._Engine.s_vector

    def spy(self, ri, rj, tl):
        calls.append(tl)
        return real(self, ri, rj, tl)

    monkeypatch.setattr(groebner._Engine, "s_vector", spy)
    return calls


@pytest.mark.parametrize("n,route,bound",
                         [(4, "both", 740), (5, "split", 3221)])
def test_criterion_s_vector_count(monkeypatch, n, route, bound):
    # the pair criteria cut these from 919 and 4,019 S-vectors
    f = generic_dn(n).f
    calls = _count_s_vectors(monkeypatch)
    first = criterion_certificate(f, 0, route=route)
    work = len(calls)
    assert 0 < work <= bound
    # the cached engines keep no pair state between runs
    del calls[:]
    assert criterion_certificate(f, 0, route=route) == first
    assert len(calls) == work
