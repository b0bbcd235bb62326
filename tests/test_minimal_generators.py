"""Graded minimal generators and the Euler-line complement, read off one
syzygy computation each, against the Groebner searches they replace: the
greedy keep-loop in ``oracles`` and a brute-force drop-one search."""

import random

import pytest

from logdiv import groebner
from logdiv.arrangements import generic_dn
from logdiv.criterion import _split_complement
from logdiv.grammar import parse_polynomial
from logdiv.groebner import (FreeModuleVector, graded_min_generators,
                             vector_degree)
from logdiv.logder import ann_theta, euler_field, log_derivations
from logdiv.poly import Polynomial
from logdiv.symalg import sym_presentation, symk_module

from oracles import greedy_min_indices, planes


DIVISORS = {
    "d3": lambda: generic_dn(3).f,
    "d4": lambda: generic_dn(4).f,
    "d5": lambda: generic_dn(5).f,
    "brieskorn": lambda: parse_polynomial("x^5+y^3+z^2", 3),
    "xyz(x+y+z)-n4": lambda: parse_polynomial("x*y*z*(x+y+z)", 4),
    "planes4-0": lambda: planes(0, m=4),
    "planes5-4": lambda: planes(4),
    "planes5-5": lambda: planes(5),
}


def graded_families(f):
    """(name, vectors, weights, shifts) for Der(log f), Ann(f), the first
    syzygies of each and the Sym^2 relations of each."""
    out = []
    for name, dm in (("der", log_derivations(f)), ("ann", ann_theta(f))):
        w, degs = dm.grading
        out.append((name, dm.generators, w, [-wi for wi in w]))
        out.append((name + "-syz", dm.first_syzygies, w, degs))
        _, rels, shifts = symk_module(sym_presentation(dm), 2)
        out.append((name + "-sym2", rels, w, shifts))
    return out


def padded(vectors, degrees, weights, rng):
    """The vectors with redundant ones mixed in: scalar combinations of two
    of one degree, x_i multiples and duplicates, all in shuffled order."""
    vecs, degs = list(vectors), list(degrees)
    nvars = vecs[0].nvars
    for _ in range(3):
        i, j = rng.randrange(len(vectors)), rng.randrange(len(vectors))
        if degrees[i] == degrees[j]:
            vecs.append(vectors[i].scale(rng.choice((-2, 1, 3))) +
                        vectors[j].scale(rng.choice((-1, 1, 2))))
            degs.append(degrees[i])
        k = rng.randrange(nvars)
        vecs.append(vectors[i].scale(Polynomial.variable(nvars, k)))
        degs.append(degrees[i] + weights[k])
        vecs.append(vectors[j])
        degs.append(degrees[j])
    perm = list(range(len(vecs)))
    rng.shuffle(perm)
    return [vecs[p] for p in perm], [degs[p] for p in perm]


@pytest.mark.parametrize("name", sorted(DIVISORS))
def test_min_indices_match_the_greedy_search(name):
    f = DIVISORS[name]()
    rng = random.Random(name)
    checked = 0
    for family, vectors, w, shifts in graded_families(f):
        if not vectors:
            continue
        degrees = [vector_degree(v, w, shifts) for v in vectors]
        cases = [(vectors, degrees)]
        cases += [padded(vectors, degrees, w, rng) for _ in range(2)]
        for vecs, degs in cases:
            kept, kept_degs = greedy_min_indices(vecs, degs)
            assert (graded_min_generators(vecs, w, shifts) ==
                    ([vecs[i] for i in kept], kept_degs)), family
            checked += 1
    assert checked >= 9


def test_min_indices_of_zero_and_repeated_vectors():
    x, y = (Polynomial.variable(2, i) for i in range(2))
    zero = FreeModuleVector.zero(1, 2)
    vecs = [FreeModuleVector((x * y,)), zero, FreeModuleVector((x,)),
            FreeModuleVector((x,)), FreeModuleVector((y,))]
    degs = [2, None, 1, 1, 1]
    kept, kept_degs = graded_min_generators(vecs)
    assert kept[0] is vecs[4] and kept[1] is vecs[2] and len(kept) == 2
    assert kept_degs == [1, 1]
    assert greedy_min_indices(vecs, degs) == ([4, 2], [1, 1])
    assert graded_min_generators([zero]) == ([], [])


@pytest.fixture
def basis_calls(monkeypatch):
    """Counts engine computations (reduced bases) from here on."""
    calls = []
    real = groebner._basis

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(groebner, "_basis", counting)
    return calls


@pytest.mark.parametrize("f, splits", [(generic_dn(5).f, True),
                                       (planes(2, m=6), False)],
                         ids=["d5", "planes6"])
def test_minimal_generators_and_complement_take_few_engine_runs(
        f, splits, basis_calls):
    """One run for the minimal generators (a search runs one per kept
    generator: 11 on d5) and none for the complement, whether or not one
    exists (a search tried every drop: 7 runs on the planes): no generator
    drops here, so the lift of the Euler field and the syzygies come from
    the tagged basis that the minimal generators were read off."""
    dm = log_derivations(f)
    chi = euler_field(f)
    before = len(basis_calls)
    mini = dm.minimalized()
    assert len(basis_calls) - before == 1
    assert mini.minimalized() is mini
    before = len(basis_calls)
    comp = _split_complement(dm, chi)
    assert len(basis_calls) - before == 0
    assert (comp is not None) == splits
    if splits:
        assert len(comp.generators) == len(mini.generators) - 1
