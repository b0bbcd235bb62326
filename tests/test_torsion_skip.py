"""The colon (Rel : x_i) read off the x_i-last basis, against the tagged
colon of ``module_quotient_by_poly``: with Rel it generates the same
module, it is empty (the nonzerodivisor skip) iff (Rel : x_i) = Rel, the
skip agrees with dense linear algebra in low degrees, ungraded input whose
basis fails the divisibility certificate falls back to the tagged colon,
and ``torsion_test_symk`` reports what the tagged colon for every variable
reports, witness for witness."""

import dataclasses
from fractions import Fraction
from functools import cache

import pytest

from logdiv.arrangements import generic_dn
from logdiv.criterion import _split_complement, criterion_certificate
from logdiv.grammar import parse_polynomial
from logdiv import groebner, symalg
from logdiv.groebner import (FreeModuleVector, buchberger, colon_by_variable,
                             gb_equal, in_submodule, module_quotient_by_poly,
                             normal_form, vector_lead_term)
from logdiv.logder import ann_theta, euler_field, log_derivations
from logdiv.poly import DEGREVLEX, LastVariableRevlex, Polynomial
from logdiv.symalg import (SymPresentation, TorsionReport, sym_presentation,
                           symk_module, torsion_test_symk)

from oracles import planes, torsion_class_exists_at_degree

# seeds whose five planes have a split route; both routes are tested
PLANE_SEEDS = (4, 5, 14, 16, 27, 50)


def _split(f):
    comp = _split_complement(log_derivations(f), euler_field(f))
    assert comp is not None
    return comp


MODULES = {
    "d3": lambda: generic_dn(3).a_module(),
    "d4": lambda: generic_dn(4).a_module(),
    "quadric": lambda: ann_theta(parse_polynomial("x^2+y^2+z^2+w^2", 4)),
    # x5 does not occur: torsion in x1..x4 only
    "quadric-c5": lambda: ann_theta(parse_polynomial("x1^2+x2^2+x3^2+x4^2",
                                                     5)),
    "weighted": lambda: ann_theta(parse_polynomial("x^5+y^3+z^2", 3)),
}
for _seed in PLANE_SEEDS:
    MODULES[f"planes-{_seed}-ann"] = lambda s=_seed: ann_theta(planes(s))
    MODULES[f"planes-{_seed}-split"] = lambda s=_seed: _split(planes(s))


def _ideal(*texts):
    """O/I as Sym^1 of a rank-one presentation: the relations are the
    generators of I."""
    gens = [FreeModuleVector.from_polynomial(parse_polynomial(t, 2))
            for t in texts]
    return SymPresentation(2, 1, gens)


# non-homogeneous f, and hand-built ideals whose x_i-last basis holds an
# element with lead divisible by x_i = y that y does not divide
UNGRADED = {
    "curve-logder": lambda: sym_presentation(log_derivations(
        parse_polynomial("x^5+y^5+x^2*y^2", 2))),
    "surface-ann": lambda: sym_presentation(ann_theta(
        parse_polynomial("x^4+y^5+x^2*y^3+z^2", 3))),
    # y is a nonzerodivisor: the fallback finds no witness
    "ideal-xy+x": lambda: _ideal("x*y + x"),
    # y kills x^2 + y mod I: the fallback finds it
    "ideal-x-x2y": lambda: _ideal("x - x^2*y", "x + y^2"),
}


@cache
def presentation(name):
    if name.endswith("-ungraded"):
        base = presentation(name.removesuffix("-ungraded"))
        return dataclasses.replace(base, gen_degrees=None, weights=None)
    if name in UNGRADED:
        return UNGRADED[name]()
    return sym_presentation(MODULES[name]())


def degrees(name):
    """The Sym^k degrees tested: Sym^1 of the hand-built ideals."""
    return (1,) if name.startswith("ideal-") else (2, 3)


@cache
def tagged_colon(name, k, i):
    sp = presentation(name)
    tmonos, rel_vecs, _ = symk_module(sp, k)
    return module_quotient_by_poly(rel_vecs,
                                   Polynomial.variable(sp.base_dim, i),
                                   len(tmonos), sp.base_dim)


def _colon_is_rel(name, k, i):
    _, rel_vecs, _ = symk_module(presentation(name), k)
    relgb = buchberger(rel_vecs)
    return all(in_submodule(v, relgb) for v in tagged_colon(name, k, i))


def _certified(sp, rel_vecs, shifts, i):
    return colon_by_variable(rel_vecs, i, sp.weights, shifts) == []


@pytest.mark.parametrize("k", [2, 3])
@pytest.mark.parametrize("name", list(MODULES))
def test_skip_fires_iff_the_colon_is_rel(name, k):
    sp = presentation(name)
    tmonos, rel_vecs, shifts = symk_module(sp, k)
    for i in range(sp.base_dim):
        assert (_certified(sp, rel_vecs, shifts, i) ==
                _colon_is_rel(name, k, i)), i


CASES = [(name, k) for name in [*MODULES, *UNGRADED] for k in degrees(name)]


@pytest.mark.parametrize("name,k", CASES)
def test_the_colon_equals_the_tagged_colon(name, k):
    sp = presentation(name)
    _, rel_vecs, shifts = symk_module(sp, k)
    fallbacks = 0
    for i in range(sp.base_dim):
        colon = colon_by_variable(rel_vecs, i, sp.weights, shifts)
        if colon is None:
            fallbacks += 1
            continue
        # with Rel, as modules; an empty colon is the skip
        assert gb_equal(buchberger(rel_vecs + colon),
                        buchberger(tagged_colon(name, k, i))), i
        assert (colon == []) == _colon_is_rel(name, k, i), i
    assert (fallbacks > 0) == (name in UNGRADED)


@pytest.mark.parametrize("name", ["ideal-xy+x", "ideal-x-x2y"])
def test_the_fallback_runs_where_y_divides_a_lead_but_not_its_element(name):
    sp = presentation(name)
    _, rel_vecs, _ = symk_module(sp, 1)
    assert colon_by_variable(rel_vecs, 1) is None
    report = torsion_test_symk(sp, 1)
    assert (1 in dict(report.witnesses)) == (name == "ideal-x-x2y")


@pytest.fixture
def tagged_calls(monkeypatch):
    """Calls of the tagged colon: from ``groebner`` (the ideal quotient)
    and through ``symalg`` (the torsion fallback)."""
    calls = []
    real = groebner.module_quotient_by_poly

    def spy(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(groebner, "module_quotient_by_poly", spy)
    monkeypatch.setattr(symalg, "module_quotient_by_poly", spy)
    return calls


@pytest.mark.parametrize("name", ["d4", "d5-split", "quadric", "curve-logder",
                                  "surface-ann"])
def test_tagged_colon_only_where_the_certificate_fails(tagged_calls, name):
    sp = (sym_presentation(_split(generic_dn(5).f)) if name == "d5-split"
          else presentation(name))
    for k in (2, 3):
        del tagged_calls[:]
        first = torsion_test_symk(sp, k)
        work = len(tagged_calls)
        assert (work > 0) == (name in UNGRADED), k
        del tagged_calls[:]
        assert torsion_test_symk(sp, k) == first
        assert len(tagged_calls) == work


def test_the_d5_split_route_takes_no_tagged_colon(tagged_calls):
    # five at the parent: one per variable, each with a witness
    f = generic_dn(5).f
    first = criterion_certificate(f, 0, route="split")
    assert not tagged_calls
    assert criterion_certificate(f, 0, route="split") == first
    assert not tagged_calls


def test_the_inputs_cover_both_outcomes_and_non_unit_weights():
    skips = set()
    for name in ("quadric-c5", "d3"):
        sp = presentation(name)
        _, rel_vecs, shifts = symk_module(sp, 2)
        skips.update(_certified(sp, rel_vecs, shifts, i)
                     for i in range(sp.base_dim))
    assert skips == {True, False}
    assert presentation("weighted").weights == (6, 10, 15)


@pytest.mark.parametrize("name", ["d3", "d4", "quadric", "planes-4-ann",
                                  "planes-4-split"])
def test_skip_agrees_with_linear_algebra_in_low_degrees(name):
    sp = presentation(name)
    tmonos, rel_vecs, shifts = symk_module(sp, 2)
    # the oracle reads degrees off the entries: one shift for all components
    assert sp.weights == (1,) * sp.base_dim and len(set(shifts)) == 1
    for i in range(sp.base_dim):
        torsion = any(torsion_class_exists_at_degree(
            rel_vecs, len(tmonos), sp.base_dim, i, d) for d in (0, 1))
        assert _certified(sp, rel_vecs, shifts, i) == (not torsion), i


def colon_for_every_variable(sp, k):
    """The torsion test without the skip: one basis of Rel, the colon
    (Rel : x_i) for every i, and the smallest monic normal form."""
    n = sp.base_dim
    tmonos, rel_vecs, _ = symk_module(sp, k)
    if not rel_vecs:
        return TorsionReport(k, True, [])
    relgb = buchberger(rel_vecs)
    witnesses = []
    for i in range(n):
        cands = []
        for v in module_quotient_by_poly(rel_vecs, Polynomial.variable(n, i),
                                         len(tmonos), n):
            nf = normal_form(v, relgb)
            if not nf.is_zero():
                _, key, lc = vector_lead_term(nf)
                monic = nf.scale(Fraction(1) / lc)
                cands.append(((key, repr(monic)), monic))
        if cands:
            witnesses.append((i, min(cands, key=lambda c: c[0])[1]))
    return TorsionReport(k, not witnesses, witnesses)


@pytest.mark.parametrize("k", [2, 3])
@pytest.mark.parametrize("name", [*MODULES, "quadric-ungraded",
                                  "quadric-c5-ungraded", "curve-logder",
                                  "surface-ann"])
def test_report_equals_the_colon_for_every_variable(name, k):
    sp = presentation(name)
    assert torsion_test_symk(sp, k) == colon_for_every_variable(sp, k)


@pytest.mark.parametrize("name", ["ideal-xy+x", "ideal-x-x2y"])
def test_report_equals_the_colon_on_hand_built_ideals(name):
    sp = presentation(name)
    assert torsion_test_symk(sp, 1) == colon_for_every_variable(sp, 1)


def test_last_variable_revlex():
    # all-ones weights with x_(n-1) last is degrevlex
    order = LastVariableRevlex((1, 1, 1), 2)
    monos = [(2, 0, 1), (1, 1, 1), (0, 3, 0), (1, 0, 2), (3, 0, 0)]
    assert (sorted(monos, key=order.key) ==
            sorted(monos, key=DEGREVLEX.key))
    # within a weighted degree, the multiples of x_last come last
    order = LastVariableRevlex((2, 1, 1), 0)
    assert order.key((1, 0, 0)) < order.key((0, 1, 1)) < order.key((0, 2, 0))
