"""The nonzerodivisor skip of the degreewise torsion test, against the
colon it saves: the skip fires for x_i iff (Rel : x_i) = Rel, it agrees
with dense linear algebra in low degrees, and ``torsion_test_symk``
reports what the colon for every variable reports, witness for witness."""

import dataclasses
from functools import cache

import pytest

from logdiv.arrangements import generic_dn
from logdiv.criterion import _split_complement
from logdiv.grammar import parse_polynomial
from logdiv.groebner import (buchberger, in_submodule, module_quotient_by_poly,
                             nonzerodivisor_certified, normal_form,
                             vector_lead_term)
from logdiv.logder import ann_theta, euler_field, log_derivations
from logdiv.poly import DEGREVLEX, LastVariableRevlex, Polynomial
from logdiv.symalg import (TorsionReport, sym_presentation, symk_module,
                           torsion_test_symk)

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


@cache
def presentation(name):
    if name.endswith("-ungraded"):
        base = presentation(name.removesuffix("-ungraded"))
        return dataclasses.replace(base, gen_degrees=None, weights=None)
    return sym_presentation(MODULES[name]())


def _colon_is_rel(rel_vecs, i, rank, nvars):
    relgb = buchberger(rel_vecs)
    colon = module_quotient_by_poly(rel_vecs, Polynomial.variable(nvars, i),
                                    rank, nvars)
    return all(in_submodule(v, relgb) for v in colon)


@pytest.mark.parametrize("k", [2, 3])
@pytest.mark.parametrize("name", list(MODULES))
def test_skip_fires_iff_the_colon_is_rel(name, k):
    sp = presentation(name)
    tmonos, rel_vecs, shifts = symk_module(sp, k)
    for i in range(sp.base_dim):
        assert (nonzerodivisor_certified(rel_vecs, i, sp.weights, shifts) ==
                _colon_is_rel(rel_vecs, i, len(tmonos), sp.base_dim)), i


def test_the_inputs_cover_both_outcomes_and_non_unit_weights():
    skips = set()
    for name in ("quadric-c5", "d3"):
        sp = presentation(name)
        _, rel_vecs, shifts = symk_module(sp, 2)
        skips.update(nonzerodivisor_certified(rel_vecs, i, sp.weights, shifts)
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
        assert nonzerodivisor_certified(rel_vecs, i, sp.weights,
                                        shifts) == (not torsion), i


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
                monic = nf.scale(1 / lc)
                cands.append(((key, repr(monic)), monic))
        if cands:
            witnesses.append((i, min(cands, key=lambda c: c[0])[1]))
    return TorsionReport(k, not witnesses, witnesses)


@pytest.mark.parametrize("k", [2, 3])
@pytest.mark.parametrize("name", [*MODULES, "quadric-ungraded",
                                  "quadric-c5-ungraded"])
def test_report_equals_the_colon_for_every_variable(name, k):
    sp = presentation(name)
    assert torsion_test_symk(sp, k) == colon_for_every_variable(sp, k)


def test_last_variable_revlex():
    # all-ones weights with x_(n-1) last is degrevlex
    order = LastVariableRevlex((1, 1, 1), 2)
    monos = [(2, 0, 1), (1, 1, 1), (0, 3, 0), (1, 0, 2), (3, 0, 0)]
    assert (sorted(monos, key=order.key) ==
            sorted(monos, key=DEGREVLEX.key))
    # within a weighted degree, the multiples of x_last come last
    order = LastVariableRevlex((2, 1, 1), 0)
    assert order.key((1, 0, 0)) < order.key((0, 1, 1)) < order.key((0, 2, 0))
