import random
from fractions import Fraction
from math import inf

import pytest

from logdiv.groebner import (FreeModuleVector, buchberger, codim, eliminate,
                             gb_equal, graded_min_generators, ideal_gb,
                             ideal_lift, ideal_member, ideal_quotient,
                             is_groebner_basis, local_membership_at_origin,
                             normal_form, syzygies, vector_lead_term)
from logdiv import groebner
from logdiv.grammar import parse_polynomial
from logdiv.poly import Polynomial

from oracles import divmod_single, rand_homog_poly, rand_poly, span_membership


def P(s, n):
    return parse_polynomial(s, n)


def fmv(*polys):
    return FreeModuleVector(polys)


def ideal_of(*texts, n):
    return ideal_gb([P(t, n) for t in texts])


def test_monomial_ideal_is_its_own_basis():
    gens = [fmv(P("x^2", 2)), fmv(P("x*y", 2))]
    assert is_groebner_basis(gens)
    gb = buchberger(gens)
    assert sorted(repr(v.components[0]) for v in gb) == ["x*y", "x^2"]


def test_principal_ideal_gb_is_monic_generator():
    rng = random.Random(5)
    for _ in range(10):
        p = rand_poly(rng, 2, 3)
        if p.is_zero():
            continue
        gb = ideal_gb([p, p * P("x+1", 2)])
        assert len(gb) == 1
        q = gb.generators[0].components[0]
        assert q.lead_coeff() == 1
        assert divmod_zero(p, q)


def divmod_zero(p, q):
    return divmod_single(p, q)[1].is_zero()


def test_normal_form_zero_iff_member():
    gb = ideal_of("x^2", n=2)
    assert normal_form(fmv(P("x^3 + x^2*y", 2)), gb).is_zero()
    nf = normal_form(fmv(P("x", 2)), gb)
    assert nf.components[0] == P("x", 2)


def test_membership_zero_test_matches_the_decoded_normal_form():
    rng = random.Random(19)
    bases = [ideal_of("x^2 - y", "y^2", n=2), ideal_of("x*y - 1", n=2),
             buchberger([fmv(P("x^2", 2), P("y", 2)),
                         fmv(P("y", 2), Polynomial.zero(2))])]
    for gb in bases:
        for _ in range(40):
            v = FreeModuleVector([rand_poly(rng, 2, 4, zero_ok=True)
                                  for _ in range(gb.rank)])
            if rng.random() < 0.4:  # a member
                g = gb.generators[rng.randrange(len(gb))]
                v = g.scale(Fraction(rng.randint(1, 5), 3))
            assert groebner._reduces_to_zero(v, gb) == \
                normal_form(v, gb).is_zero()
    # exponents past the default 8-bit slots: the test widens them
    gb = ideal_of("x^150 - y", n=2)
    for text, member in (("x^300 - y^2", True), ("x^300 - y", False),
                         ("x^149*y", False), ("y^200 - x^150*y^199", True)):
        v = fmv(P(text, 2))
        assert groebner._reduces_to_zero(v, gb) is member
        assert normal_form(v, gb).is_zero() is member
        assert ideal_member(P(text, 2), gb) is member


def test_normal_form_idempotent_and_linear():
    rng = random.Random(17)
    gb = ideal_of("x^2 - y", "y^2", n=2)
    for _ in range(20):
        u, v = rand_poly(rng, 2, 4, zero_ok=True), rand_poly(rng, 2, 4, zero_ok=True)
        a = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
        nf_u = normal_form(fmv(u), gb).components[0]
        nf_v = normal_form(fmv(v), gb).components[0]
        assert normal_form(fmv(nf_u), gb).components[0] == nf_u
        assert normal_form(fmv(u * a + v), gb).components[0] == nf_u * a + nf_v


def test_normal_form_reduces_past_an_irreducible_term():
    # the lead y^3 is irreducible; the tail x^2 still reduces away
    gb = buchberger([fmv(P("x^2", 2))])
    assert normal_form(fmv(P("y^3 + x^2", 2)), gb) == fmv(P("y^3", 2))


def tails_are_irreducible(gb):
    """No tail term of a generator is divisible by a lead of the basis."""
    leads = [vector_lead_term(g)[0] for g in gb]
    for g, (comp, mono) in zip(gb, leads):
        for c, p in enumerate(g.components):
            for m in p.terms:
                if (c, m) != (comp, mono) and any(
                        c == lc and all(a >= b for a, b in zip(m, lm))
                        for lc, lm in leads):
                    return False
    return True


def test_reduced_basis_is_fully_tail_reduced():
    gb = ideal_of("x^2", "x*y^2 + y^3 + x^2", n=2)
    assert sorted(repr(v.components[0]) for v in gb) == [
        "x*y^2 + y^3", "x^2", "y^4"]
    rng = random.Random(29)
    for _ in range(15):
        # a monomial among the generators
        gb = ideal_gb([P("x^2", 2), rand_poly(rng, 2, 3), rand_poly(rng, 2, 3)])
        assert tails_are_irreducible(gb)


def test_koszul_syzygy_of_two_variables():
    syz = syzygies([fmv(P("x", 2)), fmv(P("y", 2))])
    expected = buchberger([fmv(P("y", 2), P("-x", 2))])
    assert gb_equal(buchberger(syz), expected)


def test_regular_sequence_has_koszul_syzygies_only():
    # d(x^3+y^3+z^3): codimension 3 confirms a regular sequence, so the
    # syzygy module is generated by the pairwise Koszul relations.
    n = 3
    f = P("x^3+y^3+z^3", n)
    grads = [f.deriv(i) for i in range(n)]
    assert codim(ideal_gb(grads)) == 3
    zero = Polynomial.zero(n)
    koszul = []
    for i in range(n):
        for j in range(i + 1, n):
            comps = [zero] * n
            comps[i] = grads[j]
            comps[j] = -grads[i]
            koszul.append(FreeModuleVector(comps))
    computed = syzygies([fmv(g) for g in grads])
    assert gb_equal(buchberger(computed), buchberger(koszul))


def test_syzygies_are_exact_relations():
    rng = random.Random(29)
    for _ in range(10):
        gens = [rand_poly(rng, 2, 2) for _ in range(3)]
        gens = [g for g in gens if not g.is_zero()]
        if len(gens) < 2:
            continue
        for s in syzygies([fmv(g) for g in gens]):
            acc = Polynomial.zero(2)
            for c, g in zip(s.components, gens):
                acc = acc + c * g
            assert acc.is_zero()


def test_ideal_quotient_saturation_eliminate():
    assert gb_equal(ideal_quotient(ideal_of("x^2", n=2), P("x", 2)),
                    ideal_of("x", n=2))
    # (x^2*y : x^inf) = (y), reached after two quotients by x
    assert gb_equal(ideal_quotient(ideal_quotient(ideal_of("x^2*y", n=2),
                                                  P("x", 2)), P("x", 2)),
                    ideal_of("y", n=2))
    # image of the parabola is dense: eliminating x leaves nothing
    el = eliminate([P("y - x^2", 2)], [0])
    assert el.is_zero_module()
    # the twisted cubic: eliminating x leaves the cuspidal relation
    el2 = eliminate([P("y - x^2", 3), P("z - x^3", 3)], [0], nvars=3)
    assert gb_equal(el2, ideal_of("y^3 - z^2", n=3))


def test_eliminate_zero_and_empty_input():
    """All-zero input is decided by ``ideal_gb``: it and an empty list with
    nvars give the zero module; an empty list without nvars has no ring."""
    for el in (eliminate([], [0], nvars=2),
               eliminate([Polynomial.zero(2)], [0]),
               eliminate([Polynomial.zero(2), Polynomial.zero(2)], [1])):
        assert el.is_zero_module()
        assert (el.rank, el.nvars) == (1, 2)
    with pytest.raises(ValueError, match="needs nvars"):
        eliminate([], [0])
    # nvars=0 is a ring, not a missing argument
    assert eliminate([], [], nvars=0).nvars == 0


def test_quotient_by_zero_rejected():
    with pytest.raises(ValueError):
        ideal_quotient(ideal_of("x", n=1), Polynomial.zero(1))


def test_zero_generators_and_wrong_ranks():
    # all-zero generators give the zero module; no generators at all leave
    # the rank undetermined
    zero = ideal_gb([Polynomial.zero(2), Polynomial.zero(2)])
    assert zero.is_zero_module()
    assert not local_membership_at_origin(P("x", 2), zero)
    with pytest.raises(ValueError):
        ideal_gb([])
    tagged = groebner.tagged_basis([fmv(P("x", 2), P("y", 2))])
    with pytest.raises(ValueError):
        groebner.tagged_lift(fmv(P("x", 2)), tagged)


@pytest.mark.parametrize("rel", [[], [fmv(P("x*y", 2), P("y^2", 2))]])
def test_colon_by_zero_is_the_whole_module(rel):
    # 0 * v lies in every Rel, so (Rel : 0) = O^2
    zero, one = Polynomial.zero(2), Polynomial.one(2)
    quot = groebner.module_quotient_by_poly(rel, zero, 2, 2)
    assert gb_equal(buchberger(quot),
                    buchberger([fmv(one, zero), fmv(zero, one)]))
    # and (0 : g) = 0 for g != 0
    assert groebner.module_quotient_by_poly([], P("x", 2), 2, 2) == []


def test_codim_examples():
    for n in (1, 2, 4):
        gb = ideal_gb([Polynomial.variable(n, i) for i in range(n)])
        assert codim(gb) == n
    assert codim(ideal_of("x", "x*y", n=2)) == 1
    assert codim(ideal_of("1+x-x", n=2)) == inf  # unit ideal
    f = P("x^3+y^3+z^3", 3)
    assert codim(ideal_gb([f.deriv(i) for i in range(3)])) == 3


def test_local_membership_at_origin():
    assert local_membership_at_origin(P("x*(1+y)", 2), ideal_of("x", n=2))
    assert local_membership_at_origin(P("x", 1), ideal_of("x*(1+x)", n=1))
    assert not local_membership_at_origin(P("y", 2), ideal_of("x", n=2))


def test_local_membership_agrees_with_global_for_homogeneous():
    rng = random.Random(31)
    for _ in range(15):
        h = rand_homog_poly(rng, 2, 2)
        if h.is_zero():
            continue
        g = rand_homog_poly(rng, 2, 3)
        gb = ideal_gb([h])
        local = local_membership_at_origin(g, gb)
        glob = divmod_zero(g, h)
        assert local == glob


def test_ideal_lift_reconstructs_membership():
    gens = [P("x^2 - y", 2), P("y^2", 2)]
    g = P("x^2*y^2 - y^3 + x*y^2", 2)
    lift = ideal_lift(g, gens)
    assert lift is not None
    acc = Polynomial.zero(2)
    for q, h in zip(lift, gens):
        acc = acc + q * h
    assert acc == g
    assert ideal_lift(P("x", 2), gens) is None


def test_graded_min_generators():
    x, y = P("x", 2), P("y", 2)
    vecs = [fmv(x), fmv(y), fmv(x * x + x * y), fmv(x * y)]
    kept, degs = graded_min_generators(vecs)
    assert degs == [1, 1]
    assert gb_equal(buchberger(kept), buchberger(vecs))


def test_membership_agrees_with_bruteforce_oracle():
    # homogeneous instances: the span test at degree = deg g is exact
    rng = random.Random(41)
    checked = 0
    while checked < 30:
        n = rng.randint(1, 3)
        gens = [rand_homog_poly(rng, n, rng.randint(1, 2)) for _ in range(2)]
        gens = [g for g in gens if not g.is_zero()]
        if not gens:
            continue
        g = rand_homog_poly(rng, n, rng.randint(1, 3))
        if g.is_zero():
            continue
        gb = ideal_gb(gens)
        assert ideal_member(g, gb) == span_membership(g, gens, g.degree())
        checked += 1


def test_membership_oracle_inhomogeneous_two_sided():
    rng = random.Random(43)
    checked = 0
    while checked < 20:
        n = rng.randint(1, 2)
        gens = [rand_poly(rng, n, 2) for _ in range(2)]
        gens = [g for g in gens if not g.is_zero()]
        if not gens:
            continue
        g = rand_poly(rng, n, 3)
        if g.is_zero():
            continue
        gb = ideal_gb(gens)
        member = ideal_member(g, gb)
        if member:
            lift = ideal_lift(g, gens)
            assert lift is not None
            bound = max((q * h).degree() for q, h in zip(lift, gens)
                        if not q.is_zero())
            assert span_membership(g, gens, max(bound, 0))
        else:
            # a span certificate at any bound would contradict the engine
            assert not span_membership(g, gens, g.degree() + 2)
        checked += 1


def test_returned_basis_satisfies_buchberger_criterion():
    rng = random.Random(47)
    for _ in range(10):
        gens = [rand_poly(rng, 3, 2) for _ in range(3)]
        gens = [fmv(g) for g in gens if not g.is_zero()]
        if not gens:
            continue
        gb = buchberger(gens)
        if gb.generators:
            assert is_groebner_basis(gb.generators, gb.order)
