from math import comb

import pytest

from logdiv import arrangements
from logdiv.arrangements import (Arrangement, example9_objects, generic_dn,
                                 lemma19_check, prop17_check)
from logdiv.grammar import parse_polynomial
from logdiv.groebner import (FreeModuleVector, buchberger, gb_equal,
                             ideal_gb, in_submodule, is_groebner_basis,
                             syzygies)
from logdiv.logder import log_derivations
from logdiv.poly import DEGREVLEX, Polynomial, PotOrder, divide_exact
from logdiv.weyl import WeylOperator, apply_op


def P(s, n):
    return parse_polynomial(s, n)


def test_generic_dn_counts():
    for n in (2, 3, 4, 5):
        arr = generic_dn(n)
        assert len(arr.eta_index) == comb(n, 2)
        assert len(arr.sigmas) == comb(n, 3)
        assert arr.f.degree() == n + 1
        assert len(arr.hyperplanes) == n + 1


def test_generic_dn_bounds(monkeypatch):
    with pytest.raises(ValueError):
        generic_dn(1)
    with pytest.raises(ValueError):
        generic_dn(7)
    # the bound is read when called
    monkeypatch.setattr(arrangements, "MAX_N", 7)
    assert generic_dn(7).nvars == 7


def test_eta_fields_are_logarithmic():
    for n in (3, 4):
        arr = generic_dn(n)
        for v in arr.etas.values():
            op = WeylOperator.vector_field(v.components)
            assert divide_exact(apply_op(op, arr.f), arr.f) is not None


def test_sigmas_are_exact_syzygies():
    arr = generic_dn(4)
    etas = arr.eta_list()
    for sigma in arr.sigma_list():
        acc = [Polynomial.zero(4)] * 4
        for c, eta in zip(sigma.components, etas):
            for i in range(4):
                acc[i] = acc[i] + c * eta.components[i]
        assert all(p.is_zero() for p in acc)


def test_lemma19():
    for n in (3, 4, 5):
        assert lemma19_check(n)


def test_lemma19_mutation_fails():
    # flip one sign inside a sigma: it stops being a syzygy, so the
    # computed syzygy module no longer matches the sigma span
    arr = generic_dn(3)
    sigma = arr.sigma_list()[0]
    bad = FreeModuleVector((sigma.components[0], -sigma.components[1],
                            sigma.components[2]))
    computed = syzygies(arr.eta_list())
    bad_gb = buchberger([bad])
    assert not all(in_submodule(v, bad_gb) for v in computed)


def test_prop17():
    for n in (2, 3, 4, 5):
        assert prop17_check(n)


def test_prop17_duplicate_generator_breaks():
    arr = generic_dn(3)
    syz = syzygies([arr.chi, arr.chi] + arr.eta_list())
    assert any(not s.components[0].is_zero() for s in syz)


def test_a3_presentation_matches_coordinates_up_to_sign():
    arr = generic_dn(3)
    syz = syzygies(arr.eta_list())
    assert len(syz) == 1
    entries = [p for p in syz[0].components]
    assert gb_equal(ideal_gb(entries),
                    ideal_gb([P("x", 3), P("y", 3), P("z", 3)]))
    # each entry is +- a coordinate and all three coordinates occur
    seen = set()
    for p in entries:
        assert len(p.terms) == 1
        (mono, coeff), = p.terms.items()
        assert abs(coeff) == 1 and sum(mono) == 1
        seen.add(mono.index(1))
    assert seen == {0, 1, 2}


def test_eta_leads_against_pot_order():
    # the input set satisfies Buchberger's criterion under the refining order
    arr = generic_dn(3)
    order = PotOrder(DEGREVLEX, ascending=True)
    assert is_groebner_basis(arr.eta_list(), order)


def test_wiens_minimal_generation():
    for n in (3, 4, 5):
        arr = generic_dn(n)
        dm = log_derivations(arr.f)
        mini = dm.minimalized()
        assert len(mini.generators) == 1 + comb(n, 2)


def test_example9_objects():
    arr, Q = example9_objects()
    assert len(arr.hyperplanes) == 5
    assert arr.f.degree() == 5
    assert Q.order() == 2
    assert Q.weight() == 3
    # coefficient divisibility patterns of the displayed operator
    y2z = P("y^2*z", 3)
    yz = P("y*z", 3)
    yz2 = P("y*z^2", 3)
    assert divide_exact(Q.terms[(0, 2, 0)], y2z) is not None
    assert divide_exact(Q.terms[(0, 1, 1)], yz) is not None
    assert divide_exact(Q.terms[(0, 0, 2)], yz2) is not None


def test_arrangement_rejects_nonlinear():
    with pytest.raises(ValueError):
        Arrangement(2, [P("x^2", 2)], P("x^2", 2))
