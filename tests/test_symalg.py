import pytest

from logdiv.grammar import parse_polynomial
from logdiv.groebner import (FreeModuleVector, buchberger, gb_equal,
                             ideal_gb, in_submodule)
from logdiv.logder import ann_theta, log_derivations
from logdiv.poly import Polynomial
from logdiv.symalg import (alpha_image_nf, grade_criterion,
                           module_quotient_by_poly,
                           pi_injectivity_test, rees_kernel, sym_presentation,
                           symk_module, torsion_test_symk)


def P(s, n):
    return parse_polynomial(s, n)


@pytest.fixture(scope="module")
def a3():
    from logdiv.arrangements import generic_dn
    return generic_dn(3).a_module()


@pytest.fixture(scope="module")
def a4():
    from logdiv.arrangements import generic_dn
    return generic_dn(4).a_module()


@pytest.fixture(scope="module")
def quadric_ann():
    return ann_theta(P("x^2+y^2+z^2+w^2", 4))


def test_a3_presentation(a3):
    sp = sym_presentation(a3)
    assert sp.base_dim == 3 and sp.module_rank == 3
    # single linear relation x3*T1 - x2*T2 + x1*T3 in the 6-variable ring
    assert len(sp.relations) == 1
    expected = (P("x3", 6) * P("x4", 6) - P("x2", 6) * P("x5", 6)
                + P("x1", 6) * P("x6", 6))
    rel = sp.relations[0]
    assert rel == expected or rel == -expected


def test_free_module_has_no_relations():
    dm = log_derivations(P("x*y", 2))
    sp = sym_presentation(dm)
    assert sp.relations == []
    rk = rees_kernel(dm)
    assert rk.generators == []
    assert pi_injectivity_test(sp, rk)
    for k in (1, 2, 3):
        assert torsion_test_symk(sp, k).torsion_free


def test_quadric_relations_are_koszul_like(quadric_ann):
    sp = sym_presentation(quadric_ann)
    assert sp.module_rank == 6
    assert len(sp.relations) == 4
    n, m = sp.base_dim, sp.module_rank
    for rel in sp.relations:
        # linear in T with linear coefficients
        assert rel.is_homogeneous() and rel.degree() == 2
        assert all(sum(mono[n:]) == 1 for mono in rel.terms)
    # each relation really is a syzygy of the generators
    for s in quadric_ann.first_syzygies:
        acc = [Polynomial.zero(4) for _ in range(4)]
        for c, g in zip(s.components, quadric_ann.generators):
            for i in range(4):
                acc[i] = acc[i] + c * g.components[i]
        assert all(p.is_zero() for p in acc)


def test_rees_kernel_of_free_module():
    dm = log_derivations(P("x", 3))  # smooth: free with basis x d1, d2, d3
    rk = rees_kernel(dm)
    assert rk.generators == []


def test_pi_injectivity(a3, quadric_ann):
    sp3 = sym_presentation(a3)
    rk3 = rees_kernel(a3)
    assert pi_injectivity_test(sp3, rk3)
    spq = sym_presentation(quadric_ann)
    rkq = rees_kernel(quadric_ann)
    assert not pi_injectivity_test(spq, rkq)


def test_rees_projection_is_a_groebner_basis(quadric_ann):
    # the xi-free part of the elimination basis restricts to a reduced
    # degrevlex basis of the kernel in the smaller ring
    from logdiv.groebner import is_groebner_basis
    rk = rees_kernel(quadric_ann)
    assert is_groebner_basis(rk.generators, rk.order)


def test_criterion_does_not_certify_the_quintic():
    # the five-plane arrangement has a genuine gap at order two, so the
    # certification hypotheses must fail even though pi is injective
    from logdiv.arrangements import example9_objects
    from logdiv.criterion import criterion_certificate
    arr, _ = example9_objects()
    cert = criterion_certificate(arr.f, 0, symk_bound=2, route="both")
    assert cert["verdict"] == "inconclusive"
    assert not cert["certified"]
    assert not cert["torsion_witnesses"]
    assert all(r["resolution_shape"] == "na" for r in cert["routes"])


def test_pi_injectivity_quintic():
    from logdiv.arrangements import example9_objects
    arr, _ = example9_objects()
    dm = log_derivations(arr.f).minimalized()
    sp = sym_presentation(dm)
    rk = rees_kernel(dm)
    assert pi_injectivity_test(sp, rk)


def test_j_contained_in_rees_kernel(a3, a4, quadric_ann):
    for dm in (a3, a4, quadric_ann):
        sp = sym_presentation(dm)
        rk = rees_kernel(dm)
        for rel in sp.relations:
            assert in_submodule(FreeModuleVector.from_polynomial(rel), rk)


def test_torsion_witnesses_quadric(quadric_ann):
    sp = sym_presentation(quadric_ann)
    report = torsion_test_symk(sp, 2)
    assert not report.torsion_free
    assert [i for i, _ in report.witnesses] == [0, 1, 2, 3]
    # verify the witness property exactly: x_i * w in Rel, w not in Rel
    _, rel_vecs, _ = symk_module(sp, 2)
    relgb = buchberger(rel_vecs)
    for i, w in report.witnesses:
        xi = Polynomial.variable(4, i)
        assert not in_submodule(w, relgb)
        assert in_submodule(w.scale(xi), relgb)


def test_torsion_witnesses_d4(a4):
    sp = sym_presentation(a4)
    report = torsion_test_symk(sp, 2)
    assert [i for i, _ in report.witnesses] == [0, 1, 2, 3]


def test_lemma11_two_way_agreement(a3, a4, quadric_ann):
    # injective => no witness at small degrees; witness => not injective
    cases = [a3, a4, quadric_ann, log_derivations(P("x*y", 2))]
    for dm in cases:
        sp = sym_presentation(dm)
        rk = rees_kernel(dm)
        injective = pi_injectivity_test(sp, rk)
        found = any(not torsion_test_symk(sp, k).torsion_free for k in (1, 2))
        if injective:
            assert not found
        if found:
            assert not injective


def test_torsion_negative_matches_linear_algebra_oracle(a3):
    # the certified torsion-free module shows no degreewise torsion class
    # in low degrees under an independent dense linear-algebra check
    sp = sym_presentation(a3)
    tmonos, rel_vecs, _ = symk_module(sp, 2)
    from oracles import torsion_class_exists_at_degree
    for var in range(3):
        for d in (1, 2, 3):
            assert not torsion_class_exists_at_degree(
                rel_vecs, len(tmonos), 3, var, d)


def test_torsion_positive_matches_linear_algebra_oracle(quadric_ann):
    sp = sym_presentation(quadric_ann)
    tmonos, rel_vecs, _ = symk_module(sp, 2)
    report = torsion_test_symk(sp, 2)
    from oracles import torsion_class_exists_at_degree
    for var, w in report.witnesses:
        d = max(p.degree() for p in w.components if not p.is_zero())
        assert torsion_class_exists_at_degree(
            rel_vecs, len(tmonos), 4, var, d)


def test_module_quotient_trivial():
    assert module_quotient_by_poly([], P("x", 2), 3, 2) == []


# -- grade criterion --------------------------------------------------------

def test_grade_criterion_a3(a3):
    cert = grade_criterion(a3, 0)
    assert cert.applicable and cert.grade == 3 and cert.required == 3
    assert cert.certified
    assert gb_equal(ideal_gb(cert.ideal_generators),
                    ideal_gb([P("x", 3), P("y", 3), P("z", 3)]))


def test_grade_criterion_monotone_in_dimz(a3):
    assert grade_criterion(a3, 0).certified
    assert not grade_criterion(a3, 1).certified


def test_grade_criterion_koszul_cubic():
    f = P("x^3+y^3+z^3", 3)
    ann = ann_theta(f)
    cert = grade_criterion(ann, 0)
    assert cert.applicable and cert.certified and cert.grade == 3
    grads = [f.deriv(i) for i in range(3)]
    assert gb_equal(ideal_gb(cert.ideal_generators), ideal_gb(grads))


def test_grade_criterion_not_applicable_for_quadric(quadric_ann):
    cert = grade_criterion(quadric_ann, 0)
    assert not cert.applicable
    assert not cert.certified


def test_grade_criterion_free_module():
    cert = grade_criterion(log_derivations(P("x*y", 2)), 0)
    assert not cert.applicable  # resolution has length zero, nothing to do


# -- symbol image -------------------------------------------------------------

def test_alpha_image_excludes_example9_witness():
    from logdiv.arrangements import example9_objects
    arr, Q = example9_objects()
    dm = log_derivations(arr.f).minimalized()
    assert not alpha_image_nf(dm, Q, 2).is_zero()


def test_alpha_image_contains_generator_products():
    from logdiv.arrangements import generic_dn
    from logdiv.weyl import WeylOperator, compose
    arr = generic_dn(3)
    dm = arr.a_module()
    e1 = WeylOperator.vector_field(dm.generators[0].components)
    e2 = WeylOperator.vector_field(dm.generators[1].components)
    assert alpha_image_nf(dm, compose(e1, e2), 2).is_zero()
