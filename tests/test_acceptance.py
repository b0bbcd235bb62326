"""Acceptance suite: one test per criterion, exact assertions throughout.

Run with ``pytest -v -s tests/test_acceptance.py`` to see the PASS line and
wall-clock time per criterion (the stated times are desktop targets, not
assertions).
"""

import random
import time
from fractions import Fraction

import pytest

from logdiv.arrangements import example9_objects, generic_dn, lemma19_check, prop17_check
from logdiv.grammar import parse_operator, parse_polynomial
from logdiv.groebner import (FreeModuleVector, buchberger, gb_equal, ideal_gb,
                             ideal_lift, ideal_member, in_submodule,
                             is_groebner_basis, normal_form)
from logdiv.logder import ann_theta, euler_field, log_derivations
from logdiv.poly import Polynomial
from logdiv.symalg import (alpha_image_nf, grade_criterion,
                           pi_injectivity_test, rees_kernel, sym_presentation,
                           symk_module, torsion_test_symk)
from logdiv.vfilt import (_conditions, compare_v0, default_weight_range,
                          v0_graded_basis, v_member, v_membership)
from logdiv.weyl import WeylOperator, apply_op, compose

from oracles import (affine_map, affine_transform, brute_v0_dimension,
                     commutator, is_direct_sum, rand_poly, span_membership,
                     subs)


class _Timer:
    def __init__(self, label):
        self.label = label

    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        status = "PASS" if exc_type is None else "FAIL"
        print(f"ACCEPTANCE {self.label}: {status} "
              f"({time.perf_counter() - self.t0:.2f}s)")
        return False


def P(s, n):
    return parse_polynomial(s, n)


def unit_field(n, i, coeff=None):
    zero = Polynomial.zero(n)
    comps = [zero] * n
    comps[i] = coeff if coeff is not None else Polynomial.one(n)
    return FreeModuleVector(comps)


@pytest.fixture(scope="module")
def quintic():
    arr, Q = example9_objects()
    return arr.f, Q


def test_criterion_1_normal_crossing_modules():
    with _Timer("1 (normal crossing log derivations)"):
        for m, k in ((0, 2), (1, 2), (0, 3)):
            n = m + k
            f = Polynomial.one(n)
            for i in range(m, n):
                f = f * Polynomial.variable(n, i)
            dm = log_derivations(f)
            expected = [unit_field(n, i) for i in range(m)]
            expected += [unit_field(n, i, Polynomial.variable(n, i))
                         for i in range(m, n)]
            assert gb_equal(buchberger(dm.generators), buchberger(expected))


def test_criterion_2_example9_membership(quintic):
    with _Timer("2 (order-2 operator lies in level 0)"):
        f, Q = quintic
        conds = list(_conditions(f.nvars, Q.order(), 0))
        assert {(sum(a), l) for a, l in conds} == {(0, 1), (1, 1), (0, 2)}
        assert len(conds) == 5
        assert v_membership(f, Q, 0)


def test_criterion_3_example16_gap(quintic):
    with _Timer("3 (symbol gap, injectivity, graded comparison)"):
        f, Q = quintic
        dm = log_derivations(f).minimalized()
        assert not alpha_image_nf(dm, Q, 2).is_zero()
        sp = sym_presentation(dm)
        rk = rees_kernel(dm)
        assert pi_injectivity_test(sp, rk)
        cmp = compare_v0(f, 2, 3, dm)
        assert not cmp.equal
        assert cmp.witness is not None
        assert v_member(f, cmp.witness, 0)


def test_criterion_4_lemma19_prop17():
    for n in (3, 4, 5):
        with _Timer(f"4 (standard basis and splitting, n={n})"):
            assert lemma19_check(n)
            assert prop17_check(n)


def test_criterion_5_d3_certification():
    with _Timer("5 (three-plane-plus-sum arrangement certified)"):
        arr = generic_dn(3)
        f = arr.f
        chi = euler_field(f)
        assert chi is not None
        # recover a complement of the Euler line automatically
        from logdiv.criterion import _split_complement
        comp = _split_complement(log_derivations(f), chi)
        assert comp is not None
        a_gens = comp.generators
        assert is_direct_sum(FreeModuleVector(chi.first_order_part()), a_gens)
        from logdiv.logder import DerivationModule, _cofactor
        cofs = [_cofactor(v, f) for v in a_gens]
        assert comp.cofactors == cofs     # taken by index, not re-divided
        dm_a = DerivationModule(f, a_gens, cofs)
        cert = grade_criterion(dm_a, 0)
        assert cert.applicable          # rank-one resolution found
        assert cert.grade == 3 and cert.required == 3
        assert cert.certified
        assert gb_equal(ideal_gb(cert.ideal_generators),
                        ideal_gb([P("x", 3), P("y", 3), P("z", 3)]))


def test_criterion_6_dimension_three_instances():
    from logdiv.criterion import criterion_certificate
    for text in ("x^3+y^3+z^3", "x^2+y^2+z^2", "x^5+y^3+z^2"):
        with _Timer(f"6 (isolated quasi-homogeneous: {text})"):
            f = P(text, 3)
            cert = criterion_certificate(f, 0, symk_bound=2, route="ann")
            assert cert["verdict"] == "certified"
            ann = ann_theta(f)
            gc = grade_criterion(ann, 0)
            assert gc.applicable and gc.certified
            grads = [f.deriv(i) for i in range(3)]
            assert gb_equal(ideal_gb(gc.ideal_generators), ideal_gb(grads))
            assert gc.grade == 3


def test_criterion_7_quadric_c4():
    with _Timer("7 (four-variable quadric torsion witnesses)"):
        f = P("x^2+y^2+z^2+w^2", 4)
        ann = ann_theta(f)
        sp = sym_presentation(ann)
        report = torsion_test_symk(sp, 2)
        assert [i for i, _ in report.witnesses] == [0, 1, 2, 3]
        _, rel_vecs, _ = symk_module(sp, 2)
        relgb = buchberger(rel_vecs)
        for i, wvec in report.witnesses:
            xi = Polynomial.variable(4, i)
            assert not in_submodule(wvec, relgb)
            assert in_submodule(wvec.scale(xi), relgb)
        rk = rees_kernel(ann)
        assert not pi_injectivity_test(sp, rk)


def test_criterion_8_d4_torsion():
    with _Timer("8 (four-plane-plus-sum arrangement torsion)"):
        dm = generic_dn(4).a_module()
        sp = sym_presentation(dm)
        report = torsion_test_symk(sp, 2)
        assert [i for i, _ in report.witnesses] == [0, 1, 2, 3]


# -- criterion 9: property suites ---------------------------------------------


def test_criterion_9a_groebner_properties():
    with _Timer("9a (Buchberger criterion + membership oracle, 100 cases)"):
        rng = random.Random(101)
        checked = 0
        while checked < 100:
            n = rng.randint(1, 3)
            gens = [rand_poly(rng, n, 3) for _ in range(rng.randint(1, 3))]
            gens = [g for g in gens if not g.is_zero()]
            if not gens:
                continue
            gb = ideal_gb(gens)
            if gb.generators:
                assert is_groebner_basis(gb.generators, gb.order)
            g = rand_poly(rng, n, 3)
            if g.is_zero():
                continue
            member = ideal_member(g, gb)
            if member:
                lift = ideal_lift(g, gens)
                assert lift is not None
                bound = max(((q * h).degree() for q, h in zip(lift, gens)
                             if not q.is_zero()), default=0)
                assert span_membership(g, gens, max(bound, g.degree()))
            else:
                assert not span_membership(g, gens, g.degree() + 2)
            checked += 1


def _rand_op(rng, nvars, max_order):
    terms = {}
    for _ in range(rng.randint(1, 3)):
        beta = tuple(rng.randint(0, max_order) for _ in range(nvars))
        if sum(beta) > max_order:
            continue
        p = rand_poly(rng, nvars, 2, zero_ok=True)
        if not p.is_zero():
            terms[beta] = terms.get(beta, Polynomial.zero(nvars)) + p
    return WeylOperator(nvars, terms)


def test_criterion_9b_weyl_properties():
    with _Timer("9b (Weyl associativity and action, 100 triples)"):
        rng = random.Random(103)
        for _ in range(100):
            n = rng.randint(1, 2)
            A, B, C = (_rand_op(rng, n, 2) for _ in range(3))
            assert compose(compose(A, B), C) == compose(A, compose(B, C))
            g = rand_poly(rng, n, 3, zero_ok=True)
            assert apply_op(compose(A, B), g) == apply_op(A, apply_op(B, g))


def test_criterion_9c_linear_invariance():
    with _Timer("9c (membership invariance under 20 GL2 changes)"):
        rng = random.Random(107)
        f = P("x*y", 2)
        ops = [parse_operator(s, 2) for s in
               ("x*dx", "dx", "y*dy + x*dx", "x*dx^2", "x*y", "dx*dy")]
        trials = 0
        while trials < 20:
            A = [[Fraction(rng.randint(-2, 2)) for _ in range(2)]
                 for _ in range(2)]
            if A[0][0] * A[1][1] - A[0][1] * A[1][0] == 0:
                continue
            f2 = subs(f, affine_map(A, [0, 0]))
            for Pop in ops:
                Q = affine_transform(Pop, A, [0, 0])
                for k in (0, 1):
                    assert v_member(f, Pop, k) == v_member(f2, Q, k)
            trials += 1


def test_criterion_9d_derivation_module_checks():
    with _Timer("9d (cofactor and bracket closure on computed modules)"):
        cases = [P("x*y", 2), P("x", 3), generic_dn(3).f,
                 example9_objects()[0].f, P("x^2+y^2+z^2+w^2", 4)]
        for f in cases:
            for dm in (log_derivations(f), ann_theta(f)):
                gb = buchberger(dm.generators)
                ops = dm.operators()
                for v, c, op in zip(dm.generators, dm.cofactors, ops):
                    assert apply_op(op, f) == c * f
                for i in range(len(ops)):
                    for j in range(i + 1, len(ops)):
                        br = commutator(ops[i], ops[j])
                        vec = FreeModuleVector(br.first_order_part())
                        assert normal_form(vec, gb).is_zero()


def test_criterion_9e_basis_dimensions_vs_bruteforce():
    with _Timer("9e (graded dimensions match the brute-force kernel)"):
        nc = P("x*y", 2)
        for d in (0, 1, 2):
            for w in range(-4, 5):
                assert v0_graded_basis(nc, d, w).dim == \
                    brute_v0_dimension(nc, d, w)
        f3 = generic_dn(3).f
        for d in (1, 2):
            for w in range(-4, 5):
                assert v0_graded_basis(f3, d, w).dim == \
                    brute_v0_dimension(f3, d, w)


def test_criterion_9f_free_divisor_equality():
    with _Timer("9f (plane free divisors: level 0 is generated)"):
        for text in ("x*y", "x^3 + x*y^2", "x*(x-y)*(x+y)"):
            f = P(text, 2)
            for d in (0, 1, 2):
                for w in default_weight_range(f, d):
                    assert compare_v0(f, d, w).equal, (text, d, w)
