import random
import time
from fractions import Fraction
from math import inf

import pytest

from logdiv.grammar import parse_operator, parse_polynomial
from logdiv.poly import Polynomial, divide_exact, monomials_of_degree
from logdiv.weyl import WeylOperator, apply_op, compose, symbol

from oracles import (affine_map, affine_transform, commutator,
                     leibniz_compose, rand_op, rand_poly, subs)


def P(s, n):
    return parse_polynomial(s, n)


def OP(s, n):
    return parse_operator(s, n)


def test_canonical_commutation():
    assert commutator(OP("dx", 1), OP("x", 1)) == WeylOperator.constant(1, 1)


def test_normal_ordering_of_compose():
    n = 3
    for i in range(n):
        for j in range(n):
            di = WeylOperator.partial(n, i)
            xj = WeylOperator.from_polynomial(Polynomial.variable(n, j))
            got = compose(di, xj)
            expected = compose(xj, di)
            if i == j:
                expected = expected + WeylOperator.constant(n, 1)
            assert got == expected


def test_apply_basics():
    assert apply_op(OP("dx", 1), P("x^2", 1)) == P("2*x", 1)
    for m in range(1, 5):
        assert apply_op(OP("x*dx", 1), P(f"x^{m}", 1)) == P(f"{m}*x^{m}", 1)


def test_example9_operator_drops_into_the_divisor_ideal():
    from logdiv.arrangements import example9_objects
    arr, Q = example9_objects()
    image = apply_op(Q, arr.f)
    assert divide_exact(image, arr.f) is not None


def test_compose_matches_apply_oracle_on_eta_fields():
    # order-2 product of two arrangement fields, checked against iterated
    # application on every monomial of degree <= 4; then random operators
    # whose derivative exponents exceed the degrees of the coefficients
    # they meet, against the all-delta Leibniz sum as well
    from logdiv.arrangements import generic_dn
    arr = generic_dn(3)
    etas = arr.eta_list()
    P12 = WeylOperator.vector_field(etas[0].components)
    P13 = WeylOperator.vector_field(etas[1].components)
    C = compose(P12, P13)
    assert C.order() == 2
    assert symbol(C) == symbol(P12) * symbol(P13)
    for d in range(5):
        for m in monomials_of_degree(3, d):
            g = Polynomial.monomial(3, m)
            assert apply_op(C, g) == apply_op(P12, apply_op(P13, g))
    rng = random.Random(71)
    past = 0
    for _ in range(25):
        n = rng.randint(1, 2)
        A = rand_op(rng, n, 5, max_coeff_deg=1)
        B = rand_op(rng, n, 2, max_coeff_deg=1)
        C = compose(A, B)
        assert C == leibniz_compose(A, B)
        past += any(e > q.degree() for beta in A.terms for e in beta
                    for q in B.terms.values())
        for d in range(8):
            for m in monomials_of_degree(n, d):
                g = Polynomial.monomial(n, m)
                assert apply_op(C, g) == apply_op(A, apply_op(B, g))
    assert past >= 10


def test_bracket_identity_with_function_coefficient():
    # [xi, a*eta] = a*[xi, eta] + xi(a)*eta for vector fields
    rng = random.Random(13)
    n = 2
    for _ in range(10):
        xi = WeylOperator.vector_field([rand_poly(rng, n, 2, zero_ok=True)
                                        for _ in range(n)])
        eta = WeylOperator.vector_field([rand_poly(rng, n, 2, zero_ok=True)
                                         for _ in range(n)])
        a = rand_poly(rng, n, 2)
        lhs = commutator(xi, eta.left_mul(a))
        rhs = commutator(xi, eta).left_mul(a) + eta.left_mul(apply_op(xi, a))
        assert lhs == rhs


def test_associativity_and_action_random():
    rng = random.Random(19)
    for _ in range(25):
        n = rng.randint(1, 2)
        A, B, C = (rand_op(rng, n, 2) for _ in range(3))
        assert compose(compose(A, B), C) == compose(A, compose(B, C))
        g = rand_poly(rng, n, 3, zero_ok=True)
        assert apply_op(compose(A, B), g) == apply_op(A, apply_op(B, g))


def test_order_subadditive_and_symbol_multiplicative():
    rng = random.Random(37)
    for _ in range(20):
        n = rng.randint(1, 2)
        A, B = rand_op(rng, n, 2), rand_op(rng, n, 2)
        if A.is_zero() or B.is_zero():
            continue
        C = compose(A, B)
        assert C.order() <= A.order() + B.order()
        # polynomial coefficients form a domain: top parts cannot cancel
        assert C.order() == A.order() + B.order()
        assert symbol(C) == symbol(A) * symbol(B)


def test_symbol_examples():
    Psym = symbol(OP("x*dx^2 + dx", 1))
    assert Psym == P("x1*x2^2", 2)
    with pytest.raises(ValueError):
        symbol(WeylOperator.zero(2))
    assert WeylOperator.zero(2).order() == -inf


def test_symbol_xi_degree_is_order():
    rng = random.Random(53)
    for _ in range(20):
        A = rand_op(rng, 2, 3)
        if A.is_zero():
            continue
        s = symbol(A)
        xi_degs = {sum(m[2:]) for m in s.terms}
        assert xi_degs == {A.order()}


def test_example9_symbol_display():
    # right-hand factor carries the corrected sign on the mixed term
    from logdiv.arrangements import example9_objects
    _, Q = example9_objects()
    expected = P("(x1+x2+x3)*(x1+2*x2+3*x3)*(3*x3*x2^2*x5^2"
                 " - (x1+4*x2-3*x3)*x2*x3*x5*x6 - 4*x2*x3^2*x6^2)", 6)
    assert symbol(Q) == expected


def test_weights():
    from logdiv.arrangements import example9_objects
    _, Q = example9_objects()
    assert Q.order() == 2
    assert Q.weight() == 3
    mixed = OP("x*dx + x", 1)
    assert mixed.weight() is None
    assert OP("x*dx + dx", 1).weight() is None
    assert OP("x*dx + y*dy + x^2*dy", 2).weight() is None
    assert WeylOperator.zero(2).weight() is None
    assert OP("x^2*dx + x*y*dy", 2).weight() == 1
    assert OP("x*dx + y*dy", 2).weight((3, 5)) == 0
    assert OP("dx + x*dx^2 + y*dx*dy", 2).weight((1, 2)) == -1


def test_quasi_weights_on_operators():
    # y1 d1 has weight 0 under any variable weights
    op = OP("x*dx", 2)
    assert op.weight((3, 5)) == 0


def test_operator_parser_roundtrip():
    rng = random.Random(61)
    for _ in range(40):
        n = rng.randint(1, 4)
        A = rand_op(rng, n, 2)
        assert parse_operator(repr(A), n) == A


def test_affine_transform_intertwines_application():
    rng = random.Random(67)
    n = 2
    for _ in range(10):
        A = [[Fraction(rng.randint(-2, 2)) for _ in range(n)] for _ in range(n)]
        if A[0][0] * A[1][1] - A[0][1] * A[1][0] == 0:
            continue
        a = [Fraction(rng.randint(-2, 2)) for _ in range(n)]
        Pop = rand_op(rng, n, 2)
        Q = affine_transform(Pop, A, a)
        phi = affine_map(A, a)
        for _ in range(5):
            g = rand_poly(rng, n, 3, zero_ok=True)
            assert apply_op(Q, subs(g, phi)) == subs(apply_op(Pop, g), phi)


def test_pow_is_repeated_compose_for_seeded_operators():
    rng = random.Random(27)
    for _ in range(10):
        n = rng.randint(1, 2)
        A = rand_op(rng, n, 2)
        while all(p.is_constant() for p in A.terms.values()):
            A = A + rand_op(rng, n, 2)
        expected = WeylOperator.constant(n, 1)
        for k in range(8):
            assert A ** k == expected, (A, k)
            expected = compose(expected, A)


def test_parsed_powers_square_repeatedly():
    p, A = P("x - 2*y + 1", 2), OP("x*dy + dx - y", 2)
    p_k, A_k = Polynomial.one(2), OP("1", 2)
    for k in range(6):
        assert P(f"(x - 2*y + 1)^{k}", 2) == p_k
        assert OP(f"(x*dy + dx - y)^{k}", 2) == A_k
        p_k, A_k = p_k * p, compose(A_k, A)
    t0 = time.perf_counter()
    assert P("x^1000000", 1).degree() == 1000000
    assert OP("dx^5000", 1).order() == 5000
    assert OP("dx^1000000000", 1).order() == 1000000000
    assert OP("dx^1000000*x", 1) == \
        OP("x*dx^1000000 + 1000000*dx^999999", 1)
    assert time.perf_counter() - t0 < 1.0
