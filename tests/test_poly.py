import ast
import pathlib
import random
from fractions import Fraction

import pytest

from logdiv.poly import (DEGREVLEX, LEX, BlockElim, Polynomial, divide_exact,
                         integer_form, monomials_of_degree)
from logdiv.grammar import ParseError, parse_operator, parse_polynomial
from logdiv.weyl import WeylOperator, apply_op, compose

from oracles import (divmod_single, iterated_partial, rand_op, rand_poly,
                     recursive_monomials, schoolbook_mul)


def P(s, n):
    return parse_polynomial(s, n)


def test_difference_of_squares():
    assert P("(x+y)*(x-y)", 2) == P("x^2-y^2", 2)


def test_zero_absorbs():
    p = P("3*x^2*y - 7", 2)
    assert (p * Polynomial.zero(2)).is_zero()
    assert (Polynomial.zero(2) * p).is_zero()


def test_f3_expansion_matches_schoolbook_oracle():
    factors = [P("x", 3), P("y", 3), P("z", 3), P("x+y+z", 3)]
    expected = Polynomial.one(3)
    for g in factors:
        expected = schoolbook_mul(expected, g)
    computed = factors[0] * factors[1] * factors[2] * factors[3]
    assert computed.terms == expected.terms


def test_divide_exact_examples():
    assert divide_exact(P("x^2*y", 2), P("x*y", 2)) == P("x", 2)
    assert divide_exact(P("x^2+y^2", 2), P("x", 2)) is None
    f3 = P("x*y*z*(x+y+z)", 3)
    assert divide_exact(f3 * f3, f3) == f3


def test_divide_by_zero():
    with pytest.raises(ZeroDivisionError):
        divmod_single(P("x", 1), Polynomial.zero(1))
    with pytest.raises(ZeroDivisionError):
        divide_exact(P("x", 1), Polynomial.zero(1))
    with pytest.raises(ZeroDivisionError):
        divide_exact(Polynomial.zero(2), Polynomial.zero(2))


def test_divide_exact_rejects_mismatched_rings():
    with pytest.raises(ValueError):
        divide_exact(P("x", 1), P("x", 2))
    with pytest.raises(ValueError):
        divide_exact(Polynomial.zero(3), P("x+y", 2))


def _division_pairs():
    """Seeded (g, h): exact multiples, random dividends, zero and constant
    dividends and divisors, rational coefficients, and exponents above 127,
    which outgrow the engine's initial exponent slots."""
    rng = random.Random(23)
    pairs = []
    for _ in range(60):
        n = rng.randint(1, 3)
        h = rand_poly(rng, n, 3)
        if h.is_zero():
            continue
        g = rand_poly(rng, n, 4, zero_ok=True)
        pairs.append((g, h))
        pairs.append((g * h, h))
        pairs.append((g * h + rand_poly(rng, n, 2), h))
        pairs.append((Polynomial.zero(n), h))
        pairs.append((Polynomial.constant(n, Fraction(-3, 7)), h))
        pairs.append((g, Polynomial.constant(n, Fraction(5, 2))))
    wide = P("x^130", 2) - P("y", 2) * Fraction(2, 3)
    pairs.extend([(wide * (P("x^2", 2) - P("y", 2) * Fraction(1, 3)), wide),
                  (P("x^200", 2), wide),
                  (P("x^200 + x^131*y", 2), P("x^130", 2)),
                  (P("x^200*y^129", 2), P("x^3*y^128", 2)),
                  (wide ** 2 + P("1", 2), wide)])
    return pairs


def test_divide_exact_agrees_with_the_oracle_division():
    misses = 0
    for g, h in _division_pairs():
        q, r = divmod_single(g, h)
        got = divide_exact(g, h)
        if r.is_zero():
            assert got == q, (g, h)
        else:
            misses += 1
            assert got is None, (g, h)
    assert misses > 50


# past the 4,300 digits that str() converts by default
BIG = 10 ** 4400 + 1


def _fraction_lcm(coeffs):
    """The least d > 0 with every d*c integral, by Fraction arithmetic."""
    d = 1
    for c in coeffs:
        d *= (Fraction(c) * d).denominator
    return d


def test_integer_form_matches_fraction_arithmetic():
    rng = random.Random(29)
    cases = [[], [0], [0, Fraction(0), 0], [3, -4, 0],
             [Fraction(-3, 4), 2, Fraction(5, 6)],
             [Fraction(BIG, 3), -BIG, Fraction(1, BIG), Fraction(-7, 2)]]
    for _ in range(60):
        cases.append([rng.choice((rng.randint(-9, 9),
                                  Fraction(rng.randint(-9, 9),
                                           rng.randint(1, 12))))
                      for _ in range(rng.randint(0, 8))])
    for coeffs in cases:
        den, ints = integer_form(coeffs)
        assert den == _fraction_lcm(coeffs)
        assert all(type(c) is int for c in ints)
        assert ints == [Fraction(c) * den for c in coeffs]
    assert integer_form([]) == (1, [])


def test_from_integers_inverts_integer_form():
    rng = random.Random(31)
    for _ in range(60):
        n = rng.randint(1, 4)
        p = rand_poly(rng, n, 4, zero_ok=True)
        den, ints = integer_form(p.terms.values())
        terms = list(zip(p.terms, ints))
        q = Polynomial.from_integers(n, terms, den)
        assert q == p
        # an int exactly where den divides the integer, else its Fraction
        for m, c in terms:
            got = q.terms[m]
            if c % den:
                assert type(got) is Fraction and got == Fraction(c, den)
            else:
                assert type(got) is int and got == c // den
        # den = 1 reads the ints as they are
        assert Polynomial.from_integers(n, terms) == p * den
    assert Polynomial.from_integers(1, [((1,), BIG), ((0,), -BIG)], 3) == \
        Polynomial(1, {(1,): Fraction(BIG, 3), (0,): Fraction(-BIG, 3)})


def _as_fractions(p):
    """p with every coefficient a Fraction, integral ones too: the
    representation the constructors used before integral coefficients
    became ints."""
    return Polynomial(p.nvars, {m: Fraction(c) for m, c in p.terms.items()},
                      _clean=False)


def _op_as_fractions(op):
    return WeylOperator(op.nvars, {b: _as_fractions(q)
                                   for b, q in op.terms.items()}, _clean=False)


def test_int_and_fraction_coefficients_agree():
    """Integral coefficients as ints or as Fractions give equal results
    that print alike and parse back equal."""
    rng = random.Random(37)
    ints = 0
    for _ in range(60):
        n = rng.randint(1, 3)
        p, q = rand_poly(rng, n, 3, zero_ok=True), rand_poly(rng, n, 3)
        q = q or Polynomial.variable(n, 0)
        A, B = rand_op(rng, n, 2), rand_op(rng, n, 2)
        i = rng.randrange(n)
        beta = tuple(rng.randint(0, 2) for _ in range(n))
        ints += sum(type(c) is int for c in p.terms.values())

        def results(p, q, A, B):
            return ([p + q, p - q, p * q, p ** 3, p.deriv(i), p.partial(beta),
                     divide_exact(p * q, q), apply_op(A, p)],
                    [compose(A, B), A + B, A - B])

        polys, ops = results(p, q, A, B)
        fpolys, fops = results(_as_fractions(p), _as_fractions(q),
                               _op_as_fractions(A), _op_as_fractions(B))
        assert all(type(c) is Fraction
                   for c in _as_fractions(p).terms.values())
        for got, want in zip(polys, fpolys):
            assert got == want and repr(got) == repr(want)
            assert parse_polynomial(repr(got), n) == want
        for got, want in zip(ops, fops):
            assert got == want and repr(got) == repr(want)
            assert parse_operator(repr(got), n) == want
    assert ints > 20


SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "logdiv"


def test_only_poly_converts_coefficients():
    """Coefficients leave the rationals and come back through ``poly``
    alone: no other module reads a numerator or a denominator, except
    ``grammar``, which sizes parsed products by their bit lengths, and the
    integer engines ``groebner`` and ``linalg`` import no Fraction."""
    readers, bad = set(), []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Attribute) and \
                    node.attr in ("numerator", "denominator"):
                readers.add(path.name)
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = [node.module]
            else:
                continue
            if path.name in ("groebner.py", "linalg.py") and \
                    "fractions" in modules:
                bad.append(f"{path.name}:{node.lineno} imports fractions")
    assert "poly.py" in readers
    assert readers <= {"poly.py", "grammar.py"}, readers
    assert bad == []


def test_one_divisor_check():
    """``InvalidDivisor`` is raised in ``logder.require_divisor`` alone,
    the one check every entry point taking a divisor calls."""
    raises = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        owner = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.FunctionDef):
                for inner in ast.walk(node):
                    owner.setdefault(inner, node.name)
        for node in ast.walk(tree):
            if isinstance(node, ast.Raise) and node.exc is not None and \
                    "InvalidDivisor" in ast.unparse(node.exc):
                raises.append((path.name, owner.get(node)))
    assert raises == [("logder.py", "require_divisor")]


def test_constant_term():
    assert P("3+x", 1).constant_term() == 3
    assert Polynomial.zero(2).constant_term() == 0


def test_ring_axioms_random():
    rng = random.Random(7)
    for _ in range(40):
        n = rng.randint(1, 3)
        a, b, c = (rand_poly(rng, n, 3, zero_ok=True) for _ in range(3))
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a * b == b * a


def test_exact_division_roundtrip_random():
    rng = random.Random(11)
    for _ in range(40):
        n = rng.randint(1, 3)
        g = rand_poly(rng, n, 3, zero_ok=True)
        h = rand_poly(rng, n, 2)
        if h.is_zero():
            continue
        assert divide_exact(g * h, h) == g


def test_canonical_form_independent_of_history():
    a = P("x+y", 2)
    one_way = a * a
    another = P("x^2", 2) + 2 * P("x*y", 2) + P("y^2", 2)
    assert one_way.terms == another.terms


def test_pow_matches_repeated_mul():
    p = P("x - 2*y + 1", 2)
    assert p ** 3 == p * p * p
    assert p ** 0 == Polynomial.one(2)
    rng = random.Random(27)
    for _ in range(20):
        n = rng.randint(1, 3)
        p = rand_poly(rng, n, 3, max_terms=5)
        while len(p.terms) < 2:
            p = p + rand_poly(rng, n, 3)
        expected = Polynomial.one(n)
        for k in range(8):
            assert p ** k == expected, (p, k)
            expected = expected * p


def test_partial_matches_iterated_deriv():
    # beta runs past the degree, so some terms and some whole polynomials
    # vanish; rand_poly gives Fraction coefficients
    rng = random.Random(20)
    for _ in range(300):
        n = rng.randint(1, 3)
        g = rand_poly(rng, n, 6, max_terms=6, zero_ok=True)
        beta = tuple(rng.randint(0, 8) for _ in range(n))
        assert g.partial(beta) == iterated_partial(g, beta), (g, beta)


# -- orders -----------------------------------------------------------------

def test_degrevlex_prefers_earlier_variable():
    x, y = (1, 0), (0, 1)
    assert DEGREVLEX.key(x) > DEGREVLEX.key(y)


def test_degrevlex_refines_degree():
    rng = random.Random(3)
    for _ in range(50):
        a = tuple(rng.randint(0, 4) for _ in range(3))
        b = tuple(rng.randint(0, 4) for _ in range(3))
        if sum(a) > sum(b):
            assert DEGREVLEX.key(a) > DEGREVLEX.key(b)


def test_lex_ignores_degree():
    assert LEX.key((1, 0)) > LEX.key((0, 5))


def test_block_order_eliminates():
    order = BlockElim([0], 2)
    # any monomial containing x beats any pure-y monomial
    assert order.key((1, 0)) > order.key((0, 9))


def test_module_orders():
    from logdiv.poly import PotOrder, TopOrder, SyzElimOrder
    top = TopOrder(DEGREVLEX)
    # term first, lower component wins ties
    assert top.key((1, (2, 0))) > top.key((0, (1, 0)))
    assert top.key((0, (1, 0))) > top.key((1, (1, 0)))
    pot = PotOrder(DEGREVLEX, ascending=True)
    # position first: a higher component beats any monomial below it
    assert pot.key((1, (0, 0))) > pot.key((0, (9, 9)))
    shifted = TopOrder(DEGREVLEX, shifts=(0, 3))
    # the shift promotes component 1 by three degrees
    assert shifted.key((1, (0, 0))) > shifted.key((0, (2, 0)))
    syz = SyzElimOrder(1, DEGREVLEX)
    # real block dominates every tag term
    assert syz.key((0, (0, 0))) > syz.key((1, (9, 9)))


def test_monomial_enumeration_count():
    from math import comb
    for n in (1, 2, 3):
        for d in (0, 1, 4):
            assert len(monomials_of_degree(n, d)) == comb(n + d - 1, d)


def test_monomial_enumeration_order_matches_the_recursion():
    # the order of Sym^k relations and witness components depends on it
    for n in range(6):
        for d in range(-2, 8):
            assert monomials_of_degree(n, d) == recursive_monomials(n, d), \
                (n, d)


# -- grammar ----------------------------------------------------------------

def test_parser_roundtrip_random():
    rng = random.Random(23)
    for _ in range(60):
        n = rng.randint(1, 5)
        p = rand_poly(rng, n, 4, zero_ok=True)
        assert parse_polynomial(repr(p), n) == p


def test_parser_rationals_and_parens():
    assert P("3/4*x^2 - (1 - x)*(1 + x)", 1) == \
        Polynomial(1, {(2,): Fraction(7, 4), (0,): Fraction(-1)})


def test_parse_error_reports_position():
    with pytest.raises(ParseError) as err:
        parse_polynomial("x^", 1)
    assert err.value.line == 1 and err.value.col == 3


def test_parse_rejects_unknown_variable():
    with pytest.raises(ParseError):
        parse_polynomial("x5", 3)
    with pytest.raises(ParseError):
        parse_polynomial("dx", 2)  # derivatives only in operator mode


def test_ring_dimension_mismatch():
    with pytest.raises(ValueError):
        P("x", 1) + P("x", 2)
