"""Graded pieces held as integer rows: the CLI prints a piece's basis
straight from its rows, and ``contains`` reduces in integers.

A piece's row is primitive and positive at its pivot, and the basis operator
is row / row[pivot].  The printer walks the coordinate columns, which are in
``format_operator``'s term order; here every text is compared with
``format_operator`` of the operator built from the row without the piece's
own helpers.  ``contains`` is compared with the pointwise membership test.
"""

import random
from fractions import Fraction
from functools import lru_cache

import pytest

from logdiv import cli
from logdiv.arrangements import example9_objects, generic_dn
from logdiv.grammar import parse_polynomial
from logdiv.poly import Polynomial
from logdiv.vfilt import default_weight_range, v_membership, vk_graded_basis
from logdiv.weyl import WeylOperator, format_operator


def _four_lines(seed):
    slopes = random.Random(seed).sample(range(-5, 6), 4)
    return parse_polynomial("*".join(f"(x + ({a})*y)" for a in slopes), 2)


@lru_cache(maxsize=None)
def divisor(name):
    if name == "quintic":
        return example9_objects()[0].f
    if name == "d3":
        return generic_dn(3).f
    if name.startswith("lines"):
        return _four_lines(int(name[5:]))
    # x*y*(x + y/2): the grammar has no '/', so build it term by term
    x, y = Polynomial.variable(2, 0), Polynomial.variable(2, 1)
    return x * y * (x + y * Fraction(1, 2))


def _pieces():
    cases = [("quintic", 0, d, w) for d in range(3)
             for w in default_weight_range(divisor("quintic"), d)]
    cases += [("quintic", 0, 3, w) for w in (-3, -1, 0, 1)]
    cases += [("quintic", k, 2, w) for k in (-1, 1) for w in (0, 3, 5)]
    for name in ("d3", "lines3", "lines7", "lines11", "half"):
        top = 2 if name == "d3" else 3
        cases += [(name, k, d, w) for k in (0, 1, -1) for d in range(top + 1)
                  for w in default_weight_range(divisor(name), d)]
    return cases


PIECES = _pieces()


def _operator(coords, row, den):
    """row / den as an operator, from the coordinate columns alone."""
    terms = {}
    for (beta, mono), c in zip(coords.cols, row):
        if c:
            terms.setdefault(beta, {})[mono] = Fraction(c, den)
    return WeylOperator(coords.nvars, {b: Polynomial(coords.nvars, t)
                                       for b, t in terms.items()})


def test_cases_include_empty_pieces():
    for case in (("quintic", 0, 2, -1), ("quintic", 0, 3, -3),
                 ("lines3", 0, 3, -3)):
        assert case in PIECES
        space = vk_graded_basis(divisor(case[0]), *case[1:])
        assert space.rows == [] and len(space.coords)
        assert cli._basis_payload(space) == {"dim": 0, "basis": []}


@pytest.mark.parametrize("name, k, d, w", PIECES)
def test_printed_basis_equals_format_operator(name, k, d, w):
    space = vk_graded_basis(divisor(name), k, d, w)
    ops = [_operator(space.coords, row, row[p])
           for row, p in zip(space.rows, space.pivots)]
    texts = [format_operator(op) for op in ops]
    assert cli._basis_payload(space) == {"dim": len(ops), "basis": texts}
    assert [format_operator(op) for op in space.basis] == texts
    assert space.basis == ops


def _box_operators(rng, space, count):
    """Operators of the piece's (d, w) box: random columns with small
    rational coefficients, combinations of basis elements, and basis
    elements plus one random column."""
    cols = space.coords.cols
    ops = []
    for _ in range(count):
        vec = [0] * len(cols)
        for _ in range(rng.randint(1, 3)):
            vec[rng.randrange(len(cols))] = Fraction(rng.choice((-3, -1, 1, 2)),
                                                    rng.choice((1, 1, 2, 3)))
        noise = _operator(space.coords, vec, 1)
        ops.append(noise)
        if space.basis:
            a, b = rng.choice(space.basis), rng.choice(space.basis)
            member = a + b.scale(rng.choice((1, -2, Fraction(1, 3))))
            ops += [member, member + noise]
    return ops


@pytest.mark.parametrize("name, k, d, w", [
    ("quintic", 0, 2, 3), ("quintic", 0, 2, 5), ("quintic", 1, 2, 5),
    ("quintic", -1, 2, 5), ("d3", 0, 2, 1), ("d3", 1, 2, 2),
    ("lines3", 0, 3, 3), ("lines7", -1, 2, 4), ("half", 0, 3, 2),
    ("half", 1, 3, 3), ("half", -1, 3, 4)])
def test_contains_agrees_with_membership(name, k, d, w):
    """``contains`` reduces the integer multiple of an operator, so it also
    answers the same for every rational multiple of it."""
    f = divisor(name)
    space = vk_graded_basis(f, k, d, w)
    rng = random.Random(f"{name} {k} {d} {w}")
    seen = set()
    for op in _box_operators(rng, space, 6):
        got = space.contains(op)
        assert got == v_membership(f, op, k), op
        c = Fraction(rng.choice((-3, 1, 5)), rng.choice((2, 3, 7)))
        assert space.contains(op.scale(c)) == got, (op, c)
        seen.add(got)
    if space.rows:
        assert seen == {True, False}
