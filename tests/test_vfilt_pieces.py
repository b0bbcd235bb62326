"""Graded pieces of V_k against oracles, and membership at any level.

A piece is held as the canonical rref of its coordinate vectors.  The rref
of a subspace is unique, so a piece whose rows are already an rref, whose
dimension matches the brute-force oracle and whose basis operators all pass
the pointwise membership test is pinned down completely.
"""

import random
from functools import lru_cache

import pytest

from logdiv import linalg
from logdiv.arrangements import example9_objects, generic_dn
from logdiv.grammar import parse_operator, parse_polynomial
from logdiv.groebner import ideal_gb, local_membership_at_origin
from logdiv.poly import Polynomial
from logdiv.vfilt import (_conditions, default_weight_range, v_member,
                          vk_graded_basis)
from logdiv.weyl import WeylOperator, apply_op

from oracles import BRUTE_MAX_COLS, brute_v0_dimension, rand_poly


def _four_lines(seed):
    slopes = random.Random(seed).sample(range(-5, 6), 4)
    return "*".join(f"(x + ({a})*y)" for a in slopes)


@lru_cache(maxsize=None)
def divisor(name):
    if name == "d3":
        return generic_dn(3).f
    if name == "quintic":
        return example9_objects()[0].f
    if name == "lines":
        return parse_polynomial(_four_lines(11), 2)
    return parse_polynomial("x*y", 2)


def _cases():
    cases = []
    for k in (0, 1, -1):
        for name in ("d3", "quintic", "lines"):
            cases += [(name, k, 2, w)
                      for w in default_weight_range(divisor(name), 2)]
        cases.append(("quintic", k, 3, 1))
    for d in (1, 2):
        cases += [("xy", 1, d, w) for w in range(-d - 1, d + 2)]
    return cases


CASES = _cases()


def test_cases_include_an_empty_piece_and_a_full_box():
    assert ("quintic", 0, 2, -1) in CASES and ("xy", 1, 1, -1) in CASES
    empty = vk_graded_basis(divisor("quintic"), 0, 2, -1)
    assert empty.dim == 0 and empty.rows == [] and len(empty.coords) == 21
    # k >= d leaves no condition, so the piece is the whole (d, w) box
    full = vk_graded_basis(divisor("xy"), 1, 1, -1)
    assert full.dim == len(full.coords) == 2
    assert full.pivots == [0, 1]


@pytest.mark.parametrize("name, k, d, w", CASES)
def test_piece_is_canonical_rref_of_members(name, k, d, w):
    f = divisor(name)
    space = vk_graded_basis(f, k, d, w)
    ncols = len(space.coords)
    assert linalg.rref(space.rows, ncols) == (space.rows, space.pivots)
    if ncols <= BRUTE_MAX_COLS:
        assert space.dim == brute_v0_dimension(f, d, w, k=k)
    for op in space.basis:
        assert v_member(f, op, k), op


# -- membership at any level -------------------------------------------------

def _member_by_every_condition(f, P, k):
    """Every condition, each as local membership in (f^p) at the origin."""
    n = f.nvars
    order = 0 if P.is_zero() else P.order()
    for alpha, l in _conditions(n, order, k):
        g = apply_op(P, Polynomial.monomial(n, alpha) * f ** l)
        if not local_membership_at_origin(g, ideal_gb([f ** (l - k)])):
            return False
    return True


@pytest.mark.parametrize("text", ["x*y*(x+y)", "y^2-x^2+x^3", "1+x+y^2"])
def test_membership_shortcuts_agree_with_every_condition(text):
    f = parse_polynomial(text, 2)
    rng = random.Random(5)
    ops = [parse_operator(s, 2) for s in
           ("dx", "x*dx", "x*y*dx", "(x+y)^3*dx", "x^2*dx^2", "x*y")]
    # multiples of f and f^2 meet the order bound with equality
    ops += [WeylOperator.from_polynomial(f),
            WeylOperator.from_polynomial(f * f),
            parse_operator("x*dx + dy", 2).left_mul(f)]
    for _ in range(6):
        terms = {beta: rand_poly(rng, 2, 3, max_terms=2)
                 for beta in ((0, 0), (1, 0), (0, 1))}
        ops.append(WeylOperator(2, terms))
    for P in ops:
        for k in (-2, -1, 0, 1):
            assert v_member(f, P, k) == _member_by_every_condition(f, P, k), \
                (P, k)
