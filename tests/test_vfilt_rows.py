"""The condition rows of a graded piece, against a frozen builder of the
conjugate form, the work it takes to build them, and pieces of a divisor
with non-integer coefficients.

The library states the conditions on E_gamma = sum C(beta, gamma) a_beta
d^(beta - gamma)(f^l) instead of on P(x^alpha f^l), and above p = l - k = 1
only modulo f: at the target monomials that L^(p-1) divides, L the
lex-leading monomial of f.  Its rows equal those of the frozen builder
``oracles.conjugate_condition_rows`` kept by ``oracles.rows_modulo_f``.
Their Fraction rref equals that of all the frozen builder's rows and that
of the rows of the builder they replaced (``oracles.condition_rows``, the
alpha form), and each level adds the rank its full rows add, so the
kernel, rref and output are unchanged.
"""

import random
from fractions import Fraction

import pytest

from logdiv import linalg, vfilt
from logdiv.arrangements import example9_objects
from logdiv.grammar import parse_polynomial
from logdiv.poly import Polynomial
from logdiv.vfilt import (OperatorCoordinates, default_weight_range,
                          vk_graded_basis)

from oracles import (BRUTE_MAX_COLS, brute_v0_dimension, condition_rows,
                     conjugate_condition_rows, gauss_rank, gauss_rref,
                     rows_modulo_f)


def _four_lines(seed):
    slopes = random.Random(seed).sample(range(-5, 6), 4)
    return parse_polynomial("*".join(f"(x + ({a})*y)" for a in slopes), 2)


def _half_node():
    """x*y*(x + y/2): the grammar has no '/', so build it term by term."""
    x, y = Polynomial.variable(2, 0), Polynomial.variable(2, 1)
    return x * y * (x + y * Fraction(1, 2))


def _cases():
    quintic = example9_objects()[0].f
    cases = [("quintic", quintic, k, 2, w) for k in (0, 1)
             for w in default_weight_range(quintic, 2)]
    cases.append(("quintic", quintic, 0, 3, 1))
    lines = _four_lines(7)
    cases += [("lines", lines, 0, 3, w) for w in (1, 3, 5, 7)]
    # below weight 0, x^alpha f^l has a higher degree than any target
    cases += [("lines", lines, k, d, -d) for k in (0, 1) for d in (2, 3)]
    half = _half_node()
    cases += [("half", half, k, 3, w) for k in (0, 1) for w in (0, 2, 4)]
    return [pytest.param(f, k, d, w, id=f"{name}-k{k}-d{d}-w{w}")
            for name, f, k, d, w in cases]


def _spy_kernel(monkeypatch):
    """List that receives the rows of every ``linalg.kernel_basis`` call."""
    seen = []
    real = linalg.kernel_basis

    def spy(rows, ncols):
        seen.append(list(rows))
        return real(rows, ncols)

    monkeypatch.setattr(linalg, "kernel_basis", spy)
    return seen


@pytest.mark.parametrize("f, k, d, w", _cases())
def test_stacked_rows_equal_frozen_builder(monkeypatch, f, k, d, w):
    seen = _spy_kernel(monkeypatch)
    space = vk_graded_basis(f, k, d, w)
    cols = space.coords.cols
    table = conjugate_condition_rows(f, cols, d, w, k)
    rows = rows_modulo_f(f, table, k)
    assert seen == [rows]
    # the rows kept modulo f cut out the kernel of all the conjugate rows,
    # which cut out that of the alpha-form ones: equal Fraction rrefs, so
    # equal row spaces and kernels.  Above BRUTE_MAX_COLS columns the
    # rrefs take tens of seconds, and the pinned output digests cover those
    # pieces
    if len(cols) <= BRUTE_MAX_COLS:
        rref = gauss_rref(rows, len(cols))
        assert rref == gauss_rref([row for _, _, row in table], len(cols))
        assert rref == gauss_rref(condition_rows(f, cols, d, w, k), len(cols))


def _seeded_level_cases():
    """Pieces with a level l >= k + 2: the half node (Fraction
    coefficients), seeded four-line curves and a seeded cubic surface
    x^3 + y^3 + z^3 + c*x*y*z, at seeded weights."""
    rng = random.Random(34)
    x, y, z = (Polynomial.variable(3, i) for i in range(3))
    cubic = x ** 3 + y ** 3 + z ** 3 + x * y * z * rng.choice([-3, -1, 2, 5])
    cases = [("half", _half_node(), k, d, w) for k, d in ((0, 2), (0, 3),
                                                        (1, 3), (0, 4))
             for w in rng.sample(range(-1, 5), 2)]
    cases += [(f"lines{s}", _four_lines(s), k, 3, rng.randrange(-1, 4))
              for s in (1, 2, 3) for k in (0, 1)]
    cases += [("cubic", cubic, 0, 2, w) for w in (0, 1)]
    return [pytest.param(f, k, d, w, id=f"{name}-k{k}-d{d}-w{w}")
            for name, f, k, d, w in cases]


@pytest.mark.parametrize("f, k, d, w", _seeded_level_cases())
def test_rows_modulo_f_add_the_rank_of_the_full_level(monkeypatch, f, k, d, w):
    """Under the lower levels, level l's rows kept modulo f add the rank
    all its rows add, for every l >= k + 2.  Which rows are kept is pinned
    by the row equality above: the lead of f in another term order (its
    lex-smallest term, say) keeps more rows and the same rank."""
    coords = OperatorCoordinates(f.nvars, d, w)
    table = conjugate_condition_rows(f, coords.cols, d, w, k)
    real = vfilt._conditions
    for level in range(k + 2, d + 1):
        below = [row for l, _, row in table if l < level]
        full = [row for l, _, row in table if l == level]
        with monkeypatch.context() as m:
            m.setattr(vfilt, "_conditions", lambda *args: (
                c for c in real(*args) if c[1] == level))
            kept = vfilt._condition_rows(f, coords, d, k)
        assert set(kept) <= set(full), level
        assert gauss_rank(below + kept, len(coords)) == \
            gauss_rank(below + full, len(coords)), level


def _count_work(monkeypatch):
    counts = {"rref": 0, "kernel": 0, "deriv": 0}

    def counting(name, real):
        def wrapped(*args):
            counts[name] += 1
            return real(*args)
        return wrapped

    monkeypatch.setattr(linalg, "rref", counting("rref", linalg.rref))
    monkeypatch.setattr(linalg, "kernel_basis",
                        counting("kernel", linalg.kernel_basis))
    monkeypatch.setattr(vfilt, "_deriv", counting("deriv", vfilt._deriv))
    return counts


def test_quintic_order_three_work_bound(monkeypatch):
    """One f^p block per (p, target degree) and one derivative table per
    level l: 6 blocks and 3 * 19 derivatives d^delta(f^l), 0 < |delta| <= 3,
    where one table per (alpha, l) took 15 * 19 = 285, and one block per
    condition and d^beta from scratch took 15 and 675."""
    quintic = example9_objects()[0].f
    counts = _count_work(monkeypatch)
    per_call = []
    for _ in range(2):
        for key in counts:
            counts[key] = 0
        vk_graded_basis(quintic, 0, 3, 1)
        per_call.append(dict(counts))
    # the kernel's own rref is the one rref that is not a block
    assert per_call[0]["kernel"] == 1
    assert per_call[0]["rref"] - per_call[0]["kernel"] <= 6
    assert per_call[0]["deriv"] <= 57
    # a second call does the same work: no cache outlives a call
    assert per_call[1] == per_call[0]


def test_rational_divisor_pieces_equal_integer_multiple():
    """V_k along f depends only on the ideal (f): the pieces of
    x*y*(x + y/2) and of 2f = x*y*(2x + y) agree row for row."""
    f = _half_node()
    g = parse_polynomial("x*y*(2*x+y)", 2)
    assert f * 2 == g
    for d in range(4):
        for k in (-1, 0, 1):
            for w in default_weight_range(f, d):
                a = vk_graded_basis(f, k, d, w)
                b = vk_graded_basis(g, k, d, w)
                assert (a.rows, a.pivots) == (b.rows, b.pivots), (d, k, w)
                if len(a.coords) <= BRUTE_MAX_COLS:
                    assert a.dim == brute_v0_dimension(f, d, w, k=k), (d, k, w)
