"""The certified modular rref against the plain Gaussian elimination oracle,
including the cases that need several primes, an unlucky prime and the
fraction-free fallback.

``linalg`` takes integer rows and vectors and returns integer forms: rref
rows primitive with a positive pivot entry, kernel vectors primitive with a
positive entry at their free column, and residuals as positive multiples of
the rational ones.  A rational matrix reaches ``linalg`` as its rows
``cleared`` of their denominators, which changes no row space, kernel or
zero test.  The oracle works in Fractions on the rational rows; a result is
compared with it after dividing each row by its pivot entry."""

import random
from fractions import Fraction
from math import gcd, lcm

import pytest

from logdiv import linalg
from oracles import gauss_rref

P0 = linalg.PRIMES[0]


def rational(result):
    """An integer rref as the rational one: each row over its pivot entry."""
    red, pivots = result
    return ([[Fraction(c, row[p]) for c in row] for row, p in zip(red, pivots)],
            pivots)


def cleared(v):
    """The rational vector v times the lcm of its denominators."""
    d = lcm(*(Fraction(c).denominator for c in v))
    return [int(c * d) for c in v]


def cleared_rows(rows):
    """The integer rows that ``linalg`` takes for a rational matrix."""
    return [cleared(row) for row in rows]


def oracle_rref(rows, ncols):
    """The integer rref that ``linalg.rref`` must return, from the oracle:
    a rational rref row is 1 at its pivot, so clearing its denominators
    leaves it primitive and positive there."""
    red, pivots = gauss_rref(rows, ncols)
    return [cleared(row) for row in red], pivots


def oracle_kernel(rows, ncols):
    """The kernel vectors of the oracle's rref, 1 at their free column, with
    their denominators cleared: primitive, positive at that column."""
    red, pivots = gauss_rref(rows, ncols)
    basis = []
    for f in range(ncols):
        if f in pivots:
            continue
        v = [Fraction(0)] * ncols
        v[f] = Fraction(1)
        for row, col in zip(red, pivots):
            v[col] = -row[f]
        basis.append(cleared(v))
    return basis


def oracle_residual(vec, rows, ncols):
    red, pivots = gauss_rref(rows, ncols)
    v = [Fraction(c) for c in vec]
    for row, col in zip(red, pivots):
        c = v[col]
        v = [a - c * b for a, b in zip(v, row)]
    return v


def assert_integer_forms(rows, ncols, rng):
    """rref, kernel_basis and residual of ``rows`` in their integer forms,
    each equal to the oracle's."""
    ints = cleared_rows(rows)
    red, pivots = linalg.rref(ints, ncols)
    assert rational((red, pivots)) == gauss_rref(rows, ncols)
    for row, p in zip(red, pivots):
        assert all(type(c) is int for c in row)
        assert row[p] > 0 and gcd(*row) == 1
    kernel = linalg.kernel_basis(ints, ncols)
    free = [f for f in range(ncols) if f not in pivots]
    assert len(kernel) == len(free)
    for v, f in zip(kernel, free):
        assert all(type(c) is int for c in v)
        assert v[f] > 0 and gcd(*v) == 1
        assert not any(v[g] for g in free if g != f)
    assert kernel == oracle_kernel(rows, ncols)
    vectors = [list(row) for row in rows[:2]]
    vectors.append([Fraction(rng.randint(-4, 4), rng.randint(1, 3))
                    for _ in range(ncols)])
    for vec in vectors:
        res = linalg.residual(cleared(vec), red, pivots)
        want = oracle_residual(vec, rows, ncols)
        assert all(type(c) is int for c in res)
        lead = next((j for j, c in enumerate(want) if c), None)
        if lead is None:
            assert not any(res)
            continue
        scale = res[lead] / want[lead]
        assert scale > 0 and res == [scale * c for c in want]


def random_matrix(rng, nrows, ncols, rank, fractions):
    """nrows x ncols of the given rank (at most), as a product of factors."""
    left = [[rng.randint(-6, 6) for _ in range(rank)] for _ in range(nrows)]
    if fractions:
        right = [[Fraction(rng.randint(-9, 9), rng.randint(1, 5))
                  for _ in range(ncols)] for _ in range(rank)]
    else:
        right = [[rng.randint(-9, 9) for _ in range(ncols)]
                 for _ in range(rank)]
    return [[sum((a * b for a, b in zip(lrow, col)), 0)
             for col in zip(*right)] if rank else [0] * ncols
            for lrow in left]


@pytest.fixture
def modular_path(monkeypatch):
    """Send every matrix down the modular path, small ones included."""
    monkeypatch.setattr(linalg, "MODULAR_MIN_CELLS", 0)


@pytest.fixture
def no_fallback(modular_path, monkeypatch):
    def refuse(rows, ncols):
        raise AssertionError("fell back to exact elimination")
    monkeypatch.setattr(linalg, "_rref_exact", refuse)


SHAPES = [(1, 1), (3, 3), (5, 2), (2, 5), (12, 4), (4, 12), (9, 9), (20, 7),
          (6, 15)]


@pytest.mark.parametrize("fractions", [False, True])
@pytest.mark.parametrize("nrows,ncols", SHAPES)
def test_rref_and_kernel_match_oracle(nrows, ncols, fractions, no_fallback):
    rng = random.Random(nrows * 100 + ncols + 7 * fractions)
    for trial in range(6):
        rank = rng.randint(0, min(nrows, ncols))
        rows = random_matrix(rng, nrows, ncols, rank, fractions)
        if trial % 3 == 1:
            rows.insert(rng.randint(0, len(rows)), [0] * ncols)
        ints = cleared_rows(rows)
        assert linalg.rref(ints, ncols) == oracle_rref(rows, ncols)
        assert linalg.kernel_basis(ints, ncols) == oracle_kernel(rows, ncols)


def test_output_entries_are_primitive_integers(no_fallback):
    red, pivots = linalg.rref([[2, 4, 1], [1, 2, 3]], 3)
    assert (red, pivots) == ([[1, 2, 0], [0, 0, 1]], [0, 2])
    rows = [[Fraction(1, 2), Fraction(1, 3), 0], [0, -2, 3]]
    red, pivots = linalg.rref(cleared_rows(rows), 3)
    assert (red, pivots) == ([[1, 0, 1], [0, 2, -3]], [0, 1])
    assert linalg.kernel_basis([[2, 4, 1], [1, 2, 3]], 3) == [[-2, 1, 0]]
    assert linalg.kernel_basis([[3, 0, -2]], 3) == [[0, 1, 0], [2, 0, 3]]


@pytest.mark.parametrize("path", ["exact", "modular", "modular-fallback"])
@pytest.mark.parametrize("fractions", [False, True])
def test_integer_forms_on_every_path(path, fractions, monkeypatch):
    """Primitive rows positive at the pivot, primitive kernel vectors
    positive at the free column and positive multiples of the residual, on
    the exact path (below 400 cells), the modular path and, with
    PRIMES = (3,), the modular path's fallback; with rational matrices,
    cleared, and zero rows."""
    calls = []
    for name in ("_rref_exact", "_rref_modular"):
        def counting(rows, ncols, real=getattr(linalg, name), name=name):
            calls.append(name)
            return real(rows, ncols)
        monkeypatch.setattr(linalg, name, counting)
    if path != "exact":
        monkeypatch.setattr(linalg, "MODULAR_MIN_CELLS", 0)
    if path == "modular-fallback":
        monkeypatch.setattr(linalg, "PRIMES", (3,))
    rng = random.Random(len(path) + 100 * fractions)
    for nrows, ncols in SHAPES:
        for trial in range(4):
            rank = rng.randint(0, min(nrows, ncols))
            rows = random_matrix(rng, nrows, ncols, rank, fractions)
            if trial % 2:
                rows.insert(rng.randint(0, len(rows)), [0] * ncols)
            assert_integer_forms(rows, ncols, rng)
    if path == "exact":
        assert set(calls) == {"_rref_exact"}
    else:
        assert "_rref_modular" in calls
        assert ("_rref_exact" in calls) == (path == "modular-fallback")


def test_shape_selects_the_path(monkeypatch):
    used = []
    modular = linalg._rref_modular

    def counting(rows, ncols):
        used.append((len(rows), ncols))
        return modular(rows, ncols)
    monkeypatch.setattr(linalg, "_rref_modular", counting)
    rng = random.Random(5)
    small = random_matrix(rng, 4, 6, 3, True)
    large = random_matrix(rng, 30, 20, 12, True)
    assert rational(linalg.rref(cleared_rows(small), 6)) == \
        gauss_rref(small, 6)
    assert rational(linalg.rref(cleared_rows(large), 20)) == \
        gauss_rref(large, 20)
    assert used == [(30, 20)]


def test_empty_and_zero_matrices(no_fallback):
    assert linalg.rref([], 3) == ([], [])
    assert linalg.rref([[0, 0, 0], [0, 0, 0]], 3) == ([], [])
    assert linalg.kernel_basis([[0, 0]], 2) == [[1, 0], [0, 1]]
    assert linalg.kernel_basis([], 2) == [[1, 0], [0, 1]]
    assert linalg.residual(cleared([Fraction(1, 2), 3]), [], []) == [1, 6]


def test_large_entries_need_several_primes(no_fallback, monkeypatch):
    big = (1 << 40) + 15
    rows = [[1, big, 3, Fraction(big, 7)],
            [2, 5, big, 1],
            [3, big + 5, big + 3, 2]]
    seen = []
    echelon = linalg._echelon_mod

    def counting(rows, ncols, p):
        seen.append(p)
        return echelon(rows, ncols, p)
    monkeypatch.setattr(linalg, "_echelon_mod", counting)
    assert rational(linalg.rref(cleared_rows(rows), 4)) == gauss_rref(rows, 4)
    assert len(seen) > 1


@pytest.mark.parametrize("rows", [
    # a pivot equal to the first prime: the rank drops modulo it
    [[P0, 0, 3], [0, 1, 1], [0, 2, 2]],
    [[2 * P0, 0], [0, 1]],
    # same rank modulo the first prime, but a later pivot column
    [[P0, 0, 3, 1], [0, 1, 5, 2], [0, 2, 10, 4]],
])
def test_unlucky_first_prime(rows, no_fallback):
    ncols = len(rows[0])
    exact = gauss_rref(rows, ncols)
    modp = linalg._echelon_mod(rows, ncols, P0)[0]
    assert (len(modp), modp) != (len(exact[1]), exact[1])
    assert rational(linalg.rref(rows, ncols)) == exact


def test_slot_reductions(no_fallback, monkeypatch):
    # Below 2**31 a 64-bit slot absorbs only four updates, so rows are
    # reduced many times over in both elimination passes.
    monkeypatch.setattr(linalg, "PRIMES", (2 ** 31 - 1,))
    rng = random.Random(3)
    ncols = 14
    target = [[int(i == j) for j in range(10)]
              + [rng.randint(-3, 3) for _ in range(ncols - 10)]
              for i in range(10)]
    mix = [[rng.randint(-2, 2) for _ in range(10)] for _ in range(16)]
    rows = [[sum(a * b for a, b in zip(mrow, col)) for col in zip(*target)]
            for mrow in mix]
    assert rational(linalg.rref(rows, ncols)) == gauss_rref(rows, ncols)
    assert len(gauss_rref(rows, ncols)[1]) == 10


def oracle_echelon_mod(rows, ncols, p):
    """Pivot columns and free-column entries of the oracle's rref reduced
    mod p: the same as the rref mod p when p divides no denominator and
    drops no pivot, which holds for the small entries below."""
    red, pivots = gauss_rref(rows, ncols)
    free = [f for f in range(ncols) if f not in pivots]
    return pivots, [[row[f].numerator * pow(row[f].denominator, -1, p) % p
                     for f in free] for row in red]


def plain_forward_mod(rows, ncols, p):
    """Forward elimination mod p on plain lists, in the order of
    ``_forward_mod``: (cols, used, leads), each lead scaled to 1 at its
    first nonzero column."""
    leads, cols, used = [], [], []
    for idx, row in enumerate(rows):
        x = [c % p for c in row]
        for lead, col in zip(leads, cols):
            v = x[col]
            x = [(a - v * b) % p for a, b in zip(x, lead)]
        col = next((c for c, a in enumerate(x) if a), None)
        if col is None:
            continue
        inv = pow(x[col], -1, p)
        leads.append([a * inv % p for a in x])
        cols.append(col)
        used.append(idx)
    return cols, used, leads


def _echelon_cases():
    """Seeded tall, wide, rank-deficient, duplicate-row and zero-row
    matrices of small integers."""
    rng = random.Random(29)
    cases = []
    for nrows, ncols, rank in [(24, 9, 9), (7, 20, 7), (15, 15, 8),
                               (12, 30, 5), (40, 12, 12)]:
        rows = random_matrix(rng, nrows, ncols, rank, False)
        cases.append(rows)
        dup = rows + [list(rows[i]) for i in range(0, nrows, 3)]
        rng.shuffle(dup)
        cases.append(dup)
        zeros = list(rows)
        for _ in range(3):
            zeros.insert(rng.randint(0, len(zeros)), [0] * ncols)
        cases.append(zeros)
    return cases


def test_echelon_mod_matches_oracle_mod_p():
    for rows in _echelon_cases():
        ncols = len(rows[0])
        pivots, images, used = linalg._echelon_mod(rows, ncols, P0)
        assert (pivots, [list(im) for im in images]) == \
            oracle_echelon_mod(rows, ncols, P0)
        # the rows it used are a basis of the row space
        assert len(gauss_rref([rows[i] for i in used], ncols)[1]) == \
            len(pivots)


def test_back_substitution_reduces_between_updates():
    """Modulo 2**31 - 1 a slot absorbs four updates (``_limit``); with 31
    pivots and one free column a lead takes up to 30 back-substitution
    updates, so its packed free part is reduced several times."""
    p = 2 ** 31 - 1
    assert linalg._limit(p) == 4
    rng = random.Random(41)
    rows = random_matrix(rng, 34, 32, 31, False)
    pivots, images, _ = linalg._echelon_mod(rows, 32, p)
    assert len(pivots) == 31
    assert (pivots, [list(im) for im in images]) == \
        oracle_echelon_mod(rows, 32, p)


@pytest.mark.parametrize("p", [P0, 2 ** 31 - 1])
def test_forward_mod_matches_plain_elimination(p):
    for rows in _echelon_cases():
        ncols = len(rows[0])
        leads, cols, used = linalg._forward_mod(rows, ncols, p)
        want_cols, want_used, want_leads = plain_forward_mod(rows, ncols, p)
        assert (cols, used) == (want_cols, want_used)
        assert [list(linalg._unpack(x, ncols)) for x in leads] == want_leads


def test_forced_fallback_equals_exact_path(modular_path, monkeypatch):
    rng = random.Random(11)
    rows = random_matrix(rng, 7, 9, 5, True)
    ints = cleared_rows(rows)
    exact = linalg._rref_exact(ints, 9)
    calls = []
    fallback = linalg._rref_exact

    def counting(rows, ncols):
        calls.append(ncols)
        return fallback(rows, ncols)
    # a single tiny prime cannot reconstruct these entries
    monkeypatch.setattr(linalg, "PRIMES", (3,))
    monkeypatch.setattr(linalg, "_rref_exact", counting)
    assert linalg.rref(ints, 9) == exact == oracle_rref(rows, 9)
    assert calls == [9]


def test_certificate_rejects_a_wrong_candidate():
    rows = [[1, 2, 3], [2, 4, 7]]
    red, pivots = oracle_rref(rows, 3)
    assert linalg._certified(rows, red, pivots, [1])
    wrong = [list(red[0]), list(red[1])]
    wrong[0][1] += 1
    assert not linalg._certified(rows, wrong, pivots, [1])


def test_certificate_with_entries_beyond_64_bits():
    big = 1 << 70
    rows = [[big, 1, big + 1], [1, 0, 1]]
    red, pivots = oracle_rref(rows, 3)
    assert linalg._certified(rows, red, pivots, [2])
    # the integer form of the rational row (0, 1, 1/big)
    wrong = [list(red[0]), [0, big, 1]]
    assert not linalg._certified(rows, wrong, pivots, [2])


def test_invert_and_residual():
    red, pivots = linalg.rref([[1, 1, 0], [0, 1, 1]], 3)
    assert not any(linalg.residual([2, 5, 3], red, pivots))
    assert any(linalg.residual([1, 0, 0], red, pivots))
    # rows (1, 0, 1) and (0, 2, -3): the rational residual of (1, 1, 1) is
    # (0, 0, 1 - 1 + 3/2), returned as its integer multiple (0, 0, 3)
    rows = [[Fraction(1, 2), Fraction(1, 3), 0], [0, -2, 3]]
    red, pivots = linalg.rref(cleared_rows(rows), 3)
    assert linalg.residual([1, 1, 1], red, pivots) == [0, 0, 3]
