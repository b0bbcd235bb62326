"""The certified modular rref against the plain Gaussian elimination oracle,
including the cases that need several primes, an unlucky prime and the
fraction-free fallback."""

import random
from fractions import Fraction

import pytest

from logdiv import linalg
from oracles import gauss_rref

P0 = linalg.PRIMES[0]


def oracle_kernel(rows, ncols):
    red, pivots = gauss_rref(rows, ncols)
    basis = []
    for f in range(ncols):
        if f in pivots:
            continue
        v = [Fraction(0)] * ncols
        v[f] = Fraction(1)
        for row, col in zip(red, pivots):
            v[col] = -row[f]
        basis.append(v)
    return basis


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
        assert linalg.rref(rows, ncols) == gauss_rref(rows, ncols)
        assert linalg.kernel_basis(rows, ncols) == oracle_kernel(rows, ncols)


def test_output_entries_are_fractions(no_fallback):
    red, _ = linalg.rref([[2, 4, 1], [1, 2, 3]], 3)
    assert all(type(c) is Fraction for row in red for c in row)


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
    assert linalg.rref(small, 6) == gauss_rref(small, 6)
    assert linalg.rref(large, 20) == gauss_rref(large, 20)
    assert used == [(30, 20)]


def test_empty_and_zero_matrices(no_fallback):
    assert linalg.rref([], 3) == ([], [])
    assert linalg.rref([[0, 0, 0], [0, 0, 0]], 3) == ([], [])
    assert linalg.kernel_basis([[0, 0]], 2) == [[1, 0], [0, 1]]


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
    assert linalg.rref(rows, 4) == gauss_rref(rows, 4)
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
    assert linalg.rref(rows, ncols) == exact


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
    assert linalg.rref(rows, ncols) == gauss_rref(rows, ncols)
    assert len(gauss_rref(rows, ncols)[1]) == 10


def test_forced_fallback_equals_exact_path(modular_path, monkeypatch):
    rng = random.Random(11)
    rows = random_matrix(rng, 7, 9, 5, True)
    exact = linalg._rref_exact(linalg._to_int_rows(rows), 9)
    calls = []
    fallback = linalg._rref_exact

    def counting(rows, ncols):
        calls.append(ncols)
        return fallback(rows, ncols)
    # a single tiny prime cannot reconstruct these entries
    monkeypatch.setattr(linalg, "PRIMES", (3,))
    monkeypatch.setattr(linalg, "_rref_exact", counting)
    assert linalg.rref(rows, 9) == exact == gauss_rref(rows, 9)
    assert calls == [9]


def test_certificate_rejects_a_wrong_candidate():
    rows = [[1, 2, 3], [2, 4, 7]]
    red, pivots = gauss_rref(rows, 3)
    assert linalg._certified(rows, red, pivots, [1])
    wrong = [list(red[0]), list(red[1])]
    wrong[0][1] += 1
    assert not linalg._certified(rows, wrong, pivots, [1])


def test_certificate_with_entries_beyond_64_bits():
    big = 1 << 70
    rows = [[big, 1, big + 1], [1, 0, 1]]
    red, pivots = gauss_rref(rows, 3)
    assert linalg._certified(rows, red, pivots, [2])
    wrong = [list(red[0]), list(red[1])]
    wrong[1][2] = Fraction(1, big)
    assert not linalg._certified(rows, wrong, pivots, [2])


def test_invert_and_residual():
    red, pivots = linalg.rref([[1, 1, 0], [0, 1, 1]], 3)
    assert not any(linalg.residual([2, 5, 3], red, pivots))
    assert any(linalg.residual([1, 0, 0], red, pivots))
