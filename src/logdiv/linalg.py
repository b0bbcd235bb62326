"""Exact linear algebra over the rationals.

Dense kernels and row reductions used by the graded-basis and torsion
computations.

``rref`` clears denominators row by row and eliminates modulo word-size
primes: Gauss-Jordan on packed rows (one Python int per row, one 64-bit
slot per column), so a row update is a single bignum multiply-add.  The
images modulo successive primes are combined by the Chinese remainder
theorem and every entry is rebuilt by rational reconstruction (Wang 1981).
No candidate is returned before it passes an exact certificate: with r the
rank modulo p, the n - r kernel vectors K of the candidate R must satisfy
A K = 0 over the integers on every input row.  Since the rank of A over Q
is at least its rank modulo p, ker A = ker R, so the row spaces agree, and
the reduced row echelon form is unique: the output is the canonical one,
identical to exact elimination.  When the certificate or the reconstruction
still fails after the last prime of ``PRIMES``, fraction-free integer
elimination (content stripped as it grows) computes the answer instead.
That exact path also takes matrices of fewer than ``MODULAR_MIN_CELLS``
entries, where it is the faster of the two.
"""

from __future__ import annotations

import sys
from array import array
from fractions import Fraction
from math import gcd, isqrt, lcm

# The largest primes below 2**28: a product of two reduced entries stays
# below 2**56, so a 64-bit slot absorbs 256 row updates between reductions.
PRIMES = (268435399, 268435367, 268435361, 268435337,
          268435331, 268435313, 268435291, 268435273)

# Below this many entries fraction-free elimination is faster: there the
# fixed costs of the modular path (a second prime, reconstruction and the
# certificate) outweigh the elimination itself.
MODULAR_MIN_CELLS = 400

_SLOT = 64
_MASK = (1 << _SLOT) - 1
_SWAP = sys.byteorder == "big"
_ZERO = Fraction(0)
_ONE = Fraction(1)


def _to_int_rows(rows):
    """Integer rows with the row spaces of ``rows``: each row is scaled by
    the lcm of its denominators.  Integer rows are passed through."""
    out = []
    for row in rows:
        if Fraction not in set(map(type, row)):
            out.append(row)
            continue
        den = 1
        for c in row:
            if type(c) is Fraction:
                den = lcm(den, c.denominator)
        out.append([c.numerator * (den // c.denominator)
                    if type(c) is Fraction else c * den for c in row])
    return out


# ---------------------------------------------------------------------------
# fraction-free elimination: the fallback
# ---------------------------------------------------------------------------

def _strip_row(row):
    g = 0
    for c in row:
        if c:
            g = gcd(g, c)
            if g == 1:
                return row
    if g > 1:
        for i, c in enumerate(row):
            row[i] = c // g
    return row


def _echelon_int(rows, ncols):
    """In-place fraction-free forward elimination; returns pivot columns."""
    pivots = []
    prow = 0
    nrows = len(rows)
    for col in range(ncols):
        piv = None
        for r in range(prow, nrows):
            if rows[r][col]:
                piv = r
                break
        if piv is None:
            continue
        rows[prow], rows[piv] = rows[piv], rows[prow]
        p = rows[prow][col]
        lead = rows[prow]
        for r in range(prow + 1, nrows):
            v = rows[r][col]
            if not v:
                continue
            g = gcd(p, v)
            a, b = p // g, v // g
            row = rows[r]
            for c2 in range(col, ncols):
                row[c2] = a * row[c2] - b * lead[c2]
            _strip_row(row)
        pivots.append(col)
        prow += 1
        if prow == nrows:
            break
    del rows[prow:]
    return pivots


def _rref_exact(rows, ncols):
    """rref of integer rows by fraction-free elimination over Z."""
    work = [list(row) for row in rows]
    pivots = _echelon_int(work, ncols)
    # back-eliminate, still over the integers
    for i in range(len(pivots) - 1, -1, -1):
        col = pivots[i]
        p = work[i][col]
        for r in range(i):
            v = work[r][col]
            if not v:
                continue
            g = gcd(p, v)
            a, b = p // g, v // g
            row = work[r]
            lead = work[i]
            for c2 in range(ncols):
                row[c2] = a * row[c2] - b * lead[c2]
            _strip_row(row)
    out = []
    for i, col in enumerate(pivots):
        p = work[i][col]
        out.append([Fraction(c, p) for c in work[i]])
    return out, pivots


# ---------------------------------------------------------------------------
# elimination modulo p on packed rows
# ---------------------------------------------------------------------------

def _slots_to_int(a):
    """A 64-bit array as one int, element i at bits 64 i (unsigned)."""
    if _SWAP:
        a = array(a.typecode, a)
        a.byteswap()
    return int.from_bytes(a.tobytes(), "little")


def _pack(slots):
    """Slot values in [0, 2**64) as one int, slot i at bits 64 i."""
    return _slots_to_int(array("Q", slots))


def _unpack(x, n):
    a = array("Q")
    a.frombytes(x.to_bytes(8 * n, "little"))
    if _SWAP:
        a.byteswap()
    return a


def _reduce(x, ncols, p):
    """The packed row x with every slot reduced mod p."""
    return _pack([s % p for s in _unpack(x, ncols)])


def _echelon_mod(rows, ncols, p):
    """Reduced row echelon form of integer rows modulo p.

    Returns (pivots, leads, used): the pivot columns in increasing order,
    the matching rows of the form as slot arrays, and the indices of the
    input rows that became pivot rows (a basis of the row space mod p).
    """
    limit = ((1 << _SLOT) - p) // (p - 1) ** 2
    leads, shifts, cols, used = [], [], [], []
    for idx, row in enumerate(rows):
        x = _pack([c % p for c in row])
        k = 0
        # leads are stored reduced, so each update adds below p**2 a slot
        for lead, sh in zip(leads, shifts):
            v = ((x >> sh) & _MASK) % p
            if v:
                x += (p - v) * lead
                k += 1
                if k == limit:
                    x = _reduce(x, ncols, p)
                    k = 0
        slots = [s % p for s in _unpack(x, ncols)]
        col = next((c for c, s in enumerate(slots) if s), None)
        if col is None:
            continue
        inv = pow(slots[col], -1, p)
        leads.append(_pack([s * inv % p for s in slots]))
        shifts.append(_SLOT * col)
        cols.append(col)
        used.append(idx)
        if len(leads) == ncols:
            break
    # Back-substitute, newest lead first.  Each later lead is already zero
    # at every other pivot column, so one read of a row gives all of its
    # coefficients.
    for i in range(len(leads) - 2, -1, -1):
        x = leads[i]
        slots = _unpack(x, ncols)
        k = 0
        for j in range(i + 1, len(leads)):
            v = slots[cols[j]]
            if v:
                x += (p - v) * leads[j]
                k += 1
                if k == limit:
                    x = _reduce(x, ncols, p)
                    k = 0
        leads[i] = _reduce(x, ncols, p) if k else x
    order = sorted(range(len(cols)), key=cols.__getitem__)
    return ([cols[i] for i in order],
            [_unpack(leads[i], ncols) for i in order],
            [used[i] for i in order])


def _ratrec(u, m, bound):
    """(num, den) with num/den = u mod m and |num|, den <= bound, else None
    (Wang's rational reconstruction by the half extended Euclid)."""
    r0, r1, t0, t1 = m, u, 0, 1
    while r1 > bound:
        q = r0 // r1
        r0, r1 = r1, r0 - q * r1
        t0, t1 = t1, t0 - q * t1
    if t1 < 0:
        r1, t1 = -r1, -t1
    if t1 > bound or gcd(r1, t1) != 1:
        return None
    return r1, t1


def _reconstruct(residues, m, pivots, free, ncols):
    """Rational rref rows from their free-column residues mod m, or None.

    Entries of one row share denominators, so each residue is first scaled
    by the denominator found so far in its row; most then come out as
    integers without a reconstruction."""
    bound = isqrt(m // 2)
    out = []
    for piv, res in zip(pivots, residues):
        row = [_ZERO] * ncols
        row[piv] = _ONE
        den = 1
        for f, a in zip(free, res):
            if not a:
                continue
            u = a * den % m
            if u > bound:
                if m - u <= bound:
                    u -= m
                else:
                    rec = _ratrec(u, m, bound)
                    if rec is None:
                        return None
                    u, d = rec
                    den *= d
            row[f] = Fraction(u, den) if den > 1 else Fraction(u)
        out.append(row)
    return out


def _pack_columns(rows, width, fits64):
    """Column j of an integer matrix as sum_i rows[i][j] * 2**(width i);
    ``fits64`` says that every entry fits a signed 64-bit integer."""
    nbytes = width // 8
    ones = int.from_bytes((b"\x01" + bytes(nbytes - 1)) * len(rows), "little")
    cols = list(zip(*rows))
    if fits64:
        # two's complement int64 slots, then subtract 2**64 per negative one
        step = width // _SLOT
        buf = array("q", bytes(nbytes * len(rows)))
        out = []
        for col in cols:
            buf[::step] = array("q", col)
            u = _slots_to_int(buf)
            out.append(u - (((u >> (_SLOT - 1)) & ones) << _SLOT))
        return out
    off = 1 << (width - 1)
    return [int.from_bytes(b"".join((c + off).to_bytes(nbytes, "little")
                                    for c in col), "little") - off * ones
            for col in cols]


def _certified(rows, red, pivots, free):
    """True iff every kernel vector of the candidate ``red`` is annihilated
    by every integer row, checked exactly on packed columns."""
    if not free:
        return True
    checks = []
    kmax = 1
    for f in free:
        entries = [(pivots[i], row[f]) for i, row in enumerate(red) if row[f]]
        d = 1
        for _, c in entries:
            d = lcm(d, c.denominator)
        coeffs = [(col, c.numerator * (d // c.denominator))
                  for col, c in entries]
        kmax = max(kmax, d, *(abs(c) for _, c in coeffs))
        checks.append((f, d, coeffs))
    # each product entry is below l1 * kmax in absolute value; signed slots
    # of ``width`` bits hold it, so a packed sum is zero iff every entry is
    l1 = max(sum(map(abs, row)) for row in rows)
    width = -(-(l1.bit_length() + kmax.bit_length() + 1) // _SLOT) * _SLOT
    packed = _pack_columns(rows, width, l1.bit_length() < _SLOT)
    for f, d, coeffs in checks:
        acc = d * packed[f]
        for col, c in coeffs:
            acc -= c * packed[col]
        if acc:
            return False
    return True


def _rref_modular(rows, ncols):
    """Certified rref of integer rows from their images modulo PRIMES, or
    None when the primes run out first."""
    pivots = free = residues = None
    modulus = 1
    subset = None
    for p in PRIMES:
        # after the first prime, eliminate only the rows it found independent;
        # the certificate still checks every row
        part = rows if subset is None else [rows[i] for i in subset]
        piv, leads, used = _echelon_mod(part, ncols, p)
        used = used if subset is None else [subset[i] for i in used]
        pivset = set(piv)
        free_p = [f for f in range(ncols) if f not in pivset]
        images = [[lead[f] for f in free_p] for lead in leads]
        if pivots is None or len(piv) > len(pivots) or \
                (len(piv) == len(pivots) and piv < pivots):
            # the first prime, or the earlier ones were unlucky
            pivots, free, residues, modulus = piv, free_p, images, p
            subset = used
        elif piv == pivots:
            inv = pow(modulus, -1, p)
            residues = [[a + modulus * ((b - a) * inv % p)
                         for a, b in zip(ra, rb)]
                        for ra, rb in zip(residues, images)]
            modulus *= p
        else:
            continue
        red = _reconstruct(residues, modulus, pivots, free, ncols)
        if red is None:
            continue
        if _certified(rows, red, pivots, free):
            return red, pivots
        subset = None
    return None


# ---------------------------------------------------------------------------
# public functions
# ---------------------------------------------------------------------------

def rref(rows, ncols):
    """Canonical reduced row echelon form over the rationals.

    Returns (rref_rows, pivots) where each row is a list of Fractions with a
    leading 1 at its pivot column and zeros above and below every pivot.
    """
    work = _to_int_rows(rows)
    if not work:
        return [], []
    if len(work) * ncols >= MODULAR_MIN_CELLS:
        result = _rref_modular(work, ncols)
        if result is not None:
            return result
    return _rref_exact(work, ncols)


def residual(vec, rref_rows, pivots):
    """Reduce a vector against canonical rref rows; zero iff it lies in
    their row space."""
    v = [c if type(c) is Fraction else Fraction(c) if c else _ZERO
         for c in vec]
    for row, col in zip(rref_rows, pivots):
        c = v[col]
        if c:
            for j, r in enumerate(row):
                if r:
                    v[j] -= c * r
    return v


def invert(matrix):
    """Inverse of a square rational matrix, or None if singular."""
    n = len(matrix)
    aug = [list(row) + [Fraction(int(i == j)) for j in range(n)]
           for i, row in enumerate(matrix)]
    red, pivots = rref(aug, 2 * n)
    if pivots[:n] != list(range(n)) or len(pivots) < n:
        return None
    return [row[n:] for row in red[:n]]


def kernel_basis(rows, ncols):
    """Canonical basis of the right kernel {x : A x = 0}.

    One basis vector per free column f: entry 1 at f, minus the rref entry
    at each pivot column.  A zero-row matrix yields the standard basis.
    """
    red, pivots = rref(rows, ncols)
    pivset = set(pivots)
    basis = []
    for f in range(ncols):
        if f in pivset:
            continue
        v = [_ZERO] * ncols
        v[f] = _ONE
        for row, col in zip(red, pivots):
            if row[f]:
                v[col] = -row[f]
        basis.append(v)
    return basis
