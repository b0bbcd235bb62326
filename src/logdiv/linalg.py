"""Exact linear algebra over the rationals, in integers.

Dense kernels and row reductions used by the graded-basis and torsion
computations.  Input rows and vectors are integer: a caller with rational
entries scales them by ``poly.integer_form``, which changes no row space,
kernel or zero test.  Every output is integer.  A row of the reduced row
echelon form is kept as its primitive integer multiple with a positive
pivot entry, so ``row / row[pivot]`` is the rational row, and a kernel
vector is primitive with a positive entry at its free column: both are
canonical, and no Fraction is formed.

``rref`` eliminates modulo word-size primes: Gauss-Jordan on packed rows
(one Python int per row, one 64-bit slot per column, column 0 in the top
slot), so a row update is a single bignum multiply-add; back-substitution
updates only the packed free columns.  The images modulo successive primes
are combined by the Chinese remainder theorem and every entry is rebuilt by
rational reconstruction (Wang 1981).  No candidate is returned before it
passes an exact certificate: with r the rank modulo p, the n - r kernel
vectors K of the candidate R must satisfy A K = 0 over the integers on every
input row.  Since the rank of A over Q is at least its rank modulo p,
ker A = ker R, so the row spaces agree, and the reduced row echelon form is
unique: the output is the canonical one, identical to exact elimination.
When the certificate or the reconstruction still fails after the last prime
of ``PRIMES``, fraction-free integer elimination (content stripped as it
grows) computes the answer instead.  That exact path also takes matrices of
fewer than ``MODULAR_MIN_CELLS`` entries, where it is the faster of the two.

``span_is_kernel`` proves ker A = span V from the same two parts, a
forward elimination modulo one prime and the exact product on packed
columns, without computing either rref.
"""

from __future__ import annotations

import sys
from array import array
from itertools import compress
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
_SWAP = sys.byteorder == "little"


def _primitive(row, pivot):
    """row divided by its content, signed to be positive at ``pivot``."""
    g = gcd(*row)
    if row[pivot] < 0:
        g = -g
    return row if g == 1 else [c // g for c in row]


# ---------------------------------------------------------------------------
# fraction-free elimination: the fallback
# ---------------------------------------------------------------------------

def _strip_row(row):
    """Divide the row by its content, in place."""
    g = gcd(*row)
    if g > 1:
        for i, c in enumerate(row):
            row[i] = c // g


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
    return [_primitive(work[i], col) for i, col in enumerate(pivots)], pivots


# ---------------------------------------------------------------------------
# elimination modulo p on packed rows
# ---------------------------------------------------------------------------

def _slots_to_int(a):
    """A 64-bit array of n elements as one int, element i at bits
    64 (n - 1 - i) (unsigned): the first element in the top slot."""
    if _SWAP:
        a = array(a.typecode, a)
        a.byteswap()
    return int.from_bytes(a, "big")


def _pack(slots):
    """Slot values in [0, 2**64) of n columns as one int, column c at bits
    64 (n - 1 - c): a lead, zero left of its pivot, is a shorter int, and
    reading column c, (x >> 64 (n - 1 - c)) & _MASK, keeps only slots <= c."""
    return _slots_to_int(array("Q", slots))


def _unpack(x, n):
    a = array("Q", x.to_bytes(8 * n, "big"))
    if _SWAP:
        a.byteswap()
    return a


def _reduce(x, ncols, p):
    """The packed row x with every slot reduced mod p."""
    return _pack([s % p for s in _unpack(x, ncols)])


def _limit(p):
    """Row updates a 64-bit slot absorbs between reductions mod p."""
    return ((1 << _SLOT) - p) // (p - 1) ** 2


def _forward_mod(rows, ncols, p):
    """Forward elimination of integer rows modulo p, stopping as soon as
    the leads fill all ncols columns.

    Returns (leads, cols, used): packed leads, each scaled to 1 at its
    first nonzero column and zero at the columns of the leads before it,
    those columns, and the indices of the input rows that became leads.
    So len(leads) is the rank modulo p, and the cols are the pivot columns
    of the reduced row echelon form.
    """
    limit = _limit(p)
    top = _SLOT * (ncols - 1)
    leads, shifts, cols, used = [], [], [], []
    for idx, row in enumerate(rows):
        if len(leads) == ncols:
            break
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
        head = next(filter(None, slots), 0)
        if not head:
            continue
        col = slots.index(head)
        inv = pow(head, -1, p)
        leads.append(_pack([s * inv % p for s in slots]))
        shifts.append(top - _SLOT * col)
        cols.append(col)
        used.append(idx)
    return leads, cols, used


def _echelon_mod(rows, ncols, p):
    """Reduced row echelon form of integer rows modulo p.

    Returns (pivots, images, used): the pivot columns in increasing order,
    the matching rows of the form on the non-pivot columns, in increasing
    order, as slot arrays, and the indices of the input rows that became
    pivot rows (a basis of the row space mod p).

    Back-substitution, newest lead first, updates only the packed free
    columns (n - r slots at rank r): a later lead, once reduced, is zero at
    every other pivot column, so lead i's coefficients are its own forward
    entries at the later pivots, read in one unpack.
    """
    leads, cols, used = _forward_mod(rows, ncols, p)
    pivset = set(cols)
    free = [c for c in range(ncols) if c not in pivset]
    limit = _limit(p)
    images = [0] * len(leads)
    for i in range(len(leads) - 1, -1, -1):
        slots = _unpack(leads[i], ncols)
        x = _pack([slots[f] for f in free])
        k = 0
        for j in range(i + 1, len(leads)):
            v = slots[cols[j]]
            if v:
                x += (p - v) * images[j]
                k += 1
                if k == limit:
                    x = _reduce(x, len(free), p)
                    k = 0
        images[i] = _reduce(x, len(free), p) if k else x
    order = sorted(range(len(cols)), key=cols.__getitem__)
    return ([cols[i] for i in order],
            [_unpack(images[i], len(free)) for i in order],
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
    """Integer rref rows from their free-column residues mod m, or None.

    Entries of one row share denominators, so each residue is first scaled
    by the denominator found so far in its row; most then come out as
    integers without a reconstruction.  The row is then cleared to its last
    denominator, which stands at the pivot, and made primitive."""
    bound = isqrt(m // 2)
    out = []
    for piv, res in zip(pivots, residues):
        entries = []   # (column, numerator, denominator at that point)
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
            entries.append((f, u, den))
        row = [0] * ncols
        row[piv] = den
        for f, u, d in entries:
            row[f] = u * (den // d)
        out.append(_primitive(row, piv))
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
            # the last element of a group is its lowest 64 bits
            buf[step - 1::step] = array("q", col)
            u = _slots_to_int(buf)
            out.append(u - (((u >> (_SLOT - 1)) & ones) << _SLOT))
        return out
    off = 1 << (width - 1)
    return [int.from_bytes(b"".join((c + off).to_bytes(nbytes, "little")
                                    for c in col), "little") - off * ones
            for col in cols]


def _annihilates(rows, vectors):
    """True iff every integer row annihilates every integer vector, checked
    exactly on packed columns.  A vector is a list of (column, coefficient)
    pairs, its nonzero entries."""
    if not rows or not vectors:
        return True
    # each product entry is below l1 * kmax in absolute value; signed slots
    # of ``width`` bits hold it, so a packed sum is zero iff every entry is
    l1 = max(sum(map(abs, row)) for row in rows)
    kmax = max((abs(c) for vec in vectors for _, c in vec), default=0)
    width = -(-(l1.bit_length() + kmax.bit_length() + 1) // _SLOT) * _SLOT
    packed = _pack_columns(rows, width, l1.bit_length() < _SLOT)
    for vec in vectors:
        acc = 0
        for col, c in vec:
            acc += c * packed[col]
        if acc:
            return False
    return True


def _kernel_vectors(red, pivots, free):
    """Yields, per free column f, the primitive kernel vector of the integer
    rref rows ``red`` with a positive entry at f, as (column, coefficient)
    pairs.

    The rational vector is 1 at f and -c_i / h_i at pivot i, c_i the
    row's entry at f and h_i its pivot entry; the lcm of the reduced
    denominators clears it to a primitive vector."""
    heads = [row[col] for row, col in zip(red, pivots)]
    for f in free:
        column = [row[f] for row in red]
        entries = [(pivots[i], column[i] // g, heads[i] // g)
                   for i in compress(range(len(column)), column)
                   for g in (gcd(column[i], heads[i]),)]
        d = lcm(*(h for _, _, h in entries))
        yield [(f, d)] + [(col, -c * (d // h)) for col, c, h in entries]


def _certified(rows, red, pivots, free):
    """True iff every kernel vector of the candidate ``red`` is annihilated
    by every integer row."""
    return _annihilates(rows, list(_kernel_vectors(red, pivots, free)))


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
        piv, images, used = _echelon_mod(part, ncols, p)
        used = used if subset is None else [subset[i] for i in used]
        pivset = set(piv)
        free_p = [f for f in range(ncols) if f not in pivset]
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
    """Canonical reduced row echelon form over the rationals, in integers.

    Returns (rref_rows, pivots): each row is the primitive integer multiple
    of the rational rref row with a positive entry at its pivot column, so
    it is zero at every other pivot column and ``row / row[pivot]`` is the
    rational row.  The input rows are integer.
    """
    if not rows:
        return [], []
    if len(rows) * ncols >= MODULAR_MIN_CELLS:
        result = _rref_modular(rows, ncols)
        if result is not None:
            return result
    return _rref_exact(rows, ncols)


def residual(vec, rref_rows, pivots):
    """Reduce a vector against integer rref rows without fractions; zero
    iff it lies in their row space.

    The rational residual is vec - sum (vec[p_i] / h_i) row_i, h_i the pivot
    entry of row i at column p_i: a row is zero at the other pivots, so no
    reduction changes another's coefficient.  Scaled by the lcm of the
    reduced denominators of those coefficients it is integer, and that
    positive multiple is returned.  ``vec`` is integer; a rational vector
    is passed as an integer multiple, whose residual is zero iff its own
    is."""
    coeffs = [(vec[col], row[col], row) for row, col in zip(rref_rows, pivots)
              if vec[col]]
    scale = lcm(*(h // gcd(c, h) for c, h, _ in coeffs))
    out = [scale * x for x in vec]
    for c, h, row in coeffs:
        k = scale * c // h
        out = [x - k * r for x, r in zip(out, row)]
    return out


def kernel_basis(rows, ncols):
    """Canonical basis of the right kernel {x : A x = 0}, in integers.

    One basis vector per free column f, in increasing order: the primitive
    integer vector with a positive entry at f and its other entries at pivot
    columns, a multiple of (1 at f, minus the rational rref entry at each
    pivot column).  A zero-row matrix yields the standard basis.
    """
    red, pivots = rref(rows, ncols)
    pivset = set(pivots)
    basis = []
    for vec in _kernel_vectors(red, pivots,
                               [f for f in range(ncols) if f not in pivset]):
        v = [0] * ncols
        for col, c in vec:
            v[col] = c
        basis.append(v)
    return basis


def span_is_kernel(rows, vectors, ncols):
    """dim span(vectors) when one prime proves ker(rows) = span(vectors)
    over Q, else None, which proves nothing either way.  The rows and the
    vectors are integer.

    Modulo p = PRIMES[0], let P be the pivot columns of the vectors and F
    the other columns.  If the rows restricted to F have rank |F| mod p,
    they have rank at least |F| over Q, so dim ker(rows) <= |P|.  The
    vectors have rank at least |P| over Q, so ker(rows) = span(vectors),
    of dimension |P|, as soon as the rows annihilate every vector: one
    exact product over Z.  The elimination on F stops at rank |F|.
    """
    p = PRIMES[0]
    _, cols, _ = _forward_mod(vectors, ncols, p)
    pivset = set(cols)
    free = [c for c in range(ncols) if c not in pivset]
    leads, _, _ = _forward_mod(([row[c] for c in free] for row in rows),
                               len(free), p)
    if len(leads) < len(free) or not _annihilates(
            rows, [[(c, x) for c, x in enumerate(v) if x] for v in vectors]):
        return None
    return len(cols)
