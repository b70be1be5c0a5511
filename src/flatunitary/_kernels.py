"""Fraction-free Gauss-Jordan elimination kernels.

Both kernels share one pivot rule, pinned for determinism: columns
scanned left to right, the first row at or below the next pivot position
with a nonzero entry is swapped up; no other row reordering ever happens.
Rows may be wider than ncols (augmented columns): pivots are searched in
the first ncols columns only, but every column is updated. The rows are
sparse (Macaulay rows Y^m * F_i, a few percent nonzero), so while
eliminating each row is held as a dict of its nonzero entries and a step
updates only the rows that are nonzero in the pivot column, over the
union of their support and the pivot row's. On return every row is
written back densely into the caller's row object.

ff_gauss_jordan_int (Q, after clearing denominators) keeps every row
primitive, as a primitive remainder sequence does: rows are divided by
their content, the pivot row is given a positive pivot p, and a row with
entry x in the pivot column becomes (p/h) * row - (x/h) * pivot_row, h =
gcd(p, x), divided by its content. Each row stays a nonzero rational
multiple of the row the dense fraction-free loop would hold, the primitive
one, and so never larger than that Bareiss row. At the end the pivot rows
are scaled to one pivot value L, the lcm of their pivots and so the least
common denominator of the reduced rows.

ff_gauss_jordan_ring (Z[t] entries, for elimination over Q(t)) is
single-step fraction-free elimination (Bareiss 1968): at a step with
pivot value p and previous pivot value q (initially 1), every other row
becomes (p * row - row[pivot_col] * pivot_row) / q, an exact division
(the entries stay minors of the input), so every pivot row ends on the
last pivot value. A row nonzero only away from the pivot column would
just be scaled by p / q; instead each row keeps a level, the pivot value
current when it was last written, and is brought up to date by one
division, v * c / level with c the current previous pivot, when it is
next used or written back. The factors p_k / p_(k-1) telescope, so that
division is exact too and still checked: a remainder raises
ArithmeticError.
"""

from __future__ import annotations

from math import gcd, lcm

# kept for perfbench/run.py, which records it in every result's `machine` block
BACKEND = "python"


def _swap(r, s, *lists):
    for xs in lists:
        xs[r], xs[s] = xs[s], xs[r]


def _write_back(rows, sparse, zero):
    """Every sparse row written densely into the caller's row object."""
    zeros = [zero] * len(rows[0])
    for row, entries in zip(rows, sparse):
        row[:] = zeros
        for j, v in entries.items():
            row[j] = v


def _primitive(row):
    """An int row over its content (the row itself when that is 1 or the
    row is empty)."""
    g = gcd(*row.values())
    return {j: v // g for j, v in row.items()} if g > 1 else row


def ff_gauss_jordan_int(rows, ncols):
    """In-place fraction-free Gauss-Jordan over Python ints, on primitive
    rows (see the module docstring). Returns the pivot column list. After
    return, row k (k < rank) has its pivot at pivots[k] and zeros in every
    other pivot column, and every pivot entry is L, the least common
    denominator of the reduced rows (augmented columns included), so row k
    over L is reduced row k; rows beyond the rank are primitive and zero in
    the pivot-search region.
    """
    nrows = len(rows)
    sparse = [_primitive({j: v for j, v in enumerate(row) if v}) for row in rows]
    pivots = []
    piv_r = 0
    for c in range(ncols):
        if piv_r == nrows:
            break
        r = piv_r
        while r < nrows and c not in sparse[r]:
            r += 1
        if r == nrows:
            continue
        if r != piv_r:
            _swap(r, piv_r, rows, sparse)
        piv = sparse[piv_r]
        if piv[c] < 0:
            piv = sparse[piv_r] = {j: -v for j, v in piv.items()}
        p = piv[c]
        for i, row in enumerate(sparse):
            if i == piv_r or c not in row:
                continue
            x = row[c]
            h = gcd(p, x)
            a, b = p // h, x // h
            out = {}
            for j, v in row.items():
                w = piv.get(j)
                v = a * v if w is None else a * v - b * w
                if v:
                    out[j] = v
            for j, w in piv.items():
                if j not in row:
                    out[j] = -b * w
            sparse[i] = _primitive(out)
        pivots.append(c)
        piv_r += 1
    if pivots:
        L = lcm(*(sparse[k][c] for k, c in enumerate(pivots)))
        for k, c in enumerate(pivots):
            if (f := L // sparse[k][c]) != 1:
                sparse[k] = {j: f * v for j, v in sparse[k].items()}
    if rows:
        _write_back(rows, sparse, 0)
    return pivots


def ff_gauss_jordan_ring(rows, ncols, mul, sub, divexact, is_zero):
    """Bareiss counterpart of ff_gauss_jordan_int over any integral domain.

    Ring operations are passed in; divexact(a, b) must raise if b does not
    divide a. Used for Z[t] elimination; same pivot rule, same
    augmented-column convention, sparse rows at lazy levels (see the
    module docstring). Every pivot row ends on the last pivot value. None
    stands for the ring's 1 (as a level, and as the first step's divisor),
    and sub(p, p) gives its 0.
    """

    def up(row, lv, cur):
        if lv is cur:
            return row
        if lv is None:
            return {j: mul(v, cur) for j, v in row.items()}
        return {j: divexact(mul(v, cur), lv) for j, v in row.items()}

    nrows = len(rows)
    sparse = [{j: v for j, v in enumerate(row) if not is_zero(v)} for row in rows]
    level = [None] * nrows
    pivots = []
    prev = None
    piv_r = 0
    for c in range(ncols):
        if piv_r == nrows:
            break
        r = piv_r
        while r < nrows and c not in sparse[r]:
            r += 1
        if r == nrows:
            continue
        if r != piv_r:
            _swap(r, piv_r, rows, sparse, level)
        piv = sparse[piv_r] = up(sparse[piv_r], level[piv_r], prev)
        p = level[piv_r] = piv[c]
        zero = sub(p, p)
        for i, row in enumerate(sparse):
            if i == piv_r or c not in row:
                continue
            row = up(row, level[i], prev)
            x = row[c]
            out = {}
            for j, v in row.items():
                w = piv.get(j)
                v = mul(p, v) if w is None else sub(mul(p, v), mul(x, w))
                if not is_zero(v):
                    out[j] = v if prev is None else divexact(v, prev)
            for j, w in piv.items():
                if j not in row:
                    v = sub(zero, mul(x, w))
                    out[j] = v if prev is None else divexact(v, prev)
            sparse[i] = out
            level[i] = p
        prev = p
        pivots.append(c)
        piv_r += 1
    if pivots:
        _write_back(rows, [up(e, lv, prev) for e, lv in zip(sparse, level)], zero)
    return pivots
