"""Fraction-free Gauss-Jordan elimination kernels.

Single-step fraction-free elimination (Bareiss 1968): at pivot step with
pivot value p and previous pivot value q (initially 1), every other row is
updated as

    row_i <- (p * row_i - row_i[pivot_col] * pivot_row) // q

and the division is exact (the entries stay minors of the input matrix).
Pivot rule is pinned for determinism: columns scanned left to right, the
first row at or below the next pivot position with a nonzero entry is
swapped up; no other row reordering ever happens.

The rows are sparse (Macaulay rows Y^m * F_i, a few percent nonzero), so
while eliminating each row is held as a dict of its nonzero entries, and a
step updates only the rows that are nonzero in the pivot column, over the
union of their support and the pivot row's. Every other row would only be
scaled by p / q. Instead each row keeps a level L, the pivot value that was
current when it was last written, and its entries v stand for the dense
entries v * c / L, c being the current previous pivot. The factors
p_k / p_(k-1) telescope, so one division v * c // L brings a row up to
date when it next becomes the pivot row or is updated, and once more at
the end, when every row is written back densely into the caller's row
object. Each of these divisions is still exact, and still checked: the
quotient is the entry the dense update would hold at that step, a minor of
the input and so in the ring; a remainder raises ArithmeticError.

ff_gauss_jordan_int runs over Python ints (rational elimination after
clearing denominators); ff_gauss_jordan_ring runs over any integral domain
whose operations are passed in (Z[t] entries, integer polynomials, for
elimination over Q(t)).
"""

from __future__ import annotations

# kept for perfbench/run.py, which records it in every result's `machine` block
BACKEND = "python"

_INEXACT = "inexact division in elimination"


def _swap(r, s, *lists):
    for xs in lists:
        xs[r], xs[s] = xs[s], xs[r]


def _write_back(rows, sparse, level, up, cur, zero):
    """Every row, brought up to level cur, written densely into the
    caller's row object."""
    zeros = [zero] * len(rows[0])
    for row, entries, lv in zip(rows, sparse, level):
        row[:] = zeros
        for j, v in up(entries, lv, cur).items():
            row[j] = v


def _int_up(row, lv, cur):
    """An int row's entries at level lv, brought to level cur."""
    if lv == cur:
        return row
    out = {}
    for j, v in row.items():
        q, rem = divmod(v * cur, lv)
        if rem:
            raise ArithmeticError(_INEXACT)
        out[j] = q
    return out


def ff_gauss_jordan_int(rows, ncols):
    """In-place fraction-free Gauss-Jordan over Python ints.

    rows: list of row lists, mutated in place; rows may be wider than
    ncols (augmented columns), pivots are only searched in the first
    ncols columns but every column is updated. Returns the pivot column
    list. After return, row k (k < rank) has its pivot at pivots[k] and
    zeros in every other pivot column; rows beyond the rank are zero in
    the pivot-search region. While eliminating, rows are dicts of their
    nonzero entries at lazy levels (see the module docstring); on return
    each row object holds exactly the entries of the dense update.
    """
    nrows = len(rows)
    sparse = [{j: v for j, v in enumerate(row) if v} for row in rows]
    level = [1] * nrows
    pivots = []
    prev = 1
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
        piv = sparse[piv_r] = _int_up(sparse[piv_r], level[piv_r], prev)
        p = level[piv_r] = piv[c]
        for i, row in enumerate(sparse):
            if i == piv_r or c not in row:
                continue
            row = _int_up(row, level[i], prev)
            x = row[c]
            out = {}
            for j, v in row.items():
                w = piv.get(j)
                v = p * v if w is None else p * v - x * w
                if v:
                    q, rem = divmod(v, prev)
                    if rem:
                        raise ArithmeticError(_INEXACT)
                    out[j] = q
            for j, w in piv.items():
                if j not in row:
                    q, rem = divmod(-x * w, prev)
                    if rem:
                        raise ArithmeticError(_INEXACT)
                    out[j] = q
            sparse[i] = out
            level[i] = p
        prev = p
        pivots.append(c)
        piv_r += 1
    if pivots:
        _write_back(rows, sparse, level, _int_up, prev, 0)
    return pivots


def ff_gauss_jordan_ring(rows, ncols, mul, sub, divexact, is_zero):
    """Generic twin of ff_gauss_jordan_int over any integral domain.

    Ring operations are passed in; divexact(a, b) must raise if b does not
    divide a. Used for Z[t] elimination; same pivot rule, same
    augmented-column convention (pivot search in the first ncols columns,
    updates across the whole row), same sparse rows and levels. None
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
        _write_back(rows, sparse, level, up, prev, zero)
    return pivots
