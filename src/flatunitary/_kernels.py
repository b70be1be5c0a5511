"""Fraction-free Gauss-Jordan elimination kernels.

Single-step fraction-free elimination: at pivot step with pivot value p and
previous pivot value q (initially 1), every other row is updated as

    row_i <- (p * row_i - row_i[pivot_col] * pivot_row) // q

and the division is exact (the entries stay minors of the input matrix).
Pivot rule is pinned for determinism: columns scanned left to right, the
first row at or below the next pivot position with a nonzero entry is
swapped up; no other row reordering ever happens.

ff_gauss_jordan_int runs over Python ints (rational elimination after
clearing denominators); ff_gauss_jordan_ring runs over any integral domain
whose operations are passed in (Z[t] entries, integer polynomials, for
elimination over Q(t)).
"""

from __future__ import annotations

# kept for perfbench/run.py, which records it in every result's `machine` block
BACKEND = "python"


def ff_gauss_jordan_int(rows, ncols):
    """In-place fraction-free Gauss-Jordan over Python ints.

    rows: list of row lists, mutated in place; rows may be wider than
    ncols (augmented columns), pivots are only searched in the first
    ncols columns but every column is updated. Returns the pivot column
    list. After return, row k (k < rank) has its pivot at pivots[k] and
    zeros in every other pivot column; rows beyond the rank are zero in
    the pivot-search region.
    """
    nrows = len(rows)
    width = len(rows[0]) if nrows else ncols
    pivots = []
    prev = 1
    piv_r = 0
    for c in range(ncols):
        if piv_r == nrows:
            break
        r = piv_r
        while r < nrows and rows[r][c] == 0:
            r += 1
        if r == nrows:
            continue
        if r != piv_r:
            rows[r], rows[piv_r] = rows[piv_r], rows[r]
        piv_row = rows[piv_r]
        p = piv_row[c]
        for i in range(nrows):
            if i == piv_r:
                continue
            row = rows[i]
            x = row[c]
            if x == 0:
                if p != prev:
                    for j in range(width):
                        v = row[j]
                        if v:
                            q, rem = divmod(p * v, prev)
                            if rem:
                                raise ArithmeticError("inexact division in elimination")
                            row[j] = q
            else:
                for j in range(width):
                    q, rem = divmod(p * row[j] - x * piv_row[j], prev)
                    if rem:
                        raise ArithmeticError("inexact division in elimination")
                    row[j] = q
        prev = p
        pivots.append(c)
        piv_r += 1
    return pivots


def ff_gauss_jordan_ring(rows, ncols, mul, sub, divexact, is_zero):
    """Generic twin of ff_gauss_jordan_int over any integral domain.

    Ring operations are passed in; divexact(a, b) must raise if b does not
    divide a. Used for Z[t] elimination; same pivot rule, same
    augmented-column convention (pivot search in the first ncols columns,
    updates across the whole row).
    """
    nrows = len(rows)
    width = len(rows[0]) if nrows else ncols
    pivots = []
    prev = None  # None encodes the ring's 1 so the first step skips division
    piv_r = 0
    for c in range(ncols):
        if piv_r == nrows:
            break
        r = piv_r
        while r < nrows and is_zero(rows[r][c]):
            r += 1
        if r == nrows:
            continue
        if r != piv_r:
            rows[r], rows[piv_r] = rows[piv_r], rows[r]
        piv_row = rows[piv_r]
        p = piv_row[c]
        for i in range(nrows):
            if i == piv_r:
                continue
            row = rows[i]
            x = row[c]
            if is_zero(x):
                for j in range(width):
                    if not is_zero(row[j]):
                        v = mul(p, row[j])
                        row[j] = v if prev is None else divexact(v, prev)
            else:
                for j in range(width):
                    v = sub(mul(p, row[j]), mul(x, piv_row[j]))
                    row[j] = v if prev is None else divexact(v, prev)
        prev = p
        pivots.append(c)
        piv_r += 1
    return pivots
