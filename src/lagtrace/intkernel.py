"""Exact integer nullspaces via unimodular column reduction.

Used for the kernel bases of the bracket and projection maps.  Column
operations with determinant one track a transformation matrix U so that the
zero columns of the reduced matrix correspond to columns of U spanning the
full integral kernel lattice (kernels of integer matrices are saturated, so
no separate saturation pass is needed).

The matrix comes in, and the kernel basis goes out, as sparse columns: one
``{index: nonzero entry}`` dict per column.  A and U are kept in that form,
with a row -> columns index to find pivots.  The bracket and projection maps
preserve letter content, so every column of U stays inside one content block
and the work grows with the block sizes rather than with ncols squared.
"""

from __future__ import annotations

from math import gcd


def integer_kernel_basis(columns: list[dict[int, int]], nrows: int) -> list[dict[int, int]]:
    """Basis of {v in Z^ncols : A v = 0} for A given by columns {row: entry}.

    Each basis vector is a {column: nonzero entry} dict in ascending column
    order.  Deterministic: pivots are chosen left to right, rows in index
    order.  A row index outside range(nrows) raises ValueError.
    """
    ncols = len(columns)
    A = [{r: a for r, a in column.items() if a} for column in columns]
    support: list[set[int]] = [set() for _ in range(nrows)]  # row -> live columns
    for j, column in enumerate(A):
        for r in column:
            if not 0 <= r < nrows:
                raise ValueError(f"column {j} has row {r!r} outside range({nrows})")
            support[r].add(j)
    U: list[dict[int, int]] = [{j: 1} for j in range(ncols)]
    col = 0
    for r, live in enumerate(support):
        if col == ncols:
            break
        if not live:
            continue
        pivot, *rest = sorted(live)
        if pivot != col:
            _swap_cols(A, U, support, pivot, col)
        for j in rest:
            a, b = A[col][r], A[j][r]
            g = gcd(a, b)
            x, y = _bezout(a, b)
            # unimodular 2x2: [[x, -b//g], [y, a//g]] has determinant 1
            _combine_cols(A, U, support, col, j, x, y, -(b // g), a // g)
        # column col is final: later rows only touch columns to its right
        for s in A[col]:
            support[s].discard(col)
        A[col] = U[col] = None
        col += 1
    return [dict(sorted(U[j].items())) for j in range(col, ncols)]


def _bezout(a: int, b: int) -> tuple[int, int]:
    # x*a + y*b == gcd(a, b)
    old_r, r = a, b
    old_x, x = 1, 0
    old_y, y = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_x, x = x, old_x - q * x
        old_y, y = y, old_y - q * y
    if old_r < 0:
        old_x, old_y = -old_x, -old_y
    return old_x, old_y


def _reindex(A, support, j, new):
    for s in A[j]:
        support[s].discard(j)
    A[j] = new
    for s in new:
        support[s].add(j)


def _swap_cols(A, U, support, j1, j2):
    c1, c2 = A[j1], A[j2]
    _reindex(A, support, j1, c2)
    _reindex(A, support, j2, c1)
    U[j1], U[j2] = U[j2], U[j1]


def _mix(c: dict, o: dict, x, y, p, q) -> tuple[dict, dict]:
    new_c, new_o = {}, {}
    for i in c.keys() | o.keys():
        u, v = c.get(i, 0), o.get(i, 0)
        s, t = x * u + y * v, p * u + q * v
        if s:
            new_c[i] = s
        if t:
            new_o[i] = t
    return new_c, new_o


def _combine_cols(A, U, support, jc, jo, x, y, p, q):
    # column jc <- x*col_jc + y*col_jo ; column jo <- p*col_jc + q*col_jo
    new_c, new_o = _mix(A[jc], A[jo], x, y, p, q)
    _reindex(A, support, jc, new_c)
    _reindex(A, support, jo, new_o)
    U[jc], U[jo] = _mix(U[jc], U[jo], x, y, p, q)
