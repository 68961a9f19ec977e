"""Exact integer nullspaces via unimodular column reduction.

Used for the kernel bases of the bracket and projection maps.  Column
operations with determinant one track a transformation matrix U so that the
zero columns of the reduced matrix correspond to columns of U spanning the
full integral kernel lattice (kernels of integer matrices are saturated, so
no separate saturation pass is needed).

A and U are stored sparsely, one dict per column, with a row -> columns
index to find pivots.  The bracket and projection maps preserve letter
content, so every column of U stays inside one content block and the work
grows with the block sizes rather than with ncols squared.
"""

from __future__ import annotations

from itertools import compress
from math import gcd


def integer_kernel_basis(rows: list[list[int]], ncols: int) -> list[tuple[int, ...]]:
    """Basis of {v in Z^ncols : A v = 0} for A given by rows.

    Deterministic: pivots are chosen left to right, rows in the given order.
    """
    A: list[dict[int, int]] = [{} for _ in range(ncols)]  # column -> {row: entry}
    support: list[set[int]] = []  # row -> columns with a nonzero entry
    for r, row in enumerate(rows):
        if len(row) != ncols:
            raise ValueError("ragged matrix")
        live = set(compress(range(ncols), row))
        for j in live:
            A[j][r] = row[j]
        support.append(live)
    U: list[dict[int, int]] = [{j: 1} for j in range(ncols)]  # column -> {row: entry}
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
    return [_dense(U[j], ncols) for j in range(col, ncols)]


def _dense(column: dict[int, int], n: int) -> tuple[int, ...]:
    out = [0] * n
    for i, a in column.items():
        out[i] = a
    return tuple(out)


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
