"""Exact integer nullspaces via unimodular column reduction.

Used for the kernel bases of the bracket and projection maps.  Column
operations with determinant one track a transformation matrix U so that the
zero columns of the reduced matrix correspond to columns of U spanning the
full integral kernel lattice (kernels of integer matrices are saturated, so
no separate saturation pass is needed).

The matrix comes in, and the kernel basis goes out, as sparse columns: one
``{index: nonzero entry}`` dict per column.  A and U are kept in that form.
The bracket and projection maps preserve letter content, so the matrix
splits into blocks: sets of rows joined by shared columns, found once by a
union-find over the nonzeros.  A column operation never leaves its block,
so the pivot search at a row scans only the unfinished columns of that
row's block, and the work grows with the block sizes rather than with
ncols squared.  A column keeps its number; its position in the reduction
lives in two lists, so a pivot swap moves two integers and no dict.  Most
steps have one Bezout coefficient zero (one of the two entries divides the
other) and run in place on the two dicts; only the general step builds new
ones.
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
    for j, column in enumerate(A):
        for r in column:
            if not 0 <= r < nrows:
                raise ValueError(f"column {j} has row {r!r} outside range({nrows})")
    block_of = _blocks(A, nrows)  # row -> unfinished columns of its block
    U: list[dict[int, int]] = [{j: 1} for j in range(ncols)]
    pos = list(range(ncols))  # column -> position
    at = list(range(ncols))  # position -> column
    col = 0
    for r in range(nrows):
        if col == ncols:
            break
        block = block_of[r]
        if not block:
            continue
        live = [j for j in block if r in A[j]]
        if not live:
            continue
        live.sort(key=pos.__getitem__)
        c = live[0]
        if pos[c] != col:
            # the pivot moves to position col, the column there to its place
            o = at[col]
            at[col], at[pos[c]] = c, o
            pos[c], pos[o] = col, pos[c]
        for j in live[1:]:
            a, b = A[c][r], A[j][r]
            g = gcd(a, b)
            x, y = _bezout(a, b)
            # unimodular 2x2: [[x, -b//g], [y, a//g]] has determinant 1, so
            # column c <- x*c + y*j ; column j <- p*c + q*j
            p, q = -(b // g), a // g
            if y == 0:
                # a divides b, x = q = sign(a): eliminate into j, then sign c
                for M in (A, U):
                    _add_into(M[j], q, p, M[c])
                    if x < 0:
                        _negate(M[c])
            elif x == 0:
                # b divides a, y = -p = sign(b): c becomes y*j, j becomes
                # p*c + q*j, built in c's dict before the two trade places
                for M in (A, U):
                    _add_into(M[c], p, q, M[j])
                    if y < 0:
                        _negate(M[j])
                    M[c], M[j] = M[j], M[c]
            else:
                A[c], A[j] = _mix(A[c], A[j], x, y, p, q)
                U[c], U[j] = _mix(U[c], U[j], x, y, p, q)
        # column c is final: later rows only touch columns to its right
        block.remove(c)
        A[c] = U[c] = None
        col += 1
    return [dict(sorted(U[at[i]].items())) for i in range(col, ncols)]


def _blocks(A: list[dict[int, int]], nrows: int) -> list[list[int] | None]:
    """For each row, the list of columns in its block, in ascending order,
    one list object per block; None for a row with no nonzero."""
    parent = list(range(nrows))

    def root(r):
        while parent[r] != r:
            parent[r] = r = parent[parent[r]]
        return r

    for column in A:
        if column:
            rows = iter(column)
            first = root(next(rows))
            for r in rows:
                r = root(r)
                if r != first:
                    parent[r] = first
    lists: dict[int, list[int]] = {}
    for j, column in enumerate(A):
        if column:
            lists.setdefault(root(next(iter(column))), []).append(j)
    return [lists.get(root(r)) for r in range(nrows)]


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


def _negate(c: dict) -> None:
    for i in c:
        c[i] = -c[i]


def _add_into(o: dict, s: int, t: int, c: dict) -> None:
    # o <- s*o + t*c in place, zeros dropped; s is 1 or -1 and t is nonzero,
    # so an entry can only vanish where o had one
    if s < 0:
        _negate(o)
    for i, v in c.items():
        w = o.get(i, 0) + t * v
        if w:
            o[i] = w
        else:
            del o[i]


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
