import random
from fractions import Fraction
from math import gcd

import pytest

import lagtrace.intkernel as intkernel
from lagtrace.derivations import _kernel_columns
from lagtrace.intkernel import _bezout, integer_kernel_basis
from oracles import oracle_integer_kernel_basis


def columns_of(rows, ncols):
    """Sparse {row: entry} columns of a dense matrix given by rows."""
    return [{r: row[j] for r, row in enumerate(rows) if row[j]} for j in range(ncols)]


def rows_of(columns, nrows):
    """Dense rows of a matrix given by sparse columns."""
    return [[column.get(r, 0) for column in columns] for r in range(nrows)]


def dense(vector, ncols):
    return tuple(vector.get(j, 0) for j in range(ncols))


def kernel(rows, ncols):
    """integer_kernel_basis on a dense matrix, with dense vectors out."""
    basis = integer_kernel_basis(columns_of(rows, ncols), len(rows))
    return [dense(v, ncols) for v in basis]


def dense_kernel_basis(rows, ncols):
    """The dense routine the sparse one replaced: the same column reduction on
    a full A and a full ncols x ncols transform U.  Kept as the oracle."""
    A = [list(r) for r in rows]
    U = [[1 if i == j else 0 for j in range(ncols)] for i in range(ncols)]

    def combine(jc, jo, x, y, p, q):
        for M in (A, U):
            for row in M:
                c, o = row[jc], row[jo]
                row[jc] = x * c + y * o
                row[jo] = p * c + q * o

    col = 0
    for r in range(len(A)):
        if col == ncols:
            break
        pivot = next((j for j in range(col, ncols) if A[r][j]), None)
        if pivot is None:
            continue
        if pivot != col:
            for M in (A, U):
                for row in M:
                    row[pivot], row[col] = row[col], row[pivot]
        for j in range(col + 1, ncols):
            if not A[r][j]:
                continue
            a, b = A[r][col], A[r][j]
            g = gcd(a, b)
            x, y = _bezout(a, b)
            combine(col, j, x, y, -(b // g), a // g)
        col += 1
    return [tuple(U[i][j] for i in range(ncols)) for j in range(col, ncols)]


def rational_nullity(rows, ncols):
    # row-reduce over Q; nullity = ncols - rank
    mat = [[Fraction(x) for x in r] for r in rows]
    rank = 0
    col = 0
    nrows = len(mat)
    while rank < nrows and col < ncols:
        piv = next((r for r in range(rank, nrows) if mat[r][col] != 0), None)
        if piv is None:
            col += 1
            continue
        mat[rank], mat[piv] = mat[piv], mat[rank]
        inv = 1 / mat[rank][col]
        mat[rank] = [x * inv for x in mat[rank]]
        for r in range(nrows):
            if r != rank and mat[r][col] != 0:
                f = mat[r][col]
                mat[r] = [a - f * b for a, b in zip(mat[r], mat[rank])]
        rank += 1
        col += 1
    return ncols - rank


def random_matrices():
    rng = random.Random(20240817)
    for _ in range(300):
        nrows = rng.randrange(1, 6)
        ncols = rng.randrange(1, 7)
        rows = [[rng.randrange(-4, 5) for _ in range(ncols)] for _ in range(nrows)]
        yield rows, ncols


def sparse_random_matrices():
    rng = random.Random(7)
    for _ in range(300):
        nrows = rng.randrange(0, 12)
        ncols = rng.randrange(0, 14)
        rows = [
            [rng.randrange(-9, 10) if rng.random() < 0.2 else 0 for _ in range(ncols)]
            for _ in range(nrows)
        ]
        yield rows, ncols


def mat_vec(rows, v):
    return [sum(a * b for a, b in zip(r, v)) for r in rows]


class TestKernelBasis:
    def test_zero_matrix(self):
        basis = integer_kernel_basis([{}, {}, {}], 1)
        assert basis == [{0: 1}, {1: 1}, {2: 1}]

    def test_explicit_zero_entries_are_dropped(self):
        assert integer_kernel_basis([{0: 0}, {0: 0, 1: 0}], 2) == [{0: 1}, {1: 1}]

    def test_full_rank_square(self):
        basis = integer_kernel_basis([{0: 1}, {1: 1}], 2)
        assert basis == []

    def test_scaled_row_gives_primitive_kernel(self):
        # 2x + 2y = 0 has primitive solution (1, -1), not (2, -2)
        basis = kernel([[2, 2]], 2)
        assert len(basis) == 1
        v = basis[0]
        assert mat_vec([[2, 2]], v) == [0]
        assert gcd(v[0], v[1]) == 1

    def test_saturation(self):
        # kernel of [3 6] is generated by (2, -1) (not (6, -3) or similar)
        basis = kernel([[3, 6]], 2)
        assert len(basis) == 1
        assert abs(basis[0][0] * 1 + basis[0][1] * 2) == 0
        assert gcd(abs(basis[0][0]), abs(basis[0][1])) == 1

    def test_no_columns(self):
        assert integer_kernel_basis([], 0) == []

    def test_empty_rows_means_everything(self):
        basis = integer_kernel_basis([{}, {}, {}, {}], 0)
        assert len(basis) == 4

    def test_vectors_are_sparse_and_ascending(self):
        for rows, ncols in sparse_random_matrices():
            for v in integer_kernel_basis(columns_of(rows, ncols), len(rows)):
                assert all(v.values())
                assert list(v) == sorted(v)
                assert all(0 <= j < ncols for j in v)

    def test_random_against_rational_oracle(self):
        for rows, ncols in random_matrices():
            nrows = len(rows)
            basis = kernel(rows, ncols)
            assert len(basis) == rational_nullity(rows, ncols)
            for v in basis:
                assert mat_vec(rows, v) == [0] * nrows
                g = 0
                for x in v:
                    g = gcd(g, abs(x))
                assert g == 1

    def test_independence(self):
        rng = random.Random(99)
        for _ in range(40):
            ncols = rng.randrange(2, 6)
            rows = [[rng.randrange(-3, 4) for _ in range(ncols)] for _ in range(2)]
            basis = kernel(rows, ncols)
            if len(basis) < 2:
                continue
            assert rational_nullity([list(v) for v in basis], ncols) == ncols - len(basis)


class TestDenseOracle:
    """The sparse routine returns the same list as the dense one, not just a
    basis of the same lattice, so printed bases do not change."""

    def test_random_matrices(self):
        for rows, ncols in random_matrices():
            assert kernel(rows, ncols) == dense_kernel_basis(rows, ncols)

    def test_sparse_random_matrices(self):
        for rows, ncols in sparse_random_matrices():
            assert kernel(rows, ncols) == dense_kernel_basis(rows, ncols)

    @pytest.mark.parametrize("space,genus,k", [("G", 2, 2), ("D", 2, 3), ("G", 3, 2)])
    def test_bracket_and_projection_matrices(self, space, genus, k):
        columns, nrows = _kernel_columns(genus, k, space == "G")
        basis = integer_kernel_basis(columns, nrows)
        assert basis
        ncols = len(columns)
        rows = rows_of(columns, nrows)
        assert [dense(v, ncols) for v in basis] == dense_kernel_basis(rows, ncols)

    def test_row_outside_range_rejected(self):
        for row in (2, -1, 5):
            with pytest.raises(ValueError):
                integer_kernel_basis([{0: 1}, {row: 3}], 2)


#: (space, genus, k) of the bracket matrices the oracles are run on
BRACKET_SPACES = [("G", 2, k) for k in (1, 2, 3, 4)] + [
    ("G", 3, 2),
    ("G", 3, 3),
    ("G", 4, 2),
    ("D", 2, 3),
]


def block_diagonal_matrices():
    """Seeded random block-diagonal matrices, entries in -9..9, with the
    rows and columns of the blocks shuffled together, so that a pivot swap
    can move a column of another block, or a zero column."""
    rng = random.Random(40)
    for _ in range(150):
        rows, ncols = [], 0
        for _ in range(rng.randrange(1, 5)):
            h, w = rng.randrange(1, 5), rng.randrange(1, 6)
            density = rng.choice((0.4, 0.7, 1.0))
            for _ in range(h):
                entries = {ncols + j: rng.randrange(-9, 10) for j in range(w) if rng.random() < density}
                rows.append(entries)
            ncols += w
        ncols += rng.randrange(0, 3)  # zero columns
        rng.shuffle(rows)
        order = list(range(ncols))
        rng.shuffle(order)
        columns = [{} for _ in range(ncols)]
        for r, entries in enumerate(rows):
            for j, a in entries.items():
                columns[order[j]][r] = a
        yield columns, len(rows)


class TestRowIndexOracle:
    """The block kernel returns the list that the row -> columns index
    kernel it replaced returns (oracles.oracle_integer_kernel_basis), on
    the bracket matrices and on random block-diagonal ones, and reaches
    every shape of Bezout step on the way."""

    @pytest.fixture
    def shapes(self, monkeypatch):
        seen = {"x = 0": 0, "y = 0": 0, "general": 0}

        def counted(a, b):
            x, y = _bezout(a, b)
            seen["x = 0" if x == 0 else "y = 0" if y == 0 else "general"] += 1
            return x, y

        monkeypatch.setattr(intkernel, "_bezout", counted)
        return seen

    def test_bracket_matrices(self, shapes):
        for space, genus, k in BRACKET_SPACES:
            columns, nrows = _kernel_columns(genus, k, space == "G")
            want = oracle_integer_kernel_basis(columns, nrows)
            assert integer_kernel_basis(columns, nrows) == want, (space, genus, k)
        assert all(shapes.values()), f"a Bezout shape never occurred: {shapes}"

    def test_block_diagonal_matrices(self, shapes):
        for columns, nrows in block_diagonal_matrices():
            want = oracle_integer_kernel_basis(columns, nrows)
            assert integer_kernel_basis(columns, nrows) == want
        assert all(shapes.values()), f"a Bezout shape never occurred: {shapes}"
