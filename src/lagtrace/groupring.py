"""Integral group rings of the surface and handlebody free groups, Fox
calculus, and exact Laurent-polynomial arithmetic for their abelianizations.

Ring elements keep exact integer coefficients throughout.  The noncommutative
ring ZF stores words of the free group as keys; the abelianized rings Z[H] and
Z[H'] are Laurent polynomial rings keyed by exponent vectors (same letter
order as the tensor alphabets: a_1..a_g, b_1..b_g for H, b'_1..b'_g for H').
"""

from __future__ import annotations

from .errors import AmbientMismatch, NotMonomial
from .freegroup import (
    FreeGroupMap,
    GroupWord,
    apply,
    format_word,
    _cancel_seam,
    _rank,
)
from .tensorlie import (
    Alphabet,
    Sparse,
    TensorPoly,
    _fox_parts,
    _join_terms,
    _merge,
    _monomial,
    _word_alphabet,
)


class GroupRingElem(Sparse):
    """Finite integer combination of free group words (noncommutative)."""

    __slots__ = ("ambient", "genus")
    _SPACE = ("ambient", "genus")
    _MISMATCH = "ring elements over different groups"

    def __init__(self, ambient: str, genus: int, terms=None):
        self._init((ambient, genus), terms)

    def _key(self, w):
        if not isinstance(w, GroupWord):
            raise TypeError("group ring keys must be group words")
        if w.ambient != self.ambient or w.genus != self.genus:
            raise AmbientMismatch("word key does not match the ring")
        return w

    def __mul__(self, other):
        if isinstance(other, int):
            return self.scale(other)
        self._check(other)
        out: dict = {}
        for w1, c1 in self.terms.items():
            for w2, c2 in other.terms.items():
                _merge(out, w1 * w2, c1 * c2)
        return GroupRingElem._trusted(self._space, out)

    def __rmul__(self, other):
        if isinstance(other, int):
            return self.scale(other)
        return NotImplemented

    def __repr__(self):
        return f"GroupRingElem({render_ring(self)!r})"


def apply_ring(f: FreeGroupMap, e: GroupRingElem) -> GroupRingElem:
    """Extend a free group map linearly over the group ring."""
    out: dict = {}
    for w, c in e.terms.items():
        _merge(out, apply(f, w), c)
    return GroupRingElem._trusted(e._space, out)


def render_ring(e: GroupRingElem) -> str:
    return _join_terms(e.terms, format_word, order=lambda w: (len(w.letters), w.letters))


# ---------------------------------------------------------------------------
# Fox calculus


def fox_derivative(u: GroupWord, j: int) -> GroupRingElem:
    """Free derivative of a word with respect to generator j (1-based code).

    Characterized by d(gamma_i) = delta_ij together with the product rule
    d(uv) = d(u) + u d(v); on a reduced word x_1..x_n this collapses to a sum
    of prefixes:  + x_1..x_{p-1} where x_p = gamma_j, - x_1..x_p where
    x_p = gamma_j^-1.  A prefix of a reduced word is reduced, and no two of
    these prefixes are equal (that would need x_{p-1} x_p = gamma_j^-1 gamma_j),
    so each is a slice of the letters with coefficient +-1.
    """
    ambient, genus, letters = u.ambient, u.genus, u.letters
    rank = _rank(ambient, genus)
    if not 1 <= j <= rank:
        raise ValueError(f"generator index {j} out of range 1..{rank}")
    out: dict = {}
    for p, x in enumerate(letters):
        if x == j:
            out[GroupWord._trusted(ambient, genus, letters[:p])] = 1
        elif x == -j:
            out[GroupWord._trusted(ambient, genus, letters[: p + 1])] = -1
    return GroupRingElem._trusted((ambient, genus), out)


def fox_bar_column(w: GroupWord) -> list[GroupRingElem]:
    """[bar(dw/dgamma_1), ..., bar(dw/dgamma_rank)] in one pass over w.

    The bar of the prefix x_1..x_p is x_p^-1..x_1^-1, the last p letters of
    w^-1, so every term is a slice of one inverted letter tuple; the prefixes
    are distinct as in fox_derivative, so every coefficient is +-1.
    """
    ambient, genus, letters = w.ambient, w.genus, w.letters
    inverse = tuple(-x for x in reversed(letters))
    n = len(letters)
    cols: list[dict] = [{} for _ in range(_rank(ambient, genus))]
    for p, x in enumerate(letters):
        if x > 0:
            cols[x - 1][GroupWord._trusted(ambient, genus, inverse[n - p :])] = 1
        else:
            cols[-x - 1][GroupWord._trusted(ambient, genus, inverse[n - p - 1 :])] = -1
    return [GroupRingElem._trusted((ambient, genus), d) for d in cols]


def _columns(w: GroupWord, parts: dict[int, dict]) -> list[TensorPoly]:
    """One TensorPoly per generator from the terms of `_fox_parts`."""
    alphabet = _word_alphabet(w)
    return [
        TensorPoly._trusted((alphabet,), parts.get(j, {})) for j in range(1, alphabet.size + 1)
    ]


def fox_expand_column(w: GroupWord, truncate: int) -> list[TensorPoly]:
    """Magnus expansions of all the Fox derivatives of one word in a single pass.

    Returns [expand(dw/dgamma_1), ..., expand(dw/dgamma_rank)], equal to the
    sum of the truncated magnus_of_word expansions of the terms of
    fox_derivative(w, j) (the literal route, which materializes every prefix;
    the tests keep it as the oracle).  Under the Magnus expansion theta the
    fundamental formula w - 1 = sum_j (dw/dgamma_j)(gamma_j - 1) becomes
    theta(w) - 1 = sum_j theta(dw/dgamma_j) X_j: the degree-(d+1) words of
    theta(w) ending in X_j, with that letter dropped, are the degree-d part of
    theta(dw/dgamma_j).  One expansion at truncate + 1 gives every column.
    """
    return _columns(w, _fox_parts(w, truncate, bar=False))


def fox_bar_expand_column(w: GroupWord, truncate: int) -> list[TensorPoly]:
    """Magnus expansions of bar(dw/dgamma_j) for all j, single pass.

    Applying bar to the fundamental formula gives w^-1 - 1 =
    sum_j (gamma_j^-1 - 1) bar(dw/dgamma_j), and theta(gamma_j^-1) - 1 =
    -X_j theta(gamma_j^-1).  So the words of theta(w^-1) that start with X_j,
    with that letter dropped, are -theta(gamma_j^-1) theta(bar(dw/dgamma_j)),
    and the column entry is minus (1 + X_j) times them.
    """
    return _columns(w, _fox_parts(w, truncate, bar=True))


def fox_abelian_column(w: GroupWord) -> list[LaurentElem]:
    """Abelianized bars of all the Fox derivatives of one word, single pass.

    Entry j is the abelianization of bar(dw/dgamma_j): each prefix of
    fox_derivative read as minus its exponent vector, which the pass keeps
    as it goes.
    """
    alphabet = _word_alphabet(w)
    acc: list[dict] = [{} for _ in range(alphabet.size)]
    vec = [0] * alphabet.size  # minus the exponents of the prefix read so far
    for code in w.letters:
        if code > 0:
            _merge(acc[code - 1], tuple(vec), 1)
            vec[code - 1] -= 1
        else:
            vec[-code - 1] += 1
            _merge(acc[-code - 1], tuple(vec), -1)
    return [LaurentElem._trusted((alphabet,), d) for d in acc]


# ---------------------------------------------------------------------------
# Laurent polynomials (abelianized group rings)


class LaurentElem(Sparse):
    """Element of Z[H] or Z[H']: Laurent polynomial keyed by exponent vectors."""

    __slots__ = ("alphabet",)
    _SPACE = ("alphabet",)
    _MISMATCH = "Laurent elements over different alphabets"

    def __init__(self, alphabet: Alphabet, terms=None):
        self._init((alphabet,), terms)

    def _key(self, e):
        e = tuple(e)
        if len(e) != self.alphabet.size:
            raise ValueError(f"exponent vector {e} has wrong length")
        return e

    def __mul__(self, other):
        if isinstance(other, int):
            return self.scale(other)
        self._check(other)
        out: dict = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                _merge(out, tuple(x + y for x, y in zip(e1, e2)), c1 * c2)
        return LaurentElem._trusted((self.alphabet,), out)

    __rmul__ = __mul__

    def __repr__(self):
        return f"LaurentElem({render_laurent(self)!r})"


def laurent_one(alphabet: Alphabet) -> LaurentElem:
    return LaurentElem(alphabet, {(0,) * alphabet.size: 1})


def as_group_element(e: LaurentElem) -> tuple[tuple[int, ...], int]:
    """Read a +/- single monomial with unit coefficient as (exponents, sign)."""
    if len(e.terms) != 1:
        raise NotMonomial(f"{render_laurent(e)} is not a single monomial")
    (expo, c), = e.terms.items()
    if c not in (1, -1):
        raise NotMonomial(f"coefficient {c} is not a unit")
    return expo, c


def render_laurent(e: LaurentElem) -> str:
    """Group-style rendering: monomials as products of named letters with powers."""
    return _join_terms(
        e.terms,
        lambda expo: _monomial(expo, e.alphabet.letter_name),
        order=lambda expo: (sum(map(abs, expo)), expo),
    )


# ---------------------------------------------------------------------------
# matrices


def mat_mul(A, B):
    """Product of group-ring matrices (entries multiply in the order A entry *
    B entry).  Each entry is summed in one dict keyed by letter tuples, which
    only the seams of the products cancel, and becomes one GroupRingElem."""
    if len(A[0]) != len(B):
        raise ValueError("matrix shapes do not match")
    space = A[0][0]._space
    for M in (A, B):
        for row in M:
            for entry in row:
                if type(entry) is not GroupRingElem or entry._space != space:
                    raise AmbientMismatch(GroupRingElem._MISMATCH)
    ambient, genus = space
    left = [[[(w.letters, c) for w, c in a.terms.items()] for a in row] for row in A]
    right = [[[(w.letters, c) for w, c in b.terms.items()] for b in row] for row in B]
    out = []
    for row in left:
        out_row = []
        for j in range(len(B[0])):
            acc: dict = {}
            get = acc.get
            for a, b_row in zip(row, right):
                b = b_row[j]
                for u, c1 in a:
                    for v, c2 in b:
                        key = _cancel_seam(u, v)
                        acc[key] = get(key, 0) + c1 * c2
            terms = {GroupWord._trusted(ambient, genus, key): c for key, c in acc.items() if c}
            out_row.append(GroupRingElem._trusted(space, terms))
        out.append(tuple(out_row))
    return tuple(out)


def mat_apply(f: FreeGroupMap, A):
    """Apply a free group map to every entry of a group-ring matrix."""
    return tuple(tuple(apply_ring(f, entry) for entry in row) for row in A)


def mat_equal(A, B) -> bool:
    return len(A) == len(B) and all(
        len(ra) == len(rb) and all(x == y for x, y in zip(ra, rb))
        for ra, rb in zip(A, B)
    )


def laurent_det(A) -> LaurentElem:
    """Exact determinant over a Laurent ring, over the column sets that
    nonzero minors reach.

    minors[mask] is the determinant of rows 0..i-1 against the columns in
    mask.  Row i extends each reached set by the column j of each nonzero
    entry of row i outside it, with sign (-1)^(number of the set's columns to
    the right of j), the cofactor sign of expanding along the last row.  Only
    sets whose minor is nonzero go on, so the work follows the reachable
    sets: n * 2^n products at worst, for a dense n x n matrix, and far fewer
    for the sparse Magnus matrices (the samples of sample_Ak(8, 1, 10, 1)
    have 28 of 256 entries nonzero on average).

    An exponent vector is one int of signed lanes, lane i worth
    2^(width * i); a monomial product is one int add, and the keys are
    unpacked once, at the end.  Every exponent of a minor is a sum of at most
    n entry exponents, so with E the largest |exponent| in the matrix it has
    |.| <= n * E < 2^(width - 1) for width = (n * E).bit_length() + 1: the
    sign bit and the magnitude bits of n * E.
    """
    n = len(A)
    if n == 0:
        raise ValueError("empty matrix")
    for row in A:
        if len(row) != n:
            raise ValueError("determinant needs a square matrix")
    alphabet = A[0][0].alphabet
    keys: set = set()
    for row in A:
        for entry in row:
            if type(entry) is not LaurentElem or entry.alphabet != alphabet:
                raise AmbientMismatch(LaurentElem._MISMATCH)
            keys.update(entry.terms)
    top = max(max(map(max, keys)), -min(map(min, keys))) if keys else 0
    width = (n * top).bit_length() + 1
    shifts = [width * i for i in range(alphabet.size)]
    pack = {key: sum(x << s for x, s in zip(key, shifts)) for key in keys}
    rows = [
        [(j, 1 << j, [(pack[k], c) for k, c in e.terms.items()])
         for j, e in enumerate(row) if e.terms]
        for row in A
    ]
    minors: dict[int, dict] = {0: {0: 1}}
    for row in rows:
        level: dict[int, dict] = {}
        for mask, minor in minors.items():
            for j, bit, entry in row:
                if mask & bit:
                    continue
                acc = level.get(mask | bit)
                if acc is None:
                    acc = level[mask | bit] = {}
                get = acc.get
                odd = (mask >> j).bit_count() & 1
                for e1, c1 in entry:
                    if odd:
                        c1 = -c1
                    for e2, c2 in minor.items():
                        key = e1 + e2
                        acc[key] = get(key, 0) + c1 * c2
        minors = {}
        for mask, acc in level.items():
            acc = {key: c for key, c in acc.items() if c}
            if acc:
                minors[mask] = acc
    half = 1 << (width - 1)
    bias = sum(half << s for s in shifts)
    lane = (1 << width) - 1
    terms = {}
    for key, c in minors.get((1 << n) - 1, {}).items():
        key += bias
        terms[tuple((key >> s & lane) - half for s in shifts)] = c
    return LaurentElem._trusted((alphabet,), terms)
