"""Integral group rings of the surface and handlebody free groups, Fox
calculus, and exact Laurent-polynomial arithmetic for their abelianizations.

Ring elements keep exact integer coefficients throughout.  The noncommutative
ring ZF stores words of the free group as keys; the abelianized rings Z[H] and
Z[H'] are Laurent polynomial rings keyed by exponent vectors (same letter
order as the tensor alphabets: a_1..a_g, b_1..b_g for H, b'_1..b'_g for H').
"""

from __future__ import annotations

from itertools import combinations
from operator import add

from .errors import AmbientMismatch, NotMonomial
from .freegroup import (
    FreeGroupMap,
    GroupWord,
    apply,
    format_word,
    word_from_codes,
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


def bar(e: GroupRingElem) -> GroupRingElem:
    """The antiautomorphism sum c_w w  ->  sum c_w w^-1."""
    return GroupRingElem._trusted(e._space, {~w: c for w, c in e.terms.items()})


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
    x_p = gamma_j^-1.
    """
    rank = _rank(u.ambient, u.genus)
    if not 1 <= j <= rank:
        raise ValueError(f"generator index {j} out of range 1..{rank}")
    out: dict = {}
    letters = u.letters
    for p, x in enumerate(letters):
        if x == j:
            _merge(out, word_from_codes(u.ambient, u.genus, letters[:p]), 1)
        elif x == -j:
            _merge(out, word_from_codes(u.ambient, u.genus, letters[: p + 1]), -1)
    return GroupRingElem._trusted((u.ambient, u.genus), out)


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
    """Abelianizations of all the Fox derivatives of one word, single pass."""
    alphabet = _word_alphabet(w)
    rank = alphabet.size
    acc: list[dict] = [{} for _ in range(rank)]
    vec = [0] * rank
    for code in w.letters:
        if code > 0:
            _merge(acc[code - 1], tuple(vec), 1)
            vec[code - 1] += 1
        else:
            vec[-code - 1] -= 1
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


def laurent_bar(e: LaurentElem) -> LaurentElem:
    """Abelianized antiautomorphism: negate all exponents."""
    return LaurentElem._trusted(
        (e.alphabet,), {tuple(-x for x in k): c for k, c in e.terms.items()}
    )


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
    """Product of matrices over any of the ring classes here (noncommutative safe:
    entries multiply in the order A entry * B entry)."""
    rows, inner, cols = len(A), len(B), len(B[0])
    if len(A[0]) != inner:
        raise ValueError("matrix shapes do not match")
    out = []
    for i in range(rows):
        row = []
        for j in range(cols):
            acc = None
            for k in range(inner):
                term = A[i][k] * B[k][j]
                acc = term if acc is None else acc + term
            row.append(acc)
        out.append(row)
    return tuple(tuple(r) for r in out)


def mat_apply(f: FreeGroupMap, A):
    """Apply a free group map to every entry of a group-ring matrix."""
    return tuple(tuple(apply_ring(f, entry) for entry in row) for row in A)


def mat_equal(A, B) -> bool:
    return len(A) == len(B) and all(
        len(ra) == len(rb) and all(x == y for x, y in zip(ra, rb))
        for ra, rb in zip(A, B)
    )


def laurent_det(A) -> LaurentElem:
    """Exact determinant over a Laurent ring by minor expansion.

    Dynamic programming over column subsets keeps it at n * 2^n ring
    multiplications; the matrices here are at most 2 * genus <= 8 wide.
    """
    n = len(A)
    if n == 0:
        raise ValueError("empty matrix")
    for row in A:
        if len(row) != n:
            raise ValueError("determinant needs a square matrix")
    alphabet = A[0][0].alphabet
    for row in A:
        for entry in row:
            if type(entry) is not LaurentElem or entry.alphabet != alphabet:
                raise AmbientMismatch(LaurentElem._MISMATCH)
    # minors[mask] = det of rows 0..i against the columns in mask, for the
    # masks of i + 1 columns, as plain exponent vector -> coefficient dicts;
    # row i needs only the minors of row i - 1
    minors: dict[int, dict] = {0: {(0,) * alphabet.size: 1}}
    for i, row in enumerate(A):
        level: dict[int, dict] = {}
        for cols in combinations(range(n), i + 1):
            mask = sum(1 << j for j in cols)
            acc: dict = {}
            get = acc.get
            sign = -1 if i % 2 else 1  # (-1)^(i+pos) expanding along row i
            for j in cols:
                entry = row[j].terms
                minor = minors[mask ^ (1 << j)]
                if entry and minor:
                    for e1, c1 in entry.items():
                        c1 *= sign
                        for e2, c2 in minor.items():
                            key = tuple(map(add, e1, e2))
                            c = get(key, 0) + c1 * c2
                            if c:
                                acc[key] = c
                            else:
                                del acc[key]
                sign = -sign
            level[mask] = acc
        minors = level
    return LaurentElem._trusted((alphabet,), minors[(1 << n) - 1])
