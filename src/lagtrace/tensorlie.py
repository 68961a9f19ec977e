"""Free Lie algebras inside tensor algebras, with exact integer coefficients.

Everything is graded.  Tensor words are tuples of 0-based letter indices over
one of two alphabets: the surface homology H (2g letters, a_1..a_g,b_1..b_g in
that order, matching the gamma ordering of the free group) and the handlebody
homology H' (g letters b'_1..b'_g).  Lie elements are stored in the Lyndon
basis with the letter order a_1 < .. < a_g < b_1 < .. < b_g; membership in the
Lie part of the tensor algebra is certified, never assumed: by the Dynkin
criterion and the Lyndon peel where tensors enter (tensor_to_lie, which
johnson.tau runs on the top degree of each error word's expansion), and by
the peel alone on brackets and linear substitutions of Lie elements, which
are Lie by construction.
"""

from __future__ import annotations

from functools import lru_cache
from math import comb
from types import MappingProxyType

from .errors import AmbientMismatch, BudgetExceeded, NotLieElement
from .freegroup import HANDLEBODY, SURFACE, GroupWord, _letter_token, _rank


class Alphabet:
    """Homology letters of the surface group (H, a_1..b_g) or of the
    handlebody group (H', B_1..B_g): ambient is SURFACE or HANDLEBODY."""

    __slots__ = ("ambient", "genus")

    def __init__(self, ambient: str, genus: int):
        _rank(ambient, genus)  # AmbientMismatch on an unknown ambient
        object.__setattr__(self, "ambient", ambient)
        object.__setattr__(self, "genus", genus)

    def __setattr__(self, name, value):
        raise AttributeError("Alphabet is immutable")

    def __delattr__(self, name):
        raise AttributeError("Alphabet is immutable")

    def __eq__(self, other):
        if type(other) is not Alphabet:
            return NotImplemented
        return self.ambient == other.ambient and self.genus == other.genus

    def __hash__(self):
        return hash((self.ambient, self.genus))

    def __repr__(self):
        return f"Alphabet(ambient={self.ambient!r}, genus={self.genus!r})"

    @property
    def size(self) -> int:
        return _rank(self.ambient, self.genus)

    def letter_name(self, i: int) -> str:
        if not 0 <= i < self.size:
            raise ValueError(f"letter {i} out of range")
        return _letter_token(i + 1, self.genus, self.ambient)


def surface_alphabet(genus: int) -> Alphabet:
    return Alphabet(SURFACE, genus)


def handlebody_alphabet(genus: int) -> Alphabet:
    return Alphabet(HANDLEBODY, genus)


def _merge(into: dict, key, coeff: int) -> None:
    c = into.get(key, 0) + coeff
    if c:
        into[key] = c
    else:
        into.pop(key, None)


class Sparse:
    """Immutable finite integer combination: `terms` maps keys to nonzero ints.

    A subclass names in _SPACE the attributes that operands must share (its
    space), checks and normalizes one key in _key, and adds its own products.
    Its public __init__ calls _init, which validates every key; results built
    from keys that are valid already (sums, products, substitutions of valid
    operands) go through _trusted, which does not.
    """

    __slots__ = ("terms", "_space")
    _SPACE: tuple[str, ...]
    _MISMATCH: str
    _SETTERS: tuple  # the _SPACE slots' setters, resolved once per class

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._SETTERS = tuple(getattr(cls, name).__set__ for name in cls._SPACE)

    def _fill(self, space: tuple, terms: dict) -> "Sparse":
        # `terms` is exposed as a read-only view, so a result shared through a
        # cache (magnus_of_word) cannot be altered by one of its callers.
        # `_space` keeps the space tuple itself, which every sum, comparison
        # and hash reads; results of operations share their operand's tuple.
        # Each slot is set through its descriptor, past __setattr__.
        for setter, value in zip(self._SETTERS, space):
            setter(self, value)
        _SET_SPACE(self, space)
        _SET_TERMS(self, MappingProxyType(terms))
        return self

    def _init(self, space: tuple, terms) -> None:
        self._fill(space, {})  # the space first: _key reads it
        out: dict = {}
        for key, c in (terms or {}).items():
            key = self._key(key)
            if c:
                _merge(out, key, c)
        _SET_TERMS(self, MappingProxyType(out))

    @classmethod
    def _trusted(cls, space: tuple, terms: dict):
        """Instance over `space` holding `terms` as given: valid keys, no zero coefficient."""
        return object.__new__(cls)._fill(space, terms)

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other):
        return (
            type(other) is type(self)
            and self._space == other._space
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((*self._space, frozenset(self.terms.items())))

    def _check(self, other) -> None:
        if type(other) is not type(self) or self._space != other._space:
            raise AmbientMismatch(self._MISMATCH)

    def _plus(self, other, sign: int):
        self._check(other)
        out = dict(self.terms)
        for key, c in other.terms.items():
            _merge(out, key, sign * c)
        return self._trusted(self._space, out)

    def __add__(self, other):
        return self._plus(other, 1)

    def __sub__(self, other):
        return self._plus(other, -1)

    def __neg__(self):
        return self.scale(-1)

    def scale(self, k: int):
        terms = {key: k * c for key, c in self.terms.items()} if k else {}
        return self._trusted(self._space, terms)


_SET_SPACE = Sparse._space.__set__
_SET_TERMS = Sparse.terms.__set__


class TensorPoly(Sparse):
    """Integer combination of tensor words, possibly of mixed degree."""

    __slots__ = ("alphabet",)
    _SPACE = ("alphabet",)
    _MISMATCH = "tensor polynomials over different alphabets"

    def __init__(self, alphabet: Alphabet, terms=None):
        self._init((alphabet,), terms)

    def _key(self, w):
        w = tuple(w)
        if any(not 0 <= x < self.alphabet.size for x in w):
            raise ValueError(f"word {w} has letters outside the alphabet")
        return w

    def concat(self, other: "TensorPoly", truncate: int | None = None) -> "TensorPoly":
        """Tensor (concatenation) product, optionally dropping degrees above truncate."""
        self._check(other)
        out: dict = {}
        for w1, c1 in self.terms.items():
            for w2, c2 in other.terms.items():
                if truncate is not None and len(w1) + len(w2) > truncate:
                    continue
                _merge(out, w1 + w2, c1 * c2)
        return TensorPoly._trusted((self.alphabet,), out)

    def __mul__(self, other):
        if isinstance(other, int):
            return self.scale(other)
        return self.concat(other)

    __rmul__ = __mul__

    def degrees(self) -> set[int]:
        return {len(w) for w in self.terms}

    def degree_part(self, k: int) -> "TensorPoly":
        part = {w: c for w, c in self.terms.items() if len(w) == k}
        return TensorPoly._trusted((self.alphabet,), part)

    def is_homogeneous(self, k: int | None = None) -> bool:
        degs = self.degrees()
        if k is None:
            return len(degs) <= 1
        return degs <= {k}

    def __repr__(self):
        return f"TensorPoly({render_tensor(self)!r})"


def graded_bar(terms: dict) -> dict:
    """Degree-k words map to (-1)^k times their reversals, on a word ->
    coefficient dict.

    This is what the group-ring antiautomorphism w -> w^-1 induces on the
    graded quotients I^k / I^{k+1} (each factor (g-1) reverses position and
    contributes a sign through (g^-1 - 1) = -(g - 1) + higher order).
    """
    return {w[::-1]: (c if len(w) % 2 == 0 else -c) for w, c in terms.items()}


# ---------------------------------------------------------------------------
# Lyndon machinery


@lru_cache(maxsize=None)
def lyndon_words(n_letters: int, k: int) -> tuple[tuple[int, ...], ...]:
    """All Lyndon words of length exactly k over 0..n_letters-1, lex sorted (Duval)."""
    if k < 1:
        raise ValueError("degree must be at least 1")
    if n_letters < 1:
        # with no letters the loop below would never reach its exit test
        raise ValueError("need at least one letter")
    out = []
    w = [-1]
    while w:
        w[-1] += 1
        m = len(w)
        if m == k:
            out.append(tuple(w))
        while len(w) < k:
            w.append(w[-m])
        while w and w[-1] == n_letters - 1:
            w.pop()
    return tuple(sorted(out))


@lru_cache(maxsize=None)
def is_lyndon(word: tuple[int, ...]) -> bool:
    n = len(word)
    if n == 0:
        return False
    for i in range(1, n):
        if word[i:] + word[:i] <= word:
            return False
    return True


@lru_cache(maxsize=None)
def std_bracketing(word: tuple[int, ...]):
    """Standard bracketing of a Lyndon word: split at the longest proper Lyndon suffix."""
    if not is_lyndon(word):
        raise ValueError(f"{word} is not a Lyndon word")
    if len(word) == 1:
        return word[0]
    for i in range(1, len(word)):
        if is_lyndon(word[i:]):
            return (std_bracketing(word[:i]), std_bracketing(word[i:]))
    raise AssertionError("unreachable: every Lyndon word has a proper Lyndon suffix")


def render_bracketing(expr, alphabet: Alphabet) -> str:
    if isinstance(expr, int):
        return alphabet.letter_name(expr)
    left, right = expr
    return f"[{render_bracketing(left, alphabet)},{render_bracketing(right, alphabet)}]"


@lru_cache(maxsize=None)
def _expand_bracketing(expr) -> dict:
    """Tensor expansion of a nested-bracket expression; dict word -> coeff."""
    if isinstance(expr, int):
        return {(expr,): 1}
    left, right = expr
    return _commutator_terms(_expand_bracketing(left), _expand_bracketing(right))


class LiePoly(Sparse):
    """Homogeneous Lie element of fixed degree, coordinates in the Lyndon basis."""

    __slots__ = ("alphabet", "degree")
    _SPACE = ("alphabet", "degree")

    def __init__(self, alphabet: Alphabet, degree: int, terms=None):
        _check_lie_degree(degree)
        self._init((alphabet, degree), terms)

    def _key(self, w):
        w = tuple(w)
        if len(w) != self.degree:
            raise ValueError(f"word {w} has wrong degree (expected {self.degree})")
        if not is_lyndon(w):
            raise ValueError(f"{w} is not a Lyndon word")
        if any(not 0 <= x < self.alphabet.size for x in w):
            raise ValueError(f"word {w} has letters outside the alphabet")
        return w

    def _check(self, other) -> None:
        if type(other) is not LiePoly or self.alphabet != other.alphabet:
            raise AmbientMismatch("Lie elements over different alphabets")
        if self.degree != other.degree:
            raise ValueError("cannot add Lie elements of different degrees")

    def __repr__(self):
        return f"LiePoly({render_lie(self)!r})"


def _check_lie_degree(degree: int) -> None:
    if degree < 1:
        raise ValueError("Lie elements live in degrees >= 1")


def lie_zero(alphabet: Alphabet, degree: int) -> LiePoly:
    _check_lie_degree(degree)
    return LiePoly._trusted((alphabet, degree), {})


def _lie_terms(p: LiePoly) -> dict:
    """Tensor expansion of p as a plain word -> coefficient dict."""
    out: dict = {}
    for w, c in p.terms.items():
        for word, k in _expand_bracketing(std_bracketing(w)).items():
            _merge(out, word, c * k)
    return out


def dynkin_map(t: TensorPoly) -> TensorPoly:
    """Left-normed bracketing word by word: x1..xk -> [..[[x1,x2],x3]..,xk].

    Each bracket with a letter x sends a word u to u x - x u, on plain
    word -> coefficient dicts; one TensorPoly is built for the result.
    """
    out: dict = {}
    for w, c in t.terms.items():
        if not w:
            raise ValueError("Dynkin map undefined on the empty word")
        acc = {w[:1]: c}
        for x in w[1:]:
            x = (x,)
            nxt: dict = {}
            get = nxt.get
            for u, a in acc.items():
                if a:
                    key = u + x
                    nxt[key] = get(key, 0) + a
                    key = x + u
                    nxt[key] = get(key, 0) - a
            acc = nxt
        get = out.get
        for u, a in acc.items():
            out[u] = get(u, 0) + a
    return TensorPoly._trusted((t.alphabet,), {u: a for u, a in out.items() if a})


def _peel(terms: dict) -> dict:
    """Lyndon coordinates, word -> coefficient, of a homogeneous tensor given as such a dict.

    The standard bracketing of a Lyndon word w expands to w plus lex-greater
    words, with leading coefficient 1.  Repeatedly subtracting
    terms[least] * expansion(least) therefore empties the dict, with exact
    integers, exactly when the tensor lies in the span of the Lyndon basis,
    that is, when it is a Lie element; otherwise it reaches a least word that
    is not Lyndon and raises NotLieElement.  Consumes `terms`.
    """
    coords: dict = {}
    while terms:
        w = min(terms)
        if not is_lyndon(w):
            raise NotLieElement(f"leading word {w} is not Lyndon")
        c = terms[w]
        coords[w] = c
        for word, k in _expand_bracketing(std_bracketing(w)).items():
            _merge(terms, word, -c * k)
    return coords


def tensor_to_lie(t: TensorPoly, degree: int) -> LiePoly:
    """Certify a homogeneous tensor as a Lie element and express it in the Lyndon basis.

    Two independent certificates: the Dynkin criterion (D(t) = degree * t
    exactly), then the Lyndon peel, which finds the coordinates and raises on
    its own for any tensor outside the span of the Lyndon basis.  This is the
    trust boundary for tensors from outside the Lie layer.
    """
    if not t.is_homogeneous(degree):
        raise NotLieElement(f"tensor is not homogeneous of degree {degree}")
    if t.is_zero():
        return lie_zero(t.alphabet, degree)
    if dynkin_map(t) != t.scale(degree):
        raise NotLieElement("tensor fails the Dynkin criterion")
    return LiePoly._trusted((t.alphabet, degree), _peel(dict(t.terms)))


def _commutator_terms(tp: dict, tq: dict) -> dict:
    """tp*tq - tq*tp on word -> coefficient dicts."""
    out: dict = {}
    for w1, c1 in tp.items():
        for w2, c2 in tq.items():
            c = c1 * c2
            _merge(out, w1 + w2, c)
            _merge(out, w2 + w1, -c)
    return out


def lie_bracket(p: LiePoly, q: LiePoly) -> LiePoly:
    """[p, q] computed through the tensor algebra and certified by the Lyndon peel.

    The commutator of two Lie elements is Lie, so the Dynkin map is not run;
    the peel still raises NotLieElement if the commutator left the Lie span.
    """
    if p.alphabet != q.alphabet:
        raise AmbientMismatch("Lie elements over different alphabets")
    terms = _commutator_terms(_lie_terms(p), _lie_terms(q))
    return LiePoly._trusted((p.alphabet, p.degree + q.degree), _peel(terms))


def witt_dimension(n_letters: int, k: int) -> int:
    """Dimension of the degree-k part of the free Lie ring on n letters."""

    def mobius(m: int) -> int:
        result, p = 1, 2
        while p * p <= m:
            if m % p == 0:
                m //= p
                if m % p == 0:
                    return 0
                result = -result
            p += 1
        if m > 1:
            result = -result
        return result

    total = sum(mobius(d) * n_letters ** (k // d) for d in range(1, k + 1) if k % d == 0)
    assert total % k == 0
    return total // k


# ---------------------------------------------------------------------------
# Magnus expansion of words and the lower central series


def _word_alphabet(w) -> Alphabet:
    """Homology alphabet of the group a word (or group-ring element) lives in."""
    return Alphabet(w.ambient, w.genus)


# The truncated expansion of a word is held densely, indexed over the m
# generators the word actually uses: the degree-d tensor word u_1..u_d in
# their local indices 0..m-1 sits at position sum_i u_i m^(i-1), the first
# letter least significant, so degree d has m^d entries and the words ending
# in X_v form the contiguous block [v m^(d-1), (v+1) m^(d-1)).  Sizing by the
# letters used, not by the whole alphabet, is what keeps deep truncations
# affordable: at truncation 7 the error words of a genus-4 annulus twist use
# 3 of the 8 letters, and the top degree shrinks from 8^7 entries to 3^7.
#
# While the letters are multiplied in, each degree d below the truncation T
# is one Python int whose lanes of W bits hold its entries (entry i is worth
# 2^(W i)), and degree T is m such ints, one per block of words ending in X_v.
# Right multiplication by 1 + X_v then adds degree d-1, shifted up by
# v m^(d-1) lanes, into degree d, and adds degree T-1 into block v of degree
# T unshifted: one shift-and-add per degree.  The ints are exact, so lanes
# may carry into each other along the way; only the final entries must fit
# their lanes, and _lane_bytes sizes W from a bound on them.


def _lane_bytes(n_letters: int, truncate: int) -> int:
    """Bytes per lane for the expansion of a word of n_letters to `truncate`.

    The degree-d coefficient of a word u in theta(x_1^(+-1) ... x_n^(+-1)) is
    a sum over the ways to cut u into n consecutive, possibly empty pieces,
    the i-th piece a power of x_i, of one coefficient of theta(x_i^(+-1))
    each; those are 0 or +-1.  There are C(n+d-1, d) such cuts, so every
    coefficient is at most C(n+d-1, d) <= C(n+T-1, T) in absolute value
    (x^-n attains it); the empty word expands to 1.  A lane of the bound's
    bit length plus a sign bit holds balanced digits in (-2^(W-1), 2^(W-1));
    W is rounded up to whole bytes.
    """
    bound = comb(n_letters + truncate - 1, truncate) if n_letters else 1
    return bound.bit_length() // 8 + 1


#: Most lanes _packed_levels may allocate for one expansion: sum_{d<=T} m^d
#: for a word in m generators at truncation T, known before any lane exists
#: (_lane_count).  The largest expansions the tests and the benchmark ask for
#: are 2,396,745 lanes (an 8-letter error word at truncation 7, as
#: `degree --max 6` reads it).  Time and memory grow with the lanes: on a
#: 2-core machine the error words of `phi` (3 generators) take 1.4 s and
#: 35 MiB max RSS at truncation 13 (`tau --k 12`), and 38 s and 493 MiB at 16
#: (`--k 15`, refused).
MAGNUS_LANE_BUDGET = 1 << 22


def _lane_count(m: int, truncate: int) -> int:
    """The lanes _packed_levels allocates for a word in m generators at
    truncation T >= 1, summed only until they pass MAGNUS_LANE_BUDGET, so
    that no power of m is built whole.  Each of the T ints below the top
    counts as at least one lane, so words in 0 or 1 generators count T + m."""
    if m < 2:
        return truncate + m
    lanes, size = 0, 1
    for _ in range(truncate + 1):
        lanes += size
        if lanes > MAGNUS_LANE_BUDGET:
            break
        size *= m
    return lanes


def _check_lanes(m: int, truncate: int) -> None:
    """Raise BudgetExceeded, before any lane exists, when an expansion in m
    generators at truncation `truncate` needs more than MAGNUS_LANE_BUDGET
    lanes."""
    if _lane_count(m, truncate) > MAGNUS_LANE_BUDGET:
        raise BudgetExceeded(
            f"Magnus expansion in {m} generators to degree {truncate} is past"
            f" the lane budget ({MAGNUS_LANE_BUDGET:,} lanes)"
        )


def _packed_levels(
    w: GroupWord, truncate: int
) -> tuple[tuple[int, ...], int, list[int], list[int]]:
    """The sorted codes of the generators w uses, the lane width in bytes,
    degrees 0..truncate-1 of the Magnus expansion of w as packed ints, and
    degree `truncate` as one packed int per block.  At truncation 0 the
    expansion is the constant 1: degree 0 is [1] and there are no blocks.
    Raises BudgetExceeded, before any lane exists, when the tables would
    hold more than MAGNUS_LANE_BUDGET lanes.

    Right multiplication by 1 + X_v walks the degrees downward, so that each
    source is read before it changes.  Right multiplication by the inverse
    series solves new[uX_v] = old[uX_v] - new[u] instead, walking upward so
    that new[u] is already in place.
    """
    if truncate < 0:
        raise ValueError("truncation degree must be nonnegative")
    used = tuple(sorted({abs(x) for x in w.letters}))
    if not truncate:
        return used, 1, [1], []
    m = len(used)
    _check_lanes(m, truncate)
    width = _lane_bytes(len(w.letters), truncate)
    low = [1] + [0] * (truncate - 1)
    top = [0] * m
    down = [
        [(d, v * m ** (d - 1) * 8 * width) for d in range(truncate - 1, 0, -1)] for v in range(m)
    ]
    up = [steps[::-1] for steps in down]
    local = {code: v for v, code in enumerate(used)}
    for x in w.letters:
        if x > 0:
            v = local[x]
            top[v] += low[-1]
            for d, shift in down[v]:
                low[d] += low[d - 1] << shift
        else:
            v = local[-x]
            for d, shift in up[v]:
                low[d] -= low[d - 1] << shift
            top[v] -= low[-1]
    return used, width, low, top


def _expansion_terms(w: GroupWord, truncate: int) -> dict:
    """Word -> coefficient dict of the Magnus expansion of w, truncated at
    degree `truncate`.

    Reads each packed degree, and each block of the top degree, once: the
    packed int is dropped before its lanes are read, and only the nonzero
    lanes become words.  Adding half the radix to every lane and flipping
    its top bit again turns the balanced digits into two's complement ones,
    so a lane is zero exactly when its bytes are.
    """
    used, width, low, top = _packed_levels(w, truncate)
    m = len(used)
    names = [code - 1 for code in used]
    out: dict = {}

    def decode(packed: list, i: int, d: int, last: tuple) -> None:
        value = packed[i]
        packed[i] = None
        if not value:
            return
        count = m**d
        half = int.from_bytes((bytes(width - 1) + b"\x80") * count, "little")
        digits = ((value + half) ^ half).to_bytes(width * count, "little")
        del value
        # OR the lanes' byte columns: a lane's byte in `nonzero` is zero
        # exactly when the lane is
        nonzero = 0
        for k in range(width):
            nonzero |= int.from_bytes(digits[k::width], "little")
        for idx in filter(nonzero.to_bytes(count, "little").__getitem__, range(count)):
            c = int.from_bytes(digits[idx * width : (idx + 1) * width], "little", signed=True)
            word = []
            for _ in range(d):
                idx, r = divmod(idx, m)
                word.append(names[r])
            out[(*word, *last)] = c

    for d in range(len(low)):
        decode(low, d, d, ())
    for v in range(len(top)):
        decode(top, v, truncate - 1, (names[v],))
    return out


def _expands_to(w: GroupWord, truncate: int, top: dict) -> bool:
    """Whether the Magnus expansion of w, truncated at degree `truncate` >= 1,
    is 1 + top, for `top` a word -> coefficient dict; no term is decoded.

    Degree 0 must be 1 and degrees 1..truncate-1 zero.  `top` is packed into
    the lanes of the top degree's blocks and each block compared as one int.
    Both ints are sums of balanced digits times 2^(W i): the expansion's fit
    their lanes by _lane_bytes, and an expected coefficient that does not
    (|c| >= 2^(W-1)) cannot be one of them, so a block's ints are equal
    exactly when their coefficients are.  A word of `top` of another length,
    or with a letter w does not use, is not in the expansion either.
    """
    used, width, low, blocks = _packed_levels(w, truncate)
    if low[0] != 1 or any(low[1:]):
        return False
    m = len(used)
    local = {code - 1: v for v, code in enumerate(used)}
    bits = 8 * width
    limit = 1 << (bits - 1)
    packed = [0] * m
    for word, c in top.items():
        if len(word) != truncate or not -limit < c < limit:
            return False
        idx = 0
        for x in reversed(word):
            v = local.get(x)
            if v is None:
                return False
            idx = idx * m + v
        # idx holds the last letter as its top digit: the block, then the lane
        block, lane = divmod(idx, m ** (truncate - 1))
        packed[block] += c << (bits * lane)
    return packed == blocks


def _fox_parts(w: GroupWord, truncate: int, bar: bool) -> dict[int, dict]:
    """Terms of the Magnus expansions, truncated at degree `truncate`, of the
    Fox derivatives dw/dgamma_j (of their bars if `bar`), keyed by the codes j
    of the generators w uses; the other derivatives are zero.

    Without bar, the degree-d part for j is the degree-(d+1) words of
    theta(w) ending in X_j, with that letter dropped.  With bar, it is minus
    the degree-(d+1) words of theta(w^-1) starting with X_j, with that letter
    dropped, then multiplied on the left by 1 + X_j.
    """
    terms = _expansion_terms(~w if bar else w, truncate + 1)
    del terms[()]
    parts: dict = {abs(x): {} for x in w.letters}
    for word, c in terms.items():
        if bar:
            parts[word[0] + 1][word[1:]] = -c
        else:
            parts[word[-1] + 1][word[:-1]] = c
    if bar:
        for code, part in parts.items():
            x = (code - 1,)
            for u, c in list(part.items()):
                if len(u) < truncate:
                    _merge(part, x + u, c)
    return parts


def magnus_expansion(w: GroupWord, truncate: int) -> TensorPoly:
    """Truncated Magnus expansion: each generator maps to 1 + X, inverses to
    the truncated geometric series 1 - X + X^2 - ...  Uncached: johnson.tau
    expands each error word once and memoizes what it reads off it."""
    return TensorPoly._trusted((_word_alphabet(w),), _expansion_terms(w, truncate))


@lru_cache(maxsize=512)
def magnus_of_word(w: GroupWord, truncate: int) -> TensorPoly:
    """magnus_expansion, cached, for callers that expand the same words
    repeatedly; the package itself calls magnus_expansion."""
    return magnus_expansion(w, truncate)


# ---------------------------------------------------------------------------
# symmetrization


class SymPoly(Sparse):
    """Integer polynomial in commuting variables indexed by an alphabet.

    Keys are exponent tuples of length alphabet.size.
    """

    __slots__ = ("alphabet",)
    _SPACE = ("alphabet",)
    _MISMATCH = "polynomials over different alphabets"

    def __init__(self, alphabet: Alphabet, terms=None):
        self._init((alphabet,), terms)

    def _key(self, e):
        e = tuple(e)
        if len(e) != self.alphabet.size or any(x < 0 for x in e):
            raise ValueError(f"bad exponent vector {e}")
        return e

    def __repr__(self):
        return f"SymPoly({render_sym(self)!r})"


def _substitute_terms(terms: dict, matrix, n: int) -> dict:
    """Apply the linear substitution x_j -> sum_i matrix[i][j] x_i in every
    position of a word -> coefficient dict (matrix indexed [row][column] over
    the same n letters)."""
    out: dict = {}
    for w, c in terms.items():
        partial = {(): c}
        for x in w:
            nxt: dict = {}
            for word, coeff in partial.items():
                for i in range(n):
                    m = matrix[i][x]
                    if m:
                        _merge(nxt, word + (i,), coeff * m)
            partial = nxt
        for word, coeff in partial.items():
            _merge(out, word, coeff)
    return out


def symmetrize(terms: dict, alphabet: Alphabet) -> SymPoly:
    """Abelianize the words of a word -> coefficient dict over `alphabet` to
    their multidegree monomials."""
    n = alphabet.size
    out: dict = {}
    for w, c in terms.items():
        e = [0] * n
        for x in w:
            e[x] += 1
        _merge(out, tuple(e), c)
    return SymPoly._trusted((alphabet,), out)


# ---------------------------------------------------------------------------
# rendering


def _join_terms(terms: dict, body, order=None) -> str:
    """Signed sum of the terms in `order`, each as `body(key)` with its magnitude."""
    out = ""
    for key in sorted(terms, key=order):
        c = terms[key]
        text, mag = body(key), abs(c)
        piece = str(mag) if text == "1" else text if mag == 1 else f"{mag}*{text}"
        if not out:
            out = piece if c > 0 else f"-{piece}"
        else:
            out += f" + {piece}" if c > 0 else f" - {piece}"
    return out or "0"


def _monomial(expo, name) -> str:
    """Product of the named factors of an exponent vector, '1' when it is zero."""
    factors = [name(i) if p == 1 else f"{name(i)}^{p}" for i, p in enumerate(expo) if p]
    return "*".join(factors) or "1"


def render_tensor(t: TensorPoly) -> str:
    def body(w):
        return "*".join(t.alphabet.letter_name(x) for x in w) or "1"

    return _join_terms(t.terms, body, order=lambda w: (len(w), w))


def render_lie(p: LiePoly) -> str:
    return _join_terms(p.terms, lambda w: render_bracketing(std_bracketing(w), p.alphabet))


def render_sym(p: SymPoly) -> str:
    return _join_terms(p.terms, lambda e: _monomial(e, lambda i: f"x{i + 1}"))
