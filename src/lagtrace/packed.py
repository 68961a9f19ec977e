"""The packed Magnus expansion: the lane format, its width bound and lane
budget, the kernel that multiplies a word's letters in, its products of
packed expansions, the decoder and the packed comparison.

The truncated expansion of a word is held densely, indexed over the m
generators the word actually uses: the degree-d tensor word u_1..u_d in
their local indices 0..m-1 sits at lane sum_i u_i m^(i-1), the first letter
least significant, so degree d has m^d lanes and the words ending in X_v
form the contiguous block [v m^(d-1), (v+1) m^(d-1)).  Sizing by the letters
used, not by the whole alphabet, is what keeps deep truncations affordable:
at truncation 7 the error words of a genus-4 annulus twist use 3 of the 8
letters, and the top degree shrinks from 8^7 entries to 3^7.

Each degree d below the truncation T is one Python int whose lanes of W bits
hold its entries (entry i is worth 2^(W i)), and degree T is m such ints, one
per block of words ending in X_v.  Right multiplication by 1 + X_v adds
degree d-1, shifted up by v m^(d-1) lanes, into degree d, and degree T-1 into
block v of degree T unshifted: one shift-and-add per degree.  The ints are
exact, so lanes may carry into each other along the way; only the final
entries must fit their lanes, and _lane_bytes sizes W from a bound on them.

The word uv (|u| = a) sits at lane idx(u) + m^a idx(v), so the degree a+b
part of a product A B is A_a times B_b with its lanes spread to every m^a-th
lane.  Only the spread factors are read lane by lane, so only they must fit
their lanes; every other int is an exact sum, whatever carries ran between
its lanes.  A conjugate w = P c P^-1 t, |t| <= 1, expands through its
conjugator once: theta(P c P^-1) = 1 + S (Z - 1) S^-1 with S = theta(P) and
Z = theta(c).  The factors read by lane, Z and S^-1 = theta(P^-1), are
expansions of subwords of w, so the lane width of w bounds them.
"""

from __future__ import annotations

from itertools import islice
from math import comb
from operator import add, indexOf

from .errors import BudgetExceeded
from .freegroup import GroupWord


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


#: The shortest conjugator P for which _packed_levels expands w = P c P^-1 t
#: by the product at truncation 4 or less; _shortest doubles it for each
#: degree past 4.  The product costs a fixed amount per word where the letter
#: loop costs one per letter, and the crossover in |P| grows with the
#: truncation: on random conjugates (2-core machine) it is about 160 in 4 or
#: 6 generators at truncation 3 or 4 and 220 in 8, 190-320 at truncation 5,
#: 230-700 at 6 and about 700 at 7 (6 generators).  At the minimum the
#: product won every case measured, by 2x to 3x at truncations 6, 7 and 9
#: (|P| of 1,024 and 2,048), where |P| = 256 lost by up to 2.7x; the verify
#: suites' conjugators of 100-250 letters stay on the letter loop.
_MIN_CONJUGATOR = 256


def _shortest(truncate: int) -> int:
    """The shortest conjugator that _packed_levels splits off at `truncate`."""
    return _MIN_CONJUGATOR << max(0, truncate - 4)


def _packed_levels(
    w: GroupWord, truncate: int
) -> tuple[tuple[int, ...], int, list[int], list[int]]:
    """The sorted codes of the generators w uses, the lane width in bytes,
    degrees 0..truncate-1 of the Magnus expansion of w as packed ints, and
    degree `truncate` as one packed int per block.  At truncation 0 the
    expansion is the constant 1: degree 0 is [1] and there are no blocks.
    Raises BudgetExceeded, before any lane exists, when the tables would
    hold more than MAGNUS_LANE_BUDGET lanes.
    """
    if truncate < 0:
        raise ValueError("truncation degree must be nonnegative")
    letters = w.letters
    used = tuple(sorted({abs(x) for x in letters}))
    if not truncate:
        return used, 1, [1], []
    _check_lanes(len(used), truncate)
    width = _lane_bytes(len(letters), truncate)
    local = {code: v for v, code in enumerate(used)}
    least = _shortest(truncate)
    if len(letters) >= 2 * least:
        for tail in (0, 1):
            p = _conjugator(letters, tail)
            if p >= least:
                return used, width, *_conjugate(letters, p, tail, truncate, width, local)
    low = [1] + [0] * (truncate - 1)
    top = [0] * len(used)
    _multiply(low, top, letters, local, width)
    return used, width, low, top


def _conjugator(letters, tail: int) -> int:
    """|P| for the longest P with letters = P c P^-1 t, |t| = tail; nothing
    is copied."""
    half = (len(letters) - tail) // 2
    sums = map(add, islice(letters, half), islice(reversed(letters), tail, None))
    try:
        return indexOf(map(bool, sums), True)
    except ValueError:
        return half


def _multiply(low: list, top: list, letters, local: dict, width: int) -> None:
    """Multiply (low, top) on the right by each letter's series, in place:
    by 1 + X_v walking the degrees downward, so that each source is read
    before it changes; by the inverse series solving new[uX_v] = old[uX_v]
    - new[u], walking upward so that new[u] is already in place."""
    m = len(top)
    down = [[(d, v * m ** (d - 1) * 8 * width) for d in range(len(low) - 1, 0, -1)] for v in range(m)]
    up = [steps[::-1] for steps in down]
    for x in letters:
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


def _half(lanes: int, width: int) -> int:
    """Half the radix in each of `lanes` lanes of `width` bytes."""
    return int.from_bytes((bytes(width - 1) + b"\x80") * lanes, "little")


def _digits(value: int, lanes: int, width: int) -> bytes:
    """The lanes of `value`, little-endian, each plus half the radix, so
    that every balanced digit is a nonnegative one."""
    return (value + _half(lanes, width)).to_bytes(width * lanes, "little")


def _times(left: int, count: int, digits: bytes, start: int, lanes: int, width: int) -> int:
    """`left`, of `count` lanes, times the lanes start..start+lanes-1 of
    `digits` (_digits) on its right: lane i + count j is left's lane i
    times the right's lane j.

    A right factor of at most `count` lanes is added in as shifted copies of
    the left, one per nonzero lane; a longer one is spread and multiplied
    in, which costs about as if its zero lanes were filled.  At 6 generators
    and truncation 5, 216 lanes times 6 take 23 us as copies and 278 us
    spread, 6 lanes times 216 take 25 us spread and 443 us as copies.
    """
    bits = 8 * width
    if lanes <= count:
        total = 0
        for j in range(start, start + lanes):
            c = int.from_bytes(digits[j * width : (j + 1) * width], "little") - (1 << (bits - 1))
            if c:
                total += left * c << (j - start) * count * bits
        return total
    step = count * width
    spread = bytearray(step * (lanes - 1) + width)
    half = bytearray(len(spread))
    for k in range(width):
        spread[k::step] = digits[start * width + k : (start + lanes) * width : width]
    half[width - 1 :: step] = b"\x80" * lanes
    return left * (int.from_bytes(spread, "little") - int.from_bytes(half, "little"))


def _inner(left: list, right: list, d: int, m: int, width: int) -> int:
    """sum_{a=1..d-1} left_a right_{d-a}: degree d of a product of series
    without the terms of degree 0 on either side; `right` holds _digits."""
    total = 0
    for a in range(1, d):
        total += _times(left[a], m**a, right[d - a], 0, m ** (d - a), width)
    return total


def _conjugate(letters, p: int, tail: int, truncate: int, width: int, local: dict):
    """The low degrees and top blocks of the expansion of letters = P c P^-1 t
    with |P| = p and |t| = tail.

    S = theta(P) is needed only below degree T, since Z - 1 has no constant
    term; S^-1_d = -sum_{a=1..d} S_a S^-1_{d-a}.  With V = S (Z - 1), degree
    d < T is V_d + sum_{k=1..d-1} V_k S^-1_{d-k}.  Block v of degree T is
    Z_T's plus sum_{i=1..T-1} S_i (block v of Z_{T-i}) + V_i (block v of
    S^-1_{T-i}), built in place of Z_T's, so no degree-T int is ever whole.
    """
    T = truncate
    m = len(local)
    n = len(letters)
    S = [1] + [0] * (T - 2)
    if T > 1:
        blocks = [0] * m
        _multiply(S, blocks, islice(letters, p), local, width)
        span = m ** (T - 2) * 8 * width
        S.append(sum(b << v * span for v, b in enumerate(blocks)))
    low = [1] + [0] * (T - 1)
    top = [0] * m
    _multiply(low, top, islice(letters, p, n - p - tail), local, width)
    Z = [None] + [_digits(low[d], m**d, width) for d in range(1, T)]
    inv = [None]
    for d in range(1, T):
        inv.append(_digits(-S[d] - _inner(S, inv, d, m, width), m**d, width))
    V = [0] + [low[k] + _inner(S, Z, k, m, width) for k in range(1, T)]
    for d in range(1, T):
        low[d] = V[d] + _inner(V, inv, d, m, width)
    for v in range(m):
        for i in range(1, T):
            lanes = m ** (T - i - 1)
            top[v] += _times(S[i], m**i, Z[T - i], v * lanes, lanes, width)
            top[v] += _times(V[i], m**i, inv[T - i], v * lanes, lanes, width)
    _multiply(low, top, islice(letters, n - tail, n), local, width)
    return low, top


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
        half = _half(count, width)
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


def _expands_to(w: GroupWord, truncate: int, expected: dict) -> bool:
    """Whether the Magnus expansion of w, truncated at degree `truncate`, is
    `expected`, a word -> coefficient dict (zero coefficients ignored); no
    term is decoded.

    `expected` is packed as the expansion is, each degree below the
    truncation into one int and the top degree into its blocks, and every
    degree compared as ints.  Both ints are sums of balanced digits times
    2^(W i): the expansion's fit their lanes by _lane_bytes, and an expected
    coefficient that does not (|c| >= 2^(W-1)) cannot be one of them, so two
    ints are equal exactly when their coefficients are.  A word of
    `expected` longer than the truncation, or with a letter w does not use,
    is not in the expansion either.
    """
    used, width, low, blocks = _packed_levels(w, truncate)
    m = len(used)
    local = {code - 1: v for v, code in enumerate(used)}
    bits = 8 * width
    limit = 1 << (bits - 1)
    span = m ** (len(low) - 1)  # lanes per top block
    packed_low = [0] * len(low)
    packed_top = [0] * len(blocks)
    for word, c in expected.items():
        if not c:
            continue
        d = len(word)
        if d > truncate or not -limit < c < limit:
            return False
        idx = 0
        for x in reversed(word):
            v = local.get(x)
            if v is None:
                return False
            idx = idx * m + v
        if d < len(low):
            packed_low[d] += c << (bits * idx)
        else:
            # idx holds the last letter as its top digit: the block, then the lane
            block, lane = divmod(idx, span)
            packed_top[block] += c << (bits * lane)
    return packed_low == low and packed_top == blocks
