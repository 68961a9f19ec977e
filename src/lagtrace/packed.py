"""The packed Magnus kernel's letter loop, and products of packed expansions,
in the layout of tensorlie._packed_levels: the degree-d word u_1..u_d over
local indices 0..m-1 at lane sum_i u_i m^(i-1), one int per degree below
the truncation T and one per block of words ending in X_v at degree T.

Right multiplication by 1 + X_v adds degree d-1, shifted up by v m^(d-1)
lanes, into degree d, and degree T-1 into block v of degree T unshifted:
one shift-and-add per degree.

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
from operator import add, indexOf

#: The shortest conjugator P for which _levels expands w = P c P^-1 t by the
#: product at truncation 4 or less; _shortest doubles it for each degree past
#: 4.  The product costs a fixed amount per word where the letter loop costs
#: one per letter, and the crossover in |P| grows with the truncation: on
#: random conjugates (2-core machine) it is about 160 in 4 or 6 generators at
#: truncation 3 or 4 and 220 in 8, 190-320 at truncation 5, 230-700 at 6 and
#: about 700 at 7 (6 generators).  At the minimum the product won every case
#: measured, by 2x to 3x at truncations 6, 7 and 9 (|P| of 1,024 and 2,048),
#: where |P| = 256 lost by up to 2.7x; the verify suites' conjugators of
#: 100-250 letters stay on the letter loop.
_MIN_CONJUGATOR = 256


def _shortest(truncate: int) -> int:
    """The shortest conjugator that _levels splits off at `truncate`."""
    return _MIN_CONJUGATOR << max(0, truncate - 4)


def _levels(letters, truncate: int, width: int, local: dict) -> tuple[list[int], list[int]]:
    """Degrees 0..truncate-1 (truncate >= 1) of the Magnus expansion of the
    signed codes `letters` as packed ints, and degree `truncate` as one int
    per block; `local` maps each code used to its local index."""
    least = _shortest(truncate)
    if len(letters) >= 2 * least:
        for tail in (0, 1):
            p = _conjugator(letters, tail)
            if p >= least:
                return _conjugate(letters, p, tail, truncate, width, local)
    low = [1] + [0] * (truncate - 1)
    top = [0] * len(local)
    _multiply(low, top, letters, local, width)
    return low, top


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


def _digits(value: int, lanes: int, width: int) -> bytes:
    """The lanes of `value`, little-endian, each plus half the radix, so
    that every balanced digit is a nonnegative one."""
    half = int.from_bytes((bytes(width - 1) + b"\x80") * lanes, "little")
    return (value + half).to_bytes(width * lanes, "little")


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
    """_levels of letters = P c P^-1 t with |P| = p and |t| = tail.

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
