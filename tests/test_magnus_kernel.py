"""The packed Magnus kernel against the kernels and dict loops it replaced,
and its limits.

magnus_of_word, fox_expand_column and fox_bar_expand_column run on one packed
kernel (packed._packed_levels: each degree of a truncated expansion is one
big integer of fixed-width lanes, indexed over the letters a word uses),
decoded straight to a word -> coefficient dict (packed._expansion_terms);
the Fox columns read that dict by the last or the first letter of its words
(groupring._fox_parts).  The oracles below are the routes it replaced: the
stride-slice kernel that held one integer list per degree (oracle_levels,
with its term decoder and Fox reader), the letter-by-letter dict loop of the
Magnus expansion, and the Fox-column loops that concatenate a running prefix
with truncated letter series.  All are kept here as references and must
agree exactly on seeded words.
"""

import random
import tracemalloc
from itertools import compress
from math import comb
from operator import add, sub

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lagtrace.freegroup import (
    HANDLEBODY,
    SURFACE,
    GroupWord,
    _rank,
    abelianize_word,
    alpha,
    beta,
    commutator,
    mcr_commutator,
    mcr_identity,
)
from lagtrace import johnson, packed
from lagtrace.errors import BudgetExceeded
from lagtrace.groupring import _fox_parts, fox_bar_expand_column, fox_expand_column
from lagtrace.johnson import (
    MAX_DEGREE_BOUND,
    _degree,
    _error_words,
    _expansions,
    annulus_twist,
    johnson_degree,
    meridian_twist,
    sample_Ak,
    tau,
)
from lagtrace.packed import MAGNUS_LANE_BUDGET, _expansion_terms, _lane_bytes, _lane_count
from lagtrace.tensorlie import (
    TensorPoly,
    _word_alphabet,
    magnus_of_word,
    surface_alphabet,
)
from oracles import oracle_degree, random_reduced_word


def _merge(into: dict, key, coeff: int) -> None:
    c = into.get(key, 0) + coeff
    if c:
        into[key] = c
    else:
        into.pop(key, None)


def oracle_magnus(w, truncate: int) -> TensorPoly:
    """Each letter rebuilds the whole term dict: 1 + X, or 1 - X + X^2 - ..."""
    out = {(): 1}
    for x in w.letters:
        v = abs(x) - 1
        nxt: dict = {}
        if x > 0:
            for word, c in out.items():
                _merge(nxt, word, c)
                if len(word) < truncate:
                    _merge(nxt, word + (v,), c)
        else:
            for word, c in out.items():
                sign = 1
                for extra in range(truncate - len(word) + 1):
                    _merge(nxt, word + (v,) * extra, sign * c)
                    sign = -sign
        out = nxt
    return TensorPoly(_word_alphabet(w), out)


def _letter_series(alphabet, code: int, truncate: int) -> TensorPoly:
    i = abs(code) - 1
    if code > 0:
        terms = {(): 1}
        if truncate >= 1:
            terms[(i,)] = 1
    else:
        terms = {(i,) * e: (1 if e % 2 == 0 else -1) for e in range(truncate + 1)}
    return TensorPoly(alphabet, terms)


def oracle_fox(w, truncate: int) -> list:
    """Running prefix expansion; dw/dgamma_j collects the prefixes at gamma_j^(+-1)."""
    alphabet = _word_alphabet(w)
    acc = [TensorPoly(alphabet, {}) for _ in range(alphabet.size)]
    prefix = TensorPoly(alphabet, {(): 1})
    for code in w.letters:
        nxt = prefix.concat(_letter_series(alphabet, code, truncate), truncate=truncate)
        if code > 0:
            acc[code - 1] = acc[code - 1] + prefix
        else:
            acc[-code - 1] = acc[-code - 1] - nxt
        prefix = nxt
    return acc


def oracle_fox_bar(w, truncate: int) -> list:
    """As oracle_fox for bar(dw/dgamma_j): the inverted prefix, multiplied on the left."""
    alphabet = _word_alphabet(w)
    acc = [TensorPoly(alphabet, {}) for _ in range(alphabet.size)]
    inv_prefix = TensorPoly(alphabet, {(): 1})
    for code in w.letters:
        nxt = _letter_series(alphabet, -code, truncate).concat(inv_prefix, truncate=truncate)
        if code > 0:
            acc[code - 1] = acc[code - 1] + inv_prefix
        else:
            acc[-code - 1] = acc[-code - 1] - nxt
        inv_prefix = nxt
    return acc


def _short_words() -> list:
    """Per ambient and genus 2-4: the empty word, random reduced words, and
    words in only two or three of the generators."""
    rng = random.Random(5)
    out = []
    for ambient in (SURFACE, HANDLEBODY):
        for genus in (2, 3, 4):
            rank = _rank(ambient, genus)
            out.append(GroupWord(ambient, genus))
            out.extend(random_reduced_word(rng, ambient, genus, n) for n in (1, 4, 9, 16))
            for size in (2, 3):
                codes = rng.sample(range(1, rank + 1), min(size, rank))
                letters = [rng.choice(codes) * rng.choice((1, -1)) for _ in range(14)]
                out.append(GroupWord(ambient, genus, letters))
    return out


SHORT = _short_words()


@pytest.fixture(scope="module")
def long_words():
    """The two shortest images of 1,000 letters or more of a degree-3 genus-4
    sample, and a random handlebody word as long (the samples' handlebody
    images are short)."""
    m = sample_Ak(4, 3, 1, seed=0)[0].rep
    images = m.forward.images + m.inverse.images
    surface = sorted((w for w in images if len(w) >= 1000), key=len)[:2]
    assert len(surface) == 2
    return surface + [random_reduced_word(random.Random(7), HANDLEBODY, 4, 1200)]


def test_short_words_cover_the_cases():
    assert any(w.is_identity() for w in SHORT)
    assert {w.ambient for w in SHORT} == {SURFACE, HANDLEBODY}
    assert {w.genus for w in SHORT} == {2, 3, 4}
    assert any(0 < len({abs(x) for x in w.letters}) < _rank(w.ambient, w.genus) for w in SHORT)


@pytest.mark.parametrize("truncate", range(6))
def test_magnus_matches_dict_loop(truncate):
    for w in SHORT:
        assert magnus_of_word(w, truncate) == oracle_magnus(w, truncate), w


@pytest.mark.parametrize("truncate", range(6))
def test_fox_columns_match_concatenation_loops(truncate):
    for w in SHORT:
        if truncate == 5 and len(w) > 9:
            continue  # the oracle's prefix reaches thousands of terms
        assert fox_expand_column(w, truncate) == oracle_fox(w, truncate), w
        assert fox_bar_expand_column(w, truncate) == oracle_fox_bar(w, truncate), w


@pytest.mark.parametrize("truncate", range(5))
def test_long_words_match(long_words, truncate):
    for w in long_words:
        assert magnus_of_word.__wrapped__(w, truncate) == oracle_magnus(w, truncate)
        if truncate <= 3:
            assert fox_expand_column(w, truncate) == oracle_fox(w, truncate)
            assert fox_bar_expand_column(w, truncate) == oracle_fox_bar(w, truncate)


def test_negative_truncation_is_rejected():
    with pytest.raises(ValueError):
        magnus_of_word(alpha(1, 2), -1)


def test_cached_expansion_cannot_be_altered():
    t = magnus_of_word(alpha(1, 2), 2)
    with pytest.raises(TypeError):
        t.terms[(0,)] = 5
    assert magnus_of_word(alpha(1, 2), 2) == TensorPoly(surface_alphabet(2), {(): 1, (0,): 1})


def test_tables_are_sized_by_the_letters_used():
    # truncation 7 at genus 4: over all 8 letters the top degree alone would
    # hold 8^7 entries (16 MiB of pointers); the twist's error words use 3
    m = annulus_twist(4)
    assert johnson_degree(m, 6) == 1
    tracemalloc.start()
    try:
        for err in _error_words(m.forward):
            magnus_of_word.__wrapped__(err, 7)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20


def _lanes(m, truncate):
    """Every lane of the tables at truncation T, each degree below T at least one."""
    return sum(max(m**d, 1) for d in range(truncate)) + m**truncate


def test_lane_count_is_every_lane_up_to_the_budget():
    for m in range(6):
        for truncate in range(1, 12):
            lanes = _lanes(m, truncate)
            if lanes <= MAGNUS_LANE_BUDGET:
                assert _lane_count(m, truncate) == lanes, (m, truncate)
            else:
                assert _lane_count(m, truncate) > MAGNUS_LANE_BUDGET, (m, truncate)
    # the boundaries the tests and the benchmark pin
    assert _lane_count(8, 7) == 2_396_745 <= MAGNUS_LANE_BUDGET
    assert _lane_count(3, 13) == (3**14 - 1) // 2 <= MAGNUS_LANE_BUDGET
    assert _lane_count(3, 14) > MAGNUS_LANE_BUDGET
    assert _lane_count(6, 4) < MAGNUS_LANE_BUDGET // 1000
    # no power of m is built: at 3^(2*10^7) that alone would take seconds
    assert _lane_count(3, 20_000_000) > MAGNUS_LANE_BUDGET
    assert _lane_count(1, MAGNUS_LANE_BUDGET) == MAGNUS_LANE_BUDGET + 1
    assert _lane_count(0, MAGNUS_LANE_BUDGET + 1) == MAGNUS_LANE_BUDGET + 1


def test_lane_budget_refuses_before_any_lane():
    # a word in 3 generators at truncation 14 needs (3^15 - 1)/2 lanes, past
    # MAGNUS_LANE_BUDGET, and one in 0 or 1 generators still builds one int
    # per degree; the expansion refuses them without building one
    cases = [((1, 2, 3), 14), ((1, 2, 3), 20_000_000), ((1, 1, 1), 10_000_000), ((), 10**8)]
    tracemalloc.start()
    try:
        for codes, truncate in cases:
            w = GroupWord(SURFACE, 2, list(codes))
            match = f"in {len(set(codes))} generators to degree {truncate} "
            with pytest.raises(BudgetExceeded, match=match):
                magnus_of_word.__wrapped__(w, truncate)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def _degree_four_class():
    return mcr_commutator(annulus_twist(2), sample_Ak(2, 3, 1, seed=0)[0].rep)


def _deep_words():
    """Error words whose expansions start in degree 2, 3 and 6, so of
    filtration degree 1, 2 and 5: [a1,b1], [[a1,b1],b2] and a five-fold
    commutator in two letters."""
    a1, b1, b2 = alpha(1, 2), beta(1, 2), beta(2, 2)
    w = commutator(a1, alpha(2, 2))
    for _ in range(4):
        w = commutator(w, a1)
    return [commutator(a1, b1), commutator(commutator(a1, b1), b2), w]


def test_low_degree_probe_agrees_with_the_full_pass(monkeypatch):
    classes = [
        mcr_identity(2),
        meridian_twist(2),
        annulus_twist(2),
        annulus_twist(3, 2),
        sample_Ak(2, 2, 1, seed=0)[0].rep,
        sample_Ak(2, 3, 1, seed=0)[0].rep,
        _degree_four_class(),
    ]
    bounds = range(1, MAX_DEGREE_BOUND + 1)
    for m in classes:
        errors = list(_error_words(m.forward))
        for bound in bounds:
            expected = oracle_degree(errors, bound)
            assert johnson_degree(m, bound) == _degree(_expansions(m, bound)) == expected, (m, bound)
    # one error word each, patched in: at bound 1 the degree-2 word reads
    # None, and the degree-5 word reads 5 only from bound 5
    for w, degree in zip(_deep_words(), (1, 2, 5)):
        monkeypatch.setattr(johnson, "_error_words", lambda f, w=w: iter([w]))
        for bound in bounds:
            expected = oracle_degree([w], bound)
            assert expected == (degree if degree <= bound else None), (degree, bound)
            assert johnson_degree(mcr_identity(2), bound) == expected, (degree, bound)


def test_low_degree_probe_leaves_the_cache_alone():
    for m in (annulus_twist(4), _degree_four_class()):
        for bound in range(1, MAX_DEGREE_BOUND + 1):
            before = magnus_of_word.cache_info()
            johnson_degree(m, bound)
            after = magnus_of_word.cache_info()
            assert (after.hits, after.misses) == (before.hits, before.misses), bound


def _probed_truncations(monkeypatch, m, bound):
    """johnson_degree(m, bound) and the truncations its probe expanded."""
    probed = []
    real = johnson._expansions

    def counting(cls, k):
        probed.append(k + 1)
        return real(cls, k)

    monkeypatch.setattr(johnson, "_expansions", counting)
    return johnson_degree(m, bound), sorted(set(probed))


def test_sampler_and_tau_make_no_low_degree_probe(monkeypatch):
    # sample_Ak reads the degree off one uncached expansion per error word,
    # probes nothing, and leaves tau_k in each sample's memo: the tau that
    # follows, on a sample found fresh or by an earlier call, expands no word
    def no_probe(*args):
        raise AssertionError("the degree was probed")

    def no_expansion(*args):
        raise AssertionError("a Magnus expansion was made")

    monkeypatch.setattr(johnson, "johnson_degree", no_probe)
    johnson._sample_stream.cache_clear()
    for k in (1, 2, 3):
        [fresh] = sample_Ak(2, k, 1, seed=0)
        resumed = sample_Ak(2, k, 2, seed=0)
        assert resumed[0].rep is fresh.rep, k
        with monkeypatch.context() as patch:
            patch.setattr(packed, "_packed_levels", no_expansion)
            before = magnus_of_word.cache_info()
            for fm in resumed:
                tau(fm.rep, k)
            assert magnus_of_word.cache_info() == before, k


def test_low_degree_probe_stops_at_the_first_nonzero_degree(monkeypatch):
    # degree 1 shows at truncation 2, whatever the bound
    for bound in (1, 2, 3, 6):
        assert _probed_truncations(monkeypatch, annulus_twist(2), bound) == (1, [2])
    assert _probed_truncations(monkeypatch, annulus_twist(4), 6) == (1, [2])
    # degree 2 at bound 2 and 3: truncations 2 and 3
    m = sample_Ak(2, 2, 1, seed=0)[0].rep
    for bound in (2, 3):
        assert _probed_truncations(monkeypatch, m, bound) == (2, [2, 3])
    # nothing below the bound: every truncation 2..bound+1
    assert _probed_truncations(monkeypatch, mcr_identity(2), 1) == (None, [2])
    assert _probed_truncations(monkeypatch, _degree_four_class(), 3) == (None, [2, 3, 4])
    # degree 4 at bound 4: nothing below it, so truncations 2..5
    assert _probed_truncations(monkeypatch, _degree_four_class(), 4) == (4, [2, 3, 4, 5])


# ---------------------------------------------------------------------------
# The stride-slice kernel the packed one replaced, as a differential oracle


def oracle_levels(w, truncate: int):
    """The sorted codes of the generators w uses, and degrees 0..truncate of
    its Magnus expansion as one flat list per degree, the degree-d word
    u_1..u_d at sum_i u_i m^(d-i) (the last letter least significant).

    Right multiplication by 1 + X_v adds the degree-(d-1) list into the words
    of degree d ending in v, the stride slice [v::m], walking the degrees
    downward; by the inverse series it subtracts, walking upward.
    """
    if truncate < 0:
        raise ValueError("truncation degree must be nonnegative")
    used = tuple(sorted({abs(x) for x in w.letters}))
    m = len(used)
    local = {code: v for v, code in enumerate(used)}
    levels = [[1]] + [[0] * m**d for d in range(1, truncate + 1)]
    down = list(zip(levels[:0:-1], levels[-2::-1]))
    up = down[::-1]
    for x in w.letters:
        if x > 0:
            v = local[x]
            for dst, src in down:
                dst[v::m] = map(add, dst[v::m], src)
        else:
            v = local[-x]
            for dst, src in up:
                dst[v::m] = map(sub, dst[v::m], src)
    return used, levels


def oracle_terms(levels, used) -> dict:
    """Word -> coefficient dict of oracle_levels' layout."""
    m = len(used)
    names = [code - 1 for code in used]
    out = {}
    for d, level in enumerate(levels):
        for idx in compress(range(len(level)), level):
            word = [0] * d
            i = idx
            for pos in range(d - 1, -1, -1):
                i, r = divmod(i, m)
                word[pos] = names[r]
            out[tuple(word)] = level[idx]
    return out


def oracle_fox_parts(w, truncate: int, bar: bool) -> dict:
    """The Fox-column terms of groupring._fox_parts, read off oracle_levels:
    stride slices of theta(w), or contiguous blocks of theta(w^-1)
    multiplied on the left by 1 + X_j."""
    used, levels = oracle_levels(~w if bar else w, truncate + 1)
    m = len(used)
    parts = {}
    for v, code in enumerate(used):
        if not bar:
            part = [levels[d + 1][v::m] for d in range(truncate + 1)]
        else:
            part = [
                [-c for c in levels[d + 1][v * m**d : (v + 1) * m**d]]
                for d in range(truncate + 1)
            ]
            for d in range(truncate, 0, -1):
                s = m ** (d - 1)
                part[d][v * s : (v + 1) * s] = map(add, part[d][v * s : (v + 1) * s], part[d - 1])
        parts[code] = oracle_terms(part, used)
    return parts


def _assert_kernel_agrees(w, truncate: int) -> None:
    """Same terms at `truncate`, and the same Fox columns and bar columns at
    truncate - 1 (read off the same expansions)."""
    used, levels = oracle_levels(w, truncate)
    assert _expansion_terms(w, truncate) == oracle_terms(levels, used), (w, truncate)
    del levels
    if truncate:
        for bar in (False, True):
            assert _fox_parts(w, truncate - 1, bar) == oracle_fox_parts(w, truncate - 1, bar)


def _reduced_over(rng, codes, n: int):
    """A seeded reduced genus-4 surface word of n >= len(codes) letters that
    uses exactly the given generator codes."""
    letters = list(codes)
    rng.shuffle(letters)
    choices = [c * s for c in codes for s in (1, -1)]
    while len(letters) < n:
        x = rng.choice(choices)
        if x != -letters[-1]:
            letters.append(x)
    return GroupWord(SURFACE, 4, letters)


@pytest.mark.parametrize("truncate", range(8))
@pytest.mark.parametrize("m", range(1, 9))
def test_packed_kernel_matches_oracle_levels(m, truncate):
    # words in m of the 8 generators, as long as keeps the oracle's top
    # slices near 2^17 entries per word (at least m letters); one word when
    # the top degree alone has more than 2^18 entries
    rng = random.Random(100 * m + truncate)
    n = max(m, min(40, 2**17 // m ** max(truncate - 1, 0)))
    for _ in range(1 if m**truncate > 2**18 else 2):
        w = _reduced_over(rng, sorted(rng.sample(range(1, 9), m)), n)
        assert len({abs(x) for x in w.letters}) == m
        _assert_kernel_agrees(w, truncate)


@pytest.mark.parametrize("truncate", range(8))
def test_empty_word_matches_oracle_levels(truncate):
    e = GroupWord(SURFACE, 4)
    _assert_kernel_agrees(e, truncate)
    assert _expansion_terms(e, truncate) == {(): 1}


def _runs() -> list:
    """Powers of one letter, and seeded words made of runs of one letter."""
    out = [GroupWord(SURFACE, 4, [x] * k) for x in (1, -1, 6, -6) for k in (1, 2, 3, 9)]
    rng = random.Random(11)
    for size in (2, 3):
        codes = rng.sample(range(1, 9), size)
        letters = []
        while len(letters) < 30:
            x = rng.choice([c for c in codes if not letters or c != abs(letters[-1])])
            letters += [x * rng.choice((1, -1))] * rng.randint(1, 6)
        out.append(GroupWord(SURFACE, 4, letters))
    return out


@pytest.mark.parametrize("truncate", range(8))
def test_single_letter_runs_match_oracle_levels(truncate):
    for w in _runs():
        _assert_kernel_agrees(w, truncate)


@pytest.fixture(scope="module")
def ten_thousand():
    """Seeded reduced words of 10,000 letters in 2, 5 and 8 generators."""
    rng = random.Random(13)
    return [_reduced_over(rng, rng.sample(range(1, 9), m), 10_000) for m in (2, 5, 8)]


@pytest.mark.parametrize("truncate", range(5))
def test_ten_thousand_letter_words_match_oracle_levels(ten_thousand, truncate):
    for w in ten_thousand:
        _assert_kernel_agrees(w, truncate)


# ---------------------------------------------------------------------------
# The lane width: closed forms at the bound it is sized by


def _straddle(f, limit: int) -> int:
    """The n >= 1 with f(n) < limit <= f(n + 1), for f increasing from f(1) < limit."""
    n = 1
    while f(n + 1) < limit:
        n += 1
    return n


def _power_terms(x: int, n: int, truncate: int) -> TensorPoly:
    return magnus_of_word.__wrapped__(GroupWord(SURFACE, 2, [x] * n), truncate)


@pytest.mark.parametrize("truncate, bits", [(7, 63), (20, 127)])
def test_inverse_powers_attain_the_lane_bound(truncate, bits):
    # theta(x^-n) = sum_d (-1)^d C(n+d-1, d) X^d: every cut of X^d into n
    # pieces counts, so the top coefficient is the bound the lane width is
    # sized by; n and n + 1 put it just below and just above 2^bits, where
    # the width grows by a byte
    n = _straddle(lambda k: comb(k + truncate - 1, truncate), 2**bits)
    assert comb(n + truncate - 1, truncate) < 2**bits <= comb(n + truncate, truncate)
    assert _lane_bytes(n + 1, truncate) == _lane_bytes(n, truncate) + 1 == bits // 8 + 2
    for k in (n, n + 1):
        expected = {(0,) * d: (-1) ** d * comb(k + d - 1, d) for d in range(truncate + 1)}
        assert _power_terms(-1, k, truncate) == TensorPoly(surface_alphabet(2), expected)


@pytest.mark.parametrize("truncate, bits", [(7, 63), (20, 127)])
def test_positive_powers_are_binomial(truncate, bits):
    # theta(x^n) = (1 + X)^n; n and n + 1 put the top coefficient C(n, truncate)
    # just below and just above 2^bits
    n = _straddle(lambda k: comb(k, truncate), 2**bits)
    assert comb(n, truncate) < 2**bits <= comb(n + 1, truncate)
    for k in (n, n + 1):
        expected = {(0,) * d: comb(k, d) for d in range(truncate + 1)}
        assert _power_terms(1, k, truncate) == TensorPoly(surface_alphabet(2), expected)


words3 = st.lists(
    st.integers(min_value=1, max_value=6).flatmap(lambda c: st.sampled_from([c, -c])),
    max_size=10,
).map(lambda cs: GroupWord(SURFACE, 3, cs))


@given(words3, words3, st.integers(min_value=0, max_value=4))
@settings(max_examples=80, deadline=None)
def test_expansion_is_multiplicative(u, v, truncate):
    theta = magnus_of_word.__wrapped__
    tu = theta(u, truncate)
    assert theta(u * v, truncate) == tu.concat(theta(v, truncate), truncate=truncate)
    if truncate >= 1:
        sums = {(i,): e for i, e in enumerate(abelianize_word(u)) if e}
        assert tu.degree_part(1) == TensorPoly(surface_alphabet(3), sums)


def test_packed_peak_is_no_higher_than_the_oracle():
    # the packed tables are smaller than the stride-slice kernel's lists,
    # and decoding one degree (and one top block) at a time, only its
    # nonzero lanes, keeps the peak below that kernel's tables
    samples = sample_Ak(3, 3, 4, seed=0)
    images = {w for s in samples for w in s.rep.forward.images + s.rep.inverse.images}

    def peak(kernel) -> int:
        tracemalloc.start()
        try:
            for w in images:
                kernel(w, 4)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak(_expansion_terms) <= peak(oracle_levels)
