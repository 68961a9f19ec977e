"""The dense Magnus kernel against the dict loops it replaced, and its limits.

magnus_of_word, fox_expand_column and fox_bar_expand_column run on one dense
kernel (per-degree integer lists indexed over the letters a word uses).  The
oracles below are the routes they replaced: the letter-by-letter dict loop of
the Magnus expansion, and the Fox-column loops that concatenate a running
prefix with truncated letter series.  Both are kept here as references and
must agree exactly on seeded words.
"""

import random
import tracemalloc

import pytest

from lagtrace.freegroup import (
    HANDLEBODY,
    SURFACE,
    _rank,
    alpha,
    commutator,
    identity_word,
    mcr_commutator,
    mcr_identity,
    random_reduced_word,
    word_from_codes,
)
from lagtrace import johnson
from lagtrace.groupring import fox_bar_expand_column, fox_expand_column
from lagtrace.johnson import (
    MAX_DEGREE_BOUND,
    PROBE_FROM_BOUND,
    _error_words,
    annulus_twist,
    johnson_degree,
    meridian_twist,
    sample_Ak,
)
from lagtrace.tensorlie import (
    TensorPoly,
    _word_alphabet,
    lcs_degree,
    lowest_degree,
    magnus_of_word,
    surface_alphabet,
)


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
            out.append(identity_word(ambient, genus))
            out.extend(random_reduced_word(rng, ambient, genus, n) for n in (1, 4, 9, 16))
            for size in (2, 3):
                codes = rng.sample(range(1, rank + 1), min(size, rank))
                letters = [rng.choice(codes) * rng.choice((1, -1)) for _ in range(14)]
                out.append(word_from_codes(ambient, genus, letters))
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
        for err in _error_words(m):
            magnus_of_word.__wrapped__(err, 7)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20


def _degree_from_cache(m, bound):
    """johnson_degree without its low-degree probe: one cached pass at bound+1."""
    degs = [d for d in (lcs_degree(err, bound + 1) for err in _error_words(m)) if d is not None]
    return min(degs) - 1 if degs else None


def test_low_degree_probe_agrees_with_the_full_pass():
    classes = [
        mcr_identity(2),
        meridian_twist(2),
        annulus_twist(2),
        annulus_twist(3, 2),
        sample_Ak(2, 2, 1, seed=0)[0].rep,
        sample_Ak(2, 3, 1, seed=0)[0].rep,
    ]
    for m in classes:
        for bound in range(PROBE_FROM_BOUND - 1, MAX_DEGREE_BOUND + 1):
            assert johnson_degree(m, bound) == _degree_from_cache(m, bound), (m, bound)


def test_low_degree_probe_leaves_the_cache_alone():
    m = annulus_twist(4)
    before = magnus_of_word.cache_info()
    assert johnson_degree(m, 6) == 1
    after = magnus_of_word.cache_info()
    assert (after.hits, after.misses) == (before.hits, before.misses)



def _probed_truncations(monkeypatch, m, bound):
    """johnson_degree(m, bound) and the truncations its probe expanded."""
    probed = []
    real = johnson.lowest_degree

    def counting(w, t):
        probed.append(t)
        return real(w, t)

    monkeypatch.setattr(johnson, "lowest_degree", counting)
    return johnson_degree(m, bound), sorted(set(probed))


def test_low_degree_probe_costs_less_than_the_final_pass(monkeypatch):
    # the identity's error words are empty: nothing to probe
    assert _probed_truncations(monkeypatch, mcr_identity(4), 6) == (None, [])
    # a class of degree 4 at bound 4: the probe finds nothing below the bound,
    # so the final pass runs as well, after probes that cost less than it
    m = mcr_commutator(annulus_twist(2), sample_Ak(2, 3, 1, seed=0)[0].rep)
    degree, probed = _probed_truncations(monkeypatch, m, 4)
    assert degree == 4 == _degree_from_cache(m, 4)
    assert probed == [2, 3, 4]
    sizes = [(len(e.letters), len({abs(x) for x in e.letters})) for e in _error_words(m)]
    spent = sum(johnson._pass_cost(sizes, t) for t in probed)
    assert spent < johnson._pass_cost(sizes, 5)


def test_low_degree_probe_stops_before_it_outgrows_the_final_pass(monkeypatch):
    # an error word of degree 6 in two letters: each truncation costs about
    # as much as the last, so the probe stops at 5 and the final pass finds it
    a, b = alpha(1, 2), alpha(2, 2)
    w = commutator(a, b)
    for _ in range(4):
        w = commutator(w, a)
    assert lowest_degree(w, 7) == 6
    monkeypatch.setattr(johnson, "_error_words", lambda m: iter([w]))
    assert _probed_truncations(monkeypatch, mcr_identity(2), 6) == (5, [2, 3, 4, 5])
