"""The packed Magnus kernel's conjugate split against the letter loop alone.

packed._packed_levels expands a word P c P^-1 t (|t| <= 1, |P| at least
packed._shortest of the truncation) as 1 + theta(P) (theta(c) - 1)
theta(P)^-1, with products of packed ints, and runs the letter loop over t.
oracles.oracle_packed_levels is the kernel as it was before, the letter loop
alone; the two must agree exactly, lane width included, on every word and
truncation.
"""

import random

import pytest

from lagtrace import packed
from lagtrace.freegroup import SURFACE, GroupWord
from lagtrace.johnson import _error_words, sample_Ak
from oracles import oracle_packed_levels, random_reduced_word

MIN = packed._MIN_CONJUGATOR


def _sample_words():
    samples = sample_Ak(3, 3, 4, seed=0)
    words = set()
    for s in samples:
        for f in (s.rep.forward, s.rep.inverse):
            words.update(f.images)
            words.update(_error_words(f))
    return sorted(words, key=lambda w: (len(w), w.letters))


def _conjugate(rng, genus: int, generators: int, p: int, c_len: int, tail: str) -> GroupWord:
    """P c P^-1 t in the first `generators` letters; the letters are taken as
    they come (a P next to an empty c cancels), so the kernel sees the split
    exactly as built.  tail: "" (no t), "free" (a letter that does not
    cancel) or "cancel" (the inverse of P^-1's last letter)."""
    codes = list(range(1, generators + 1))

    def word(n):
        out = []
        while len(out) < n:
            x = rng.choice(codes) * rng.choice((1, -1))
            if not out or out[-1] != -x:
                out.append(x)
        return out

    P = word(p)
    c = word(c_len)
    letters = P + c + [-x for x in reversed(P)]
    if tail == "cancel":
        letters.append(P[0])
    elif tail == "free":
        letters.append(next(x for x in codes + [-y for y in codes] if x != -letters[-1]))
    return GroupWord._trusted(SURFACE, genus, tuple(letters))


@pytest.mark.parametrize("truncate", [1, 2, 3, 4, 5])
def test_split_agrees_with_the_letter_loop(truncate):
    rng = random.Random(truncate)
    genus = 2
    cases = 0
    least = packed._shortest(truncate)
    for generators in range(1, 2 * genus + 1):
        for p in (least - 1, least, least + 1):
            for c_len in (0, 1, 37):
                for tail in ("", "free", "cancel"):
                    w = _conjugate(rng, genus, generators, p, c_len, tail)
                    assert packed._packed_levels(w, truncate) == oracle_packed_levels(w, truncate)
                    cases += 1
    assert cases == 4 * 3 * 3 * 3


def test_split_agrees_at_genus_three_and_on_random_words():
    rng = random.Random(7)
    for truncate in (2, 4):
        for generators in (5, 6):
            w = _conjugate(rng, 3, generators, MIN + 40, 90, "free")
            assert packed._packed_levels(w, truncate) == oracle_packed_levels(w, truncate)
    # words that are not conjugates take the letter loop alone
    for n in (2 * MIN - 1, 2 * MIN, 3 * MIN):
        w = random_reduced_word(rng, SURFACE, 3, n)
        assert packed._packed_levels(w, 4) == oracle_packed_levels(w, 4)


@pytest.mark.parametrize("truncate", [1, 2, 3, 4, 5])
def test_split_agrees_on_the_degree_3_samples(truncate):
    for w in _sample_words():
        assert packed._packed_levels(w, truncate) == oracle_packed_levels(w, truncate)


def test_the_split_finds_the_longest_conjugator():
    rng = random.Random(3)
    for p in (1, 2, MIN, MIN + 5):
        for tail, t in ((0, ""), (1, "free"), (1, "cancel")):
            w = _conjugate(rng, 2, 4, p, 11, t)
            found = packed._conjugator(w.letters, tail)
            # the conjugator found may run on into c when c is a conjugate too
            assert found >= p
            assert all(w.letters[i] == -w.letters[len(w) - tail - 1 - i] for i in range(found))


def test_the_sample_words_take_the_split(monkeypatch):
    # the images, inverse images and error words of the degree-3 samples are
    # conjugates with long conjugators: 38 of the 67 take the split at
    # truncation 4, 20 with t empty and 18 with t one letter, so the path
    # cannot go dead unseen
    taken = []
    real = packed._conjugate

    def counting(letters, p, tail, *args):
        taken.append(tail)
        return real(letters, p, tail, *args)

    monkeypatch.setattr(packed, "_conjugate", counting)
    words = _sample_words()
    for w in words:
        packed._packed_levels(w, 4)
    assert len(words) == 67
    assert len(taken) == 38
    assert taken.count(0) == 20 and taken.count(1) == 18
