"""Three exact kernels on plain dicts and ints against the routes they replaced.

laurent_det walks only the column sets that nonzero minors reach, with each
exponent vector packed into one int of signed lanes, (n * E).bit_length() + 1
bits wide for an n x n matrix whose largest |exponent| is E; dynkin_map
expands the left-normed brackets on word dicts; and derivations._fixes_form
substitutes M into the pairing's bivector.  The references are the replaced
versions: the minor expansion over every column subset (n * 2^n products,
oracles.oracle_laurent_det), TensorPoly operations and the n^4 sum.  They
must agree exactly on seeded inputs, the Magnus matrices of the builtins and
the pinned sample streams, and matrices at the lane limit.
"""

import random

import pytest

from lagtrace.derivations import _fixes_form
from lagtrace.errors import AmbientMismatch
from lagtrace.freegroup import SURFACE, GroupWord, mcr_compose, symplectic_action
from lagtrace.groupring import LaurentElem, fox_abelian_column, laurent_det, laurent_one
from lagtrace.johnson import BUILTINS, WORD_BUDGET, handlebody_sample_library, sample_Ak
from lagtrace.magnusrep import handlebody_magnus, magnus_rep
from lagtrace.tensorlie import (
    LiePoly,
    TensorPoly,
    dynkin_map,
    handlebody_alphabet,
    lyndon_words,
    surface_alphabet,
)
from oracles import (
    laurent_zero,
    lie_to_tensor,
    oracle_laurent_det,
    symplectic_form_matrix,
    tensor_letter,
)
from test_johnson import SAMPLE_STREAM_SHA256


def oracle_dynkin_map(t: TensorPoly) -> TensorPoly:
    """Left-normed bracketing through TensorPoly.concat, letter by letter."""
    out = TensorPoly(t.alphabet, {})
    for w, c in t.terms.items():
        acc = TensorPoly(t.alphabet, {(w[0],): 1})
        for x in w[1:]:
            letter = tensor_letter(t.alphabet, x)
            acc = acc.concat(letter) - letter.concat(acc)
        out = out + acc.scale(c)
    return out


def oracle_preserves_symplectic_form(matrix, genus: int) -> bool:
    """Every entry of M^T J M as an n^2-term sum."""
    n = 2 * genus
    J = symplectic_form_matrix(genus)
    return all(
        sum(matrix[k][i] * J[k][l] * matrix[l][j] for k in range(n) for l in range(n)) == J[i][j]
        for i in range(n)
        for j in range(n)
    )


# ---------------------------------------------------------------------------
# Laurent determinant


def _random_laurent(rng, alphabet, max_terms: int, zero: float = 0.3) -> LaurentElem:
    if rng.random() < zero:
        return laurent_zero(alphabet)
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        expo = tuple(rng.randint(-2, 2) for _ in range(alphabet.size))
        terms[expo] = rng.choice((-3, -2, -1, 1, 2, 3))
    return LaurentElem(alphabet, terms)


@pytest.mark.parametrize("alphabet", [surface_alphabet(2), handlebody_alphabet(3)])
def test_laurent_det_matches_oracle_on_random_matrices(alphabet):
    rng = random.Random(2026)
    for n in range(1, 9):
        # wide matrices get sparser entries, so the oracle stays quick; with
        # no zero entry every column set is reached, the subset DP's work
        max_terms = 3 if n <= 5 else 1
        for zero in (0.3, 0.0):
            for _ in range(6 if n <= 6 else 2):
                A = tuple(
                    tuple(_random_laurent(rng, alphabet, max_terms, zero) for _ in range(n))
                    for _ in range(n)
                )
                assert laurent_det(A) == oracle_laurent_det(A)


def test_laurent_det_of_zero_row_is_zero():
    a = surface_alphabet(2)
    z, one = laurent_zero(a), laurent_one(a)
    A = ((one, z), (z, z))
    assert laurent_det(A).is_zero()
    assert oracle_laurent_det(A).is_zero()


def test_laurent_det_rejects_mixed_alphabets():
    a, b = surface_alphabet(2), surface_alphabet(3)
    A = ((laurent_one(a), laurent_zero(a)), (laurent_zero(a), laurent_one(b)))
    with pytest.raises(AmbientMismatch):
        laurent_det(A)
    # and matrices with no determinant
    one = laurent_one(a)
    with pytest.raises(ValueError, match="empty matrix"):
        laurent_det(())
    for ragged in (((one, one),), ((one, one), (one,)), ((one,), (one, one))):
        with pytest.raises(ValueError, match="determinant needs a square matrix"):
            laurent_det(ragged)


def _monomial(alphabet, lane: int, power: int) -> LaurentElem:
    key = tuple(power if i == lane else 0 for i in range(alphabet.size))
    return LaurentElem(alphabet, {key: 1})


@pytest.mark.parametrize("power", [1, 2, 3, 4, 5, 7, 8, 9, 1000, 1024, 9999])
def test_laurent_det_at_the_lane_limit(power):
    # det of a diagonal of n equal monomials x^power reaches n * power, the
    # lane bound, in one lane; the other signs and lanes share it
    alphabet = surface_alphabet(2)
    for n in (1, 2, 3, 4):
        for lane in range(alphabet.size):
            for sign in (1, -1):
                x, z = _monomial(alphabet, lane, sign * power), laurent_zero(alphabet)
                A = tuple(tuple(x if i == j else z for j in range(n)) for i in range(n))
                assert laurent_det(A) == _monomial(alphabet, lane, sign * n * power)
                assert laurent_det(A) == oracle_laurent_det(A)


def test_laurent_det_of_word_budget_images():
    # images a1^(N-1) x for every generator x, N = WORD_BUDGET: row a1 holds
    # sums of N - 1 monomials, the other rows one monomial a1^-(N-1) each,
    # so the lowest term of the determinant, a1^-(4 (N-1)), sits at the limit
    g, N = 2, WORD_BUDGET
    images = [GroupWord(SURFACE, g, [1] * (N - 1) + [x]) for x in range(1, 2 * g + 1)]
    assert max(map(len, images)) == N
    A = tuple(zip(*map(fox_abelian_column, images)))
    det = laurent_det(A)
    assert det == oracle_laurent_det(A)
    assert min(det.terms)[0] == -4 * (N - 1)


def _classes(genus: int):
    """The builtins at `genus` and samples of sample_Ak(genus, 1, 10, genus);
    at genus 7 and 8, where the oracle takes 0.1-0.4 s per matrix, two
    samples and no library classes."""
    builtins = [make(genus) for make in BUILTINS.values()]
    if genus >= 7:
        return builtins + [fm.rep for fm in sample_Ak(genus, 1, 2, seed=genus)]
    lib = list(handlebody_sample_library(genus))
    samples = [fm.rep for fm in sample_Ak(genus, 1, 10, seed=genus)]
    return builtins + lib[:4] + samples + [mcr_compose(samples[0], lib[-1])]


def _assert_unit_det(matrix):
    det = laurent_det(matrix)
    assert det == oracle_laurent_det(matrix)
    assert len(det.terms) == 1  # the determinant of an automorphism is a unit


@pytest.mark.parametrize("genus", range(2, 9))
def test_laurent_det_matches_oracle_on_magnus_matrices(genus):
    for m in _classes(genus):
        for matrix in (magnus_rep(m), handlebody_magnus(m)):
            _assert_unit_det(matrix)


@pytest.mark.parametrize("key", sorted(SAMPLE_STREAM_SHA256))
def test_laurent_det_matches_oracle_on_pinned_streams(key):
    g, k, seed = key
    for fm in sample_Ak(g, k, 10, seed):
        for matrix in (magnus_rep(fm.rep), handlebody_magnus(fm.rep)):
            _assert_unit_det(matrix)


# ---------------------------------------------------------------------------
# Dynkin map


def _random_tensor(rng, alphabet, degree: int) -> TensorPoly:
    terms = {}
    for _ in range(rng.randint(1, 6)):
        word = tuple(rng.randrange(alphabet.size) for _ in range(degree))
        terms[word] = rng.choice((-2, -1, 1, 3))
    return TensorPoly(alphabet, terms)


def _random_lie_tensor(rng, alphabet, degree: int) -> TensorPoly:
    words = lyndon_words(alphabet.size, degree)
    coords = {rng.choice(words): rng.choice((-2, -1, 1, 2)) for _ in range(rng.randint(1, 4))}
    return lie_to_tensor(LiePoly(alphabet, degree, coords))


@pytest.mark.parametrize("alphabet", [surface_alphabet(2), handlebody_alphabet(3)])
def test_dynkin_map_matches_oracle(alphabet):
    rng = random.Random(17)
    lie_seen = non_lie_seen = 0
    for degree in range(1, 7):
        for _ in range(12):
            for t in (_random_tensor(rng, alphabet, degree), _random_lie_tensor(rng, alphabet, degree)):
                d = dynkin_map(t)
                assert d == oracle_dynkin_map(t)
                if d == t.scale(degree):
                    lie_seen += 1
                else:
                    non_lie_seen += 1
    assert lie_seen >= 72 and non_lie_seen > 0


def test_dynkin_map_of_mixed_degrees_and_cancellation():
    a = surface_alphabet(2)
    # repeated letters make the two terms of a bracket collide and cancel
    t = TensorPoly(a, {(0,): 2, (1, 1): 1, (0, 1, 0): -1, (2, 2, 2, 2): 5, (0, 1, 2, 3, 0, 1): 1})
    assert dynkin_map(t) == oracle_dynkin_map(t)
    with pytest.raises(ValueError):
        dynkin_map(TensorPoly(a, {(): 1}))


# ---------------------------------------------------------------------------
# symplectic check


def _perturbed(M, rng):
    rows = [list(r) for r in M]
    i, j = rng.randrange(len(rows)), rng.randrange(len(rows))
    rows[i][j] += rng.choice((-1, 1))
    return tuple(tuple(r) for r in rows)


@pytest.mark.parametrize("genus", [2, 3, 4])
def test_symplectic_check_matches_oracle(genus):
    rng = random.Random(genus)
    n = 2 * genus
    symplectic = [symplectic_action(m) for m in handlebody_sample_library(genus)]
    symplectic.append(symplectic_form_matrix(genus))
    perturbed = [_perturbed(M, rng) for M in symplectic for _ in range(3)]
    scaled = [tuple(tuple(2 * x for x in r) for r in M) for M in symplectic[:3]]
    random_mats = [
        tuple(tuple(rng.randint(-2, 2) for _ in range(n)) for _ in range(n)) for _ in range(20)
    ]
    for M in symplectic:
        assert _fixes_form(M, genus) is True
        assert oracle_preserves_symplectic_form(M, genus)
    for M in perturbed + scaled + random_mats:
        expected = oracle_preserves_symplectic_form(M, genus)
        assert _fixes_form(M, genus) is expected
    # a perturbation can land on a transvection, which is symplectic again
    assert not any(oracle_preserves_symplectic_form(M, genus) for M in scaled)
    assert sum(not oracle_preserves_symplectic_form(M, genus) for M in perturbed) > len(perturbed) // 2
