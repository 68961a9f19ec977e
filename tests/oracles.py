"""Literal constructions the tests check the library against.

The library computes these objects by faster or more specialized routes
(streaming Fox columns, the packed Magnus kernel, sparse kernels) and has no
caller for the literal ones, so they live here: each is the textbook
definition, kept short enough to trust by reading.
"""

from itertools import combinations

from lagtrace.derivations import Derivation
from lagtrace.freegroup import (
    SURFACE,
    GroupWord,
    _rank,
    abelianize_word,
    alpha,
    beta,
    commutator,
    identity_word,
)
from lagtrace.groupring import GroupRingElem, LaurentElem, bar, fox_derivative
from lagtrace.tensorlie import (
    LiePoly,
    TensorPoly,
    _word_alphabet,
    lie_zero,
    magnus_of_word,
    surface_alphabet,
)


def ring_word(w: GroupWord) -> GroupRingElem:
    return GroupRingElem(w.ambient, w.genus, {w: 1})


def ring_one(ambient: str, genus: int) -> GroupRingElem:
    return ring_word(identity_word(ambient, genus))


def ring_zero(ambient: str, genus: int) -> GroupRingElem:
    return GroupRingElem(ambient, genus, {})


def laurent_zero(alphabet) -> LaurentElem:
    return LaurentElem(alphabet, {})


def abelianize_ring(e: GroupRingElem) -> LaurentElem:
    """Each word of e to its exponent vector, coefficients added."""
    out: dict = {}
    for w, c in e.terms.items():
        key = abelianize_word(w)
        out[key] = out.get(key, 0) + c
    return LaurentElem(_word_alphabet(e), out)


def magnus_expand(e: GroupRingElem, truncate: int) -> TensorPoly:
    """Magnus expansion extended linearly over the group ring."""
    out = TensorPoly(_word_alphabet(e), {})
    for w, c in e.terms.items():
        out = out + magnus_of_word(w, truncate).scale(c)
    return out


def fox_matrix(m):
    """2g x 2g over the surface group ring; entry (i, j) = bar d(phi(gamma_j))/d(gamma_i)."""
    rank = _rank(m.ambient, m.genus)
    return tuple(
        tuple(bar(fox_derivative(img, i)) for img in m.forward.images)
        for i in range(1, rank + 1)
    )


def boundary_word(genus: int) -> GroupWord:
    """[alpha_g, beta_g] ... [alpha_1, beta_1]; the class of the boundary curve.

    Descending handle order: the sample automorphisms shipped with the package
    fix this word exactly.
    """
    z = identity_word(SURFACE, genus)
    for i in range(genus, 0, -1):
        z = z * commutator(alpha(i, genus), beta(i, genus))
    return z


def random_reduced_word(rng, ambient: str, genus: int, length: int) -> GroupWord:
    """Uniform random reduced word of exactly the given length (0 gives identity)."""
    rank = _rank(ambient, genus)
    letters: list[int] = []
    while len(letters) < length:
        x = rng.choice([c for c in range(-rank, rank + 1) if c != 0])
        if letters and letters[-1] == -x:
            continue
        letters.append(x)
    return GroupWord(ambient, genus, letters)


def zero_derivation(genus: int, degree: int) -> Derivation:
    return Derivation(genus, degree, [lie_zero(surface_alphabet(genus), degree + 1)] * (2 * genus))


def wedge_basis(genus: int) -> list[tuple[int, int, int]]:
    """Index triples i < j < l of the basis e_i ^ e_j ^ e_l of the third exterior power of H."""
    return list(combinations(range(2 * genus), 3))


def lie_letter(alphabet, i: int) -> LiePoly:
    return LiePoly(alphabet, 1, {(i,): 1})


def tensor_letter(alphabet, i: int) -> TensorPoly:
    return TensorPoly(alphabet, {(i,): 1})
