"""Literal constructions the tests check the library against.

The library computes these objects by faster or more specialized routes
(streaming Fox columns, the packed Magnus kernel, sparse kernels, derivations
on tensor dicts) and has no caller for the literal ones, so they live here:
each is the textbook definition, kept short enough to trust by reading.
"""

from itertools import combinations

from lagtrace.derivations import (
    Derivation,
    _matrix_inverse_symplectic,
    norm_matrix,
)
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
    SymPoly,
    TensorPoly,
    _lie_terms,
    _peel,
    _substitute_terms,
    _word_alphabet,
    handlebody_alphabet,
    lie_bracket,
    lie_zero,
    magnus_of_word,
    std_bracketing,
    surface_alphabet,
    symmetrize,
    tensor_zero,
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


def _expr_lie(expr, alphabet) -> LiePoly:
    """The Lie element of a nested-bracket expression, bracket by bracket."""
    if isinstance(expr, int):
        return LiePoly(alphabet, 1, {(expr,): 1})
    return lie_bracket(_expr_lie(expr[0], alphabet), _expr_lie(expr[1], alphabet))


def _apply_bracketing(d: Derivation, expr, alphabet) -> LiePoly:
    """d on a nested-bracket expression: d[u, v] = [d u, v] + [u, d v]."""
    if isinstance(expr, int):
        return d.values[expr]
    left, right = expr
    lv = _expr_lie(left, alphabet)
    rv = _expr_lie(right, alphabet)
    return lie_bracket(_apply_bracketing(d, left, alphabet), rv) + lie_bracket(
        lv, _apply_bracketing(d, right, alphabet)
    )


def _apply_extended(d: Derivation, v: LiePoly) -> LiePoly:
    """Leibniz extension of d to the free Lie ring, evaluated on v through the
    standard bracketing of each Lyndon word."""
    alphabet = surface_alphabet(d.genus)
    out = lie_zero(alphabet, v.degree + d.degree)
    for w, c in v.terms.items():
        out = out + _apply_bracketing(d, std_bracketing(w), alphabet).scale(c)
    return out


def derivation_bracket(d: Derivation, e: Derivation) -> Derivation:
    """[d, e](x) = d(e(x)) - e(d(x)), recursing over standard bracketings."""
    values = [
        _apply_extended(d, e.values[x]) - _apply_extended(e, d.values[x])
        for x in range(2 * d.genus)
    ]
    return Derivation(d.genus, d.degree + e.degree, values)


def transform_lie(v: LiePoly, M) -> LiePoly:
    """Push a Lie element through the linear map M, certified by the peel."""
    terms = _substitute_terms(_lie_terms(v), M, v.alphabet.size)
    return _peel(v.alphabet, terms, v.degree)


def act_on_derivation(M, d: Derivation) -> Derivation:
    """(M . d)(y) = M(d(M^-1 y)), combining LiePoly values, then transform_lie."""
    g = d.genus
    Minv = _matrix_inverse_symplectic(M, g)
    alphabet = surface_alphabet(g)
    values = []
    for y in range(2 * g):
        pre = lie_zero(alphabet, d.degree + 1)
        for i in range(2 * g):
            c = Minv[i][y]
            if c:
                pre = pre + d.values[i].scale(c)
        values.append(transform_lie(pre, M))
    return Derivation(g, d.degree, values)


def _sym_mul(p: SymPoly, q: SymPoly) -> SymPoly:
    out: dict = {}
    for e1, c1 in p.terms.items():
        for e2, c2 in q.terms.items():
            key = tuple(x + y for x, y in zip(e1, e2))
            out[key] = out.get(key, 0) + c1 * c2
    return SymPoly(p.alphabet, out)


def substitute(s: SymPoly, matrix) -> SymPoly:
    """The commutative substitution x_j -> sum_i matrix[i][j] x_i, variable by
    variable, power by power."""
    n = s.alphabet.size
    out = SymPoly(s.alphabet, {})
    for e, c in s.terms.items():
        term = SymPoly(s.alphabet, {(0,) * n: c})
        for j, power in enumerate(e):
            col = SymPoly(
                s.alphabet,
                {
                    tuple(1 if i == k else 0 for i in range(n)): matrix[k][j]
                    for k in range(n)
                    if matrix[k][j]
                },
            )
            for _ in range(power):
                term = _sym_mul(term, col)
        out = out + term
    return out


def morita_trace(d: Derivation) -> SymPoly:
    """Symmetrized sum of the diagonal of the full 2g x 2g norm_matrix."""
    full = norm_matrix(d)
    acc = tensor_zero(surface_alphabet(d.genus))
    for i in range(2 * d.genus):
        acc = acc + full[i][i]
    return symmetrize(acc)


def project_lie(v: LiePoly) -> LiePoly:
    """Induced Lie map of a_i -> 0, b_i -> b_i' on Lyndon coordinates."""
    g = v.alphabet.genus
    out = {}
    for w, c in v.terms.items():
        if all(x >= g for x in w):
            out[tuple(x - g for x in w)] = c
    return LiePoly(handlebody_alphabet(g), v.degree, out)
