"""Symplectic derivations of the free Lie algebra on surface homology, the
handlebody kernel subspace, trace maps, and integer bases.

A degree-k derivation is determined by its values on the homology letters:
2g Lie elements of degree k+1.  The pairing throughout is omega(a_i, b_j) =
+delta_ij; the duality H* = H it induces fixes every sign in this module.  A
derivation d is stored as its tensor form sum_i a_i (x) d(b_i) - b_i (x)
d(a_i) in H (x) L_{k+1}, whose values are d(y) = sum_j omega(x_j, y) l_j;
_dual holds that pairing.  SIGN_WEDGE is fixed by the anchor wedge
a1^b1^b2, whose Lagrangian trace is -x2; the tests pin both anchors.

_expanded expands the form, _split reads values off it and _tensor_form
builds it from Lyndon coordinates; no internal route builds a LiePoly.
"""

from __future__ import annotations

from functools import lru_cache

from .errors import (
    AmbientMismatch,
    BudgetExceeded,
    NotInG,
    NotInHandlebodyGroup,
    NotSymplectic,
    RouteMismatch,
)
from .freegroup import _check_genus
from .intkernel import integer_kernel_basis
from .tensorlie import (
    LiePoly,
    Sparse,
    SymPoly,
    _commutator_terms,
    _expand_bracketing,
    _join_terms,
    _merge,
    _peel,
    _substitute_terms,
    graded_bar,
    handlebody_alphabet,
    lyndon_words,
    render_bracketing,
    render_lie,
    render_sym,
    std_bracketing,
    surface_alphabet,
    symmetrize,
    witt_dimension,
)

#: global sign of the wedge embedding, fixed by the calibration anchors below
SIGN_WEDGE = -1


def _dual(x: int, genus: int) -> tuple[int, int]:
    """(y, sign) such that the tensor form pairs letter x with sign * d(y):
    a_i with d(b_i), b_i with -d(a_i)."""
    return (x + genus, 1) if x < genus else (x - genus, -1)


class Derivation(Sparse):
    """Degree-k derivation, stored as its tensor form sum_i a_i (x) d(b_i) -
    b_i (x) d(a_i) in H (x) L_{k+1}: (letter x, Lyndon word w of length k+1)
    -> coefficient, the pairs that _coordinate_order lists.  The public
    constructor takes the values on a_1..a_g, b_1..b_g.

    `_symplectic` holds derivation_is_symplectic's verdict once it has been
    read, None before: the form never changes, so neither does the verdict.
    It is not part of the value."""

    __slots__ = ("genus", "degree", "_symplectic")
    _SPACE = ("genus", "degree")
    _MISMATCH = "derivations of different genus or degree"

    def _fill(self, space: tuple, terms: dict) -> "Derivation":
        _SET_SYMPLECTIC(self, None)
        return super()._fill(space, terms)

    def __init__(self, genus: int, degree: int, values):
        values = tuple(values)
        if len(values) != 2 * genus:
            raise ValueError(f"need 2g = {2 * genus} values, got {len(values)}")
        alphabet = surface_alphabet(genus)
        for v in values:
            if not isinstance(v, LiePoly):
                raise TypeError("derivation values must be Lie elements")
            if v.alphabet != alphabet:
                raise AmbientMismatch("value over the wrong alphabet")
            if v.degree != degree + 1:
                raise ValueError(
                    f"degree-{degree} derivation takes values in degree {degree + 1}"
                )
        self._fill((genus, degree), _tensor_form([v.terms for v in values], genus))

    @property
    def values(self) -> tuple[LiePoly, ...]:
        """The values on a_1..a_g, b_1..b_g, zero values included."""
        form = {(x, *w): c for (x, w), c in self.terms.items()}
        space = (surface_alphabet(self.genus), self.degree + 1)
        return tuple(LiePoly._trusted(space, p) for p in _split(form, self.genus))

    def __repr__(self):
        alphabet = surface_alphabet(self.genus)
        body = ", ".join(
            f"{alphabet.letter_name(i)} -> {render_lie(v)}"
            for i, v in enumerate(self.values)
        )
        return f"Derivation({body})"


_SET_SYMPLECTIC = Derivation._symplectic.__set__


def _tensor_form(values, genus: int) -> dict:
    """The tensor form of the values on a_1..b_g, given in Lyndon coordinates."""
    duals = [_dual(x, genus) for x in range(2 * genus)]
    return {(x, w): sign * c for x, (y, sign) in enumerate(duals) for w, c in values[y].items()}


def _expanded(d: Derivation) -> dict:
    """The tensor form with each Lyndon word w expanded to P_w, keyed (x, *u)."""
    out: dict = {}
    for (x, w), c in d.terms.items():
        for u, k in _expand_bracketing(std_bracketing(w)).items():
            _merge(out, (x, *u), c * k)
    return out


def _split(form: dict, genus: int) -> list[dict]:
    """The values on a_1..b_g of a form keyed (x, *u), read through _dual."""
    parts: list[dict] = [{} for _ in range(2 * genus)]
    for key, c in form.items():
        y, sign = _dual(key[0], genus)
        parts[y][key[1:]] = sign * c
    return parts


def _value_terms(d: Derivation) -> list[dict]:
    """Tensor expansions of the values on a_1..b_g, as word -> coefficient dicts."""
    return _split(_expanded(d), d.genus)


def derivation_is_symplectic(d: Derivation) -> bool:
    """Kernel test for the bracket map H (x) L_{k+1} -> L_{k+2}: sum [x_j, l_j]
    = sum (x_j l_j - l_j x_j) vanishes iff the expanded form is unchanged when
    each word's first letter moves to its end.  The verdict is kept on d, so
    the form is expanded for it once per derivation object."""
    verdict = d._symplectic
    if verdict is None:
        form = _expanded(d)
        verdict = form == {key[1:] + key[:1]: c for key, c in form.items()}
        _SET_SYMPLECTIC(d, verdict)
    return verdict


def _project(terms: dict, genus: int) -> dict:
    """The map a_i -> 0, b_i -> b_i' on a word -> coefficient dict over H:
    drop the words with an a-letter, shift the rest to H'.  The relabeling
    keeps the order of letters, so it keeps Lyndon words Lyndon and commutes
    with standard bracketing: it projects Lyndon coordinates and tensor
    words alike."""
    return {
        tuple(x - genus for x in w): c for w, c in terms.items() if all(x >= genus for x in w)
    }


def is_in_G(d: Derivation) -> bool:
    """Kernel of D_k(H) -> D_k(H').

    Projecting both tensor factors kills the a (x) ... terms outright, so the
    condition reduces to no b-letter being paired with a Lyndon word in
    b-letters only.
    """
    if not derivation_is_symplectic(d):
        raise NotSymplectic("derivation is not in D_k(H)")
    return not any(x >= d.genus and min(w) >= d.genus for x, w in d.terms)


# ---------------------------------------------------------------------------
# wedges


class WedgeTriple(Sparse):
    """Integer combination of e_i ^ e_j ^ e_l with strictly increasing triples."""

    __slots__ = ("genus",)
    _SPACE = ("genus",)
    _MISMATCH = "wedges over different genera"

    def __init__(self, genus: int, terms=None):
        self._init((genus,), terms)

    def _key(self, key):
        i, j, l = key
        if not 0 <= i < j < l < 2 * self.genus:
            raise ValueError(f"wedge indices {key} must be strictly increasing")
        return (i, j, l)

    def __repr__(self):
        name = surface_alphabet(self.genus).letter_name
        return f"WedgeTriple({_join_terms(self.terms, lambda key: '^'.join(map(name, key)))})"


def wedge_to_derivation(w: WedgeTriple) -> Derivation:
    """Linear extension of e_i^e_j^e_l -> SIGN_WEDGE * (e_i(x)[e_j,e_l] +
    e_j(x)[e_l,e_i] + e_l(x)[e_i,e_j]) as a tensor form; for i < j < l the
    Lyndon words are (j, l), (i, l) with [e_l,e_i] = -[e_i,e_l], and (i, j)."""
    terms: dict = {}
    for (i, j, l), c in w.terms.items():
        c *= SIGN_WEDGE
        for key, s in (((i, (j, l)), c), ((j, (i, l)), -c), ((l, (i, j)), c)):
            _merge(terms, key, s)
    return Derivation._trusted((w.genus, 1), terms)


def wedge_from_derivation(d: Derivation) -> WedgeTriple:
    """Inverse of wedge_to_derivation on its image (degree 1 only).

    In the tensor form of the image of e_i^e_j^e_l (i < j < l), the letter
    e_i is paired with SIGN_WEDGE * [e_j, e_l], and no other wedge puts the
    Lyndon word (j, l) next to i.  So each coordinate is read off directly;
    the round trip through wedge_to_derivation certifies the result and
    raises ValueError when d is outside the image of the wedge embedding.
    """
    if d.degree != 1:
        raise ValueError("wedge coordinates exist in degree 1 only")
    terms = {(i, *w): SIGN_WEDGE * c for (i, w), c in d.terms.items() if i < w[0]}
    w = WedgeTriple(d.genus, terms)
    if wedge_to_derivation(w) != d:
        raise ValueError("derivation is not in the image of the wedge embedding")
    return w


def contraction_C(w: WedgeTriple) -> tuple[int, ...]:
    """a^b^c -> omega(a,b)c + omega(b,c)a + omega(c,a)b, as an H-vector;
    omega(x, y) is the sign _dual gives x when y is its dual, else 0."""
    out = [0] * (2 * w.genus)
    for (i, j, l), c in w.terms.items():
        for x, y, z in ((i, j, l), (j, l, i), (l, i, j)):
            dual, sign = _dual(x, w.genus)
            if y == dual:
                out[z] += c * sign
    return tuple(out)


# ---------------------------------------------------------------------------
# traces


def _handlebody_values(d: Derivation) -> list[dict]:
    """Expansions of d(b_1)..d(b_g) projected to H', as word -> coefficient
    dicts; raises NotInG for d outside G."""
    if not is_in_G(d):
        raise NotInG("derivation does not vanish under the handlebody projection")
    return [_project(terms, d.genus) for terms in _value_terms(d)[d.genus :]]


def morita_trace(d: Derivation) -> SymPoly:
    """Symmetrized trace of the norm matrix, a polynomial over H.

    Diagonal entry i is read straight off the expansion of d(gamma_i): its
    words that end in letter i, with that letter dropped.
    """
    if not derivation_is_symplectic(d):
        raise NotSymplectic("Morita trace is defined on D_k(H)")
    acc: dict = {}
    for i, terms in enumerate(_value_terms(d)):
        for w, c in terms.items():
            if w[-1] == i:
                _merge(acc, w[:-1], c)
    return symmetrize(acc, surface_alphabet(d.genus))


def lagrangian_trace(d: Derivation) -> SymPoly:
    """Trace through the Lagrangian: a degree-k polynomial over H'.

    Both routes read the Lie factor of the tensor form projected to H': the
    expansions of d(b_i), paired with a_i (the b (x) ... terms die for d in
    the kernel).  They are cross-checked:

    (i)  contraction: pair a_i against the leading letter with
         omega'(a_i, b_j') = delta_ij, that is, keep the words that start
         with letter i, drop that letter, symmetrize;
    (ii) matrix trace: the words that end in letter i with that letter
         dropped, under the graded bar, symmetrized.  The bar is forced:
         degree-(k+1) Lie expansions are (-1)^k-eigenvectors of word
         reversal, so the trailing-letter matrix only matches the
         leading-letter contraction after that twist.
    """
    leading: dict = {}
    trailing: dict = {}
    for i, terms in enumerate(_handlebody_values(d)):
        for w, c in terms.items():
            if w[0] == i:
                _merge(leading, w[1:], c)
            if w[-1] == i:
                _merge(trailing, w[:-1], c)
    alphabet = handlebody_alphabet(d.genus)
    first = symmetrize(leading, alphabet)
    second = symmetrize(graded_bar(trailing), alphabet)
    if first != second:
        raise RouteMismatch(
            f"contraction gave {render_sym(first)}, matrix trace gave {render_sym(second)}"
        )
    return first


# ---------------------------------------------------------------------------
# bracket of derivations


def _leibniz(images: list[dict], terms: dict) -> dict:
    """The derivation of the tensor algebra with letter values `images`
    (word -> coefficient dicts) applied to `terms`: in each word, one letter
    at a time is replaced by its value."""
    out: dict = {}
    for w, c in terms.items():
        for i, x in enumerate(w):
            head, tail = w[:i], w[i + 1 :]
            for u, a in images[x].items():
                _merge(out, head + u + tail, c * a)
    return out


def derivation_bracket(d: Derivation, e: Derivation) -> Derivation:
    """[d, e](x) = d(e(x)) - e(d(x)) through the Leibniz extensions.

    A derivation of the free Lie algebra extends uniquely to one of the
    tensor algebra, compatibly with the inclusion, so both extensions run on
    tensor words and the Lyndon peel reads (and certifies) each value.
    """
    if d.genus != e.genus:
        raise ValueError("derivations over different genera")
    dv = _value_terms(d)
    ev = _value_terms(e)
    values = []
    for x in range(2 * d.genus):
        terms = _leibniz(dv, ev[x])
        for w, c in _leibniz(ev, dv[x]).items():
            _merge(terms, w, -c)
        values.append(_peel(terms))
    return Derivation._trusted((d.genus, d.degree + e.degree), _tensor_form(values, d.genus))


# ---------------------------------------------------------------------------
# bases


@lru_cache(maxsize=None)
def _coordinate_order(genus: int, k: int) -> tuple[tuple[int, tuple[int, ...]], ...]:
    """Fixed ordering of (letter, Lyndon word) coordinates of H (x) L_{k+1}."""
    words = lyndon_words(2 * genus, k + 1)
    return tuple((x, w) for x in range(2 * genus) for w in words)


@lru_cache(maxsize=None)
def _coordinate_index(genus: int, k: int) -> dict[tuple[int, tuple[int, ...]], int]:
    """Position of each coordinate in _coordinate_order; read-only."""
    return {pair: idx for idx, pair in enumerate(_coordinate_order(genus, k))}


def derivation_coordinates(d: Derivation) -> list[int]:
    """Coordinates of the tensor form in the _coordinate_order basis."""
    index = _coordinate_index(d.genus, d.degree)
    out = [0] * len(index)
    for key, c in d.terms.items():
        out[index[key]] = c
    return out


def coordinate_labels(genus: int, k: int) -> list[dict]:
    alphabet = surface_alphabet(genus)
    return [
        {
            "letter": alphabet.letter_name(x),
            "bracket": render_bracketing(std_bracketing(w), alphabet),
        }
        for x, w in _coordinate_order(genus, k)
    ]


def _kernel_columns(genus: int, k: int, project: bool):
    """Sparse columns, one per coordinate of _coordinate_order, of the bracket
    map H (x) L_{k+1} -> L_{k+2}.  With project, the rows of the projection
    H (x) L_{k+1}(H) -> H' (x) L_{k+1}(H') follow the bracket rows.
    Returns (columns, nrows).

    The column of (x, w) is read off the cached expansion P_w of w's standard
    bracketing: the coefficients of x P_w - P_w x at the Lyndon words of
    length k+2, one row each, with no Lyndon peel.  Against A, the matrix of
    Lyndon coordinates, this matrix is T A, where T[u][v] is the coefficient
    of the word u in P_v.  P_v is v plus lexicographically larger words, with
    leading coefficient 1 (Reutenauer, Free Lie Algebras, Thm 5.1 and 5.3),
    so T is lower unitriangular, and integer_kernel_basis returns the same
    basis on T A as on A:
    - lyndon_words is in lexicographic order;
    - integer_kernel_basis takes rows in index order;
    - when it reaches row u, every live column is zero on the rows before u;
    - so row u of T A equals row u of A on the live columns, and every pivot,
      every Bezout step and U come out the same.
    The projection rows are the same in both.
    """
    target = {w: r for r, w in enumerate(lyndon_words(2 * genus, k + 2))}
    below = {}  # (letter, Lyndon word) of H' (x) L_{k+1}(H') -> row
    if project:
        for x in range(genus):
            for w in lyndon_words(genus, k + 1):
                below[(x, w)] = len(target) + len(below)
    columns = []
    for x, w in _coordinate_order(genus, k):
        bracket = _commutator_terms({(x,): 1}, _expand_bracketing(std_bracketing(w)))
        column = {target[u]: c for u, c in bracket.items() if u in target}
        if project and x >= genus and all(y >= genus for y in w):
            column[below[(x - genus, tuple(y - genus for y in w))]] = 1
        columns.append(column)
    return columns, len(target) + len(below)


def _vectors_to_derivations(vectors, genus: int, k: int) -> list[Derivation]:
    space = (genus, k)  # one tuple, shared by every derivation
    order = _coordinate_order(genus, k)
    return [Derivation._trusted(space, {order[j]: c for j, c in vec.items()}) for vec in vectors]


#: Largest bracket matrix basis_D and basis_G build, in cells: L_{k+2}(2g)
#: rows by 2g * L_{k+1}(2g) columns, known from the Witt numbers before any
#: column exists.  The columns are sparse, so this bounds the kernel's work
#: rather than memory.  On a 2-core machine G 4 3 (52.8M cells) takes 0.7 s
#: and 27 MiB max RSS, G 3 4 (72.1M) 1.2 s and 36 MiB; G 5 3 (495M) and
#: G 4 4 (2.29G) are refused.
BASIS_CELL_BUDGET = 80_000_000


def _check_basis_budget(genus: int, k: int) -> None:
    """Raise BudgetExceeded, before any column is built, when the bracket
    matrix of degree k at this genus has more than BASIS_CELL_BUDGET cells."""
    _check_genus(genus)
    if k < 0:
        raise ValueError(f"derivation degree must be nonnegative, got {k}")
    n = 2 * genus
    # m W(n, m) >= n^m - (4/3) n^(m/2) >= n^m / 2 for n >= 4, m >= 2, so there
    # are at least n W(n, k+2) >= n^(k+3) / (2k+4) cells: a k past the budget
    # by that bound's bit lengths is refused before any power of n is built
    bits = (k + 3) * (n.bit_length() - 1) - (2 * k + 4).bit_length()
    if bits >= BASIS_CELL_BUDGET.bit_length():
        raise BudgetExceeded(
            f"basis at genus {genus}, degree {k} needs a bracket matrix of more than"
            f" 2^{bits:,} cells (budget {BASIS_CELL_BUDGET:,})"
        )
    cells = witt_dimension(n, k + 2) * n * witt_dimension(n, k + 1)
    if cells > BASIS_CELL_BUDGET:
        raise BudgetExceeded(
            f"basis at genus {genus}, degree {k} needs a {cells:,}-cell bracket matrix"
            f" (budget {BASIS_CELL_BUDGET:,})"
        )


def basis_D(genus: int, k: int) -> list[Derivation]:
    """Integer basis of D_k(H): kernel of the bracket map."""
    return _kernel_basis(genus, k, False)


def basis_G(genus: int, k: int) -> list[Derivation]:
    """Integer basis of the kernel of D_k(H) -> D_k(H')."""
    return _kernel_basis(genus, k, True)


def _kernel_basis(genus: int, k: int, project: bool) -> list[Derivation]:
    _check_basis_budget(genus, k)
    columns, nrows = _kernel_columns(genus, k, project)
    vectors = integer_kernel_basis(columns, nrows)
    basis = _vectors_to_derivations(vectors, genus, k)
    for d in basis:
        if project and not is_in_G(d):
            raise NotInG(f"kernel vector {d!r} does not vanish under the projection")
        if not project and not derivation_is_symplectic(d):
            raise NotSymplectic(f"kernel vector {d!r} is not symplectic")
    return basis


# ---------------------------------------------------------------------------
# symplectic group action


def _fixes_form(M, genus: int) -> bool:
    """Whether the square integer matrix M preserves the pairing: M, put into
    both letters of the bivector sum_x x (x) sign x* that _dual encodes, must
    give it back.  That bivector is J, so the test reads M J M^T = J.  It is
    the same as M^T J M = J: det(M)^2 = det(J) = 1 makes M invertible, and
    inverting both sides gives M^-T J^-1 M^-1 = J^-1, that is, with J^-1 =
    -J, M^T J M = J."""
    form = {(x, _dual(x, genus)[0]): _dual(x, genus)[1] for x in range(2 * genus)}
    return _substitute_terms(form, M, 2 * genus) == form


def act_on_derivation(M, d: Derivation) -> Derivation:
    """(M . d)(y) = M(d(M^-1 y)) for a symplectic integer matrix M.

    The tensor form reads d(y) = sum omega(x, y) l over its terms x (x) l,
    and omega(M x, y) = omega(x, M^-1 y) for symplectic M, so M . d has the
    tensor form of d with M put into every letter (the identification of
    H (x) L_{k+1} with Hom(H, L_{k+1}) through omega is Sp-equivariant).
    A linear substitution of a Lie element is Lie; the Lyndon peel finds
    the coordinates of each value and raises NotLieElement if it were not.
    """
    g = d.genus
    if not _fixes_form(M, g):
        raise NotSymplectic("action requires a symplectic matrix")
    parts = _split(_substitute_terms(_expanded(d), M, 2 * g), g)
    return Derivation._trusted((g, d.degree), _tensor_form([_peel(p) for p in parts], g))


def induced_handlebody_matrix(M, genus: int):
    """g x g action on H' induced by a symplectic action that keeps the
    Lagrangian span(a_1..a_g), the kernel of H -> H'; raises
    NotInHandlebodyGroup when some a_j has a b-component in its image."""
    if any(M[genus + i][j] for i in range(genus) for j in range(genus)):
        raise NotInHandlebodyGroup("action does not keep the Lagrangian span(a_1..a_g)")
    return tuple(
        tuple(M[genus + i][genus + j] for j in range(genus)) for i in range(genus)
    )


def act_on_trace(M, s: SymPoly, genus: int) -> SymPoly:
    """Push a polynomial over H' through the induced handlebody action: each
    monomial as its sorted word, substituted letter by letter, symmetrized."""
    words = {tuple(i for i, p in enumerate(e) for _ in range(p)): c for e, c in s.terms.items()}
    terms = _substitute_terms(words, induced_handlebody_matrix(M, genus), s.alphabet.size)
    return symmetrize(terms, s.alphabet)
