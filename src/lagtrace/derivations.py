"""Symplectic derivations of the free Lie algebra on surface homology, the
handlebody kernel subspace, trace maps, and integer bases.

A degree-k derivation is determined by its values on the homology letters:
2g Lie elements of degree k+1.  The pairing throughout is omega(a_i, b_j) =
+delta_ij; the duality H* = H it induces fixes every sign in this module, and
calibration_report() spells the resulting conventions out together with the
two anchor values that pin them.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .errors import (
    AmbientMismatch,
    NotInG,
    NotSymplectic,
    RouteMismatch,
)
from .freegroup import symplectic_form_matrix
from .intkernel import integer_kernel_basis
from .tensorlie import (
    Alphabet,
    LiePoly,
    SymPoly,
    TensorPoly,
    _commutator_terms,
    _lie_terms,
    _merge,
    _peel,
    _substitute_terms,
    first_letter_decompose,
    graded_bar,
    handlebody_alphabet,
    last_letter_decompose,
    lie_bracket,
    lie_to_tensor,
    lie_zero,
    lyndon_words,
    std_bracketing,
    surface_alphabet,
    symmetrize,
    tensor_zero,
)

#: global sign of the wedge embedding, fixed by the calibration anchors below
SIGN_WEDGE = -1


def omega(i: int, j: int, genus: int) -> int:
    """omega(a_i, b_i) = 1, omega(b_i, a_i) = -1, zero otherwise (0-based letters)."""
    if j == i + genus:
        return 1
    if i == j + genus:
        return -1
    return 0


class Derivation:
    """Degree-k derivation, stored as its values on a_1..a_g, b_1..b_g."""

    __slots__ = ("genus", "degree", "values")

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
        object.__setattr__(self, "genus", genus)
        object.__setattr__(self, "degree", degree)
        object.__setattr__(self, "values", values)

    def __setattr__(self, name, value):
        raise AttributeError("Derivation is immutable")

    def value(self, letter: int) -> LiePoly:
        return self.values[letter]

    def is_zero(self) -> bool:
        return all(v.is_zero() for v in self.values)

    def __eq__(self, other):
        return (
            isinstance(other, Derivation)
            and self.genus == other.genus
            and self.degree == other.degree
            and self.values == other.values
        )

    def __hash__(self):
        return hash((self.genus, self.degree, self.values))

    def _check(self, other: "Derivation"):
        if self.genus != other.genus or self.degree != other.degree:
            raise ValueError("derivations of different genus or degree")

    def __add__(self, other: "Derivation") -> "Derivation":
        self._check(other)
        return Derivation(
            self.genus, self.degree, [u + v for u, v in zip(self.values, other.values)]
        )

    def __sub__(self, other: "Derivation") -> "Derivation":
        self._check(other)
        return Derivation(
            self.genus, self.degree, [u - v for u, v in zip(self.values, other.values)]
        )

    def __neg__(self) -> "Derivation":
        return self.scale(-1)

    def scale(self, k: int) -> "Derivation":
        return Derivation(self.genus, self.degree, [v.scale(k) for v in self.values])

    def __repr__(self):
        from .tensorlie import render_lie

        alphabet = surface_alphabet(self.genus)
        body = ", ".join(
            f"{alphabet.letter_name(i)} -> {render_lie(v)}"
            for i, v in enumerate(self.values)
        )
        return f"Derivation({body})"


def zero_derivation(genus: int, degree: int) -> Derivation:
    alphabet = surface_alphabet(genus)
    return Derivation(genus, degree, [lie_zero(alphabet, degree + 1)] * (2 * genus))


class TensorForm:
    """Element of H (x) L_{k+1}(H), normalized as letter -> Lie value."""

    __slots__ = ("genus", "lie_degree", "pairs")

    def __init__(self, genus: int, lie_degree: int, pairs=None):
        alphabet = surface_alphabet(genus)
        clean = {}
        for x, v in (pairs or {}).items():
            if not 0 <= x < 2 * genus:
                raise ValueError(f"letter {x} out of range")
            if v.alphabet != alphabet or v.degree != lie_degree:
                raise ValueError("Lie value has wrong alphabet or degree")
            if not v.is_zero():
                clean[x] = v
        object.__setattr__(self, "genus", genus)
        object.__setattr__(self, "lie_degree", lie_degree)
        object.__setattr__(self, "pairs", clean)

    def __setattr__(self, name, value):
        raise AttributeError("TensorForm is immutable")

    def __eq__(self, other):
        return (
            isinstance(other, TensorForm)
            and self.genus == other.genus
            and self.lie_degree == other.lie_degree
            and self.pairs == other.pairs
        )

    def __hash__(self):
        return hash((self.genus, self.lie_degree, frozenset(self.pairs.items())))

    def is_zero(self) -> bool:
        return not self.pairs

    def to_tensor_poly(self) -> TensorPoly:
        """Expand into T_{k+2}(H): sum of x (x) expansion(value)."""
        alphabet = surface_alphabet(self.genus)
        out = tensor_zero(alphabet)
        for x, v in self.pairs.items():
            out = out + TensorPoly(alphabet, {(x,): 1}).concat(lie_to_tensor(v))
        return out


def tensor_from_derivation(d: Derivation) -> TensorForm:
    """sum_i a_i (x) d(b_i)  -  b_i (x) d(a_i)."""
    g = d.genus
    pairs = {}
    for i in range(g):
        pairs[i] = d.values[g + i]
        pairs[g + i] = -d.values[i]
    return TensorForm(g, d.degree + 1, pairs)


def derivation_from_tensor(t: TensorForm) -> Derivation:
    """d(y) = sum omega(x_j, y) l_j; inverse of tensor_from_derivation."""
    g = t.genus
    alphabet = surface_alphabet(g)
    zero = lie_zero(alphabet, t.lie_degree)
    values = []
    for y in range(2 * g):
        acc = zero
        for x, v in t.pairs.items():
            c = omega(x, y, g)
            if c:
                acc = acc + v.scale(c)
        values.append(acc)
    return Derivation(g, t.lie_degree - 1, values)


def is_symplectic(t: TensorForm) -> bool:
    """Kernel test for the bracket map H (x) L_{k+1} -> L_{k+2}.

    sum [x_j, l_j] vanishes in the free Lie ring iff its tensor expansion
    vanishes, which avoids Lyndon work one degree up.
    """
    acc: dict = {}
    for x, v in t.pairs.items():
        for w, c in _commutator_terms({(x,): 1}, _lie_terms(v)).items():
            _merge(acc, w, c)
    return not acc


def derivation_is_symplectic(d: Derivation) -> bool:
    return is_symplectic(tensor_from_derivation(d))


def project_lie(v: LiePoly) -> LiePoly:
    """Induced Lie map of a_i -> 0, b_i -> b_i': kill words with an a-letter,
    shift the rest.  Order-preserving relabeling keeps Lyndon words Lyndon and
    commutes with standard bracketing."""
    if v.alphabet.space != "H":
        raise AmbientMismatch("projection starts from the surface alphabet")
    g = v.alphabet.genus
    out = {}
    for w, c in v.coords.items():
        if all(x >= g for x in w):
            out[tuple(x - g for x in w)] = c
    return LiePoly(handlebody_alphabet(g), v.degree, out)


def project_tensor(t: TensorPoly) -> TensorPoly:
    """Same projection on tensor words."""
    if t.alphabet.space != "H":
        raise AmbientMismatch("projection starts from the surface alphabet")
    g = t.alphabet.genus
    out = {}
    for w, c in t.terms.items():
        if all(x >= g for x in w):
            out[tuple(x - g for x in w)] = c
    return TensorPoly(handlebody_alphabet(g), out)


def is_in_G(d: Derivation) -> bool:
    """Kernel of D_k(H) -> D_k(H').

    Projecting both tensor factors kills the a (x) ... terms outright, so the
    condition reduces to project_lie(d(a_i)) = 0 for every meridian letter.
    """
    if not derivation_is_symplectic(d):
        raise NotSymplectic("derivation is not in D_k(H)")
    return all(project_lie(d.values[i]).is_zero() for i in range(d.genus))


# ---------------------------------------------------------------------------
# wedges


class WedgeTriple:
    """Integer combination of e_i ^ e_j ^ e_l with strictly increasing triples."""

    __slots__ = ("genus", "terms")

    def __init__(self, genus: int, terms=None):
        clean = {}
        for key, c in (terms or {}).items():
            i, j, l = key
            if not 0 <= i < j < l < 2 * genus:
                raise ValueError(f"wedge indices {key} must be strictly increasing")
            if c:
                clean[(i, j, l)] = clean.get((i, j, l), 0) + c
                if not clean[(i, j, l)]:
                    del clean[(i, j, l)]
        object.__setattr__(self, "genus", genus)
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, name, value):
        raise AttributeError("WedgeTriple is immutable")

    def __eq__(self, other):
        return (
            isinstance(other, WedgeTriple)
            and self.genus == other.genus
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.genus, frozenset(self.terms.items())))

    def is_zero(self) -> bool:
        return not self.terms

    def __repr__(self):
        alphabet = surface_alphabet(self.genus)
        bits = []
        for key in sorted(self.terms):
            c = self.terms[key]
            body = "^".join(alphabet.letter_name(x) for x in key)
            bits.append(f"{'+' if c > 0 else '-'}{abs(c) if abs(c) != 1 else ''}{body}")
        return f"WedgeTriple({' '.join(bits) or '0'})"


def wedge_basis(genus: int) -> list[tuple[int, int, int]]:
    return list(combinations(range(2 * genus), 3))


def wedge_to_derivation(w: WedgeTriple) -> Derivation:
    """Linear extension of e_i^e_j^e_l -> SIGN_WEDGE * (e_i(x)[e_j,e_l] +
    e_j(x)[e_l,e_i] + e_l(x)[e_i,e_j]) read through the duality."""
    g = w.genus
    alphabet = surface_alphabet(g)
    acc: dict = {}
    for (i, j, l), c in w.terms.items():
        for x, (p, q) in ((i, (j, l)), (j, (l, i)), (l, (i, j))):
            br = lie_bracket(
                LiePoly(alphabet, 1, {(p,): 1}), LiePoly(alphabet, 1, {(q,): 1})
            ).scale(SIGN_WEDGE * c)
            acc[x] = acc.get(x, lie_zero(alphabet, 2)) + br
    return derivation_from_tensor(TensorForm(g, 2, acc))


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
    g = d.genus
    pairs = tensor_from_derivation(d).pairs
    terms = {}
    for i, v in pairs.items():
        for (j, l), c in v.coords.items():
            if i < j:
                terms[(i, j, l)] = SIGN_WEDGE * c
    w = WedgeTriple(g, terms)
    if wedge_to_derivation(w) != d:
        raise ValueError("derivation is not in the image of the wedge embedding")
    return w


def contraction_C(w: WedgeTriple) -> tuple[int, ...]:
    """a^b^c -> omega(a,b)c + omega(b,c)a + omega(c,a)b, as an H-vector."""
    g = w.genus
    out = [0] * (2 * g)
    for (i, j, l), c in w.terms.items():
        out[l] += c * omega(i, j, g)
        out[i] += c * omega(j, l, g)
        out[j] += c * omega(l, i, g)
    return tuple(out)


# ---------------------------------------------------------------------------
# norm matrices and traces


def norm_matrix(d: Derivation):
    """2g x 2g matrix of degree-k tensors: entry (i,j) is the coefficient of
    trailing letter i in the expansion of d(gamma_j)."""
    g = d.genus
    alphabet = surface_alphabet(g)
    zero = tensor_zero(alphabet)
    cols = []
    for j in range(2 * g):
        v = d.values[j]
        dec = last_letter_decompose(lie_to_tensor(v)) if not v.is_zero() else {}
        cols.append([dec.get(i, zero) for i in range(2 * g)])
    return tuple(tuple(cols[j][i] for j in range(2 * g)) for i in range(2 * g))


def norm_matrix_A(d: Derivation):
    """g x g right-down block of norm_matrix with entries projected to H'."""
    if not is_in_G(d):
        raise NotInG("derivation does not vanish under the handlebody projection")
    g = d.genus
    full = norm_matrix(d)
    return tuple(
        tuple(project_tensor(full[g + i][g + j]) for j in range(g)) for i in range(g)
    )


def morita_trace(d: Derivation) -> SymPoly:
    """Symmetrized trace of the norm matrix, a polynomial over H."""
    if not derivation_is_symplectic(d):
        raise NotSymplectic("Morita trace is defined on D_k(H)")
    full = norm_matrix(d)
    alphabet = surface_alphabet(d.genus)
    acc = tensor_zero(alphabet)
    for i in range(2 * d.genus):
        acc = acc + full[i][i]
    return symmetrize(acc)


def lagrangian_trace(d: Derivation) -> SymPoly:
    """Trace through the Lagrangian: a degree-k polynomial over H'.

    Computed by two independent routes and cross-checked:

    (i)  contraction: project the Lie factor of the tensor form to H' (the
         b (x) ... terms die for d in the kernel), pair the a_i against the
         leading letter with omega'(a_i, b_j') = delta_ij, symmetrize;
    (ii) matrix trace: trace of norm_matrix_A with the graded bar applied,
         symmetrized.  The bar is forced: degree-(k+1) Lie expansions are
         (-1)^k-eigenvectors of word reversal, so the trailing-letter matrix
         only matches the leading-letter contraction after that twist.
    """
    if not is_in_G(d):
        raise NotInG("Lagrangian trace is defined on the kernel subspace")
    g = d.genus
    alphabet = handlebody_alphabet(g)

    route_i = tensor_zero(alphabet)
    for i in range(g):
        projected = project_tensor(lie_to_tensor(d.values[g + i]))
        if projected.is_zero():
            continue
        part = first_letter_decompose(projected).get(i)
        if part is not None:
            route_i = route_i + part
    first = symmetrize(route_i)

    block = norm_matrix_A(d)
    route_ii = tensor_zero(alphabet)
    for i in range(g):
        route_ii = route_ii + graded_bar(block[i][i])
    second = symmetrize(route_ii)

    if first != second:
        from .tensorlie import render_sym

        raise RouteMismatch(
            f"contraction gave {render_sym(first)}, matrix trace gave {render_sym(second)}"
        )
    return first


# ---------------------------------------------------------------------------
# bracket of derivations


def _apply_extended(d: Derivation, v: LiePoly) -> LiePoly:
    """Leibniz extension of d to the free Lie ring, evaluated on v."""
    alphabet = surface_alphabet(d.genus)
    out = lie_zero(alphabet, v.degree + d.degree)
    for w, c in v.coords.items():
        out = out + _apply_bracketing(d, std_bracketing(w), alphabet).scale(c)
    return out


def _apply_bracketing(d: Derivation, expr, alphabet: Alphabet) -> LiePoly:
    if isinstance(expr, int):
        return d.values[expr]
    left, right = expr
    lv = _expr_lie(left, alphabet)
    rv = _expr_lie(right, alphabet)
    return lie_bracket(_apply_bracketing(d, left, alphabet), rv) + lie_bracket(
        lv, _apply_bracketing(d, right, alphabet)
    )


def _expr_lie(expr, alphabet: Alphabet) -> LiePoly:
    if isinstance(expr, int):
        return LiePoly(alphabet, 1, {(expr,): 1})
    return lie_bracket(_expr_lie(expr[0], alphabet), _expr_lie(expr[1], alphabet))


def derivation_bracket(d: Derivation, e: Derivation) -> Derivation:
    """[d, e](x) = d(e(x)) - e(d(x)) through the Leibniz extensions."""
    if d.genus != e.genus:
        raise ValueError("derivations over different genera")
    values = [
        _apply_extended(d, e.values[x]) - _apply_extended(e, d.values[x])
        for x in range(2 * d.genus)
    ]
    return Derivation(d.genus, d.degree + e.degree, values)


# ---------------------------------------------------------------------------
# bases


def _coordinate_order(genus: int, k: int) -> list[tuple[int, tuple[int, ...]]]:
    """Fixed ordering of (letter, Lyndon word) coordinates of H (x) L_{k+1}."""
    words = lyndon_words(2 * genus, k + 1)
    return [(x, w) for x in range(2 * genus) for w in words]


def _derivation_coordinate_items(d: Derivation):
    t = tensor_from_derivation(d)
    for x, v in t.pairs.items():
        for w, c in v.coords.items():
            yield (x, w), c


def derivation_coordinates(d: Derivation) -> list[int]:
    """Coordinates of the tensor form in the _coordinate_order basis."""
    order = {pair: idx for idx, pair in enumerate(_coordinate_order(d.genus, d.degree))}
    out = [0] * len(order)
    for pair, c in _derivation_coordinate_items(d):
        out[order[pair]] = c
    return out


def coordinate_labels(genus: int, k: int) -> list[dict]:
    from .tensorlie import render_bracketing

    alphabet = surface_alphabet(genus)
    return [
        {
            "letter": alphabet.letter_name(x),
            "bracket": render_bracketing(std_bracketing(w), alphabet),
        }
        for x, w in _coordinate_order(genus, k)
    ]


def _bracket_rows(genus: int, k: int):
    """Matrix of the bracket map H (x) L_{k+1} -> L_{k+2} over the coordinate order."""
    alphabet = surface_alphabet(genus)
    order = _coordinate_order(genus, k)
    target = {w: r for r, w in enumerate(lyndon_words(2 * genus, k + 2))}
    rows = [[0] * len(order) for _ in target]
    for cidx, (x, w) in enumerate(order):
        br = lie_bracket(
            LiePoly(alphabet, 1, {(x,): 1}), LiePoly(alphabet, k + 1, {w: 1})
        )
        for word, c in br.coords.items():
            rows[target[word]][cidx] = c
    return rows, order


def _projection_rows(genus: int, k: int, order):
    """Rows of the projection H (x) L_{k+1}(H) -> H' (x) L_{k+1}(H')."""
    target = {}
    for x in range(genus):
        for w in lyndon_words(genus, k + 1):
            target[(x, w)] = len(target)
    rows = [[0] * len(order) for _ in target]
    for cidx, (x, w) in enumerate(order):
        if x >= genus and all(y >= genus for y in w):
            key = (x - genus, tuple(y - genus for y in w))
            rows[target[key]][cidx] = 1
    return rows


def _vectors_to_derivations(vectors, genus: int, k: int, order) -> list[Derivation]:
    alphabet = surface_alphabet(genus)
    out = []
    for vec in vectors:
        pairs: dict = {}
        for coeff, (x, w) in zip(vec, order):
            if coeff:
                pairs.setdefault(x, {})[w] = coeff
        form = TensorForm(
            genus,
            k + 1,
            {x: LiePoly(alphabet, k + 1, coords) for x, coords in pairs.items()},
        )
        out.append(derivation_from_tensor(form))
    return out


def basis_D(genus: int, k: int) -> list[Derivation]:
    """Integer basis of D_k(H): kernel of the bracket map."""
    rows, order = _bracket_rows(genus, k)
    vectors = integer_kernel_basis(rows, len(order))
    basis = _vectors_to_derivations(vectors, genus, k, order)
    for d in basis:
        if not derivation_is_symplectic(d):
            raise NotSymplectic(f"kernel vector {d!r} is not symplectic")
    return basis


def basis_G(genus: int, k: int) -> list[Derivation]:
    """Integer basis of the kernel of D_k(H) -> D_k(H')."""
    rows, order = _bracket_rows(genus, k)
    rows = rows + _projection_rows(genus, k, order)
    vectors = integer_kernel_basis(rows, len(order))
    basis = _vectors_to_derivations(vectors, genus, k, order)
    for d in basis:
        if not is_in_G(d):
            raise NotInG(f"kernel vector {d!r} does not vanish under the projection")
    return basis


# ---------------------------------------------------------------------------
# symplectic group action


def _matrix_inverse_symplectic(M, genus: int):
    """M^-1 = J^-1 M^T J for symplectic M (exact integers)."""
    n = 2 * genus
    J = symplectic_form_matrix(genus)
    Jinv = tuple(tuple(-J[i][j] for j in range(n)) for i in range(n))
    MT = tuple(tuple(M[j][i] for j in range(n)) for i in range(n))

    def mul(A, B):
        return tuple(
            tuple(sum(A[i][k] * B[k][j] for k in range(n)) for j in range(n))
            for i in range(n)
        )

    return mul(mul(Jinv, MT), J)


def transform_lie(v: LiePoly, M) -> LiePoly:
    """Push a Lie element through the linear map M.

    A linear substitution of a Lie element is Lie; the Lyndon peel finds its
    coordinates and raises NotLieElement if it were not.
    """
    terms = _substitute_terms(_lie_terms(v), M, v.alphabet.size)
    return _peel(v.alphabet, terms, v.degree)


def act_on_derivation(M, d: Derivation) -> Derivation:
    """(M . d)(y) = M(d(M^-1 y)) for a symplectic integer matrix M."""
    from .freegroup import preserves_symplectic_form

    g = d.genus
    if not preserves_symplectic_form(M, g):
        raise NotSymplectic("action requires a symplectic matrix")
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


def induced_handlebody_matrix(M, genus: int):
    """g x g action on H' induced by a symplectic action preserving the kernel."""
    return tuple(
        tuple(M[genus + i][genus + j] for j in range(genus)) for i in range(genus)
    )


def act_on_trace(M, s: SymPoly, genus: int) -> SymPoly:
    """Push a polynomial over H' through the induced handlebody action."""
    return s.substitute(induced_handlebody_matrix(M, genus))


def calibration_report() -> dict:
    """The sign conventions in force and the two anchor values they produce."""
    from .tensorlie import render_lie, render_sym

    w = WedgeTriple(2, {(0, 2, 3): 1})
    d = wedge_to_derivation(w)
    trace = lagrangian_trace(d)
    return {
        "omega": "omega(a_i, b_j) = +delta_ij",
        "duality": "d(y) = sum_j omega(x_j, y) l_j",
        "tensor_form": "sum_i a_i (x) d(b_i) - b_i (x) d(a_i)",
        "wedge_sign": SIGN_WEDGE,
        "matrix_route_graded_bar": True,
        "anchor_wedge": "a1^b1^b2",
        "anchor_derivation": {
            surface_alphabet(2).letter_name(i): render_lie(v)
            for i, v in enumerate(d.values)
        },
        "anchor_trace": render_sym(trace),
    }
