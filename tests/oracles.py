"""Literal constructions the tests check the library against, and the
parsers of its rendered polynomials.

The library computes these objects by faster or more specialized routes
(streaming and barred Fox columns, the packed Magnus kernel, determinants
over the reachable column sets, sparse kernels, derivations on tensor dicts)
and has no caller for the literal ones, so they live here: each is the
textbook definition, kept short enough to trust by reading.

No command reads a polynomial, so the inverses of render_lie, render_sym and
render_laurent live here too: the tests use them to read rendered output
and JSON payloads back into library objects.
"""

import random
from itertools import combinations
from math import gcd
from operator import add

from lagtrace import johnson
from lagtrace.derivations import Derivation, _coordinate_order, derivation_is_symplectic
from lagtrace.errors import BudgetExceeded, DegreeTooLow, NotSymplectic, ParseError
from lagtrace.freegroup import (
    HANDLEBODY,
    SURFACE,
    FreeGroupMap,
    GroupWord,
    _rank,
    abelianize_word,
    alpha,
    beta,
    commutator,
    max_image_length,
    mcr_commutator,
    mcr_compose,
    mcr_conjugate,
    mcr_inverse,
)
from lagtrace.groupring import GroupRingElem, LaurentElem, fox_bar_expand_column, fox_derivative
from lagtrace.intkernel import _bezout
from lagtrace.packed import _check_lanes, _lane_bytes
from lagtrace.tensorlie import (
    Alphabet,
    LiePoly,
    SymPoly,
    TensorPoly,
    _commutator_terms,
    _expand_bracketing,
    _lie_terms,
    _merge,
    _peel,
    _substitute_terms,
    _word_alphabet,
    graded_bar,
    handlebody_alphabet,
    lie_bracket,
    lyndon_words,
    magnus_of_word,
    std_bracketing,
    surface_alphabet,
    symmetrize,
    tensor_to_lie,
)


def ring_word(w: GroupWord) -> GroupRingElem:
    return GroupRingElem(w.ambient, w.genus, {w: 1})


def ring_one(ambient: str, genus: int) -> GroupRingElem:
    return ring_word(GroupWord(ambient, genus))


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


def bar(e: GroupRingElem) -> GroupRingElem:
    """The antiautomorphism sum c_w w  ->  sum c_w w^-1."""
    return GroupRingElem._trusted(e._space, {~w: c for w, c in e.terms.items()})


def laurent_bar(e: LaurentElem) -> LaurentElem:
    """Abelianized antiautomorphism: negate all exponents."""
    return LaurentElem._trusted(
        (e.alphabet,), {tuple(-x for x in k): c for k, c in e.terms.items()}
    )


def oracle_fox_derivative(u: GroupWord, j: int) -> GroupRingElem:
    """dw/dgamma_j with every prefix rebuilt, reduced and range-checked as a
    new word, and merged into the sum."""
    out: dict = {}
    letters = u.letters
    for p, x in enumerate(letters):
        if x == j:
            _merge(out, GroupWord(u.ambient, u.genus, letters[:p]), 1)
        elif x == -j:
            _merge(out, GroupWord(u.ambient, u.genus, letters[: p + 1]), -1)
    return GroupRingElem._trusted((u.ambient, u.genus), out)


def oracle_fox_abelian_column(w: GroupWord) -> list[LaurentElem]:
    """Abelianizations of the Fox derivatives, unbarred, from one running
    exponent vector."""
    alphabet = _word_alphabet(w)
    acc: list[dict] = [{} for _ in range(alphabet.size)]
    vec = [0] * alphabet.size
    for code in w.letters:
        if code > 0:
            _merge(acc[code - 1], tuple(vec), 1)
            vec[code - 1] += 1
        else:
            vec[-code - 1] -= 1
            _merge(acc[-code - 1], tuple(vec), -1)
    return [LaurentElem._trusted((alphabet,), d) for d in acc]


def oracle_laurent_det(A) -> LaurentElem:
    """Minor expansion over every column subset, n * 2^n products, exponent
    vectors as tuples: minors[mask] is the determinant of rows 0..i against
    the i + 1 columns in mask, expanded along row i."""
    n = len(A)
    alphabet = A[0][0].alphabet
    minors: dict[int, dict] = {0: {(0,) * alphabet.size: 1}}
    for i, row in enumerate(A):
        level: dict[int, dict] = {}
        for cols in combinations(range(n), i + 1):
            mask = sum(1 << j for j in cols)
            acc: dict = {}
            sign = -1 if i % 2 else 1  # (-1)^(i+pos) expanding along row i
            for j in cols:
                minor = minors[mask ^ (1 << j)]
                for e1, c1 in row[j].terms.items():
                    for e2, c2 in minor.items():
                        _merge(acc, tuple(map(add, e1, e2)), sign * c1 * c2)
                sign = -sign
            level[mask] = acc
        minors = level
    return LaurentElem(alphabet, minors[(1 << n) - 1])


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
    z = GroupWord(SURFACE, genus)
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


def oracle_apply(f: FreeGroupMap, w: GroupWord, budget: int | None = None) -> GroupWord:
    """freegroup.apply with every seam cancelled letter by letter, filling
    f._subst's inverted images and raising BudgetExceeded under a budget as
    apply does: once the output so far exceeds the budget plus the summed
    lengths of the images still to come."""
    out: list[int] = []
    subst = f._subst
    if budget is not None:
        limit = budget + sum(len(subst[abs(x)]) for x in w.letters)
    for x in w.letters:
        im = subst[x]
        if im is None:
            im = subst[x] = tuple(-y for y in reversed(subst[-x]))
        i = 0
        while i < len(im) and out and out[-1] == -im[i]:
            out.pop()
            i += 1
        out.extend(im[i:])
        if budget is not None:
            limit -= len(im)
            if len(out) > limit:
                raise BudgetExceeded(f"image would exceed {budget} letters")
    return GroupWord._trusted(w.ambient, w.genus, tuple(out))


def oracle_project_to_handlebody(w: GroupWord) -> GroupWord:
    """freegroup.project_to_handlebody through the validating constructor:
    the alphas deleted, the betas primed, the rest reduced and range-checked
    by GroupWord."""
    g = w.genus
    letters = []
    for x in w.letters:
        k = abs(x)
        if k > g:
            letters.append((k - g) if x > 0 else -(k - g))
    return GroupWord(HANDLEBODY, g, letters)


def oracle_extends_to_handlebody(m) -> bool:
    """freegroup.extends_to_handlebody by building every alpha image's
    projection as a word."""
    return all(
        oracle_project_to_handlebody(f.images[i]).is_identity()
        for f in (m.forward, m.inverse)
        for i in range(m.genus)
    )


def zero_derivation(genus: int, degree: int) -> Derivation:
    return Derivation(genus, degree, [LiePoly(surface_alphabet(genus), degree + 1)] * (2 * genus))


def wedge_basis(genus: int) -> list[tuple[int, int, int]]:
    """Index triples i < j < l of the basis e_i ^ e_j ^ e_l of the third exterior power of H."""
    return list(combinations(range(2 * genus), 3))


def lie_letter(alphabet, i: int) -> LiePoly:
    return LiePoly(alphabet, 1, {(i,): 1})


def tensor_letter(alphabet, i: int) -> TensorPoly:
    return TensorPoly(alphabet, {(i,): 1})


def lie_to_tensor(p: LiePoly) -> TensorPoly:
    return TensorPoly(p.alphabet, _lie_terms(p))


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
    out = LiePoly(alphabet, v.degree + d.degree)
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


def oracle_is_symplectic(d: Derivation) -> bool:
    """derivations.derivation_is_symplectic by merging the tensor expansion
    of sum [x, l] = sum (x l - l x) over the terms x (x) l of the tensor
    form, each Lyndon word expanded in place: zero exactly when d is in the
    kernel of the bracket map."""
    acc: dict = {}
    for (x, w), c in d.terms.items():
        for u, k in _expand_bracketing(std_bracketing(w)).items():
            _merge(acc, (x, *u), c * k)
            _merge(acc, (*u, x), -c * k)
    return not acc


def transform_lie(v: LiePoly, M) -> LiePoly:
    """Push a Lie element through the linear map M, certified by the peel."""
    terms = _substitute_terms(_lie_terms(v), M, v.alphabet.size)
    return LiePoly(v.alphabet, v.degree, _peel(terms))


def symplectic_form_matrix(genus: int) -> tuple[tuple[int, ...], ...]:
    """Gram matrix of the intersection form, omega(a_i, b_j) = delta_ij: the
    pairing written out independently of derivations._dual, which the
    package reads it through."""
    n = 2 * genus
    J = [[0] * n for _ in range(n)]
    for i in range(genus):
        J[i][genus + i] = 1
        J[genus + i][i] = -1
    return tuple(tuple(row) for row in J)


def oracle_contraction_C(w) -> tuple[int, ...]:
    """derivations.contraction_C by the Gram matrix: a^b^c -> omega(a,b)c +
    omega(b,c)a + omega(c,a)b with omega(x, y) = J[x][y]."""
    J = symplectic_form_matrix(w.genus)
    out = [0] * len(J)
    for (i, j, l), c in w.terms.items():
        out[l] += c * J[i][j]
        out[i] += c * J[j][l]
        out[j] += c * J[l][i]
    return tuple(out)


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


def act_on_derivation(M, d: Derivation) -> Derivation:
    """(M . d)(y) = M(d(M^-1 y)), combining LiePoly values, then transform_lie."""
    g = d.genus
    Minv = _matrix_inverse_symplectic(M, g)
    alphabet = surface_alphabet(g)
    values = []
    for y in range(2 * g):
        pre = LiePoly(alphabet, d.degree + 1)
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


def norm_matrix(d: Derivation):
    """2g x 2g matrix of degree-k tensors: entry (i, j) is the part of the
    expansion of d(gamma_j) whose words end in letter i, with that letter
    dropped."""
    n = 2 * d.genus
    entries = [[{} for _ in range(n)] for _ in range(n)]
    for j, v in enumerate(d.values):
        for w, c in lie_to_tensor(v).terms.items():
            entries[w[-1]][j][w[:-1]] = c
    alphabet = surface_alphabet(d.genus)
    return tuple(tuple(TensorPoly(alphabet, e) for e in row) for row in entries)


def morita_trace(d: Derivation) -> SymPoly:
    """Symmetrized sum of the diagonal of the full 2g x 2g norm_matrix."""
    full = norm_matrix(d)
    acc = TensorPoly(surface_alphabet(d.genus), {})
    for i in range(2 * d.genus):
        acc = acc + full[i][i]
    return symmetrize(acc.terms, acc.alphabet)


def project_lie(v: LiePoly) -> LiePoly:
    """Induced Lie map of a_i -> 0, b_i -> b_i' on Lyndon coordinates."""
    g = v.alphabet.genus
    out = {}
    for w, c in v.terms.items():
        if all(x >= g for x in w):
            out[tuple(x - g for x in w)] = c
    return LiePoly(handlebody_alphabet(g), v.degree, out)


# ---------------------------------------------------------------------------
# parsers of rendered polynomials


def letter_by_name(alphabet: Alphabet, name: str) -> int:
    """Index of a rendered letter name (a1, b2 over H; B1 over H')."""
    if len(name) >= 2 and name[0] in "abB" and name[1:].isdigit():
        idx = int(name[1:]) - 1
        if 0 <= idx < alphabet.genus:
            if name[0] == "B" and alphabet.ambient == HANDLEBODY:
                return idx
            if name[0] == "a" and alphabet.ambient == SURFACE:
                return idx
            if name[0] == "b" and alphabet.ambient == SURFACE:
                return alphabet.genus + idx
    raise ParseError(
        f"letter {name!r} does not belong to the {alphabet.ambient} group at genus {alphabet.genus}"
    )


def _parse_monomials(text: str, n: int, factor, empty: str) -> dict:
    """Signed sums of monomials such as '2*f1*f2 - f3' as exponent vector -> coefficient.

    `factor` reads one non-numeric factor into (index, power); the vectors
    have length n.
    """
    text = text.strip()
    if text == "0":
        return {}
    if not text:
        raise ParseError(empty)
    total: dict = {}
    for sign, chunk in _split_terms(text):
        coeff = sign
        expo = [0] * n
        for f in chunk.split("*"):
            f = f.strip()
            if not f:
                raise ParseError(f"empty factor in {text!r}")
            if f.isdigit():
                coeff *= int(f)
                continue
            i, power = factor(f)
            expo[i] += power
        _merge(total, tuple(expo), coeff)
    return total


def parse_sym(text: str, alphabet: Alphabet) -> SymPoly:
    """Inverse of render_sym: integer combinations of x<i> monomials."""
    n = alphabet.size

    def factor(f):
        name, _, power = f.partition("^")
        if not (name.startswith("x") and name[1:].isdigit()):
            raise ParseError(f"bad variable {f!r}")
        i = int(name[1:]) - 1
        if not 0 <= i < n:
            raise ParseError(f"variable {name!r} out of range")
        if power and not power.isdigit():
            raise ParseError(f"bad exponent in {f!r}")
        return i, int(power) if power else 1

    return SymPoly(alphabet, _parse_monomials(text, n, factor, "empty polynomial"))


def _split_terms(text: str):
    """Split 'a - b + c' into signed chunks.  A +/- directly after '^' belongs
    to an exponent (Laurent grammar), not to a new term."""
    out = []
    cur: list = []
    sign = 1
    prev_nonspace = ""
    for ch in text:
        if ch in "+-" and prev_nonspace != "^":
            chunk = "".join(cur).strip()
            if chunk:
                out.append((sign, chunk))
                sign = 1 if ch == "+" else -1
                cur = []
            elif out:
                raise ParseError(f"misplaced sign in {text!r}")
            elif ch == "-":
                sign = -sign
            prev_nonspace = ch
            continue
        cur.append(ch)
        if not ch.isspace():
            prev_nonspace = ch
    chunk = "".join(cur).strip()
    if not chunk:
        raise ParseError(f"dangling operator in {text!r}")
    out.append((sign, chunk))
    return out


def parse_lie(text: str, alphabet: Alphabet, degree: int | None = None) -> LiePoly:
    """Parse integer combinations of nested letter brackets, e.g. '-[b1,b2] + 2*[[a1,b1],b2]'.

    '0' only parses when a degree is supplied, since the zero element does
    not determine its own grade.
    """
    if text.strip() == "0":
        if degree is None:
            raise ParseError("cannot parse '0' without a degree; use LiePoly(alphabet, degree)")
        return LiePoly(alphabet, degree)
    tokens = _lex_lie(text)
    pos = 0
    terms: list[tuple[int, object]] = []
    sign = 1
    expect_term = True
    while pos < len(tokens):
        tok = tokens[pos]
        if expect_term:
            while tok[0] in ("+", "-"):
                if tok[0] == "-":
                    sign = -sign
                pos += 1
                if pos >= len(tokens):
                    raise ParseError(f"dangling sign in {text!r}")
                tok = tokens[pos]
            coeff = sign
            if tok[0] == "int":
                coeff *= tok[1]
                pos += 1
                if pos < len(tokens) and tokens[pos][0] == "*":
                    pos += 1
                tok = tokens[pos] if pos < len(tokens) else None
            if tok is None or tok[0] not in ("letter", "["):
                raise ParseError(f"expected a bracket term in {text!r}")
            expr, pos = _parse_bracket(tokens, pos, alphabet)
            terms.append((coeff, expr))
            expect_term = False
            sign = 1
        else:
            if tok[0] in ("+", "-"):
                sign = 1 if tok[0] == "+" else -1
                pos += 1
                expect_term = True
            else:
                raise ParseError(f"unexpected token after term in {text!r}")
    if expect_term and terms:
        raise ParseError(f"dangling sign in {text!r}")
    if not terms:
        raise ParseError(f"empty Lie expression {text!r}")
    if degree is None:
        degree = _expr_degree(terms[0][1])
    total = LiePoly(alphabet, degree)
    for coeff, expr in terms:
        if _expr_degree(expr) != degree:
            raise ParseError(f"mixed degrees in Lie expression {text!r}")
        expanded = TensorPoly(alphabet, _expand_bracketing(_freeze(expr)))
        total = total + tensor_to_lie(expanded, degree).scale(coeff)
    return total


def _freeze(expr):
    if isinstance(expr, int):
        return expr
    return (_freeze(expr[0]), _freeze(expr[1]))


def _expr_degree(expr) -> int:
    if isinstance(expr, int):
        return 1
    return _expr_degree(expr[0]) + _expr_degree(expr[1])


def _lex_lie(text: str):
    tokens = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch.isspace():
            i += 1
        elif ch in "[],+-*":
            tokens.append((ch if ch not in "]," else ch, None))
            i += 1
        elif ch.isdigit():
            j = i
            while j < len(text) and text[j].isdigit():
                j += 1
            tokens.append(("int", int(text[i:j])))
            i = j
        elif ch.isalpha():
            j = i + 1
            while j < len(text) and text[j].isdigit():
                j += 1
            tokens.append(("letter", text[i:j]))
            i = j
        else:
            raise ParseError(f"unexpected character {ch!r} in Lie expression")
    return tokens


def _parse_bracket(tokens, pos, alphabet: Alphabet):
    tok = tokens[pos]
    if tok[0] == "letter":
        return letter_by_name(alphabet, tok[1]), pos + 1
    if tok[0] == "[":
        left, pos = _parse_bracket(tokens, pos + 1, alphabet)
        if pos >= len(tokens) or tokens[pos][0] != ",":
            raise ParseError("expected ',' inside bracket")
        right, pos = _parse_bracket(tokens, pos + 1, alphabet)
        if pos >= len(tokens) or tokens[pos][0] != "]":
            raise ParseError("expected ']' closing bracket")
        return (left, right), pos + 1
    raise ParseError(f"unexpected token {tok!r} in bracket expression")


def parse_laurent(text: str, alphabet: Alphabet) -> LaurentElem:
    """Inverse of render_laurent: sums of signed monomials in the group letters."""

    def factor(f):
        name, _, power = f.partition("^")
        i = letter_by_name(alphabet, name)
        if not power:
            return i, 1
        if not (power[1:] if power.startswith("-") else power).isdigit():
            raise ParseError(f"bad exponent in {f!r}")
        return i, int(power)

    terms = _parse_monomials(text, alphabet.size, factor, "empty Laurent expression")
    return LaurentElem(alphabet, terms)


def oracle_kernel_columns(genus: int, k: int, project: bool):
    """The bracket map's columns in Lyndon coordinates: each column is
    lie_bracket of a letter with a Lyndon word, peeled back to the Lyndon
    basis.  Same rows and return value (columns, nrows) as
    derivations._kernel_columns, which reads the expansions at the Lyndon
    rows instead."""
    alphabet = surface_alphabet(genus)
    target = {w: r for r, w in enumerate(lyndon_words(2 * genus, k + 2))}
    below = {}  # (letter, Lyndon word) of H' (x) L_{k+1}(H') -> row
    if project:
        for x in range(genus):
            for w in lyndon_words(genus, k + 1):
                below[(x, w)] = len(target) + len(below)
    columns = []
    for x, w in _coordinate_order(genus, k):
        br = lie_bracket(
            LiePoly._trusted((alphabet, 1), {(x,): 1}),
            LiePoly._trusted((alphabet, k + 1), {w: 1}),
        )
        column = {target[word]: c for word, c in br.terms.items()}
        if project and x >= genus and all(y >= genus for y in w):
            column[below[(x - genus, tuple(y - genus for y in w))]] = 1
        columns.append(column)
    return columns, len(target) + len(below)


def oracle_lyndon_row_columns(genus: int, k: int, project: bool):
    """derivations._kernel_columns by the route it replaced: all of
    x P_w - P_w x built as a commutator dict, then filtered to the Lyndon
    rows.  Same rows and return value (columns, nrows)."""
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


# ---------------------------------------------------------------------------
# the integer kernel with a row -> columns index


def oracle_integer_kernel_basis(columns: list[dict[int, int]], nrows: int) -> list[dict[int, int]]:
    """intkernel.integer_kernel_basis by the route it replaced: a row ->
    live columns index kept up to date through every step, pivot swaps that
    move the dicts, and every unimodular step through new dicts (_mix).
    Same arguments, errors and return value."""
    ncols = len(columns)
    A = [{r: a for r, a in column.items() if a} for column in columns]
    support: list[set[int]] = [set() for _ in range(nrows)]  # row -> live columns
    for j, column in enumerate(A):
        for r in column:
            if not 0 <= r < nrows:
                raise ValueError(f"column {j} has row {r!r} outside range({nrows})")
            support[r].add(j)
    U: list[dict[int, int]] = [{j: 1} for j in range(ncols)]
    col = 0
    for r, live in enumerate(support):
        if col == ncols:
            break
        if not live:
            continue
        pivot, *rest = sorted(live)
        if pivot != col:
            _swap_cols(A, U, support, pivot, col)
        for j in rest:
            a, b = A[col][r], A[j][r]
            g = gcd(a, b)
            x, y = _bezout(a, b)
            # unimodular 2x2: [[x, -b//g], [y, a//g]] has determinant 1
            _combine_cols(A, U, support, col, j, x, y, -(b // g), a // g)
        # column col is final: later rows only touch columns to its right
        for s in A[col]:
            support[s].discard(col)
        A[col] = U[col] = None
        col += 1
    return [dict(sorted(U[j].items())) for j in range(col, ncols)]


def _reindex(A, support, j, new):
    for s in A[j]:
        support[s].discard(j)
    A[j] = new
    for s in new:
        support[s].add(j)


def _swap_cols(A, U, support, j1, j2):
    c1, c2 = A[j1], A[j2]
    _reindex(A, support, j1, c2)
    _reindex(A, support, j2, c1)
    U[j1], U[j2] = U[j2], U[j1]


def _mix(c: dict, o: dict, x, y, p, q) -> tuple[dict, dict]:
    new_c, new_o = {}, {}
    for i in c.keys() | o.keys():
        u, v = c.get(i, 0), o.get(i, 0)
        s, t = x * u + y * v, p * u + q * v
        if s:
            new_c[i] = s
        if t:
            new_o[i] = t
    return new_c, new_o


def _combine_cols(A, U, support, jc, jo, x, y, p, q):
    # column jc <- x*col_jc + y*col_jo ; column jo <- p*col_jc + q*col_jo
    new_c, new_o = _mix(A[jc], A[jo], x, y, p, q)
    _reindex(A, support, jc, new_c)
    _reindex(A, support, jo, new_o)
    U[jc], U[jo] = _mix(U[jc], U[jo], x, y, p, q)


# ---------------------------------------------------------------------------
# the truncation identity by its columns


def oracle_truncation_identity(images, values, k: int) -> bool:
    """magnusrep._truncation_identity by the decode route it replaced: column
    j of fox_bar_expand_column(images[j], k), decoded to terms, against the
    unit at row j plus, at row i, the graded bar of the words of values[j]
    that end in letter i, with that letter dropped."""
    for j, (img, terms) in enumerate(zip(images, values)):
        rows: list[dict] = [{} for _ in images]
        for w, c in terms.items():
            rows[w[-1]][w[:-1]] = c
        rows = [graded_bar(row) for row in rows]
        _merge(rows[j], (), 1)
        if [entry.terms for entry in fox_bar_expand_column(img, k)] != rows:
            return False
    return True


# ---------------------------------------------------------------------------
# tau and the sampler before the memo and the shared streams


def oracle_degree(errors, k: int):
    """The degree read before tau's memo: the class's degree if below k, k
    if exactly k, None if deeper, read off the cached expansions at k+1."""
    words = [w for err in errors for w in magnus_of_word(err, k + 1).terms if w]
    return min(map(len, words)) - 1 if words else None


def oracle_tau(m, k: int) -> Derivation:
    """tau as a fresh read on every call: each error word's cached expansion
    at k+1, its top degree certified Lie, the derivation certified
    symplectic, nothing memoized."""
    errors = list(johnson._error_words(m.forward))
    deg = oracle_degree(errors, k)
    if deg is not None and deg < k:
        raise DegreeTooLow(f"class has filtration degree {deg}, need at least {k}")
    values = [tensor_to_lie(magnus_of_word(e, k + 1).degree_part(k + 1), k + 1) for e in errors]
    d = Derivation(m.genus, k, values)
    if not derivation_is_symplectic(d):
        raise NotSymplectic(f"tau_{k} of the class is not a symplectic derivation")
    return d


def oracle_packed_levels(w: GroupWord, truncate: int):
    """packed._packed_levels by the letter loop alone, as it was before
    a long conjugate P c P^-1 t was expanded through its conjugator once:
    each letter is one shift-and-add per degree, the downward walk for
    1 + X_v, the upward one for the inverse series."""
    if truncate < 0:
        raise ValueError("truncation degree must be nonnegative")
    used = tuple(sorted({abs(x) for x in w.letters}))
    if not truncate:
        return used, 1, [1], []
    m = len(used)
    _check_lanes(m, truncate)
    width = _lane_bytes(len(w.letters), truncate)
    low = [1] + [0] * (truncate - 1)
    top = [0] * m
    down = [
        [(d, v * m ** (d - 1) * 8 * width) for d in range(truncate - 1, 0, -1)] for v in range(m)
    ]
    up = [steps[::-1] for steps in down]
    local = {code: v for v, code in enumerate(used)}
    for x in w.letters:
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
    return used, width, low, top


def oracle_expands_to(w, truncate: int, expected: dict) -> bool:
    """packed._expands_to by the decode route: the cached expansion's
    term dict is the nonzero terms of `expected`."""
    return dict(magnus_of_word(w, truncate).terms) == {u: c for u, c in expected.items() if c}


def oracle_certifies(m, k: int, screen: Derivation) -> bool:
    """The verdict of johnson._certified on a built candidate by the
    decode-and-peel route that the packed comparison replaced: no error
    word's expansion at k+1 has a term below degree k+1 (oracle_degree),
    and tau_k, each value peeled by tensor_to_lie (oracle_tau), equals the
    screen."""
    try:
        return oracle_tau(m, k) == screen
    except DegreeTooLow:
        return False


def oracle_sample_Ak(g: int, k: int, count: int, seed: int = 0):
    """sample_Ak as one loop per call: a fresh generator from the seed, the
    stock drawn as sequence elements and built on every draw, every
    candidate built in full, with no screen and no budget at any degree,
    then rejected when max_image_length exceeds WORD_BUDGET, and the
    attempt limit 80 * count + 80 counted from the first attempt.  The
    degree is read by oracle_degree off the decoded expansions; the rest of
    the certification reads johnson's module attributes at call time, as
    the library's does."""
    if k not in (1, 2, 3):
        raise ValueError("k must be 1, 2 or 3")
    rng = random.Random(seed)
    lib = johnson.handlebody_sample_library(g)
    twists = lib[1 - g :]

    def light_one():
        base = rng.choice(twists)
        if rng.random() < 0.5:
            base = mcr_inverse(base)
        if rng.random() < 0.5:
            base = mcr_conjugate(base, rng.choice(lib))
        return base

    def degree_one():
        out = light_one()
        style = rng.random()
        if style < 0.4:
            out = mcr_compose(out, rng.choice(twists))
        elif style < 0.6:
            out = mcr_compose(out, light_one())
        return out

    def candidate():
        if k == 1:
            return degree_one()
        if k == 2:
            return mcr_commutator(light_one(), light_one())
        inner = mcr_commutator(light_one(), light_one())
        return mcr_commutator(light_one(), inner)

    out = []
    attempts = 0
    max_attempts = 80 * count + 80
    while len(out) < count:
        attempts += 1
        if attempts > max_attempts:
            raise johnson.BudgetExceeded(
                f"could not assemble {count} degree-{k} samples in {max_attempts} tries"
            )
        m = candidate()
        if m.forward == johnson.identity_map(SURFACE, g) or max_image_length(m) > johnson.WORD_BUDGET:
            continue
        if oracle_degree(johnson._error_words(m.forward), k) != k:
            continue
        if not johnson.extends_to_handlebody(m):
            continue
        out.append(johnson.FilteredMappingClass(m, k, True))
    return out
