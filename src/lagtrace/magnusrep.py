"""Fox matrices of automorphisms, their abelianized determinants, and the
verifiers tying them to the graded derivation traces.

Conventions.  The matrix of an automorphism has (i,j) entry the bar of the
j-th image's Fox derivative with respect to the i-th generator.  For classes
preserving the handlebody kernel the same recipe over the rank-g quotient
gives a g x g matrix.  The verified identities, per report:

  * truncated identity (surface and quotient versions): at filtration
    degree k the truncated matrix equals the identity plus the graded bar
    of the derivation's letter matrix, whose (i,j) entry is the words of
    the expansion of d(gamma_j) that end in letter i, that letter dropped.
    By the fundamental formula under the bar, column j does exactly when
    the expansion of the j-th image's inverse, truncated at k+1, is
    sum_{d<=k+1} (-X_j)^d plus the graded bar of d(gamma_j);
  * crossed law: r(mn) = r(m) (m . r(n)), coefficientwise action;
  * determinant identities: the abelianized quotient determinant is a
    monomial recording the degree-1 trace, it collapses to 1 from degree 2
    on, and the full-rank determinant doubles the degree-1 contraction.

Each verifier recomputes both sides through different routes (Fox columns
of the images on one side, graded classes of error words on the other) and
reports exact equality.  In the truncation identities both routes expand
words through the one packed Magnus kernel (lagtrace.packed): tau_k decodes
the error words' expansions, and the images' inverses are compared with the
expected terms on packed ints (packed._expands_to), no column decoded;
the tests keep the column-by-column decode route as the oracle.
"""

from __future__ import annotations

import time

from .derivations import (
    _handlebody_values,
    _value_terms,
    contraction_C,
    lagrangian_trace,
    wedge_from_derivation,
)
from .errors import NotMonomial
from .freegroup import MappingClassRep, induced_handlebody_map, mcr_compose
from .groupring import (
    LaurentElem,
    render_laurent,
    as_group_element,
    fox_abelian_column,
    fox_bar_column,
    laurent_det,
    laurent_one,
    mat_apply,
    mat_equal,
    mat_mul,
)
from .johnson import tau
from .packed import _expands_to
from .tensorlie import (
    SymPoly,
    _merge,
    graded_bar,
    handlebody_alphabet,
    render_sym,
)


def _matrix(images, column):
    """Square matrix whose j-th column is column(images[j])."""
    return tuple(zip(*(column(img) for img in images)))


def magnus_rep(m: MappingClassRep):
    """Abelianization of the Fox matrix, computed by a streaming pass."""
    return _matrix(m.forward.images, fox_abelian_column)


def handlebody_fox_matrix(m: MappingClassRep):
    """g x g Fox matrix of the induced quotient automorphism."""
    return _matrix(induced_handlebody_map(m).images, fox_bar_column)


def handlebody_magnus(m: MappingClassRep):
    """Abelianized g x g matrix over the quotient Laurent ring."""
    return _matrix(induced_handlebody_map(m).images, fox_abelian_column)


def det_handlebody(m: MappingClassRep) -> LaurentElem:
    return laurent_det(handlebody_magnus(m))


def additive_form(x: LaurentElem) -> SymPoly:
    """Read a single positive monomial as a degree-1 symmetric polynomial
    (the additive notation for a free-abelian group element)."""
    expo, sign = as_group_element(x)
    if sign != 1:
        raise NotMonomial("negative monomial has no additive reading")
    alphabet = x.alphabet
    terms = {}
    for i, e in enumerate(expo):
        if e:
            key = [0] * alphabet.size
            key[i] = 1
            terms[tuple(key)] = e
    return SymPoly(alphabet, terms)


def crossed_check(m: MappingClassRep, n: MappingClassRep) -> bool:
    """r(mn) = r(m) (m . r(n)) over the quotient group ring, exactly."""
    fm = induced_handlebody_map(m)
    lhs = handlebody_fox_matrix(mcr_compose(m, n))
    rhs = mat_mul(handlebody_fox_matrix(m), mat_apply(fm, handlebody_fox_matrix(n)))
    return mat_equal(lhs, rhs)


def _truncation_identity(images, values, k: int) -> bool:
    """Column j of the bar Fox matrix of `images`, expanded to degree k,
    equals the unit at row j plus, at row i, the graded bar of the words of
    values[j] (a word -> coefficient dict of degree k+1) that end in letter
    i, with that letter dropped.

    Checked on the expansion of each image's inverse, with no column built.
    Under the bar the fundamental formula gives w^-1 - 1 = sum_i
    (gamma_i^-1 - 1) bar(dw/dgamma_i), and theta(gamma_i^-1) - 1 = -X_i
    (1 + X_i)^-1, so theta(w^-1) - 1 = -sum_i X_i (1 + X_i)^-1 C_i for the
    expanded column C.  The words of theta(w^-1) starting with X_i give
    back C_i, so C truncated at k fixes theta(w^-1) truncated at k+1 and
    is fixed by it.  The expected column gives the geometric series
    sum_{d<=k+1} (-X_j)^d from its unit, and -sum_i X_i graded_bar(row_i),
    which is the graded bar of values[j], in degree k+1 from its rows (its
    higher terms are past the truncation).
    """
    for j, (img, terms) in enumerate(zip(images, values)):
        expected = graded_bar(terms)
        for d in range(k + 2):
            _merge(expected, (j,) * d, -1 if d % 2 else 1)
        if not _expands_to(~img, k + 1, expected):
            return False
    return True


def truncated_identity_check(m: MappingClassRep, k: int) -> bool:
    """Surface truncation identity at degree k.

    Left side: the bar Fox matrix expanded column by column, truncated at k.
    Right side: identity matrix plus the graded bar of the letter matrix of
    the degree-k derivation, read off the expansions of its values.  Column
    j holds exactly when the expansion of the inverse of gamma_j's image,
    truncated at k+1, is sum_{d<=k+1} (-X_j)^d plus the graded bar of
    tau_k(gamma_j) (_truncation_identity), which one packed comparison
    checks.
    """
    values = _value_terms(tau(m, k))
    return _truncation_identity(m.forward.images, values, k)


def truncated_identity_check_A(m: MappingClassRep, k: int) -> bool:
    """Quotient truncation identity at degree k, on the projected b-values;
    raises NotInG when tau(m, k) is outside G.  As on the surface, column j
    holds exactly when the expansion of the inverse of b_j's quotient image,
    truncated at k+1, is sum_{d<=k+1} (-X_j)^d plus the graded bar of the
    projected tau_k(b_j)."""
    values = _handlebody_values(tau(m, k))
    return _truncation_identity(induced_handlebody_map(m).images, values, k)


def _report(claim: str, lhs: str, rhs: str, equal: bool, t0: float) -> dict:
    return {
        "claim": claim,
        "lhs": lhs,
        "rhs": rhs,
        "equal": bool(equal),
        "wall_time_ms": round((time.perf_counter() - t0) * 1000, 3),
    }


def verify_theorem_B(m: MappingClassRep) -> dict:
    """Determinant of the quotient representation vs the degree-1 trace."""
    t0 = time.perf_counter()
    det = det_handlebody(m)
    lhs = additive_form(det)
    rhs = lagrangian_trace(tau(m, 1))
    return _report(
        "det of the quotient Magnus matrix equals the degree-1 Lagrangian trace",
        render_sym(lhs),
        render_sym(rhs),
        lhs == rhs,
        t0,
    )


def verify_theorem_A(m: MappingClassRep, k: int) -> dict:
    """Trace vanishing and trivial determinant from degree 2 on."""
    if k < 2:
        raise ValueError("vanishing starts at degree 2")
    t0 = time.perf_counter()
    tr = lagrangian_trace(tau(m, k))
    det = det_handlebody(m)
    one = laurent_one(handlebody_alphabet(m.genus))
    ok = tr.is_zero() and det == one
    return _report(
        f"degree-{k} Lagrangian trace vanishes and the quotient determinant is 1",
        f"trace {render_sym(tr)}, det {render_laurent(det)}",
        "trace 0, det 1",
        ok,
        t0,
    )


def verify_det_contraction(m: MappingClassRep) -> dict:
    """Full-rank determinant against the doubled degree-1 contraction.

    The determinant of the 2g x 2g abelianized matrix of a homology-trivial
    class is a single positive monomial whose exponent vector is minus twice
    the contraction of the degree-1 derivation (sign fixed by the worked
    genus-2 example and stable across all samples).
    """
    t0 = time.perf_counter()
    det = laurent_det(magnus_rep(m))
    try:
        expo, sign = as_group_element(det)
    except NotMonomial:
        lhs, rhs, ok = render_laurent(det), "a single monomial", False
    else:
        expected = tuple(-2 * c for c in contraction_C(wedge_from_derivation(tau(m, 1))))
        lhs = f"sign {sign}, exponents {list(expo)}"
        rhs = f"sign 1, exponents {list(expected)}"
        ok = sign == 1 and expo == expected
    return _report("full determinant is a monomial doubling the contraction", lhs, rhs, ok, t0)
