"""Contract of the shared sparse core, over all seven integer-combination classes."""

import pytest

from lagtrace.derivations import Derivation, WedgeTriple
from lagtrace.errors import AmbientMismatch
from lagtrace.freegroup import SURFACE, alpha, beta
from lagtrace.groupring import GroupRingElem, LaurentElem
from lagtrace.tensorlie import (
    LiePoly,
    SymPoly,
    TensorPoly,
    handlebody_alphabet,
    surface_alphabet,
)
from oracles import symplectic_form_matrix

S2, H2 = surface_alphabet(2), handlebody_alphabet(2)


def derivation(genus, degree, terms):
    """The public constructor fed the values that the tensor form `terms`
    ((letter x, Lyndon word w) -> c) stands for: d(y) = sum omega(x, y) c P_w,
    with omega(x, y) = J[x][y]."""
    J = symplectic_form_matrix(genus)
    values = [
        LiePoly(
            surface_alphabet(genus),
            degree + 1,
            {w: c * J[x][y] for (x, w), c in terms.items() if J[x][y]},
        )
        for y in range(2 * genus)
    ]
    return Derivation(genus, degree, values)


# class -> (space, terms, bad key and the error it raises,
#           an operand over another space and the error that mixing raises)
CASES = {
    "GroupRingElem": (
        (SURFACE, 2),
        {alpha(1, 2): 2, beta(1, 2) * alpha(2, 2): -1},
        (alpha(1, 3), AmbientMismatch),
        (GroupRingElem(SURFACE, 3), AmbientMismatch, "ring elements over different groups"),
    ),
    "LaurentElem": (
        (S2,),
        {(1, 0, 0, -1): 3, (0, 0, 0, 0): -1},
        ((1, 2), ValueError),
        (LaurentElem(H2), AmbientMismatch, "Laurent elements over different alphabets"),
    ),
    "TensorPoly": (
        (S2,),
        {(0, 2): 1, (): 4, (3, 3, 1): -2},
        ((4,), ValueError),
        (TensorPoly(H2), AmbientMismatch, "tensor polynomials over different alphabets"),
    ),
    "SymPoly": (
        (H2,),
        {(1, 0): 2, (0, 3): -1},
        ((-1, 0), ValueError),
        (SymPoly(S2), AmbientMismatch, "polynomials over different alphabets"),
    ),
    "LiePoly": (
        (S2, 2),
        {(0, 2): 1, (1, 3): -2},
        ((2, 0), ValueError),
        (LiePoly(H2, 2), AmbientMismatch, "Lie elements over different alphabets"),
    ),
    "LiePoly-degree": (
        (S2, 2),
        {(0, 2): 1},
        ((0, 2, 3), ValueError),
        (LiePoly(S2, 3), ValueError, "cannot add Lie elements of different degrees"),
    ),
    "WedgeTriple": (
        (2,),
        {(0, 1, 2): 1, (0, 2, 3): -3},
        ((2, 1, 0), ValueError),
        (WedgeTriple(3), AmbientMismatch, "wedges over different genera"),
    ),
    "Derivation": (
        (2, 1),
        {(0, (0, 2)): 1, (3, (1, 3)): -2, (1, (0, 1)): 3},
        ((0, (2, 0)), ValueError),
        (derivation(3, 1, {}), AmbientMismatch, "derivations of different genus or degree"),
    ),
    "Derivation-degree": (
        (2, 1),
        {(2, (0, 3)): -1},
        ((1, (1, 1)), ValueError),
        (derivation(2, 2, {}), AmbientMismatch, "derivations of different genus or degree"),
    ),
}
CLASSES = {
    "GroupRingElem": GroupRingElem,
    "LaurentElem": LaurentElem,
    "TensorPoly": TensorPoly,
    "SymPoly": SymPoly,
    "LiePoly": LiePoly,
    "LiePoly-degree": LiePoly,
    "WedgeTriple": WedgeTriple,
    "Derivation": derivation,
    "Derivation-degree": derivation,
}


def make(name, terms):
    space = CASES[name][0]
    return CLASSES[name](*space, terms)


@pytest.mark.parametrize("name", sorted(CASES))
def test_equal_objects_hash_equal(name):
    space, terms = CASES[name][:2]
    x = make(name, terms)
    y = make(name, dict(reversed(list(terms.items()))))
    assert x == y and hash(x) == hash(y)
    assert hash(x) == hash((*space, frozenset(terms.items())))
    assert len({x, y, x + make(name, {})}) == 1


def test_laurent_never_equals_sym_with_same_terms():
    lau = LaurentElem(H2, {(1, 0): 2})
    sym = SymPoly(H2, {(1, 0): 2})
    assert lau.terms == sym.terms
    assert lau != sym and sym != lau
    with pytest.raises(AmbientMismatch):
        lau + sym


@pytest.mark.parametrize("name", sorted(CASES))
def test_zero_results_have_no_terms(name):
    x = make(name, CASES[name][1])
    assert x.scale(0).terms == {} and x.scale(0).is_zero()
    assert (x - x).terms == {} and (x + (-x)).terms == {}
    # results built without validation equal the validated construction
    assert x + x == x.scale(2) == make(name, {k: 2 * c for k, c in CASES[name][1].items()})
    assert x.scale(0) == make(name, {})


@pytest.mark.parametrize("name", sorted(CASES))
def test_instances_are_immutable(name):
    x = make(name, CASES[name][1])
    for attr in ("terms", "other", *type(x).__slots__):
        with pytest.raises(AttributeError):
            setattr(x, attr, None)
        with pytest.raises(AttributeError, match="is immutable"):
            delattr(x, attr)
    key = next(iter(x.terms))
    with pytest.raises(TypeError):  # terms is a read-only view, not the dict itself
        x.terms[key] = 7
    assert x == make(name, CASES[name][1])


@pytest.mark.parametrize("name", sorted(CASES))
def test_public_constructor_rejects_bad_key(name):
    bad, error = CASES[name][2]
    with pytest.raises(error):
        make(name, {bad: 1})
    with pytest.raises(error):  # keys are checked even when their coefficient is zero
        make(name, {bad: 0})


@pytest.mark.parametrize("name", sorted(CASES))
def test_mixing_spaces_raises_the_class_error(name):
    other, error, message = CASES[name][3]
    x = make(name, CASES[name][1])
    for op in (lambda: x + other, lambda: x - other, lambda: other + x):
        with pytest.raises(error, match=message):
            op()
