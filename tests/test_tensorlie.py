import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from lagtrace.errors import AmbientMismatch, NotLieElement, ParseError
from lagtrace.freegroup import (
    SURFACE,
    GroupWord,
    alpha,
    beta,
    commutator,
    parse_word,
)
import lagtrace.johnson as johnson
import lagtrace.tensorlie as tensorlie
from lagtrace.tensorlie import (
    Alphabet,
    LiePoly,
    TensorPoly,
    dynkin_map,
    graded_bar,
    handlebody_alphabet,
    is_lyndon,
    lie_bracket,
    lyndon_words,
    magnus_of_word,
    render_lie,
    render_sym,
    render_tensor,
    std_bracketing,
    surface_alphabet,
    symmetrize,
    tensor_to_lie,
    witt_dimension,
)
from oracles import lie_letter, lie_to_tensor, parse_lie, tensor_letter

H2 = surface_alphabet(2)
ONE = TensorPoly(H2, {(): 1})


def lie_elements(alphabet=H2, degree=2, max_terms=3):
    basis = lyndon_words(alphabet.size, degree)
    pairs = st.tuples(st.sampled_from(basis), st.integers(-4, 4))
    return st.lists(pairs, max_size=max_terms).map(
        lambda ps: LiePoly(
            alphabet, degree, _accumulate(ps)
        )
    )


def _accumulate(pairs):
    d = {}
    for w, c in pairs:
        d[w] = d.get(w, 0) + c
    return d


class TestLyndon:
    @pytest.mark.parametrize("n,k", [(2, k) for k in range(1, 6)] + [(4, k) for k in range(1, 6)] + [(6, 3)])
    def test_count_matches_witt(self, n, k):
        assert len(lyndon_words(n, k)) == witt_dimension(n, k)

    def test_explicit_degree_two(self):
        assert lyndon_words(2, 2) == ((0, 1),)
        assert lyndon_words(3, 2) == ((0, 1), (0, 2), (1, 2))

    def test_no_letters_rejected(self):
        # with no letters Duval's loop never reaches its exit test
        with pytest.raises(ValueError):
            lyndon_words(0, 3)

    def test_all_lyndon_and_sorted(self):
        ws = lyndon_words(3, 4)
        assert list(ws) == sorted(ws)
        assert all(is_lyndon(w) for w in ws)

    @pytest.mark.parametrize("n,max_k", [(4, 6), (6, 4), (8, 4)])
    def test_expansion_leads_with_its_word(self, n, max_k):
        # P_w = w + lex-greater words with coefficient 1 at w: the Lyndon
        # peel and the bracket columns of the kernel bases both rest on it
        for k in range(1, max_k + 1):
            for w in lyndon_words(n, k):
                expansion = tensorlie._expand_bracketing(std_bracketing(w))
                assert min(expansion) == w
                assert expansion[w] == 1

    def test_std_bracketing_splits_at_lyndon_suffix(self):
        assert std_bracketing((0, 1)) == (0, 1)
        assert std_bracketing((0, 0, 1)) == (0, (0, 1))
        assert std_bracketing((0, 1, 1)) == ((0, 1), 1)

    def test_rejects_non_lyndon(self):
        with pytest.raises(ValueError):
            std_bracketing((1, 0))


class TestWitt:
    @pytest.mark.parametrize(
        "n,k,dim",
        [
            (2, 1, 2), (2, 2, 1), (2, 3, 2), (2, 4, 3), (2, 5, 6),
            (4, 1, 4), (4, 2, 6), (4, 3, 20), (4, 4, 60), (4, 5, 204),
            (6, 1, 6), (6, 2, 15), (6, 3, 70), (6, 4, 315), (6, 5, 1554),
        ],
    )
    def test_values(self, n, k, dim):
        assert witt_dimension(n, k) == dim


class TestAlphabet:
    def test_a_value_object(self):
        a = Alphabet("surface", 2)
        assert a == surface_alphabet(2) and hash(a) == hash(surface_alphabet(2))
        assert a != handlebody_alphabet(2) and a != surface_alphabet(3) and a != ("surface", 2)
        assert len({a, surface_alphabet(2), handlebody_alphabet(2)}) == 2
        assert repr(a) == "Alphabet(ambient='surface', genus=2)"
        for attr in ("ambient", "genus", "other"):
            with pytest.raises(AttributeError):
                setattr(a, attr, None)
            with pytest.raises(AttributeError):
                delattr(a, attr)
        assert (a.ambient, a.genus, a.size) == ("surface", 2, 4)


class TestTensorAlgebra:
    def test_concat_and_truncate(self):
        x = tensor_letter(H2, 0)
        y = tensor_letter(H2, 2)
        assert render_tensor(x.concat(y)) == "a1*b1"
        t = (ONE + x).concat(ONE + y, truncate=1)
        assert t.degrees() == {0, 1}

    def test_degree_part(self):
        t = ONE + tensor_letter(H2, 1)
        assert t.degree_part(0) == ONE
        assert t.degree_part(2).is_zero()

    def test_graded_bar_signs(self):
        assert graded_bar({(0, 2): 1}) == {(2, 0): 1}
        assert graded_bar({(0, 1, 2): 1}) == {(2, 1, 0): -1}

    def test_graded_bar_involutive(self):
        terms = {(0, 2): 2, (1, 2, 3): -1}
        assert graded_bar(graded_bar(terms)) == terms


class TestLie:
    def test_bracket_expansion(self):
        br = lie_bracket(lie_letter(H2, 0), lie_letter(H2, 2))
        assert lie_to_tensor(br) == TensorPoly(H2, {(0, 2): 1, (2, 0): -1})

    @given(lie_elements(degree=2), lie_elements(degree=2))
    def test_round_trip(self, p, q):
        s = p + q
        assert tensor_to_lie(lie_to_tensor(s), 2) == s

    def test_round_trip_degree_four(self):
        p = parse_lie("[[[a1,b1],b2],a2] - 3*[[a1,a2],[b1,b2]]", H2)
        assert tensor_to_lie(lie_to_tensor(p), 4) == p

    @given(lie_elements(degree=1), lie_elements(degree=1), lie_elements(degree=1))
    def test_jacobi(self, p, q, r):
        total = (
            lie_bracket(lie_bracket(p, q), r)
            + lie_bracket(lie_bracket(q, r), p)
            + lie_bracket(lie_bracket(r, p), q)
        )
        assert total.is_zero()

    @given(lie_elements(degree=1), lie_elements(degree=2))
    def test_antisymmetry(self, p, q):
        assert lie_bracket(p, q) == -lie_bracket(q, p)

    def test_dynkin_eigenvalue(self):
        p = parse_lie("[[a1,b1],b2]", H2)
        t = lie_to_tensor(p)
        assert dynkin_map(t) == t.scale(3)

    def test_non_lie_rejected(self):
        with pytest.raises(NotLieElement):
            tensor_to_lie(TensorPoly(H2, {(0, 2): 1}), 2)
        with pytest.raises(NotLieElement):
            tensor_to_lie(TensorPoly(H2, {(0,): 1, (0, 2): 1}), 2)
        with pytest.raises(NotLieElement):
            tensor_to_lie(TensorPoly(H2, {(0, 2): 1, (2, 0): 1}), 2)  # symmetric

    def test_lie_expansion_reverses_with_sign(self):
        # degree-k Lie expansions are (-1)^(k-1)-eigenvectors of word reversal,
        # so graded_bar acts as -1 on them in every degree
        for text, k in [("[a1,b1]", 2), ("[[a1,b1],b2]", 3), ("[[[a1,b1],b2],a2]", 4)]:
            terms = tensorlie._lie_terms(parse_lie(text, H2))
            assert graded_bar(terms) == {w: -c for w, c in terms.items()}, text


def random_lie(rng, alphabet, degree, max_terms=4):
    basis = lyndon_words(alphabet.size, degree)
    coords = {rng.choice(basis): rng.randrange(-3, 4) for _ in range(rng.randrange(1, max_terms + 1))}
    return LiePoly(alphabet, degree, coords)


def random_word(rng, alphabet, degree):
    return tuple(rng.randrange(alphabet.size) for _ in range(degree))


class TestPeelOracles:
    """The Lyndon peel against the Dynkin criterion it replaces inside the
    Lie layer, on seeded random inputs."""

    def test_bracket_matches_certified_route(self):
        rng = random.Random(31)
        for _ in range(150):
            alphabet = surface_alphabet(rng.randrange(1, 4))
            dp, dq = rng.randrange(1, 4), rng.randrange(1, 3)
            p, q = random_lie(rng, alphabet, dp), random_lie(rng, alphabet, dq)
            tp, tq = lie_to_tensor(p), lie_to_tensor(q)
            assert lie_bracket(p, q) == tensor_to_lie(tp.concat(tq) - tq.concat(tp), dp + dq)

    def test_peel_raises_exactly_when_dynkin_fails(self):
        rng = random.Random(32)
        verdicts = set()
        for trial in range(600):
            alphabet = surface_alphabet(rng.randrange(1, 3))
            k = rng.randrange(2, 5)
            t = lie_to_tensor(random_lie(rng, alphabet, k)) if trial % 3 else TensorPoly(alphabet)
            for _ in range(trial % 4):
                t = t + TensorPoly(alphabet, {random_word(rng, alphabet, k): rng.choice([-2, -1, 1, 2])})
            is_lie = dynkin_map(t) == t.scale(k)
            try:
                peeled = LiePoly(alphabet, k, tensorlie._peel(dict(t.terms)))
            except NotLieElement:
                assert not is_lie, t
                verdicts.add(False)
            else:
                assert is_lie, t
                assert lie_to_tensor(peeled) == t
                verdicts.add(True)
        assert verdicts == {True, False}

    def test_dynkin_runs_at_the_boundaries_only(self, monkeypatch):
        twist = johnson.annulus_twist(2)
        calls = []
        dynkin = tensorlie.dynkin_map

        def counted(t):
            calls.append(t)
            return dynkin(t)

        monkeypatch.setattr(tensorlie, "dynkin_map", counted)
        p = parse_lie("[[a1,b1],b2]", H2)
        assert len(calls) == 1
        # tau certifies each nonzero value: one Dynkin check per value
        values = johnson.tau(twist, 1).values
        assert len(calls) == 1 + sum(not v.is_zero() for v in values) == 4
        tensor_to_lie(lie_to_tensor(p), 3)
        assert len(calls) == 5
        lie_bracket(p, lie_letter(H2, 1))
        assert len(calls) == 5

    def test_tau_rejects_non_lie_expansion(self, monkeypatch):
        # every error word expands to a symmetric, non-Lie degree-2 part:
        # the degree read passes (degree 1), the Dynkin check refuses it
        fake = TensorPoly(H2, {(): 1, (0, 2): 1, (2, 0): 1})
        monkeypatch.setattr(johnson, "magnus_expansion", lambda w, k: fake)
        with pytest.raises(NotLieElement):
            johnson.tau(johnson.annulus_twist(2), 1)


def top_class(w, k: int) -> LiePoly:
    """The degree-k class of a word in the k-th lower central series term,
    as tau reads it: the top degree of the expansion, certified Lie."""
    return tensor_to_lie(magnus_of_word(w, k).degree_part(k), k)


class TestMagnus:
    def test_single_letter(self):
        t = magnus_of_word(alpha(1, 2), 3)
        assert t == ONE + tensor_letter(H2, 0)

    def test_inverse_is_geometric_series(self):
        t = magnus_of_word(~alpha(1, 2), 2)
        assert t == TensorPoly(H2, {(): 1, (0,): -1, (0, 0): 1})

    def test_multiplicative_up_to_truncation(self):
        u = parse_word("a1 b2^-1", 2)
        v = parse_word("b2 a2", 2)
        lhs = magnus_of_word(u * v, 3)
        rhs = magnus_of_word(u, 3).concat(magnus_of_word(v, 3), truncate=3)
        assert lhs == rhs

    def test_commutator_leading_term(self):
        w = commutator(alpha(1, 2), beta(1, 2))
        assert top_class(w, 2) == parse_lie("[a1,b1]", H2)

    def test_nested_commutator(self):
        g = 2
        w = commutator(commutator(alpha(1, g), beta(1, g)), beta(2, g))
        assert top_class(w, 3) == parse_lie("[[a1,b1],b2]", H2)

    def test_handlebody_words(self):
        w = GroupWord("handlebody", 2, [1, 2, -1, -2])
        t = magnus_of_word(w, 2)
        assert t.degree_part(2) == TensorPoly(
            handlebody_alphabet(2), {(0, 1): 1, (1, 0): -1}
        )


class TestSym:
    def test_symmetrize_kills_commutators(self):
        terms = tensorlie._lie_terms(parse_lie("[a1,b1]", H2))
        assert symmetrize(terms, H2).is_zero()

    def test_monomial_rendering(self):
        terms = {(0, 0, 3): 2, (1,): -1}
        assert render_sym(symmetrize(terms, H2)) == "-x2 + 2*x1^2*x4"


class TestRenderParse:
    @pytest.mark.parametrize(
        "text",
        ["[a1,b1]", "-[b1,b2] + 2*[a1,b2]", "a1 - 2*b2", "3*[[a1,b1],b2] - [[a1,a2],b1]"],
    )
    def test_round_trip(self, text):
        p = parse_lie(text, H2)
        assert parse_lie(render_lie(p), H2) == p

    def test_non_lyndon_brackets_normalize(self):
        assert parse_lie("[b1,a1]", H2) == -parse_lie("[a1,b1]", H2)

    def test_handlebody_letters(self):
        p = parse_lie("[B1,[B2,B3]]", handlebody_alphabet(3))
        assert p.degree == 3

    @pytest.mark.parametrize("bad", ["a1 + [a1,b1]", "[a1,b1", "[a1 b1]", "c1", "2*", ""])
    def test_rejects(self, bad):
        with pytest.raises(ParseError):
            parse_lie(bad, H2)

    def test_rejects_wrong_alphabet_letter(self):
        with pytest.raises(ParseError):
            parse_lie("[B1,B2]", H2)

    def test_render_zero(self):
        assert render_lie(LiePoly(H2, 2)) == "0"


# the Lie layer's argument guards, which no other test reaches
@pytest.mark.parametrize(
    "build,error,message",
    [
        (lambda: surface_alphabet(2).letter_name(4), ValueError, "letter 4 out of range"),
        (lambda: lyndon_words(2, 0), ValueError, "degree must be at least 1"),
        (lambda: LiePoly(H2, 2, {(0, 9): 1}), ValueError, r"word \(0, 9\) has letters outside the alphabet"),
        (
            lambda: lie_bracket(lie_letter(H2, 0), lie_letter(surface_alphabet(3), 1)),
            AmbientMismatch,
            "Lie elements over different alphabets",
        ),
    ],
    ids=["letter-name", "lyndon-degree", "lie-key", "bracket-alphabets"],
)
def test_lie_guards_raise(build, error, message):
    with pytest.raises(error, match=message):
        build()
