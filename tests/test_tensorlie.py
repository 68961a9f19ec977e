import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from lagtrace.errors import NotInGamma, NotLieElement, ParseError
from lagtrace.freegroup import (
    SURFACE,
    alpha,
    beta,
    commutator,
    parse_word,
    word_from_codes,
)
import lagtrace.tensorlie as tensorlie
from lagtrace.tensorlie import (
    Alphabet,
    LiePoly,
    TensorPoly,
    dynkin_map,
    first_letter_decompose,
    graded_bar,
    handlebody_alphabet,
    is_lyndon,
    last_letter_decompose,
    lcs_class,
    lcs_degree,
    lie_bracket,
    lie_letter,
    lie_to_tensor,
    lie_zero,
    lyndon_words,
    magnus_of_word,
    parse_lie,
    render_lie,
    render_sym,
    render_tensor,
    std_bracketing,
    surface_alphabet,
    symmetrize,
    tensor_letter,
    tensor_to_lie,
    tensor_unit,
    witt_dimension,
)

H2 = surface_alphabet(2)


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

    def test_all_lyndon_and_sorted(self):
        ws = lyndon_words(3, 4)
        assert list(ws) == sorted(ws)
        assert all(is_lyndon(w) for w in ws)

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


class TestTensorAlgebra:
    def test_concat_and_truncate(self):
        x = tensor_letter(H2, 0)
        y = tensor_letter(H2, 2)
        assert render_tensor(x.concat(y)) == "a1*b1"
        t = (tensor_unit(H2) + x).concat(tensor_unit(H2) + y, truncate=1)
        assert t.degrees() == {0, 1}

    def test_degree_part(self):
        t = tensor_unit(H2) + tensor_letter(H2, 1)
        assert t.degree_part(0) == tensor_unit(H2)
        assert t.degree_part(2).is_zero()

    def test_graded_bar_signs(self):
        t = TensorPoly(H2, {(0, 2): 1})
        assert graded_bar(t) == TensorPoly(H2, {(2, 0): 1})
        t3 = TensorPoly(H2, {(0, 1, 2): 1})
        assert graded_bar(t3) == TensorPoly(H2, {(2, 1, 0): -1})

    def test_graded_bar_involutive(self):
        t = TensorPoly(H2, {(0, 2): 2, (1, 2, 3): -1})
        assert graded_bar(graded_bar(t)) == t


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
            t = lie_to_tensor(parse_lie(text, H2))
            assert graded_bar(t) == t.scale(-1), text


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
                peeled = tensorlie._peel(alphabet, dict(t.terms), k)
            except NotLieElement:
                assert not is_lie, t
                verdicts.add(False)
            else:
                assert is_lie, t
                assert lie_to_tensor(peeled) == t
                verdicts.add(True)
        assert verdicts == {True, False}

    def test_dynkin_runs_at_the_boundaries_only(self, monkeypatch):
        calls = []
        dynkin = tensorlie.dynkin_map

        def counted(t):
            calls.append(t)
            return dynkin(t)

        monkeypatch.setattr(tensorlie, "dynkin_map", counted)
        p = parse_lie("[[a1,b1],b2]", H2)
        assert len(calls) == 1
        lcs_class(commutator(alpha(1, 2), beta(1, 2)), 2)
        tensor_to_lie(lie_to_tensor(p), 3)
        assert len(calls) == 3
        lie_bracket(p, lie_letter(H2, 1))
        assert len(calls) == 3

    def test_lcs_class_rejects_non_lie_expansion(self, monkeypatch):
        fake = TensorPoly(H2, {(): 1, (0, 2): 1, (2, 0): 1})
        monkeypatch.setattr(tensorlie, "magnus_of_word", lambda w, k: fake)
        with pytest.raises(NotLieElement):
            lcs_class(commutator(alpha(1, 2), beta(1, 2)), 2)


class TestMagnus:
    def test_single_letter(self):
        t = magnus_of_word(alpha(1, 2), 3)
        assert t == tensor_unit(H2) + tensor_letter(H2, 0)

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
        assert lcs_degree(w, 4) == 2
        assert lcs_class(w, 2) == parse_lie("[a1,b1]", H2)

    def test_nested_commutator(self):
        g = 2
        w = commutator(commutator(alpha(1, g), beta(1, g)), beta(2, g))
        assert lcs_degree(w, 4) == 3
        assert lcs_class(w, 3) == parse_lie("[[a1,b1],b2]", H2)

    def test_class_of_shallow_word_raises(self):
        with pytest.raises(NotInGamma):
            lcs_class(alpha(1, 2), 2)

    def test_deep_word_reports_none(self):
        w = commutator(commutator(alpha(1, 2), beta(1, 2)), beta(2, 2))
        assert lcs_degree(w, 2) is None

    def test_handlebody_words(self):
        w = word_from_codes("handlebody", 2, [1, 2, -1, -2])
        t = magnus_of_word(w, 2)
        assert t.degree_part(2) == TensorPoly(
            handlebody_alphabet(2), {(0, 1): 1, (1, 0): -1}
        )


class TestDecompose:
    def test_last_letter(self):
        t = lie_to_tensor(parse_lie("[[a1,b1],b2]", H2))
        dec = last_letter_decompose(t)
        assert dec[3] == TensorPoly(H2, {(0, 2): 1, (2, 0): -1})
        assert dec[0] == TensorPoly(H2, {(3, 2): 1})
        assert dec[2] == TensorPoly(H2, {(3, 0): -1})

    def test_first_letter(self):
        t = lie_to_tensor(parse_lie("[a1,b1]", H2))
        dec = first_letter_decompose(t)
        assert dec[0] == TensorPoly(H2, {(2,): 1})
        assert dec[2] == TensorPoly(H2, {(0,): -1})

    def test_reassembly(self):
        t = lie_to_tensor(parse_lie("[[a1,a2],b1] + 2*[a1,[b1,b2]]", H2))
        rebuilt = TensorPoly(H2, {})
        for i, part in last_letter_decompose(t).items():
            rebuilt = rebuilt + part.concat(tensor_letter(H2, i))
        assert rebuilt == t

    def test_constant_rejected(self):
        with pytest.raises(ValueError):
            last_letter_decompose(tensor_unit(H2))


class TestSym:
    def test_symmetrize_kills_commutators(self):
        t = lie_to_tensor(parse_lie("[a1,b1]", H2))
        assert symmetrize(t).is_zero()

    def test_monomial_rendering(self):
        t = TensorPoly(H2, {(0, 0, 3): 2, (1,): -1})
        assert render_sym(symmetrize(t)) == "-x2 + 2*x1^2*x4"


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
        assert render_lie(lie_zero(H2, 2)) == "0"
