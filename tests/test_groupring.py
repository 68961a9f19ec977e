import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lagtrace.errors import AmbientMismatch, NotMonomial, ParseError
from lagtrace.freegroup import (
    HANDLEBODY,
    SURFACE,
    FreeGroupMap,
    alpha,
    apply,
    beta,
    commutator,
    identity_word,
    parse_word,
    word_from_codes,
    _rank,
)
from lagtrace.groupring import (
    GroupRingElem,
    LaurentElem,
    apply_ring,
    as_group_element,
    fox_abelian_column,
    fox_bar_column,
    fox_bar_expand_column,
    fox_derivative,
    fox_expand_column,
    laurent_det,
    laurent_one,
    mat_apply,
    mat_equal,
    mat_mul,
    render_laurent,
    render_ring,
)
from lagtrace.johnson import sample_Ak
from lagtrace.tensorlie import (
    handlebody_alphabet,
    surface_alphabet,
)
from oracles import (
    abelianize_ring,
    bar,
    laurent_bar,
    laurent_zero,
    magnus_expand,
    oracle_fox_abelian_column,
    oracle_fox_derivative,
    parse_laurent,
    random_reduced_word,
    ring_one,
    ring_word,
    ring_zero,
)


def rand_word(rng, genus, length, ambient=SURFACE):
    n = 2 * genus if ambient is SURFACE else genus
    codes = []
    for _ in range(length):
        c = rng.randrange(1, n + 1)
        codes.append(c if rng.random() < 0.5 else -c)
    return word_from_codes(ambient, genus, codes)


words2 = st.lists(
    st.integers(min_value=1, max_value=4).flatmap(
        lambda c: st.sampled_from([c, -c])
    ),
    max_size=12,
).map(lambda cs: word_from_codes(SURFACE, 2, cs))


class TestRingArithmetic:
    def test_one_is_neutral(self):
        e = ring_word(alpha(1, 2)) + ring_word(beta(2, 2)).scale(3)
        assert ring_one(SURFACE, 2) * e == e
        assert e * ring_one(SURFACE, 2) == e

    def test_zero_absorbs(self):
        e = ring_word(alpha(1, 2)) - ring_word(beta(1, 2))
        assert e + ring_zero(SURFACE, 2) == e
        assert (e - e) == ring_zero(SURFACE, 2)

    @given(words2, words2)
    def test_multiplication_respects_group_product(self, u, v):
        assert ring_word(u) * ring_word(v) == ring_word(u * v)

    def test_distributive(self):
        a = ring_word(alpha(1, 2))
        b = ring_word(beta(1, 2))
        c = ring_word(beta(2, 2)) - ring_one(SURFACE, 2)
        assert (a + b) * c == a * c + b * c

    def test_ambient_mismatch(self):
        with pytest.raises(AmbientMismatch):
            ring_word(alpha(1, 2)) + ring_word(word_from_codes(HANDLEBODY, 2, [1]))

    @given(words2, words2)
    def test_bar_antihomomorphism(self, u, v):
        x = ring_word(u) - ring_one(SURFACE, 2)
        y = ring_word(v) + ring_word(u).scale(2)
        assert bar(x * y) == bar(y) * bar(x)

    @given(words2)
    def test_bar_involution(self, u):
        e = ring_word(u) - ring_one(SURFACE, 2).scale(3)
        assert bar(bar(e)) == e

    def test_apply_ring(self):
        g = 2
        f = FreeGroupMap(
            SURFACE, g, [alpha(1, g), alpha(2, g), beta(1, g) * alpha(1, g), beta(2, g)]
        )
        e = ring_word(beta(1, g)) - ring_one(SURFACE, g)
        assert apply_ring(f, e) == ring_word(beta(1, g) * alpha(1, g)) - ring_one(SURFACE, g)


class TestFoxDerivative:
    def test_generator_delta(self):
        for j in range(1, 5):
            for i in range(1, 5):
                d = fox_derivative(word_from_codes(SURFACE, 2, [j]), i)
                expected = ring_one(SURFACE, 2) if i == j else ring_zero(SURFACE, 2)
                assert d == expected
        for i in (0, 5, -1):
            with pytest.raises(ValueError, match=r"generator index .* out of range 1\.\.4"):
                fox_derivative(word_from_codes(SURFACE, 2, [1]), i)

    def test_inverse_rule(self):
        # d(x^-1)/dx = -x^-1
        w = word_from_codes(SURFACE, 2, [-1])
        assert fox_derivative(w, 1) == ring_word(w).scale(-1)

    @given(words2, words2)
    @settings(max_examples=40)
    def test_product_rule(self, u, v):
        for j in (1, 3):
            lhs = fox_derivative(u * v, j)
            rhs = fox_derivative(u, j) + ring_word(u) * fox_derivative(v, j)
            assert lhs == rhs

    @given(words2)
    @settings(max_examples=60)
    def test_fundamental_identity(self, u):
        # u - 1 = sum_j (du/dgamma_j)(gamma_j - 1)
        total = ring_zero(SURFACE, 2)
        for j in range(1, 5):
            gj = ring_word(word_from_codes(SURFACE, 2, [j]))
            total = total + fox_derivative(u, j) * (gj - ring_one(SURFACE, 2))
        assert total == ring_word(u) - ring_one(SURFACE, 2)

    @given(words2)
    @settings(max_examples=25)
    def test_chain_rule(self, w):
        g = 2
        f = FreeGroupMap(
            SURFACE,
            g,
            [alpha(1, g) * beta(2, g), alpha(2, g), beta(1, g), beta(2, g) * alpha(1, g)],
        )
        for i in (1, 2, 4):
            lhs = fox_derivative(apply(f, w), i)
            rhs = ring_zero(SURFACE, g)
            for l in range(1, 2 * g + 1):
                inner = apply_ring(f, fox_derivative(w, l))
                outer = fox_derivative(f.images[l - 1], i)
                rhs = rhs + inner * outer
            assert lhs == rhs

    def test_commutator_derivative(self):
        g = 2
        q = commutator(alpha(1, g), beta(1, g))
        d1 = fox_derivative(q, 1)
        # d([a1,b1])/da1 = 1 - a1 b1 a1^-1
        expected = ring_one(SURFACE, g) - ring_word(
            alpha(1, g) * beta(1, g) * ~alpha(1, g)
        )
        assert d1 == expected


class TestExpansionColumns:
    @given(words2, st.integers(min_value=1, max_value=3))
    @settings(max_examples=30)
    def test_streaming_matches_literal(self, w, n):
        col = fox_expand_column(w, n)
        for i in range(1, 5):
            literal = magnus_expand(fox_derivative(w, i), n)
            assert col[i - 1] == literal

    @given(words2, st.integers(min_value=1, max_value=3))
    @settings(max_examples=30)
    def test_streaming_bar_matches_literal(self, w, n):
        col = fox_bar_expand_column(w, n)
        for i in range(1, 5):
            literal = magnus_expand(bar(fox_derivative(w, i)), n)
            assert col[i - 1] == literal

    @given(words2)
    @settings(max_examples=40)
    def test_abelian_column_matches_literal(self, w):
        col = fox_abelian_column(w)
        for i in range(1, 5):
            literal = abelianize_ring(bar(fox_derivative(w, i)))
            assert col[i - 1] == literal

    def test_long_word_columns_run_fast(self):
        rng = random.Random(7)
        w = rand_word(rng, 2, 4000)
        col = fox_abelian_column(w)
        assert len(col) == 4


def _column_words():
    """Random reduced surface and handlebody words at genus 2..4: the empty
    word, every single letter, and lengths 2..40."""
    rng = random.Random(26)
    for ambient, genus in [(SURFACE, 2), (SURFACE, 3), (HANDLEBODY, 2), (HANDLEBODY, 4)]:
        yield identity_word(ambient, genus)
        for x in range(1, _rank(ambient, genus) + 1):
            yield word_from_codes(ambient, genus, [x])
            yield word_from_codes(ambient, genus, [-x])
        for length in range(2, 41, 2):
            yield random_reduced_word(rng, ambient, genus, length)


class TestOnePassColumns:
    """The one-pass Fox routes against the literal ones they replace."""

    def test_fox_derivative_matches_the_rebuilt_prefixes(self):
        for w in _column_words():
            for i in range(1, _rank(w.ambient, w.genus) + 1):
                assert fox_derivative(w, i) == oracle_fox_derivative(w, i), (w, i)

    def test_bar_column_is_the_bar_of_every_derivative(self):
        for w in _column_words():
            col = fox_bar_column(w)
            assert len(col) == _rank(w.ambient, w.genus)
            for i, entry in enumerate(col, start=1):
                assert entry == bar(oracle_fox_derivative(w, i)), (w, i)

    def test_abelian_column_is_the_bar_of_the_unbarred_column(self):
        for w in _column_words():
            col = fox_abelian_column(w)
            assert col == [laurent_bar(e) for e in oracle_fox_abelian_column(w)], w
            for i, entry in enumerate(col, start=1):
                assert entry == abelianize_ring(bar(oracle_fox_derivative(w, i))), (w, i)

    def test_long_sampled_image(self):
        # the longest image of a pinned degree-3 stream, 3,345 letters
        images = [img for fm in sample_Ak(3, 3, 4, 0) for img in fm.rep.forward.images]
        w = max(images, key=len)
        assert len(w) > 3000
        col = fox_bar_column(w)
        for i in range(1, 7):
            d = fox_derivative(w, i)
            assert d == oracle_fox_derivative(w, i)
            assert col[i - 1] == bar(d)


class TestLaurent:
    def test_abelianize_collapses_commutator(self):
        q = commutator(alpha(1, 2), beta(1, 2))
        assert abelianize_ring(ring_word(q)) == laurent_one(surface_alphabet(2))

    def test_as_group_element(self):
        a = handlebody_alphabet(2)
        x = parse_laurent("B2^-1", a)
        expo, sign = as_group_element(x)
        assert expo == (0, -1)
        assert sign == 1
        expo2, sign2 = as_group_element(laurent_one(a) - parse_laurent("B1", a) - laurent_one(a))
        assert expo2 == (1, 0)
        assert sign2 == -1

    def test_as_group_element_rejects_sums(self):
        a = handlebody_alphabet(2)
        with pytest.raises(NotMonomial):
            as_group_element(laurent_one(a) + parse_laurent("B1", a))
        with pytest.raises(NotMonomial):
            as_group_element(parse_laurent("B1", a).scale(2))
        with pytest.raises(NotMonomial):
            as_group_element(laurent_zero(a))

    def test_laurent_bar_negates_exponents(self):
        a = surface_alphabet(2)
        x = parse_laurent("a1*b2^-2", a) + laurent_one(a).scale(3)
        y = laurent_bar(x)
        assert y == parse_laurent("a1^-1*b2^2", a) + laurent_one(a).scale(3)

    def test_laurent_render_parse_round_trip(self):
        a = surface_alphabet(2)
        for text in ("1 - 2*b1^-1 + b1^-2", "a2^-1 - a2^-1*b1^-1", "b2^-2"):
            assert render_laurent(parse_laurent(text, a)) == text

    def test_laurent_bad_exponents_are_parse_errors(self):
        a = surface_alphabet(2)
        for text in ("b1^--3", "b1^-", "b1^+2", "b1^x", "3*", ""):
            with pytest.raises(ParseError):
                parse_laurent(text, a)


def perm_det(mat, alphabet):
    # permutation-expansion oracle, fine for n <= 4
    from itertools import permutations

    n = len(mat)
    total = laurent_zero(alphabet)
    for p in permutations(range(n)):
        sign = 1
        seen = list(p)
        for i in range(n):
            for j in range(i + 1, n):
                if seen[i] > seen[j]:
                    sign = -sign
        term = laurent_one(alphabet) if sign == 1 else laurent_one(alphabet).scale(-1)
        for i in range(n):
            term = term * mat[i][p[i]]
        total = total + term
    return total


class TestDeterminant:
    def test_worked_two_by_two(self):
        a = handlebody_alphabet(2)
        one = laurent_one(a)
        m = (
            (parse_laurent("B2^-1", a), laurent_zero(a)),
            (one - parse_laurent("B1^-1", a), one),
        )
        assert render_laurent(laurent_det(m)) == "B2^-1"

    def test_diagonal_monomials(self):
        a = surface_alphabet(2)
        m = (
            (parse_laurent("a1", a), laurent_zero(a), laurent_zero(a)),
            (laurent_zero(a), parse_laurent("b1^-2", a), laurent_zero(a)),
            (laurent_zero(a), laurent_zero(a), parse_laurent("b2", a)),
        )
        assert laurent_det(m) == parse_laurent("a1*b1^-2*b2", a)

    def test_swap_changes_sign(self):
        a = surface_alphabet(2)
        one = laurent_one(a)
        z = laurent_zero(a)
        m = ((z, one), (one, z))
        assert laurent_det(m) == one.scale(-1)

    def test_against_permutation_expansion(self):
        a = surface_alphabet(2)
        rng = random.Random(11)
        for _ in range(25):
            n = rng.choice((2, 3, 4))
            mat = tuple(
                tuple(
                    LaurentElem(
                        a,
                        {
                            tuple(rng.randrange(-1, 2) for _ in range(4)): rng.randrange(-2, 3)
                        },
                    )
                    for _ in range(n)
                )
                for _ in range(n)
            )
            assert laurent_det(mat) == perm_det(mat, a)

    def test_multiplicative(self):
        a = handlebody_alphabet(2)
        rng = random.Random(3)

        def rand_mat(n):
            return tuple(
                tuple(
                    LaurentElem(
                        a, {tuple(rng.randrange(-1, 2) for _ in range(2)): rng.randrange(-1, 2)}
                    )
                    for _ in range(n)
                )
                for _ in range(n)
            )

        for _ in range(10):
            A = rand_mat(3)
            B = rand_mat(3)
            AB = tuple(
                tuple(
                    sum(
                        (A[i][k] * B[k][j] for k in range(3)),
                        laurent_zero(a),
                    )
                    for j in range(3)
                )
                for i in range(3)
            )
            assert laurent_det(AB) == laurent_det(A) * laurent_det(B)


class TestRingMatrices:
    def test_identity_neutral(self):
        one, zero = ring_one(SURFACE, 2), ring_zero(SURFACE, 2)
        idm = tuple(tuple(one if i == j else zero for j in range(3)) for i in range(3))
        m = tuple(
            tuple(
                ring_word(alpha(1, 2)) if i == j else ring_zero(SURFACE, 2)
                for j in range(3)
            )
            for i in range(3)
        )
        assert mat_equal(mat_mul(idm, m), m)
        assert mat_equal(mat_mul(m, idm), m)

    def test_mat_mul_matches_the_entrywise_sums(self):
        # entries with cancelling seams and coefficients that cancel
        rng = random.Random(5)
        for ambient, genus in [(SURFACE, 2), (HANDLEBODY, 3)]:
            def entry():
                terms: dict = {}
                for _ in range(rng.randrange(4)):
                    w = random_reduced_word(rng, ambient, genus, rng.randrange(4))
                    terms[w] = terms.get(w, 0) + rng.choice((-2, -1, 1, 2))
                return GroupRingElem(ambient, genus, terms)

            for n, m, p in [(1, 1, 1), (2, 3, 2), (3, 3, 3), (4, 2, 3)]:
                A = tuple(tuple(entry() for _ in range(m)) for _ in range(n))
                B = tuple(tuple(entry() for _ in range(p)) for _ in range(m))
                expected = tuple(
                    tuple(
                        sum((A[i][k] * B[k][j] for k in range(m)), ring_zero(ambient, genus))
                        for j in range(p)
                    )
                    for i in range(n)
                )
                assert mat_equal(mat_mul(A, B), expected)

    def test_mat_mul_rejects_mixed_rings(self):
        one2, one3 = ring_one(SURFACE, 2), ring_one(SURFACE, 3)
        with pytest.raises(AmbientMismatch):
            mat_mul(((one2,),), ((one3,),))
        with pytest.raises(AmbientMismatch):
            mat_mul(((one2,),), ((laurent_one(surface_alphabet(2)),),))
        with pytest.raises(ValueError):
            mat_mul(((one2, one2),), ((one2,),) * 3)

    def test_mat_apply(self):
        g = 2
        f = FreeGroupMap(
            SURFACE, g, [alpha(1, g), alpha(2, g), beta(1, g) * alpha(1, g), beta(2, g)]
        )
        m = ((ring_word(beta(1, g)),),)
        assert mat_equal(mat_apply(f, m), ((ring_word(beta(1, g) * alpha(1, g)),),))


class TestMagnusExpand:
    def test_generator(self):
        e = ring_word(alpha(1, 2))
        t = magnus_expand(e, 2)
        assert render_tensor_safe(t) == "1 + a1"

    def test_inverse_geometric(self):
        e = ring_word(word_from_codes(SURFACE, 2, [-3]))
        t = magnus_expand(e, 3)
        assert render_tensor_safe(t) == "1 - b1 + b1*b1 - b1*b1*b1"

    @given(words2, words2)
    @settings(max_examples=25)
    def test_multiplicative_up_to_truncation(self, u, v):
        n = 2
        lhs = magnus_expand(ring_word(u * v), n)
        rhs = magnus_expand(ring_word(u), n).concat(magnus_expand(ring_word(v), n), n)
        assert lhs == rhs


def render_tensor_safe(t):
    from lagtrace.tensorlie import render_tensor

    return render_tensor(t)
