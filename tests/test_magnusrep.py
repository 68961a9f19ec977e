import pytest

import lagtrace.derivations as derivations
import lagtrace.magnusrep as magnusrep
from lagtrace.derivations import _handlebody_values, _value_terms
from lagtrace.errors import DegreeTooLow, NotInG, NotInHandlebodyGroup, NotMonomial
from lagtrace.freegroup import (
    SURFACE,
    FreeGroupMap,
    GroupWord,
    MappingClassRep,
    alpha,
    beta,
    induced_handlebody_map,
    mcr_commutator,
    mcr_compose,
    mcr_conjugate,
    mcr_identity,
    mcr_inverse,
)
from lagtrace.groupring import (
    laurent_one,
    mat_apply,
    mat_equal,
    mat_mul,
    render_laurent,
)
from lagtrace.johnson import (
    annulus_twist,
    handle_swap,
    handlebody_sample_library,
    johnson_degree,
    meridian_twist,
    sample_Ak,
    tau,
)
from lagtrace.magnusrep import (
    additive_form,
    crossed_check,
    det_handlebody,
    handlebody_fox_matrix,
    handlebody_magnus,
    magnus_rep,
    truncated_identity_check,
    truncated_identity_check_A,
    verify_det_contraction,
    verify_theorem_A,
    verify_theorem_B,
)
from lagtrace.packed import _expands_to
from lagtrace.tensorlie import _merge, graded_bar, handlebody_alphabet, render_sym
from oracles import (
    abelianize_ring,
    fox_matrix,
    laurent_zero,
    oracle_expands_to,
    oracle_truncation_identity,
    parse_laurent,
    ring_one,
    ring_zero,
)
from test_johnson import CERTIFIED_STREAMS


def laurent_mat_mul(A, B, alphabet):
    n = len(A)
    return tuple(
        tuple(
            sum((A[i][k] * B[k][j] for k in range(n)), laurent_zero(alphabet))
            for j in range(n)
        )
        for i in range(n)
    )


class TestFoxMatrix:
    def test_identity_map(self):
        m = mcr_identity(2)
        M = fox_matrix(m)
        for i in range(4):
            for j in range(4):
                expected = ring_one(SURFACE, 2) if i == j else ring_zero(SURFACE, 2)
                assert M[i][j] == expected

    def test_magnus_rep_matches_literal_abelianization(self):
        for m in (annulus_twist(2), meridian_twist(2), handle_swap(2, 1, 2)):
            fast = magnus_rep(m)
            literal = fox_matrix(m)
            for i in range(4):
                for j in range(4):
                    assert fast[i][j] == abelianize_ring(literal[i][j])


class TestHandlebodyMatrix:
    def test_worked_example(self):
        M = handlebody_magnus(annulus_twist(2))
        assert render_laurent(M[0][0]) == "B2^-1"
        assert M[0][1].is_zero()
        assert render_laurent(M[1][0]) == "1 - B1^-1"
        assert render_laurent(M[1][1]) == "1"

    def test_identity(self):
        M = handlebody_magnus(mcr_identity(2))
        a = handlebody_alphabet(2)
        assert M[0][0] == laurent_one(a)
        assert M[1][1] == laurent_one(a)
        assert M[0][1].is_zero() and M[1][0].is_zero()

    def test_swap_is_permutation(self):
        M = handlebody_magnus(handle_swap(2, 1, 2))
        a = handlebody_alphabet(2)
        assert M[0][1] == laurent_one(a)
        assert M[1][0] == laurent_one(a)
        assert M[0][0].is_zero() and M[1][1].is_zero()

    def test_requires_handlebody_class(self):
        g = 2
        fwd = FreeGroupMap(
            SURFACE, g, [alpha(1, g) * beta(1, g), alpha(2, g), beta(1, g), beta(2, g)]
        )
        inv = FreeGroupMap(
            SURFACE, g, [alpha(1, g) * ~beta(1, g), alpha(2, g), beta(1, g), beta(2, g)]
        )
        m = MappingClassRep(fwd, inv)
        with pytest.raises(NotInHandlebodyGroup):
            handlebody_fox_matrix(m)


class TestDeterminant:
    def test_worked_example(self):
        det = det_handlebody(annulus_twist(2))
        assert render_laurent(det) == "B2^-1"
        assert render_sym(additive_form(det)) == "-x2"

    def test_degree_two_sample_has_trivial_det(self):
        for fm in sample_Ak(2, 2, 3, seed=7):
            det = det_handlebody(fm.rep)
            assert det == laurent_one(handlebody_alphabet(2))

    def test_multiplicative_on_degree_one(self):
        phi = annulus_twist(2)
        psi = mcr_conjugate(phi, handle_swap(2, 1, 2))
        both = det_handlebody(mcr_compose(phi, psi))
        assert both == det_handlebody(phi) * det_handlebody(psi)

    def test_additive_form_rejects_sums(self):
        a = handlebody_alphabet(2)
        with pytest.raises(NotMonomial):
            additive_form(laurent_one(a) + parse_laurent("B1", a))
        with pytest.raises(NotMonomial):
            additive_form(parse_laurent("B1", a).scale(-1))


class TestCrossedLaw:
    def test_library_pairs(self):
        import random

        lib = handlebody_sample_library(2)
        rng = random.Random(170)
        for _ in range(8):
            m = rng.choice(lib)
            n = rng.choice(lib)
            assert crossed_check(m, n)

    def test_identity_consequence(self):
        # Id = r(psi) (psi . r(psi^-1))
        for psi in (annulus_twist(2), meridian_twist(2)):
            assert crossed_check(psi, mcr_inverse(psi))

    def test_surface_analogue(self):
        # the crossed law over the full surface group ring, on the literal Fox matrices
        def crossed_check_surface(m, n):
            lhs = fox_matrix(mcr_compose(m, n))
            rhs = mat_mul(fox_matrix(m), mat_apply(m.forward, fox_matrix(n)))
            return mat_equal(lhs, rhs)

        phi = annulus_twist(2)
        assert crossed_check_surface(phi, meridian_twist(2))
        assert crossed_check_surface(handle_swap(2, 1, 2), phi)

    def test_magnus_rep_multiplicative_on_torelli(self):
        phi = annulus_twist(2)
        psi = mcr_conjugate(phi, handle_swap(2, 1, 2))
        from lagtrace.tensorlie import surface_alphabet

        a = surface_alphabet(2)
        lhs = magnus_rep(mcr_compose(phi, psi))
        rhs = laurent_mat_mul(magnus_rep(phi), magnus_rep(psi), a)
        assert lhs == rhs


class TestTruncatedIdentities:
    def test_surface_degree_one(self):
        assert truncated_identity_check(annulus_twist(2), 1)

    def test_quotient_degree_one(self):
        assert truncated_identity_check_A(annulus_twist(2), 1)

    def test_degree_two(self):
        phi = annulus_twist(2)
        comm = mcr_commutator(phi, mcr_conjugate(phi, handle_swap(2, 1, 2)))
        assert truncated_identity_check(comm, 2)
        assert truncated_identity_check_A(comm, 2)

    def test_identity_class(self):
        assert truncated_identity_check(mcr_identity(2), 1)
        assert truncated_identity_check_A(mcr_identity(2), 2)

    def test_degree_too_low(self):
        with pytest.raises(DegreeTooLow):
            truncated_identity_check(meridian_twist(2), 1)

    @pytest.mark.parametrize("k", [1, 2])
    def test_fail_on_the_derivation_of_another_class(self, monkeypatch, k):
        # two handlebody classes of degree k with different tau_k
        if k == 1:
            phi = annulus_twist(2)
            m, other = phi, mcr_conjugate(phi, handle_swap(2, 1, 2))
        else:
            m, other = (fm.rep for fm in sample_Ak(2, 2, 2, seed=7))
        assert tau(m, k) != tau(other, k)
        monkeypatch.setattr(magnusrep, "tau", lambda _, degree: tau(other, degree))
        assert truncated_identity_check(m, k) is False
        assert truncated_identity_check_A(m, k) is False

    @pytest.mark.parametrize("k", [1, 3])
    def test_fail_without_the_graded_bar(self, monkeypatch, k):
        # a degree-3 sample whose projected b-values are nonzero
        m = annulus_twist(2) if k == 1 else sample_Ak(2, 3, 1, seed=3)[0].rep
        assert truncated_identity_check(m, k) and truncated_identity_check_A(m, k)
        monkeypatch.setattr(magnusrep, "graded_bar", lambda terms: terms)
        assert truncated_identity_check(m, k) is False
        assert truncated_identity_check_A(m, k) is False

    def test_quotient_identity_requires_G(self, monkeypatch):
        monkeypatch.setattr(derivations, "is_in_G", lambda d: False)
        with pytest.raises(NotInG):
            truncated_identity_check_A(annulus_twist(2), 1)


def _inverse_expansion(j: int, terms: dict, k: int, sign: int = -1) -> dict:
    """The expansion of the j-th image's inverse, truncated at k+1, that the
    truncation identity at degree k asks for: sum_{d<=k+1} (sign X_j)^d plus
    the graded bar of the value's terms."""
    expected = graded_bar(terms)
    for d in range(k + 2):
        _merge(expected, (j,) * d, sign**d)
    return expected


def _faults(images, values, k: int):
    """(name, values) with one fault each, in the first nonzero value: a
    coefficient changed; a coefficient put on the top lane of the image's
    expansion, the highest letter it uses k+1 times; a word's last letter
    moved to its front."""
    j = next((j for j, terms in enumerate(values) if terms), 0)
    terms = values[j]
    hi = max(abs(x) for x in images[j].letters) - 1

    def at_j(new):
        return [new if i == j else v for i, v in enumerate(values)]

    for name, word in (("changed", min(terms, default=(hi,) * (k + 1))), ("top lane", (hi,) * (k + 1))):
        changed = dict(terms)
        _merge(changed, word, 1)
        yield name, at_j(changed)
    if terms:
        word = min(terms)
        moved = dict(terms)
        c = moved.pop(word)
        _merge(moved, word[-1:] + word[:-1], c)
        yield "moved", at_j(moved)


class TestPackedTruncationIdentity:
    """_truncation_identity compares the expansion of each image's inverse
    with the unit's geometric series plus the graded bar of the value, on
    packed ints; oracle_truncation_identity decodes the barred Fox columns
    and compares them as the identity states it."""

    @pytest.mark.parametrize("g,k,seed,count", CERTIFIED_STREAMS)
    def test_verdicts_match_the_column_route(self, g, k, seed, count):
        for fm in sample_Ak(g, k, count, seed):
            m = fm.rep
            d = tau(m, k)
            for images, values in (
                (m.forward.images, _value_terms(d)),
                (induced_handlebody_map(m).images, _handlebody_values(d)),
            ):
                assert magnusrep._truncation_identity(images, values, k)
                assert oracle_truncation_identity(images, values, k)
                for name, fault in _faults(images, values, k):
                    assert not magnusrep._truncation_identity(images, fault, k), name
                    assert not oracle_truncation_identity(images, fault, k), name
                # the equivalence itself, on the decoded expansion too: the
                # series alternates, and with its sign flipped it fails
                for j, (img, terms) in enumerate(zip(images, values)):
                    for sign in (-1, 1):
                        expected = _inverse_expansion(j, terms, k, sign)
                        packed = _expands_to(~img, k + 1, expected)
                        assert packed is oracle_expands_to(~img, k + 1, expected) is (sign == -1)


class TestVerifiers:
    def test_theorem_B_report(self):
        rep = verify_theorem_B(annulus_twist(2))
        assert rep["equal"] is True
        assert rep["lhs"] == "-x2"
        assert rep["rhs"] == "-x2"
        assert set(rep) == {"claim", "lhs", "rhs", "equal", "wall_time_ms"}

    def test_theorem_B_on_conjugate(self):
        phi = annulus_twist(2)
        rep = verify_theorem_B(mcr_conjugate(phi, handle_swap(2, 1, 2)))
        assert rep["equal"] is True
        assert rep["lhs"] == "-x1"

    def test_theorem_A_on_commutator(self):
        phi = annulus_twist(2)
        comm = mcr_commutator(phi, mcr_conjugate(phi, handle_swap(2, 1, 2)))
        rep = verify_theorem_A(comm, 2)
        assert rep["equal"] is True

    def test_theorem_A_needs_degree_two(self):
        with pytest.raises(ValueError):
            verify_theorem_A(annulus_twist(2), 1)

    def test_det_contraction_on_twist(self):
        rep = verify_det_contraction(annulus_twist(2))
        assert rep["equal"] is True

    def test_det_contraction_on_samples(self):
        for fm in sample_Ak(2, 1, 4, seed=23):
            assert verify_det_contraction(fm.rep)["equal"] is True

    def test_det_contraction_degree_two_gives_trivial_det(self):
        # degree-1 derivation is zero there, so the doubled contraction is
        # the zero vector and the determinant must be 1
        for fm in sample_Ak(2, 2, 2, seed=41):
            rep = verify_det_contraction(fm.rep)
            assert rep["equal"] is True
            assert "exponents [0, 0, 0, 0]" in rep["rhs"]

    def test_det_contraction_reports_a_determinant_that_is_not_a_monomial(self, monkeypatch):
        # no certified class reaches this branch: an automorphism's
        # abelianized Fox matrix is invertible, so its determinant is a
        # signed monomial.  A planted two-term determinant is reported as
        # it is, before any derivation is asked for.
        m = annulus_twist(2)
        a = magnus_rep(m)[0][0].alphabet
        det = laurent_one(a) + parse_laurent("a1", a)
        monkeypatch.setattr(magnusrep, "laurent_det", lambda M: det)

        def no_tau(m, k):
            raise AssertionError("tau asked of a determinant that is not a monomial")

        monkeypatch.setattr(magnusrep, "tau", no_tau)
        rep = verify_det_contraction(m)
        assert rep["equal"] is False
        assert rep["lhs"] == render_laurent(det) == "1 + a1"
        assert rep["rhs"] == "a single monomial"
        assert rep["claim"] == "full determinant is a monomial doubling the contraction"


def test_ambient_compared_by_value_not_identity():
    # an ambient string equal to SURFACE but not the same object, as a
    # caller that builds or reads its own strings would pass
    ambient = "".join(["sur", "face"])
    assert ambient == SURFACE and ambient is not SURFACE
    m = annulus_twist(2)

    def rebuilt(f):
        return FreeGroupMap(ambient, 2, [GroupWord(ambient, 2, im.letters) for im in f.images])

    copy = MappingClassRep(rebuilt(m.forward), rebuilt(m.inverse))
    assert len(magnus_rep(copy)) == 4
    assert magnus_rep(copy) == magnus_rep(m)
    assert fox_matrix(copy) == fox_matrix(m)
    assert johnson_degree(copy) == johnson_degree(m) == 1
    assert truncated_identity_check(copy, 1)
