import hashlib

import pytest

from lagtrace.derivations import (
    WedgeTriple,
    act_on_derivation,
    derivation_bracket,
    is_in_G,
    lagrangian_trace,
    wedge_to_derivation,
)
from lagtrace import johnson
from lagtrace.errors import BudgetExceeded, DegreeTooLow, ParseError
from lagtrace.johnson import (
    FilteredMappingClass,
    annulus_twist,
    handle_swap,
    handlebody_sample_library,
    johnson_degree,
    meridian_twist,
    parse_mapping_class,
    sample_Ak,
    serialize_mapping_class,
    tau,
)
from lagtrace.freegroup import (
    apply,
    extends_to_handlebody,
    max_image_length,
    mcr_commutator,
    mcr_compose,
    mcr_conjugate,
    mcr_identity,
    mcr_inverse,
    symplectic_action,
)
from lagtrace.tensorlie import render_lie, render_sym
from oracles import boundary_word


class TestJohnsonDegree:
    def test_identity_exceeds_bound(self):
        assert johnson_degree(mcr_identity(2), 4) is None

    def test_annulus_twist_degree_one(self):
        assert johnson_degree(annulus_twist(2), 4) == 1
        assert johnson_degree(annulus_twist(3), 4) == 1

    def test_meridian_twist_not_torelli(self):
        assert johnson_degree(meridian_twist(2), 3) == 0

    def test_swap_not_torelli(self):
        assert johnson_degree(handle_swap(2, 1, 2), 3) == 0

    def test_commutator_reaches_degree_two(self):
        phi = annulus_twist(2)
        psi = mcr_conjugate(phi, handle_swap(2, 1, 2))
        assert johnson_degree(mcr_commutator(phi, psi), 3) == 2

    def test_bound_validation(self):
        with pytest.raises(ValueError):
            johnson_degree(mcr_identity(2), 9)


class TestAnnulusTwist:
    def test_fixes_homology(self):
        for g in (2, 3):
            m = annulus_twist(g)
            n = 2 * g
            ident = tuple(
                tuple(1 if i == j else 0 for j in range(n)) for i in range(n)
            )
            assert symplectic_action(m) == ident

    def test_extends_to_handlebody(self):
        assert extends_to_handlebody(annulus_twist(2))
        assert extends_to_handlebody(annulus_twist(3, 2))

    def test_fixes_boundary_class(self):
        for g in (2, 3):
            m = annulus_twist(g)
            z = boundary_word(g)
            assert apply(m.forward, z) == z

    def test_tau_is_reference_wedge(self):
        d = tau(annulus_twist(2), 1)
        assert d == wedge_to_derivation(WedgeTriple(2, {(0, 2, 3): 1}))

    def test_shifted_handle(self):
        m = annulus_twist(3, handle=2)
        d = tau(m, 1)
        # same shape one handle up: a2 ^ b2 ^ b3
        assert d == wedge_to_derivation(WedgeTriple(3, {(1, 4, 5): 1}))

    def test_rejects_bad_handle(self):
        with pytest.raises(ValueError):
            annulus_twist(2, handle=2)
        with pytest.raises(ValueError):
            annulus_twist(1)


class TestTau:
    def test_degree_too_low(self):
        with pytest.raises(DegreeTooLow):
            tau(meridian_twist(2), 1)

    def test_too_low_names_the_class_degree(self):
        # the message names johnson_degree's value, the minimum over all
        # error words, not the degree of the first error word found too low
        m = mcr_compose(meridian_twist(2, 1), annulus_twist(2, 1))
        assert johnson_degree(m, 3) == 0
        with pytest.raises(DegreeTooLow) as exc:
            tau(m, 2)
        assert str(exc.value) == "class has filtration degree 0, need at least 2"
        shallow = 0
        for g in (2, 3):
            lib = handlebody_sample_library(g)
            classes = [mcr_compose(x, y) for x in lib for y in lib]
            classes += [fm.rep for k in (1, 2) for fm in sample_Ak(g, k, 4, seed=0)]
            for m in classes:
                deg = johnson_degree(m, 3)
                if deg is None or deg >= 3:
                    continue
                shallow += 1
                with pytest.raises(DegreeTooLow) as exc:
                    tau(m, 3)
                assert str(exc.value) == f"class has filtration degree {deg}, need at least 3"
        assert shallow == 159

    def test_additive_on_products(self):
        phi = annulus_twist(2)
        psi = mcr_conjugate(phi, handle_swap(2, 1, 2))
        assert tau(mcr_compose(phi, psi), 1) == tau(phi, 1) + tau(psi, 1)

    def test_inverse_negates(self):
        phi = annulus_twist(2)
        assert tau(mcr_inverse(phi), 1) == -tau(phi, 1)

    def test_commutator_is_derivation_bracket(self):
        phi = annulus_twist(2)
        psi = mcr_conjugate(phi, handle_swap(2, 1, 2))
        comm = mcr_commutator(phi, psi)
        assert tau(comm, 2) == derivation_bracket(tau(phi, 1), tau(psi, 1))

    def test_conjugation_equivariance(self):
        phi = annulus_twist(2)
        for psi in (meridian_twist(2, 2), handle_swap(2, 1, 2)):
            lhs = tau(mcr_conjugate(phi, psi), 1)
            rhs = act_on_derivation(symplectic_action(psi), tau(phi, 1))
            assert lhs == rhs

    def test_levine_inclusion_on_twists(self):
        for g in (2, 3):
            for handle in range(1, g):
                assert is_in_G(tau(annulus_twist(g, handle), 1))


class TestLibrary:
    def test_all_extend(self):
        for g in (2, 3):
            for m in handlebody_sample_library(g):
                assert extends_to_handlebody(m)

    def test_swap_action_is_permutation(self):
        M = symplectic_action(handle_swap(2, 1, 2))
        assert M == ((0, 1, 0, 0), (1, 0, 0, 0), (0, 0, 0, 1), (0, 0, 1, 0))

    def test_library_size_grows_with_genus(self):
        assert len(handlebody_sample_library(3)) > len(handlebody_sample_library(2))


# sha256 of the serialized builtins below, recorded before the builtins were
# rebuilt from tables of moved generators
BUILTIN_IMAGES_SHA256 = "553981a0b20859c33607d09621551223def6d10907e7b04d09a7a93ac1571e3b"


def test_builtin_images_are_pinned():
    # per genus 2..6: every annulus twist, meridian twists of powers 1, -1, 2,
    # -3 on every handle, every ordered handle swap, then the sample library
    classes = []
    for g in range(2, 7):
        classes += [annulus_twist(g, h) for h in range(1, g)]
        classes += [meridian_twist(g, h, p) for h in range(1, g + 1) for p in (1, -1, 2, -3)]
        handles = range(1, g + 1)
        classes += [handle_swap(g, i, j) for i in handles for j in handles if i != j]
        classes += handlebody_sample_library(g)
    assert len(classes) == 255
    text = "".join(map(serialize_mapping_class, classes))
    assert hashlib.sha256(text.encode()).hexdigest() == BUILTIN_IMAGES_SHA256


class TestSampling:
    def test_degree_one_samples(self):
        samples = sample_Ak(2, 1, 6, seed=11)
        assert len(samples) == 6
        for fm in samples:
            assert isinstance(fm, FilteredMappingClass)
            assert fm.in_handlebody
            assert fm.degree == 1
            d = tau(fm.rep, 1)
            assert not d.is_zero()
            assert is_in_G(d)

    def test_degree_two_samples(self):
        samples = sample_Ak(2, 2, 4, seed=7)
        for fm in samples:
            assert johnson_degree(fm.rep, 3) == 2
            d = tau(fm.rep, 2)
            assert not d.is_zero()
            assert is_in_G(d)

    def test_seed_determinism(self):
        a = sample_Ak(2, 2, 3, seed=5)
        b = sample_Ak(2, 2, 3, seed=5)
        assert [x.rep for x in a] == [x.rep for x in b]

    def test_budget_respected(self):
        for fm in sample_Ak(2, 3, 2, seed=1):
            assert max_image_length(fm.rep) <= 10_000

    def test_rejects_bad_k(self):
        with pytest.raises(ValueError):
            sample_Ak(2, 4, 1)

    @pytest.mark.parametrize("g,k,count,seed", [(2, 3, 3, 2), (3, 3, 2, 0), (3, 3, 2, 1), (2, 1, 6, 11)])
    def test_budgeted_compose_keeps_seeded_samples(self, monkeypatch, g, k, count, seed):
        # the final composition of a candidate runs under WORD_BUDGET and drops
        # it unbuilt; building it in full and rejecting it by max_image_length
        # afterwards must give the same samples, since no draw depends on it
        rejected = []

        def budgeted(compose_fn):
            def call(m, n, budget=None):
                try:
                    return compose_fn(m, n, budget)
                except BudgetExceeded:
                    rejected.append(budget)
                    raise

            return call

        monkeypatch.setattr(johnson, "mcr_commutator", budgeted(mcr_commutator))
        monkeypatch.setattr(johnson, "mcr_compose", budgeted(mcr_compose))
        with_budget = sample_Ak(g, k, count, seed=seed)
        monkeypatch.setattr(johnson, "mcr_commutator", lambda m, n, budget=None: mcr_commutator(m, n))
        monkeypatch.setattr(johnson, "mcr_compose", lambda m, n, budget=None: mcr_compose(m, n))
        without = sample_Ak(g, k, count, seed=seed)
        assert [serialize_mapping_class(x.rep) for x in with_budget] == [
            serialize_mapping_class(x.rep) for x in without
        ]
        if k == 3:
            assert rejected and set(rejected) == {johnson.WORD_BUDGET}


class TestFileFormat:
    def test_round_trip(self):
        for m in (annulus_twist(2), meridian_twist(3, 2), handle_swap(2, 1, 2)):
            text = serialize_mapping_class(m)
            back = parse_mapping_class(text)
            assert back.forward == m.forward
            assert back.inverse == m.inverse

    def test_header_line(self):
        text = serialize_mapping_class(annulus_twist(2))
        assert text.splitlines()[0] == "genus 2"
        assert text.splitlines()[1].startswith("a1 -> ")

    def test_identity_images_parse(self):
        lines = ["genus 2"]
        block = ["a1 -> a1", "a2 -> a2", "b1 -> b1", "b2 -> b2"]
        text = "\n".join(lines + block + [""] + block) + "\n"
        m = parse_mapping_class(text)
        assert m.forward == mcr_identity(2).forward

    def test_bad_header(self):
        with pytest.raises(ParseError):
            parse_mapping_class("species 2\n")
        with pytest.raises(ParseError):
            parse_mapping_class("genus 1\n")

    def test_missing_generator_line(self):
        with pytest.raises(ParseError):
            parse_mapping_class("genus 2\na1 -> a1\n")

    def test_wrong_generator_name(self):
        text = "genus 2\nb1 -> a1\na2 -> a2\na1 -> b1\nb2 -> b2\n"
        with pytest.raises(ParseError):
            parse_mapping_class(text)

    def test_text_after_inverse_block_is_rejected(self):
        # a third block or stray text must not load silently as the class
        text = serialize_mapping_class(annulus_twist(2))
        with pytest.raises(ParseError) as exc:
            parse_mapping_class(text + "\na1 -> b1\nnonsense here\n")
        assert exc.value.line == 12
        with pytest.raises(ParseError) as exc:
            parse_mapping_class(text + "nonsense here")
        assert exc.value.line == 11

    def test_trailing_blank_lines_are_allowed(self):
        m = annulus_twist(2)
        back = parse_mapping_class(serialize_mapping_class(m) + "\n  \n\t\n")
        assert back.forward == m.forward
        assert back.inverse == m.inverse

    def test_word_error_carries_line_number(self):
        block = ["a1 -> a1", "a2 -> a2", "b1 -> q7", "b2 -> b2"]
        text = "\n".join(["genus 2"] + block + [""] + block) + "\n"
        with pytest.raises(ParseError) as exc:
            parse_mapping_class(text)
        assert exc.value.line == 4
