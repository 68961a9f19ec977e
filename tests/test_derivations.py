import os
import subprocess
import sys
import textwrap

import pytest

import lagtrace.derivations as derivations
import lagtrace.johnson as johnson
from lagtrace.derivations import (
    Derivation,
    NotInG,
    NotSymplectic,
    WedgeTriple,
    act_on_derivation,
    act_on_trace,
    basis_D,
    basis_G,
    calibration_report,
    contraction_C,
    coordinate_labels,
    derivation_bracket,
    derivation_coordinates,
    derivation_from_tensor,
    derivation_is_symplectic,
    induced_handlebody_matrix,
    is_in_G,
    lagrangian_trace,
    morita_trace,
    norm_matrix,
    norm_matrix_A,
    omega,
    tensor_from_derivation,
    wedge_basis,
    wedge_from_derivation,
    wedge_to_derivation,
    zero_derivation,
)
from lagtrace.errors import NotInHandlebodyGroup
from lagtrace.freegroup import (
    SURFACE,
    FreeGroupMap,
    MappingClassRep,
    alpha,
    beta,
    symplectic_action,
)
from lagtrace.tensorlie import (
    lie_letter,
    parse_lie,
    render_lie,
    render_sym,
    surface_alphabet,
)


A2 = surface_alphabet(2)


def wedge(genus, i, j, l, coeff=1):
    return wedge_to_derivation(WedgeTriple(genus, {(i, j, l): coeff}))


def meridian_twist(g=2):
    fwd = FreeGroupMap(
        SURFACE, g, [alpha(1, g), alpha(2, g), beta(1, g) * alpha(1, g), beta(2, g)]
    )
    inv = FreeGroupMap(
        SURFACE, g, [alpha(1, g), alpha(2, g), beta(1, g) * ~alpha(1, g), beta(2, g)]
    )
    return MappingClassRep(fwd, inv)


def handle_swap(g=2):
    fwd = FreeGroupMap(SURFACE, g, [alpha(2, g), alpha(1, g), beta(2, g), beta(1, g)])
    return MappingClassRep(fwd, fwd)


class TestOmega:
    def test_pairing_values(self):
        g = 2
        assert omega(0, 2, g) == 1  # (a1, b1)
        assert omega(2, 0, g) == -1
        assert omega(1, 3, g) == 1
        assert omega(0, 3, g) == 0
        assert omega(0, 1, g) == 0
        assert omega(2, 3, g) == 0


class TestWedgeImages:
    def test_reference_wedge_values(self):
        d = wedge(2, 0, 2, 3)  # a1 ^ b1 ^ b2
        assert render_lie(d.value(0)) == "-[a1,b2]"
        assert render_lie(d.value(1)) == "[a1,b1]"
        assert render_lie(d.value(2)) == "-[b1,b2]"
        assert d.value(3).is_zero()

    def test_wedge_images_are_symplectic(self):
        for g in (2, 3):
            for key in wedge_basis(g):
                assert derivation_is_symplectic(
                    wedge_to_derivation(WedgeTriple(g, {key: 1}))
                )

    def test_wedge_round_trip(self):
        for g in (2, 3):
            for key in wedge_basis(g):
                w = WedgeTriple(g, {key: 1})
                assert wedge_from_derivation(wedge_to_derivation(w)) == w
        w = WedgeTriple(3, {(0, 1, 2): 2, (0, 3, 5): -1, (1, 4, 5): 3, (2, 3, 4): 1})
        assert wedge_from_derivation(wedge_to_derivation(w)) == w

    def test_non_symplectic_derivation_has_no_wedge(self):
        ab = parse_lie("[a1,b1]", A2)
        with pytest.raises(ValueError):
            wedge_from_derivation(Derivation(2, 1, [ab] * 4))

    def test_tensor_round_trip(self):
        d = wedge(2, 0, 1, 3) - wedge(2, 1, 2, 3).scale(2)
        assert derivation_from_tensor(tensor_from_derivation(d)) == d

    def test_contraction(self):
        assert contraction_C(WedgeTriple(2, {(0, 2, 3): 1})) == (0, 0, 0, 1)
        assert contraction_C(WedgeTriple(2, {(0, 1, 2): 1})) == (0, -1, 0, 0)
        assert contraction_C(WedgeTriple(2, {(0, 1, 3): 1})) == (1, 0, 0, 0)
        assert contraction_C(WedgeTriple(2, {(1, 2, 3): 1})) == (0, 0, -1, 0)
        assert contraction_C(WedgeTriple(3, {(3, 4, 5): 1})) == (0,) * 6


class TestTraces:
    def test_reference_lagrangian_trace(self):
        assert render_sym(lagrangian_trace(wedge(2, 0, 2, 3))) == "-x2"

    def test_degree_one_morita_trace_is_twice_contraction(self):
        # at degree 1 the trace recovers the contraction, doubled; it does
        # not vanish on wedges outside ker C
        for g in (2, 3):
            for key in wedge_basis(g):
                w = WedgeTriple(g, {key: 1})
                tr = morita_trace(wedge_to_derivation(w))
                expected = {}
                for i, c in enumerate(contraction_C(w)):
                    if c:
                        expo = [0] * 2 * g
                        expo[i] = 1
                        expected[tuple(expo)] = 2 * c
                assert dict(tr.terms) == expected

    def test_morita_trace_vanishes_only_on_contraction_kernel(self):
        assert not morita_trace(wedge(2, 0, 2, 3)).is_zero()
        assert morita_trace(wedge(3, 3, 4, 5)).is_zero()

    def test_morita_trace_vanishes_in_even_degree(self):
        for d in basis_D(2, 2):
            assert morita_trace(d).is_zero()

    def test_morita_trace_zero_derivation(self):
        assert morita_trace(zero_derivation(2, 1)).is_zero()
        assert morita_trace(zero_derivation(2, 2)).is_zero()

    def test_traces_differ_on_G2(self):
        # some G_2 elements have nonzero Lagrangian trace while the Morita
        # trace is identically zero there
        witnesses = [d for d in basis_G(2, 2) if not lagrangian_trace(d).is_zero()]
        assert len(witnesses) == 4
        assert all(morita_trace(d).is_zero() for d in witnesses)

    def test_lagrangian_trace_requires_G(self):
        with pytest.raises(NotInG):
            lagrangian_trace(wedge(3, 3, 4, 5))

    def test_morita_trace_requires_symplectic(self):
        bad = Derivation(
            2, 1, tuple(parse_lie("[a1,b1]", A2) for _ in range(4))
        )
        with pytest.raises(NotSymplectic):
            morita_trace(bad)


class TestNormMatrices:
    def test_zero_derivation_zero_matrix(self):
        m = norm_matrix(zero_derivation(2, 1))
        assert all(e.is_zero() for row in m for e in row)

    def test_reference_block(self):
        m = norm_matrix_A(wedge(2, 0, 2, 3))
        from lagtrace.tensorlie import render_tensor

        flat = [render_tensor(e) for row in m for e in row]
        assert len(flat) == 4


class TestMembership:
    def test_genus_two_wedges_all_in_G(self):
        for key in wedge_basis(2):
            assert is_in_G(wedge_to_derivation(WedgeTriple(2, {key: 1})))

    def test_genus_three_all_b_wedge_not_in_G(self):
        assert not is_in_G(wedge(3, 3, 4, 5))
        assert is_in_G(wedge(3, 0, 3, 4))


class TestBases:
    def test_dimensions(self):
        assert len(basis_D(2, 1)) == 4
        assert len(basis_G(2, 1)) == 4
        assert len(basis_D(2, 2)) == 20
        assert len(basis_G(2, 2)) == 19
        assert len(basis_D(3, 1)) == 20
        assert len(basis_G(3, 1)) == 19

    def test_degree_one_rank_is_wedge_count(self):
        from math import comb

        for g in (2, 3):
            assert len(basis_D(g, 1)) == comb(2 * g, 3)

    def test_basis_elements_are_symplectic(self):
        for d in basis_D(2, 2):
            assert derivation_is_symplectic(d)

    def test_basis_G_membership(self):
        for d in basis_G(2, 2):
            assert is_in_G(d)
        for d in basis_G(3, 1):
            assert is_in_G(d)

    def test_routes_agree_on_bases(self):
        # lagrangian_trace computes both routes internally and raises
        # RouteMismatch if they ever disagree
        for b in (basis_G(2, 1), basis_G(2, 2), basis_G(3, 1)):
            for d in b:
                lagrangian_trace(d)

    def test_coordinates_round_trip(self):
        labels = coordinate_labels(2, 1)
        for d in basis_D(2, 1):
            coords = derivation_coordinates(d)
            assert len(coords) == len(labels)


class TestBracket:
    def test_bracket_degree_adds(self):
        d = wedge(2, 0, 2, 3)
        e = wedge(2, 0, 1, 2)
        br = derivation_bracket(d, e)
        assert br.degree == 2

    def test_bracket_antisymmetric(self):
        d = wedge(2, 0, 2, 3)
        e = wedge(2, 0, 1, 3)
        assert derivation_bracket(d, e) == -derivation_bracket(e, d)

    def test_bracket_of_symplectic_is_symplectic(self):
        d = wedge(2, 0, 2, 3)
        e = wedge(2, 1, 2, 3)
        assert derivation_is_symplectic(derivation_bracket(d, e))

    def test_lagrangian_trace_vanishes_on_brackets(self):
        b1 = basis_G(2, 1)
        checked = 0
        for d in b1:
            for e in b1:
                br = derivation_bracket(d, e)
                if br.is_zero():
                    continue
                try:
                    s = lagrangian_trace(br)
                except NotInG:
                    continue
                assert s.is_zero()
                checked += 1
        assert checked >= 10

    def test_morita_trace_vanishes_on_brackets(self):
        d = wedge(2, 0, 2, 3)
        e = wedge(2, 0, 1, 2)
        br = derivation_bracket(d, e)
        assert not br.is_zero()
        assert morita_trace(br).is_zero()


class TestEquivariance:
    def test_meridian_twist(self):
        m = meridian_twist()
        M = symplectic_action(m)
        d = wedge(2, 0, 2, 3)
        lhs = lagrangian_trace(act_on_derivation(M, d))
        rhs = act_on_trace(M, lagrangian_trace(d), 2)
        assert lhs == rhs

    def test_handle_swap(self):
        m = handle_swap()
        M = symplectic_action(m)
        d = wedge(2, 0, 2, 3)
        lhs = lagrangian_trace(act_on_derivation(M, d))
        rhs = act_on_trace(M, lagrangian_trace(d), 2)
        assert lhs == rhs
        assert render_sym(lhs) == "-x1"

    def test_action_preserves_D(self):
        m = handle_swap()
        M = symplectic_action(m)
        for d in basis_D(2, 1):
            assert derivation_is_symplectic(act_on_derivation(M, d))

    def test_induced_matrix_shape(self):
        M = symplectic_action(handle_swap())
        Mp = induced_handlebody_matrix(M, 2)
        assert Mp == ((0, 1), (1, 0))


class TestCalibration:
    def test_report_pins_conventions(self):
        rep = calibration_report()
        assert rep["omega"] == "omega(a_i, b_j) = +delta_ij"
        assert rep["wedge_sign"] == -1
        assert rep["anchor_trace"] == "-x2"
        assert rep["anchor_derivation"]["a2"] == "[a1,b1]"


class TestCertification:
    """Certifications raise typed errors, which survive python -O."""

    def test_basis_G_raises_not_in_G(self, monkeypatch):
        monkeypatch.setattr(derivations, "is_in_G", lambda d: False)
        with pytest.raises(NotInG):
            basis_G(2, 1)

    def test_basis_D_raises_not_symplectic(self, monkeypatch):
        monkeypatch.setattr(derivations, "derivation_is_symplectic", lambda d: False)
        with pytest.raises(NotSymplectic):
            basis_D(2, 1)

    def test_tau_raises_not_symplectic(self, monkeypatch):
        monkeypatch.setattr(johnson, "derivation_is_symplectic", lambda d: False)
        with pytest.raises(NotSymplectic):
            johnson.tau(johnson.annulus_twist(2), 1)

    @pytest.mark.parametrize(
        "build",
        [
            lambda: johnson.annulus_twist(2),
            lambda: johnson.meridian_twist(2),
            lambda: johnson.handle_swap(2, 1, 2),
            lambda: johnson.handlebody_sample_library(2),
        ],
    )
    def test_builtins_raise_not_in_handlebody(self, monkeypatch, build):
        monkeypatch.setattr(johnson, "extends_to_handlebody", lambda m: False)
        with pytest.raises(NotInHandlebodyGroup):
            build()

    def test_certification_survives_optimize(self):
        script = textwrap.dedent(
            """
            import sys
            import lagtrace.derivations as derivations
            from lagtrace.errors import NotInG

            assert False, "asserts must be stripped under -O"
            derivations.is_in_G = lambda d: False
            try:
                derivations.basis_G(2, 1)
            except NotInG:
                sys.exit(0)
            sys.exit(1)
            """
        )
        src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
        env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
        done = subprocess.run(
            [sys.executable, "-O", "-c", script], env=env, capture_output=True, text=True
        )
        assert done.returncode == 0, done.stderr
