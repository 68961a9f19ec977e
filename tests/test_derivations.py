import hashlib
import json
import os
import random
import subprocess
import sys
import textwrap
import tracemalloc

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
    contraction_C,
    coordinate_labels,
    derivation_bracket,
    derivation_coordinates,
    derivation_is_symplectic,
    induced_handlebody_matrix,
    is_in_G,
    lagrangian_trace,
    morita_trace,
    wedge_from_derivation,
    wedge_to_derivation,
)
from lagtrace.errors import AmbientMismatch, BudgetExceeded, NotInHandlebodyGroup, RouteMismatch
from lagtrace.freegroup import (
    SURFACE,
    FreeGroupMap,
    MappingClassRep,
    alpha,
    beta,
    symplectic_action,
)
from lagtrace.tensorlie import (
    LiePoly,
    lie_zero,
    lyndon_words,
    render_lie,
    render_sym,
    surface_alphabet,
    witt_dimension,
)
from oracles import (
    oracle_contraction_C,
    parse_lie,
    symplectic_form_matrix,
    wedge_basis,
    zero_derivation,
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
        # omega(x, y) is the entry J[x][y] of the Gram matrix (0-based letters)
        J = symplectic_form_matrix(2)
        assert J[0][2] == 1  # (a1, b1)
        assert J[2][0] == -1
        assert J[1][3] == 1
        assert J[0][3] == 0
        assert J[0][1] == 0
        assert J[2][3] == 0

    def test_dual_is_the_gram_matrix(self):
        # the package reads omega only through _dual: omega(e_x, e_y) is the
        # sign _dual pairs x with when y is its dual, and 0 otherwise
        for genus in range(2, 9):
            J = symplectic_form_matrix(genus)
            letters = range(2 * genus)
            for x in letters:
                y, sign = derivations._dual(x, genus)
                assert J[x] == tuple(sign if z == y else 0 for z in letters), (genus, x)

    def test_contraction_agrees_with_the_gram_matrix(self):
        rng = random.Random(0)
        for genus in range(2, 7):
            triples = wedge_basis(genus)
            for _ in range(200):
                keys = rng.sample(triples, rng.randint(1, min(6, len(triples))))
                w = WedgeTriple(genus, {key: rng.choice((-3, -2, -1, 1, 2, 3)) for key in keys})
                assert contraction_C(w) == oracle_contraction_C(w), w


class TestWedgeImages:
    def test_reference_wedge_values(self):
        d = wedge(2, 0, 2, 3)  # a1 ^ b1 ^ b2
        assert render_lie(d.values[0]) == "-[a1,b2]"
        assert render_lie(d.values[1]) == "[a1,b1]"
        assert render_lie(d.values[2]) == "-[b1,b2]"
        assert d.values[3].is_zero()

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
        assert d.terms and all(d.terms.values())
        assert Derivation(d.genus, d.degree, d.values) == d

    def test_constructor_checks_its_values(self):
        v = parse_lie("[a1,b1]", A2)
        for values, error, message in [
            ((v,) * 3, ValueError, "need 2g = 4 values, got 3"),
            ((v, v, v, dict(v.terms)), TypeError, "derivation values must be Lie elements"),
            ((v, v, v, lie_zero(surface_alphabet(3), 2)), AmbientMismatch, "value over the wrong alphabet"),
            ((v, v, v, lie_zero(A2, 3)), ValueError, "degree-1 derivation takes values in degree 2"),
        ]:
            with pytest.raises(error, match=message):
                Derivation(2, 1, values)

    def test_tensor_form_reads_through_omega(self):
        # d(y) = sum_x omega(x, y) l_x, summed literally over the tensor form
        # (x, w) -> c, with l_x = sum_w c P_w and omega(x, y) = J[x][y]
        J = symplectic_form_matrix(2)
        for d in basis_D(2, 2):
            values = [
                sum(
                    (LiePoly(A2, 3, {w: c * J[x][y]}) for (x, w), c in d.terms.items()),
                    lie_zero(A2, 3),
                )
                for y in range(4)
            ]
            assert Derivation(2, 2, values) == d
            assert d.values == tuple(values)

    def test_terms_are_the_nonzero_coordinates(self):
        # the tensor form is stored as is: (letter, Lyndon word) -> the
        # coordinate at that pair of _coordinate_order
        samples = [*basis_G(2, 2), *basis_D(2, 3)]
        for k in (1, 2, 3):
            samples += [johnson.tau(fm.rep, k) for fm in johnson.sample_Ak(2, k, 3, seed=0)]
        for d in samples:
            order = derivations._coordinate_order(d.genus, d.degree)
            coords = derivation_coordinates(d)
            assert dict(d.terms) == {key: c for key, c in zip(order, coords) if c}
            assert Derivation(d.genus, d.degree, d.values) == d

    def test_wedge_repr(self):
        w = WedgeTriple(2, {(0, 2, 3): 1, (0, 1, 2): -2})
        assert repr(w) == "WedgeTriple(-2*a1^a2^b1 + a1^b1^b2)"
        assert repr(WedgeTriple(3, {(3, 4, 5): 1})) == "WedgeTriple(b1^b2^b3)"
        assert repr(WedgeTriple(2)) == "WedgeTriple(0)"

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

    @pytest.mark.parametrize("k", [1, 3])
    def test_trace_routes_disagree_without_the_graded_bar(self, monkeypatch, k):
        # in odd degree the bar negates every symmetrized trace, so with the
        # bar gone the cross-check must refuse each nonzero one
        basis = basis_G(2, k)
        traces = [lagrangian_trace(d) for d in basis]
        assert any(not s.is_zero() for s in traces)
        monkeypatch.setattr(derivations, "graded_bar", lambda terms: terms)
        for d, s in zip(basis, traces):
            if s.is_zero():
                assert lagrangian_trace(d) == s
            else:
                with pytest.raises(RouteMismatch):
                    lagrangian_trace(d)

    def test_lagrangian_trace_certifies_once(self, monkeypatch):
        checked = []
        symplectic = derivations.derivation_is_symplectic
        monkeypatch.setattr(
            derivations, "derivation_is_symplectic", lambda d: checked.append(d) or symplectic(d)
        )
        d = wedge(2, 0, 2, 3)
        assert render_sym(lagrangian_trace(d)) == "-x2"
        assert checked == [d]

    def test_morita_trace_requires_symplectic(self):
        bad = Derivation(
            2, 1, tuple(parse_lie("[a1,b1]", A2) for _ in range(4))
        )
        with pytest.raises(NotSymplectic):
            morita_trace(bad)


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

    @pytest.mark.parametrize("genus,k", [(2, 1), (2, 3), (3, 2)])
    def test_bracket_matrix_has_one_row_per_lyndon_word(self, genus, k):
        # a row for every word of length k+2 gives the same basis, by the
        # same triangularity, at many times the cost: only the shape shows it
        n = 2 * genus
        words = lyndon_words(n, k + 2)
        order = derivations._coordinate_order(genus, k)
        for project in (False, True):
            columns, nrows = derivations._kernel_columns(genus, k, project)
            below = genus * witt_dimension(genus, k + 1) if project else 0
            assert nrows == witt_dimension(n, k + 2) + below
            assert len(columns) == len(order)
            for (x, w), column in zip(order, columns):
                # the bracket keeps letter content, so a bracket row names a
                # Lyndon word with the letters of x and w
                for r in column:
                    if r < len(words):
                        assert sorted(words[r]) == sorted((x, *w))
                    else:
                        assert project

    def test_basis_G_3_3_is_pinned(self):
        # genus 3, degree 3: the golden CLI digests cover genus 2, degree 2 only
        coords = [derivation_coordinates(d) for d in basis_G(3, 3)]
        digest = hashlib.sha256(json.dumps(coords).encode()).hexdigest()
        assert digest == "b3ee972cd69d3f76b99562a0c9e07ae70c5efae8f315840b8ca7351f5c72cdd1"

    def test_basis_G_3_3_stays_small(self):
        # the matrix and the kernel vectors are sparse end to end; dense
        # rows of Python ints peaked near 30 MiB here
        basis_G(3, 3)  # warm the Lyndon and coordinate caches
        tracemalloc.start()
        try:
            basis_G(3, 3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 << 20, f"basis_G(3, 3) peaked at {peak / 2**20:.1f} MiB"


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

    def test_non_symplectic_matrix_is_refused(self):
        # a1 -> a1 + a2 alone, and 2 * identity, do not keep the pairing
        shear = ((1, 0, 0, 0), (1, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1))
        double = tuple(tuple(2 * (i == j) for j in range(4)) for i in range(4))
        d = wedge(2, 0, 2, 3)
        for M in (shear, double):
            with pytest.raises(NotSymplectic, match="action requires a symplectic matrix"):
                act_on_derivation(M, d)

    def test_symplectic_matrix_off_the_lagrangian_is_refused(self):
        # a1 -> b1, b1 -> -a1 is symplectic (the action accepts it) but moves
        # a1 out of span(a_1..a_g), the kernel of H -> H'; its b-block alone
        # would read as an action on H'
        M = ((0, 0, -1, 0), (0, 1, 0, 0), (1, 0, 0, 0), (0, 0, 0, 1))
        d = basis_G(2, 1)[2]
        assert render_sym(lagrangian_trace(act_on_derivation(M, d))) == "-x1"
        with pytest.raises(NotInHandlebodyGroup):
            induced_handlebody_matrix(M, 2)
        with pytest.raises(NotInHandlebodyGroup):
            act_on_trace(M, lagrangian_trace(d), 2)


class TestCalibration:
    def test_report_pins_conventions(self):
        # the sign conventions in force and the two anchor values they produce
        assert symplectic_form_matrix(2)[0][2] == 1  # omega(a_1, b_1) = +1
        assert derivations.SIGN_WEDGE == -1
        d = wedge_to_derivation(WedgeTriple(2, {(0, 2, 3): 1}))  # a1^b1^b2
        assert render_lie(d.values[1]) == "[a1,b1]"  # its value on a2
        assert render_sym(lagrangian_trace(d)) == "-x2"


class TestBasisBudget:
    """basis_D and basis_G refuse bracket matrices above BASIS_CELL_BUDGET cells
    before they build a column, so an oversized request exits 13 at once."""

    @pytest.mark.parametrize(
        "genus,k,cells",
        [(2, 2, 4_800), (3, 3, 2_937_060), (4, 3, 52_835_328), (3, 4, 72_121_140)],
    )
    def test_measured_sizes_fit(self, genus, k, cells):
        assert derivations.BASIS_CELL_BUDGET >= cells
        derivations._check_basis_budget(genus, k)

    @pytest.mark.parametrize("build", [basis_D, basis_G])
    @pytest.mark.parametrize("genus,k", [(4, 4), (5, 3)])
    def test_refused_before_any_row(self, monkeypatch, build, genus, k):
        def no_columns(*args):
            raise AssertionError("bracket columns built past the budget")

        monkeypatch.setattr(derivations, "_kernel_columns", no_columns)
        with pytest.raises(BudgetExceeded):
            build(genus, k)

    def test_limit_is_inclusive(self, monkeypatch):
        # G 2 2: L_4(4) = 60 rows by 4 * L_3(4) = 80 columns
        monkeypatch.setattr(derivations, "BASIS_CELL_BUDGET", 4_800)
        assert len(basis_G(2, 2)) == 19
        monkeypatch.setattr(derivations, "BASIS_CELL_BUDGET", 4_799)
        with pytest.raises(BudgetExceeded):
            basis_G(2, 2)

    def test_negative_degree_rejected(self):
        with pytest.raises(ValueError):
            basis_D(2, -1)

    @pytest.mark.parametrize("build", [basis_D, basis_G])
    @pytest.mark.parametrize("genus", [-1, 0, 1])
    def test_low_genus_rejected_before_any_column(self, monkeypatch, build, genus):
        # the library works from genus 2; at genus 0 there are no letters, and
        # the Lyndon words of the columns would never end
        def no_columns(*args):
            raise AssertionError("bracket columns built for a genus below 2")

        monkeypatch.setattr(derivations, "_kernel_columns", no_columns)
        with pytest.raises(ValueError):
            build(genus, 1)


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
        # the stock is built once per genus: certify it afresh
        johnson.handlebody_sample_library.cache_clear()
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
