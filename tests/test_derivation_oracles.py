"""The derivation layer on tensor dicts against the literal routes it replaced.

`derivation_bracket`, `act_on_derivation`, `act_on_trace`, `morita_trace`
and the handlebody projection work on word -> coefficient dicts, and every
Lie value they return is read back by the Lyndon peel.  The oracles in
`tests/oracles.py` compute the same objects the textbook way: the bracket by
recursion over standard bracketings, the action by LiePoly arithmetic and
`transform_lie`, the trace action by commutative substitution, the Morita
trace from the whole norm matrix.  Inputs are bases and seeded samples.
"""

import random
from itertools import product

import pytest

import lagtrace.derivations as derivations
import oracles
from lagtrace.derivations import (
    Derivation,
    act_on_derivation,
    act_on_trace,
    basis_D,
    basis_G,
    derivation_bracket,
    induced_handlebody_matrix,
    is_in_G,
    lagrangian_trace,
    morita_trace,
)
from lagtrace.freegroup import mcr_compose, symplectic_action
from lagtrace.intkernel import integer_kernel_basis
from lagtrace.johnson import handlebody_sample_library, sample_Ak, tau
from lagtrace.tensorlie import (
    LiePoly,
    SymPoly,
    handlebody_alphabet,
    lie_bracket,
    std_bracketing,
    surface_alphabet,
)
from test_intkernel import BRACKET_SPACES


def _actions(g):
    """Symplectic actions of the sample library and of all its products."""
    lib = handlebody_sample_library(g)
    return [symplectic_action(m) for m in lib] + [
        symplectic_action(mcr_compose(m, n)) for m, n in product(lib, lib)
    ]


class TestBracketColumns:
    """The bracket map read at the Lyndon rows against its Lyndon coordinates
    (oracles.oracle_kernel_columns).  The two matrices differ by a lower
    unitriangular factor on the left, so the kernel routine returns the same
    vectors, not just the same lattice."""

    @pytest.mark.parametrize(
        "space,genus,k",
        [("D", 2, 1), ("D", 2, 2), ("D", 2, 3), ("D", 3, 2), ("D", 3, 3)]
        + [("G", 2, 1), ("G", 2, 2), ("G", 2, 4), ("G", 3, 3), ("G", 4, 2)],
    )
    def test_same_kernel_as_lyndon_coordinates(self, space, genus, k):
        columns, nrows = derivations._kernel_columns(genus, k, space == "G")
        want_columns, want_nrows = oracles.oracle_kernel_columns(genus, k, space == "G")
        assert nrows == want_nrows
        assert integer_kernel_basis(columns, nrows) == integer_kernel_basis(want_columns, nrows)

    @pytest.mark.parametrize("space,genus,k", BRACKET_SPACES)
    def test_same_columns_as_the_commutator_route(self, space, genus, k):
        # the Lyndon rows of x P_w - P_w x, built whole and then filtered
        # (oracles.oracle_lyndon_row_columns), against the one-sided reads
        columns, nrows = derivations._kernel_columns(genus, k, space == "G")
        assert (columns, nrows) == oracles.oracle_lyndon_row_columns(genus, k, space == "G")
        assert all(all(column.values()) for column in columns)


class TestBracket:
    def test_all_pairs_of_G_2_1(self):
        basis = basis_G(2, 1)
        for d, e in product(basis, basis):
            assert derivation_bracket(d, e) == oracles.derivation_bracket(d, e)

    def test_pairs_of_D_2_1_and_D_2_2(self):
        for d, e in product(basis_D(2, 1), basis_D(2, 2)):
            assert derivation_bracket(d, e) == oracles.derivation_bracket(d, e)
            assert derivation_bracket(e, d) == oracles.derivation_bracket(e, d)

    def test_seeded_pairs_at_genus_three(self):
        rng = random.Random(3)
        g1, g2 = basis_G(3, 1), basis_G(3, 2)
        for _ in range(12):
            d, e = rng.choice(g1), rng.choice(g2)
            assert derivation_bracket(d, e) == oracles.derivation_bracket(d, e)

    def test_seeded_combinations(self):
        # sums of basis elements have values with several Lyndon words
        rng = random.Random(5)
        b1, b2 = basis_D(2, 1), basis_D(2, 2)
        for _ in range(6):
            d = rng.choice(b1).scale(rng.randint(-3, 3)) + rng.choice(b1)
            e = rng.choice(b2) - rng.choice(b2).scale(2)
            assert derivation_bracket(d, e) == oracles.derivation_bracket(d, e)

    def test_every_value_comes_out_of_the_peel(self, monkeypatch):
        peeled = []
        peel = derivations._peel

        def counting(terms):
            value = peel(terms)
            peeled.append(value)
            return value

        monkeypatch.setattr(derivations, "_peel", counting)
        d, e = basis_G(2, 1)[:2]
        br = derivation_bracket(d, e)
        assert [dict(v.terms) for v in br.values] == peeled
        peeled.clear()
        moved = act_on_derivation(symplectic_action(handlebody_sample_library(2)[0]), d)
        assert [dict(v.terms) for v in moved.values] == peeled


class TestAction:
    @pytest.mark.parametrize("g", [2, 3])
    def test_library_and_products(self, g):
        rng = random.Random(g)
        ds = basis_D(g, 1) + basis_G(g, 2)
        # degree 3: values of length 4, whose Lyndon expansions share words
        deep = [tau(fm.rep, 3) for fm in sample_Ak(g, 3, 2, seed=0)]
        if g == 2:
            deep += basis_D(2, 3)
        for M in _actions(g):
            for d in (rng.choice(ds), rng.choice(deep)):
                assert act_on_derivation(M, d) == oracles.act_on_derivation(M, d)

    def test_transform_lie_is_bracketwise_substitution(self):
        # both routes substitute through _substitute_terms; this pins the
        # oracle's building block against brackets of substituted letters
        for M in _actions(2)[:8]:
            for d in basis_D(2, 2)[:5]:
                for v in d.values:
                    expected = LiePoly(v.alphabet, v.degree)
                    for w, c in v.terms.items():
                        expected += _substituted(std_bracketing(w), M, v.alphabet).scale(c)
                    assert oracles.transform_lie(v, M) == expected


def _substituted(expr, M, alphabet):
    """A bracket expression with each letter x replaced by sum_i M[i][x] x_i."""
    if isinstance(expr, int):
        return LiePoly(alphabet, 1, {(i,): M[i][expr] for i in range(alphabet.size)})
    return lie_bracket(_substituted(expr[0], M, alphabet), _substituted(expr[1], M, alphabet))


def _sym_sample(rng, g):
    terms = {}
    for _ in range(rng.randint(1, 4)):
        degree = rng.randint(1, 3)
        expo = [0] * g
        for _ in range(degree):
            expo[rng.randrange(g)] += 1
        terms[tuple(expo)] = rng.choice([-3, -2, -1, 1, 2, 3])
    return SymPoly(handlebody_alphabet(g), terms)


class TestTraceAction:
    @pytest.mark.parametrize("g", [2, 3])
    def test_seeded_polynomials(self, g):
        rng = random.Random(10 + g)
        for M in _actions(g):
            s = _sym_sample(rng, g)
            expected = oracles.substitute(s, induced_handlebody_matrix(M, g))
            assert act_on_trace(M, s, g) == expected

    def test_zero_and_constant(self):
        M = _actions(2)[3]
        alphabet = handlebody_alphabet(2)
        for terms in ({}, {(0, 0): 5}):
            s = SymPoly(alphabet, terms)
            expected = oracles.substitute(s, induced_handlebody_matrix(M, 2))
            assert act_on_trace(M, s, 2) == expected == s


class TestMoritaTrace:
    @pytest.mark.parametrize("k", [1, 3])
    def test_basis_D(self, k):
        for d in basis_D(2, k):
            assert morita_trace(d) == oracles.morita_trace(d)

    @pytest.mark.parametrize("g, k", [(2, 1), (2, 2), (3, 1)])
    def test_sampled_tau(self, g, k):
        for fm in sample_Ak(g, k, 3, seed=7):
            d = tau(fm.rep, k)
            assert morita_trace(d) == oracles.morita_trace(d)

    def test_seeded_combinations(self):
        rng = random.Random(2)
        basis = basis_D(2, 1)
        for _ in range(5):
            d = sum((b.scale(rng.randint(-2, 2)) for b in basis[1:]), basis[0])
            assert morita_trace(d) == oracles.morita_trace(d)


class TestProjection:
    @pytest.mark.parametrize("g, k", [(2, 1), (2, 2), (3, 1)])
    def test_project_matches_project_lie(self, g, k):
        for d in basis_D(g, k):
            for v in d.values:
                assert derivations._project(v.terms, g) == dict(oracles.project_lie(v).terms)
            assert is_in_G(d) == all(oracles.project_lie(d.values[i]).is_zero() for i in range(g))


def _one_read_inputs():
    """basis_D(2, 1..3), basis_G(3, 1..2) and sampled tau_1..tau_3 at genus
    2..4, each with whether it lies in G."""
    out = [(d, False) for k in (1, 2, 3) for d in basis_D(2, k)]
    out += [(d, True) for k in (1, 2) for d in basis_G(3, k)]
    for g in (2, 3, 4):
        out += [(tau(fm.rep, k), True) for k in (1, 2, 3) for fm in sample_Ak(g, k, 2, seed=0)]
    return out


def _random_forms(rng, count):
    """Tensor forms with a few random coordinates: almost never symplectic."""
    out = []
    for _ in range(count):
        g, k = rng.choice([(2, 1), (2, 2), (3, 1), (3, 2), (2, 3)])
        order = derivations._coordinate_order(g, k)
        terms = {rng.choice(order): rng.choice([-2, -1, 1, 2]) for _ in range(rng.randint(1, 5))}
        out.append(derivations.Derivation._trusted((g, k), terms))
    return out


class TestOneRead:
    """_expanded, _split and _tensor_form are the module's one read of a
    derivation; the routes through them build no LiePoly and agree with
    the literal ones in tests/oracles.py."""

    def test_internal_routes_build_no_lie_poly(self, monkeypatch):
        inputs = _one_read_inputs()
        M = symplectic_action(handlebody_sample_library(3)[0])
        built = []
        trusted, init = LiePoly._trusted.__func__, LiePoly.__init__

        def counted_trusted(cls, space, terms):
            built.append(cls)
            return trusted(cls, space, terms)

        def counted_init(self, *args):
            built.append(type(self))
            init(self, *args)

        monkeypatch.setattr(LiePoly, "_trusted", classmethod(counted_trusted))
        monkeypatch.setattr(LiePoly, "__init__", counted_init)
        first = {}  # genus -> its first degree-1 input
        for d, in_G in inputs:
            first.setdefault(d.genus, d)
            derivations._value_terms(d)
            derivation_bracket(d, first[d.genus])
            morita_trace(d)
            if in_G:
                lagrangian_trace(d)
            if d.genus == 3:
                act_on_derivation(M, d)
        assert built == []
        # the counters see both constructors
        assert len(inputs[0][0].values) == len(built) == 4
        LiePoly(surface_alphabet(2), 2)
        assert built == [LiePoly] * 5

    def test_symplectic_matches_the_merge_route(self, monkeypatch):
        rng = random.Random(27)
        verdicts = set()
        inputs = [d for d, _ in _one_read_inputs()] + _random_forms(rng, 200)
        for d in inputs:
            verdict = oracles.oracle_is_symplectic(d)
            assert derivations.derivation_is_symplectic(d) is verdict, d
            # the expanded form is made with the value: a twin built from the
            # same terms has an equal one, outside equality and hash
            twin = Derivation._trusted(d._space, dict(d.terms))
            assert twin._form == d._form and twin == d and hash(twin) == hash(d)
            verdicts.add(verdict)
        assert verdicts == {True, False}

        # no read expands a form after construction
        def no_expansion(terms):
            raise AssertionError("a form was expanded after construction")

        monkeypatch.setattr(derivations, "_expanded", no_expansion)
        for d in inputs:
            verdict = derivations.derivation_is_symplectic(d)
            assert verdict is oracles.oracle_is_symplectic(d)
            derivations._value_terms(d)
            if verdict:
                morita_trace(d)
                if is_in_G(d):
                    lagrangian_trace(d)

    def test_symplectic_matches_the_rotated_copy(self):
        # the walk over the form against the comparison with a rotated copy
        # it replaced, on basis elements and on copies of them with one
        # coordinate changed, which leave the kernel of the bracket map
        def rotated_copy(d):
            form = d._form
            return form == {key[1:] + key[:1]: c for key, c in form.items()}

        changed = 0
        for d in basis_D(2, 2) + basis_G(3, 2):
            assert derivations.derivation_is_symplectic(d) is rotated_copy(d) is True, d
            for key, c in d.terms.items():
                twin = Derivation._trusted(d._space, {**d.terms, key: c + 1})
                assert derivations.derivation_is_symplectic(twin) is rotated_copy(twin) is False, twin
                changed += 1
        assert changed == 488

    def test_the_form_is_read_only(self):
        d = basis_D(2, 1)[0]
        key = next(iter(d._form))
        with pytest.raises(TypeError):
            d._form[key] = 0
        with pytest.raises(AttributeError, match="Derivation is immutable"):
            d._form = {}

    def test_value_terms_are_the_expanded_values(self):
        rng = random.Random(28)
        for d in [d for d, _ in _one_read_inputs()] + _random_forms(rng, 60):
            want = [dict(oracles.lie_to_tensor(v).terms) for v in d.values]
            assert derivations._value_terms(d) == want, d

    def test_bracket_and_action_match_the_oracles(self):
        rng = random.Random(29)
        inputs = [d for d, _ in _one_read_inputs()]
        forms = _random_forms(rng, 40)
        for d in rng.sample(inputs, 12) + forms[:12]:
            e = rng.choice([x for x in inputs + forms if x.genus == d.genus and x.degree == 1])
            assert derivation_bracket(d, e) == oracles.derivation_bracket(d, e)
        actions = {g: _actions(g)[:6] for g in (2, 3, 4)}
        for d in rng.sample(inputs, 20) + forms[12:]:
            M = rng.choice(actions[d.genus])
            assert act_on_derivation(M, d) == oracles.act_on_derivation(M, d)
