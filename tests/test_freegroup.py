import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lagtrace.derivations import _fixes_form
from lagtrace.errors import (
    AmbientMismatch,
    BudgetExceeded,
    CertificationError,
    NotInHandlebodyGroup,
    ParseError,
)
from lagtrace.freegroup import (
    HANDLEBODY,
    SURFACE,
    FreeGroupMap,
    GroupWord,
    MappingClassRep,
    _handlebody_letters,
    abelianize_word,
    alpha,
    apply,
    beta,
    commutator,
    compose,
    conjugate,
    extends_to_handlebody,
    format_word,
    identity_map,
    identity_word,
    induced_handlebody_map,
    max_image_length,
    mcr_commutator,
    mcr_compose,
    mcr_conjugate,
    mcr_identity,
    mcr_inverse,
    parse_word,
    project_to_handlebody,
    symplectic_action,
    word_from_codes,
)
from lagtrace.johnson import handlebody_sample_library
from oracles import (
    boundary_word,
    oracle_extends_to_handlebody,
    oracle_project_to_handlebody,
    random_reduced_word,
    symplectic_form_matrix,
)


def words(genus=2, ambient=SURFACE, max_len=12):
    rank = 2 * genus if ambient == SURFACE else genus
    codes = st.integers(min_value=1, max_value=rank).flatmap(
        lambda k: st.sampled_from([k, -k])
    )
    return st.lists(codes, max_size=max_len).map(
        lambda ls: word_from_codes(ambient, genus, ls)
    )


class TestReduction:
    def test_cancellation(self):
        w = word_from_codes(SURFACE, 2, [1, 2, -2, -1, 3])
        assert w.letters == (3,)

    def test_identity(self):
        assert word_from_codes(SURFACE, 2, [1, -1]).is_identity()

    def test_nested_cancellation(self):
        w = word_from_codes(SURFACE, 2, [1, 2, 3, -3, -2, -1])
        assert w.is_identity()

    @given(words())
    def test_inverse_cancels(self, w):
        assert (w * ~w).is_identity()
        assert (~w * w).is_identity()

    @given(words(), words())
    def test_antihomomorphism(self, u, v):
        assert ~(u * v) == ~v * ~u

    @given(words(), words(), words())
    def test_associative(self, u, v, w):
        assert (u * v) * w == u * (v * w)

    def test_power(self):
        a1 = alpha(1, 2)
        assert a1**3 == a1 * a1 * a1
        assert a1**-2 == ~a1 * ~a1
        assert (a1**0).is_identity()

    def test_ambient_mismatch(self):
        a = alpha(1, 2)
        bp = word_from_codes(HANDLEBODY, 2, [1])
        with pytest.raises(AmbientMismatch):
            a * bp

    def test_genus_mismatch(self):
        with pytest.raises(AmbientMismatch):
            alpha(1, 2) * alpha(1, 3)

    @pytest.mark.parametrize(
        "ambient,codes", [(SURFACE, (1, 5)), (SURFACE, (-5,)), (SURFACE, (0,)), (HANDLEBODY, (3,))]
    )
    def test_letter_codes_out_of_range(self, ambient, codes):
        with pytest.raises(ValueError, match="out of range"):
            GroupWord(ambient, 2, codes)


def _immutables():
    g = 2
    w = alpha(1, g) * beta(2, g)
    return {"GroupWord": w, "FreeGroupMap": identity_map(SURFACE, g), "MappingClassRep": twist_map(g)}


@pytest.mark.parametrize("name", ["GroupWord", "FreeGroupMap", "MappingClassRep"])
def test_instances_are_immutable(name):
    # shared through caches (the sample library, the light classes), so no
    # caller may rebind or delete an attribute of one
    x = _immutables()[name]
    before = repr(x), x
    for attr in (*type(x).__slots__, "other"):
        with pytest.raises(AttributeError, match=f"{name} is immutable"):
            setattr(x, attr, None)
        with pytest.raises(AttributeError, match=f"{name} is immutable"):
            delattr(x, attr)
    assert (repr(x), x) == before


class TestParseFormat:
    @pytest.mark.parametrize(
        "text,codes",
        [
            ("a1", (1,)),
            ("b2", (4,)),
            ("a1^-1", (-1,)),
            ("a1 b1 a1^-1 b1^-1", (1, 3, -1, -3)),
            ("1", ()),
        ],
    )
    def test_parse_surface(self, text, codes):
        assert parse_word(text, 2).letters == codes

    def test_parse_handlebody(self):
        w = parse_word("B1 B2^-1", 2, ambient=HANDLEBODY)
        assert w.letters == (1, -2)

    @given(words(genus=3))
    def test_round_trip(self, w):
        assert parse_word(format_word(w), 3) == w

    def test_identity_formats_as_one(self):
        assert format_word(identity_word(SURFACE, 2)) == "1"

    @pytest.mark.parametrize(
        "bad",
        ["a0", "a3", "c1", "B1", "a1^2", "a1^", "a", "a1b1", "b1^+1"],
    )
    def test_rejects(self, bad):
        with pytest.raises(ParseError):
            parse_word(bad, 2)

    def test_rejects_surface_letter_in_handlebody(self):
        with pytest.raises(ParseError):
            parse_word("a1", 2, ambient=HANDLEBODY)

    def test_error_carries_position(self):
        with pytest.raises(ParseError) as exc:
            parse_word("a1 c2", 2, line=7)
        assert exc.value.line == 7
        assert exc.value.column == 4


class TestCommutators:
    def test_commutator_form(self):
        u, v = alpha(1, 2), beta(1, 2)
        assert commutator(u, v) == u * v * ~u * ~v

    def test_conjugate_form(self):
        u, v = alpha(2, 2), beta(2, 2)
        assert conjugate(u, v) == v * u * ~v

    @given(words(), words())
    def test_commutator_inverse(self, u, v):
        assert ~commutator(u, v) == commutator(v, u)


class TestMaps:
    def test_apply_extends_letterwise(self):
        g = 2
        f = FreeGroupMap(
            SURFACE,
            g,
            [alpha(1, g) * beta(1, g), alpha(2, g), beta(1, g), beta(2, g)],
        )
        w = parse_word("a1 b1^-1", g)
        assert apply(f, w) == parse_word("a1 b1 b1^-1", g)

    def test_compose_is_f_after_h(self):
        g = 2
        f = FreeGroupMap(SURFACE, g, [parse_word(s, g) for s in ["a1 b1", "a2", "b1", "b2"]])
        h = FreeGroupMap(SURFACE, g, [parse_word(s, g) for s in ["a1", "a2", "b1 a1", "b2"]])
        fh = compose(f, h)
        # (f.h)(b1) = f(b1 a1) = b1 a1 b1
        assert apply(fh, beta(1, g)) == parse_word("b1 a1 b1", g)

    def test_wrong_image_count(self):
        with pytest.raises(ValueError):
            FreeGroupMap(SURFACE, 2, [alpha(1, 2)])

    def test_maps_and_words_of_different_groups_do_not_mix(self):
        g = 2
        images = [word_from_codes(SURFACE, g, [x]) for x in range(1, 2 * g + 1)]
        for odd in (alpha(1, 3), word_from_codes(HANDLEBODY, g, [1]), "a1"):
            with pytest.raises(AmbientMismatch, match="image words must live in the same group"):
                FreeGroupMap(SURFACE, g, [odd, *images[1:]])
        f, other = identity_map(SURFACE, g), identity_map(SURFACE, 3)
        with pytest.raises(AmbientMismatch, match="map and word live in different groups"):
            apply(f, alpha(1, 3))
        with pytest.raises(AmbientMismatch, match="map and word live in different groups"):
            apply(f, word_from_codes(HANDLEBODY, g, [1]))
        with pytest.raises(AmbientMismatch, match="cannot compose maps of different groups"):
            compose(f, other)
        with pytest.raises(AmbientMismatch, match="cannot compose maps of different groups"):
            compose(identity_map(HANDLEBODY, g), f)
        with pytest.raises(AmbientMismatch, match="forward and inverse live in different groups"):
            MappingClassRep(f, other)

    @pytest.mark.parametrize("ambient", [SURFACE, HANDLEBODY])
    def test_apply_and_product_match_substitute_then_reduce(self, ambient):
        # apply cancels only at the seams and multiplies by cached inverted
        # images; the reference substitutes every letter and reduces the result
        rng = random.Random(11)
        for genus in (2, 3):
            rank = 2 * genus if ambient == SURFACE else genus
            for _ in range(40):
                images = [random_reduced_word(rng, ambient, genus, rng.randrange(6)) for _ in range(rank)]
                f = FreeGroupMap(ambient, genus, images)
                w = random_reduced_word(rng, ambient, genus, rng.randrange(12))
                letters = []
                for x in w.letters:
                    im = images[abs(x) - 1].letters
                    letters.extend(im if x > 0 else [-y for y in reversed(im)])
                expected = word_from_codes(ambient, genus, letters)
                for _ in range(2):  # the second pass reads the filled-in inverses
                    out = apply(f, w)
                    assert out == expected and hash(out) == hash(expected)
                u, v = images[0], images[-1]
                assert u * v == word_from_codes(ambient, genus, u.letters + v.letters)
                assert (u * ~u).is_identity() and ~u == word_from_codes(ambient, genus, (~u).letters)

    def test_apply_cancels_long_seams(self):
        # images share stretches of hundreds of letters, so seams cancel
        # hundreds of letters and end both inside and at the end of an image
        rng = random.Random(12)
        g = 2
        u = random_reduced_word(rng, SURFACE, g, 300)
        v = u * random_reduced_word(rng, SURFACE, g, 400)
        pieces = [u, ~u, v, ~v]
        for _ in range(30):
            images = [
                random_reduced_word(rng, SURFACE, g, rng.randrange(2))
                * rng.choice(pieces)
                * random_reduced_word(rng, SURFACE, g, rng.randrange(2))
                for _ in range(2 * g)
            ]
            f = FreeGroupMap(SURFACE, g, images)
            for _ in range(10):
                w = random_reduced_word(rng, SURFACE, g, 8)
                letters = []
                for x in w.letters:
                    im = images[abs(x) - 1].letters
                    letters.extend(im if x > 0 else [-y for y in reversed(im)])
                assert apply(f, w) == word_from_codes(SURFACE, g, letters)

    def test_budgeted_apply_raises_exactly_past_the_budget(self):
        # images conjugated by long shared words cancel at every seam, so the
        # image is far shorter than the summed image lengths the bound starts from
        rng = random.Random(13)
        g = 2
        u = random_reduced_word(rng, SURFACE, g, 200)
        conjugators = [u, u * alpha(1, g), beta(2, g) * u]
        for _ in range(30):
            images = [
                conjugate(word_from_codes(SURFACE, g, [x]), rng.choice(conjugators))
                for x in range(1, 2 * g + 1)
            ]
            f = FreeGroupMap(SURFACE, g, images)
            w = random_reduced_word(rng, SURFACE, g, rng.randrange(1, 10))
            full = apply(f, w)
            for budget in (0, len(full) // 2, len(full) - 1, len(full), len(full) + 1, 10**9):
                if len(full) > budget:
                    with pytest.raises(BudgetExceeded):
                        apply(f, w, budget)
                else:
                    assert apply(f, w, budget) == full
            h = FreeGroupMap(SURFACE, g, [w] + list(images[1:]))
            longest = max(len(im) for im in compose(f, h).images)
            assert compose(f, h, longest) == compose(f, h)
            with pytest.raises(BudgetExceeded):
                compose(f, h, longest - 1)

    def test_budgeted_apply_stops_before_building_a_long_image(self):
        # 600 letters that each add 300 letters with no cancellation, then one
        # inverse letter: the output outgrows the budget plus everything still
        # to come at letter 302, so apply never reaches (or inverts) the last
        g = 2
        big = word_from_codes(SURFACE, g, [1, 2] * 150)
        f = FreeGroupMap(SURFACE, g, [big, big, alpha(1, g), beta(2, g)])
        w = word_from_codes(SURFACE, g, [1] * 600 + [-3])
        with pytest.raises(BudgetExceeded):
            apply(f, w, 1000)
        assert f._subst[-3] is None
        assert len(apply(f, w)) == 180_001 and f._subst[-3] == (-1,)


def twist_map(g):
    # beta_1 -> beta_1 alpha_1, everything else fixed
    images = [alpha(i, g) for i in range(1, g + 1)] + [beta(i, g) for i in range(1, g + 1)]
    images[g] = beta(1, g) * alpha(1, g)
    inv_images = list(images)
    inv_images[g] = beta(1, g) * ~alpha(1, g)
    return MappingClassRep(
        FreeGroupMap(SURFACE, g, images), FreeGroupMap(SURFACE, g, inv_images)
    )


class TestMappingClassRep:
    def test_certifies(self):
        m = twist_map(2)
        assert apply(m.forward, beta(1, 2)) == parse_word("b1 a1", 2)

    def test_rejects_non_inverse(self):
        g = 2
        f = FreeGroupMap(
            SURFACE, g, [alpha(1, g) * beta(1, g), alpha(2, g), beta(1, g), beta(2, g)]
        )
        with pytest.raises(CertificationError):
            MappingClassRep(f, f)

    def test_compose_and_inverse(self):
        m = twist_map(2)
        mm = mcr_compose(m, m)
        assert apply(mm.forward, beta(1, 2)) == parse_word("b1 a1 a1", 2)
        inv = mcr_inverse(m)
        ident = mcr_compose(m, inv)
        for i in range(1, 5):
            w = word_from_codes(SURFACE, 2, [i])
            assert apply(ident.forward, w) == w

    def test_conjugate_and_commutator_certify(self):
        m = twist_map(2)
        n = mcr_conjugate(m, mcr_compose(m, m))
        assert isinstance(n, MappingClassRep)
        c = mcr_commutator(m, n)
        assert isinstance(c, MappingClassRep)

    @pytest.mark.parametrize("g", [2, 3])
    def test_commutator_matches_the_full_composition(self, g):
        # each image of m n m^-1 n^-1, and of its inverse n m n^-1 m^-1, read
        # letter by letter through the four maps; every pair of library
        # classes and their inverses, commuting pairs among them
        lib = handlebody_sample_library(g)
        stock = list(lib) + [mcr_inverse(m) for m in lib]
        gens = [word_from_codes(SURFACE, g, [j]) for j in range(1, 2 * g + 1)]
        commuting = 0
        for m in stock:
            for n in stock:
                c = mcr_commutator(m, n)
                for x, image, inverse_image in zip(gens, c.forward.images, c.inverse.images):
                    assert image == apply(m.forward, apply(n.forward, apply(m.inverse, apply(n.inverse, x))))
                    assert inverse_image == apply(
                        n.forward, apply(m.forward, apply(n.inverse, apply(m.inverse, x)))
                    )
                commuting += c.forward == identity_map(SURFACE, g)
        assert 0 < commuting < len(stock) ** 2

    def test_commuting_pair_answers_to_the_budget(self):
        # the budget binds the final composition only.  An annulus twist and
        # a meridian twist commute: their inner products have 12 letters,
        # the commutator is the identity, whose images have 1, so a budget
        # below 1 raises and a budget of 1 passes.  A pair that does not
        # commute passes at its longest image and raises one letter short.
        lib = handlebody_sample_library(2)
        phi, meridian = lib[-1], lib[0]
        assert max_image_length(mcr_compose(phi, meridian)) == 12
        for budget in (-1, 0):
            with pytest.raises(BudgetExceeded, match=f"exceed {budget} letters"):
                mcr_commutator(phi, meridian, budget)
        assert mcr_commutator(phi, meridian, 1) == mcr_identity(2)
        psi = mcr_conjugate(phi, lib[4])
        full = mcr_commutator(phi, psi)
        longest = max_image_length(full)
        c = mcr_commutator(phi, psi, longest)
        assert (c.forward, c.inverse) == (full.forward, full.inverse)
        with pytest.raises(BudgetExceeded, match=f"exceed {longest - 1} letters"):
            mcr_commutator(phi, psi, longest - 1)

    def test_identity(self):
        m = mcr_identity(2)
        assert apply(m.forward, alpha(1, 2)) == alpha(1, 2)


class TestProjection:
    def test_kills_alpha(self):
        w = parse_word("a1 b1 a2^-1 b2", 2)
        assert format_word(project_to_handlebody(w)) == "B1 B2"

    def test_projection_is_homomorphism(self):
        u = parse_word("a1 b1", 2)
        v = parse_word("b1^-1 a2 b2", 2)
        assert project_to_handlebody(u * v) == project_to_handlebody(
            u
        ) * project_to_handlebody(v)

    def test_twist_extends(self):
        # beta_1 -> beta_1 alpha_1 sends the kernel's normal generators into the kernel
        assert extends_to_handlebody(twist_map(2))

    def test_induced_map(self):
        ind = induced_handlebody_map(twist_map(2))
        bp = word_from_codes(HANDLEBODY, 2, [1])
        assert apply(ind, bp) == bp

    def test_non_extending(self):
        g = 2
        # alpha_1 -> alpha_1 beta_1 does not keep alpha_1's image in the kernel
        images = [parse_word(s, g) for s in ["a1 b1", "a2", "b1", "b2"]]
        inv = [parse_word(s, g) for s in ["a1 b1^-1", "a2", "b1", "b2"]]
        m = MappingClassRep(FreeGroupMap(SURFACE, g, images), FreeGroupMap(SURFACE, g, inv))
        assert not extends_to_handlebody(m)
        for _ in range(2):
            with pytest.raises(NotInHandlebodyGroup):
                induced_handlebody_map(m)
        assert "psi" not in m._cache

    def test_projection_matches_the_validating_route(self):
        # the projection of a reduced surface word often cancels: b1 a1 b1^-1
        # projects to B1 B1^-1, so a projection that skipped the reduction
        # would differ in its letters
        rng = random.Random(41)
        cancelled = 0
        for g in (2, 3, 4):
            lib = handlebody_sample_library(g)
            ws = [identity_word(SURFACE, g)]
            ws += [im for m in lib for f in (m.forward, m.inverse) for im in f.images]
            ws += [random_reduced_word(rng, SURFACE, g, rng.randrange(1, 40)) for _ in range(200)]
            for w in ws:
                got, want = project_to_handlebody(w), oracle_project_to_handlebody(w)
                assert (got.ambient, got.genus, got.letters) == (want.ambient, want.genus, want.letters)
                assert got == want and hash(got) == hash(want)
                cancelled += len(want) < sum(abs(x) > g for x in w.letters)
        assert cancelled > 100

    def test_extends_matches_the_validating_route(self):
        # Nielsen moves x_i -> x_i x_j^(+-1) with their inverses, composed at
        # random: some keep every alpha image in the kernel, most do not
        rng = random.Random(42)
        verdicts = set()
        for g in (2, 3, 4):
            lib = handlebody_sample_library(g)
            classes = list(lib) + [mcr_compose(m, n) for m in lib for n in lib][:20]
            for _ in range(40):
                m = mcr_identity(g)
                for _ in range(rng.randint(1, 4)):
                    m = mcr_compose(m, rng.choice([_nielsen(rng, g), rng.choice(lib)]))
                classes.append(m)
            for m in classes:
                verdict = extends_to_handlebody(m)
                assert verdict == oracle_extends_to_handlebody(m)
                verdicts.add(verdict)
        assert verdicts == {True, False}

    def test_membership_by_construction(self):
        # the handlebody group is a group: a product, inverse, conjugate or
        # commutator of members carries "extends" True, and the explicit
        # read of its images agrees
        g = 2
        lib = handlebody_sample_library(g)
        phi, meridian = lib[-1], lib[0]

        def explicit(m):
            return not any(_handlebody_letters(f.images[i]) for f in (m.forward, m.inverse) for i in range(g))

        members = [
            mcr_compose(phi, meridian),
            mcr_inverse(phi),
            mcr_conjugate(phi, meridian),
            mcr_commutator(phi, mcr_conjugate(phi, lib[4])),
            mcr_commutator(phi, meridian, 1),
        ]
        for m in members:
            assert m._cache == {"extends": True} and explicit(m)
        # the beta-twist a1 -> a1 b1, certified by its inverse, is outside;
        # a member rebuilt through MappingClassRep has no memo until asked
        images = [parse_word(s, g) for s in ["a1 b1", "a2", "b1", "b2"]]
        inv = [parse_word(s, g) for s in ["a1 b1^-1", "a2", "b1", "b2"]]
        beta_twist = MappingClassRep(FreeGroupMap(SURFACE, g, images), FreeGroupMap(SURFACE, g, inv))
        for asked in (False, True):
            fresh = MappingClassRep(phi.forward, phi.inverse)
            if asked:
                assert extends_to_handlebody(beta_twist) is False
                assert extends_to_handlebody(fresh) is True
            else:
                assert "extends" not in beta_twist._cache and "extends" not in fresh._cache
            # a factor whose memo is missing or False leaves no memo
            for m in (mcr_compose(phi, beta_twist), mcr_compose(beta_twist, phi), mcr_inverse(beta_twist)):
                assert "extends" not in m._cache
                assert extends_to_handlebody(m) is False is explicit(m)
            for m in (mcr_conjugate(phi, beta_twist), mcr_commutator(phi, beta_twist)):
                assert "extends" not in m._cache
                assert extends_to_handlebody(m) is explicit(m)
            m = mcr_compose(phi, fresh)
            assert m._cache == ({"extends": True} if asked else {})
            assert extends_to_handlebody(m) is True is explicit(m)

    def test_induced_map_is_memoized(self):
        m = twist_map(2)
        assert "psi" not in m._cache
        ind = induced_handlebody_map(m)
        g = m.genus
        fresh = [project_to_handlebody(m.forward.images[g + i]) for i in range(g)]
        assert ind.images == tuple(fresh)
        assert induced_handlebody_map(m) is ind and m._cache["psi"] is ind


def _nielsen(rng, g):
    """The automorphism x_i -> x_i x_j^e of the surface free group, with its inverse."""
    i, j = rng.sample(range(1, 2 * g + 1), 2)
    e = rng.choice([1, -1])

    def images(sign):
        return [
            word_from_codes(SURFACE, g, [x, sign * e * j] if x == i else [x]) for x in range(1, 2 * g + 1)
        ]

    return MappingClassRep(FreeGroupMap(SURFACE, g, images(1)), FreeGroupMap(SURFACE, g, images(-1)))


class TestHomology:
    def test_abelianize(self):
        w = parse_word("a1 b1 a1 b1^-1 a2^-1", 2)
        assert abelianize_word(w) == (2, -1, 0, 0)

    def test_symplectic_action_of_twist(self):
        m = twist_map(2)
        M = symplectic_action(m)
        # beta_1 -> beta_1 alpha_1 adds the alpha_1 row entry in beta_1's column
        assert M[0][2] == 1 and M[2][2] == 1
        assert _fixes_form(M, 2)

    def test_form_matrix(self):
        J = symplectic_form_matrix(2)
        assert J[0][2] == 1 and J[2][0] == -1 and J[1][3] == 1 and J[3][1] == -1

    def test_action_respects_composition(self):
        m = twist_map(2)
        mm = mcr_compose(m, m)
        M = symplectic_action(m)
        MM = symplectic_action(mm)
        prod = [
            [sum(M[i][k] * M[k][j] for k in range(4)) for j in range(4)]
            for i in range(4)
        ]
        assert tuple(tuple(r) for r in prod) == MM


def fixes_boundary(m) -> bool:
    z = boundary_word(m.genus)
    return apply(m.forward, z) == z


class TestBoundary:
    def test_descending_order(self):
        z = boundary_word(2)
        assert z == commutator(alpha(2, 2), beta(2, 2)) * commutator(
            alpha(1, 2), beta(1, 2)
        )

    def test_twist_fixes_boundary(self):
        # [a1, b1 a1] reduces to [a1, b1], so the twist fixes zeta on the nose
        assert fixes_boundary(twist_map(2))

    def test_plain_swap_moves_boundary(self):
        g = 2
        images = [alpha(2, g), alpha(1, g), beta(2, g), beta(1, g)]
        swap = MappingClassRep(
            FreeGroupMap(SURFACE, g, images), FreeGroupMap(SURFACE, g, images)
        )
        assert not fixes_boundary(swap)

    def test_identity_fixes_boundary(self):
        assert fixes_boundary(mcr_identity(2))


class TestRandomWords:
    def test_reduced_and_deterministic(self):
        import random

        w1 = random_reduced_word(random.Random(5), SURFACE, 2, 30)
        w2 = random_reduced_word(random.Random(5), SURFACE, 2, 30)
        assert w1 == w2
        assert len(w1.letters) == 30

    def test_handlebody_ambient(self):
        import random

        w = random_reduced_word(random.Random(1), HANDLEBODY, 3, 10)
        assert w.ambient == HANDLEBODY
        assert all(1 <= abs(c) <= 3 for c in w.letters)
