import importlib
import pkgutil
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lagtrace
from lagtrace.derivations import Derivation, WedgeTriple, _fixes_form
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
    Frozen,
    GroupWord,
    MappingClassRep,
    _handlebody_letters,
    _rank,
    _seam_table,
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
)
from lagtrace.groupring import GroupRingElem, LaurentElem
from lagtrace.johnson import FilteredMappingClass, annulus_twist, handlebody_sample_library, tau
from lagtrace.tensorlie import (
    Alphabet,
    LiePoly,
    Sparse,
    SymPoly,
    TensorPoly,
    handlebody_alphabet,
    surface_alphabet,
)
from oracles import (
    boundary_word,
    oracle_apply,
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
        lambda ls: GroupWord(ambient, genus, ls)
    )


class TestReduction:
    def test_cancellation(self):
        w = GroupWord(SURFACE, 2, [1, 2, -2, -1, 3])
        assert w.letters == (3,)

    def test_identity(self):
        assert GroupWord(SURFACE, 2, [1, -1]).is_identity()

    def test_nested_cancellation(self):
        w = GroupWord(SURFACE, 2, [1, 2, 3, -3, -2, -1])
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
        bp = GroupWord(HANDLEBODY, 2, [1])
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


def _frozen_classes():
    """Every subclass of the immutable-value base, in every package module."""
    for info in pkgutil.iter_modules(lagtrace.__path__):
        importlib.import_module(f"lagtrace.{info.name}")
    found, todo = [], [Frozen]
    while todo:
        subs = todo.pop().__subclasses__()
        found += subs
        todo += subs
    return sorted(found, key=lambda cls: cls.__name__)


def _immutables():
    g = 2
    w = alpha(1, g) * beta(2, g)
    s2 = surface_alphabet(g)
    return {
        "GroupWord": w,
        "FreeGroupMap": identity_map(SURFACE, g),
        "MappingClassRep": twist_map(g),
        "Alphabet": s2,
        "FilteredMappingClass": FilteredMappingClass(annulus_twist(g), 1, True),
        "Sparse": Sparse._trusted((), {(): 1}),  # the core itself, over the empty space
        "GroupRingElem": GroupRingElem(SURFACE, g, {w: 2}),
        "LaurentElem": LaurentElem(s2, {(1, 0, 0, -1): 3}),
        "TensorPoly": TensorPoly(s2, {(0, 2): 1}),
        "LiePoly": LiePoly(s2, 2, {(0, 2): 1}),
        "SymPoly": SymPoly(handlebody_alphabet(g), {(1, 0): 2}),
        "WedgeTriple": WedgeTriple(g, {(0, 1, 2): 1}),
        "Derivation": tau(annulus_twist(g), 1),
    }


@pytest.mark.parametrize("cls", _frozen_classes(), ids=lambda cls: cls.__name__)
def test_instances_are_immutable(cls):
    # shared through caches (the sample library, the light classes, the tau_k
    # memos), so no caller may rebind or delete an attribute of one; a new
    # subclass of the base fails here until it has a sample
    name = cls.__name__
    x = _immutables()[name]
    assert type(x) is cls
    before = repr(x), x
    slots = [slot for owner in cls.__mro__ for slot in owner.__dict__.get("__slots__", ())]
    assert slots
    for attr in (*slots, "other"):
        with pytest.raises(AttributeError, match=f"^{name} is immutable$"):
            setattr(x, attr, None)
        with pytest.raises(AttributeError, match=f"^{name} is immutable$"):
            delattr(x, attr)
    assert (repr(x), x) == before


def _fresh_twist():
    # the genus-2 annulus twist, certified anew, with no memo
    t = annulus_twist(2)
    return MappingClassRep(t.forward, t.inverse)


def _fill_memos(m):
    extends_to_handlebody(m)
    tau(m, 1)


def _values():
    """For each value class: a factory of fresh, equal values, a value that
    differs from theirs in every public slot, and an operation that fills a
    private slot after construction (None where construction fills them)."""
    s3, h3 = surface_alphabet(3), handlebody_alphabet(3)
    word = lambda: alpha(1, 2) * beta(2, 2)
    return {
        GroupWord: (word, GroupWord(HANDLEBODY, 3, (1, -2)), None),
        FreeGroupMap: (
            lambda: FreeGroupMap(SURFACE, 2, annulus_twist(2).forward.images),  # no inverse image yet
            identity_map(HANDLEBODY, 3),
            lambda f: apply(f, ~word()),
        ),
        MappingClassRep: (_fresh_twist, mcr_inverse(_fresh_twist()), _fill_memos),
        Alphabet: (lambda: surface_alphabet(2), h3, None),
        FilteredMappingClass: (
            lambda: FilteredMappingClass(_fresh_twist(), 1, True),
            FilteredMappingClass(mcr_inverse(_fresh_twist()), 2, False),
            None,
        ),
        Sparse: (lambda: Sparse._trusted((), {(): 1}), Sparse._trusted((), {(): 2}), None),
        GroupRingElem: (
            lambda: GroupRingElem(SURFACE, 2, {word(): 2}),
            GroupRingElem(HANDLEBODY, 3, {GroupWord(HANDLEBODY, 3, (1,)): 1}),
            None,
        ),
        LaurentElem: (lambda: LaurentElem(surface_alphabet(2), {(1, 0, 0, -1): 3}), LaurentElem(h3, {(1, 0, 0): 1}), None),
        TensorPoly: (lambda: TensorPoly(surface_alphabet(2), {(0, 2): 1}), TensorPoly(h3, {(0, 1): 1}), None),
        LiePoly: (lambda: LiePoly(surface_alphabet(2), 2, {(0, 2): 1}), LiePoly(h3, 3, {(0, 0, 1): 1}), None),
        SymPoly: (lambda: SymPoly(handlebody_alphabet(2), {(1, 0): 2}), SymPoly(s3, {(0, 1, 0, 0, 0, 0): 1}), None),
        WedgeTriple: (lambda: WedgeTriple(2, {(0, 1, 2): 1}), WedgeTriple(3, {(0, 1, 5): 2}), None),
        Derivation: (lambda: tau(annulus_twist(2), 1), Derivation(3, 2, [LiePoly(s3, 3, {})] * 6), None),
    }


def _slots(cls, public: bool) -> list:
    names = [name for owner in cls.__mro__ for name in owner.__dict__.get("__slots__", ())]
    return [name for name in names if name.startswith("_") != public]


def _with_slot(x, name, value):
    """A copy of x with one slot replaced, written past the base's fill."""
    out = object.__new__(type(x))
    for slot in _slots(type(x), True) + _slots(type(x), False):
        getattr(type(x), slot).__set__(out, value if slot == name else getattr(x, slot))
    return out


def test_the_value_table_covers_every_value_class():
    # a new subclass of the base fails here until it has an entry
    assert set(_values()) == set(_frozen_classes())


@pytest.mark.parametrize("cls", _frozen_classes(), ids=lambda cls: cls.__name__)
def test_a_value_is_its_public_slots(cls):
    values = _values()
    fresh, other, fill = values[cls]
    x, y = fresh(), fresh()
    assert type(x) is cls and x is not y
    assert x == y and not x != y and hash(x) == hash(y)
    public = _slots(cls, True)
    assert public
    for name in public:
        assert getattr(other, name) != getattr(x, name), f"the differing value shares {name}"
        changed = _with_slot(x, name, getattr(other, name))
        assert changed != x and not changed == x, f"{cls.__name__}.{name} is outside equality"
    if fill is not None:
        private = lambda: repr([getattr(y, name) for name in _slots(cls, False)])
        before = private()
        fill(y)
        assert private() != before, "nothing filled"
        assert x == y and hash(x) == hash(y)
    for kind, (make, _, _) in values.items():
        if kind is not cls:
            assert (x == make()) is False and (x != make()) is True


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
        assert format_word(GroupWord(SURFACE, 2)) == "1"

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
        images = [GroupWord(SURFACE, g, [x]) for x in range(1, 2 * g + 1)]
        for odd in (alpha(1, 3), GroupWord(HANDLEBODY, g, [1]), "a1"):
            with pytest.raises(AmbientMismatch, match="image words must live in the same group"):
                FreeGroupMap(SURFACE, g, [odd, *images[1:]])
        f, other = identity_map(SURFACE, g), identity_map(SURFACE, 3)
        with pytest.raises(AmbientMismatch, match="map and word live in different groups"):
            apply(f, alpha(1, 3))
        with pytest.raises(AmbientMismatch, match="map and word live in different groups"):
            apply(f, GroupWord(HANDLEBODY, g, [1]))
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
                expected = GroupWord(ambient, genus, letters)
                for _ in range(2):  # the second pass reads the filled-in inverses
                    out = apply(f, w)
                    assert out == expected and hash(out) == hash(expected)
                u, v = images[0], images[-1]
                assert u * v == GroupWord(ambient, genus, u.letters + v.letters)
                assert (u * ~u).is_identity() and ~u == GroupWord(ambient, genus, (~u).letters)

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
                assert apply(f, w) == GroupWord(SURFACE, g, letters)

    def test_budgeted_apply_raises_exactly_past_the_budget(self):
        # images conjugated by long shared words cancel at every seam, so the
        # image is far shorter than the summed image lengths the bound starts from
        rng = random.Random(13)
        g = 2
        u = random_reduced_word(rng, SURFACE, g, 200)
        conjugators = [u, u * alpha(1, g), beta(2, g) * u]
        for _ in range(30):
            images = [
                conjugate(GroupWord(SURFACE, g, [x]), rng.choice(conjugators))
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
        big = GroupWord(SURFACE, g, [1, 2] * 150)
        f = FreeGroupMap(SURFACE, g, [big, big, alpha(1, g), beta(2, g)])
        w = GroupWord(SURFACE, g, [1] * 600 + [-3])
        with pytest.raises(BudgetExceeded):
            apply(f, w, 1000)
        assert f._subst[-3] is None
        assert len(apply(f, w)) == 180_001 and f._subst[-3] == (-1,)


def _codes(genus, *images):
    return FreeGroupMap(SURFACE, genus, [GroupWord(SURFACE, genus, im) for im in images])


def _oracle_compose(f, h):
    return FreeGroupMap(f.ambient, f.genus, [oracle_apply(f, im) for im in h.images])


def _seamy_map(rng, ambient, genus):
    """Images built from a few shared pieces, some empty, so that seams of
    every length against the last image's tail are common."""
    rank = _rank(ambient, genus)
    pieces = [random_reduced_word(rng, ambient, genus, rng.randrange(6)) for _ in range(3)]
    pieces += [~p for p in pieces]
    images = []
    for _ in range(rank):
        im = GroupWord(ambient, genus)
        for _ in range(rng.randrange(4)):
            im = im * rng.choice(pieces)
        images.append(im)
    return FreeGroupMap(ambient, genus, images)


class TestSeamTable:
    """apply with a seam table against the letter-by-letter oracle_apply.

    Genus 2 surface letters: 1, 2 = a1, a2 and 3, 4 = b1, b2."""

    def test_seam_shorter_than_the_tail(self):
        # f(a1) = b1 b2 a2 ends in the seam b2 a2 of f(a2) = a2^-1 b2^-1 a1
        f = _codes(2, [3, 4, 2], [-2, -4, 1], [3], [4])
        w = GroupWord(SURFACE, 2, [1, 2, 1, 2])
        seams = _seam_table(f)
        assert apply(f, w, seams=seams) == oracle_apply(f, w) == GroupWord(
            SURFACE, 2, [3, 1, 3, 1]
        )
        assert seams[1][2] == 2 and seams[2][1] == 0

    def test_image_cancelled_whole_inside_the_tail(self):
        # f(a2) = a2^-1 b2^-1 cancels whole against the tail of f(a1); the
        # output then ends in b1, which is no tail of f(a2) or of f(a1), and
        # the next image must not be cut as if it were
        f = _codes(2, [3, 4, 2], [-2, -4], [1, 3], [4, 2])
        for codes, expected in [
            ([1, 2, 4], [3, 4, 2]),
            ([1, 2, 2, 1], [3, -2, -4, 3, 4, 2]),
            ([1, 2, -3], [-1]),
        ]:
            w = GroupWord(SURFACE, 2, codes)
            assert apply(f, w, seams=_seam_table(f)) == oracle_apply(f, w)
            assert oracle_apply(f, w) == GroupWord(SURFACE, 2, expected)

    def test_cascade_past_the_tail_into_earlier_images(self):
        # f(b1) = a2^-1 a1^-1 b2^-1 b1^-1 a1 cancels all of f(a2) = a1 a2, a
        # seam as long as the tail, then all of f(a1) = b1 b2 before it
        f = _codes(2, [3, 4], [1, 2], [-2, -1, -4, -3, 1], [4])
        w = GroupWord(SURFACE, 2, [1, 2, 3])
        seams = _seam_table(f)
        assert apply(f, w, seams=seams) == oracle_apply(f, w) == GroupWord(SURFACE, 2, [1])
        assert seams[2][3] == 2
        # a seam as long as the tail, which is all of f(a1) = a1 a2: the
        # letter of f(b2) = b1^-1 before it cancels too
        f = _codes(2, [1, 2], [-2, -1, 3], [4], [-3])
        w = GroupWord(SURFACE, 2, [4, 1, 2])
        assert apply(f, w, seams=_seam_table(f)) == oracle_apply(f, w)
        assert oracle_apply(f, w).is_identity()

    def test_images_share_one_compose_table(self):
        # every image of h reads the entries the ones before it filled in
        f = _codes(2, [3, 4, 2], [-2, -4, 1], [1, 2, -3], [3, -2, -1])
        h = _codes(2, [1, 2, 1, 2], [2, 1, 2, 1], [1, 2, 3, 4], [-4, 2, 1, -3])
        assert compose(f, h) == _oracle_compose(f, h)
        seams = _seam_table(f)
        for im in h.images:
            assert apply(f, im, seams=seams) == oracle_apply(f, im)
        assert seams[1][2] == 2 and seams[2][1] == 0
        # an entry is read, not recomputed: a wrong one shows in the output
        seams[1][2] = 1
        assert apply(f, h.images[0], seams=seams) != oracle_apply(f, h.images[0])

    @pytest.mark.parametrize("ambient", [SURFACE, HANDLEBODY])
    def test_apply_and_compose_match_the_oracle(self, ambient):
        rng = random.Random(33)
        for genus in (2, 3):
            for _ in range(120):
                f = _seamy_map(rng, ambient, genus)
                h = _seamy_map(rng, ambient, genus)
                assert compose(f, h) == _oracle_compose(f, h)
                seams = _seam_table(f)
                for _ in range(4):
                    w = random_reduced_word(rng, ambient, genus, rng.randrange(16))
                    expected = oracle_apply(f, w)
                    assert apply(f, w) == expected
                    assert apply(f, w, seams=seams) == expected
                # each entry filled in is the seam of the reduced product
                for p, row in enumerate(seams):
                    for x, c in enumerate(row or ()):
                        if c is not None:
                            u, v = f._subst[p], f._subst[x]
                            product = GroupWord(ambient, genus, u + v)
                            assert 2 * c == len(u) + len(v) - len(product)

    def test_budgets_raise_as_the_oracle_does(self):
        rng = random.Random(34)
        g = 2
        for _ in range(150):
            images = [im.letters for im in _seamy_map(rng, SURFACE, g).images]
            w = random_reduced_word(rng, SURFACE, g, rng.randrange(1, 16))
            full = len(oracle_apply(_codes(g, *images), w))
            for budget in (0, full // 2, full - 1, full, full + 1):
                mine, theirs = _codes(g, *images), _codes(g, *images)
                outcomes = []
                for run in (
                    lambda: apply(mine, w, budget, _seam_table(mine)),
                    lambda: oracle_apply(theirs, w, budget),
                ):
                    try:
                        outcomes.append(run())
                    except BudgetExceeded:
                        outcomes.append(BudgetExceeded)
                assert outcomes[0] == outcomes[1]
                assert (outcomes[0] is BudgetExceeded) == (full > budget)
                assert mine._subst == theirs._subst
            f = _codes(g, *images)
            h = FreeGroupMap(SURFACE, g, [w, *f.images[1:]])
            longest = max(len(im) for im in _oracle_compose(f, h).images)
            assert compose(f, h, longest) == _oracle_compose(f, h)
            if longest:
                with pytest.raises(BudgetExceeded):
                    compose(f, h, longest - 1)


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
            w = GroupWord(SURFACE, 2, [i])
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
        gens = [GroupWord(SURFACE, g, [j]) for j in range(1, 2 * g + 1)]
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
        bp = GroupWord(HANDLEBODY, 2, [1])
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
            ws = [GroupWord(SURFACE, g)]
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
            GroupWord(SURFACE, g, [x, sign * e * j] if x == i else [x]) for x in range(1, 2 * g + 1)
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


# the ambient guards of the alphabet, the projection and the class-level
# readers, which no other test reaches
@pytest.mark.parametrize(
    "build,message",
    [
        (lambda: Alphabet("x", 2), "unknown ambient 'x'"),
        (lambda: project_to_handlebody(GroupWord(HANDLEBODY, 2, [1])), "projection expects a surface word"),
        (
            lambda: extends_to_handlebody(mcr_identity(2, HANDLEBODY)),
            "handlebody membership is about surface automorphisms",
        ),
        (lambda: symplectic_action(mcr_identity(2, HANDLEBODY)), "symplectic action is about surface automorphisms"),
    ],
    ids=["alphabet", "projection", "extends", "symplectic-action"],
)
def test_ambient_guards_raise(build, message):
    with pytest.raises(AmbientMismatch, match=message):
        build()
