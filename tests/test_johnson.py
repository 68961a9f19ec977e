import hashlib
import os
import random
import subprocess
import sys
import textwrap
import time

import pytest

from lagtrace.derivations import (
    WedgeTriple,
    _value_terms,
    act_on_derivation,
    derivation_bracket,
    is_in_G,
    lagrangian_trace,
    wedge_to_derivation,
)
from lagtrace import johnson, packed, tensorlie
from lagtrace.cli import main
from lagtrace.errors import (
    BudgetExceeded,
    DegreeTooLow,
    NotLieElement,
    NotSymplectic,
    ParseError,
    RouteMismatch,
)
from lagtrace.johnson import (
    FilteredMappingClass,
    annulus_twist,
    handle_swap,
    handlebody_sample_library,
    has_tau,
    johnson_degree,
    meridian_twist,
    parse_mapping_class,
    sample_Ak,
    serialize_mapping_class,
    tau,
)
from lagtrace.freegroup import (
    HANDLEBODY,
    SURFACE,
    _handlebody_letters,
    alpha,
    apply,
    beta,
    commutator,
    extends_to_handlebody,
    max_image_length,
    mcr_commutator,
    mcr_compose,
    mcr_conjugate,
    mcr_identity,
    mcr_inverse,
    project_to_handlebody,
    symplectic_action,
)
from lagtrace.packed import _expands_to, _expansion_terms
from lagtrace.tensorlie import render_lie, render_sym
from oracles import (
    boundary_word,
    oracle_certifies,
    oracle_expands_to,
    oracle_sample_Ak,
    oracle_tau,
    random_reduced_word,
)


@pytest.fixture
def fresh_streams():
    """An empty sample stream cache, emptied again after the test: a stream
    drawn under a patched sampler must not reach another test."""
    johnson._sample_stream.cache_clear()
    yield
    johnson._sample_stream.cache_clear()


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
        with pytest.raises(ValueError, match="filtration degree is defined for surface classes"):
            johnson_degree(mcr_identity(2, HANDLEBODY), 3)


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
        # read at the truncation that shows the degree, not after the
        # expansions at k + 1 = 13 (about 1 s on a 2-core machine)
        phi = annulus_twist(2)
        start = time.perf_counter()
        with pytest.raises(DegreeTooLow, match="^class has filtration degree 1, need at least 12$"):
            tau(phi, 12)
        assert time.perf_counter() - start < 0.05

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
        # every pinned stream and the streams of the benchmark's deep
        # workload: each sample fits in WORD_BUDGET and extends over the
        # handlebody, read here off its images, not off its memo
        for g, k, seed, count in CERTIFIED_STREAMS:
            for fm in sample_Ak(g, k, count, seed):
                rep = fm.rep
                assert max_image_length(rep) <= johnson.WORD_BUDGET, (g, k, seed)
                assert all(
                    project_to_handlebody(f.images[i]).is_identity()
                    for f in (rep.forward, rep.inverse)
                    for i in range(g)
                ), (g, k, seed)

    def test_degree_one_carries_no_budget(self):
        # _assemble composes a degree-1 candidate, a light class or the
        # product of two, with no budget: every light class at genus 2-8 has
        # at most 79 letters, so a product of two has at most 79^2, which is
        # under WORD_BUDGET
        longest = 0
        for g in range(2, 9):
            lib = handlebody_sample_library(g)
            for twist in range(len(lib) + 1 - g, len(lib)):
                for inverted in (False, True):
                    for by in [None, *range(len(lib))]:
                        light = johnson._assemble(g, 1, ((twist, inverted, by),))
                        longest = max(longest, max_image_length(light))
        assert longest <= 79 and 79**2 < johnson.WORD_BUDGET

    def test_the_sampler_builds_no_commuting_commutator(self, monkeypatch, fresh_streams):
        # a commutator of commuting factors is the identity, whose screen is
        # zero, so the sampler rejects it unbuilt, and mcr_commutator needs
        # no path for it: none of the commutators the sampler builds on the
        # pinned streams and those of the deep workload has commuting factors
        commuting = []

        def recorded(m, n, budget=None):
            commuting.append(mcr_compose(m, n).forward == mcr_compose(n, m).forward)
            return mcr_commutator(m, n, budget)

        monkeypatch.setattr(johnson, "mcr_commutator", recorded)
        for g, k, seed, count in CERTIFIED_STREAMS:
            sample_Ak(g, k, count, seed)
        assert commuting and not any(commuting)

    def test_rejects_bad_k(self):
        with pytest.raises(ValueError):
            sample_Ak(2, 4, 1)

    @pytest.mark.parametrize("g,k,count,seed", [(2, 3, 3, 2), (3, 3, 2, 0), (3, 3, 4, 2), (2, 1, 6, 11)])
    def test_budgeted_compose_keeps_seeded_samples(
        self, monkeypatch, fresh_streams, g, k, count, seed
    ):
        # at k >= 2 the final composition of a candidate runs under
        # WORD_BUDGET and drops it unbuilt; the oracle builds every candidate
        # in full and rejects it by max_image_length afterwards, and must keep
        # the same samples, since no draw depends on a build.  A candidate
        # with a zero screen is rejected before any composition.
        rejected = []
        events = []  # "zero" or "screen" per screened recipe, "compose" per composition
        screen_route = johnson._screen

        def counted(compose_fn):
            def call(m, n, *budget):
                events.append("compose")
                try:
                    return compose_fn(m, n, *budget)
                except BudgetExceeded:
                    rejected.append(budget)
                    raise

            return call

        def screen(g, k, recipe):
            d = screen_route(g, k, recipe)
            events.append("zero" if d.is_zero() else "screen")
            return d

        monkeypatch.setattr(johnson, "mcr_commutator", counted(mcr_commutator))
        monkeypatch.setattr(johnson, "mcr_compose", counted(mcr_compose))
        monkeypatch.setattr(johnson, "_screen", screen)
        assert _texts(sample_Ak(g, k, count, seed)) == _texts(oracle_sample_Ak(g, k, count, seed))
        if k == 3:
            assert rejected and set(rejected) == {(johnson.WORD_BUDGET,)}
            assert "zero" in events
            after_zero = [b for a, b in zip(events, events[1:]) if a == "zero"]
            assert "compose" not in after_zero


# sha256 of the serialized sample_Ak(g, k, 10, seed), recorded when every
# call drew its own samples from the seed, before the streams were shared
SAMPLE_STREAM_SHA256 = {
    (2, 1, 0): "0a033373a2f17108de558bb80495b0667bb245c8a0f7a8d53e7a98580e506a75",
    (2, 1, 1): "7005d0eaa8b095d3db5f463662aa09f7e718026599d4afcb2422dd6b68df6cf0",
    (2, 1, 2): "da0491fb5c067b9d7c6d03496c40804b10cd6cec3536c957a05d550fd9cae691",
    (2, 2, 0): "d84346859b0a5a1dbfe0270a10ff2331867466b64a8ebf066abd8dc720107f1d",
    (2, 2, 1): "334879b97298cb3c2dfee4bdd1093544a7e46431769d9afb69eab7385d320e14",
    (2, 2, 2): "9fc4e06fa6c66bd5155309a11d276d9c0a669802927834aaa550f4854de595dc",
    (3, 1, 0): "58390dd36fbd30b8af06b02d0a578d096683f795cdaaf95449cc1589c1a1b944",
    (3, 1, 1): "06b968707234a316b91965a9036790f599a9505b7767fd1b3c7e3dc2ad6c7894",
    (3, 1, 2): "075f4fdf2c966c20f147606c4806c3964cab6d464578bddde5acb5680734666d",
    (3, 2, 0): "f932345ad0ee3281c59c90bdf3a2eb93d97641f657db2994bf3f98bc039b63ff",
    (3, 2, 1): "cbe6b067fd03aa4a686b23a7bea414198674a3f4c3cb0b83736efa75c4f4e608",
    (3, 2, 2): "247e5c58bedd42f73f49dee42b140f04a5ea9ad696cfd650e7c1fdb48ce52b8f",
    (4, 1, 0): "248cd9bc2e7683c8cf136ec4cb596f093da238cdf1d091c1b9461b1f179e722f",
    (4, 1, 1): "7de823bae3f05061b9cd0288ad3b67babaf26248b1bd2c42873f3f5954eb6385",
    (4, 1, 2): "3968e36308d9e1e479f851e577a5668908ef2f9cb3939db4f87a0e5e458faf58",
    (4, 2, 0): "7de9ca70b6c89259ef70bcce3625fab0391dce9c1d39aa6dbf3c7792b45be001",
    (4, 2, 1): "0a8ff1e38354b5472c26d593cb375291ec27e7f82ccf25f2a1a949e07d5f25df",
    (4, 2, 2): "e974c54e36868d1f5f15e8ff5f0bea992b438c001a14da9cfb44c19e46bc5b1e",
}


def _texts(samples) -> list[str]:
    return [serialize_mapping_class(fm.rep) for fm in samples]


def _outcome(fn, *args):
    """The serialized samples of a sampler call, or the message it raised."""
    try:
        return _texts(fn(*args))
    except BudgetExceeded as exc:
        return str(exc)


class TestSampleStreams:
    @pytest.mark.parametrize("key", sorted(SAMPLE_STREAM_SHA256))
    def test_streams_are_pinned(self, key):
        g, k, seed = key
        text = "".join(_texts(sample_Ak(g, k, 10, seed)))
        assert hashlib.sha256(text.encode()).hexdigest() == SAMPLE_STREAM_SHA256[key]

    @pytest.mark.parametrize("key", [(2, 1, 0), (3, 2, 1), (4, 2, 2), (2, 3, 0)])
    @pytest.mark.parametrize("counts", [(5, 10), (10, 5), (3, 7, 10)])
    def test_resumed_streams_match_the_one_loop_sampler(self, fresh_streams, key, counts):
        g, k, seed = key
        for count in counts:
            assert _texts(sample_Ak(g, k, count, seed)) == _texts(
                oracle_sample_Ak(g, k, count, seed)
            ), count
        # the stream made the attempts of the longest call, and no more
        _, made = johnson._sample_stream(*key)
        assert made[-1] is not None and len(made) - made.count(None) == max(counts)

    @pytest.mark.parametrize("counts", [(4,), (5,), (5, 4, 1), (1, 5, 4), (4, 5)])
    def test_attempt_limit_is_the_same_fresh_or_resumed(self, monkeypatch, fresh_streams, counts):
        # at a 30-letter budget the stream (3, 2, 10) finds its first five
        # samples at attempts 291, 339, 391, 402 and 413: counts 1 to 4 run
        # past their limit of 80 * count + 80 attempts, count 5 does not, and
        # a call must answer the same after a longer or a shorter one
        monkeypatch.setattr(johnson, "WORD_BUDGET", 30)
        for count in counts:
            expected = _outcome(oracle_sample_Ak, 3, 2, count, 10)
            if count < 5:
                limit = 80 * count + 80
                assert expected == f"could not assemble {count} degree-2 samples in {limit} tries"
            else:
                assert len(expected) == 5
            assert _outcome(sample_Ak, 3, 2, count, 10) == expected, count

    def test_an_escaping_exception_restarts_the_stream(self, monkeypatch, fresh_streams):
        first = sample_Ak(2, 2, 3, seed=0)

        def broken(*args):
            raise RuntimeError("certification failed")

        # the packed check runs on every built candidate (membership is a memo)
        monkeypatch.setattr(johnson, "_expands_to", broken)
        with pytest.raises(RuntimeError):
            sample_Ak(2, 2, 10, seed=0)
        assert johnson._sample_stream(2, 2, 0)[1] == []
        monkeypatch.undo()
        rebuilt = sample_Ak(2, 2, 10, seed=0)
        assert rebuilt[:3] == first
        assert _texts(rebuilt) == _texts(oracle_sample_Ak(2, 2, 10, 0))
        text = "".join(_texts(rebuilt))
        assert hashlib.sha256(text.encode()).hexdigest() == SAMPLE_STREAM_SHA256[(2, 2, 0)]

    def test_an_evicted_stream_rebuilds_to_the_same_samples(self, fresh_streams):
        first = _texts(sample_Ak(2, 2, 5, seed=0))
        size = johnson._sample_stream.cache_info().maxsize
        for seed in range(1, size + 1):
            assert sample_Ak(2, 1, 0, seed) == []  # makes a stream, draws nothing
        # (2, 2, 0) was the least recently used when the last one was made
        assert johnson._sample_stream(2, 2, 0)[1] == []
        rebuilt = _texts(sample_Ak(2, 2, 10, seed=0))
        assert rebuilt[:5] == first
        assert rebuilt == _texts(oracle_sample_Ak(2, 2, 10, 0))

    def test_samples_are_value_objects(self):
        a, b = sample_Ak(2, 1, 2, seed=3)
        twin = FilteredMappingClass(a.rep, 1, True)
        assert a == twin and hash(a) == hash(twin) and a != b
        assert a != FilteredMappingClass(a.rep, 2, True) and a != (a.rep, 1, True)
        assert repr(a) == f"FilteredMappingClass(rep={a.rep!r}, degree=1, in_handlebody=True)"
        for attr in ("rep", "degree", "in_handlebody", "other"):
            with pytest.raises(AttributeError):
                setattr(a, attr, None)
            with pytest.raises(AttributeError):
                delattr(a, attr)

    def test_calls_return_new_lists_of_equal_classes(self):
        a = sample_Ak(2, 1, 4, seed=3)
        b = sample_Ak(2, 1, 4, seed=3)
        assert a is not b and a == b
        a.clear()
        assert sample_Ak(2, 1, 4, seed=3) == b

    @pytest.mark.parametrize("g", [2, 3])
    def test_light_stock_matches_its_recipe(self, g):
        # a one-class degree-1 recipe is the light class itself
        lib = handlebody_sample_library(g)
        twists = lib[1 - g :]
        for t in range(g - 1):
            for inv in (False, True):
                for by in [None, *range(len(lib))]:
                    m = johnson._assemble(g, 1, ((len(lib) + 1 - g + t, inv, by),))
                    base = mcr_inverse(twists[t]) if inv else twists[t]
                    base = base if by is None else mcr_conjugate(base, lib[by])
                    assert (m.forward, m.inverse) == (base.forward, base.inverse)


def _hand_built_light(g):
    """Degree-1 handlebody classes built by hand, not drawn by the sampler."""
    phi = annulus_twist(g, 1)
    light = [
        phi,
        mcr_conjugate(phi, handle_swap(g, 1, 2)),
        mcr_conjugate(mcr_inverse(phi), meridian_twist(g, 2)),
    ]
    return light + [annulus_twist(g, 2)] if g > 2 else light


class TestBracketRoute:
    """tau is a map of graded Lie algebras: with m n m^-1 n^-1 and error
    words phi(x) x^-1 the sign is +.  The sampler screens its degree-2 and
    degree-3 candidates by this bracket of its light classes' tau_1, and
    checks every kept tau_k against it."""

    @pytest.mark.parametrize("g", [2, 3])
    def test_tau_2_of_a_commutator_is_the_bracket(self, g):
        light = _hand_built_light(g)
        for i, m in enumerate(light):
            for j, n in enumerate(light):
                if i != j:
                    bracket = derivation_bracket(tau(m, 1), tau(n, 1))
                    assert not bracket.is_zero()
                    assert tau(mcr_commutator(m, n), 2) == bracket, (i, j)

    @pytest.mark.parametrize("g,triples", [
        (2, [(0, 1, 2), (1, 0, 2), (2, 0, 1), (0, 2, 1)]),
        (3, [(0, 1, 2), (1, 0, 2), (3, 0, 1), (0, 3, 2)]),
    ])
    def test_tau_3_of_a_nested_commutator_is_the_bracket(self, g, triples):
        light = _hand_built_light(g)
        t = [tau(m, 1) for m in light]
        for i, j, l in triples:
            bracket = derivation_bracket(t[i], derivation_bracket(t[j], t[l]))
            assert not bracket.is_zero()
            nested = mcr_commutator(light[i], mcr_commutator(light[j], light[l]))
            assert tau(nested, 3) == bracket, (i, j, l)

    def test_a_commuting_pair_has_a_zero_bracket(self):
        phi = annulus_twist(2)
        assert derivation_bracket(tau(phi, 1), tau(mcr_inverse(phi), 1)).is_zero()
        assert mcr_commutator(phi, mcr_inverse(phi)) == mcr_identity(2)

    @pytest.mark.parametrize("g", [2, 3])
    def test_light_tau_is_the_word_read(self, g):
        # the screen's tau_1 comes from the twist's by sign and symplectic
        # action; the oracle reads it off the built light class's words
        lib = handlebody_sample_library(g)
        for twist in range(len(lib) + 1 - g, len(lib)):
            for inverted in (False, True):
                for by in [None, *range(len(lib))]:
                    light = (twist, inverted, by)
                    built = johnson._assemble(g, 1, (light,))
                    assert johnson._light_tau(g, light) == oracle_tau(built, 1), light

    def test_screened_builds_are_counted(self, monkeypatch, fresh_streams):
        # the streams of the benchmark's deep workload build 10 of their 23
        # candidates, the degree-2 streams of its suites workload 90 of 156
        # and its degree-1 streams 90 of 102: a change that builds screened
        # candidates again fails here
        builds = []
        assemble = johnson._assemble

        def counted(g, k, recipe):
            builds.append(k)
            return assemble(g, k, recipe)

        monkeypatch.setattr(johnson, "_assemble", counted)
        for g in (2, 3):
            sample_Ak(g, 3, 4, seed=0)
        assert len(builds) == 10
        builds.clear()
        for g in (2, 3, 4):
            for seed in (0, 1, 2):
                sample_Ak(g, 2, 10, seed)
        assert len(builds) == 90
        builds.clear()
        for g in (2, 3, 4):
            for seed in (0, 1, 2):
                sample_Ak(g, 1, 10, seed)
        assert len(builds) == 90

    def test_swapped_factors_raise_route_mismatch(self, monkeypatch, fresh_streams, capsys):
        screen = johnson._screen

        def swapped(g, k, recipe):
            return screen(g, k, (recipe[1], recipe[0], *recipe[2:]))

        monkeypatch.setattr(johnson, "_screen", swapped)
        for k in (2, 3):
            with pytest.raises(RouteMismatch):
                sample_Ak(2, k, 1, seed=0)
        assert main(["verify", "thm-a"]) == 11
        assert "bracket route" in capsys.readouterr().err

    def test_an_identity_candidate_with_a_nonzero_screen_raises(self, monkeypatch):
        # an annulus twist and its inverse commute, so their commutator is
        # the identity; a nonzero screen for it is a disagreement, which the
        # packed check reports before the identity comparison could drop it
        lib = handlebody_sample_library(2)
        t = len(lib) - 1
        commuting = ((t, False, None), (t, True, None))
        assert johnson._assemble(2, 2, commuting) == mcr_identity(2)
        nonzero = johnson._screen(2, 2, ((t, False, None), (t, False, 4)))
        assert not nonzero.is_zero()
        monkeypatch.setattr(johnson, "_screen", lambda g, k, recipe: nonzero)
        with pytest.raises(RouteMismatch, match="bracket route's tau_2"):
            johnson._certified(2, 2, commuting)

    def test_a_degree_read_past_a_nonzero_bracket_raises(self, monkeypatch, fresh_streams):
        # every error word reads as lying deeper than degree 2: its top
        # degree at truncation 3 is emptied (the light tau_1 are read at 2)
        levels = packed._packed_levels

        def deeper(w, truncate):
            used, width, low, top = levels(w, truncate)
            return used, width, low, [0] * len(top) if truncate == 3 else top

        monkeypatch.setattr(packed, "_packed_levels", deeper)
        with pytest.raises(RouteMismatch) as exc:
            sample_Ak(2, 2, 1, seed=0)
        assert str(exc.value) == "an error word's expansion differs from the bracket route's tau_2"

    def test_the_route_check_survives_optimize(self):
        script = textwrap.dedent(
            """
            import sys
            import lagtrace.johnson as johnson
            from lagtrace.errors import RouteMismatch

            assert False, "asserts must be stripped under -O"
            route = johnson._screen
            johnson._screen = lambda g, k, r: route(g, k, (r[1], r[0], *r[2:]))
            try:
                johnson.sample_Ak(2, 2, 1)
            except RouteMismatch:
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


class TestSumRoute:
    """tau_1 is additive on the Torelli group, where every light class lies:
    the sampler screens its degree-1 candidates by the sum of their light
    classes' tau_1, and checks every kept tau_1 against it."""

    @pytest.mark.parametrize("g", [2, 3])
    def test_tau_1_of_a_composite_is_the_sum(self, g):
        light = _hand_built_light(g)
        for i, m in enumerate(light):
            for j, n in enumerate(light):
                assert tau(mcr_compose(m, n), 1) == tau(m, 1) + tau(n, 1), (i, j)

    @pytest.mark.parametrize("g", [2, 3])
    def test_a_zero_sum_is_rejected_unbuilt(self, monkeypatch, g):
        # a twist after its inverse: the sum is zero, and the candidate,
        # built here by hand, is the identity, which the old route rejected
        lib = handlebody_sample_library(g)
        recipe = ((len(lib) - 1, True, None), (len(lib) - 1, False, None))
        assert johnson._screen(g, 1, recipe).is_zero()
        assert johnson._assemble(g, 1, recipe) == mcr_identity(g)

        def no_build(*args):
            raise AssertionError("a candidate with a zero screen was built")

        monkeypatch.setattr(johnson, "_assemble", no_build)
        assert johnson._certified(g, 1, recipe) is None


#: the streams the tests pin (SAMPLE_STREAM_SHA256) and those of the
#: benchmark's deep workload, with the count each is drawn to
CERTIFIED_STREAMS = [(*key, 10) for key in sorted(SAMPLE_STREAM_SHA256)] + [(2, 3, 0, 4), (3, 3, 0, 4)]


def _off_by_one(d):
    """d with its least coefficient moved one further from zero."""
    terms = dict(d.terms)
    key = min(terms)
    terms[key] += 1 if terms[key] > 0 else -1
    return type(d)._trusted((d.genus, d.degree), terms)


def _corrupted_levels(k: int, where):
    """_packed_levels with 1 added, at truncation k+1 only, to the first
    lane of degree `where`, or of the first top block for "top"."""
    levels = packed._packed_levels

    def corrupted(w, truncate):
        used, width, low, top = levels(w, truncate)
        if truncate == k + 1:
            if where == "top":
                top = [top[0] + 1, *top[1:]] if top else top
            else:
                low = [c + (d == where) for d, c in enumerate(low)]
        return used, width, low, top

    return corrupted


def _mutants(k: int):
    """(name, module, attribute, replacement) of the faults the degree-k
    certification must catch: a corrupted top lane, a nonzero lane at each
    degree below the top (which a skipped low-degree check would pass), and
    a screen off by one coefficient."""
    yield "top lane", packed, "_packed_levels", _corrupted_levels(k, "top")
    for d in range(k + 1):
        yield f"degree {d}", packed, "_packed_levels", _corrupted_levels(k, d)
    screen = johnson._screen
    yield "screen", johnson, "_screen", lambda g, k, recipe: _off_by_one(screen(g, k, recipe))


def mutants_uncaught(k: int) -> list[str]:
    """The mutants under which sample_Ak(2, k, 1) does not raise
    RouteMismatch, each run on a fresh stream.  The light tau_1 are read
    first, unmutated: at k = 1 they are read at the same truncation."""
    sample_Ak(2, k, 1, seed=0)
    uncaught = []
    for name, module, attr, fault in _mutants(k):
        johnson._sample_stream.cache_clear()
        saved = getattr(module, attr)
        setattr(module, attr, fault)
        try:
            sample_Ak(2, k, 1, seed=0)
            uncaught.append(name)
        except RouteMismatch:
            pass
        finally:
            setattr(module, attr, saved)
    johnson._sample_stream.cache_clear()
    return uncaught


def _carried(w, truncate: int, top: dict):
    """`top` with one coefficient raised by a whole lane, 2^(8W), and the next
    lane's lowered by 1: the same packed ints, with a coefficient no
    expansion has.  None when no word of `top` has a next lane."""
    used, width, _, _ = packed._packed_levels(w, truncate)
    names = [code - 1 for code in used]
    for u in sorted(top):
        i = names.index(u[0])
        if truncate > 1 and i + 1 < len(names):
            forged = dict(top)
            forged[u] += 1 << (8 * width)
            nxt = (names[i + 1], *u[1:])
            forged[nxt] = forged.get(nxt, 0) - 1
            return forged
    return None


class TestPackedCertification:
    """_certified compares each error word's packed expansion with 1 plus
    its screen's value (has_tau, on packed._expands_to);
    oracle_expands_to and oracle_certifies are the decode-and-peel route it
    replaced."""

    def test_round_trip_against_the_decoded_terms(self):
        rng = random.Random(5)
        flat_seen = forged_seen = 0
        for _ in range(300):
            g = rng.choice((2, 3))
            u, v, x = (random_reduced_word(rng, SURFACE, g, rng.randint(0, 6)) for _ in range(3))
            w = rng.choice((u, commutator(u, v), commutator(commutator(u, v), x)))
            truncate = rng.randint(1, 4)
            terms = _expansion_terms(w, truncate)
            top = {word: c for word, c in terms.items() if len(word) == truncate}
            flat = not any(0 < len(word) < truncate for word in terms)
            assert _expands_to(w, truncate, {(): 1, **top}) is flat
            assert oracle_expands_to(w, truncate, {(): 1, **top}) is flat
            if not flat:
                continue
            flat_seen += 1
            faults = []
            if top:
                word = min(top)
                faults.append({**top, word: top[word] + 1})
                faults.append({**top, word + (0,): 1})  # a word one letter longer
            unused = set(range(2 * g)) - {abs(c) - 1 for c in w.letters}
            if unused:
                faults.append({**top, (min(unused),) * truncate: 1})
            forged = _carried(w, truncate, top)
            if forged is not None:
                forged_seen += 1
                faults.append(forged)
            for fault in faults:
                assert not _expands_to(w, truncate, {(): 1, **fault}), fault
                assert not oracle_expands_to(w, truncate, {(): 1, **fault}), fault
        assert flat_seen > 50 and forged_seen > 20

    def test_every_degree_is_compared(self):
        # at truncation 0 the expansion is the constant 1, with no blocks;
        # above it the degrees below the top are compared as the top is
        w = commutator(alpha(1, 2), beta(1, 2))
        assert _expands_to(w, 0, {(): 1}) and not _expands_to(w, 0, {(): 2})
        assert not _expands_to(w, 0, {(0,): 1})
        terms = _expansion_terms(w, 3)
        assert _expands_to(w, 3, terms) and oracle_expands_to(w, 3, terms)
        for word in sorted(terms):
            for fault in ({**terms, word: terms[word] + 1}, {u: c for u, c in terms.items() if u != word}):
                assert not _expands_to(w, 3, fault) and not oracle_expands_to(w, 3, fault), word

    @pytest.mark.parametrize("g,k,seed,count", CERTIFIED_STREAMS)
    def test_packed_verdicts_match_the_decode_route(self, monkeypatch, fresh_streams, g, k, seed, count):
        recipes = []
        certified = johnson._certified

        def record(g, k, recipe):
            recipes.append(recipe)
            return certified(g, k, recipe)

        monkeypatch.setattr(johnson, "_certified", record)
        sample_Ak(g, k, count, seed)
        kept = 0
        for recipe in recipes:
            screen = johnson._screen(g, k, recipe)
            try:
                m = johnson._assemble(g, k, recipe)
            except BudgetExceeded:
                continue
            if screen.is_zero():
                # rejected unbuilt: the identity, or deeper than k
                assert oracle_certifies(m, k, screen), recipe
                continue
            errors = list(johnson._error_words(m.forward))
            for variant in (screen, -screen, _off_by_one(screen)):
                values = _value_terms(variant)
                expected = [{(): 1, **v} for v in values]
                words = [_expands_to(e, k + 1, v) for e, v in zip(errors, expected)]
                assert words == [oracle_expands_to(e, k + 1, v) for e, v in zip(errors, expected)]
                assert all(words) is oracle_certifies(m, k, variant) is (variant is screen)
                assert has_tau(m.forward, k, variant) is all(words)
            kept += 1
        assert kept >= count

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_every_mutant_raises_route_mismatch(self, fresh_streams, k):
        assert mutants_uncaught(k) == []

    def test_the_mutants_are_caught_under_optimize(self):
        script = textwrap.dedent(
            """
            import sys
            import test_johnson

            assert False, "asserts must be stripped under -O"
            sys.exit(any(test_johnson.mutants_uncaught(k) for k in (1, 2, 3)))
            """
        )
        here = os.path.dirname(os.path.abspath(__file__))
        path = os.pathsep.join([os.path.join(os.path.dirname(here), "src"), here])
        env = dict(os.environ, PYTHONPATH=path + os.pathsep + os.environ.get("PYTHONPATH", ""))
        done = subprocess.run(
            [sys.executable, "-O", "-c", script], env=env, capture_output=True, text=True
        )
        assert done.returncode == 0, done.stderr

    def test_certification_decodes_and_peels_nothing(self, monkeypatch, fresh_streams):
        keys = [(2, 1, 0), (3, 2, 1), (2, 3, 0)]
        for g, k, seed in keys:
            sample_Ak(g, k, 3, seed)  # the light tau_1 are read once, by tau
        johnson._sample_stream.cache_clear()
        calls = []

        def counted(module, name):
            fn = getattr(module, name)

            def call(*args):
                calls.append(name)
                return fn(*args)

            monkeypatch.setattr(module, name, call)

        counted(tensorlie, "_expansion_terms")
        counted(johnson, "magnus_expansion")
        counted(johnson, "tensor_to_lie")
        samples = [(k, fm.rep) for g, k, seed in keys for fm in sample_Ak(g, k, 3, seed)]
        assert calls == []
        monkeypatch.undo()
        for k, m in samples:
            assert m._cache[("tau", k)] == oracle_tau(m, k)


class TestSharedObjects:
    """The light classes are built once per (genus, light recipe) and shared
    by every candidate that draws them (johnson._light_class), and every
    candidate carries handlebody membership by construction, from the
    library classes it is composed of."""

    @pytest.mark.parametrize("g,k,seed,count", CERTIFIED_STREAMS)
    def test_the_propagated_memo_is_the_explicit_read(self, monkeypatch, fresh_streams, g, k, seed, count):
        built = []
        assemble = johnson._assemble

        def record(g, k, recipe):
            built.append(assemble(g, k, recipe))
            return built[-1]

        monkeypatch.setattr(johnson, "_assemble", record)
        sample_Ak(g, k, count, seed)
        assert len(built) >= count
        for m in built:
            explicit = not any(
                _handlebody_letters(f.images[i]) for f in (m.forward, m.inverse) for i in range(g)
            )
            assert m._cache.get("extends") is explicit is True

    @pytest.mark.parametrize("g", [2, 3, 4])
    def test_every_cached_light_class_is_the_composed_one(self, g):
        lib = handlebody_sample_library(g)
        twists = [annulus_twist(g, handle) for handle in range(1, g)]
        assert [t.forward for t in twists] == [m.forward for m in lib[1 - g :]]
        for t, twist in enumerate(twists):
            for inverted in (False, True):
                for by in [None, *range(len(lib))]:
                    light = (len(lib) + 1 - g + t, inverted, by)
                    m = johnson._light_class(g, light)
                    assert johnson._light_class(g, light) is m
                    base = mcr_inverse(twist) if inverted else twist
                    base = base if by is None else mcr_conjugate(base, lib[by])
                    assert (m.forward, m.inverse) == (base.forward, base.inverse)
                    assert m._cache["extends"] is True

    def test_stream_digests_do_not_depend_on_the_light_cache(self, fresh_streams):
        keys = sorted(SAMPLE_STREAM_SHA256)
        for order, cold in ((keys, True), (keys, False), (keys[::-1], True), (keys[::-1], False)):
            if cold:
                johnson._light_class.cache_clear()
            johnson._sample_stream.cache_clear()
            for g, k, seed in order:
                text = "".join(_texts(sample_Ak(g, k, 10, seed)))
                digest = hashlib.sha256(text.encode()).hexdigest()
                assert digest == SAMPLE_STREAM_SHA256[(g, k, seed)], (order is keys, cold)

    def test_candidates_conjugate_once_per_light_class(self, monkeypatch, fresh_streams):
        conjugations = []
        conjugate = johnson.mcr_conjugate
        monkeypatch.setattr(johnson, "mcr_conjugate", lambda m, by: conjugations.append(1) or conjugate(m, by))
        johnson._light_class.cache_clear()
        recipes = []
        certified = johnson._certified

        def record(g, k, recipe):
            recipes.append((g, recipe))
            return certified(g, k, recipe)

        monkeypatch.setattr(johnson, "_certified", record)
        for g, k, seed in sorted(SAMPLE_STREAM_SHA256):
            sample_Ak(g, k, 10, seed)
        conjugated = {(g, light) for g, recipe in recipes for light in recipe if light[2] is not None}
        assert 0 < len(conjugations) <= len(conjugated)


class TestTauMemo:
    """tau memoizes its certified derivation on the class, under its degree;
    oracle_tau is the read before the memo, made afresh on every call."""

    @pytest.mark.parametrize("key", sorted(SAMPLE_STREAM_SHA256))
    def test_samples_carry_the_fresh_read(self, key):
        g, k, seed = key
        for fm in sample_Ak(g, k, 10, seed):
            assert ("tau", k) in fm.rep._cache
            assert tau(fm.rep, k) == oracle_tau(fm.rep, k)

    @pytest.mark.parametrize("g", [2, 3])
    def test_deep_samples_carry_the_fresh_read(self, g):
        for fm in sample_Ak(g, 3, 4, seed=0):
            assert tau(fm.rep, 3) == oracle_tau(fm.rep, 3)

    def test_a_repeat_call_returns_the_memo(self, monkeypatch):
        def no_expansion(*args):
            raise AssertionError("a Magnus expansion was made")

        m = annulus_twist(3)  # built, not sampled: no memo yet
        assert ("tau", 1) not in m._cache
        d = tau(m, 1)
        monkeypatch.setattr(packed, "_packed_levels", no_expansion)
        assert tau(m, 1) is d and m._cache[("tau", 1)] is d

    @pytest.mark.parametrize("seed", [0, 1])
    def test_the_memo_is_kept_per_degree(self, seed):
        # a degree-2 sample's tau_1 is the zero derivation, not its tau_2;
        # a degree-1 sample has no tau_2, and says so on every call
        for fm in sample_Ak(2, 2, 3, seed):
            d = tau(fm.rep, 1)
            assert d.degree == 1 and d.is_zero() and d == oracle_tau(fm.rep, 1)
            assert tau(fm.rep, 2).degree == 2
        for fm in sample_Ak(2, 1, 3, seed):
            assert tau(fm.rep, 1) == oracle_tau(fm.rep, 1)
            for _ in range(2):
                with pytest.raises(DegreeTooLow) as exc:
                    tau(fm.rep, 2)
                assert str(exc.value) == "class has filtration degree 1, need at least 2"
            assert ("tau", 2) not in fm.rep._cache

    def test_degree_too_low_is_never_memoized(self):
        m = mcr_compose(meridian_twist(2, 1), annulus_twist(2, 1))
        for k in (1, 2, 1):
            with pytest.raises(DegreeTooLow) as exc:
                tau(m, k)
            assert str(exc.value) == f"class has filtration degree 0, need at least {k}"
        assert not [key for key in m._cache if key != "extends"]

    @pytest.mark.parametrize("check,error", [
        ("derivation_is_symplectic", NotSymplectic),
        ("tensor_to_lie", NotLieElement),
    ])
    def test_a_refused_derivation_is_never_memoized(self, monkeypatch, check, error):
        def refuse(*args):
            if check == "tensor_to_lie":
                raise NotLieElement("refused")
            return False

        m = annulus_twist(2)
        with monkeypatch.context() as patch:
            patch.setattr(johnson, check, refuse)
            for _ in range(2):
                with pytest.raises(error):
                    tau(m, 1)
        assert ("tau", 1) not in m._cache
        assert tau(m, 1) == oracle_tau(m, 1)

    @pytest.mark.parametrize("route", ["decode", "screen"])
    def test_both_routes_memoize_only_once_certified(self, monkeypatch, route):
        # tau's decode route and _certified's screen route: a derivation
        # refused as not symplectic leaves no memo on the class
        lib = handlebody_sample_library(2)
        recipe = ((len(lib) - 1, False, None),)  # the annulus twist, last, alone
        johnson._screen(2, 1, recipe)  # the light tau_1, read before the refusal
        fresh = mcr_inverse(mcr_inverse(lib[-1]))  # the twist, with a memo of its own
        monkeypatch.setattr(johnson, "_assemble", lambda *args: fresh)

        def read():
            return tau(fresh, 1) if route == "decode" else johnson._certified(2, 1, recipe)

        with monkeypatch.context() as patch:
            patch.setattr(johnson, "derivation_is_symplectic", lambda d: False)
            with pytest.raises(NotSymplectic):
                read()
        assert ("tau", 1) not in fresh._cache
        read()
        assert fresh._cache[("tau", 1)] == oracle_tau(fresh, 1)


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


@pytest.mark.parametrize(
    "build,message",
    [
        (lambda: meridian_twist(2, 3), r"handle must be in 1\.\.2"),
        (lambda: handle_swap(2, 1, 1), "need two distinct handles"),
    ],
    ids=["meridian-handle", "swap-handles"],
)
def test_builtin_handle_guards_raise(build, message):
    with pytest.raises(ValueError, match=message):
        build()
