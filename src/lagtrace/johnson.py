"""Filtration degree and the induced derivations of surface automorphisms.

An automorphism acting trivially on homology moves every generator by an
error term phi(x)x^-1 lying deep in the lower central series; the class of
that error in the degree-(k+1) graded piece, packaged over all generators,
is a symplectic derivation.  This module computes the filtration degree,
extracts the derivation, and manufactures certified test elements: twists
that extend over the handlebody, their conjugates, and nested commutators
which sit in degree 2 and 3 by construction.
"""

from __future__ import annotations

import random
from functools import lru_cache
from itertools import chain

from .derivations import (
    Derivation,
    _value_terms,
    act_on_derivation,
    derivation_bracket,
    derivation_is_symplectic,
)
from .errors import (
    BudgetExceeded,
    DegreeTooLow,
    NotInHandlebodyGroup,
    NotSymplectic,
    ParseError,
    RouteMismatch,
)
from .freegroup import (
    MIN_GENUS,
    SURFACE,
    FreeGroupMap,
    MappingClassRep,
    _letter_token,
    alpha,
    beta,
    commutator,
    conjugate,
    extends_to_handlebody,
    format_word,
    generator_names,
    identity_map,
    mcr_commutator,
    mcr_compose,
    mcr_conjugate,
    mcr_identity,
    mcr_inverse,
    parse_word,
    symplectic_action,
    word_from_codes,
)
from .tensorlie import (
    TensorPoly,
    _check_lanes,
    _expands_to,
    magnus_expansion,
    tensor_to_lie,
)

MAX_DEGREE_BOUND = 6
#: Longest image, in letters, that sample_Ak builds and parse_mapping_class
#: reads, so every sample reads back.  Certifying a parsed class is quadratic
#: in it: on a 2-core machine `tau --file --k 1` took 0.4 s at 649 letters,
#: 3.0 s at 2,577 and 54 s at 10,273 (powers of a product of two annulus
#: twists at genus 2), and had not finished after 100 s at 41,025.  Parsing
#: the longest seeded sample (7,935 letters) takes 19 s.
WORD_BUDGET = 10_000

#: Largest genus of a class any command runs on: the builtins and `verify`
#: check it before building, parse_mapping_class once a file has a line for
#: its first image, before any image is read.  On a 2-core machine at genus
#: 8 each builtin command (at k = 1) takes at most 0.12 s and each suite at
#: count 10 at most 0.2 s, process start included.  Time no longer sets the
#: bound: in process, morita-prop at count 10 takes 0.04 s at genus 10 and
#: 0.11 s at 16, and `det --builtin phi` 0.002 s at genus 22.  The tests go
#: up to genus 8 and the benchmark to 4; `basis` has its own budget.
GENUS_BUDGET = 8


def _error_words(m: MappingClassRep):
    for j, img in enumerate(m.forward.images, 1):
        yield img * ~word_from_codes(SURFACE, m.genus, [j])


def _expansions(m: MappingClassRep, k: int) -> list[TensorPoly]:
    """The Magnus expansions at truncation k+1 of the class's error words,
    made once and uncached: the degree read and tau_k both come from them."""
    return [magnus_expansion(err, k + 1) for err in _error_words(m)]


def _degree(expansions: list[TensorPoly]) -> int | None:
    """The class's degree if it is below k, k if it is exactly k, None if it
    is deeper, read off its error words' expansions at k+1: the lowest
    nonzero word length, less one."""
    words = chain.from_iterable(t.terms for t in expansions)
    low = min(map(len, filter(None, words)), default=None)
    return None if low is None else low - 1


def johnson_degree(m: MappingClassRep, bound: int = 4) -> int | None:
    """Largest k <= bound such that every generator moves by an error in
    Gamma_{k+1}; None when every error lies deeper than the bound detects
    (in particular for the identity), 0 when the action on homology is
    nontrivial.

    Deepens by tau's read, _degree(_expansions(m, k)) for k = 1..bound, and
    returns at the first degree read: a class of low degree is settled before
    the tables, which grow like (letters used)^(k+1), and the zero levels
    below its degree decode to nothing.
    """
    if not 1 <= bound <= MAX_DEGREE_BOUND:
        raise ValueError(f"bound must be in 1..{MAX_DEGREE_BOUND}")
    if m.ambient != SURFACE:
        raise ValueError("filtration degree is defined for surface classes")
    for k in range(1, bound + 1):
        deg = _degree(_expansions(m, k))
        if deg is not None:
            return deg
    return None


def _deepening(k: int):
    """The degrees tau reads a class at before k: 1, 2, 4, ... below k, then
    k itself.  Read at truncations 2, 3, 5, ..., a class too shallow for k
    shows its degree at the first one past it, at most about twice as deep;
    each read costs at most the next, so the reads together cost at most
    about twice the last."""
    j = 1
    while j < k:
        yield j
        j *= 2
    yield k


def tau(m: MappingClassRep, k: int) -> Derivation:
    """The degree-k derivation of a class of filtration degree >= k.

    Value on the j-th generator class: the degree-(k+1) graded class of
    phi(gamma_j) gamma_j^-1, the top degree of its expansion, certified Lie
    by tensor_to_lie.  Raises DegreeTooLow, naming the class's degree, when
    some error term has a nonzero part below degree k+1; that is read again
    on every call.  The expansion at k+1 is first held to the lane budget
    (BudgetExceeded), then the degree is read as johnson_degree reads it, at
    the truncations _deepening gives, so a class too shallow for k is
    refused before the tables of k+1 are built.  The derivation is certified
    symplectic, and only then memoized, in m._cache under ("tau", k), so it
    is computed once per class object and k.  This decode route runs only
    for classes that are not samples, or at a k other than a sample's own:
    sample_Ak leaves each sample's tau_k in its memo, the screen checked
    against its packed expansions (see _certified).
    """
    d = m._cache.get(("tau", k))
    if d is None:
        for err in _error_words(m):
            _check_lanes(len({abs(x) for x in err.letters}), k + 1)
        for j in _deepening(k):
            expansions = _expansions(m, j)
            deg = _degree(expansions)
            if deg is not None and deg < k:
                raise DegreeTooLow(f"class has filtration degree {deg}, need at least {k}")
        values = [tensor_to_lie(t.degree_part(k + 1), k + 1) for t in expansions]
        d = Derivation(m.genus, k, values)
        if not derivation_is_symplectic(d):
            raise NotSymplectic(f"tau_{k} of the class is not a symplectic derivation")
        m._cache[("tau", k)] = d
    return d


def _handlebody_class(g: int, forward: dict, inverse: dict) -> MappingClassRep:
    """The class sending each generator code in `forward` to its image there,
    and back by `inverse`, fixing every other generator.  The pair is
    certified inverse by MappingClassRep and the class checked to extend
    over the handlebody, which seeds its "extends" memo: every composition
    of such classes carries the memo by construction (MappingClassRep)."""

    def images(moves):
        gens = range(1, 2 * g + 1)
        return [moves[c] if c in moves else word_from_codes(SURFACE, g, (c,)) for c in gens]

    m = MappingClassRep(
        FreeGroupMap(SURFACE, g, images(forward)),
        FreeGroupMap(SURFACE, g, images(inverse)),
    )
    if not extends_to_handlebody(m):
        raise NotInHandlebodyGroup("built-in class does not extend over the handlebody")
    return m


def annulus_twist(g: int, handle: int = 1) -> MappingClassRep:
    """Twist along an annulus dual to a separating curve between handles
    `handle` and `handle`+1.  Fixes homology, extends over the handlebody,
    and has filtration degree exactly 1.

    With q = [alpha_i, beta_i] and c = q^-1 beta_{i+1}, the twist conjugates
    alpha_i, beta_i, beta_{i+1} by c and sends alpha_{i+1} to alpha_{i+1} q;
    everything else is fixed.
    """
    if g < 2:
        raise ValueError("needs at least two handles")
    i = handle
    if not 1 <= i <= g - 1:
        raise ValueError(f"handle must be in 1..{g - 1}")
    a, b, a2, b2 = alpha(i, g), beta(i, g), alpha(i + 1, g), beta(i + 1, g)
    q = commutator(a, b)
    c = ~q * b2

    def moves(by, tail):
        return {
            i: conjugate(a, by),
            i + 1: a2 * tail,
            g + i: conjugate(b, by),
            g + i + 1: conjugate(b2, by),
        }

    return _handlebody_class(g, moves(c, q), moves(~c, ~c * ~q * c))


def meridian_twist(g: int, handle: int = 1, power: int = 1) -> MappingClassRep:
    """Twist along the meridian disk of one handle: beta_i picks up a power
    of alpha_i, everything else is fixed.  Extends over the handlebody but
    acts on homology by a transvection, so it is never in the Torelli group."""
    if not 1 <= handle <= g:
        raise ValueError(f"handle must be in 1..{g}")
    a, b = alpha(handle, g), beta(handle, g)
    return _handlebody_class(g, {g + handle: b * a**power}, {g + handle: b * a ** (-power)})


def handle_swap(g: int, i: int, j: int) -> MappingClassRep:
    """Exchange two handles wholesale: alpha_i <-> alpha_j, beta_i <-> beta_j."""
    if i == j or not (1 <= i <= g and 1 <= j <= g):
        raise ValueError("need two distinct handles")
    moves = {i: alpha(j, g), j: alpha(i, g), g + i: beta(j, g), g + j: beta(i, g)}
    return _handlebody_class(g, moves, moves)


#: the classes the CLI's --builtin names, each built at a given genus
BUILTINS = {
    "phi": annulus_twist,
    "identity": mcr_identity,
    "meridian": meridian_twist,
    "swap": lambda g: handle_swap(g, 1, 2),
}


@lru_cache(maxsize=None)
def handlebody_sample_library(g: int) -> tuple[MappingClassRep, ...]:
    """Certified elements of the handlebody subgroup used as test stock:
    meridian twists (both senses), handle swaps, and the annulus twists on
    every adjacent pair of handles, last.  Built and certified once per
    genus; a tuple, since every caller shares it."""
    lib = []
    for i in range(1, g + 1):
        lib.append(meridian_twist(g, i))
        lib.append(meridian_twist(g, i, power=-1))
    for i in range(1, g + 1):
        for j in range(i + 1, g + 1):
            lib.append(handle_swap(g, i, j))
    for i in range(1, g):
        lib.append(annulus_twist(g, i))
    return tuple(lib)


class FilteredMappingClass:
    """A mapping class bundled with its computed filtration data."""

    __slots__ = ("rep", "degree", "in_handlebody")

    def __init__(self, rep: MappingClassRep, degree: int, in_handlebody: bool):
        object.__setattr__(self, "rep", rep)
        object.__setattr__(self, "degree", degree)
        object.__setattr__(self, "in_handlebody", in_handlebody)

    def __setattr__(self, name, value):
        raise AttributeError("FilteredMappingClass is immutable")

    def __delattr__(self, name):
        raise AttributeError("FilteredMappingClass is immutable")

    def _fields(self) -> tuple:
        return self.rep, self.degree, self.in_handlebody

    def __eq__(self, other):
        if type(other) is not FilteredMappingClass:
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self):
        return hash(self._fields())

    def __repr__(self):
        return (
            f"FilteredMappingClass(rep={self.rep!r}, degree={self.degree!r},"
            f" in_handlebody={self.in_handlebody!r})"
        )


def _assemble(lib, k: int, recipe) -> MappingClassRep:
    """The candidate of a recipe, the light classes it drew from the sample
    library `lib`.

    Each light class comes from _light_class.  Degree 1 is the first
    class, or its product with the second; degree 2 their commutator;
    degree 3 [first, [second, third]].  At k >= 2 the final composition
    runs under WORD_BUDGET, so a candidate that would exceed it raises
    BudgetExceeded before its images are built.  Degree 1 needs no budget:
    a light class has at most 79 letters at genus 2-8, so a product of two
    has at most 79^2 = 6,241, under WORD_BUDGET.
    """
    c = [_light_class(lib[0].genus, light) for light in recipe]
    if k == 1:
        return c[0] if len(c) == 1 else mcr_compose(c[0], c[1])
    inner = c[1] if k == 2 else mcr_commutator(c[1], c[2])
    return mcr_commutator(c[0], inner, WORD_BUDGET)


@lru_cache(maxsize=None)
def _light_class(g: int, light) -> MappingClassRep:
    """The light class (twist, inverted, by) of the genus-g sample library:
    the annulus twist lib[twist], inverted or not, conjugated by lib[by] or
    not.  Built once per (genus, light recipe) and shared by every candidate
    that draws it; it extends over the handlebody by construction."""
    lib = handlebody_sample_library(g)
    twist, inverted, by = light
    base = lib[twist]
    if inverted:
        base = mcr_inverse(base)
    return base if by is None else mcr_conjugate(base, lib[by])


@lru_cache(maxsize=None)
def _light_tau(g: int, light) -> Derivation:
    """tau_1 of a light class of the genus-g sample library, with no word
    built: -tau_1 of the twist when inverted, moved by the symplectic action
    of lib[by] when conjugated.  Only the derivation is kept, once per
    (genus, light recipe)."""
    lib = handlebody_sample_library(g)
    twist, inverted, by = light
    d = tau(lib[twist], 1)
    if inverted:
        d = -d
    return d if by is None else act_on_derivation(symplectic_action(lib[by]), d)


def _screen(g: int, k: int, recipe) -> Derivation:
    """tau_k of a degree-k recipe's candidate, read off its light classes'
    tau_1 with no word built: their sum at k = 1, the bracket [t0, t1] at
    k = 2 and [t0, [t1, t2]] at k = 3 (see _certified for the routes)."""
    t = [_light_tau(g, light) for light in recipe]
    if k == 1:
        return t[0] if len(t) == 1 else t[0] + t[1]
    return derivation_bracket(t[0], t[1] if k == 2 else derivation_bracket(t[1], t[2]))


def _certified(lib, k: int, recipe) -> MappingClassRep | None:
    """The recipe's candidate when it is kept: its images within the word
    budget, its degree exactly k, and extending over the handlebody, with
    its tau_k left in its memo.

    Every recipe is screened before any word is built, by the tau_k that
    its light classes' tau_1 give (_screen).  At k = 1 it is their sum:
    tau_1 is additive on the Torelli group (Morita), and every light class
    lies in it.  At k >= 2 it is their bracket: tau is a map of graded Lie
    algebras, and with mcr_commutator = m n m^-1 n^-1 and error words
    phi(x) x^-1 the sign is +, so for light classes m, n, p, tau_2([m, n])
    = [tau_1 m, tau_1 n] and tau_3([m, [n, p]]) = [tau_1 m, [tau_1 n,
    tau_1 p]].  A zero screen is a candidate that is the identity or lies
    deeper than k, so it is rejected unbuilt.

    A nonzero screen is the second route for the kept tau_k.  Each error
    word's expansion at k+1 must be 1 plus the screen's value on its
    generator (tensorlie._expands_to, on packed ints: no term is decoded
    and no value is peeled off the words).  That is degree exactly k and
    tau_k equal to the screen at once; anything else, an identity candidate
    included, raises RouteMismatch.  The identity comparison after it never
    rejects: it is the one identity_map per built candidate that
    perfbench/spans.py counts as the sampler's candidates.  Handlebody
    membership is read off the candidate's "extends" memo, which its
    library factors give it by construction; a candidate without it is
    rejected, never taken on trust.
    The screen's values are Lie by construction, and
    derivation_is_symplectic certifies the derivation before it is
    memoized as the class's tau_k.
    """
    screen = _screen(lib[0].genus, k, recipe)
    if screen.is_zero():
        return None
    try:
        m = _assemble(lib, k, recipe)
    except BudgetExceeded:
        return None
    for err, value in zip(_error_words(m), _value_terms(screen)):
        if not _expands_to(err, k + 1, value):
            route = "sum" if k == 1 else "bracket"
            raise RouteMismatch(f"an error word's expansion differs from the {route} route's tau_{k}")
    if m.forward == identity_map(SURFACE, m.genus) or not m._cache.get("extends"):
        return None
    if not derivation_is_symplectic(screen):
        raise NotSymplectic(f"tau_{k} of the class is not a symplectic derivation")
    m._cache[("tau", k)] = screen
    return m


def _certified_draws(g: int, k: int, seed: int):
    """The sampler's attempts at seed `seed`: for each, the certified class,
    or None in place of a rejected candidate.

    Degree 1 stock: annulus twists, their conjugates by library elements,
    and short products.  Degree 2: commutators of degree-1 samples.
    Degree 3: commutators of degree-1 with degree-2.  Every draw from rng
    happens before the candidate is built, so no draw depends on a build,
    and the frame keeps no candidate between attempts.
    """
    rng = random.Random(seed)
    lib = handlebody_sample_library(g)
    twists = range(len(lib) + 1 - g, len(lib))  # the annulus twists, last

    def light_one():
        # short stock keeps nested commutators inside the word budget;
        # choice(range(n)) draws as choice of an n-element sequence does, so
        # drawing indices instead of classes moves no seeded sample
        twist = rng.choice(twists)
        inverted = rng.random() < 0.5
        return twist, inverted, rng.choice(range(len(lib))) if rng.random() < 0.5 else None

    def recipe():
        if k == 1:
            first = light_one()
            style = rng.random()
            if style < 0.4:
                return first, (rng.choice(twists), False, None)
            return (first, light_one()) if style < 0.6 else (first,)
        inner = light_one(), light_one()
        return inner if k == 2 else (light_one(), *inner)  # outer drawn after inner

    while True:
        yield _certified(lib, k, recipe())


@lru_cache(maxsize=32)
def _sample_stream(g: int, k: int, seed: int) -> list:
    """The process's stream for (g, k, seed), made on first use: the
    generator of its attempts, and the attempts made, each its certified
    class, tau_k memo included, or None.

    Only calls that repeat a (g, k, seed) in one process resume a stream.
    No CLI invocation does: `lagtrace verify` runs one suite, which calls
    the sampler once.  In-process batches do: the 72 run_suite calls of the
    benchmark's suites workload (8 suites at genus 2-4 and suite seeds 0-2)
    make 54 sampler calls on 18 streams, degree 1 and 2, and its deep
    workload adds two degree-3 streams; the test suite repeats keys too.
    The bound keeps all 20 with room.  A stream holds its classes: the 18
    of the suites workload hold about 1.5 MiB at its end (tracemalloc), so
    32 streams of their size hold under 3 MiB.  The runtime is
    single-threaded, so a stream is never drawn from by two callers at once.
    """
    return [_certified_draws(g, k, seed), []]


def sample_Ak(
    g: int, k: int, count: int, seed: int = 0
) -> list[FilteredMappingClass]:
    """The first `count` seeded samples of handlebody classes of filtration
    degree exactly k (see _certified_draws for the recipe).

    Every returned element is certified by _certified (degree exactly k,
    tau_k Lie, symplectic and equal to its nonzero screen, the sum route at
    k = 1 and the bracket route at k >= 2, handlebody membership), and
    candidates past the word budget are dropped.  Raises BudgetExceeded
    when `count` samples are not found within 80 * count + 80 attempts.

    The i-th attempt of a seed does not depend on `count`, which only sets
    that limit, so each attempt is made once per (g, k, seed) and process,
    by a stream that every call shares (_sample_stream): a call walks the
    attempts made and resumes the stream past them, so every call returns
    the same class objects, each with its tau_k memoized.  An exception
    escaping a candidate restarts the stream from the seed.
    """
    if k not in (1, 2, 3):
        raise ValueError("k must be 1, 2 or 3")
    max_attempts = 80 * count + 80
    stream = _sample_stream(g, k, seed)
    draws, made = stream
    out: list[FilteredMappingClass] = []
    for i in range(max_attempts):
        if len(out) >= count:
            break
        if i == len(made):
            try:
                made.append(next(draws))
            except BaseException:
                stream[:] = [_certified_draws(g, k, seed), []]
                raise
        if made[i] is not None:
            out.append(FilteredMappingClass(made[i], k, True))
    if len(out) < count:
        raise BudgetExceeded(
            f"could not assemble {count} degree-{k} samples in {max_attempts} tries"
        )
    return out


def serialize_mapping_class(m: MappingClassRep) -> str:
    """Automorphism file format: a genus header, one image line per
    generator, a blank line, then the inverse's image lines."""
    g = m.genus
    names = generator_names(g)
    lines = [f"genus {g}"]
    for name, img in zip(names, m.forward.images):
        lines.append(f"{name} -> {format_word(img)}")
    lines.append("")
    for name, img in zip(names, m.inverse.images):
        lines.append(f"{name} -> {format_word(img)}")
    return "\n".join(lines) + "\n"


def parse_mapping_class(text: str) -> MappingClassRep:
    """Inverse of serialize_mapping_class, with positioned errors.  Only blank
    lines may follow the inverse block.  A genus past GENUS_BUDGET, or an
    image past WORD_BUDGET letters, raises BudgetExceeded as its line is
    read, before any word is parsed into a class or composed."""
    lines = text.splitlines()
    if not lines:
        raise ParseError("empty automorphism file", line=1)
    header = lines[0].strip()
    parts = header.split()
    if len(parts) != 2 or parts[0] != "genus" or not parts[1].isdigit():
        raise ParseError("expected header 'genus g'", line=1)
    g = int(parts[1])
    if g < MIN_GENUS:
        raise ParseError(f"genus must be at least {MIN_GENUS}", line=1)

    def read_block(start: int) -> tuple[list, int]:
        # each name is made, and the genus held to its budget, once its line
        # is there: the header's genus alone must size nothing before that
        images = []
        lineno = start
        for code in range(1, 2 * g + 1):
            name = _letter_token(code, g, SURFACE)
            while lineno < len(lines) and not lines[lineno].strip():
                lineno += 1
            if lineno >= len(lines):
                raise ParseError(f"missing image line for {name}", line=lineno + 1)
            if g > GENUS_BUDGET:
                raise BudgetExceeded(f"genus {g} is past the genus budget ({GENUS_BUDGET})")
            raw = lines[lineno]
            if "->" not in raw:
                raise ParseError(f"expected '{name} -> word'", line=lineno + 1)
            lhs, rhs = raw.split("->", 1)
            if lhs.strip() != name:
                raise ParseError(
                    f"expected image of {name}, got {lhs.strip()!r}", line=lineno + 1
                )
            rhs = rhs.strip()
            letters = len(rhs.split())
            if letters > WORD_BUDGET:
                raise BudgetExceeded(
                    f"image of {name} (line {lineno + 1}) has {letters:,} letters,"
                    f" past the file image budget ({WORD_BUDGET:,})"
                )
            # "1" and an empty right side both parse to the identity word
            images.append(parse_word(rhs, g, SURFACE, line=lineno + 1))
            lineno += 1
        return images, lineno

    fwd_images, pos = read_block(1)
    inv_images, pos = read_block(pos)
    for lineno in range(pos, len(lines)):
        if lines[lineno].strip():
            raise ParseError("unexpected text after the inverse block", line=lineno + 1)
    return MappingClassRep(
        FreeGroupMap(SURFACE, g, fwd_images),
        FreeGroupMap(SURFACE, g, inv_images),
    )
