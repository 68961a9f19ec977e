"""Exact words and automorphisms of the surface and handlebody free groups.

The surface group is free on 2g generators alpha_1..alpha_g, beta_1..beta_g;
the handlebody group is free on g generators beta'_1..beta'_g.  Killing the
alphas and priming the betas gives the projection between them.

Letters are stored as nonzero signed integers: +k is the k-th basis generator,
-k its inverse.  For the surface, codes 1..g are alpha_1..alpha_g and codes
g+1..2g are beta_1..beta_g, matching the ordering gamma_i = alpha_i,
gamma_{g+i} = beta_i used everywhere downstream (Fox matrices, homology
coordinates).  For the handlebody, codes 1..g are beta'_1..beta'_g.
Words are always stored freely reduced; constructors reduce.
"""

from __future__ import annotations

from .errors import (
    AmbientMismatch,
    BudgetExceeded,
    CertificationError,
    NotInHandlebodyGroup,
    ParseError,
)

SURFACE = "surface"
HANDLEBODY = "handlebody"

MIN_GENUS = 2


def _rank(ambient: str, genus: int) -> int:
    if ambient == SURFACE:
        return 2 * genus
    if ambient == HANDLEBODY:
        return genus
    raise AmbientMismatch(f"unknown ambient {ambient!r}")


def _check_genus(genus: int) -> None:
    if genus < MIN_GENUS:
        raise ValueError(f"genus must be at least {MIN_GENUS}, got {genus}")


def _cancel_seam(u: tuple[int, ...], v: tuple[int, ...]) -> tuple[int, ...]:
    """The reduced product of two reduced letter tuples: only the seam cancels."""
    n = min(len(u), len(v))
    i = 0
    while i < n and u[-1 - i] == -v[i]:
        i += 1
    return u[: len(u) - i] + v[i:]


def _reduce(letters) -> tuple[int, ...]:
    out: list[int] = []
    for x in letters:
        if out and out[-1] == -x:
            out.pop()
        else:
            out.append(x)
    return tuple(out)


class GroupWord:
    """A freely reduced word in the surface or handlebody free group."""

    __slots__ = ("ambient", "genus", "letters", "_hash")

    def __init__(self, ambient: str, genus: int, letters=()):
        _check_genus(genus)
        rank = _rank(ambient, genus)
        reduced = _reduce(letters)
        for x in reduced:
            if x == 0 or abs(x) > rank:
                raise ValueError(f"letter code {x} out of range for {ambient} genus {genus}")
        self._fill(ambient, genus, reduced)

    def _fill(self, ambient: str, genus: int, letters: tuple[int, ...]) -> "GroupWord":
        object.__setattr__(self, "ambient", ambient)
        object.__setattr__(self, "genus", genus)
        object.__setattr__(self, "letters", letters)
        object.__setattr__(self, "_hash", hash((ambient, genus, letters)))
        return self

    @classmethod
    def _trusted(cls, ambient: str, genus: int, letters: tuple[int, ...]) -> "GroupWord":
        """Word over a valid group from a tuple already reduced and in range."""
        return object.__new__(cls)._fill(ambient, genus, letters)

    def __setattr__(self, name, value):
        raise AttributeError("GroupWord is immutable")

    def __delattr__(self, name):
        raise AttributeError("GroupWord is immutable")

    def __len__(self):
        return len(self.letters)

    def __eq__(self, other):
        return (
            isinstance(other, GroupWord)
            and self.ambient == other.ambient
            and self.genus == other.genus
            and self.letters == other.letters
        )

    def __hash__(self):
        return self._hash

    def __mul__(self, other: "GroupWord") -> "GroupWord":
        _same_group(self, other)
        return GroupWord._trusted(self.ambient, self.genus, _cancel_seam(self.letters, other.letters))

    def __invert__(self) -> "GroupWord":
        return GroupWord._trusted(self.ambient, self.genus, tuple(-x for x in reversed(self.letters)))

    def __pow__(self, n: int) -> "GroupWord":
        base = self if n >= 0 else ~self
        out = identity_word(self.ambient, self.genus)
        for _ in range(abs(n)):
            out = out * base
        return out

    def is_identity(self) -> bool:
        return not self.letters

    def __repr__(self):
        return f"GroupWord({format_word(self)!r}, genus={self.genus}, ambient={self.ambient!r})"


def _same_group(u: GroupWord, v: GroupWord) -> None:
    if u.ambient != v.ambient or u.genus != v.genus:
        raise AmbientMismatch(
            f"cannot combine {u.ambient} genus {u.genus} with {v.ambient} genus {v.genus}"
        )


def identity_word(ambient: str, genus: int) -> GroupWord:
    return GroupWord(ambient, genus, ())


def word_from_codes(ambient: str, genus: int, codes) -> GroupWord:
    return GroupWord(ambient, genus, codes)


def conjugate(u: GroupWord, by: GroupWord) -> GroupWord:
    """by * u * by^-1."""
    return by * u * ~by


def commutator(u: GroupWord, v: GroupWord) -> GroupWord:
    """u v u^-1 v^-1."""
    return u * v * ~u * ~v


def alpha(i: int, genus: int) -> GroupWord:
    return GroupWord(SURFACE, genus, (i,))


def beta(i: int, genus: int) -> GroupWord:
    return GroupWord(SURFACE, genus, (genus + i,))


# ---------------------------------------------------------------------------
# word grammar


def _letter_token(code: int, genus: int, ambient: str) -> str:
    k = abs(code)
    if ambient == HANDLEBODY:
        name = f"B{k}"
    else:
        name = f"a{k}" if k <= genus else f"b{k - genus}"
    return name + ("^-1" if code < 0 else "")


def generator_names(genus: int) -> list[str]:
    """Names of the surface generators a1..ag, b1..bg, in code order."""
    return [_letter_token(code, genus, SURFACE) for code in range(1, 2 * genus + 1)]


def format_word(w: GroupWord) -> str:
    """Render a word in the grammar accepted by parse_word; identity is '1'."""
    if w.is_identity():
        return "1"
    return " ".join(_letter_token(x, w.genus, w.ambient) for x in w.letters)


def parse_word(text: str, genus: int, ambient: str = SURFACE, line: int | None = None) -> GroupWord:
    """Parse whitespace-separated tokens a1..ag / b1..bg (B1..Bg primed), '^-1' inverts."""
    _check_genus(genus)
    tokens = text.split()
    if tokens == ["1"]:
        return identity_word(ambient, genus)
    letters = []
    col = 0
    for tok in tokens:
        col = text.index(tok, col)
        sign = 1
        body = tok
        if tok.endswith("^-1"):
            sign = -1
            body = tok[:-3]
        elif "^" in tok:
            raise ParseError(f"bad exponent in token {tok!r} (only ^-1 is allowed)", line, col + 1)
        if len(body) < 2 or body[0] not in "abB" or not body[1:].isdigit():
            raise ParseError(f"malformed letter {tok!r}", line, col + 1)
        idx = int(body[1:])
        if idx < 1 or idx > genus:
            raise ParseError(f"letter index out of range in {tok!r} (genus {genus})", line, col + 1)
        if body[0] == "B":
            if ambient != HANDLEBODY:
                raise ParseError(f"primed letter {tok!r} in a surface word", line, col + 1)
            code = idx
        else:
            if ambient != SURFACE:
                raise ParseError(f"surface letter {tok!r} in a handlebody word", line, col + 1)
            code = idx if body[0] == "a" else genus + idx
        letters.append(sign * code)
        col += len(tok)
    return GroupWord(ambient, genus, letters)


# ---------------------------------------------------------------------------
# homomorphisms


class FreeGroupMap:
    """Endomorphism of a free group, stored as the tuple of generator images.

    `_subst[x]` is the letter tuple that the signed code x maps to: the image
    for x > 0 and, for x < 0 (negative indices count from the end), the
    inverted image, filled in by apply the first time it needs it.
    """

    __slots__ = ("ambient", "genus", "images", "_subst")

    def __init__(self, ambient: str, genus: int, images):
        _check_genus(genus)
        images = tuple(images)
        if len(images) != _rank(ambient, genus):
            raise ValueError(
                f"need {_rank(ambient, genus)} images for {ambient} genus {genus}, got {len(images)}"
            )
        for im in images:
            if not isinstance(im, GroupWord) or im.ambient != ambient or im.genus != genus:
                raise AmbientMismatch("image words must live in the same group")
        self._fill(ambient, genus, images)

    def _fill(self, ambient: str, genus: int, images: tuple) -> "FreeGroupMap":
        object.__setattr__(self, "ambient", ambient)
        object.__setattr__(self, "genus", genus)
        object.__setattr__(self, "images", images)
        object.__setattr__(self, "_subst", [(), *(im.letters for im in images), *[None] * len(images)])
        return self

    @classmethod
    def _trusted(cls, ambient: str, genus: int, images: tuple) -> "FreeGroupMap":
        """Map over a valid group from a tuple of the right number of words
        of that group, as apply builds them."""
        return object.__new__(cls)._fill(ambient, genus, images)

    def __setattr__(self, name, value):
        raise AttributeError("FreeGroupMap is immutable")

    def __delattr__(self, name):
        raise AttributeError("FreeGroupMap is immutable")

    def __eq__(self, other):
        return (
            isinstance(other, FreeGroupMap)
            and self.ambient == other.ambient
            and self.genus == other.genus
            and self.images == other.images
        )

    def __hash__(self):
        return hash((self.ambient, self.genus, self.images))

    def __repr__(self):
        ims = ", ".join(format_word(im) for im in self.images)
        return f"FreeGroupMap(genus={self.genus}, ambient={self.ambient!r}, [{ims}])"


def identity_map(ambient: str, genus: int) -> FreeGroupMap:
    rank = _rank(ambient, genus)
    return FreeGroupMap(ambient, genus, [GroupWord(ambient, genus, (k,)) for k in range(1, rank + 1)])


def apply(f: FreeGroupMap, w: GroupWord, budget: int | None = None) -> GroupWord:
    """The freely reduced image f(w).

    With a budget, raises BudgetExceeded as soon as the image is certain to
    have more than `budget` letters, before it is built: each image still to
    be substituted cancels at most its own length, so the final length is at
    least the output so far minus their summed lengths.
    """
    if f.ambient != w.ambient or f.genus != w.genus:
        raise AmbientMismatch("map and word live in different groups")
    # cancel at the seams while substituting; long compositions collapse
    # far below their unreduced length.  Each image is reduced, so only its
    # head can cancel against the output so far.
    out: list[int] = []
    pop = out.pop
    subst = f._subst
    if budget is not None:
        # out may grow to budget + (lengths of the images still to come)
        limit = budget + sum(map(len, map(subst.__getitem__, map(abs, w.letters))))
    for x in w.letters:
        im = subst[x]
        if im is None:
            im = subst[x] = tuple(-y for y in reversed(subst[-x]))
        i = 0
        n = len(im)
        while i < n and out and out[-1] == -im[i]:
            pop()
            i += 1
        out.extend(im[i:] if i else im)
        if budget is not None:
            limit -= n
            if len(out) > limit:
                raise BudgetExceeded(f"image would exceed {budget} letters")
    return GroupWord._trusted(w.ambient, w.genus, tuple(out))


def compose(f: FreeGroupMap, h: FreeGroupMap, budget: int | None = None) -> FreeGroupMap:
    """The map sending w to f(h(w)); with a budget, every image is applied under it."""
    if f.ambient != h.ambient or f.genus != h.genus:
        raise AmbientMismatch("cannot compose maps of different groups")
    return FreeGroupMap._trusted(f.ambient, f.genus, tuple(apply(f, im, budget) for im in h.images))


class MappingClassRep:
    """An automorphism certified by an explicitly supplied inverse.

    Construction checks that forward and inverse compose to the identity in
    both orders; there is no automatic inverter.  The cache slot memoises
    handlebody membership (extends_to_handlebody) under the key "extends",
    the induced handlebody automorphism (induced_handlebody_map) under
    "psi", and the certified derivations of johnson.tau under ("tau", k).

    The handlebody group is a group, so membership is also known by
    construction: mcr_compose, mcr_inverse and mcr_commutator (and so
    mcr_conjugate) leave "extends" True on their result when every factor
    has it True, and leave no memo otherwise.
    """

    __slots__ = ("forward", "inverse", "_cache")

    def __init__(self, forward: FreeGroupMap, inverse: FreeGroupMap):
        if forward.ambient != inverse.ambient or forward.genus != inverse.genus:
            raise AmbientMismatch("forward and inverse live in different groups")
        ident = identity_map(forward.ambient, forward.genus)
        if compose(forward, inverse) != ident or compose(inverse, forward) != ident:
            raise CertificationError("supplied inverse does not invert the forward map")
        object.__setattr__(self, "forward", forward)
        object.__setattr__(self, "inverse", inverse)
        object.__setattr__(self, "_cache", {})

    def __setattr__(self, name, value):
        raise AttributeError("MappingClassRep is immutable")

    def __delattr__(self, name):
        raise AttributeError("MappingClassRep is immutable")

    @property
    def ambient(self) -> str:
        return self.forward.ambient

    @property
    def genus(self) -> int:
        return self.forward.genus

    def __eq__(self, other):
        return isinstance(other, MappingClassRep) and self.forward == other.forward

    def __hash__(self):
        return hash(self.forward)

    def __repr__(self):
        return f"MappingClassRep({self.forward!r})"


def mcr_identity(genus: int, ambient: str = SURFACE) -> MappingClassRep:
    ident = identity_map(ambient, genus)
    return _trusted_rep(ident, ident)


def _trusted_rep(
    forward: FreeGroupMap, inverse: FreeGroupMap, *factors: MappingClassRep
) -> MappingClassRep:
    # for pairs that are inverse by construction (compositions and inverses
    # of certified reps); skips the quadratic certification pass.  A product
    # of handlebody classes is one: with every factor's "extends" memo True,
    # so is the result's
    obj = object.__new__(MappingClassRep)
    object.__setattr__(obj, "forward", forward)
    object.__setattr__(obj, "inverse", inverse)
    extends = factors and all(f._cache.get("extends") is True for f in factors)
    object.__setattr__(obj, "_cache", {"extends": True} if extends else {})
    return obj


def mcr_compose(m: MappingClassRep, n: MappingClassRep) -> MappingClassRep:
    """The automorphism w -> m(n(w))."""
    return _trusted_rep(compose(m.forward, n.forward), compose(n.inverse, m.inverse), m, n)


def mcr_inverse(m: MappingClassRep) -> MappingClassRep:
    return _trusted_rep(m.inverse, m.forward, m)


def mcr_conjugate(m: MappingClassRep, by: MappingClassRep) -> MappingClassRep:
    """by m by^-1."""
    return mcr_compose(mcr_compose(by, m), mcr_inverse(by))


def mcr_commutator(
    m: MappingClassRep, n: MappingClassRep, budget: int | None = None
) -> MappingClassRep:
    """m n m^-1 n^-1.  With a budget, raises BudgetExceeded once an image of
    it or of its inverse is certain to exceed `budget` letters; the budget
    applies to the final composition only, since the inner products can be
    long while the commutator is short."""
    mn = mcr_compose(m, n)
    m_inv_n_inv = mcr_compose(mcr_inverse(m), mcr_inverse(n))
    return _trusted_rep(
        compose(mn.forward, m_inv_n_inv.forward, budget),
        compose(m_inv_n_inv.inverse, mn.inverse, budget),
        m,
        n,
    )


def max_image_length(m: MappingClassRep) -> int:
    return max(len(im) for im in m.forward.images + m.inverse.images)


# ---------------------------------------------------------------------------
# handlebody projection and homology


def _handlebody_letters(w: GroupWord) -> tuple[int, ...]:
    """The reduced letters of w's projection: the alphas deleted, each beta
    b_i (code g + i) primed to b'_i (code i)."""
    g = w.genus
    return _reduce(x - g if x > 0 else x + g for x in w.letters if abs(x) > g)


def project_to_handlebody(w: GroupWord) -> GroupWord:
    """Delete the alphas and prime the betas; only defined on surface words."""
    if w.ambient != SURFACE:
        raise AmbientMismatch("projection expects a surface word")
    return GroupWord._trusted(HANDLEBODY, w.genus, _handlebody_letters(w))


def abelianize_word(w: GroupWord) -> tuple[int, ...]:
    """Exponent vector, ordered a_1..a_g, b_1..b_g (or b'_1..b'_g)."""
    vec = [0] * _rank(w.ambient, w.genus)
    for x in w.letters:
        vec[abs(x) - 1] += 1 if x > 0 else -1
    return tuple(vec)


def extends_to_handlebody(m: MappingClassRep) -> bool:
    """True when both the map and its inverse send every alpha into the
    kernel: the beta letters of each alpha image reduce to nothing."""
    if m.ambient != SURFACE:
        raise AmbientMismatch("handlebody membership is about surface automorphisms")
    if "extends" not in m._cache:
        g = m.genus
        ok = not any(
            _handlebody_letters(f.images[i]) for f in (m.forward, m.inverse) for i in range(g)
        )
        m._cache["extends"] = ok
    return m._cache["extends"]


def induced_handlebody_map(m: MappingClassRep) -> FreeGroupMap:
    """The automorphism of the handlebody group induced on the beta classes,
    memoized in m._cache under "psi"; a class outside the handlebody group
    raises NotInHandlebodyGroup on every call and leaves nothing there."""
    psi = m._cache.get("psi")
    if psi is None:
        if not extends_to_handlebody(m):
            raise NotInHandlebodyGroup("automorphism does not preserve the handlebody kernel")
        g = m.genus
        psi = FreeGroupMap(
            HANDLEBODY, g, [project_to_handlebody(m.forward.images[g + i]) for i in range(g)]
        )
        m._cache["psi"] = psi
    return psi


def symplectic_action(m: MappingClassRep) -> tuple[tuple[int, ...], ...]:
    """Matrix of the action on first homology; column j is the image of gamma_j."""
    if m.ambient != SURFACE:
        raise AmbientMismatch("symplectic action is about surface automorphisms")
    cols = [abelianize_word(im) for im in m.forward.images]
    n = len(cols)
    return tuple(tuple(cols[j][i] for j in range(n)) for i in range(n))

