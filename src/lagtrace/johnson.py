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
from dataclasses import dataclass

from .derivations import Derivation, derivation_is_symplectic, is_in_G
from .errors import (
    BudgetExceeded,
    DegreeTooLow,
    NotInHandlebodyGroup,
    NotSymplectic,
    ParseError,
)
from .freegroup import (
    SURFACE,
    FreeGroupMap,
    MappingClassRep,
    alpha,
    apply,
    beta,
    commutator,
    conjugate,
    extends_to_handlebody,
    format_word,
    identity_map,
    identity_word,
    max_image_length,
    mcr_commutator,
    mcr_compose,
    mcr_conjugate,
    mcr_identity,
    mcr_inverse,
    parse_word,
    word_from_codes,
)
from .tensorlie import lcs_class, lcs_degree

MAX_DEGREE_BOUND = 6
WORD_BUDGET = 10_000


def _error_words(m: MappingClassRep):
    g = m.genus
    for j in range(1, 2 * g + 1):
        gen = word_from_codes(SURFACE, g, [j])
        yield apply(m.forward, gen) * ~gen


def johnson_degree(m: MappingClassRep, bound: int = 4) -> int | None:
    """Largest k <= bound such that every generator moves by an error in
    Gamma_{k+1}; None when every error lies deeper than the bound detects
    (in particular for the identity), 0 when the action on homology is
    nontrivial."""
    if not 1 <= bound <= MAX_DEGREE_BOUND:
        raise ValueError(f"bound must be in 1..{MAX_DEGREE_BOUND}")
    if m.ambient is not SURFACE:
        raise ValueError("filtration degree is defined for surface classes")
    best = None
    for err in _error_words(m):
        deg = lcs_degree(err, bound + 1)
        if deg is None:
            continue
        if best is None or deg < best:
            best = deg
    if best is None:
        return None
    return best - 1


def tau(m: MappingClassRep, k: int) -> Derivation:
    """The degree-k derivation of a class of filtration degree >= k.

    Value on the j-th generator class: the degree-(k+1) graded class of
    phi(gamma_j) gamma_j^-1.  Raises DegreeTooLow when some error term has a
    nonzero part below degree k+1.
    """
    g = m.genus
    values = []
    for err in _error_words(m):
        deg = lcs_degree(err, k + 1)
        if deg is not None and deg < k + 1:
            raise DegreeTooLow(
                f"class has filtration degree {deg - 1}, need at least {k}"
            )
        values.append(lcs_class(err, k + 1))
    d = Derivation(g, k, tuple(values))
    if not derivation_is_symplectic(d):
        raise NotSymplectic(f"tau_{k} of the class is not a symplectic derivation")
    return d


def _certify_handlebody(m: MappingClassRep) -> None:
    if not extends_to_handlebody(m):
        raise NotInHandlebodyGroup("built-in class does not extend over the handlebody")


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
    q = commutator(alpha(i, g), beta(i, g))
    c = ~q * beta(i + 1, g)
    fwd_images = []
    inv_images = []
    for j in range(1, g + 1):
        if j == i:
            fwd_images.append(conjugate(alpha(j, g), c))
            inv_images.append(conjugate(alpha(j, g), ~c))
        elif j == i + 1:
            fwd_images.append(alpha(j, g) * q)
            inv_images.append(alpha(j, g) * ~c * ~q * c)
        else:
            fwd_images.append(alpha(j, g))
            inv_images.append(alpha(j, g))
    for j in range(1, g + 1):
        if j in (i, i + 1):
            fwd_images.append(conjugate(beta(j, g), c))
            inv_images.append(conjugate(beta(j, g), ~c))
        else:
            fwd_images.append(beta(j, g))
            inv_images.append(beta(j, g))
    m = MappingClassRep(
        FreeGroupMap(SURFACE, g, fwd_images),
        FreeGroupMap(SURFACE, g, inv_images),
    )
    _certify_handlebody(m)
    return m


def meridian_twist(g: int, handle: int = 1, power: int = 1) -> MappingClassRep:
    """Twist along the meridian disk of one handle: beta_i picks up a power
    of alpha_i, everything else is fixed.  Extends over the handlebody but
    acts on homology by a transvection, so it is never in the Torelli group."""
    if not 1 <= handle <= g:
        raise ValueError(f"handle must be in 1..{g}")
    a = alpha(handle, g)
    fwd = [alpha(j, g) for j in range(1, g + 1)]
    inv = list(fwd)
    for j in range(1, g + 1):
        b = beta(j, g)
        if j == handle:
            fwd.append(b * a**power)
            inv.append(b * a ** (-power))
        else:
            fwd.append(b)
            inv.append(b)
    m = MappingClassRep(FreeGroupMap(SURFACE, g, fwd), FreeGroupMap(SURFACE, g, inv))
    _certify_handlebody(m)
    return m


def handle_swap(g: int, i: int, j: int) -> MappingClassRep:
    """Exchange two handles wholesale: alpha_i <-> alpha_j, beta_i <-> beta_j."""
    if i == j or not (1 <= i <= g and 1 <= j <= g):
        raise ValueError("need two distinct handles")
    images = []
    for idx in range(1, g + 1):
        other = j if idx == i else i if idx == j else idx
        images.append(alpha(other, g))
    for idx in range(1, g + 1):
        other = j if idx == i else i if idx == j else idx
        images.append(beta(other, g))
    f = FreeGroupMap(SURFACE, g, images)
    m = MappingClassRep(f, f)
    _certify_handlebody(m)
    return m


def handlebody_sample_library(g: int) -> list[MappingClassRep]:
    """Certified elements of the handlebody subgroup used as test stock:
    meridian twists (both senses), handle swaps, and the annulus twists on
    every adjacent pair of handles."""
    lib = []
    for i in range(1, g + 1):
        lib.append(meridian_twist(g, i))
        lib.append(meridian_twist(g, i, power=-1))
    for i in range(1, g + 1):
        for j in range(i + 1, g + 1):
            lib.append(handle_swap(g, i, j))
    for i in range(1, g):
        lib.append(annulus_twist(g, i))
    for m in lib:
        _certify_handlebody(m)
    return lib


@dataclass(frozen=True)
class FilteredMappingClass:
    """A mapping class bundled with its computed filtration data."""

    rep: MappingClassRep
    degree: int
    in_handlebody: bool


def _budget_ok(m: MappingClassRep) -> bool:
    return max_image_length(m) <= WORD_BUDGET


def _certify_degree(m: MappingClassRep, k: int) -> tuple[bool, bool]:
    """One Magnus pass per generator at truncation k+1.

    Returns (degree >= k, degree == k); the second is equivalent to the
    degree-k derivation being nonzero.
    """
    exact = False
    for err in _error_words(m):
        deg = lcs_degree(err, k + 1)
        if deg is None:
            continue
        if deg < k + 1:
            return False, False
        exact = True
    return True, exact


def sample_Ak(
    g: int, k: int, count: int, seed: int = 0
) -> list[FilteredMappingClass]:
    """Seeded samples of handlebody classes of filtration degree exactly k.

    Degree 1 stock: annulus twists, their conjugates by library elements,
    and short products.  Degree 2: commutators of degree-1 samples.
    Degree 3: commutators of degree-1 with degree-2.  Every returned
    element is certified (degree recomputed, nonzero derivation, handlebody
    membership); candidates past the word budget are dropped, and failure
    to collect enough samples raises.
    """
    if k not in (1, 2, 3):
        raise ValueError("k must be 1, 2 or 3")
    rng = random.Random(seed)
    lib = handlebody_sample_library(g)
    twists = [annulus_twist(g, i) for i in range(1, g)]

    def light_one():
        # short stock keeps nested commutators inside the word budget
        base = rng.choice(twists)
        if rng.random() < 0.5:
            base = mcr_inverse(base)
        if rng.random() < 0.5:
            base = mcr_conjugate(base, rng.choice(lib))
        return base

    def degree_one():
        out = light_one()
        style = rng.random()
        if style < 0.4:
            out = mcr_compose(out, rng.choice(twists))
        elif style < 0.6:
            out = mcr_compose(out, light_one())
        return out

    def candidate():
        if k == 1:
            return degree_one()
        if k == 2:
            return mcr_commutator(light_one(), light_one())
        inner = mcr_commutator(light_one(), light_one())
        return mcr_commutator(light_one(), inner)

    out: list[FilteredMappingClass] = []
    attempts = 0
    max_attempts = 80 * count + 80
    while len(out) < count:
        attempts += 1
        if attempts > max_attempts:
            raise BudgetExceeded(
                f"could not assemble {count} degree-{k} samples in {max_attempts} tries"
            )
        m = candidate()
        if m.forward == identity_map(SURFACE, g) or not _budget_ok(m):
            continue
        ok, exact = _certify_degree(m, k)
        if not (ok and exact):
            continue
        if not extends_to_handlebody(m):
            continue
        out.append(FilteredMappingClass(m, k, True))
    return out


def serialize_mapping_class(m: MappingClassRep) -> str:
    """Automorphism file format: a genus header, one image line per
    generator, a blank line, then the inverse's image lines."""
    g = m.genus
    names = [f"a{i}" for i in range(1, g + 1)] + [f"b{i}" for i in range(1, g + 1)]
    lines = [f"genus {g}"]
    for name, img in zip(names, m.forward.images):
        lines.append(f"{name} -> {format_word(img)}")
    lines.append("")
    for name, img in zip(names, m.inverse.images):
        lines.append(f"{name} -> {format_word(img)}")
    return "\n".join(lines) + "\n"


def parse_mapping_class(text: str) -> MappingClassRep:
    """Inverse of serialize_mapping_class, with positioned errors."""
    lines = text.splitlines()
    if not lines:
        raise ParseError("empty automorphism file", line=1)
    header = lines[0].strip()
    parts = header.split()
    if len(parts) != 2 or parts[0] != "genus" or not parts[1].isdigit():
        raise ParseError("expected header 'genus g'", line=1)
    g = int(parts[1])
    if g < 2:
        raise ParseError("genus must be at least 2", line=1)
    names = [f"a{i}" for i in range(1, g + 1)] + [f"b{i}" for i in range(1, g + 1)]

    def read_block(start: int) -> tuple[list, int]:
        images = []
        lineno = start
        for name in names:
            while lineno < len(lines) and not lines[lineno].strip():
                lineno += 1
            if lineno >= len(lines):
                raise ParseError(f"missing image line for {name}", line=lineno + 1)
            raw = lines[lineno]
            if "->" not in raw:
                raise ParseError(f"expected '{name} -> word'", line=lineno + 1)
            lhs, rhs = raw.split("->", 1)
            if lhs.strip() != name:
                raise ParseError(
                    f"expected image of {name}, got {lhs.strip()!r}", line=lineno + 1
                )
            rhs = rhs.strip()
            if rhs in ("1", ""):
                images.append(identity_word(SURFACE, g))
            else:
                images.append(parse_word(rhs, g, SURFACE, line=lineno + 1))
            lineno += 1
        return images, lineno

    fwd_images, pos = read_block(1)
    inv_images, _ = read_block(pos)
    return MappingClassRep(
        FreeGroupMap(SURFACE, g, fwd_images),
        FreeGroupMap(SURFACE, g, inv_images),
    )
