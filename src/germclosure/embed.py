"""Germ-extensible subsets of a lattice and the powerset partition.

For U inside a lattice T, the closure G(U) maps into T by joining:
ν(s) = ∨_T s, with ν(∅) the bottom. ν is injective exactly when every
germ r of U lies strictly above the join of the U-elements below it; U
is then called germ extensible and Ḡ(U) denotes the image. The
irreducibles E of T are always germ extensible with Ḡ(E) = G_T, and
every subset S of T sits in a unique interval [U, Ḡ(U)] with U germ
extensible, which partitions the whole powerset of T.
"""

from __future__ import annotations

from dataclasses import dataclass

from .closure import closure_masks
from .errors import CapExceeded
from .germs import GermCutCase, germs_within
from .lattice import Lattice, lambda_e, r_inf, sigma_inf
from .poset import bit_indices, check_subset, mask_of, sorted_by_size

# verify_partition walks all 2^n subsets of the lattice
PARTITION_SIZE_CAP = 12


@dataclass(frozen=True)
class EmbedResult:
    """Germ extensibility of U = subset inside a lattice. masks is G(U) in
    the lattice's own indices, nu_image[i] is ν(masks[i]), and g_bar is
    the mask of Ḡ(U) when U is extensible and None otherwise."""

    subset: int
    extensible: bool
    masks: tuple[int, ...]
    nu_image: tuple[int, ...]
    g_bar: int | None
    violating_germs: tuple[int, ...]


def is_germ_extensible(t: Lattice, u_mask: int) -> EmbedResult:
    """Decide ν-injectivity for U = u_mask inside t via the germ-join
    criterion, carrying the closure, the ν image and any violating germs
    along. A germ r of U violates it when ν of its strict cut, the
    closure's GermCutCase element for r, is r itself."""
    masks, cases = closure_masks(t.poset.up, t.poset.down, u_mask)
    nu_image = tuple(map(t.join_mask, masks))
    violating = tuple(sorted(
        case.germ
        for case, x in zip(cases, nu_image)
        if isinstance(case, GermCutCase) and x == case.germ
    ))
    extensible = not violating
    g_bar = None
    if extensible:
        assert len(set(nu_image)) == len(masks), (
            "the join criterion holds but ν identifies two closure elements"
        )
        g_bar = mask_of(nu_image)
    return EmbedResult(u_mask, extensible, masks, nu_image, g_bar, violating)


def g_sharp(t: Lattice) -> int:
    """Elements recovered by climbing to σ^∞ and descending back to r^∞."""
    return mask_of(
        x for x in range(t.n) if r_inf(t, sigma_inf(t, x)) == x
    )


def ghat_t(t: Lattice) -> int:
    return g_sharp(t) & ~lambda_e(t)


def g_t(t: Lattice) -> int:
    """G_T = ΛE together with Ĝ_T; the two parts never meet."""
    lam = lambda_e(t)
    hat = g_sharp(t) & ~lam
    assert lam & hat == 0
    return lam | hat


def alpha(t: Lattice, u_mask: int, x: int) -> int:
    """The irreducibles-below map: the elements of U = u_mask under x."""
    return u_mask & t.poset.down[x]


def irr_closure_equals_g_t(t: Lattice) -> bool:
    """Whether E = Irr(t) is germ extensible with Ḡ(E) = G_t and the maps
    ν and α mutually inverse between G(E) and G_t."""
    e = t.irr_mask
    res = is_germ_extensible(t, e)
    g = g_t(t)
    if res.g_bar != g:
        return False
    if any(alpha(t, e, x) != m for m, x in zip(res.masks, res.nu_image)):
        return False
    nu_of = dict(zip(res.masks, res.nu_image))
    return all(nu_of.get(alpha(t, e, x)) == x for x in bit_indices(g))


def _base_result(t: Lattice, s_mask: int, bases: dict[int, EmbedResult]) -> EmbedResult:
    """unique_base, reading and filling bases, a table from each base
    mask to its extensibility result."""
    up, down = t.poset.up, t.poset.down
    u_mask = s_mask & ~mask_of(
        r for r, _ in germs_within(up, down, s_mask)
        if t.join_mask(s_mask & down[r] & ~(1 << r)) == r
    )
    res = bases.get(u_mask)
    if res is None:
        res = bases[u_mask] = is_germ_extensible(t, u_mask)
        assert res.extensible, "the base produced by germ removal is not extensible"
    assert s_mask & ~res.g_bar == 0, "S escapes the interval [U, Ḡ(U)]"
    return res


def unique_base(t: Lattice, s_mask: int) -> EmbedResult:
    """The one germ-extensible U with U ⊆ S ⊆ Ḡ(U): drop from S every
    germ of S that equals the join of the S-elements below it. Returns
    is_germ_extensible(t, U), which carries U and Ḡ(U)."""
    check_subset(t.n, s_mask)
    return _base_result(t, s_mask, {})


@dataclass(frozen=True)
class PartitionCell:
    base_mask: int
    top_mask: int
    members: tuple[int, ...]


def verify_partition(t: Lattice) -> list[PartitionCell]:
    """Group every subset of t by its unique base and check each group is
    the full interval [U, Ḡ(U)], sized 2^(|Ḡ(U)|-|U|). Each base is
    closed once, however many subsets share it."""
    n = t.n
    if n > PARTITION_SIZE_CAP:
        raise CapExceeded("partition ground set size", PARTITION_SIZE_CAP)
    bases: dict[int, EmbedResult] = {}
    groups: dict[int, list[int]] = {}
    for s_mask in range(1 << n):
        res = _base_result(t, s_mask, bases)
        groups.setdefault(res.subset, []).append(s_mask)
    cells = []
    for u_mask in sorted_by_size(groups):
        members = groups[u_mask]
        top = bases[u_mask].g_bar
        # members are distinct and inside [U, Ḡ(U)], so the count decides fullness
        assert len(members) == 1 << (top.bit_count() - u_mask.bit_count()), (
            "a cell misses part of its interval"
        )
        cells.append(PartitionCell(u_mask, top, tuple(members)))
    assert sum(len(c.members) for c in cells) == 1 << n
    return cells
