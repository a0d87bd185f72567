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
from typing import Sequence

from .closure import GermClosure, germ_closure
from .errors import CapExceeded
from .germs import GermCutCase, grm
from .lattice import Lattice, lambda_e, r_inf, sigma_inf
from .poset import bit_indices, check_subset, mask_of, sorted_by_size

# verify_partition walks all 2^n subsets of the lattice
PARTITION_SIZE_CAP = 12


@dataclass(frozen=True)
class EmbedResult:
    """Germ extensibility of U = subset inside a lattice; g_bar is the
    mask of Ḡ(U) when U is extensible and None otherwise."""

    subset: int
    extensible: bool
    closure: GermClosure
    nu_image: tuple[int, ...]
    g_bar: int | None
    violating_germs: tuple[int, ...]


def nu(t: Lattice, u_indices: Sequence[int], s_mask: int) -> int:
    """Join in t of a closure element (a mask over positions of
    u_indices). The empty set joins to the bottom."""
    return t.join_mask(mask_of(u_indices[k] for k in bit_indices(s_mask)))


def is_germ_extensible(t: Lattice, u_mask: int) -> EmbedResult:
    """Decide ν-injectivity for U = u_mask inside t via the germ-join
    criterion, carrying the closure, the ν image and any violating germs
    along. A germ r of U violates it when ν of its strict cut, the
    closure's GermCutCase element for r, is r itself."""
    check_subset(t.poset, u_mask)
    keep = t.poset.sub_indices(u_mask)
    closure = germ_closure(t.poset.full_subposet(u_mask))
    nu_image = tuple(nu(t, keep, m) for m in closure.masks)
    violating = tuple(sorted(
        keep[case.germ]
        for case, x in zip(closure.cases, nu_image)
        if isinstance(case, GermCutCase) and x == keep[case.germ]
    ))
    extensible = not violating
    g_bar = None
    if extensible:
        assert len(set(nu_image)) == closure.n, (
            "the join criterion holds but ν identifies two closure elements"
        )
        g_bar = mask_of(nu_image)
    return EmbedResult(u_mask, extensible, closure, nu_image, g_bar, violating)


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
    hat = ghat_t(t)
    assert lam & hat == 0
    return lam | hat


def alpha(t: Lattice, u_indices: Sequence[int], x: int) -> int:
    """The irreducibles-below map: positions of u_indices under x."""
    return mask_of(
        k for k, e in enumerate(u_indices) if t.poset.leq(e, x)
    )


def irr_closure_equals_g_t(t: Lattice) -> bool:
    """Whether E = Irr(t) is germ extensible with Ḡ(E) = G_t and the maps
    ν and α mutually inverse between G(E) and G_t."""
    keep = t.poset.sub_indices(t.irr_mask)
    res = is_germ_extensible(t, t.irr_mask)
    if res.g_bar != g_t(t):
        return False
    for i, m in enumerate(res.closure.masks):
        if alpha(t, keep, res.nu_image[i]) != m:
            return False
    by_mask = {m: i for i, m in enumerate(res.closure.masks)}
    for x in bit_indices(g_t(t)):
        back = by_mask.get(alpha(t, keep, x))
        if back is None or res.nu_image[back] != x:
            return False
    return True


def unique_base(t: Lattice, s_mask: int) -> EmbedResult:
    """The one germ-extensible U with U ⊆ S ⊆ Ḡ(U): drop from S every
    germ of S that equals the join of the S-elements below it. Returns
    is_germ_extensible(t, U), which carries U and Ḡ(U)."""
    check_subset(t.poset, s_mask)
    sub = t.poset.full_subposet(s_mask)
    keep = t.poset.sub_indices(s_mask)
    drop = mask_of(
        keep[rec.germ]
        for rec in grm(sub)
        if t.join_mask(s_mask & t.poset.strict_down(keep[rec.germ]))
        == keep[rec.germ]
    )
    res = is_germ_extensible(t, s_mask & ~drop)
    assert res.extensible, "the base produced by germ removal is not extensible"
    assert s_mask & ~res.g_bar == 0, "S escapes the interval [U, Ḡ(U)]"
    return res


@dataclass(frozen=True)
class PartitionCell:
    base_mask: int
    top_mask: int
    members: tuple[int, ...]


def verify_partition(t: Lattice) -> list[PartitionCell]:
    """Group every subset of t by its unique base and check each group is
    the full interval [U, Ḡ(U)], sized 2^(|Ḡ(U)|-|U|)."""
    n = t.n
    if n > PARTITION_SIZE_CAP:
        raise CapExceeded("partition ground set size", PARTITION_SIZE_CAP)
    groups: dict[int, list[int]] = {}
    tops: dict[int, int] = {}
    for s_mask in range(1 << n):
        res = unique_base(t, s_mask)
        groups.setdefault(res.subset, []).append(s_mask)
        tops[res.subset] = res.g_bar
    cells = []
    for u_mask in sorted_by_size(groups):
        members = groups[u_mask]
        top = tops[u_mask]
        for m in members:
            assert u_mask & ~m == 0 and m & ~top == 0, (
                "a subset strays outside its cell interval"
            )
        assert len(members) == 1 << (top.bit_count() - u_mask.bit_count()), (
            "a cell misses part of its interval"
        )
        cells.append(PartitionCell(u_mask, top, tuple(members)))
    assert sum(len(c.members) for c in cells) == 1 << n
    return cells
