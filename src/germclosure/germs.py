"""Germ detection and germ extensions.

An element u of a poset is a germ when some v >= u satisfies three
conditions: u is the sup of everything strictly below it and v the inf of
everything strictly above it; the cone above u splits as [u,v] plus the
strict cone above v, and dually the cone below v splits as the strict cone
below u plus [u,v]; and [u,v] is totally ordered. The v is then unique
(the cogerm) and [u,v] is the connecting chain.

The germ finder, germs_within, walks bridge covers instead of trying
every v >= u. In a finite poset d is the only upper cover of c exactly
when ]c,*[ = [d,*[, and dually for lower covers. Call c < d a bridge
when d is the only upper cover of c and c the only lower cover of d.
Then the two cone splits plus "[u,v] is a chain" hold exactly when
u = c0 < c1 < ... < ck = v is a path of bridges:

- If [u,v] is a chain c0 < ... < ck and the cones split, take x > c_i
  with i < k. Either x lies in [u,v], so x >= c_{i+1}, or x > v. So
  ]c_i,*[ = [c_{i+1},*[, and c_{i+1} is c_i's only upper cover. Dually,
  c_i is c_{i+1}'s only lower cover.
- Conversely, along a bridge path ]c_i,*[ = [c_{i+1},*[ and
  ]*,c_{i+1}[ = ]*,c_i]. Chaining these gives [u,*[ = {c0..ck} + ]v,*[
  and ]*,v] = ]*,u[ + {c0..ck}, so [u,v] = {c0..ck}, a chain.

An element v with exactly one upper cover d has ]v,*[ = [d,*[, whose
inf is d, not v. So a cogerm never has exactly one upper cover, and the
only candidate for v is the element where the bridge walk from u stops.
Dually, an element with exactly one lower cover is never a germ. On a
subposet all of this holds for the rows restricted to its mask. The
one-lower-cover test is a dictionary lookup of such a row. Each climb
step intersects the down-rows of ]v,*[: an element of ]v,*[ under all of
it is its least, v's one upper cover, and when there is none, that
intersection tests whether v is the inf of ]v,*[.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

from .poset import (
    Poset, bit_indices, check_subset, intersect_rows, lower_bounds_in, mask_of, upper_bounds_in,
)


@dataclass(frozen=True)
class GermRecord:
    """A germ, its cogerm and the chain between them, bottom first, as
    indices into the poset grm read them from."""

    germ: int
    cogerm: int
    chain: tuple[int, ...]


def cogerms_within(up: Sequence[int], down: Sequence[int], mask: int, u: int) -> list[int]:
    """All v making u a germ of the subposet on mask, whose order is the
    ambient rows up/down restricted to mask; indices stay ambient. The
    defining conditions force at most one v. This scan over every v is
    the definition, the reference that germs_within's walk is checked
    against; the cogerm-uniqueness predicate and the tests read it."""
    up_u = up[u] & mask
    below = down[u] & mask & ~(1 << u)
    # u = sup ]*,u[ iff the bounds match u's row
    if intersect_rows(up, below, mask) != up_u:
        return []
    out = []
    for v in bit_indices(up_u):
        down_v = down[v] & mask
        above = up[v] & mask & ~(1 << v)
        seg = up_u & down_v
        # the two cone splits need no loop, so they rule out most v first
        if up_u != seg | above or down_v != below | seg:
            continue
        if intersect_rows(down, above, mask) != down_v:
            continue
        if any(seg & ~(up[i] | down[i]) for i in bit_indices(seg)):
            continue
        out.append(v)
    return out


def germs_within(up: Sequence[int], down: Sequence[int], mask: int) -> list[tuple[int, int]]:
    """(germ, cogerm) for every germ of the subposet on mask, ascending
    by germ, in ambient indices. No subposet is built. Raises ValueError
    for a mask with bits outside the rows.

    The cogerm is found by the bridge walk of the module docstring; the
    scan over every v, kept as cogerms_within, is the reference. The sup
    and inf tests fold rows over the maximal elements of ]*,u[ and the
    minimal ones of ]v,*[ only, which have the same bounds (see
    poset.upper_bounds_in)."""
    check_subset(len(up), mask)
    # masked down-rows are distinct, so each names its element
    by_down = {down[i] & mask: i for i in bit_indices(mask)}
    out = []
    for u in bit_indices(mask):
        below = down[u] & mask & ~(1 << u)
        # one lower cover c makes ]*,u[ = ]*,c], whose sup is c
        if below in by_down:
            continue
        up_u = up[u] & mask
        if upper_bounds_in(up, down, below, mask) != up_u:
            continue
        # climb while the least element d of ]v,*[, v's one upper cover,
        # has v as its one lower cover
        v, above = u, up_u & ~(1 << u)
        while d_bit := (lower := lower_bounds_in(up, down, above, mask)) & above:
            d = d_bit.bit_length() - 1
            if down[d] & mask & ~d_bit != down[v] & mask:
                # v has one upper cover d, so inf ]v,*[ is d
                break
            v, above = d, up[d] & mask & ~d_bit
        else:
            if lower == down[v] & mask:
                out.append((u, v))
    return out


def _record(p: Poset, u: int, v: int) -> GermRecord:
    seg = sorted(bit_indices(p.up[u] & p.down[v]), key=lambda i: p.down[i].bit_count())
    return GermRecord(u, v, tuple(seg))


# grm keeps the posets it has seen alive; the bound caps that memory
GRM_CACHE_SIZE = 4096


@lru_cache(maxsize=GRM_CACHE_SIZE)
def grm(p: Poset) -> tuple[GermRecord, ...]:
    """All germs of p with their cogerms and connecting chains."""
    return tuple(_record(p, u, v) for u, v in germs_within(p.up, p.down, p.full_mask))


def grm_mask(p: Poset) -> int:
    return mask_of(r.germ for r in grm(p))


def detects(p: Poset, u_mask: int) -> bool:
    """Whether comparisons in the ambient poset p are decided by the
    shadows of U = u_mask: s <= t iff U_{<=s} is a subset of U_{<=t}.
    The t whose shadow contains U_{<=s} are the upper bounds of U_{<=s},
    so this is one row comparison per s."""
    check_subset(p.n, u_mask)
    return all(p.upper_bounds(u_mask & down) == up for down, up in zip(p.down, p.up))


def is_germ_extension(p: Poset, u_mask: int) -> bool:
    """Whether every element of the ambient poset p outside U = u_mask
    is a germ of p."""
    check_subset(p.n, u_mask)
    return p.full_mask & ~u_mask & ~grm_mask(p) == 0


def lambda_witness(p: Poset, u_mask: int, s: int) -> int | None:
    """Largest B within U with U_{<=B} == U_{<=s}, or None if no B works."""
    check_subset(p.n, u_mask)
    shadow = u_mask & p.down[s]
    b = u_mask & p.upper_bounds(shadow)
    return b if u_mask & p.lower_bounds(b) == shadow else None


def germ_cut_witness(p: Poset, u_mask: int, s: int) -> int | None:
    """A germ r of the subposet U whose strict cut ]*,r[ equals U_{<=s},
    or None. Indices are ambient."""
    shadow = u_mask & p.down[s]
    for r, _ in germs_within(p.up, p.down, u_mask):
        if u_mask & p.strict_down(r) == shadow:
            return r
    return None
