"""Germ-extensible subsets of a lattice and the powerset partition.

For U inside a lattice T, the closure G(U) maps into T by joining:
ν(s) = ∨_T s, with ν(∅) the bottom. ν is injective exactly when every
germ r of U lies strictly above the join of the U-elements below it; U
is then called germ extensible and Ḡ(U) denotes the image. The
irreducibles E of T are always germ extensible with Ḡ(E) = G_T, and
every subset S of T sits in a unique interval [U, Ḡ(U)] with U germ
extensible, which partitions the whole powerset of T.

unique_base finds the U of one S by germ removal. verify_partition
finds it for all 2^n subsets at once: a family of subsets is one 2^n-bit
integer with bit S set for each member S, and drop_sets builds, for
every element r, the family of subsets that germ removal drops r from.
The cells are then split out of those patterns, and only their bases
are closed.
"""

from __future__ import annotations

from dataclasses import dataclass

from .closure import closure_masks
from .errors import CapExceeded, InvariantViolation
from .lattice import Lattice, lambda_e, r_inf, sigma_inf
from .poset import bit_indices, mask_of, sorted_by_size, transpose

# verify_partition keeps 2^n-bit patterns, one bit per subset of the lattice
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
    closure member whose germ_of is r, is r itself."""
    masks, germ_of = closure_masks(t.poset.up, t.poset.down, u_mask)
    nu_image = tuple(map(t.join_mask, masks))
    violating = tuple(sorted(r for r, x in zip(germ_of, nu_image) if r == x))
    extensible = not violating
    g_bar = None
    if extensible:
        if len(set(nu_image)) != len(masks):
            raise InvariantViolation("the join criterion holds but ν identifies two members")
        g_bar = mask_of(nu_image)
    return EmbedResult(u_mask, extensible, masks, nu_image, g_bar, violating)


def g_sharp(t: Lattice) -> int:
    """Elements recovered by climbing to σ^∞ and descending back to r^∞."""
    return mask_of(
        x for x in range(t.n) if r_inf(t, sigma_inf(t, x)) == x
    )


def g_t(t: Lattice) -> int:
    """G_T = ΛE together with Ĝ_T = G♯ - ΛE, that is ΛE ∪ G♯."""
    return lambda_e(t) | g_sharp(t)


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


def unique_base(t: Lattice, s_mask: int) -> EmbedResult:
    """The one germ-extensible U with U ⊆ S ⊆ Ḡ(U): drop from S every
    germ of S that equals the join of the S-elements below it, that is,
    every violating germ of S. Returns is_germ_extensible(t, U), which
    carries U and Ḡ(U); when S has no violating germs, U = S and S's own
    result is returned without closing S again."""
    res = is_germ_extensible(t, s_mask)
    if res.violating_germs:
        res = is_germ_extensible(t, s_mask & ~mask_of(res.violating_germs))
    if not res.extensible:
        raise InvariantViolation("the base produced by germ removal is not extensible")
    if s_mask & ~res.g_bar:
        raise InvariantViolation("S escapes the interval [U, Ḡ(U)]")
    return res


def subset_bits(n: int) -> list[int]:
    """has[x] for every x < n: the 2^n-bit pattern whose bit S is set
    exactly when the subset S of range(n) contains x. Its bits run in
    blocks of 2^x clear then 2^x set, so it is one such block repeated."""
    every = (1 << (1 << n)) - 1
    return [
        every // ((1 << (2 << x)) - 1) * (((1 << (1 << x)) - 1) << (1 << x))
        for x in range(n)
    ]


def drop_sets(t: Lattice) -> list[int]:
    """drop[r] for every element r of t: the 2^n-bit pattern whose bit S
    is set exactly when germ removal drops r from S, that is, when r is
    a germ of S with r = ∨_T (S ∩ ]*,r[). Patterns of subsets combine by
    AND and OR, so each step below acts on all 2^n subsets at once.
    has[x] holds the subsets containing x, and missing(M) those that
    miss the mask M.

    (J) ∨_T (S ∩ ]*,r[) = r. That join is at most r, and in a finite
    lattice a join strictly below r lies under some lower cover c of r.
    So (J) holds iff S ∩ ]*,r[ ⊄ ↓c for every lower cover c, that is,
    iff S meets ]*,r[ - ↓c for each c. (J) makes r the sup in S of
    S ∩ ]*,r[, the first test of germs_within, and the one-lower-cover
    shortcut there is a case of it. So r is dropped iff r ∈ S, (J), and
    some v ≥ r passes, inside S, the rest of the germ definition:

    - v ∈ S;
    - the cone splits: S misses ↑r - ↓v - ↑v and ↓v - ↑r - ↓r;
    - v = inf in S of S ∩ ]v,*[: every common lower bound of
      S ∩ ]v,*[ in S lies in ↓v, so for no w ∈ S - ↓v does S miss
      ]v,*[ - ↑w;
    - [r,v] ∩ S is a chain.

    The chain test is left out, because some v passes all four tests
    whenever some v passes the first three. Walk the bridges of S (see
    germs.py) up from r = c0 < c1 < ... . The walk stays under v: for a
    step c < v, v ∈ ]c,*[ ∩ S lies above c's only upper cover. If it
    reaches v, [r,v] ∩ S is the chain it walked. Otherwise it stops at
    some c < v:

    - If c had exactly one upper cover d in S, then d ≤ v. By the lower
      split any other lower cover y of d in S lies in ↓r or in
      ↑r ∩ S = {c0..c} + [d,*[, so y < c or y ≥ d, neither a lower cover
      of d. Then c is d's only lower cover, and the walk would go on.
    - So c has two upper covers in S, and c itself passes all four
      tests. The bridge path gives the splits and the chain. If some
      w ∈ S - ↓c lay under all of ]c,*[ ∩ S, then w ≤ v, so w ∈ ↑r by
      the lower split, so w ∈ ]c,*[ and w would be c's only upper cover.
    """
    p = t.poset
    n, up, down = p.n, p.up, p.down
    has = subset_bits(n)
    every = (1 << (1 << n)) - 1
    memo = {0: every}

    def missing(m: int) -> int:
        out = memo.get(m)
        if out is None:
            out = every
            for x in bit_indices(m):
                out &= ~has[x]
            memo[m] = out
        return out

    lower_covers = transpose(p.covers_up, n)
    drop = []
    for r in range(n):
        below = down[r] & ~(1 << r)
        joined = has[r]
        for c in bit_indices(lower_covers[r]):
            joined &= ~missing(below & ~down[c])
        dropped = 0
        for v in bit_indices(up[r]):
            g = joined & has[v] & missing(up[r] & ~down[v] & ~up[v])
            g &= missing(down[v] & ~up[r] & ~down[r])
            above = up[v] & ~(1 << v)
            for w in bit_indices(p.full_mask & ~down[v]):
                if not g:
                    break
                g &= ~(has[w] & missing(above & ~up[w]))
            dropped |= g
        drop.append(dropped)
    return drop


def verify_partition(t: Lattice) -> list[tuple[int, int]]:
    """Group every subset of t by its unique base and check each group is
    the full interval [U, Ḡ(U)]; returns the cells as (U, Ḡ(U)) mask
    pairs, bases by size. The 2^n subsets are handled as bit patterns:
    the group of U holds the S that keep exactly U after germ removal,
    found by splitting the patterns on keep[e] = has[e] - drop[e] one
    element at a time. Each base is closed once."""
    n = t.n
    if n > PARTITION_SIZE_CAP:
        raise CapExceeded("partition ground set size", PARTITION_SIZE_CAP)
    groups = {0: (1 << (1 << n)) - 1}
    for e, (has_e, drop_e) in enumerate(zip(subset_bits(n), drop_sets(t))):
        keep_e = has_e & ~drop_e
        split = {}
        for u_mask, group in groups.items():
            if kept := group & keep_e:
                split[u_mask | 1 << e] = kept
            if lost := group & ~keep_e:
                split[u_mask] = lost
        groups = split
    cells = []
    for u_mask in sorted_by_size(groups):
        res = is_germ_extensible(t, u_mask)
        if not res.extensible:
            raise InvariantViolation("the base produced by germ removal is not extensible")
        free = res.g_bar & ~u_mask
        # [U, Ḡ(U)] as a pattern: bit U | sub for each submask sub of free
        interval = 1
        for e in bit_indices(free):
            interval |= interval << (1 << e)
        interval <<= u_mask
        group = groups[u_mask]
        if group & ~interval:
            raise InvariantViolation("S escapes the interval [U, Ḡ(U)]")
        if interval & ~group:
            raise InvariantViolation("a cell misses part of its interval")
        cells.append((u_mask, res.g_bar))
    # the split puts each subset in exactly one group, so the cells cover all 2^n
    return cells
