"""Finite lattices and the irreducible-driven operators on them.

A Lattice is a Poset checked to have a join and a meet for every pair
of elements; joins and meets of any set are row lookups on it. The
operators ΛE, r and σ are all phrased through E, the set of join
irreducibles (elements covering exactly one element; the bottom never
qualifies): ΛE keeps the elements that are meets of irreducibles above
them, r(t) joins the irreducibles strictly below t, σ(t) meets the ones
strictly above, and r^∞ / σ^∞ iterate those to their fixpoints. E and
the r and σ tables are built once per lattice, so r^∞ / σ^∞ are walks
along a table.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

from .errors import NotALattice
from .poset import Poset, bit_indices, down_closed_masks, inclusion_poset, mask_of, sorted_by_size


@dataclass(frozen=True)
class Lattice:
    """A bounded poset in which every pair has a join and a meet; build
    one with from_poset, which checks exactly that, unless the order is a
    lattice by construction, as in lower_set_lattice."""

    poset: Poset
    # set when the elements are subsets of a base poset (lower-set lattices)
    element_masks: tuple[int, ...] | None = field(default=None, compare=False)

    @property
    def n(self) -> int:
        return self.poset.n

    # cached_property writes the instance __dict__ directly, so these
    # work on the frozen dataclass
    @cached_property
    def bottom(self) -> int:
        return self.join_mask(0)

    @cached_property
    def top(self) -> int:
        return self.meet_mask(0)

    @cached_property
    def irr_mask(self) -> int:
        """Join irreducibles: the elements covering exactly one element,
        that is, whose strict down-set is some element's down-row."""
        rows = self.poset._by_down_row
        return mask_of(i for i, row in enumerate(self.poset.down) if row & ~(1 << i) in rows)

    @cached_property
    def r_table(self) -> tuple[int, ...]:
        """r(x) for every x: the join of the irreducibles strictly below x.

        One lookup per element. An irreducible x has one lower cover c,
        and the irreducibles below x are those under c, whose join is c.
        Any other x is the bottom, r(x) = x, or the join of two lower
        covers, each the join of the irreducibles below it (Davey &
        Priestley, Introduction to Lattices and Order, 2nd ed., ch. 2),
        so again r(x) = x."""
        rows = self.poset._by_down_row
        return tuple(rows.get(row & ~(1 << x), x) for x, row in enumerate(self.poset.down))

    @cached_property
    def sigma_table(self) -> tuple[int, ...]:
        """σ(x) for every x: the meet of the irreducibles strictly above x.

        One pass down a reverse linear extension. The irreducibles
        strictly above x are those above its upper covers, so σ(x) is the
        meet of τ(c) over the upper covers c of x, where τ(c) is the meet
        of the irreducibles above c: c itself when c is irreducible, and
        σ(c) otherwise. The top has no cover and meets the empty set."""
        p, e = self.poset, self.irr_mask
        sigma, tau = [0] * p.n, list(range(p.n))
        for x in sorted(range(p.n), key=lambda i: p.up[i].bit_count()):
            sigma[x] = p.inf_of(mask_of(tau[c] for c in bit_indices(p.covers_up[x])))
            if not e >> x & 1:
                tau[x] = sigma[x]
        return tuple(sigma)

    def join_mask(self, mask: int) -> int:
        """Join of a set of elements; empty join is the bottom."""
        return self.poset.sup_of(mask)

    def meet_mask(self, mask: int) -> int:
        """Meet of a set of elements; empty meet is the top."""
        return self.poset.inf_of(mask)

    def join(self, i: int, j: int) -> int:
        """Join of elements i and j: the element whose up-row is their
        common upper bounds."""
        up = self.poset.up
        return self.poset._by_up_row[up[i] & up[j]]

    def meet(self, i: int, j: int) -> int:
        """Meet of elements i and j. Dual to join."""
        down = self.poset.down
        return self.poset._by_down_row[down[i] & down[j]]

    @classmethod
    def from_poset(cls, p: Poset) -> "Lattice":
        """Check that every pair of indices i <= j has a join, then a meet,
        or raise NotALattice naming the first pair that fails.

        A finite poset with a top in which every pair has a meet is a
        lattice (Davey & Priestley, ch. 2): the join of i and j is the
        meet of their upper bounds, which the top makes nonempty. So the
        check is one lookup per pair, i and j meeting exactly when
        down[i] & down[j] is some element's down-row. The join-then-meet
        scan runs only to name the first failing pair."""
        if p.n == 0:
            raise NotALattice("an empty poset has no greatest or smallest element")
        down, rows = p.down, p._by_down_row
        if p.full_mask not in rows or not all(
            rows.keys() >= {row & other for other in down[i + 1:]} for i, row in enumerate(down)
        ):
            # i and j have a join exactly when their common upper bounds
            # up[i] & up[j] form some element's up-row; dually for the meet
            up, up_rows = p.up, p._by_up_row
            for i in range(p.n):
                for j in range(i, p.n):
                    if up[i] & up[j] in up_rows and down[i] & down[j] in rows:
                        continue
                    which = "join" if up[i] & up[j] not in up_rows else "meet"
                    a, b = p.labels[i], p.labels[j]
                    raise NotALattice(f"{a} and {b} have no {which}", pair=(a, b), which=which)
        return cls(p)


# lower_set_lattice(antichain(k)) took 0.27-0.39 s at 4,096 lower sets,
# 1.2-1.5 s at 8,192 and 8.4 s at 16,384 (Python 3.11.7, 2 shared cores),
# almost all of it transposing the inclusion order's up rows into down rows.
# The cap is the largest power of two at which three fresh processes each
# built the lattice, and ran closure-vs-lowerset on it, in under 2 s.
DEFAULT_LOWER_SET_CAP = 1 << 13


def lower_set_lattice(u: Poset) -> Lattice:
    """The lattice of all lower sets of u, ordered by inclusion. Raises
    CapExceeded past DEFAULT_LOWER_SET_CAP lower sets.

    No lattice check runs: the lower sets are closed under union and
    intersection, so under inclusion any two have their union as join
    and their intersection as meet (Davey & Priestley, ch. 1-2).

    Elements are sorted by (cardinality, bitmask) and labelled in set
    notation; element_masks records the subset each element stands for.
    """
    masks = sorted_by_size(down_closed_masks(u.down, DEFAULT_LOWER_SET_CAP))
    return Lattice(inclusion_poset(u, masks), element_masks=tuple(masks))


def lambda_e(t: Lattice) -> int:
    """ΛE: elements equal to the meet of the irreducibles above them.
    That meet is x itself for x in E and σ(x) otherwise (sigma_table's τ)."""
    return t.irr_mask | mask_of(x for x, s in enumerate(t.sigma_table) if s == x)


def _fixpoint(table: tuple[int, ...], x: int) -> int:
    """Follow x -> table[x] until it stops moving; r only descends and σ
    only climbs, so the chase ends."""
    while table[x] != x:
        x = table[x]
    return x


def r_inf(t: Lattice, x: int) -> int:
    return _fixpoint(t.r_table, x)


def sigma_inf(t: Lattice, x: int) -> int:
    return _fixpoint(t.sigma_table, x)
