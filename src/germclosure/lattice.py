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
from .poset import Poset, down_closed_masks, inclusion_poset, mask_of, sorted_by_size


@dataclass(frozen=True)
class Lattice:
    """A bounded poset in which every pair has a join and a meet; build
    one with from_poset, which checks exactly that."""

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
        """r(x) for every x: the join of the irreducibles strictly below x."""
        e, p = self.irr_mask, self.poset
        return tuple(p.sup_of(e & row & ~(1 << x)) for x, row in enumerate(p.down))

    @cached_property
    def sigma_table(self) -> tuple[int, ...]:
        """σ(x) for every x: the meet of the irreducibles strictly above x."""
        e, p = self.irr_mask, self.poset
        return tuple(p.inf_of(e & row & ~(1 << x)) for x, row in enumerate(p.up))

    def join_mask(self, mask: int) -> int:
        """Join of a set of elements; empty join is the bottom."""
        return self.poset.sup_of(mask)

    def meet_mask(self, mask: int) -> int:
        """Meet of a set of elements; empty meet is the top."""
        return self.poset.inf_of(mask)

    def join(self, i: int, j: int) -> int:
        """Join of elements i and j."""
        return self.poset.sup_of(1 << i | 1 << j)

    def meet(self, i: int, j: int) -> int:
        """Meet of elements i and j."""
        return self.poset.inf_of(1 << i | 1 << j)

    @classmethod
    def from_poset(cls, p: Poset) -> "Lattice":
        """Check that every pair of indices i <= j has a join, then a meet,
        or raise NotALattice naming the first pair that fails."""
        if p.n == 0:
            raise NotALattice("an empty poset has no greatest or smallest element")
        # i and j have a join exactly when their common upper bounds
        # up[i] & up[j] form some element's up-row; dually for the meet
        up, down, up_rows, down_rows = p.up, p.down, p._by_up_row, p._by_down_row
        for i in range(p.n):
            for j in range(i, p.n):
                if up[i] & up[j] in up_rows and down[i] & down[j] in down_rows:
                    continue
                which = "join" if up[i] & up[j] not in up_rows else "meet"
                a, b = p.labels[i], p.labels[j]
                raise NotALattice(f"{a} and {b} have no {which}", pair=(a, b), which=which)
        return cls(p)


DEFAULT_LOWER_SET_CAP = 1 << 20


def lower_set_lattice(u: Poset, cap: int = DEFAULT_LOWER_SET_CAP) -> Lattice:
    """The lattice of all lower sets of u, ordered by inclusion.

    Elements are sorted by (cardinality, bitmask) and labelled in set
    notation; element_masks records the subset each element stands for.
    """
    masks = sorted_by_size(down_closed_masks(u.down, cap))
    poset = Lattice.from_poset(inclusion_poset(u, masks)).poset
    return Lattice(poset, element_masks=tuple(masks))


def join_irreducibles(t: Lattice) -> Poset:
    """The induced poset on the join irreducibles of t."""
    return t.poset.full_subposet(t.irr_mask)


def lambda_e(t: Lattice) -> int:
    """ΛE: elements equal to the meet of the irreducibles above them."""
    e = t.irr_mask
    return mask_of(
        i for i in range(t.n) if t.meet_mask(e & t.poset.up[i]) == i
    )


def r_op(t: Lattice, x: int) -> int:
    """Join of the irreducibles strictly below x."""
    return t.r_table[x]


def sigma_op(t: Lattice, x: int) -> int:
    """Meet of the irreducibles strictly above x."""
    return t.sigma_table[x]


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
