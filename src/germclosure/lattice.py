"""Finite lattices and the irreducible-driven operators on them.

A Lattice wraps a Poset with tabulated binary joins and meets. The
operators ΛE, r and σ are all phrased through E, the set of join
irreducibles (elements covering exactly one element; the bottom never
qualifies): ΛE keeps the elements that are meets of irreducibles above
them, r(t) joins the irreducibles strictly below t, σ(t) meets the ones
strictly above, and r^∞ / σ^∞ iterate those to their fixpoints.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

from .errors import NotALattice
from .poset import Poset, down_closed_masks, inclusion_poset, mask_of, sorted_by_size


@dataclass(frozen=True)
class Lattice:
    poset: Poset
    join: tuple[tuple[int, ...], ...]
    meet: tuple[tuple[int, ...], ...]
    # set when the elements are subsets of a base poset (lower-set lattices)
    base: Poset | None = field(default=None, compare=False)
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
        """Join irreducibles: the elements covering exactly one element."""
        cd = self.poset.covers_down
        return mask_of(i for i in range(self.n) if cd[i].bit_count() == 1)

    def join_mask(self, mask: int) -> int:
        """Join of a set of elements; empty join is the bottom."""
        return self.poset.sup_of(mask)

    def meet_mask(self, mask: int) -> int:
        """Meet of a set of elements; empty meet is the top."""
        return self.poset.inf_of(mask)

    @classmethod
    def from_poset(cls, p: Poset) -> "Lattice":
        """Tabulate all binary joins and meets, or raise NotALattice naming
        the first offending pair."""
        n = p.n
        if n == 0:
            raise NotALattice("an empty poset has no greatest or smallest element")
        join = [[0] * n for _ in range(n)]
        meet = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                pair = 1 << i | 1 << j
                s = p.sup_of(pair)
                if s is None:
                    raise NotALattice(
                        f"{p.labels[i]} and {p.labels[j]} have no join",
                        pair=(p.labels[i], p.labels[j]),
                        which="join",
                    )
                m = p.inf_of(pair)
                if m is None:
                    raise NotALattice(
                        f"{p.labels[i]} and {p.labels[j]} have no meet",
                        pair=(p.labels[i], p.labels[j]),
                        which="meet",
                    )
                join[i][j] = join[j][i] = s
                meet[i][j] = meet[j][i] = m
        return cls(p, tuple(map(tuple, join)), tuple(map(tuple, meet)))


DEFAULT_LOWER_SET_CAP = 1 << 20


def lower_set_lattice(u: Poset, cap: int = DEFAULT_LOWER_SET_CAP) -> Lattice:
    """The lattice of all lower sets of u, ordered by inclusion.

    Elements are sorted by (cardinality, bitmask) and labelled in set
    notation; element_masks records the subset each element stands for.
    """
    masks = sorted_by_size(down_closed_masks(u.down, cap))
    got = Lattice.from_poset(inclusion_poset(u, masks))
    return Lattice(got.poset, got.join, got.meet, base=u, element_masks=tuple(masks))


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
    return t.join_mask(t.irr_mask & t.poset.strict_down(x))


def sigma_op(t: Lattice, x: int) -> int:
    """Meet of the irreducibles strictly above x."""
    return t.meet_mask(t.irr_mask & t.poset.strict_up(x))


def _iterate(step, x: int) -> int:
    while True:
        nxt = step(x)
        if nxt == x:
            return x
        x = nxt


def r_inf(t: Lattice, x: int) -> int:
    return _iterate(lambda y: r_op(t, y), x)


def sigma_inf(t: Lattice, x: int) -> int:
    return _iterate(lambda y: sigma_op(t, y), x)
