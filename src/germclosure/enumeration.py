"""Exhaustive corpora of small posets and lattices.

Unlabelled posets are grown one size at a time, in the spirit of McKay's
isomorph-free exhaustive generation: every finite poset has a maximal
element, so each class on n elements arises from a representative on
n-1 elements by adding a new maximal element whose down-set is a lower
set of it. iso_classes keeps the first candidate of each isomorphism
class, checked by poset.embeddings, the package's one map search. Every
representative is labelled a, b, c, ... and naturally labelled: i < j in
the order implies i < j as indices.

Lattices on n >= 2 elements are bounded posets, as in Heitzig and
Reinhold: a bottom and a top around a representative on n-2 elements,
kept when the result is a lattice. Two bounded posets are isomorphic
exactly when their interiors are, so these need no deduplication.

Two independent generators produce every labelled poset on n elements:
one extends each poset on n-1 elements by a new element with a chosen
(down-set, up-set) pair, the other filters the 3^C(n,2) antisymmetric
candidate relations for transitivity. They must emit identical sets;
they back the labelled mode and serve the tests as oracles.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, permutations, product
from typing import Iterable, Iterator, Sequence

from .errors import CapExceeded, NotALattice
from .lattice import Lattice
from .poset import Poset, bit_indices, class_candidates, down_closed_masks, embeddings
from .poset import mask_of, refined_invariants

POSET_SIZE_CAP = 7
LATTICE_SIZE_CAP = 8
# 6,129,859 labelled posets on 7 elements would take gigabytes as a list
LABELLED_POSET_SIZE_CAP = 6

_ALPHABET = "abcdefgh"


def _labels(n: int) -> list[str]:
    return list(_ALPHABET[:n])


def labelled_posets_by_extension(n: int) -> Iterator[tuple[int, ...]]:
    """Yield the up-rows of every labelled poset on n elements, built by
    adding one element at a time."""
    level: list[tuple[tuple[int, ...], tuple[int, ...]]] = [((), ())]
    for k in range(n):
        nxt = []
        for down, up in level:
            full = (1 << k) - 1
            lowers = down_closed_masks(down)
            uppers = [full ^ m for m in lowers]
            for d_mask in lowers:
                allowed = full & ~d_mask
                for i in bit_indices(d_mask):
                    allowed &= up[i]
                for e_mask in uppers:
                    if e_mask & ~allowed:
                        continue
                    new_down = tuple(
                        down[j] | (1 << k if e_mask >> j & 1 else 0)
                        for j in range(k)
                    ) + (d_mask | 1 << k,)
                    new_up = tuple(
                        up[j] | (1 << k if d_mask >> j & 1 else 0)
                        for j in range(k)
                    ) + (e_mask | 1 << k,)
                    nxt.append((new_down, new_up))
        level = nxt
    for _, up in level:
        yield up


def labelled_posets_by_filtering(n: int) -> Iterator[tuple[int, ...]]:
    """Yield the same up-rows by deciding each unordered pair (below,
    above, or incomparable) and filtering for transitivity."""
    pairs = list(combinations(range(n), 2))
    for choice in product((0, 1, 2), repeat=len(pairs)):
        up = [1 << i for i in range(n)]
        for (i, j), c in zip(pairs, choice):
            if c == 1:
                up[i] |= 1 << j
            elif c == 2:
                up[j] |= 1 << i
        ok = True
        for i in range(n):
            row = up[i]
            for j in bit_indices(row):
                if up[j] & ~row:
                    ok = False
                    break
            if not ok:
                break
        if ok:
            yield tuple(up)


def canonical_key(up: Sequence[int]) -> tuple[int, ...]:
    """The least up-row tuple over all n! relabelings: identical for
    isomorphic posets, distinct otherwise. The brute-force definition
    that iso_classes is tested against; nothing in the package calls it."""

    def relabeled(perm: tuple[int, ...]) -> tuple[int, ...]:
        rows = [0] * len(up)
        for i, row in enumerate(up):
            rows[perm[i]] = mask_of(perm[j] for j in bit_indices(row))
        return tuple(rows)

    return min(map(relabeled, permutations(range(len(up)))))


def iso_classes(posets: Iterable[Poset]) -> list[Poset]:
    """The first poset of each isomorphism class, in input order.

    Posets are grouped by their sorted refined invariants, which
    isomorphic posets share; one is kept unless embeddings finds an
    isomorphism onto a poset already kept in its group.
    """
    kept: list[Poset] = []
    groups: dict[tuple, list[tuple[Poset, list]]] = {}
    for p in posets:
        inv = refined_invariants(p.up, p.down)
        group = groups.setdefault(tuple(sorted(inv)), [])
        if not any(
            embeddings(p, q, class_candidates(inv, qinv), limit=1) for q, qinv in group
        ):
            group.append((p, inv))
            kept.append(p)
    return kept


def _extend_by_maximal(level: list[Poset]) -> list[Poset]:
    """The unlabelled posets on k+1 elements, from those on k elements:
    each gains a new maximal element k above one of its lower sets."""
    candidates = []
    for p in level:
        bit = 1 << p.n
        for d_mask in down_closed_masks(p.down):
            up = tuple(row | bit if d_mask >> j & 1 else row for j, row in enumerate(p.up))
            candidates.append(Poset(_labels(p.n + 1), up + (bit,)))
    return iso_classes(candidates)


def _poset_levels(max_n: int) -> Iterator[list[Poset]]:
    """The unlabelled posets on 0, 1, ..., max_n elements, one list per
    size, each built once from the one before."""
    level = [Poset([], ())]
    for n in range(max_n + 1):
        if n:
            level = _extend_by_maximal(level)
        yield level


def _check_poset_size(n: int, up_to_iso: bool) -> None:
    if n > POSET_SIZE_CAP:
        raise CapExceeded("poset enumeration size", POSET_SIZE_CAP)
    if not up_to_iso and n > LABELLED_POSET_SIZE_CAP:
        raise CapExceeded("labelled poset enumeration size", LABELLED_POSET_SIZE_CAP)


def enumerate_posets(n: int, up_to_iso: bool = True) -> list[Poset]:
    """Every poset on n elements, labelled a, b, c, ... One representative
    per isomorphism class unless up_to_iso is off; every labelling only up
    to LABELLED_POSET_SIZE_CAP elements."""
    _check_poset_size(n, up_to_iso)
    if not up_to_iso:
        return [Poset(_labels(n), up) for up in labelled_posets_by_extension(n)]
    levels = list(_poset_levels(n))
    return levels[-1] if levels else []


def _bounded_lattices(level: list[Poset]) -> list[Lattice]:
    """The lattices on k+2 elements: a bottom (element 0) and a top
    (element k+1) around each poset on k elements, where that gives a
    lattice."""
    out = []
    for u in level:
        n = u.n + 2
        top = 1 << (n - 1)
        rows = ((1 << n) - 1,) + tuple(row << 1 | top for row in u.up) + (top,)
        try:
            out.append(Lattice.from_poset(Poset(_labels(n), rows)))
        except NotALattice:
            pass
    return out


def _lattice_levels(max_n: int) -> Iterator[list[Lattice]]:
    """The lattices on 0, 1, ..., max_n elements, one list per size: none
    on 0 elements, the point on 1, bounded posets above."""
    if max_n >= 0:
        yield []
    if max_n >= 1:
        yield [Lattice.from_poset(Poset(_labels(1), (1,)))]
    for level in _poset_levels(max_n - 2):
        yield _bounded_lattices(level)


def enumerate_lattices(n: int) -> list[Lattice]:
    """Every lattice on n elements up to isomorphism."""
    if n > LATTICE_SIZE_CAP:
        raise CapExceeded("lattice enumeration size", LATTICE_SIZE_CAP)
    levels = list(_lattice_levels(n))
    return levels[-1] if levels else []


@dataclass(frozen=True)
class CorpusSpec:
    max_size: int
    kind: str = "posets"
    up_to_iso: bool = True

    def __post_init__(self):
        if self.kind not in ("posets", "lattices"):
            raise ValueError(f"unknown corpus kind {self.kind!r}")
        if self.kind == "lattices" and not self.up_to_iso:
            raise ValueError("lattice corpora exist only up to isomorphism")
        if self.max_size < 0:
            raise ValueError(f"corpus size must be nonnegative, got {self.max_size}")
        if self.kind == "posets":
            _check_poset_size(self.max_size, self.up_to_iso)
        elif self.max_size > LATTICE_SIZE_CAP:
            raise CapExceeded("lattice enumeration size", LATTICE_SIZE_CAP)


def corpus(spec: CorpusSpec) -> list:
    """All instances of the requested kind, sizes 0 through max_size."""
    if spec.kind == "lattices":
        return [t for level in _lattice_levels(spec.max_size) for t in level]
    if not spec.up_to_iso:
        return [
            p for n in range(spec.max_size + 1) for p in enumerate_posets(n, False)
        ]
    return [p for level in _poset_levels(spec.max_size) for p in level]
