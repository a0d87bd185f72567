"""Exhaustive corpora of small posets and lattices.

Every corpus is one level walk: _levels yields the instances on 0, 1,
..., max_size elements, one list per size, each level built from the one
before. corpus flattens the walk; enumerate_posets and enumerate_lattices
keep its last level. CorpusSpec checks the kind and the size caps before
anything is built.

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

The labelled mode lists every labelled poset on n elements by extending
each labelled poset on n-1 elements by a new element with a chosen
(down-set, up-set) pair: a lower set and an upper set with every element
of the one below every element of the other. Only up rows are kept; the
lower sets come from poset.down_closed_masks on the transposed rows.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations
from typing import Iterable, Iterator, Sequence

from .errors import CapExceeded, NotALattice
from .lattice import Lattice
from .poset import Poset, bit_indices, class_candidates, down_closed_masks, embeddings
from .poset import intersect_rows, mask_of, refined_invariants, transpose

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
    level: list[tuple[int, ...]] = [()]
    for k in range(n):
        full, bit = (1 << k) - 1, 1 << k
        nxt = []
        for up in level:
            lowers = down_closed_masks(transpose(up, k))
            uppers = [full ^ m for m in lowers]
            for d_mask in lowers:
                # what lies above the new element lies above all of d_mask, outside it
                allowed = intersect_rows(up, d_mask, full & ~d_mask)
                grown = tuple(row | bit if d_mask >> j & 1 else row for j, row in enumerate(up))
                nxt += [grown + (e_mask | bit,) for e_mask in uppers if not e_mask & ~allowed]
        level = nxt
    yield from level


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
        if self.kind == "lattices":
            if self.max_size > LATTICE_SIZE_CAP:
                raise CapExceeded("lattice enumeration size", LATTICE_SIZE_CAP)
        elif self.max_size > POSET_SIZE_CAP:
            raise CapExceeded("poset enumeration size", POSET_SIZE_CAP)
        elif not self.up_to_iso and self.max_size > LABELLED_POSET_SIZE_CAP:
            raise CapExceeded("labelled poset enumeration size", LABELLED_POSET_SIZE_CAP)


def _levels(spec: CorpusSpec) -> Iterator[list]:
    """The instances of spec's kind on 0, 1, ..., spec.max_size elements,
    one list per size. Lattices: none on 0 elements, the point on 1,
    bounded posets above. Labelled posets: each size generated afresh."""
    if spec.kind == "lattices":
        yield []
        if spec.max_size >= 1:
            yield [Lattice.from_poset(Poset(_labels(1), (1,)))]
        if spec.max_size >= 2:
            yield from map(_bounded_lattices, _levels(CorpusSpec(spec.max_size - 2)))
    elif not spec.up_to_iso:
        for n in range(spec.max_size + 1):
            yield [Poset(_labels(n), up) for up in labelled_posets_by_extension(n)]
    else:
        level = [Poset([], ())]
        yield level
        for _ in range(spec.max_size):
            level = _extend_by_maximal(level)
            yield level


def corpus(spec: CorpusSpec) -> list:
    """All instances of the requested kind, sizes 0 through max_size."""
    return [x for level in _levels(spec) for x in level]


def enumerate_posets(n: int, up_to_iso: bool = True) -> list[Poset]:
    """Every poset on n elements, labelled a, b, c, ... One representative
    per isomorphism class unless up_to_iso is off; every labelling only up
    to LABELLED_POSET_SIZE_CAP elements."""
    *_, last = _levels(CorpusSpec(n, "posets", up_to_iso))
    return last


def enumerate_lattices(n: int) -> list[Lattice]:
    """Every lattice on n elements up to isomorphism."""
    *_, last = _levels(CorpusSpec(n, "lattices"))
    return last
