"""Finite partial orders on labelled elements, bitmask backed.

The order relation is stored twice, as rows of up-sets and rows of
down-sets: ``up[i]`` is the bitmask of all j with i <= j and ``down[i]``
the bitmask of all j with j <= i. Element sets are plain ints throughout;
labels matter only at the I/O boundary.
"""

from __future__ import annotations

from functools import cached_property
from typing import Iterable, Iterator, Optional, Sequence

from .errors import CapExceeded, CycleError, DuplicateLabel, UnknownLabel


def bit_indices(mask: int) -> Iterator[int]:
    """Yield the set bits of mask, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def mask_of(indices: Iterable[int]) -> int:
    m = 0
    for i in indices:
        m |= 1 << i
    return m


def intersect_rows(rows: Sequence[int], mask: int, start: int) -> int:
    """start intersected with rows[i] for every i in mask: with up rows,
    the common upper bounds of mask inside start."""
    # bit_indices inlined: the germ tests call this in their inner loop
    while mask:
        low = mask & -mask
        start &= rows[low.bit_length() - 1]
        mask ^= low
    return start


def upper_bounds_in(up: Sequence[int], down: Sequence[int], mask: int, start: int) -> int:
    """start intersected with up[x] for every x in mask, the common upper
    bounds of mask inside start, folding the maximal elements only.

    Each step folds the row of the highest element x left and drops the
    elements under x: their up-rows hold up[x], so they add nothing.
    Along a linear extension x is always maximal, so the fold makes one
    step per maximal element. In any other index order x may lie under
    an element still left; its row then holds the bounds too, so the
    result is the same and only a step is added."""
    while mask:
        x = mask.bit_length() - 1
        start &= up[x]
        mask &= ~down[x]
    return start


def lower_bounds_in(up: Sequence[int], down: Sequence[int], mask: int, start: int) -> int:
    """start intersected with down[x] for every x in mask, folding the
    minimal elements only. Dual to upper_bounds_in, from the lowest bit."""
    while mask:
        x = (mask & -mask).bit_length() - 1
        start &= down[x]
        mask &= ~up[x]
    return start


def minimal_elements(up: Sequence[int], down: Sequence[int], mask: int) -> int:
    """The minimal elements of mask. Each is found by climbing down from
    the lowest bit of what is left until nothing in mask is below; then
    everything over it is dropped, and what is left holds exactly the
    minimal elements not found yet. Along a linear extension the lowest
    bit is already minimal, so the climb makes no step."""
    out = 0
    while mask:
        low = mask & -mask
        while below := down[low.bit_length() - 1] & mask & ~low:
            low = below & -below
        out |= low
        mask &= ~up[low.bit_length() - 1]
    return out


def transpose(rows: Sequence[int], n: int) -> list[int]:
    """The rows of the transposed relation on range(n): out[j] holds i
    exactly when rows[i] holds j. Up rows give down rows and back."""
    out = [0] * n
    for i, m in enumerate(rows):
        bit = 1 << i
        while m:
            low = m & -m
            out[low.bit_length() - 1] |= bit
            m ^= low
    return out


def down_closed_masks(down: Sequence[int], cap: Optional[int] = None) -> list[int]:
    """All down-closed subsets of the poset with the given down rows, as
    ascending ints. Raises CapExceeded once more than cap turn up.

    One doubling pass: the elements are visited by down-row size, a linear
    extension, so each is maximal among those visited before it and joins
    exactly the lower sets found so far that hold its strict down-set."""
    masks = [0]
    for i in sorted(range(len(down)), key=lambda i: down[i].bit_count()):
        below = down[i] & ~(1 << i)
        masks += [m | 1 << i for m in masks if below & ~m == 0]
        if cap is not None and len(masks) > cap:
            raise CapExceeded("lower set count", cap)
    return sorted(masks)


def check_subset(n: int, mask: int) -> None:
    """Raise ValueError unless mask is a subset of range(n), a poset's elements."""
    if mask >> n:
        raise ValueError("the subset has elements outside the given poset")


def sorted_by_size(masks: Iterable[int]) -> list[int]:
    """A family of subsets in the package's one set order: by
    cardinality, then by bitmask."""
    return sorted(masks, key=lambda m: (m.bit_count(), m))


def set_label(p: "Poset", mask: int) -> str:
    """Set-notation label for a subset of p, '{a,b}' style."""
    return "{" + ",".join(p.labels[i] for i in bit_indices(mask)) + "}"


def inclusion_poset(p: "Poset", masks: Sequence[int]) -> "Poset":
    """The subsets masks of p ordered by inclusion, labelled in set
    notation; element k stands for masks[k]."""
    # holders[e]: the members containing e; m's up-row intersects them over m
    holders = transpose(masks, p.n)
    every = (1 << len(masks)) - 1
    up = [intersect_rows(holders, m, every) for m in masks]
    return Poset([set_label(p, m) for m in masks], up)


class Poset:
    """A finite poset. Construct via from_relations unless the rows are
    already known to be reflexive, antisymmetric and transitive."""

    def __init__(self, labels: Sequence[str], up: Sequence[int]):
        self.labels = tuple(labels)
        self.up = tuple(up)
        self.down = tuple(transpose(self.up, len(self.labels)))

    @classmethod
    def from_relations(
        cls, labels: Sequence[str], pairs: Iterable[tuple[str, str]]
    ) -> "Poset":
        """Build the reflexive transitive closure of the given a<b pairs.

        Raises DuplicateLabel / UnknownLabel on bad names and CycleError if
        the closure would break antisymmetry.

        One iterative depth-first pass closes the rows (Purdom, BIT 10,
        1970): a row is closed once every row it points to is closed, and
        then it is the union of those rows. A successor already inside
        the row is skipped: the closed row that put it there holds its
        row too. An edge back into the stack of open rows closes a
        cycle, and CycleError names that edge's two ends.
        """
        index: dict[str, int] = {}
        for lab in labels:
            if lab in index:
                raise DuplicateLabel(lab)
            index[lab] = len(index)
        n = len(index)
        succ = [0] * n
        for a, b in pairs:
            if a not in index:
                raise UnknownLabel(a)
            if b not in index:
                raise UnknownLabel(b)
            succ[index[a]] |= 1 << index[b]
        up = [1 << i for i in range(n)]
        closed = seen = 0
        for root in range(n):
            if seen >> root & 1:
                continue
            # stack holds the open rows, todo[k] the successors of stack[k] not yet read
            stack, todo, seen = [root], [succ[root]], seen | 1 << root
            while stack:
                i = stack[-1]
                rest = todo[-1] & ~up[i]
                if not rest:
                    stack.pop()
                    todo.pop()
                    closed |= 1 << i
                    if stack:
                        up[stack[-1]] |= up[i]
                    continue
                low = rest & -rest
                todo[-1] = rest ^ low
                j = low.bit_length() - 1
                if low & closed:
                    up[i] |= up[j]
                elif low & seen:  # seen and not closed: j is on the stack
                    raise CycleError(labels[i], labels[j])
                else:
                    stack.append(j)
                    todo.append(succ[j])
                    seen |= low
        return cls(labels, up)

    @property
    def n(self) -> int:
        return len(self.labels)

    @cached_property
    def full_mask(self) -> int:
        return (1 << self.n) - 1

    @cached_property
    def _index(self) -> dict[str, int]:
        return {lab: i for i, lab in enumerate(self.labels)}

    def index(self, label: str) -> int:
        try:
            return self._index[label]
        except KeyError:
            raise UnknownLabel(label) from None

    def leq(self, i: int, j: int) -> bool:
        return bool(self.up[i] >> j & 1)

    def lt(self, i: int, j: int) -> bool:
        return i != j and bool(self.up[i] >> j & 1)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Poset)
            and self.labels == other.labels
            and self.up == other.up
        )

    def __hash__(self) -> int:
        return hash((self.labels, self.up))

    def __repr__(self) -> str:
        return f"Poset({list(self.labels)}, {self.n} elements)"

    # -- intervals ---------------------------------------------------------

    def closed(self, u: int, v: int) -> int:
        """[u,v] as a mask (empty unless u <= v)."""
        return self.up[u] & self.down[v]

    def strict_down(self, v: int) -> int:
        return self.down[v] & ~(1 << v)

    def strict_up(self, v: int) -> int:
        return self.up[v] & ~(1 << v)

    # -- bounds ------------------------------------------------------------

    def upper_bounds(self, mask: int) -> int:
        return upper_bounds_in(self.up, self.down, mask, self.full_mask)

    def lower_bounds(self, mask: int) -> int:
        return lower_bounds_in(self.up, self.down, mask, self.full_mask)

    # Antisymmetry keeps rows distinct: sup(S) is the element whose up-row is upper_bounds(S).
    @cached_property
    def _by_up_row(self) -> dict[int, int]:
        return {row: i for i, row in enumerate(self.up)}

    @cached_property
    def _by_down_row(self) -> dict[int, int]:
        return {row: i for i, row in enumerate(self.down)}

    def sup_of(self, mask: int) -> Optional[int]:
        """Least upper bound of the set, or None if there is none.

        sup_of(0) is the smallest element of the poset when one exists.
        """
        return self._by_up_row.get(self.upper_bounds(mask))

    def inf_of(self, mask: int) -> Optional[int]:
        """Greatest lower bound of the set, or None. Dual to sup_of."""
        return self._by_down_row.get(self.lower_bounds(mask))

    # -- derived posets ----------------------------------------------------

    def opposite(self) -> "Poset":
        """The same elements with the order reversed."""
        return Poset(self.labels, self.down)

    # -- structure ---------------------------------------------------------

    @cached_property
    def covers_up(self) -> tuple[int, ...]:
        """covers_up[i] = elements j covering i (i < j, nothing between):
        the minimal elements of ]i,*[, peeled one cover per step."""
        up, down = self.up, self.down
        return tuple(minimal_elements(up, down, row & ~(1 << i)) for i, row in enumerate(up))

    def cover_pairs(self) -> list[tuple[int, int]]:
        """All covering pairs (i, j) with j covering i, index order."""
        return [(i, j) for i in range(self.n) for j in bit_indices(self.covers_up[i])]

    def subset(self, labels: Iterable[str]) -> int:
        """The mask of the named elements; UnknownLabel on a bad name."""
        return mask_of(self.index(lab) for lab in labels)


def chain(n: int) -> Poset:
    """The chain u1 < u2 < ... < un."""
    labels = [f"u{i + 1}" for i in range(n)]
    up = [((1 << n) - 1) & ~((1 << i) - 1) for i in range(n)]
    return Poset(labels, up)


def antichain(n: int) -> Poset:
    """n pairwise incomparable elements."""
    labels = [f"u{i + 1}" for i in range(n)]
    return Poset(labels, [1 << i for i in range(n)])


# -- isomorphism search ----------------------------------------------------
# embeddings is the one map search. isomorphisms lists maps; stabilizer_chain keeps
# one automorphism per orbit point, all that |Aut| and aut_transport need;
# enumeration.iso_classes asks it for one isomorphism to deduplicate the corpus.


def refined_invariants(up: Sequence[int], down: Sequence[int]) -> list:
    """Per-element order invariants, refined twice by neighborhood multisets.

    Comparable nested tuples, identical across isomorphic posets; they prune
    the map search (class_candidates) and group the posets iso_classes compares.
    """
    n = len(up)
    strict = [
        (list(bit_indices(down[i] & ~(1 << i))), list(bit_indices(up[i] & ~(1 << i))))
        for i in range(n)
    ]
    inv: list = [(down[i].bit_count(), up[i].bit_count()) for i in range(n)]
    for _ in range(2):
        inv = [
            (inv[i], tuple(sorted([inv[j] for j in lo])), tuple(sorted([inv[j] for j in hi])))
            for i, (lo, hi) in enumerate(strict)
        ]
    return inv


def class_candidates(pinv: Sequence, qinv: Sequence) -> list[int]:
    """Per element i of p, the mask of the elements j of q with qinv[j] ==
    pinv[i]: the images an isomorphism p -> q may give i."""
    return [mask_of(j for j, w in enumerate(qinv) if w == v) for v in pinv]


def embeddings(
    p: Poset, q: Poset, candidates: Sequence[int], limit: Optional[int] = None
) -> list[tuple[int, ...]]:
    """Injective index tuples f with i <= k iff f[i] <= f[k], each f[i]
    drawn from the bitmask candidates[i]; stops after limit hits.

    The one map search in the package. Elements with the fewest
    candidates are placed first, each onto the images related to every
    earlier image exactly as p relates the preimages, lowest image first.
    The search keeps its own stack, so it has no depth limit: left[k]
    holds the images of the k-th placed element not tried yet.

    The row tests alone keep f injective. Once some element is placed on
    j, every other element of p lies strictly above it, strictly below it
    or apart from it, so its image is confined to qup[j] - qdown[j],
    qdown[j] - qup[j] or the complement of qup[j] | qdown[j]. j lies in
    both rows, so in none of these.
    """
    n = p.n
    order = sorted(range(n), key=lambda i: candidates[i].bit_count())
    found: list[tuple[int, ...]] = []
    f = [-1] * n
    pup, pdown, qup, qdown = p.up, p.down, q.up, q.down
    left: list[int] = []
    while True:
        k = len(left)
        if k < n:
            i = order[k]
            allowed = candidates[i]
            for ii in order[:k]:
                j = f[ii]
                allowed &= qup[j] if pup[ii] >> i & 1 else ~qup[j]
                allowed &= qdown[j] if pdown[ii] >> i & 1 else ~qdown[j]
            left.append(allowed)
        else:
            found.append(tuple(f))
            if limit is not None and len(found) >= limit:
                return found
        while left and not left[-1]:
            left.pop()
        if not left:
            return found
        low = left[-1] & -left[-1]
        left[-1] ^= low
        f[order[len(left) - 1]] = low.bit_length() - 1


def isomorphisms(p: Poset, q: Poset, limit: Optional[int] = None) -> list[tuple[int, ...]]:
    """All order isomorphisms p -> q as index tuples f with f[i] in q.

    Candidate images are pruned by refined degree invariants before
    backtracking; posets of different sizes have invariant lists of
    different lengths and fail there. Pass limit=1 to stop at the first hit.
    """
    pinv = refined_invariants(p.up, p.down)
    qinv = refined_invariants(q.up, q.down)
    if sorted(pinv) != sorted(qinv):
        return []
    return embeddings(p, q, class_candidates(pinv, qinv), limit)


def stabilizer_chain(p: Poset) -> tuple[int, list[tuple[int, ...]]]:
    """|Aut(p)| and a strong generating set: level t confirms each point of the
    orbit of t under the automorphisms fixing 0..t-1 by one limit=1 search; the
    automorphisms found, a transversal per level, together generate the group."""
    inv = refined_invariants(p.up, p.down)
    candidates = class_candidates(inv, inv)
    count, generators = 1, []
    for t in range(p.n):
        level = len(generators)
        for j in bit_indices(candidates[t] & ~(1 << t)):
            trial = candidates.copy()
            trial[t] = 1 << j
            generators += embeddings(p, p, trial, limit=1)
        count *= 1 + len(generators) - level
        candidates = [c & ~(1 << t) for c in candidates]
        candidates[t] = 1 << t
    return count, generators


def automorphism_count(p: Poset) -> int:
    """|Aut(p)|, the order of its stabilizer chain."""
    return stabilizer_chain(p)[0]
