"""Reference implementations the tests check the package against.

Each one is the plain definition, or an independent route to the same
answer, and nothing in the package calls it. conftest registers this
module for pytest's assertion rewriting, so its asserts hold under
python -O too.
"""

from itertools import combinations, product

from germclosure import GermRecord, NotAGermExtension, Poset, is_germ_extension
from germclosure.germs import _record, cogerms_within, germ_cut_witness, lambda_witness
from germclosure.poset import bit_indices, mask_of


def induced_subposet(p: Poset, mask: int) -> Poset:
    """The induced order on the elements of mask, labels kept.

    Element k of the result is the k-th set bit of mask, so the parent
    indices are recoverable as list(bit_indices(mask)).
    """
    keep = list(bit_indices(mask))
    pos = {q: k for k, q in enumerate(keep)}
    up = [sum(1 << pos[q] for q in bit_indices(p.up[i] & mask)) for i in keep]
    return Poset([p.labels[i] for i in keep], up)


def lower_sets_by_definition(down) -> list[int]:
    """Every m, ascending, holding the whole down row of each of its
    elements."""
    return [
        m for m in range(1 << len(down)) if all(down[i] & ~m == 0 for i in bit_indices(m))
    ]


def is_germ(p: Poset, u: int) -> GermRecord | None:
    """u's germ record from the scan over every cogerm candidate v."""
    cands = cogerms_within(p.up, p.down, p.full_mask, u)
    assert len(cands) <= 1, f"germ {p.labels[u]} admits {len(cands)} cogerms"
    return _record(p, u, cands[0]) if cands else None


def classify(p: Poset, u_mask: int, s: int) -> int | None:
    """Whichever of the two shadow shapes holds for s, asserting the other
    one fails: the germ r of U when U_{<=s} is ]*,r[, None when it is a
    cut. Only meaningful when the ambient poset p germ-extends U."""
    if not is_germ_extension(p, u_mask):
        raise NotAGermExtension("the ambient poset is not a germ extension of the given subset")
    b = lambda_witness(p, u_mask, s)
    r = germ_cut_witness(p, u_mask, s)
    assert (b is None) != (r is None), (
        f"element {p.labels[s]} fits {'both shapes' if b is not None else 'neither shape'}"
    )
    return r


def labelled_posets_by_filtering(n: int):
    """The up-rows of every labelled poset on n elements: decide each
    unordered pair (below, above, or incomparable) and keep the
    transitive choices. Checks labelled_posets_by_extension."""
    pairs = list(combinations(range(n), 2))
    for choice in product((0, 1, 2), repeat=len(pairs)):
        up = [1 << i for i in range(n)]
        for (i, j), c in zip(pairs, choice):
            if c == 1:
                up[i] |= 1 << j
            elif c == 2:
                up[j] |= 1 << i
        if all(up[j] & ~up[i] == 0 for i in range(n) for j in bit_indices(up[i])):
            yield tuple(up)


def closure_by_warshall(n: int, pairs) -> list[int]:
    """The up rows of the reflexive transitive closure of the index pairs
    (a, b), meaning a < b, on range(n), by Warshall's loop: row i takes in
    row k whenever it holds k. A cyclic relation gives rows that hold each
    other. Checks Poset.from_relations."""
    up = [1 << i for i in range(n)]
    for a, b in pairs:
        up[a] |= 1 << b
    for k in range(n):
        bit = 1 << k
        for i in range(n):
            if up[i] & bit:
                up[i] |= up[k]
    return up


def relabelled(p: Poset, perm) -> Poset:
    """p with element i moved to index perm[i], its label moving along."""
    labels, up = [""] * p.n, [0] * p.n
    for i, row in enumerate(p.up):
        labels[perm[i]] = p.labels[i]
        up[perm[i]] = mask_of(perm[x] for x in bit_indices(row))
    return Poset(labels, up)


def interval_members(base: int, top: int) -> list[int]:
    """The masks of the interval [base, top], ascending: base | sub for
    every submask sub of top - base, by the submask walk."""
    free = top & ~base
    members, sub = [base], free & -free
    while sub:
        members.append(base | sub)
        sub = (sub - free) & free
    return members
