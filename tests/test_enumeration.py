"""Poset and lattice generators: the two labelled strategies, the
unlabelled generators checked against them, and the corpus plumbing."""

import hashlib
from functools import cache

import pytest
from hypothesis import given, strategies as st

from germclosure import (
    CapExceeded,
    CorpusSpec,
    Lattice,
    corpus,
    enumerate_lattices,
    enumerate_posets,
    labelled_posets_by_extension,
)
from germclosure.enumeration import canonical_key, iso_classes
from germclosure.poset import Poset, isomorphisms, refined_invariants
from oracles import labelled_posets_by_filtering

LABELLED = [1, 1, 3, 19, 219]
UNLABELLED = [1, 1, 2, 5, 16]
LATTICES = [0, 1, 1, 1, 2, 5]

# count and sha256 of the corpus, one repr(up) line per item
CORPUS_PINS = {
    "posets": (2451, "b4448dfe24bba7bce9173d9f5f50ab66fa59bce04be06babaae173752a9fc483"),
    "lattices": (300, "82ef2a7bce0a27a34cb42bb10f06b4779430f81358f5ef768c8a7691fbe74b60"),
}
# sha256 of repr(list(labelled_posets_by_extension(5)))
LABELLED_5_SHA256 = "55a201c82f05f83dcf93e5b97a902ababaf49db067be68377829c272ebace763"


@pytest.mark.parametrize("n", range(5))
def test_labelled_counts_both_strategies(n):
    by_ext = list(labelled_posets_by_extension(n))
    by_filter = list(labelled_posets_by_filtering(n))
    assert len(by_ext) == LABELLED[n]
    assert len(by_filter) == LABELLED[n]
    assert sorted(by_ext) == sorted(by_filter)


def test_labelled_order_is_pinned():
    """The exact sequence, not only the set, of the labelled posets on 5."""
    rows = repr(list(labelled_posets_by_extension(5))).encode()
    assert hashlib.sha256(rows).hexdigest() == LABELLED_5_SHA256


@pytest.mark.parametrize("n", range(5))
def test_unlabelled_counts(n):
    assert len(enumerate_posets(n)) == UNLABELLED[n]


@pytest.mark.parametrize("n", range(6))
def test_lattice_counts(n):
    assert len(enumerate_lattices(n)) == LATTICES[n]


def test_lattices_at_six():
    assert len(enumerate_lattices(6)) == 15


@pytest.mark.parametrize("n", range(6))
def test_unlabelled_posets_match_labelled_classes(n):
    reps = enumerate_posets(n)
    labelled = enumerate_posets(n, up_to_iso=False)
    assert iso_classes(reps + labelled) == reps
    assert len(iso_classes(labelled)) == len(reps)


def _is_lattice_by_brute_force(up, n):
    """Nonempty, and every pair has a least upper bound and a greatest
    lower bound, found by scanning all elements."""
    if n == 0:
        return False

    def leq(i, j):
        return up[i] >> j & 1

    # a finite lattice has a bottom and a top; most posets fail here
    if not any(all(leq(b, k) for k in range(n)) for b in range(n)):
        return False
    if not any(all(leq(k, t) for k in range(n)) for t in range(n)):
        return False
    for i in range(n):
        for j in range(i + 1, n):
            ub = [k for k in range(n) if leq(i, k) and leq(j, k)]
            if not any(all(leq(s, k) for k in ub) for s in ub):
                return False
            lb = [k for k in range(n) if leq(k, i) and leq(k, j)]
            if not any(all(leq(k, s) for k in lb) for s in lb):
                return False
    return True


@pytest.mark.parametrize("n", range(7))
def test_bounded_lattices_match_filtered_labelled_stream(n):
    """The bounded-poset lattices against the labelled stream filtered
    for lattices by brute force and reduced to isomorphism classes."""
    reps = [t.poset for t in enumerate_lattices(n)]
    labels = list("abcdefgh"[:n])
    labelled = [
        Poset(labels, up)
        for up in labelled_posets_by_extension(n)
        if _is_lattice_by_brute_force(up, n)
    ]
    assert iso_classes(reps + labelled) == reps
    assert len(iso_classes(labelled)) == len(reps)


def test_representatives_pairwise_nonisomorphic():
    for reps in (enumerate_posets(5), [t.poset for t in enumerate_lattices(6)]):
        for i, p in enumerate(reps):
            for q in reps[i + 1 :]:
                assert not isomorphisms(p, q, limit=1)


def test_every_labelled_poset_matches_a_representative():
    reps = enumerate_posets(3)
    for up in labelled_posets_by_extension(3):
        p = Poset(["a", "b", "c"], up)
        hits = [q for q in reps if isomorphisms(p, q, limit=1)]
        assert len(hits) == 1


@given(st.permutations(range(4)), st.integers(0, 15))
def test_canonical_key_is_relabeling_invariant(perm, pick):
    reps = enumerate_posets(4)
    p = reps[pick % len(reps)]
    relabeled = [0] * p.n
    for i in range(p.n):
        row = 0
        for j in range(p.n):
            if p.up[i] >> j & 1:
                row |= 1 << perm[j]
        relabeled[perm[i]] = row
    assert canonical_key(tuple(relabeled)) == canonical_key(tuple(p.up))


@pytest.mark.parametrize(
    "reps",
    [corpus(CorpusSpec(5)), [t.poset for t in corpus(CorpusSpec(6, "lattices"))]],
    ids=["posets<=5", "lattices<=6"],
)
def test_brute_force_keys_of_representatives_are_distinct(reps):
    keys = [canonical_key(p.up) for p in reps]
    assert len(set(keys)) == len(keys)


@pytest.mark.parametrize("n", range(5))
def test_every_labelled_poset_has_the_key_of_one_representative(n):
    keys = [canonical_key(p.up) for p in enumerate_posets(n)]
    for up in labelled_posets_by_extension(n):
        assert keys.count(canonical_key(up)) == 1


@cache
def _representatives(n):
    return enumerate_posets(n)


def _relabeled(p, perm):
    """p with element i renamed perm[i], labels kept in place."""
    up = [0] * p.n
    for i in range(p.n):
        up[perm[i]] = sum(1 << perm[j] for j in range(p.n) if p.up[i] >> j & 1)
    return Poset(p.labels, up)


@given(st.data())
def test_iso_classes_merges_relabelings(data):
    n = data.draw(st.integers(0, 6))
    reps = _representatives(n)
    p = data.draw(st.sampled_from(reps))
    q = _relabeled(p, data.draw(st.permutations(range(n))))
    assert iso_classes([q, p]) == [q]
    assert iso_classes(reps + [q]) == reps


def test_iso_classes_separates_posets_with_equal_invariants():
    """Two disjoint 2+2 bowties and the crown on 8 points: every element
    has two covers or two co-covers, so the refined invariants agree (they
    separate every class on up to 7 points), yet only the crown is
    connected. The map search keeps both and still merges a relabeling."""
    bowties = Poset(list("abcdefgh"), (49, 50, 196, 200, 16, 32, 64, 128))
    crown = Poset(list("abcdefgh"), (49, 82, 164, 200, 16, 32, 64, 128))
    moved = _relabeled(crown, (1, 0, 2, 3, 4, 5, 6, 7))
    assert moved != crown
    invariants = [sorted(refined_invariants(p.up, p.down)) for p in (bowties, crown)]
    assert invariants[0] == invariants[1]
    assert iso_classes([bowties, crown, moved]) == [bowties, crown]


def _digest(rows) -> tuple[int, str]:
    digest = hashlib.sha256()
    for up in rows:
        digest.update(repr(up).encode() + b"\n")
    return len(rows), digest.hexdigest()


def test_corpora_are_pinned():
    """The representatives and their order stay put, row for row."""
    posets = [p.up for p in corpus(CorpusSpec(7))]
    lattices = [t.poset.up for t in corpus(CorpusSpec(8, "lattices"))]
    assert _digest(posets) == CORPUS_PINS["posets"]
    assert _digest(lattices) == CORPUS_PINS["lattices"]


def test_enumerated_lattices_are_lattices():
    for t in enumerate_lattices(5):
        assert isinstance(t, Lattice)
        # the defining property: every pair has a join and a meet
        for i in range(t.n):
            for j in range(t.n):
                assert t.join(i, j) is not None and t.meet(i, j) is not None


def test_corpus_spec_validation():
    with pytest.raises(ValueError):
        CorpusSpec(3, "rings")
    with pytest.raises(CapExceeded):
        CorpusSpec(8, "posets")
    with pytest.raises(CapExceeded):
        CorpusSpec(9, "lattices")
    with pytest.raises(CapExceeded):
        CorpusSpec(7, "posets", up_to_iso=False)


@pytest.mark.parametrize("kind", ["posets", "lattices"])
def test_corpus_spec_rejects_a_negative_size(kind):
    with pytest.raises(ValueError):
        CorpusSpec(-1, kind)


@pytest.mark.parametrize(
    "enumerate_one", [enumerate_posets, enumerate_lattices], ids=["posets", "lattices"]
)
def test_enumerating_a_negative_size_raises(enumerate_one):
    with pytest.raises(ValueError, match="nonnegative"):
        enumerate_one(-1)


def test_lattice_corpus_has_no_labelled_mode():
    with pytest.raises(ValueError):
        CorpusSpec(3, "lattices", up_to_iso=False)


def test_corpus_flattens_all_sizes():
    posets = corpus(CorpusSpec(3, "posets"))
    assert len(posets) == sum(UNLABELLED[:4])
    lattices = corpus(CorpusSpec(4, "lattices"))
    assert len(lattices) == sum(LATTICES[:5])


def test_corpus_labelled_mode():
    posets = corpus(CorpusSpec(3, "posets", up_to_iso=False))
    assert len(posets) == sum(LABELLED[:4])


def test_size_caps():
    with pytest.raises(CapExceeded):
        enumerate_posets(8)
    with pytest.raises(CapExceeded):
        enumerate_lattices(9)
    with pytest.raises(CapExceeded):
        enumerate_posets(7, up_to_iso=False)
