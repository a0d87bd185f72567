"""Poset and lattice generators: the two labelled strategies, the
unlabelled generators checked against them, and the corpus plumbing."""

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
    labelled_posets_by_filtering,
)
from germclosure.enumeration import canonical_key
from germclosure.poset import Poset, isomorphisms

LABELLED = [1, 1, 3, 19, 219]
UNLABELLED = [1, 1, 2, 5, 16]
LATTICES = [0, 1, 1, 1, 2, 5]


@pytest.mark.parametrize("n", range(5))
def test_labelled_counts_both_strategies(n):
    by_ext = list(labelled_posets_by_extension(n))
    by_filter = list(labelled_posets_by_filtering(n))
    assert len(by_ext) == LABELLED[n]
    assert len(by_filter) == LABELLED[n]
    assert sorted(by_ext) == sorted(by_filter)


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
    reps = {canonical_key(p.up) for p in enumerate_posets(n)}
    assert reps == {canonical_key(up) for up in labelled_posets_by_extension(n)}


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
    for lattices by brute force and reduced to canonical keys."""
    reps = {canonical_key(t.poset.up) for t in enumerate_lattices(n)}
    assert reps == {
        canonical_key(up)
        for up in labelled_posets_by_extension(n)
        if _is_lattice_by_brute_force(up, n)
    }


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
