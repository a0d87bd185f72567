"""Order relation plumbing: construction, bounds, subposets, isomorphism
search."""

import sys
from itertools import permutations

import pytest
from hypothesis import given, strategies as st

from germclosure import (
    CapExceeded,
    CorpusSpec,
    CycleError,
    DuplicateLabel,
    Poset,
    UnknownLabel,
    antichain,
    automorphism_count,
    chain,
    corpus,
    enumerate_lattices,
    enumerate_posets,
    isomorphisms,
)
from germclosure.cli import main
from germclosure.poset import (
    bit_indices,
    down_closed_masks,
    embeddings,
    inclusion_poset,
    intersect_rows,
    mask_of,
    set_label,
    stabilizer_chain,
)
from oracles import closure_by_warshall, induced_subposet, lower_sets_by_definition


def test_from_relations_takes_transitive_closure(vee):
    c3 = Poset.from_relations(["a", "b", "c"], [("a", "b"), ("b", "c")])
    assert c3.leq(c3.index("a"), c3.index("c"))
    assert not c3.leq(c3.index("c"), c3.index("a"))
    assert vee.lt(vee.index("a"), vee.index("c"))
    assert not vee.leq(vee.index("a"), vee.index("b"))


def test_construction_errors():
    with pytest.raises(DuplicateLabel):
        Poset.from_relations(["a", "a"], [])
    with pytest.raises(UnknownLabel):
        Poset.from_relations(["a"], [("a", "zzz")])
    with pytest.raises(CycleError):
        Poset.from_relations(["a", "b"], [("a", "b"), ("b", "a")])
    with pytest.raises(UnknownLabel):
        chain(2).index("nope")


def test_empty_poset():
    p = Poset([], [])
    assert p.n == 0
    assert p.full_mask == 0
    assert p.sup_of(0) is None


def test_structural_equality_and_hash():
    assert chain(3) == chain(3)
    assert hash(chain(3)) == hash(chain(3))
    assert chain(3) != antichain(3)
    relabeled = Poset(["x", "y", "z"], list(chain(3).up))
    assert relabeled != chain(3)


def _check_sup_inf_by_scan(p):
    """sup_of and inf_of against a scan of the upper (lower) bounds for
    one bounding all the others."""
    for mask in range(1 << p.n):
        ub = p.upper_bounds(mask)
        sup = next((c for c in bit_indices(ub) if ub & ~p.up[c] == 0), None)
        assert p.sup_of(mask) == sup
        lb = p.lower_bounds(mask)
        inf = next((c for c in bit_indices(lb) if lb & ~p.down[c] == 0), None)
        assert p.inf_of(mask) == inf


def test_sup_inf_against_bound_scan(vee, npos):
    for p in (vee, npos, chain(4), antichain(3)):
        _check_sup_inf_by_scan(p)
    a, b = vee.index("a"), vee.index("b")
    assert vee.sup_of(mask_of([a, b])) == vee.index("c")
    assert vee.inf_of(mask_of([a, b])) is None


def test_opposite_is_involutive(npos):
    assert npos.opposite().opposite() == npos
    op = npos.opposite()
    x, w = npos.index("x"), npos.index("w")
    assert npos.leq(w, x) and op.leq(x, w)


def test_full_subposet_keeps_order(npos):
    sub = induced_subposet(npos, mask_of([npos.index("z"), npos.index("x")]))
    assert sub.labels == ("x", "z")
    assert sub.leq(sub.index("z"), sub.index("x"))
    assert list(bit_indices(npos.full_mask)) == [0, 1, 2, 3]


def test_covers_are_transitive_reduction():
    c = chain(4)
    assert c.cover_pairs() == [(0, 1), (1, 2), (2, 3)]
    v = Poset.from_relations(["a", "b", "c"], [("a", "b"), ("b", "c"), ("a", "c")])
    assert v.cover_pairs() == [(0, 1), (1, 2)]


def test_subset_is_a_mask(vee):
    s = vee.subset(["a", "c"])
    assert s == mask_of([vee.index("a"), vee.index("c")])
    assert set_label(vee, s) == "{a,c}"
    assert vee.subset([]) == 0
    with pytest.raises(UnknownLabel):
        vee.subset(["a", "zzz"])


def test_isomorphisms_counts():
    assert len(isomorphisms(chain(3), chain(3))) == 1
    assert len(isomorphisms(antichain(3), antichain(3))) == 6
    assert isomorphisms(chain(3), antichain(3)) == []
    assert len(isomorphisms(antichain(4), antichain(4), limit=5)) == 5
    assert automorphism_count(chain(5)) == 1


def test_automorphism_counts_on_examples(vee, npos, twelve):
    assert automorphism_count(vee) == 2
    assert automorphism_count(npos) == 1
    # the H/I swap and the mirror (E G)(C D)(A B) generate the group
    assert automorphism_count(twelve.poset) == 4


def test_automorphism_count_matches_listed_automorphisms():
    """Orbit-stabilizer agrees with listing the whole group."""
    posets = [p for n in range(7) for p in enumerate_posets(n)]
    posets += [t.poset for n in range(9) for t in enumerate_lattices(n)]
    for p in posets:
        assert automorphism_count(p) == len(isomorphisms(p, p)), p.up


def _generated_group(generators, n: int) -> set[tuple[int, ...]]:
    """Close the generators under composition, starting at the identity."""
    group = frontier = {tuple(range(n))}
    while frontier:
        frontier = {tuple(g[i] for i in f) for f in frontier for g in generators} - group
        group = group | frontier
    return group


def test_stabilizer_chain_generates_the_group():
    """The chain's transversal elements generate exactly the listed group,
    and its order is the group's size."""
    posets = [p for n in range(7) for p in enumerate_posets(n)]
    posets += [t.poset for n in range(9) for t in enumerate_lattices(n)]
    for p in posets:
        order, generators = stabilizer_chain(p)
        group = _generated_group(generators, p.n)
        assert group == set(isomorphisms(p, p)), p.up
        assert len(group) == order, p.up


def _brute_force_isomorphisms(p: Poset, q: Poset) -> set[tuple[int, ...]]:
    return {
        f
        for f in permutations(range(q.n))
        if all(
            p.leq(i, k) == q.leq(f[i], f[k]) for i in range(p.n) for k in range(p.n)
        )
    }


def test_isomorphisms_match_brute_force():
    """Against every permutation, for each poset on up to 5 points paired
    with itself, a relabelled copy, and the next representative."""
    for n in range(6):
        reps = enumerate_posets(n)
        for idx, p in enumerate(reps):
            # q is p with element i renamed n-1-i
            q = Poset(
                p.labels,
                [mask_of(n - 1 - j for j in bit_indices(p.up[n - 1 - i])) for i in range(n)],
            )
            for other in (p, q, reps[(idx + 1) % len(reps)]):
                assert set(isomorphisms(p, other)) == _brute_force_isomorphisms(p, other)


def test_automorphism_count_of_wide_antichain():
    assert automorphism_count(antichain(12)) == 479001600


def test_embeddings_draw_from_candidates():
    c2, c3 = chain(2), chain(3)
    assert embeddings(c2, c3, [c3.full_mask] * 2) == [(0, 1), (0, 2), (1, 2)]
    assert embeddings(c2, c3, [c3.full_mask, 0b010]) == [(0, 1)]
    assert embeddings(c2, c3, [c3.full_mask] * 2, limit=2) == [(0, 1), (0, 2)]
    assert embeddings(antichain(2), c3, [c3.full_mask] * 2) == []


def test_map_search_runs_deeper_than_the_recursion_limit(tmp_path, capsys):
    """The search keeps its own stack: a chain under two incomparable
    tops, longer than Python's recursion limit, has its two
    automorphisms counted, and dim on it exits 0."""
    n = sys.getrecursionlimit() + 100
    labels = [f"c{i}" for i in range(n - 2)] + ["t1", "t2"]
    relations = list(zip(labels[: n - 3], labels[1 : n - 2]))
    relations += [(labels[n - 3], "t1"), (labels[n - 3], "t2")]
    assert automorphism_count(Poset.from_relations(labels, relations)) == 2
    doc = tmp_path / "tall.txt"
    rels = " ".join(f"{a}<{b}" for a, b in relations)
    doc.write_text(f"name: tall\nelements: {' '.join(labels)}\nrelations: {rels}\n")
    assert main(["dim", str(doc), "--x-max", "0"]) == 0
    assert f"|E|={n} " in capsys.readouterr().out


def test_down_closed_masks_ascending():
    assert down_closed_masks(chain(3).down) == [0b000, 0b001, 0b011, 0b111]
    assert down_closed_masks(antichain(2).down) == [0, 1, 2, 3]
    with pytest.raises(CapExceeded):
        down_closed_masks(antichain(3).down, cap=7)
    assert len(down_closed_masks(antichain(3).down, cap=8)) == 8


def test_down_closed_masks_match_the_definition_on_the_corpora():
    orders = corpus(CorpusSpec(7)) + [t.poset for t in corpus(CorpusSpec(8, "lattices"))]
    for p in orders:
        assert down_closed_masks(p.down) == lower_sets_by_definition(p.down), p.up


@given(st.data())
def test_down_closed_masks_match_the_definition_under_relabelling(data):
    """random_dags are naturally labelled; relabelled_dags put the
    elements in an index order that need not extend the order."""
    p = Poset.from_relations(*data.draw(relabelled_dags(max_n=10)))
    assert down_closed_masks(p.down) == lower_sets_by_definition(p.down)


def test_isomorphism_respects_order():
    p = Poset.from_relations(["a", "b", "c"], [("a", "c"), ("b", "c")])
    q = Poset.from_relations(["x", "y", "z"], [("z", "x"), ("y", "x")])
    maps = isomorphisms(p, q)
    assert len(maps) == 2
    for f in maps:
        for i in range(3):
            for j in range(3):
                assert p.leq(i, j) == q.leq(f[i], f[j])


@st.composite
def random_dags(draw, max_n=5):
    n = draw(st.integers(min_value=0, max_value=max_n))
    labels = [f"e{i}" for i in range(n)]
    rels = []
    for i in range(n):
        for j in range(i + 1, n):
            if draw(st.booleans()):
                rels.append((labels[i], labels[j]))
    return labels, rels


@st.composite
def relabelled_dags(draw, max_n=5):
    """random_dags with the label list permuted: the built poset's index
    order need not be a linear extension, so the kernels that start from
    the highest or lowest bit of a set must climb."""
    labels, rels = draw(random_dags(max_n))
    return draw(st.permutations(labels)), rels


@st.composite
def random_relations(draw, max_n=8):
    """Labels and any list of pairs among them, in either direction, so
    the relation may hold cycles and self-pairs."""
    n = draw(st.integers(min_value=0, max_value=max_n))
    labels = [f"e{i}" for i in range(n)]
    if not n:
        return labels, []
    label = st.sampled_from(labels)
    return labels, draw(st.lists(st.tuples(label, label), max_size=2 * n))


@given(random_relations(max_n=9))
def test_from_relations_matches_warshall_and_names_a_cycle(data):
    """The depth-first closure gives Warshall's rows, and on a cyclic
    relation CycleError names two labels each below the other there."""
    labels, rels = data
    index = {lab: i for i, lab in enumerate(labels)}
    up = closure_by_warshall(len(labels), [(index[a], index[b]) for a, b in rels])
    cyclic = any(up[j] >> i & 1 for i, row in enumerate(up) for j in bit_indices(row & ~(1 << i)))
    try:
        p = Poset.from_relations(labels, rels)
    except CycleError as e:
        a, b = (index[lab] for lab in e.pair)
        assert cyclic and a != b and up[a] >> b & 1 and up[b] >> a & 1
    else:
        assert not cyclic and list(p.up) == up


def test_from_relations_closes_a_long_chain_without_recursion():
    """The depth-first pass is iterative: a 3,000-element chain, whose
    search runs 3,000 rows deep, closes."""
    labels = [f"c{i}" for i in range(3000)]
    p = Poset.from_relations(labels, list(zip(labels, labels[1:])))
    assert p.up[0] == p.full_mask and p.down[-1] == p.full_mask


@given(relabelled_dags(max_n=10))
def test_covers_are_the_transitive_reduction_under_relabelling(data):
    p = Poset.from_relations(*data)
    for i in range(p.n):
        between = [k for k in range(p.n) if p.lt(i, k)]
        expected = mask_of(j for j in between if not any(p.lt(k, j) for k in between))
        assert p.covers_up[i] == expected


@given(relabelled_dags(max_n=10), st.lists(st.integers(0, (1 << 10) - 1), max_size=32))
def test_bounds_match_a_fold_over_every_element_under_relabelling(data, bits):
    """The folds over the maximal (minimal) elements of a set give the
    fold of every element's row."""
    p = Poset.from_relations(*data)
    for mask in [p.full_mask] + [b & p.full_mask for b in bits]:
        assert p.upper_bounds(mask) == intersect_rows(p.up, mask, p.full_mask)
        assert p.lower_bounds(mask) == intersect_rows(p.down, mask, p.full_mask)


@given(random_dags())
def test_from_relations_yields_partial_order(data):
    labels, rels = data
    p = Poset.from_relations(labels, rels)
    for i in range(p.n):
        assert p.leq(i, i)
        for j in range(p.n):
            if i != j and p.leq(i, j):
                assert not p.leq(j, i)
            for k in range(p.n):
                if p.leq(i, j) and p.leq(j, k):
                    assert p.leq(i, k)


@given(random_dags(max_n=9))
def test_sup_inf_of_random_posets_against_bound_scan(data):
    _check_sup_inf_by_scan(Poset.from_relations(*data))


@given(random_dags())
def test_upper_bounds_matches_definition(data):
    labels, rels = data
    p = Poset.from_relations(labels, rels)
    for mask in range(min(1 << p.n, 32)):
        ub = p.upper_bounds(mask)
        for x in range(p.n):
            expected = all(p.leq(i, x) for i in bit_indices(mask))
            assert bool(ub >> x & 1) == expected


@given(random_dags(max_n=9), st.lists(st.integers(0, (1 << 9) - 1), max_size=24))
def test_inclusion_poset_matches_pairwise_scan(data, bits):
    """The up-rows built from holder rows are the pairwise subset scan,
    also for the empty family and for families containing the empty set."""
    p = Poset.from_relations(*data)
    family = list(dict.fromkeys(b & p.full_mask for b in bits))
    for masks in (family, [], [0] + [m for m in family if m]):
        expected = [
            mask_of(k for k, other in enumerate(masks) if m & ~other == 0)
            for m in masks
        ]
        assert list(inclusion_poset(p, masks).up) == expected
