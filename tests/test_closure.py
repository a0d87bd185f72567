"""Germ closures: member sets, classification, the canonical embedding,
reconstruction from lattices, automorphism transport."""

import pytest
from hypothesis import given, settings, strategies as st

from germclosure import (
    GermClosure,
    GermCutCase,
    InvariantViolation,
    LambdaCase,
    Lattice,
    NotAGermExtension,
    Poset,
    antichain,
    aut_transport,
    automorphism_count,
    canonical_embed,
    chain,
    closure_masks,
    enumerate_posets,
    germ_closure,
    germs_within,
    ghat_sets,
    grm,
    is_germ_extension,
    isomorphisms,
    lambda_sets,
    lower_set_lattice,
    reconstruct_from_lattice,
)
from germclosure.germs import lambda_witness
from germclosure.poset import bit_indices, inclusion_poset, mask_of, stabilizer_chain
from oracles import induced_subposet
from test_poset import random_dags


def members(p: Poset, clos) -> set[frozenset[str]]:
    return {
        frozenset(p.labels[i] for i in bit_indices(m)) for m in clos.masks
    }


def test_closure_of_empty_poset():
    clos = germ_closure(Poset([], []))
    assert clos.n == 1
    assert clos.masks == (0,)


def test_closure_of_chains():
    """G(chain n) is a chain of n+1: the n prefixes plus the empty cut of
    the bottom germ."""
    for n in range(1, 6):
        clos = germ_closure(chain(n))
        assert clos.n == n + 1
        assert clos.masks == tuple((1 << k) - 1 for k in range(n + 1))
        assert isinstance(clos.cases[0], GermCutCase)
        assert all(isinstance(c, LambdaCase) for c in clos.cases[1:])


def test_closure_of_antichains():
    for n in range(2, 6):
        clos = germ_closure(antichain(n))
        assert clos.n == n + 2
        got = sorted(m.bit_count() for m in clos.masks)
        assert got == [0] + [1] * n + [n]
        assert all(isinstance(c, LambdaCase) for c in clos.cases)


def test_closure_of_vee_exact_members(vee):
    clos = germ_closure(vee)
    assert members(vee, clos) == {
        frozenset(),
        frozenset({"a"}),
        frozenset({"b"}),
        frozenset({"a", "b"}),
        frozenset({"a", "b", "c"}),
    }
    cut = clos.index_of(mask_of([vee.index("a"), vee.index("b")]))
    case = clos.cases[cut]
    assert isinstance(case, GermCutCase) and case.germ == vee.index("c")


def test_closure_of_wedge_exact_members(wedge):
    clos = germ_closure(wedge)
    assert members(wedge, clos) == {
        frozenset(),
        frozenset({"c"}),
        frozenset({"a", "c"}),
        frozenset({"b", "c"}),
        frozenset({"a", "b", "c"}),
    }
    empty = clos.index_of(0)
    case = clos.cases[empty]
    assert isinstance(case, GermCutCase) and case.germ == wedge.index("c")


def test_closure_of_npos_matches_figure(npos):
    clos = germ_closure(npos)
    assert clos.n == 6
    assert members(npos, clos) == {
        frozenset(),
        frozenset({"z"}),
        frozenset({"w"}),
        frozenset({"z", "w", "x"}),
        frozenset({"w", "y"}),
        frozenset({"x", "y", "z", "w"}),
    }
    covers = {
        (clos.poset.labels[i], clos.poset.labels[j])
        for i, j in clos.poset.cover_pairs()
    }
    # member labels list elements in the base poset's index order
    assert covers == {
        ("{}", "{z}"),
        ("{}", "{w}"),
        ("{z}", "{x,z,w}"),
        ("{w}", "{x,z,w}"),
        ("{w}", "{y,w}"),
        ("{x,z,w}", "{x,y,z,w}"),
        ("{y,w}", "{x,y,z,w}"),
    }


def test_lambda_and_ghat_families(vee, npos):
    assert set(lambda_sets(npos)) == {
        0,
        mask_of([npos.index("z")]),
        mask_of([npos.index("w")]),
        mask_of([npos.index(x) for x in "zwx"]),
        mask_of([npos.index(x) for x in "wy"]),
        npos.full_mask,
    }
    assert ghat_sets(npos) == []
    [cut], [rec] = ghat_sets(vee), grm(vee)
    assert cut == mask_of([vee.index("a"), vee.index("b")])
    assert rec.labels() == ("c", "c")


def test_closure_order_is_inclusion(npos):
    clos = germ_closure(npos)
    for i in range(clos.n):
        for j in range(clos.n):
            assert clos.poset.leq(i, j) == (clos.masks[i] & ~clos.masks[j] == 0)


def test_meet_is_intersection_join_is_least_cover(npos):
    clos = germ_closure(npos)
    for i in range(clos.n):
        for j in range(clos.n):
            meet = clos.index_of(clos.masks[i] & clos.masks[j])
            assert clos.masks[meet] == clos.masks[i] & clos.masks[j]
            jn = clos.masks[clos.join(i, j)]
            assert (clos.masks[i] | clos.masks[j]) & ~jn == 0


def test_embedding_fixes_principal_lower_sets(vee, npos):
    for p in (vee, npos, chain(3)):
        clos = germ_closure(p)
        for k in range(p.n):
            assert clos.masks[clos.embed[k]] == p.down[k]


def test_canonical_embed_of_an_extension(vee):
    u = vee.subset(["a", "b"])
    clos, j = canonical_embed(vee, u)
    assert clos.base is vee and clos.subset == u
    # c lands on its shadow {a,b}, in vee's own indices
    assert clos.masks[j[vee.index("c")]] == u
    assert [j[k] for k in bit_indices(u)] == list(clos.embed)


def test_canonical_embed_rejects_non_extension():
    c2 = chain(2)
    with pytest.raises(NotAGermExtension):
        canonical_embed(c2, c2.subset(["u1"]))
    for foreign in (1 << c2.n, -1):
        with pytest.raises(ValueError):
            canonical_embed(c2, foreign)


def _witnesses(clos: GermClosure) -> list[int | None]:
    return [clos.witness(i) for i in range(clos.n)]


def _lifted_closure(p: Poset, mask: int):
    """Members, cases and witnesses of the closure of the copied subposet
    on mask, lifted back into p's indices."""
    keep = list(bit_indices(mask))
    clos = germ_closure(induced_subposet(p, mask))
    masks = tuple(_lift(m, keep) for m in clos.masks)
    cases = [
        c if isinstance(c, LambdaCase) else GermCutCase(keep[c.germ])
        for c in clos.cases
    ]
    witnesses = [None if w is None else _lift(w, keep) for w in _witnesses(clos)]
    return masks, cases, witnesses


def _pairwise_embed(s: Poset, u_mask: int):
    """canonical_embed by its definition, on a copied subposet, every
    order check a leq loop over pairs of elements: the oracle for the row
    version. It returns (masks, cases, witnesses, j), or the type of the
    exception canonical_embed must raise."""
    if not is_germ_extension(s, u_mask):
        return NotAGermExtension
    masks, cases, witnesses = _lifted_closure(s, u_mask)
    index = {m: i for i, m in enumerate(masks)}
    j = []
    for t in range(s.n):
        shadow = mask_of(u for u in bit_indices(u_mask) if s.leq(u, t))
        j.append(index[shadow])
    if len(set(j)) != s.n:
        return AssertionError
    for t1 in range(s.n):
        for t2 in range(s.n):
            if s.leq(t1, t2) != (masks[j[t1]] & ~masks[j[t2]] == 0):
                return AssertionError
    return masks, cases, witnesses, j


def _embed_outcome(s: Poset, u_mask: int):
    try:
        clos, j = canonical_embed(s, u_mask)
    except (ValueError, NotAGermExtension, AssertionError) as e:
        return type(e)
    assert clos.base is s and clos.subset == u_mask
    return clos.masks, list(clos.cases), _witnesses(clos), j


def _relabel(s: Poset, u_mask: int, perm: list[int]):
    """s with element i moved to index perm[i], and u_mask to match."""
    labels, up = [""] * s.n, [0] * s.n
    for i, row in enumerate(s.up):
        labels[perm[i]] = s.labels[i]
        up[perm[i]] = mask_of(perm[x] for x in bit_indices(row))
    return Poset(labels, up), mask_of(perm[u] for u in bit_indices(u_mask))


@settings(deadline=None)
@given(random_dags(max_n=10), st.data())
def test_canonical_embed_matches_pairwise_definition(dag, data):
    """The row-built closure and embedding equal the ones of the copied
    subposet, lifted, on shuffled germ extensions and on random bases,
    and a non-extension raises the same exception type. Masks, cases,
    witnesses and j are compared directly, so this holds under python -O
    too, where the library's asserts are gone."""
    p = Poset.from_relations(*dag)
    if data.draw(st.booleans(), label="s inside the closure"):
        # s: a full subposet of G(p) holding the embedded base
        clos = germ_closure(p)
        keep = data.draw(st.integers(0, clos.poset.full_mask)) | mask_of(clos.embed)
        rank = {e: r for r, e in enumerate(bit_indices(keep))}
        s, u_mask = induced_subposet(clos.poset, keep), mask_of(rank[e] for e in clos.embed)
    else:
        # s: p over a random base, a germ extension or not
        s, u_mask = p, data.draw(st.integers(0, p.full_mask))
    s, u_mask = _relabel(s, u_mask, data.draw(st.permutations(range(s.n))))
    assert _embed_outcome(s, u_mask) == _pairwise_embed(s, u_mask)


def test_canonical_embed_rejects_like_the_pairwise_definition(vee, npos):
    """A non-germ-extension raises the exception type of the pairwise
    definition, and a whole poset embeds into its own closure as that
    definition says."""
    u = vee.subset(["a", "c"])
    assert _pairwise_embed(vee, u) is NotAGermExtension
    with pytest.raises(NotAGermExtension):
        canonical_embed(vee, u)
    clos, j = canonical_embed(npos, npos.full_mask)
    expected = (clos.masks, list(clos.cases), _witnesses(clos), j)
    assert expected == _pairwise_embed(npos, npos.full_mask)
    assert j == list(germ_closure(npos).embed)


def test_witness_is_the_lambda_witness_of_each_embedded_element():
    """On every germ extension s of U over posets ≤4, the member j(t)
    has witness(j(t)) = lambda_witness(s, U, t), None for a germ cut."""
    for s in (p for n in range(5) for p in enumerate_posets(n)):
        for u_mask in range(1 << s.n):
            if not is_germ_extension(s, u_mask):
                continue
            clos, j = canonical_embed(s, u_mask)
            assert [clos.witness(j[t]) for t in range(s.n)] == [
                lambda_witness(s, u_mask, t) for t in range(s.n)
            ]


def test_reconstruct_twelve(twelve):
    clos, j = reconstruct_from_lattice(twelve)
    assert clos.n == 12
    assert sorted(j) == list(range(12))
    assert isomorphisms(clos.poset, twelve.poset, limit=1)


def test_reconstruct_all_small_lattices():
    from germclosure import enumerate_lattices

    for n in range(1, 6):
        for t in enumerate_lattices(n):
            clos, j = reconstruct_from_lattice(t)
            assert clos.n == t.n
            for x in range(t.n):
                for y in range(t.n):
                    assert t.poset.leq(x, y) == clos.poset.leq(j[x], j[y])


@settings(deadline=None)
@given(random_dags(max_n=9))
def test_reconstruct_closures_of_random_posets(data):
    """Tabulating G(p) as a lattice and reconstructing it gives an order
    bijection onto a closure, in t's indices, whose base is isomorphic to
    p and whose joins are t's."""
    p = Poset.from_relations(*data)
    t = Lattice.from_poset(germ_closure(p).poset)
    clos, j = reconstruct_from_lattice(t)
    assert clos.base is t.poset
    assert clos.n == t.n and sorted(j) == list(range(t.n))
    for x in range(t.n):
        for y in range(t.n):
            assert t.poset.leq(x, y) == clos.poset.leq(j[x], j[y])
            assert j[t.join(x, y)] == clos.join(j[x], j[y])
    assert isomorphisms(induced_subposet(clos.base, clos.subset), p, limit=1)


def test_aut_transport_examples(vee, npos, twelve):
    assert aut_transport(germ_closure(vee)) == (2, 2)
    assert aut_transport(germ_closure(npos)) == (1, 1)
    assert aut_transport(germ_closure(antichain(3))) == (6, 6)
    assert aut_transport(germ_closure(twelve.poset)) == (4, 4)


def test_aut_transport_of_wide_posets():
    """Generators keep the check polynomial where listing the groups
    would take 9! and 6**3 maps."""
    assert aut_transport(germ_closure(antichain(9))) == (362880, 362880)
    levels = [[f"{x}{i}" for i in range(3)] for x in "abc"]
    pairs = [(a, b) for lo, hi in zip(levels, levels[1:]) for a in lo for b in hi]
    three_by_three = Poset.from_relations([x for level in levels for x in level], pairs)
    assert aut_transport(germ_closure(three_by_three)) == (216, 216)


def test_aut_transport_matches_automorphism_count():
    for n in range(7):
        for p in enumerate_posets(n):
            assert aut_transport(germ_closure(p)) == (automorphism_count(p),) * 2, p.up


def test_aut_transport_checks_the_closure_it_is_given(vee, monkeypatch):
    """The closure passed in is the one checked: aut_transport builds no
    closure of its own, and a proper subset's closure has no transport."""
    clos = germ_closure(vee)
    monkeypatch.setattr("germclosure.closure.germ_closure", None)
    assert aut_transport(clos) == (2, 2)
    sub, _ = canonical_embed(vee, vee.subset(["a", "b"]))
    with pytest.raises(ValueError):
        aut_transport(sub)


@pytest.mark.parametrize(
    "fake_base, fake_closure, message",
    [
        # swapping a and c maps the member {a} to {c}, which is no lower set
        (lambda order, gens: (order, [(2, 1, 0)]), None, "a lifted action is not an automorphism"),
        # members 0..4 of G(vee) are {}, {a}, {b}, {a,b}, {a,b,c}; a, b, c embed as 1, 2, 4
        (None, lambda order, gens: (order, [(0, 3, 2, 1, 4)]), "moves the embedded base"),
        (
            None,
            lambda order, gens: (order, [(0, 4, 2, 3, 1)]),
            "a restricted automorphism does not preserve the base order",
        ),
        (
            None,
            lambda order, gens: (order + 1, gens),
            r"\|Aut\(base\)\| = 2 but \|Aut\(closure\)\| = 3",
        ),
    ],
    ids=["lift", "base-moving", "restriction", "order"],
)
def test_aut_transport_names_a_broken_transport(vee, monkeypatch, fake_base, fake_closure, message):
    """Each check fires on a stabilizer chain doctored to break it: the
    first call is the base's chain, the second the closure's."""
    real = stabilizer_chain
    fakes = iter([fake_base, fake_closure])

    def doctored(p):
        fake = next(fakes)
        return real(p) if fake is None else fake(*real(p))

    clos = germ_closure(vee)
    monkeypatch.setattr("germclosure.closure.stabilizer_chain", doctored)
    with pytest.raises(InvariantViolation, match=message):
        aut_transport(clos)


def test_closure_agrees_with_lower_set_route():
    """The two families inside I-down(U) match the direct construction;
    the harness checks this exhaustively, here just one worked case."""
    p = Poset.from_relations(["a", "b", "c"], [("a", "b"), ("a", "c")])
    clos = germ_closure(p)
    lsl = lower_set_lattice(p)
    assert set(clos.masks) <= set(lsl.element_masks)


def test_closure_is_a_germ_extension_of_its_base():
    """G(U) with U embedded is itself detected by the base and is a germ
    extension of it."""
    from germclosure import detects, is_germ_extension

    for n in range(5):
        for p in enumerate_posets(n):
            clos = germ_closure(p)
            base = mask_of(clos.embed)
            assert is_germ_extension(clos.poset, base)
            assert detects(clos.poset, base)


@settings(deadline=None)
@given(random_dags(max_n=9))
def test_lambda_sets_are_the_cuts_of_every_subset(data):
    """lambda_sets is exactly {U_{<=B} : B ⊆ U}, each cut taken directly
    as the lower bounds of B."""
    p = Poset.from_relations(*data)
    cuts = {p.lower_bounds(b) for b in range(1 << p.n)}
    assert lambda_sets(p) == sorted(cuts, key=lambda m: (m.bit_count(), m))


def _lift(mask: int, keep: list[int]) -> int:
    return mask_of(keep[k] for k in bit_indices(mask))


@settings(deadline=None)
@given(random_dags(max_n=12), st.integers(min_value=0, max_value=(1 << 12) - 1))
def test_closure_masks_match_closure_of_subposet(data, bits):
    """The kernel on ambient rows restricted to a mask gives the closure
    of the induced subposet, re-indexed: same members in the same order,
    same cases with the same witnesses and germs."""
    p = Poset.from_relations(*data)
    mask = bits & p.full_mask
    masks, cases = closure_masks(p.up, p.down, mask)
    witnesses = _witnesses(GermClosure(p, mask, masks, cases))
    assert (masks, list(cases), witnesses) == _lifted_closure(p, mask)


# 1 << 2 is the first index past chain(2)
@pytest.mark.parametrize("mask", [1 << 2, 1 << 5 | 2, -1])
@pytest.mark.parametrize(
    "kernel", [closure_masks, germs_within], ids=["closure_masks", "germs_within"]
)
def test_row_kernels_reject_foreign_masks(kernel, mask):
    p = chain(2)
    with pytest.raises(ValueError):
        kernel(p.up, p.down, mask)


def test_closure_poset_is_built_on_first_use(npos):
    clos = germ_closure(npos)
    assert "poset" not in vars(clos)
    assert clos.poset == inclusion_poset(npos, clos.masks)
    assert "poset" in vars(clos)
