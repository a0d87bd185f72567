"""Lattice structure: the lattice check against a brute-force bound
scan, joins and meets, irreducibles, the r and sigma operators,
lower-set lattices."""

import pytest
from hypothesis import given, settings, strategies as st

from germclosure import (
    CapExceeded,
    Lattice,
    NotALattice,
    Poset,
    antichain,
    chain,
    enumerate_lattices,
    g_sharp,
    germ_closure,
    labelled_posets_by_extension,
    lambda_e,
    lower_set_lattice,
    r_inf,
    sigma_inf,
)
from germclosure.lattice import DEFAULT_LOWER_SET_CAP
from germclosure.poset import bit_indices, down_closed_masks, mask_of, transpose
from oracles import induced_subposet
from test_poset import random_dags


def corpus_lattices(max_n=5):
    return [t for n in range(max_n + 1) for t in enumerate_lattices(n)]


def brute_join(p: Poset, i: int, j: int):
    ub = p.upper_bounds(mask_of([i, j]))
    for x in bit_indices(ub):
        if ub & ~p.up[x] == 0:
            return x
    return None


def brute_first_missing_bound(p: Poset):
    """(pair, which) for the first pair i <= j in index order that has no
    join, or else no meet, by a scan of its bounds; None for a lattice.
    The empty poset has neither bound of the empty set: (None, None)."""
    if p.n == 0:
        return None, None
    op = p.opposite()
    for i in range(p.n):
        for j in range(i, p.n):
            for which, q in (("join", p), ("meet", op)):
                if brute_join(q, i, j) is None:
                    return (p.labels[i], p.labels[j]), which
    return None


def test_from_poset_accepts_exactly_the_lattices():
    """Over every labelled poset on up to 5 points, from_poset accepts the
    posets the brute-force scan calls lattices, and otherwise names the
    scan's first failing pair and bound."""
    for n in range(6):
        labels = [f"e{i}" for i in range(n)]
        for rows in labelled_posets_by_extension(n):
            p = Poset(labels, rows)
            expected = brute_first_missing_bound(p)
            try:
                t = Lattice.from_poset(p)
            except NotALattice as e:
                assert (e.pair, e.which) == expected
                if n:
                    assert str(e) == f"{e.pair[0]} and {e.pair[1]} have no {e.which}"
            else:
                assert expected is None and t.poset is p


def test_join_meet_match_brute_force():
    for t in corpus_lattices(8):
        p, op = t.poset, t.poset.opposite()
        for i in range(t.n):
            for j in range(t.n):
                assert t.join(i, j) == brute_join(p, i, j)
                assert t.meet(i, j) == brute_join(op, i, j)


def test_not_a_lattice_reports_offending_pair(vee):
    with pytest.raises(NotALattice) as e:
        Lattice.from_poset(vee)
    assert e.value.pair == ("a", "b")
    assert e.value.which == "meet"
    with pytest.raises(NotALattice):
        Lattice.from_poset(Poset([], []))
    with pytest.raises(NotALattice):
        Lattice.from_poset(antichain(2))


def test_bottom_top_and_empty_operations(twelve):
    assert twelve.poset.labels[twelve.bottom] == "bot"
    assert twelve.poset.labels[twelve.top] == "top"
    assert twelve.join_mask(0) == twelve.bottom
    assert twelve.meet_mask(0) == twelve.top


def test_twelve_irreducibles(twelve):
    labels = {twelve.poset.labels[i] for i in bit_indices(twelve.irr_mask)}
    assert labels == {"H", "I", "E", "G", "F", "A", "B"}
    e = induced_subposet(twelve.poset, twelve.irr_mask)
    assert set(e.labels) == labels
    assert e.leq(e.index("H"), e.index("F"))
    assert not e.leq(e.index("E"), e.index("F"))


def test_lambda_e_on_twelve(twelve):
    got = {twelve.poset.labels[i] for i in bit_indices(lambda_e(twelve))}
    assert got == {"bot", "H", "I", "E", "F", "G", "A", "B", "top"}


def test_operator_traces_on_twelve(twelve):
    p = twelve.poset

    def idx(lab):
        return p.index(lab)

    assert twelve.sigma_table[idx("H")] == idx("F")
    assert twelve.sigma_table[idx("C")] == idx("A")
    assert sigma_inf(twelve, idx("C")) == idx("top")
    assert twelve.r_table[idx("F")] == idx("M")
    assert r_inf(twelve, idx("F")) == idx("M")
    assert r_inf(twelve, sigma_inf(twelve, idx("M"))) == idx("M")
    assert r_inf(twelve, sigma_inf(twelve, idx("C"))) != idx("C")


def test_operators_are_monotone_shifts():
    """sigma never moves down, r never moves up, and both are idempotent
    at their fixpoints."""
    for t in corpus_lattices(4):
        for x in range(t.n):
            s = sigma_inf(t, x)
            assert t.poset.leq(x, s)
            assert sigma_inf(t, s) == s
            r = r_inf(t, x)
            assert t.poset.leq(r, x)
            assert r_inf(t, r) == r


def scan_sup(p: Poset, mask: int) -> int:
    """The least upper bound of mask, found by scanning every element."""
    ub = mask_of(x for x in range(p.n) if mask & ~p.down[x] == 0)
    (least,) = [x for x in bit_indices(ub) if ub & ~p.up[x] == 0]
    return least


def check_operators_by_definition(t: Lattice) -> None:
    """irr_mask, r, σ, their fixpoints, ΛE and G♯ equal their definitions,
    with every join and meet found by scan_sup and every fixpoint by
    applying the one-step operator until it stops moving."""
    p, op = t.poset, t.poset.opposite()
    covers_down = transpose(p.covers_up, p.n)
    irr = mask_of(i for i in range(t.n) if covers_down[i].bit_count() == 1)
    assert t.irr_mask == irr

    def r(x):
        return scan_sup(p, irr & p.strict_down(x))

    def sigma(x):
        return scan_sup(op, irr & p.strict_up(x))

    def iterate(step, x):
        while step(x) != x:
            x = step(x)
        return x

    sigma_fix = [iterate(sigma, x) for x in range(t.n)]
    for x in range(t.n):
        assert t.r_table[x] == r(x)
        assert t.sigma_table[x] == sigma(x)
        assert r_inf(t, x) == iterate(r, x)
        assert sigma_inf(t, x) == sigma_fix[x]
    assert lambda_e(t) == mask_of(
        x for x in range(t.n) if scan_sup(op, irr & p.up[x]) == x
    )
    assert g_sharp(t) == mask_of(
        x for x in range(t.n) if iterate(r, sigma_fix[x]) == x
    )


def test_operator_tables_match_definitions():
    for t in corpus_lattices(8):
        check_operators_by_definition(t)


@settings(deadline=None)
@given(random_dags(max_n=12))
def test_operator_tables_match_definitions_on_closures(dag):
    p = Poset.from_relations(*dag)
    check_operators_by_definition(Lattice.from_poset(germ_closure(p).poset))


def test_lower_set_lattice_of_vee(vee):
    lsl = lower_set_lattice(vee)
    assert lsl.n == 5
    assert sorted(m.bit_count() for m in lsl.element_masks) == [0, 1, 1, 2, 3]
    assert lsl.poset.labels[lsl.bottom] == "{}"
    assert lsl.poset.labels[lsl.top] == "{a,b,c}"


def test_lower_set_lattice_of_chain_and_antichain():
    assert lower_set_lattice(chain(4)).n == 5
    assert lower_set_lattice(antichain(3)).n == 8
    with pytest.raises(CapExceeded):
        lower_set_lattice(antichain(4), cap=10)


def test_default_lower_set_cap_stops_one_point_past_it(monkeypatch):
    """An antichain on k points has 2**k lower sets: the largest k within
    the default cap is counted in full, and one more point raises before
    any inclusion order is built."""
    k = DEFAULT_LOWER_SET_CAP.bit_length() - 1
    assert len(down_closed_masks(antichain(k).down, DEFAULT_LOWER_SET_CAP)) == 1 << k
    monkeypatch.setattr("germclosure.lattice.inclusion_poset", None)
    with pytest.raises(CapExceeded):
        lower_set_lattice(antichain(k + 1))


def test_lower_set_lattice_join_is_union(npos):
    lsl = lower_set_lattice(npos)
    masks = lsl.element_masks
    by_mask = {m: i for i, m in enumerate(masks)}
    for i in range(lsl.n):
        for j in range(lsl.n):
            assert lsl.join(i, j) == by_mask[masks[i] | masks[j]]
            assert lsl.meet(i, j) == by_mask[masks[i] & masks[j]]


SMALL_LATTICES = [t for n in range(6) for t in enumerate_lattices(n)]


@given(st.data())
def test_lattice_laws(data):
    t = data.draw(st.sampled_from(SMALL_LATTICES))
    x = data.draw(st.integers(0, t.n - 1))
    y = data.draw(st.integers(0, t.n - 1))
    z = data.draw(st.integers(0, t.n - 1))
    assert t.join(x, y) == t.join(y, x)
    assert t.meet(x, y) == t.meet(y, x)
    assert t.join(x, t.meet(x, y)) == x
    assert t.meet(x, t.join(x, y)) == x
    assert t.join(x, t.join(y, z)) == t.join(t.join(x, y), z)
    assert t.meet(x, t.meet(y, z)) == t.meet(t.meet(x, y), z)


def test_irreducibles_of_lower_set_lattice_recover_the_poset(npos, vee):
    """Down-set lattices are distributive, so the irreducibles give the
    original poset back."""
    for p in (npos, vee, chain(3), antichain(3)):
        lsl = lower_set_lattice(p)
        e = induced_subposet(lsl.poset, lsl.irr_mask)
        from germclosure import isomorphisms

        assert isomorphisms(e, p, limit=1)


def test_cached_bottom_top_and_irreducibles_match_recomputation():
    """bottom, top and irr_mask are cached per lattice; on every lattice
    of up to 8 elements they equal a fresh computation from the order."""
    for t in corpus_lattices(8):
        p = t.poset
        covers_down = transpose(p.covers_up, p.n)
        irr = mask_of(i for i in range(t.n) if covers_down[i].bit_count() == 1)
        for _ in range(2):
            assert t.bottom == p.inf_of(p.full_mask)
            assert t.top == p.sup_of(p.full_mask)
            assert t.irr_mask == irr
        assert {"bottom", "top", "irr_mask"} <= set(vars(t))
