"""Germ extensibility inside lattices: the join map, G_T, unique bases,
and the interval partition of the power set."""

import pytest
from hypothesis import given, settings, strategies as st

import germclosure.closure
import germclosure.embed
import germclosure.germs
import germclosure.harness
from germclosure import (
    CapExceeded,
    CorpusSpec,
    Lattice,
    Poset,
    alpha,
    antichain,
    chain,
    corpus,
    irr_closure_equals_g_t,
    enumerate_lattices,
    g_sharp,
    g_t,
    germ_closure,
    is_germ_extensible,
    lambda_e,
    lower_set_lattice,
    run_suite,
    unique_base,
    verify_partition,
)
from germclosure.embed import PARTITION_SIZE_CAP, drop_sets
from germclosure.germs import germs_within
from germclosure.poset import bit_indices, mask_of
from test_poset import random_dags

# closure lattices of random orders, small enough to partition
closure_lattices = (
    random_dags(max_n=12)
    .map(lambda data: Lattice.from_poset(germ_closure(Poset.from_relations(*data)).poset))
    .filter(lambda t: t.n <= PARTITION_SIZE_CAP)
)


def labels_of(t: Lattice, mask: int) -> set[str]:
    return {t.poset.labels[i] for i in bit_indices(mask)}


def test_nu_joins_shadows(twelve):
    p = twelve.poset
    res = is_germ_extensible(twelve, p.subset(["H", "I"]))
    nu_of = dict(zip(res.masks, res.nu_image))
    assert nu_of[p.subset(["H", "I"])] == p.index("M")
    assert nu_of[0] == p.index("bot")


def test_irreducibles_of_twelve_are_extensible(twelve):
    res = is_germ_extensible(twelve, twelve.irr_mask)
    assert res.extensible
    assert res.violating_germs == ()
    assert len(res.masks) == 10
    assert labels_of(twelve, res.g_bar) == {
        "bot", "H", "I", "M", "E", "F", "G", "A", "B", "top",
    }


def test_adding_bot_breaks_extensibility(twelve):
    p = twelve.poset
    res = is_germ_extensible(twelve, twelve.irr_mask | 1 << p.index("bot"))
    assert not res.extensible
    assert res.g_bar is None
    assert [p.labels[i] for i in res.violating_germs] == ["bot"]


def test_extensible_rejects_foreign_subset(twelve):
    for mask in (1 << twelve.n, -1):
        with pytest.raises(ValueError):
            is_germ_extensible(twelve, mask)


def test_g_families_on_twelve(twelve):
    assert labels_of(twelve, g_sharp(twelve) & ~lambda_e(twelve)) == {"M"}
    assert labels_of(twelve, g_t(twelve)) == {
        "bot", "H", "I", "M", "E", "F", "G", "A", "B", "top",
    }
    sharp = labels_of(twelve, g_sharp(twelve))
    assert "C" not in sharp and "D" not in sharp


def test_irr_closure_equals_g_t_on_examples(twelve):
    assert irr_closure_equals_g_t(twelve)
    assert irr_closure_equals_g_t(Lattice.from_poset(chain(4)))
    for n in range(1, 6):
        for t in enumerate_lattices(n):
            assert irr_closure_equals_g_t(t)


def test_alpha_inverts_nu_on_twelve(twelve):
    res = is_germ_extensible(twelve, twelve.irr_mask)
    for i, m in enumerate(res.masks):
        assert alpha(twelve, twelve.irr_mask, res.nu_image[i]) == m


def test_unique_base_of_full_twelve(twelve):
    base = unique_base(twelve, twelve.poset.full_mask)
    assert labels_of(twelve, base.subset) == {
        "H", "I", "E", "F", "G", "C", "D", "A", "B",
    }


def test_unique_base_is_identity_on_extensible_sets(twelve):
    assert unique_base(twelve, twelve.irr_mask).subset == twelve.irr_mask


def test_unique_base_rejects_foreign_subset(twelve):
    for mask in (1 << twelve.n, -1):
        with pytest.raises(ValueError):
            unique_base(twelve, mask)


def test_partition_of_two_chain():
    t = Lattice.from_poset(chain(2))
    cells = verify_partition(t)
    assert len(cells) == 2
    assert {(frozenset(), 2), (frozenset({"u2"}), 2)} == {
        (frozenset(labels_of(t, c.base_mask)), len(c.members)) for c in cells
    }


def test_partition_counts(twelve):
    cells = verify_partition(twelve)
    assert sum(len(c.members) for c in cells) == 1 << 12
    for cell in cells:
        assert len(cell.members) == 1 << (
            cell.top_mask.bit_count() - cell.base_mask.bit_count()
        )


def test_partition_bases_are_exactly_the_extensible_sets(twelve):
    """Cross-check the cell bases against a direct extensibility filter
    over all 4096 subsets."""
    cells = verify_partition(twelve)
    bases = {c.base_mask for c in cells}
    direct = {
        m
        for m in range(1 << twelve.n)
        if is_germ_extensible(twelve, m).extensible
    }
    assert bases == direct


def test_partition_cap():
    big = Lattice.from_poset(chain(13))
    with pytest.raises(CapExceeded):
        verify_partition(big)


def test_membership_in_own_cell(twelve):
    cells = verify_partition(twelve)
    for cell in cells:
        assert cell.base_mask in cell.members
        assert cell.top_mask in cell.members
        for m in cell.members:
            assert cell.base_mask & ~m == 0
            assert m & ~cell.top_mask == 0


def test_nu_not_injective_without_criterion():
    """In the four-chain, the subset {top} misses the middle: its closure
    has two elements mapping apart, but {u1} collapses."""
    t = Lattice.from_poset(chain(2))
    res = is_germ_extensible(t, t.poset.subset(["u1"]))
    assert not res.extensible
    assert len(set(res.nu_image)) < len(res.masks)


def test_gbar_members_on_lower_set_lattice(npos):
    """Inside I-down(U) the embedded copy of U is extensible and its
    G-bar is the image of the whole closure."""
    lsl = lower_set_lattice(npos)
    principal = mask_of(
        i
        for i, m in enumerate(lsl.element_masks)
        if any(m == npos.down[k] for k in range(npos.n))
    )
    res = is_germ_extensible(lsl, principal)
    assert res.extensible
    assert res.g_bar.bit_count() == 6


def test_partition_matches_brute_force_base_search():
    """On every lattice of up to 6 elements, each subset S lies in
    exactly one interval [U, Ḡ(U)] with U germ extensible, found by
    searching all U ⊆ S; verify_partition puts S in that cell, and
    unique_base(t, S) returns its U and Ḡ(U)."""
    for n in range(1, 7):
        for t in enumerate_lattices(n):
            g_bar = {}
            for u in range(1 << n):
                res = is_germ_extensible(t, u)
                if res.extensible:
                    g_bar[u] = res.g_bar
            expected = {}
            for s in range(1 << n):
                found = [u for u in g_bar if u & ~s == 0 and s & ~g_bar[u] == 0]
                assert len(found) == 1
                expected[s] = (found[0], g_bar[found[0]])
            got = {
                m: (cell.base_mask, cell.top_mask)
                for cell in verify_partition(t)
                for m in cell.members
            }
            assert got == expected
            for s, cell in got.items():
                res = unique_base(t, s)
                assert (res.subset, res.g_bar) == cell


def dropped_by_germ_removal(t: Lattice, s_mask: int) -> int:
    """The germs r of S with r = ∨_T (S ∩ ]*,r[), one subset at a time."""
    up, down = t.poset.up, t.poset.down
    return mask_of(
        r for r, _ in germs_within(up, down, s_mask)
        if t.join_mask(s_mask & down[r] & ~(1 << r)) == r
    )


def check_drop_sets(t: Lattice) -> None:
    drop = drop_sets(t)
    assert len(drop) == t.n
    for s in range(1 << t.n):
        got = mask_of(r for r in range(t.n) if drop[r] >> s & 1)
        assert got == dropped_by_germ_removal(t, s), (t.poset, s)


def test_drop_sets_match_germ_removal(twelve):
    """Bit S of drop[r] is set exactly when germ removal drops r from S,
    on every lattice of up to 7 elements and on twelve."""
    for n in range(1, 8):
        for t in enumerate_lattices(n):
            check_drop_sets(t)
    check_drop_sets(twelve)


@settings(deadline=None)
@given(closure_lattices)
def test_drop_sets_match_germ_removal_on_closure_lattices(t):
    check_drop_sets(t)


@settings(deadline=None)
@given(closure_lattices, st.integers(min_value=0, max_value=(1 << PARTITION_SIZE_CAP) - 1))
def test_nu_criterion_on_closure_lattices(t, bits):
    """U is germ extensible exactly when ν is injective on G(U), and the
    germs that break it are those germ removal drops from U."""
    u_mask = bits & t.poset.full_mask
    res = is_germ_extensible(t, u_mask)
    assert res.extensible == (len(set(res.nu_image)) == len(res.masks))
    drop = drop_sets(t)
    assert res.violating_germs == tuple(r for r in range(t.n) if drop[r] >> u_mask & 1)


def test_partition_predicate_closes_each_cell_once(monkeypatch):
    """The partition predicate reads the whole lattice's base from its
    cell, so over the lattices up to 6 elements it closes each of the
    468 cells once and no base a second time."""
    lattices = CorpusSpec(6, "lattices")
    cells = sum(len(verify_partition(t)) for t in corpus(lattices))
    calls = []
    real_extensible = germclosure.embed.is_germ_extensible

    def counted_extensible(t, u_mask):
        calls.append(u_mask)
        return real_extensible(t, u_mask)

    for module in (germclosure.embed, germclosure.harness):
        monkeypatch.setattr(module, "is_germ_extensible", counted_extensible)
    [report] = run_suite(lattices, ["partition"])
    assert report.ok
    assert len(calls) == cells == 468


def test_partition_closes_each_base_once(twelve, monkeypatch):
    """verify_partition closes each of twelve's 1,044 bases once and
    finds no germs outside those closures: no subset is walked alone."""
    closing = False
    calls = {"closures": 0, "inside": 0, "outside": 0}
    real_extensible = germclosure.embed.is_germ_extensible

    def counted_extensible(t, u_mask):
        nonlocal closing
        calls["closures"] += 1
        closing = True
        try:
            return real_extensible(t, u_mask)
        finally:
            closing = False

    def watched(real):
        def germs_within(*args):
            calls["inside" if closing else "outside"] += 1
            return real(*args)
        return germs_within

    monkeypatch.setattr(germclosure.embed, "is_germ_extensible", counted_extensible)
    for module in (germclosure.germs, germclosure.closure):
        monkeypatch.setattr(module, "germs_within", watched(module.germs_within))
    cells = verify_partition(twelve)
    assert calls["closures"] == len(cells) == 1044
    assert calls["inside"] > 0
    assert calls["outside"] == 0
