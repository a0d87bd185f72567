"""Dimension arithmetic against independent oracles: closed forms, a
brute-force surjection counter, and the divisibility sweep."""

import itertools
import random

import pytest
from hypothesis import given, strategies as st

from germclosure import (
    DimQuery,
    DivisibilityViolation,
    Poset,
    antichain,
    chain,
    dimension,
    dimension_table,
    enumerate_posets,
    g_size,
    germ_closure,
    germs_within,
)
import germclosure.poset
import germclosure.repdim
from germclosure.closure import _cuts
from germclosure.poset import intersect_rows
from germclosure.repdim import alternating_sum, evaluate
from oracles import relabelled


def maps_covering(n_e: int, g: int, x: int) -> int:
    """Brute force: maps from an x-set to a g-set whose image contains a
    fixed n_e-subset."""
    required = set(range(n_e))
    return sum(
        1
        for f in itertools.product(range(g), repeat=x)
        if required <= set(f)
    )


@pytest.mark.parametrize("n_e", range(4))
@pytest.mark.parametrize("g", range(4, 6))
@pytest.mark.parametrize("x", range(5))
def test_alternating_sum_counts_covering_maps(n_e, g, x):
    assert alternating_sum(n_e, g, x) == maps_covering(n_e, g, x)


def test_alternating_sum_handles_negative_bases():
    # i runs past g, so (g - i) dips negative; exactness matters
    assert alternating_sum(3, 2, 2) == 4 - 3 * 1 + 3 * 0 - 1
    assert alternating_sum(2, 0, 3) == 0 - 2 * (-1) + (-8)


def test_g_sizes():
    assert g_size(Poset([], [])) == 1
    for n in range(1, 6):
        assert g_size(chain(n)) == n + 1
    for n in range(2, 6):
        assert g_size(antichain(n)) == n + 2


def test_dimension_empty_poset():
    assert dimension_table(Poset([], []), 10) == [1] * 11


def test_dimension_point_is_nonempty_subsets():
    assert dimension_table(chain(1), 8) == [2**x - 1 for x in range(9)]


def test_dimension_two_antichain_by_hand():
    # |G| = 4, |Aut| = 2: (4^2 - 2*3^2 + 2^2) / 2 = (16 - 18 + 4) / 2
    assert dimension(DimQuery(antichain(2), 2)) == 1


def test_dimension_at_x_zero():
    assert dimension(DimQuery(Poset([], []), 0, 5)) == 5
    for p in (chain(2), antichain(3)):
        assert dimension(DimQuery(p, 0)) == 0


@given(st.integers(1, 5), st.integers(0, 5))
def test_dimension_scales_linearly_in_dim_v(k, x):
    q1 = dimension(DimQuery(antichain(2), x, 1))
    qk = dimension(DimQuery(antichain(2), x, k))
    assert qk == k * q1


def check_opposite_closure_size(p: Poset) -> None:
    """The three steps of the repdim docstring's proof that
    |G(Pᵒᵖ)| = |G(P)|, checked on p."""
    full = p.full_mask
    cuts, opposite_cuts = _cuts(p.down, full), _cuts(p.up, full)
    upper = {x: intersect_rows(p.up, x, full) for x in cuts}
    assert sorted(upper.values()) == sorted(opposite_cuts)
    assert all(intersect_rows(p.down, y, full) == x for x, y in upper.items())
    swapped = sorted((v, u) for u, v in germs_within(p.up, p.down, full))
    assert germs_within(p.down, p.up, full) == swapped
    assert germ_closure(p).n == len(cuts) + len(swapped) == germ_closure(p.opposite()).n


def test_opposite_has_the_same_closure_size():
    """On every poset of up to 7 points and a seeded relabelling of each
    one up to 6, whose index order need not be a linear extension."""
    rng = random.Random(11)
    for n in range(8):
        for p in enumerate_posets(n):
            check_opposite_closure_size(p)
            if n < 7:
                perm = list(range(n))
                rng.shuffle(perm)
                check_opposite_closure_size(relabelled(p, perm))


def test_query_validation(vee):
    with pytest.raises(ValueError):
        DimQuery(vee, -1)
    with pytest.raises(ValueError):
        DimQuery(vee, 0, 0)


def test_divisibility_sweep_small():
    for n in range(5):
        for p in enumerate_posets(n):
            for x in range(6):
                dimension(DimQuery(p, x))


def test_evaluate_checks_divisibility_per_value():
    # one point, |G| = 2: 2**3 - 1 = 7 maps, which an |Aut| of 2 cannot divide
    assert evaluate(DimQuery(chain(1), 3), 2, 1) == 7
    with pytest.raises(DivisibilityViolation):
        evaluate(DimQuery(chain(1), 3), 2, 2)


def count_closures_and_chains(monkeypatch) -> list:
    """Wrap the closure and stabilizer-chain builders behind g_size and
    automorphism_count; each build appends its name to the returned list."""
    built = []

    def count(module, name):
        fn = getattr(module, name)

        def counted(p):
            built.append(name)
            return fn(p)

        monkeypatch.setattr(module, name, counted)

    count(germclosure.repdim, "germ_closure")
    count(germclosure.poset, "stabilizer_chain")
    return built


def test_dimension_table_closes_once(monkeypatch):
    built = count_closures_and_chains(monkeypatch)
    for x_max in (2, 30):
        built.clear()
        assert len(dimension_table(antichain(10), x_max)) == x_max + 1
        assert sorted(built) == ["germ_closure", "stabilizer_chain"]


def test_divisibility_violation_is_loud():
    err = DivisibilityViolation(7, 2)
    assert "7" in str(err) and "2" in str(err)


def test_values_grow_exactly():
    """Spot a big exact value: no floats can sneak in."""
    val = dimension(DimQuery(antichain(3), 30))
    assert val == (5**30 - 3 * 4**30 + 3 * 3**30 - 2**30) // 6
    assert isinstance(val, int)
