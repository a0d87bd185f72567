"""Germ detection against a naive set-based oracle, plus the germ
extension predicates."""

import pytest
from hypothesis import given, settings, strategies as st

from germclosure import (
    GermCutCase,
    LambdaCase,
    NotAGermExtension,
    Poset,
    antichain,
    chain,
    detects,
    enumerate_lattices,
    enumerate_posets,
    germ_closure,
    germs_within,
    grm,
    grm_mask,
    is_germ_extension,
)
from germclosure.germs import cogerms_within, germ_cut_witness, lambda_witness
from germclosure.poset import bit_indices, mask_of
from oracles import classify, induced_subposet, is_germ
from test_poset import random_dags


def corpus_posets(max_n=5):
    return [p for n in range(max_n + 1) for p in enumerate_posets(n)]


def naive_germs(p: Poset) -> dict[str, set[str]]:
    """Oracle: the definition transcribed over label sets, no bitmask
    tricks shared with the implementation."""
    els = list(p.labels)

    def leq(a, b):
        return p.leq(p.index(a), p.index(b))

    def sup(subset):
        ubs = [x for x in els if all(leq(s, x) for s in subset)]
        least = [x for x in ubs if all(leq(x, y) for y in ubs)]
        return least[0] if least else None

    def inf(subset):
        lbs = [x for x in els if all(leq(x, s) for s in subset)]
        greatest = [x for x in lbs if all(leq(y, x) for y in lbs)]
        return greatest[0] if greatest else None

    found: dict[str, set[str]] = {}
    for u in els:
        below_u = {x for x in els if leq(x, u) and x != u}
        if sup(below_u) != u:
            continue
        for v in els:
            if not leq(u, v):
                continue
            above_v = {x for x in els if leq(v, x) and x != v}
            if inf(above_v) != v:
                continue
            seg = {x for x in els if leq(u, x) and leq(x, v)}
            above_u = {x for x in els if leq(u, x)}
            below_v = {x for x in els if leq(x, v)}
            if above_u != seg | above_v or seg & above_v:
                continue
            if below_v != below_u | seg or below_u & seg:
                continue
            if any(not (leq(x, y) or leq(y, x)) for x in seg for y in seg):
                continue
            found.setdefault(u, set()).add(v)
    return found


def test_grm_matches_naive_oracle_exhaustively():
    lattices = [t.poset for n in range(8) for t in enumerate_lattices(n)]
    for p in corpus_posets(6) + lattices:
        oracle = naive_germs(p)
        got = {rec.labels()[0]: {rec.labels()[1]} for rec in grm(p)}
        assert got == oracle, f"disagreement on {p!r}"


def test_oracle_never_sees_two_cogerms():
    for p in corpus_posets():
        for u, vs in naive_germs(p).items():
            assert len(vs) == 1, f"{u} has cogerms {vs} in {p!r}"


def test_chain_germs():
    """A chain has exactly one germ: the bottom, cogerm the top, the
    whole chain connecting them."""
    for n in range(1, 6):
        recs = grm(chain(n))
        assert len(recs) == 1
        assert recs[0].labels() == ("u1", f"u{n}")
        assert recs[0].chain == tuple(range(n))


def test_antichain_has_no_germs():
    for n in range(2, 6):
        assert grm(antichain(n)) == ()
    assert len(grm(antichain(1))) == 1


def test_example_posets(vee, wedge, npos):
    assert [r.labels() for r in grm(vee)] == [("c", "c")]
    assert [r.labels() for r in grm(wedge)] == [("c", "c")]
    assert grm(npos) == ()


def test_twelve_element_lattice_has_three_germs(twelve):
    got = {rec.labels() for rec in grm(twelve.poset)}
    assert got == {("bot", "bot"), ("M", "F"), ("top", "top")}


def test_sup_and_inf_fixpoint_forces_self_cogerm():
    """An element that is both the sup of what lies strictly below it and
    the inf of what lies strictly above it is a germ, its own cogerm."""
    checked = 0
    for p in corpus_posets(4):
        for u in range(p.n):
            if p.sup_of(p.strict_down(u)) != u:
                continue
            if p.inf_of(p.strict_up(u)) != u:
                continue
            rec = is_germ(p, u)
            assert rec is not None and rec.cogerm == u
            checked += 1
    assert checked > 0


def test_germ_cogerm_swaps_under_opposite():
    """Cogerms of a poset are the germs of its opposite, with the roles
    of u and v exchanged, bijectively."""
    for p in corpus_posets(4):
        forward = {(r.germ, r.cogerm) for r in grm(p)}
        backward = {(r.cogerm, r.germ) for r in grm(p.opposite())}
        assert forward == backward


def test_cogerm_candidates_public_contract(vee):
    assert cogerms_within(vee.up, vee.down, vee.full_mask, vee.index("c")) == [vee.index("c")]
    assert cogerms_within(vee.up, vee.down, vee.full_mask, vee.index("a")) == []


def test_detects():
    c2 = chain(2)
    assert detects(c2, c2.subset(["u2"]))
    assert not detects(c2, c2.subset(["u1"]))
    assert detects(c2, c2.subset(["u1", "u2"]))
    a2 = antichain(2)
    assert not detects(a2, a2.subset(["u1"]))


def _detects_pairwise(p: Poset, u_mask: int) -> bool:
    """detects by its definition: s <= t iff U_{<=s} ⊆ U_{<=t}, one pair
    at a time."""
    shadows = [u_mask & p.down[s] for s in range(p.n)]
    return all(
        p.leq(s, t) == (shadows[s] & ~shadows[t] == 0)
        for s in range(p.n)
        for t in range(p.n)
    )


@settings(deadline=None)
@given(random_dags(max_n=10), st.integers(min_value=0, max_value=(1 << 10) - 1))
def test_detects_matches_pairwise_definition(data, bits):
    p = Poset.from_relations(*data)
    mask = bits & p.full_mask
    assert detects(p, mask) == _detects_pairwise(p, mask)


def test_is_germ_extension(vee):
    c2 = chain(2)
    assert is_germ_extension(vee, vee.subset(["a", "b"]))
    assert is_germ_extension(vee, vee.subset(["a", "b", "c"]))
    assert not is_germ_extension(vee, vee.subset(["a"]))
    assert is_germ_extension(c2, c2.subset(["u2"]))
    assert not is_germ_extension(c2, c2.subset(["u1"]))


def test_every_poset_extends_itself():
    for p in corpus_posets(4):
        assert is_germ_extension(p, p.full_mask)


def test_classify_cases(vee):
    u = vee.subset(["a", "b"])
    # the shadow of c is all of U, the cut with empty witness
    case = classify(vee, u, vee.index("c"))
    assert isinstance(case, LambdaCase)
    assert case.witness == 0
    case = classify(vee, u, vee.index("a"))
    assert isinstance(case, LambdaCase)
    assert case.witness == mask_of([vee.index("a")])


def test_classify_finds_germ_cuts():
    """With s strictly between the base and the germ's cogerm, the shadow
    of s is the strict cut of a base germ."""
    s = Poset.from_relations(
        ["a", "b", "s", "c"], [("a", "s"), ("b", "s"), ("s", "c")]
    )
    u = s.subset(["a", "b", "c"])
    assert is_germ_extension(s, u)
    case = classify(s, u, s.index("s"))
    assert isinstance(case, GermCutCase)
    assert case.germ == s.index("c")


def test_classify_picks_largest_witness():
    c3 = chain(3)
    u = c3.subset(["u2", "u3"])
    case = classify(c3, u, c3.index("u2"))
    assert isinstance(case, LambdaCase)
    # u2 is below both base elements, so the witness keeps them both
    assert case.witness == u
    # the bottom of the chain shows the germ-cut shape instead
    case = classify(c3, u, c3.index("u1"))
    assert isinstance(case, GermCutCase)
    assert case.germ == c3.index("u2")


def test_classify_rejects_non_extension():
    c2 = chain(2)
    with pytest.raises(NotAGermExtension):
        classify(c2, c2.subset(["u1"]), c2.index("u2"))


@pytest.mark.parametrize("mask", [-1, 1 << 2, 1 << 5 | 2])
@pytest.mark.parametrize(
    "call",
    [
        detects,
        is_germ_extension,
        lambda p, m: lambda_witness(p, m, 0),
        lambda p, m: germ_cut_witness(p, m, 0),
        lambda p, m: classify(p, m, 0),
    ],
    ids=["detects", "is_germ_extension", "lambda_witness", "germ_cut_witness", "classify"],
)
def test_foreign_masks_raise(call, mask):
    with pytest.raises(ValueError):
        call(chain(2), mask)


def test_witnesses_are_exclusive_on_extensions(vee, wedge):
    for s, base in [(vee, ["a", "b"]), (wedge, ["a", "b"]), (chain(3), ["u2", "u3"])]:
        u = s.subset(base)
        assert is_germ_extension(s, u)
        for t in range(s.n):
            lam = lambda_witness(s, u, t)
            cut = germ_cut_witness(s, u, t)
            assert (lam is None) != (cut is None)


def test_grm_mask_agrees_with_records(npos, vee):
    assert grm_mask(npos) == 0
    assert grm_mask(vee) == mask_of([vee.index("c")])
    for p in corpus_posets(3):
        assert grm_mask(p) == mask_of(r.germ for r in grm(p))


@settings(deadline=None)
@given(random_dags(max_n=12), st.integers(min_value=0, max_value=(1 << 12) - 1))
def test_germs_within_matches_grm_of_subposet(data, bits):
    """The masked germ finder on ambient rows agrees with grm of the
    induced subposet, mapped back to ambient indices. Both sides run the
    same walk; the scan comparisons above are what check it."""
    p = Poset.from_relations(*data)
    mask = bits & p.full_mask
    keep = list(bit_indices(mask))
    expected = [(keep[r.germ], keep[r.cogerm]) for r in grm(induced_subposet(p, mask))]
    assert germs_within(p.up, p.down, mask) == expected


def _scanned_germs(up, down, mask):
    """(germ, cogerm) from the definitional scan over every v, one pair
    per cogerm found."""
    return [(u, v) for u in bit_indices(mask) for v in cogerms_within(up, down, mask, u)]


@st.composite
def ordinal_sums(draw, max_points=64):
    """Ordinal sums of antichains of width 1 to 3, with runs of singleton
    levels, so bridge paths run long; labels shuffled so indices are not
    a linear extension. A single run is a chain."""
    runs = draw(st.lists(st.tuples(st.integers(1, 3), st.integers(1, 12)), max_size=12))
    widths = [width for width, run in runs for _ in range(run if width == 1 else 1)]
    while sum(widths) > max_points:
        widths.pop()
    levels = [[f"l{k}_{i}" for i in range(w)] for k, w in enumerate(widths)]
    rels = [(a, b) for lo, hi in zip(levels, levels[1:]) for a in lo for b in hi]
    return draw(st.permutations([a for level in levels for a in level])), rels


def _closure_lattice(data) -> Poset:
    return germ_closure(Poset.from_relations(*data)).poset


@settings(deadline=None, max_examples=200)
@given(
    st.one_of(
        random_dags(max_n=12).map(lambda data: Poset.from_relations(*data)),
        ordinal_sums().map(lambda data: Poset.from_relations(*data)),
        random_dags(max_n=6).map(_closure_lattice),
    ),
    st.integers(min_value=0, max_value=(1 << 64) - 1),
)
def test_germs_within_matches_definitional_scan(p, bits):
    """The bridge walk finds the germs and cogerms the scan over every v
    finds: on random orders, on long chains of bridges and on closure
    lattices, each whole, without its germs, and on a random subset."""
    for mask in (p.full_mask, p.full_mask & ~grm_mask(p), bits & p.full_mask):
        assert germs_within(p.up, p.down, mask) == _scanned_germs(p.up, p.down, mask)


def test_grm_cache_is_bounded():
    assert grm.cache_info().maxsize is not None
