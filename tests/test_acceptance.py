"""Acceptance run: seven end-to-end criteria, one verdict line each.

Run with `python3 -m pytest tests/test_acceptance.py -v -s` to see the
PASS/FAIL lines and timings on the terminal.
"""

import io
import time
from contextlib import redirect_stdout
from pathlib import Path

from germclosure.cli import main
from germclosure.closure import germ_closure
from germclosure.embed import verify_partition
from germclosure.enumeration import (
    LATTICE_SIZE_CAP,
    POSET_SIZE_CAP,
    CorpusSpec,
    corpus,
    enumerate_lattices,
    enumerate_posets,
    iso_classes,
    labelled_posets_by_extension,
)
from germclosure.errors import DivisibilityViolation
from germclosure.germs import grm
from germclosure.harness import PREDICATES, run_suite
from germclosure.poset import Poset, antichain, chain, set_label
from germclosure.repdim import DimQuery, dimension

from oracles import labelled_posets_by_filtering
from test_cli import GOLDEN_CASES

EXPECTED = Path(__file__).parent / "golden" / "expected"


def _verdict(number: int, ok: bool, label: str) -> None:
    print(f"\nACCEPTANCE {number} {'PASS' if ok else 'FAIL'}: {label}")
    assert ok, label


def _closure_labels(p: Poset) -> set[str]:
    clos = germ_closure(p)
    return {set_label(p, m) for m in clos.masks}


def test_criterion_1_worked_examples():
    """Every worked example reproduces its frozen structure and every
    recorded command output byte for byte, in under a second."""
    start = time.perf_counter()
    ok = True

    for n in range(1, 6):
        c = chain(n)
        recs = grm(c)
        ok &= [r.labels() for r in recs] == [("u1", f"u{n}")]
        ok &= germ_closure(c).n == n + 1
    for n in range(2, 6):
        a = antichain(n)
        ok &= grm(a) == ()
        ok &= germ_closure(a).n == n + 2

    vee = Poset.from_relations(["a", "b", "c"], [("a", "c"), ("b", "c")])
    ok &= _closure_labels(vee) == {"{}", "{a}", "{b}", "{a,b}", "{a,b,c}"}
    wedge = Poset.from_relations(["a", "b", "c"], [("c", "a"), ("c", "b")])
    ok &= _closure_labels(wedge) == {"{}", "{c}", "{a,c}", "{b,c}", "{a,b,c}"}
    npos = Poset.from_relations(
        ["x", "y", "z", "w"], [("z", "x"), ("w", "x"), ("w", "y")]
    )
    ok &= _closure_labels(npos) == {
        "{}", "{z}", "{w}", "{y,w}", "{x,z,w}", "{x,y,z,w}"
    }

    def replay(name: str, argv: list[str]) -> bool:
        buf = io.StringIO()
        with redirect_stdout(buf):
            code = main(argv)
        return code == 0 and buf.getvalue() == (EXPECTED / f"{name}.txt").read_text()

    # the 4096-subset partition is bulk work, checked outside the timer
    quick = [(n, a) for n, a in GOLDEN_CASES if n != "partition__twelve"]
    for name, argv in quick:
        ok &= replay(name, argv)

    elapsed = time.perf_counter() - start
    ok &= elapsed < 1.0
    for name, argv in GOLDEN_CASES:
        if name == "partition__twelve":
            ok &= replay(name, argv)
    _verdict(
        1,
        ok,
        f"worked examples and {len(GOLDEN_CASES)} recorded outputs reproduced,"
        f" {len(quick)} of them in {elapsed:.2f}s (budget 1s)",
    )


def test_criterion_2_fact_suite():
    """The full fact suite over all posets up to size 5 and lattices up
    to size 6 reports zero hard failures."""
    start = time.perf_counter()
    reports = run_suite([CorpusSpec(5, "posets"), CorpusSpec(6, "lattices")])
    elapsed = time.perf_counter() - start

    hard = [r for r in reports if not r.advisory]
    failures = sum(len(r.failures) for r in hard)
    checked = sum(r.checked for r in hard)
    ok = (
        failures == 0
        and len(reports) == len(PREDICATES)
        and all(r.checked > 0 for r in reports)
    )
    _verdict(
        2,
        ok,
        f"{len(hard)} predicates, {checked} instances, {failures} failures"
        f" in {elapsed:.1f}s (target 300s)",
    )


def test_criterion_3_partition_totals():
    """On every corpus lattice the interval sizes 2^(|G-bar(U)|-|U|)
    add up to 2^|T| exactly."""
    lattices = [t for n in range(1, 7) for t in enumerate_lattices(n)]
    ok = True
    for t in lattices:
        cells = verify_partition(t)
        total = sum(
            1 << (cell.top_mask.bit_count() - cell.base_mask.bit_count())
            for cell in cells
        )
        ok &= total == 1 << t.n
        seen = [m for cell in cells for m in cell.members]
        ok &= sorted(seen) == list(range(1 << t.n))
    _verdict(3, ok, f"interval partition exact on {len(lattices)} lattices")


def test_criterion_4_dimensions():
    """Dimension values match the closed forms on the degenerate shapes
    and the automorphism count always divides the alternating sum."""
    ok = True
    empty = Poset.from_relations([], [])
    ok &= all(dimension(DimQuery(empty, x)) == 1 for x in range(11))
    point = chain(1)
    ok &= all(dimension(DimQuery(point, x)) == (1 << x) - 1 for x in range(9))
    ok &= dimension(DimQuery(antichain(2), 2)) == 1

    swept = 0
    for n in range(6):
        for p in enumerate_posets(n):
            for x in range(7):
                for orientation in ("e", "eop"):
                    try:
                        dimension(DimQuery(p, x), orientation)
                    except DivisibilityViolation:
                        ok = False
                    swept += 1
    _verdict(4, ok, f"closed forms hold, divisibility clean on {swept} queries")


def test_criterion_5_enumeration_counts():
    """Both labelled generators and their reduction to isomorphism classes
    hit the published counts, as does the lattice filter."""
    labelled = [1, 1, 3, 19, 219, 4231]
    unlabelled = [1, 1, 2, 5, 16, 63]
    lattices = [0, 1, 1, 1, 2, 5, 15]
    ok = True
    for n in range(6):
        by_ext = list(labelled_posets_by_extension(n))
        by_filter = list(labelled_posets_by_filtering(n))
        ok &= len(by_ext) == len(by_filter) == labelled[n]
        ok &= sorted(by_ext) == sorted(by_filter)
        labels = list("abcdefgh"[:n])
        ok &= len(iso_classes(Poset(labels, up) for up in by_ext)) == unlabelled[n]
        ok &= len(enumerate_posets(n)) == unlabelled[n]
    for n in range(7):
        ok &= len(enumerate_lattices(n)) == lattices[n]
    _verdict(
        5,
        ok,
        f"labelled {labelled}, unlabelled {unlabelled}, lattices {lattices}",
    )


def test_criterion_6_duality_probe():
    """The opposite-poset probe finds no counterexample on any poset up
    to size 5."""
    specs = [CorpusSpec(5, "posets")]
    reports = run_suite(specs, predicates=["op-duality-probe"])
    (report,) = reports
    ok = report.checked == len(corpus(specs[0])) and not report.failures
    _verdict(
        6,
        ok,
        f"duality probe clean on {report.checked} posets up to size 5",
    )


def test_criterion_7_enumeration_at_the_caps():
    """The unlabelled generators reach their size caps within budget and
    hit the published counts (OEIS A000112 and A006966)."""
    unlabelled = [1, 1, 2, 5, 16, 63, 318, 2045]
    lattices = [0, 1, 1, 1, 2, 5, 15, 53, 222]
    start = time.perf_counter()
    poset_counts = [len(enumerate_posets(n)) for n in range(POSET_SIZE_CAP + 1)]
    lattice_counts = [len(enumerate_lattices(n)) for n in range(LATTICE_SIZE_CAP + 1)]
    elapsed = time.perf_counter() - start
    ok = poset_counts == unlabelled and lattice_counts == lattices and elapsed < 10.0
    _verdict(
        7,
        ok,
        f"unlabelled {poset_counts}, lattices {lattice_counts}"
        f" in {elapsed:.2f}s (budget 10s)",
    )
