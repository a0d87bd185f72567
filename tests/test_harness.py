"""The fact suite itself: registry completeness, report aggregation, and
a green run over a small corpus, and the pinned stream of instance
results."""

import hashlib
import re

import germclosure.closure
import germclosure.harness
from germclosure import (
    CorpusSpec,
    Lattice,
    NotALattice,
    PredicateReport,
    corpus,
    germ_closure,
    grm,
    run_suite,
)
from germclosure.harness import (
    PAIR_LIMIT,
    PREDICATES,
    Context,
    _count_base_fixing_embeddings,
    describe_poset,
)
from germclosure.poset import Poset, antichain, chain

EXPECTED_NAMES = {
    "cogerm-uniqueness",
    "germ-chain-nesting",
    "base-detects",
    "shadow-shape-exclusive",
    "shadows-force-extension",
    "intermediate-extension",
    "universal-property",
    "lambda-ghat-disjoint",
    "closure-lattice",
    "germ-transfer",
    "reconstruction",
    "nu-criterion",
    "partition",
    "irr-closure-is-g-t",
    "closure-vs-lowerset",
    "op-duality-probe",
}


def test_registry_names():
    assert set(PREDICATES) == EXPECTED_NAMES
    advisory = {n for n, p in PREDICATES.items() if p.advisory}
    assert advisory == {"op-duality-probe"}


def test_small_corpus_runs_green():
    reports = run_suite([CorpusSpec(3, "posets"), CorpusSpec(3, "lattices")])
    assert len(reports) == len(PREDICATES)
    for r in reports:
        assert r.ok, f"{r.name}: {r.failures[:3]}"


def test_reports_count_instances_and_stream_to_sink():
    rows = []

    def sink(pred, instance, ok, detail):
        rows.append((pred, ok))

    reports = run_suite(
        CorpusSpec(3, "posets"),
        predicates=["cogerm-uniqueness", "lambda-ghat-disjoint"],
        sink=sink,
    )
    assert [r.name for r in reports] == ["cogerm-uniqueness", "lambda-ghat-disjoint"]
    assert all(r.checked > 0 for r in reports)
    assert len(rows) == sum(r.checked for r in reports)
    assert all(ok for _, ok in rows)


def test_single_spec_accepted():
    reports = run_suite(CorpusSpec(2, "posets"), predicates=["base-detects"])
    assert len(reports) == 1


def test_report_ok_property():
    good = PredicateReport("x", 3, ())
    bad = PredicateReport("x", 3, (("inst", "why"),))
    assert good.ok and not bad.ok


def test_describe_poset_is_replayable():
    from germclosure.documents import parse_poset, to_poset

    p = Poset.from_relations(["a", "b", "c"], [("a", "c"), ("b", "c")])
    text = describe_poset(p).replace("; ", "\n")
    assert to_poset(parse_poset(text)) == p
    assert describe_poset(chain(2)) == "elements: u1 u2; relations: u1<u2"


def test_context_defaults():
    assert PAIR_LIMIT == 4


def test_base_fixing_embeddings_none_and_capped():
    # a third incomparable point has no image in G of an antichain of 2
    clos = germ_closure(antichain(2))
    assert _count_base_fixing_embeddings(clos, antichain(3), [0, 1]) == 0
    # over the germ extension a, b < c the embedding exists and is unique
    vee = Poset.from_relations(["a", "b", "c"], [("a", "c"), ("b", "c")])
    assert _count_base_fixing_embeddings(clos, vee, [0, 1]) == 1
    # pinning only u1 of an antichain of 4 leaves three images for the
    # second point; the count stops at 2
    clos = germ_closure(antichain(4))
    assert _count_base_fixing_embeddings(clos, antichain(2), [0]) == 2


# Every (predicate, instance, ok, detail) run_suite streams over posets
# <= 5 and lattices <= 6: the count and the sha256 of their reprs, one a
# line. A change to any representative, description or detail string
# shows here; one made on purpose needs a new digest.
FACT_STREAM = (2553, "37d31b756b398a993941ec2a9133e3533406c3d63e2355326c4a71cf8727981c")


def test_instance_stream_is_pinned():
    digest = hashlib.sha256()
    count = 0

    def sink(pred, instance, ok, detail):
        nonlocal count
        count += 1
        digest.update(repr((pred, instance, ok, detail)).encode() + b"\n")

    run_suite([CorpusSpec(5, "posets"), CorpusSpec(6, "lattices")], sink=sink)
    assert (count, digest.hexdigest()) == FACT_STREAM


def test_cogerm_uniqueness_fails_when_the_walk_misses_a_germ(monkeypatch):
    """The predicate checks the germ finder's walk against the scan, so a
    finder that drops a germ fails it, with or without -O."""
    walk = germclosure.harness.germs_within

    def drop_last(up, down, mask):
        return walk(up, down, mask)[:-1]

    monkeypatch.setattr(germclosure.harness, "germs_within", drop_last)
    [report] = run_suite(CorpusSpec(3, "posets"), predicates=["cogerm-uniqueness"])
    # each poset with a germ loses one
    assert len(report.failures) == sum(1 for p in corpus(CorpusSpec(3, "posets")) if grm(p))
    assert report.failures[0] == (
        "elements: a; relations: ; u=a",
        "cogerms ['a']; the walk gives []",
    )


def test_nu_criterion_names_a_join_map_that_is_not_injective(monkeypatch):
    """A join that sends every set to the bottom makes ν collapse where
    the criterion holds; each such U fails by name, with or without -O,
    and no exception escapes the suite."""
    specs = [CorpusSpec(0), CorpusSpec(3, "lattices")]
    [green] = run_suite(specs, ["nu-criterion"])
    monkeypatch.setattr(Lattice, "join_mask", lambda self, mask: self.poset.sup_of(0))
    [report] = run_suite(specs, ["nu-criterion"])
    assert report.checked == green.checked
    assert report.failures
    for _, detail in report.failures:
        assert re.fullmatch(
            r"InvariantViolation: the join criterion holds but ν identifies two members"
            r" \(at embed\.is_germ_extensible:\d+\)",
            detail,
        ), detail


def test_nu_criterion_names_the_invariant_that_broke(monkeypatch):
    """A germ finder that reports each germ twice breaks the closure, not
    ν: the failure names the closure's own invariant and where it was
    raised, one result per U as before."""
    specs = [CorpusSpec(0), CorpusSpec(4, "lattices")]
    [green] = run_suite(specs, ["nu-criterion"])
    real = germclosure.closure.germs_within
    monkeypatch.setattr(
        germclosure.closure, "germs_within", lambda *args: real(*args) * 2
    )
    [report] = run_suite(specs, ["nu-criterion"])
    assert report.checked == green.checked
    assert len(report.failures) == 40
    for _, detail in report.failures:
        assert re.fullmatch(
            r"InvariantViolation: two germs share a strict lower cut"
            r" \(at closure\._members:\d+\)",
            detail,
        ), detail


def test_nu_criterion_names_a_join_map_that_is_not_monotone(monkeypatch):
    """A join map that reverses the index order stays injective, so the
    injectivity side cannot see it; the monotonicity check names it,
    once for each U whose ν breaks the inclusion order."""
    real = Lattice.join_mask
    monkeypatch.setattr(Lattice, "join_mask", lambda self, mask: self.n - 1 - real(self, mask))
    [report] = run_suite([CorpusSpec(0), CorpusSpec(4, "lattices")], ["nu-criterion"])
    assert report.checked == 63
    assert [d for _, d in report.failures].count("ν is not monotone") == 17


def test_closure_lattice_names_a_closure_that_is_not_a_lattice(monkeypatch):
    """A NotALattice from the closure's lattice check fails that poset's
    instance, named by the walk, and the run goes on to the next poset."""

    def refuse(p):
        raise NotALattice("no join")

    monkeypatch.setattr(Lattice, "from_poset", staticmethod(refuse))
    spec = CorpusSpec(3, "posets")
    [report] = run_suite(spec, ["closure-lattice"])
    assert report.checked == len(report.failures) == len(corpus(spec))
    instance, detail = report.failures[0]
    assert instance == "elements: ; relations: "
    assert re.fullmatch(r"NotALattice: no join \(at harness\._closure_lattice_fault:\d+\)", detail)


def test_a_check_that_raises_keeps_what_it_yielded(monkeypatch):
    """An exception partway through a check fails that instance by name
    after the results it already yielded, and the walk goes on to the
    next instance, so the count is what a green run gives."""

    def refuse(clos):
        raise RuntimeError("no transport")

    monkeypatch.setattr(germclosure.harness, "aut_transport", refuse)
    specs = [CorpusSpec(3, "posets"), CorpusSpec(3, "lattices")]
    [report] = run_suite(specs, ["reconstruction"])
    assert report.checked == 21
    assert [i for i, _ in report.failures] == [describe_poset(p) for p in corpus(specs[0])]
    raised_at = r"RuntimeError: no transport \(at harness\._reconstruction:\d+\)"
    assert all(re.fullmatch(raised_at, detail) for _, detail in report.failures)


def test_a_closure_that_fails_to_build_fails_only_its_own_instance(monkeypatch):
    """Closures are keyed by their poset, so one that cannot be built
    fails its poset's instances and every other poset still reads its
    own closure."""
    posets = corpus(CorpusSpec(3, "posets"))

    def build(p):
        if p == posets[1]:
            raise ValueError("no closure")
        return germ_closure(p)

    monkeypatch.setattr(germclosure.harness, "germ_closure", build)
    reports = run_suite(CorpusSpec(3, "posets"), ["closure-lattice", "reconstruction"])
    for report in reports:
        [(instance, detail)] = report.failures
        assert instance == describe_poset(posets[1])
        assert re.fullmatch(r"ValueError: no closure \(at harness\.closure:\d+\)", detail)
    assert [r.checked for r in reports] == [len(posets), 2 * len(posets) - 1]


def test_a_failure_names_the_innermost_package_frame(monkeypatch):
    """An exception raised outside the package, two package frames below
    the check, is named by the package function that made the call."""

    def refuse(down, u_mask):
        raise RuntimeError("no cuts")

    monkeypatch.setattr(germclosure.closure, "_cuts", refuse)
    spec = CorpusSpec(2, "posets")
    [report] = run_suite(spec, ["closure-lattice"])
    assert report.checked == len(report.failures) == len(corpus(spec))
    for _, detail in report.failures:
        assert re.fullmatch(r"RuntimeError: no cuts \(at closure\._members:\d+\)", detail)


def _count_closures(monkeypatch) -> list:
    """Wrap germ_closure where the closure and harness modules call it;
    each build appends its base to the returned list."""
    built = []

    def counted(p):
        built.append(p)
        return germ_closure(p)

    for module in (germclosure.closure, germclosure.harness):
        monkeypatch.setattr(module, "germ_closure", counted)
    return built


def test_each_corpus_poset_is_closed_once(monkeypatch):
    """One closure per corpus poset, shared by closure-lattice,
    reconstruction, closure-vs-lowerset and op-duality-probe."""
    built = _count_closures(monkeypatch)
    run_suite([CorpusSpec(5, "posets"), CorpusSpec(6, "lattices")])
    assert len(corpus(CorpusSpec(5, "posets"))) == 88
    assert len(built) == 88


def test_op_duality_probe_closes_the_opposite_on_swapped_rows(monkeypatch):
    """After closure-lattice has closed every poset up to 5 points,
    op-duality-probe builds no closure and no grm cache entry: the
    opposite is closed on swapped rows, with no opposite poset."""
    posets = corpus(CorpusSpec(5, "posets"))
    ctx = Context(posets, [])
    grm.cache_clear()
    assert all(ok for _, ok, _ in PREDICATES["closure-lattice"].fn(ctx))
    cached = grm.cache_info().currsize
    built = _count_closures(monkeypatch)
    results = list(PREDICATES["op-duality-probe"].fn(ctx))
    assert len(results) == len(posets) and all(ok for _, ok, _ in results)
    assert built == []
    assert grm.cache_info().currsize == cached


def test_closure_vs_lowerset_needs_no_second_route(monkeypatch):
    """closure-vs-lowerset reads Λ(p) and Ĝ(p) from the shared closure
    and builds the lower-set lattice without a lattice check."""

    def refuse(*args):
        raise AssertionError("closure-vs-lowerset took a second route")

    for module in (germclosure.closure, germclosure.harness):
        monkeypatch.setattr(module, "lambda_sets", refuse)
        monkeypatch.setattr(module, "ghat_sets", refuse)
    monkeypatch.setattr(Lattice, "from_poset", refuse)
    [report] = run_suite(CorpusSpec(5, "posets"), ["closure-vs-lowerset"])
    assert report.ok and report.checked == 88


def test_context_closes_each_poset_in_its_own_instance(monkeypatch):
    """A closure is built when its instance is reached, not before, and
    every later reader gets the same object."""
    built = _count_closures(monkeypatch)
    posets = corpus(CorpusSpec(3, "posets"))
    ctx = Context(posets, [])
    results = PREDICATES["closure-lattice"].fn(ctx)
    for k in range(1, len(posets) + 1):
        next(results)
        assert built == posets[:k]
    first = [ctx.closure(p) for p in posets]
    list(PREDICATES["reconstruction"].fn(ctx))
    assert all(ctx.closure(p) is clos for p, clos in zip(posets, first))
    assert built == posets
