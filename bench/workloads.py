"""The three benchmark workloads: input generation, the timed ops and the
output checks.

Every workload is a closed loop with one client. ``prepare`` runs during
set-up and returns the state ``execute`` needs; ``execute`` runs the
timed phase and returns a ``RoundOutcome``. The library is reached only
through its public names, looked up at call time so that the tracer's
rebinding applies. Checks are done here, never by the library's own
asserts, which ``python -O`` strips.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import random
import time
from pathlib import Path

WORKLOADS = ("fact-suite", "closure-large", "golden-cli")

# fact-suite: acceptance criterion 2, all posets up to 5 and all lattices
# up to 6 with all 16 predicates. Instance counts per predicate measured at
# the commit that introduced this benchmark; fewer is a coverage loss and
# counts as failed ops, more is accepted and shows in the counters.
FACT_POSET_MAX = 5
FACT_LATTICE_MAX = 6
FACT_COUNTS = {
    "cogerm-uniqueness": 399,
    "germ-chain-nesting": 10,
    "base-detects": 40,
    "shadow-shape-exclusive": 136,
    "shadows-force-extension": 40,
    "intermediate-extension": 57,
    "universal-property": 40,
    "lambda-ghat-disjoint": 88,
    "closure-lattice": 88,
    "germ-transfer": 37,
    "reconstruction": 201,
    "nu-criterion": 1166,
    "partition": 50,
    "irr-closure-is-g-t": 25,
    "closure-vs-lowerset": 88,
    "op-duality-probe": 88,
}

# closure-large: requests per round, half of each input shape.
CLOSURE_REQUESTS = 48
SPARSE_POINTS = (32, 64)
SPARSE_OUT_DEGREE = 2.4
ORDINAL_LEVELS = (16, 30)
ORDINAL_WIDTH = (1, 3)

# golden-cli: the 41 golden command lines, paths relative to the repo root.
_GOLDEN_DOCS = [
    "chain1", "chain2", "chain3", "chain4", "chain5",
    "anti2", "anti3", "anti4", "anti5",
    "vee", "wedge", "npos", "twelve", "empty",
]
_IN = "tests/golden/inputs"
GOLDEN_CASES = (
    [(f"grm__{n}", ["grm", f"{_IN}/{n}.txt"]) for n in _GOLDEN_DOCS]
    + [(f"closure__{n}", ["closure", f"{_IN}/{n}.txt"]) for n in _GOLDEN_DOCS]
    + [
        ("gt__twelve", ["gt", f"{_IN}/twelve.txt"]),
        ("gt__chain3", ["gt", f"{_IN}/chain3.txt"]),
        ("partition__twelve", ["partition", f"{_IN}/twelve.txt"]),
        ("partition__chain2", ["partition", f"{_IN}/chain2.txt"]),
        ("extensible__twelve_irr",
         ["extensible", f"{_IN}/twelve.txt", "--subset", "H,I,E,F,G,A,B"]),
        ("extensible__twelve_bad",
         ["extensible", f"{_IN}/twelve.txt", "--subset", "bot,H,I,E,F,G,A,B"]),
        ("base__twelve_full",
         ["base", f"{_IN}/twelve.txt", "--subset", "bot,H,I,M,E,F,G,C,D,A,B,top"]),
        ("dim__empty", ["dim", f"{_IN}/empty.txt", "--x-max", "3"]),
        ("dim__vee", ["dim", f"{_IN}/vee.txt", "--x-max", "4"]),
        ("dim__anti2_v2",
         ["dim", f"{_IN}/anti2.txt", "--x-min", "2", "--x-max", "4", "--dim-v", "2"]),
        ("dot__vee", ["dot", f"{_IN}/vee.txt"]),
        ("dot__twelve", ["dot", f"{_IN}/twelve.txt"]),
        ("verify__tiny", ["verify", "--max-size", "3", "--lattice-max-size", "3"]),
    ]
)
GOLDEN_EXPECTED = "tests/golden/expected"


@dataclasses.dataclass
class RoundOutcome:
    wall_s: float
    latencies: list[float]
    attempted: int
    failures: list[str]
    digest: str


def _sha(parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(repr(part).encode())
        h.update(b"\n")
    return h.hexdigest()


def _rng(seed: int, round_index: int) -> random.Random:
    return random.Random(f"{seed}/{round_index}")


# -- fact-suite --------------------------------------------------------------


def prepare_fact_suite(params: dict, root: Path) -> dict:
    import germclosure

    poset_max = params.get("poset_max", FACT_POSET_MAX)
    lattice_max = params.get("lattice_max", FACT_LATTICE_MAX)
    expected = (
        FACT_COUNTS
        if (poset_max, lattice_max) == (FACT_POSET_MAX, FACT_LATTICE_MAX)
        else {}
    )
    clock = {"last": 0.0}
    harness = germclosure.harness
    for name, pred in list(harness.PREDICATES.items()):
        harness.PREDICATES[name] = dataclasses.replace(
            pred, fn=_start_marked(pred.fn, clock)
        )
    specs = [
        germclosure.CorpusSpec(poset_max, "posets"),
        germclosure.CorpusSpec(lattice_max, "lattices"),
    ]
    return {"specs": specs, "expected": expected, "clock": clock}


def _start_marked(fn, clock: dict):
    """The predicate unchanged, except that its first step stamps the
    clock, so the first instance's latency excludes corpus building."""

    def marked(ctx):
        clock["last"] = time.perf_counter()
        yield from fn(ctx)

    return marked


def execute_fact_suite(state: dict) -> RoundOutcome:
    import germclosure

    clock = state["clock"]
    latencies: list[float] = []
    seen: list[tuple[str, str, bool]] = []

    def sink(pred: str, instance: str, ok: bool, detail: str) -> None:
        now = time.perf_counter()
        latencies.append(now - clock["last"])
        clock["last"] = now
        seen.append((pred, instance, ok))

    start = time.perf_counter()
    try:
        reports = germclosure.run_suite(state["specs"], sink=sink)
    except Exception as e:  # a crash fails every instance the run owed
        wall = time.perf_counter() - start
        owed = max(sum(state["expected"].values()), len(seen), 1)
        return RoundOutcome(wall, latencies, owed, [f"run_suite raised {e!r}"] * owed, "")
    wall = time.perf_counter() - start
    attempted, failures = check_fact_suite(reports, seen, state["expected"])
    return RoundOutcome(wall, latencies, attempted, failures, _sha(seen))


def check_fact_suite(reports, seen, expected: dict) -> tuple[int, list[str]]:
    """Hard failures, missing instances and sink/report disagreements, each
    one failed op. Returns (attempted, failures)."""
    failures: list[str] = []
    attempted = 0
    by_name = {r.name: r for r in reports}
    for name in sorted(set(by_name) | set(expected)):
        r = by_name.get(name)
        checked = r.checked if r is not None else 0
        short = max(0, expected.get(name, 0) - checked)
        attempted += checked + short
        failures += [f"{name}: {short} of {expected.get(name)} instances missing"] * short
        if r is None:
            continue
        streamed = [ok for pred, _, ok in seen if pred == name]
        if len(streamed) != r.checked or streamed.count(False) != len(r.failures):
            failures.append(f"{name}: the report disagrees with the streamed instances")
        if not r.advisory:
            failures += [f"{name}: {inst} | {detail}" for inst, detail in r.failures]
    return attempted, failures


# -- closure-large -----------------------------------------------------------


def closure_documents(seed: int, round_index: int, count: int) -> list[str]:
    """The round's requests as poset documents, alternating the two shapes.

    Sizes are spread evenly over their ranges in every round, so rounds and
    seeds differ in structure, not in size mix; the seed picks the orders.
    """
    rng = _rng(seed, round_index)
    half = (count + 1) // 2
    lo, hi = SPARSE_POINTS
    sparse_sizes = [lo + k * (hi - lo) // max(half - 1, 1) for k in range(half)]
    lo, hi = ORDINAL_LEVELS
    level_counts = [lo + k * (hi - lo) // max(half - 1, 1) for k in range(half)]
    rng.shuffle(sparse_sizes)
    rng.shuffle(level_counts)
    docs = []
    for k in range(count):
        if k % 2 == 0:
            docs.append(_sparse_order(rng, sparse_sizes[k // 2], k))
        else:
            docs.append(_ordinal_sum(rng, level_counts[k // 2], k))
    return docs


def _document(name: str, labels: list[str], relations: list[tuple[str, str]]) -> str:
    rels = " ".join(f"{a}<{b}" for a, b in relations)
    return f"name: {name}\nelements: {' '.join(labels)}\nrelations: {rels}\n"


def _sparse_order(rng: random.Random, n: int, k: int) -> str:
    """A random order on n points: each pair i < j of a random linear
    extension is a relation with probability SPARSE_OUT_DEGREE / n."""
    labels = [f"x{i}" for i in range(n)]
    rng.shuffle(labels)
    p = SPARSE_OUT_DEGREE / n
    rels = [
        (labels[i], labels[j])
        for i in range(n)
        for j in range(i + 1, n)
        if rng.random() < p
    ]
    return _document(f"sparse{k}", labels, rels)


def _ordinal_sum(rng: random.Random, levels: int, k: int) -> str:
    """An ordinal sum of small antichains: every point of a level lies
    below every point of the next. Singleton levels make germs."""
    labels: list[str] = []
    rels: list[tuple[str, str]] = []
    prev: list[str] = []
    for level in range(levels):
        cur = [f"l{level}_{i}" for i in range(rng.randint(*ORDINAL_WIDTH))]
        rels += [(a, b) for a in prev for b in cur]
        labels += cur
        prev = cur
    return _document(f"ordinal{k}", labels, rels)


def prepare_closure_large(params: dict, root: Path) -> dict:
    docs = closure_documents(
        params["seed"], params["round"], params.get("requests", CLOSURE_REQUESTS)
    )
    return {"docs": docs}


def closure_request(text: str) -> dict:
    """One request: parse, build, germs, closure, lattice, reconstruction
    and G_T, all through the public API."""
    import germclosure as gc

    p = gc.to_poset(gc.parse_poset(text))
    recs = gc.grm(p)
    clos = gc.germ_closure(p)
    lat = gc.Lattice.from_poset(clos.poset)
    rebuilt, j = gc.reconstruct_from_lattice(lat)
    g = gc.g_t(lat)
    return {"poset": p, "germs": recs, "closure": clos, "lattice": lat,
            "rebuilt": rebuilt, "map": j, "g_t": g}


def execute_closure_large(state: dict) -> RoundOutcome:
    latencies: list[float] = []
    failures: list[str] = []
    digests: list[str] = []
    for k, text in enumerate(state["docs"]):
        start = time.perf_counter()
        try:
            out = closure_request(text)
        except Exception as e:
            latencies.append(time.perf_counter() - start)
            failures.append(f"request {k} raised {e!r}")
            continue
        latencies.append(time.perf_counter() - start)
        problem = check_closure_request(out)
        if problem:
            failures.append(f"request {k}: {problem}")
        digests.append(_closure_digest(out))
    return RoundOutcome(sum(latencies), latencies, len(state["docs"]), failures,
                        _sha(digests))


def _cut_count(down: tuple[int, ...], full: int) -> int:
    """Number of cuts U_{<=B}: intersections of principal lower sets,
    with U itself for B empty. Computed here independently of the
    library's lambda_sets."""
    sets = {full}
    sets.update(down)
    work = list(sets)
    while work:
        a = work.pop()
        for b in list(sets):
            c = a & b
            if c not in sets:
                sets.add(c)
                work.append(c)
    return len(sets)


def check_closure_request(out: dict) -> str | None:
    """The structural facts every request must satisfy, or a description
    of the first one that fails."""
    p, clos, lat, rebuilt, j = (
        out["poset"], out["closure"], out["lattice"], out["rebuilt"], out["map"]
    )
    masks = clos.masks
    if 0 not in masks or p.full_mask not in masks:
        return "the closure lacks the empty set or the whole base"
    if clos.n != _cut_count(p.down, p.full_mask) + len(out["germs"]):
        return "|G| is not the number of cuts plus the number of germs"
    n = lat.n
    if not (clos.n == n == rebuilt.n == len(j)) or sorted(j) != list(range(n)):
        return "the reconstruction map is not a bijection onto the closure"
    rmasks = rebuilt.masks
    leq = lat.poset.leq
    for a in range(n):
        ma = rmasks[j[a]]
        for b in range(n):
            if leq(a, b) != (ma & ~rmasks[j[b]] == 0):
                return "the reconstruction map does not preserve the order both ways"
    if out["g_t"] & ~lat.poset.full_mask:
        return "G_T names elements outside the lattice"
    return None


def _closure_digest(out: dict) -> str:
    clos = out["closure"]
    return _sha([
        clos.masks,
        [(r.germ, r.cogerm, r.chain) for r in out["germs"]],
        out["lattice"].join,
        out["rebuilt"].masks,
        out["map"],
        out["g_t"],
    ])


# -- golden-cli --------------------------------------------------------------


def prepare_golden_cli(params: dict, root: Path) -> dict:
    import germclosure.cli  # noqa: F401  (the package does not import cli)

    names = params.get("cases")
    cases = [c for c in GOLDEN_CASES if names is None or c[0] in names]
    _rng(params["seed"], params["round"]).shuffle(cases)
    expected_dir = root / params.get("expected_dir", GOLDEN_EXPECTED)
    expected = {name: (expected_dir / f"{name}.txt").read_text() for name, _ in cases}
    return {"cases": cases, "expected": expected}


def execute_golden_cli(state: dict) -> RoundOutcome:
    import germclosure

    latencies: list[float] = []
    failures: list[str] = []
    outputs: list[str] = []
    for name, argv in state["cases"]:
        out, err = io.StringIO(), io.StringIO()
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = germclosure.cli.main(argv)
        except (Exception, SystemExit) as e:
            latencies.append(time.perf_counter() - start)
            failures.append(f"{name} raised {e!r}")
            continue
        latencies.append(time.perf_counter() - start)
        text = out.getvalue()
        outputs.append(text)
        if code != 0:
            failures.append(f"{name} exited {code}: {err.getvalue().strip()}")
        elif text != state["expected"][name]:
            failures.append(f"{name}: stdout differs from {GOLDEN_EXPECTED}/{name}.txt")
    return RoundOutcome(sum(latencies), latencies, len(state["cases"]), failures,
                        _sha(sorted(outputs)))


PREPARE = {
    "fact-suite": prepare_fact_suite,
    "closure-large": prepare_closure_large,
    "golden-cli": prepare_golden_cli,
}
EXECUTE = {
    "fact-suite": execute_fact_suite,
    "closure-large": execute_closure_large,
    "golden-cli": execute_golden_cli,
}
