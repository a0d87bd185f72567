"""Executable checks for every structural fact the package relies on.

Each fact is a check on one instance: a corpus poset, a corpus lattice,
or a pair (s, U) of a small poset s and a subset U, optionally only the
pairs where s germ-extends U. A check yields (suffix, ok, detail)
results; one walk runs it over every instance of its kind, builds each
instance's description once, and appends the check's suffix to it.
run_suite aggregates the results into per-predicate reports carrying
replayable failure descriptions. Conditional facts count only instances
satisfying their hypothesis. The op-duality probe is advisory: it reports
rather than fails, since the duality is conjectural.

An exception a check raises fails that instance by name, its type,
message and the innermost package frame it passed through as the detail,
after whatever the check yielded before it; the walk then goes on to the
next instance, so every predicate reports and verify exits 1 instead of
ending in a traceback.

A Context holds the corpora of one run and G(p) of each corpus poset p.
A closure is built inside the first instance that needs it and then
shared by closure-lattice, reconstruction, closure-vs-lowerset and
op-duality-probe, so each corpus poset is closed once. The three that
read its order share its inclusion poset; op-duality-probe closes the
opposite on the poset's rows swapped, not once more through germ_closure.
"""

from __future__ import annotations

import os
import traceback
from dataclasses import dataclass, field
from typing import Callable, Iterator, Sequence

from .closure import (
    GermClosure, aut_transport, canonical_embed, closure_masks, germ_closure, ghat_sets,
    lambda_sets, reconstruct_from_lattice,
)
from .embed import g_sharp, irr_closure_equals_g_t, is_germ_extensible, verify_partition
from .enumeration import CorpusSpec, corpus
from .errors import InvariantViolation
from .germs import (
    cogerms_within,
    detects,
    germ_cut_witness,
    germs_within,
    grm,
    grm_mask,
    is_germ_extension,
    lambda_witness,
)
from .lattice import Lattice, lambda_e, lower_set_lattice
from .poset import (
    Poset, bit_indices, embeddings, inclusion_poset, isomorphisms, mask_of, set_label,
)

PAIR_LIMIT = 4


@dataclass
class Context:
    """The corpora of one run, and G(p) of each corpus poset p: built in
    the first instance that asks for it, then shared."""

    posets: list[Poset]
    lattices: list[Lattice]
    _closures: dict[Poset, GermClosure] = field(default_factory=dict, init=False, repr=False)

    def closure(self, p: Poset) -> GermClosure:
        """G(p), built on the first request for p and shared by the rest."""
        if p not in self._closures:
            self._closures[p] = germ_closure(p)
        return self._closures[p]


@dataclass(frozen=True)
class PredicateReport:
    name: str
    checked: int
    failures: tuple[tuple[str, str], ...]
    advisory: bool = False

    @property
    def ok(self) -> bool:
        return not self.failures


Result = tuple[str, bool, str]
Check = Callable[..., Iterator[Result]]


def describe_poset(p: Poset) -> str:
    rels = " ".join(f"{p.labels[i]}<{p.labels[j]}" for i, j in p.cover_pairs())
    return f"elements: {' '.join(p.labels)}; relations: {rels}"


# -- germ facts --------------------------------------------------------------


def _cogerm_uniqueness(ctx: Context, p: Poset) -> Iterator[Result]:
    """Every germ admits exactly one cogerm, found by scanning every v,
    and the germ finder's bridge walk returns that cogerm."""
    walked = dict(germs_within(p.up, p.down, p.full_mask))
    for u in range(p.n):
        cands = cogerms_within(p.up, p.down, p.full_mask, u)
        walk = [walked[u]] if u in walked else []
        detail = f"cogerms {[p.labels[v] for v in cands]}"
        if walk != cands:
            detail += f"; the walk gives {[p.labels[v] for v in walk]}"
        yield f"; u={p.labels[u]}", len(cands) <= 1 and walk == cands, detail


def _germ_chain_nesting(ctx: Context, p: Poset) -> Iterator[Result]:
    """Distinct germs u, u' with cogerms v, v': u' > u forces
    v' >= u' > v >= u, and u' <= v forces u' <= v' < u <= v."""
    recs = grm(p)
    for a in recs:
        for b in recs:
            if a.germ == b.germ:
                continue
            u, v = a.germ, a.cogerm
            u2, v2 = b.germ, b.cogerm
            suffix = f"; germs {p.labels[u]},{p.labels[u2]}"
            if p.lt(u, u2):
                ok = p.leq(u2, v2) and p.lt(v, u2) and p.leq(u, v)
                yield suffix, ok, "chain v' >= u' > v >= u broken"
            if p.leq(u2, v):
                ok = p.leq(u2, v2) and p.lt(v2, u) and p.leq(u, v)
                yield suffix, ok, "chain u' <= v' < u <= v broken"


def _base_detects(ctx: Context, s: Poset, u_mask: int) -> Iterator[Result]:
    """A germ extension is detected by its base."""
    yield "", detects(s, u_mask), "not detected"


def _shadow_shape_exclusive(ctx: Context, s: Poset, u_mask: int) -> Iterator[Result]:
    """In a germ extension, every shadow U_{<=s} is a cut U_{<=B} or a
    strict germ cut, never both, never neither."""
    for t in range(s.n):
        b = lambda_witness(s, u_mask, t)
        r = germ_cut_witness(s, u_mask, t)
        yield (
            f"; s={s.labels[t]}",
            (b is None) != (r is None),
            "both shapes" if b is not None and r is not None else "neither shape",
        )


def _shadows_force_extension(ctx: Context, s: Poset, u_mask: int) -> Iterator[Result]:
    """Detection plus both shadow shapes everywhere forces a germ
    extension."""
    if detects(s, u_mask) and all(
        lambda_witness(s, u_mask, t) is not None
        or germ_cut_witness(s, u_mask, t) is not None
        for t in range(s.n)
    ):
        yield (
            "",
            is_germ_extension(s, u_mask),
            "hypotheses hold but some non-base element is not a germ",
        )


def _intermediate_extension(ctx: Context, s: Poset, u_mask: int) -> Iterator[Result]:
    """Anything between a base and a germ extension of it is again a germ
    extension of the base."""
    rest = s.full_mask & ~u_mask
    sub_bits = list(bit_indices(rest))
    for pick in range(1 << len(sub_bits)):
        r_mask = u_mask | mask_of(sub_bits[k] for k in bit_indices(pick))
        # R germ-extends U when everything R adds is a germ of R
        r_germs = mask_of(r for r, _ in germs_within(s.up, s.down, r_mask))
        yield (
            f"; R={set_label(s, r_mask)}",
            r_mask & ~u_mask & ~r_germs == 0,
            "intermediate poset is not a germ extension",
        )


def _count_base_fixing_embeddings(clos, s: Poset, inclusion: list[int]) -> int:
    """Order embeddings of s onto full subposets of the closure that fix
    the embedded base pointwise, counted up to 2."""
    candidates = [clos.poset.full_mask] * s.n
    for k, si in enumerate(inclusion):
        candidates[si] = 1 << clos.embed[k]
    return len(embeddings(s, clos.poset, candidates, limit=2))


def _universal_property(ctx: Context, s: Poset, u_mask: int) -> Iterator[Result]:
    """A germ extension embeds into the closure of its base by
    s -> U_{<=s}, and no other base-fixing embedding exists."""
    clos, _ = canonical_embed(s, u_mask)
    n_embeddings = _count_base_fixing_embeddings(clos, s, list(bit_indices(u_mask)))
    yield "", n_embeddings == 1, f"{n_embeddings} base-fixing embeddings"


# -- closure facts -----------------------------------------------------------


def _lambda_ghat_disjoint(ctx: Context, p: Poset) -> Iterator[Result]:
    """The cut family and the germ-cut family never overlap, and no two
    germs share a strict cut."""
    lam = set(lambda_sets(p))
    ghat = ghat_sets(p)
    ok = not lam.intersection(ghat) and len(set(ghat)) == len(ghat)
    yield "", ok, "cut families overlap"


def _closure_lattice_fault(p: Poset, clos: GermClosure) -> str:
    """The first way G(p) falls short of closure-lattice's fact, or ""."""
    members = set(clos.masks)
    if 0 not in members or p.full_mask not in members:
        return "missing empty set or full base"
    lat = Lattice.from_poset(clos.poset)
    for i in range(clos.n):
        for j in range(i + 1, clos.n):
            inter = clos.masks[i] & clos.masks[j]
            if inter not in members:
                return "not intersection closed"
            incomparable = clos.masks[i] & ~clos.masks[j] and clos.masks[j] & ~clos.masks[i]
            if incomparable and clos.germ_of[clos.index_of(inter)] is not None:
                return "incomparable meet outside the cut family"
            if lat.meet(i, j) != clos.index_of(inter):
                return "lattice meet is not intersection"
            if lat.join(i, j) != clos.join(i, j):
                return "joins disagree with least upper cover"
    return ""


def _closure_lattice(ctx: Context, p: Poset) -> Iterator[Result]:
    """The closure contains the empty set and all of U, is closed under
    intersection (incomparable pairs landing in the cut family), and is a
    lattice whose meets are intersections."""
    fault = _closure_lattice_fault(p, ctx.closure(p))
    yield "", not fault, fault


def _germ_transfer(ctx: Context, s: Poset, u_mask: int) -> Iterator[Result]:
    """Germs passing between a germ extension and its base: base elements
    that are ambient germs are base germs; each base germ keeps its chain
    and either stays an ambient germ with the same cogerm or sits right
    above an ambient germ outside the base with that cogerm."""
    base_germs = germs_within(s.up, s.down, u_mask)
    base_germ_mask = mask_of(r for r, _ in base_germs)
    for rec in grm(s):
        if u_mask >> rec.germ & 1:
            yield (
                f"; s={s.labels[rec.germ]}",
                bool(base_germ_mask >> rec.germ & 1),
                "ambient germ in the base is not a base germ",
            )
    s_germ_recs = {r.germ: r for r in grm(s)}
    for r, rhat in base_germs:
        suffix = f"; r={s.labels[r]}"
        # [r,r^]_U is [r,r^]_S restricted to U, so they differ when S adds to it
        if s.closed(r, rhat) & ~u_mask:
            yield suffix, False, "[r,r^]_S differs from [r,r^]_U"
            continue
        cut = s.strict_down(r)
        case_a = s.sup_of(cut) == r
        greatest = next(
            (x for x in bit_indices(cut) if cut & ~s.down[x] == 0), None
        )
        if case_a == (greatest is not None):
            yield suffix, False, "neither or both germ-passage cases triggered"
            continue
        if case_a:
            got = s_germ_recs.get(r)
            yield (
                suffix,
                got is not None and got.cogerm == rhat,
                "r is sup of its cut but not an ambient germ with cogerm r^",
            )
        else:
            got = s_germ_recs.get(greatest)
            above = s.strict_up(greatest)
            ok = (
                not u_mask >> greatest & 1
                and got is not None
                and got.cogerm == rhat
                and above >> r & 1
                and above & ~s.up[r] == 0
                and r not in s_germ_recs
            )
            yield suffix, ok, "greatest-element case misbehaves"


def _reconstruction(ctx: Context, p: Poset) -> Iterator[Result]:
    """Reconstruction, on the closure side: the embedded base is exactly
    the closure minus its germs, and automorphisms transport bijectively."""
    clos = ctx.closure(p)
    image = mask_of(clos.embed)
    ok = image == clos.poset.full_mask & ~grm_mask(clos.poset)
    yield "", ok, "embedded base is not closure minus germs"
    aut_transport(clos)
    yield "", True, ""


def _lattice_reconstruction(ctx: Context, t: Lattice) -> Iterator[Result]:
    """Reconstruction, on the lattice side: stripping a lattice's germs
    and closing gives the lattice back."""
    reconstruct_from_lattice(t)
    yield "", True, ""


# -- lattice embedding facts -------------------------------------------------


def _is_monotone(down: Sequence[int], masks: Sequence[int], nu: Sequence[int]) -> bool:
    """Whether nu[i] <= nu[j] whenever masks[i] ⊆ masks[j], one row test
    per j: the nu[i] of the members inside masks[j] all lie in down[nu[j]]."""
    bits = [(m, 1 << x) for m, x in zip(masks, nu)]
    for m_j, x_j in zip(masks, nu):
        below = 0
        for m, bit in bits:
            if not m & ~m_j:
                below |= bit
        if below & ~down[x_j]:
            return False
    return True


def _nu_criterion(ctx: Context, t: Lattice) -> Iterator[Result]:
    """ν is injective exactly when every germ clears its join, and ν is
    always monotone."""
    for u_mask in range(1 << t.n):
        suffix = f"; U={set_label(t.poset, u_mask)}"
        try:
            res = is_germ_extensible(t, u_mask)
        except InvariantViolation as e:
            # one result per U, naming the invariant that broke
            yield suffix, False, _raised(e)
            continue
        direct = len(set(res.nu_image)) == len(res.masks)
        yield suffix, res.extensible == direct, (
            f"criterion says {res.extensible}, injectivity says {direct}"
        )
        if not _is_monotone(t.poset.down, res.masks, res.nu_image):
            yield suffix, False, "ν is not monotone"


def _partition(ctx: Context, t: Lattice) -> Iterator[Result]:
    """Unique bases tile the powerset into intervals [U, Ḡ(U)], and the
    full lattice's own base is the lattice minus its germs."""
    cells = verify_partition(t)
    total = sum(1 << (top & ~base).bit_count() for base, top in cells)
    yield "", total == 1 << t.n, f"cells cover {total} of {1 << t.n} subsets"
    base = next(base for base, top in cells if top == t.poset.full_mask)
    ok = base == t.poset.full_mask & ~grm_mask(t.poset)
    yield "", ok, "base of the whole lattice is not lattice minus germs"


def _irr_closure(ctx: Context, t: Lattice) -> Iterator[Result]:
    """The irreducibles are germ extensible and close onto G_T."""
    yield "", irr_closure_equals_g_t(t), "Ḡ(E) differs from G_T"


def _closure_vs_lowerset(ctx: Context, p: Poset) -> Iterator[Result]:
    """Computing the closure inside the lower-set lattice by the operator
    route lands on the same two families as G(p), split by case."""
    lsl = lower_set_lattice(p)
    masks = lsl.element_masks
    lam = lambda_e(lsl)
    lam_t = {masks[i] for i in bit_indices(lam)}
    ghat_via_t = {masks[i] for i in bit_indices(g_sharp(lsl) & ~lam)}
    clos = ctx.closure(p)
    lam_u = {m for m, r in zip(clos.masks, clos.germ_of) if r is None}
    ok = lam_t == lam_u and ghat_via_t == set(clos.masks) - lam_u
    yield "", ok, (
        f"operator route gives Λ of {len(lam_t)} and Ĝ of {len(ghat_via_t)},"
        f" closure has {len(lam_u)} and {clos.n - len(lam_u)}"
    )


def _op_duality_probe(ctx: Context, p: Poset) -> Iterator[Result]:
    """Advisory: G(U^op) and G(U)^op appear to be isomorphic. G(U^op) is
    closed on U's rows swapped, with no opposite poset built."""
    a = inclusion_poset(p, closure_masks(p.down, p.up, p.full_mask)[0])
    b = ctx.closure(p).poset.opposite()
    ok = bool(isomorphisms(a, b, limit=1))
    yield "", ok, "closure of the opposite is not the opposite closure"


# -- the walk ----------------------------------------------------------------


def _instances(ctx: Context, over: str) -> Iterator[tuple[str, tuple]]:
    """(description, check arguments) of every instance of one kind:
    "posets" and "lattices" are the corpora, "pairs" every (s, U) with
    |s| <= PAIR_LIMIT, and "extensions" those pairs where s germ-extends
    U. Each poset is described once for all its pairs."""
    if over == "lattices":
        for t in ctx.lattices:
            yield describe_poset(t.poset), (t,)
        return
    for s in ctx.posets:
        if over == "posets":
            yield describe_poset(s), (s,)
        elif s.n <= PAIR_LIMIT:
            desc = describe_poset(s)
            for u_mask in range(1 << s.n):
                if over == "pairs" or is_germ_extension(s, u_mask):
                    yield f"{desc}; U={set_label(s, u_mask)}", (s, u_mask)


def _raised(e: Exception) -> str:
    """The failure detail "Type: message (at module.function:line)" of e,
    naming the innermost frame of its traceback in this package: the line
    that raised e, or that called the outside code that did. The check
    that caught e is such a frame, so there is always one."""
    package = os.path.dirname(__file__)
    tb = traceback.extract_tb(e.__traceback__)
    frame = [f for f in tb if os.path.dirname(f.filename) == package][-1]
    module = os.path.splitext(os.path.basename(frame.filename))[0]
    return f"{type(e).__name__}: {e} (at {module}.{frame.name}:{frame.lineno})"


def _walk(*parts: tuple[str, Check]) -> Callable[[Context], Iterator[Result]]:
    """The predicate that runs each (kind, check) part in turn over every
    instance of its kind. An exception the check raises fails that
    instance, named by its type, message and innermost package frame,
    after whatever the check yielded before it, and the walk goes on to
    the next instance."""

    def walk(ctx: Context) -> Iterator[Result]:
        for over, check in parts:
            for head, args in _instances(ctx, over):
                try:
                    for suffix, ok, detail in check(ctx, *args):
                        yield head + suffix, ok, detail
                except Exception as e:
                    yield head, False, _raised(e)

    return walk


@dataclass(frozen=True)
class Predicate:
    name: str
    fn: Callable[[Context], Iterator[Result]]
    advisory: bool = False


PREDICATES: dict[str, Predicate] = {
    p.name: p
    for p in [
        Predicate("cogerm-uniqueness", _walk(("posets", _cogerm_uniqueness))),
        Predicate("germ-chain-nesting", _walk(("posets", _germ_chain_nesting))),
        Predicate("base-detects", _walk(("extensions", _base_detects))),
        Predicate("shadow-shape-exclusive", _walk(("extensions", _shadow_shape_exclusive))),
        Predicate("shadows-force-extension", _walk(("pairs", _shadows_force_extension))),
        Predicate("intermediate-extension", _walk(("extensions", _intermediate_extension))),
        Predicate("universal-property", _walk(("extensions", _universal_property))),
        Predicate("lambda-ghat-disjoint", _walk(("posets", _lambda_ghat_disjoint))),
        Predicate("closure-lattice", _walk(("posets", _closure_lattice))),
        Predicate("germ-transfer", _walk(("extensions", _germ_transfer))),
        Predicate(
            "reconstruction",
            _walk(("posets", _reconstruction), ("lattices", _lattice_reconstruction)),
        ),
        Predicate("nu-criterion", _walk(("lattices", _nu_criterion))),
        Predicate("partition", _walk(("lattices", _partition))),
        Predicate("irr-closure-is-g-t", _walk(("lattices", _irr_closure))),
        Predicate("closure-vs-lowerset", _walk(("posets", _closure_vs_lowerset))),
        Predicate(
            "op-duality-probe", _walk(("posets", _op_duality_probe)), advisory=True
        ),
    ]
}


def run_suite(
    specs: CorpusSpec | list[CorpusSpec],
    predicates: list[str] | None = None,
    sink: Callable[[str, str, bool, str], None] | None = None,
) -> list[PredicateReport]:
    """Run the selected predicates (default: all) over the corpora the
    specs describe. sink, if given, receives every single instance result
    as (predicate, instance, ok, detail)."""
    if isinstance(specs, CorpusSpec):
        specs = [specs]
    posets: list[Poset] = []
    lattices: list[Lattice] = []
    for spec in specs:
        if spec.kind == "posets":
            posets.extend(corpus(spec))
        else:
            lattices.extend(corpus(spec))
    ctx = Context(posets, lattices)
    names = predicates if predicates is not None else list(PREDICATES)
    reports = []
    for name in names:
        pred = PREDICATES[name]
        checked = 0
        failures = []
        for instance, ok, detail in pred.fn(ctx):
            checked += 1
            if not ok:
                failures.append((instance, detail))
            if sink is not None:
                sink(name, instance, ok, detail)
        reports.append(PredicateReport(name, checked, tuple(failures), pred.advisory))
    return reports
