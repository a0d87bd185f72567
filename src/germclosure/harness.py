"""Executable checks for every structural fact the package relies on.

Each predicate streams (instance, ok, detail) results over an exhaustive
corpus; run_suite aggregates them into per-predicate reports carrying
replayable failure descriptions. Conditional facts count only instances
satisfying their hypothesis. The op-duality probe is advisory: it reports
rather than fails, since the duality is conjectural.

A Context holds the corpora of one run and G(p) of each corpus poset p.
A closure is built inside the first instance that needs it and then
shared, with its inclusion poset, by closure-lattice, reconstruction and
op-duality-probe, so each corpus poset is closed once (its opposite once
more, by op-duality-probe).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterator

from .closure import (
    GermClosure,
    aut_transport,
    canonical_embed,
    germ_closure,
    ghat_sets,
    lambda_sets,
    reconstruct_from_lattice,
)
from .embed import g_sharp, irr_closure_equals_g_t, is_germ_extensible, verify_partition
from .enumeration import CorpusSpec, corpus
from .errors import InvariantViolation, NotALattice
from .germs import (
    LambdaCase,
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
from .poset import Poset, bit_indices, embeddings, isomorphisms, mask_of, set_label

PAIR_LIMIT = 4


@dataclass
class Context:
    """The corpora of one run, and G(p) of each corpus poset p: built in
    the first instance that asks for it, then shared."""

    posets: list[Poset]
    lattices: list[Lattice]
    _closures: list[GermClosure] = field(default_factory=list, init=False, repr=False)

    def closures(self) -> Iterator[tuple[Poset, GermClosure]]:
        """Each corpus poset with its closure, in corpus order."""
        for k, p in enumerate(self.posets):
            if k == len(self._closures):
                self._closures.append(germ_closure(p))
            yield p, self._closures[k]


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


def describe_poset(p: Poset) -> str:
    rels = " ".join(f"{p.labels[i]}<{p.labels[j]}" for i, j in p.cover_pairs())
    return f"elements: {' '.join(p.labels)}; relations: {rels}"


def _pairs(ctx: Context) -> Iterator[tuple[Poset, int, str]]:
    """(s, U, instance) for every subset U of each small poset s; s is
    described once for all its subsets."""
    for s in ctx.posets:
        if s.n > PAIR_LIMIT:
            continue
        desc = describe_poset(s)
        for u_mask in range(1 << s.n):
            yield s, u_mask, f"{desc}; U={set_label(s, u_mask)}"


def _extension_pairs(ctx: Context) -> Iterator[tuple[Poset, int, str]]:
    for s, u_mask, inst in _pairs(ctx):
        if is_germ_extension(s, u_mask):
            yield s, u_mask, inst


# -- germ facts --------------------------------------------------------------


def _pred_cogerm_uniqueness(ctx: Context) -> Iterator[Result]:
    """Every germ admits exactly one cogerm, found by scanning every v,
    and the germ finder's bridge walk returns that cogerm."""
    for p in ctx.posets:
        walked = dict(germs_within(p.up, p.down, p.full_mask))
        for u in range(p.n):
            cands = cogerms_within(p.up, p.down, p.full_mask, u)
            walk = [walked[u]] if u in walked else []
            detail = f"cogerms {[p.labels[v] for v in cands]}"
            if walk != cands:
                detail += f"; the walk gives {[p.labels[v] for v in walk]}"
            yield (
                f"{describe_poset(p)}; u={p.labels[u]}",
                len(cands) <= 1 and walk == cands,
                detail,
            )


def _pred_germ_chain_nesting(ctx: Context) -> Iterator[Result]:
    """Distinct germs u, u' with cogerms v, v': u' > u forces
    v' >= u' > v >= u, and u' <= v forces u' <= v' < u <= v."""
    for p in ctx.posets:
        recs = grm(p)
        for a in recs:
            for b in recs:
                if a.germ == b.germ:
                    continue
                u, v = a.germ, a.cogerm
                u2, v2 = b.germ, b.cogerm
                inst = f"{describe_poset(p)}; germs {p.labels[u]},{p.labels[u2]}"
                if p.lt(u, u2):
                    ok = p.leq(u2, v2) and p.lt(v, u2) and p.leq(u, v)
                    yield inst, ok, "chain v' >= u' > v >= u broken"
                if p.leq(u2, v):
                    ok = p.leq(u2, v2) and p.lt(v2, u) and p.leq(u, v)
                    yield inst, ok, "chain u' <= v' < u <= v broken"


def _pred_base_detects(ctx: Context) -> Iterator[Result]:
    """A germ extension is detected by its base."""
    for s, u_mask, inst in _extension_pairs(ctx):
        yield inst, detects(s, u_mask), "not detected"


def _pred_shadow_shape_exclusive(ctx: Context) -> Iterator[Result]:
    """In a germ extension, every shadow U_{<=s} is a cut U_{<=B} or a
    strict germ cut, never both, never neither."""
    for s, u_mask, inst in _extension_pairs(ctx):
        for t in range(s.n):
            b = lambda_witness(s, u_mask, t)
            r = germ_cut_witness(s, u_mask, t)
            yield (
                f"{inst}; s={s.labels[t]}",
                (b is None) != (r is None),
                "both shapes" if b is not None and r is not None else "neither shape",
            )


def _pred_shadows_force_extension(ctx: Context) -> Iterator[Result]:
    """Detection plus both shadow shapes everywhere forces a germ
    extension."""
    for s, u_mask, inst in _pairs(ctx):
        if not detects(s, u_mask):
            continue
        if any(
            lambda_witness(s, u_mask, t) is None
            and germ_cut_witness(s, u_mask, t) is None
            for t in range(s.n)
        ):
            continue
        yield (
            inst,
            is_germ_extension(s, u_mask),
            "hypotheses hold but some non-base element is not a germ",
        )


def _pred_intermediate_extension(ctx: Context) -> Iterator[Result]:
    """Anything between a base and a germ extension of it is again a germ
    extension of the base."""
    for s, u_mask, inst in _extension_pairs(ctx):
        rest = s.full_mask & ~u_mask
        sub_bits = list(bit_indices(rest))
        for pick in range(1 << len(sub_bits)):
            r_mask = u_mask | mask_of(sub_bits[k] for k in bit_indices(pick))
            # R germ-extends U when everything R adds is a germ of R
            r_germs = mask_of(r for r, _ in germs_within(s.up, s.down, r_mask))
            yield (
                f"{inst}; R={set_label(s, r_mask)}",
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


def _pred_universal_property(ctx: Context) -> Iterator[Result]:
    """A germ extension embeds into the closure of its base by
    s -> U_{<=s}, and no other base-fixing embedding exists."""
    for s, u_mask, inst in _extension_pairs(ctx):
        try:
            clos, _ = canonical_embed(s, u_mask)
        except InvariantViolation as e:
            yield inst, False, f"canonical embedding broke: {e}"
            continue
        n_embeddings = _count_base_fixing_embeddings(clos, s, list(bit_indices(u_mask)))
        yield inst, n_embeddings == 1, f"{n_embeddings} base-fixing embeddings"


# -- closure facts -----------------------------------------------------------


def _pred_lambda_ghat_disjoint(ctx: Context) -> Iterator[Result]:
    """The cut family and the germ-cut family never overlap, and no two
    germs share a strict cut."""
    for p in ctx.posets:
        lam = set(lambda_sets(p))
        ghat = ghat_sets(p)
        ok = not lam.intersection(ghat) and len(set(ghat)) == len(ghat)
        yield describe_poset(p), ok, "cut families overlap"


def _pred_closure_lattice(ctx: Context) -> Iterator[Result]:
    """The closure contains the empty set and all of U, is closed under
    intersection (incomparable pairs landing in the cut family), and is a
    lattice whose meets are intersections."""
    for p, clos in ctx.closures():
        inst = describe_poset(p)
        members = set(clos.masks)
        if 0 not in members or p.full_mask not in members:
            yield inst, False, "missing empty set or full base"
            continue
        try:
            lat = Lattice.from_poset(clos.poset)
        except NotALattice as e:
            yield inst, False, f"closure is not a lattice: {e}"
            continue
        ok = True
        detail = ""
        for i in range(clos.n):
            for j in range(i + 1, clos.n):
                inter = clos.masks[i] & clos.masks[j]
                if inter not in members:
                    ok, detail = False, "not intersection closed"
                    break
                incomparable = (
                    clos.masks[i] & ~clos.masks[j] and clos.masks[j] & ~clos.masks[i]
                )
                if incomparable and not isinstance(
                    clos.cases[clos.index_of(inter)], LambdaCase
                ):
                    ok, detail = False, "incomparable meet outside the cut family"
                    break
                if lat.meet(i, j) != clos.index_of(inter):
                    ok, detail = False, "lattice meet is not intersection"
                    break
                if lat.join(i, j) != clos.join(i, j):
                    ok, detail = False, "joins disagree with least upper cover"
                    break
            if not ok:
                break
        yield inst, ok, detail


def _pred_germ_transfer(ctx: Context) -> Iterator[Result]:
    """Germs passing between a germ extension and its base: base elements
    that are ambient germs are base germs; each base germ keeps its chain
    and either stays an ambient germ with the same cogerm or sits right
    above an ambient germ outside the base with that cogerm."""
    for s, u_mask, inst in _extension_pairs(ctx):
        base_germs = germs_within(s.up, s.down, u_mask)
        base_germ_mask = mask_of(r for r, _ in base_germs)
        for rec in grm(s):
            if u_mask >> rec.germ & 1:
                yield (
                    f"{inst}; s={s.labels[rec.germ]}",
                    bool(base_germ_mask >> rec.germ & 1),
                    "ambient germ in the base is not a base germ",
                )
        s_germ_recs = {r.germ: r for r in grm(s)}
        for r, rhat in base_germs:
            inst_r = f"{inst}; r={s.labels[r]}"
            # [r,r^]_U is [r,r^]_S restricted to U, so they differ when S adds to it
            if s.closed(r, rhat) & ~u_mask:
                yield inst_r, False, "[r,r^]_S differs from [r,r^]_U"
                continue
            cut = s.strict_down(r)
            case_a = s.sup_of(cut) == r
            greatest = next(
                (x for x in bit_indices(cut) if cut & ~s.down[x] == 0), None
            )
            if case_a == (greatest is not None):
                yield inst_r, False, "neither or both germ-passage cases triggered"
                continue
            if case_a:
                got = s_germ_recs.get(r)
                yield (
                    inst_r,
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
                yield inst_r, ok, "greatest-element case misbehaves"


def _pred_reconstruction(ctx: Context) -> Iterator[Result]:
    """Reconstruction: the embedded base is exactly the closure minus its
    germs, automorphisms transport bijectively, and stripping a lattice's
    germs and closing gives the lattice back."""
    for p, clos in ctx.closures():
        inst = describe_poset(p)
        image = mask_of(clos.embed)
        ok = image == clos.poset.full_mask & ~grm_mask(clos.poset)
        yield inst, ok, "embedded base is not closure minus germs"
        try:
            aut_transport(clos)
            yield inst, True, ""
        except InvariantViolation as e:
            yield inst, False, f"automorphism transport broke: {e}"
    for t in ctx.lattices:
        inst = describe_poset(t.poset)
        try:
            reconstruct_from_lattice(t)
            yield inst, True, ""
        except InvariantViolation as e:
            yield inst, False, f"reconstruction broke: {e}"


# -- lattice embedding facts -------------------------------------------------


def _pred_nu_criterion(ctx: Context) -> Iterator[Result]:
    """ν is injective exactly when every germ clears its join, and ν is
    always monotone."""
    for t in ctx.lattices:
        desc = describe_poset(t.poset)
        for u_mask in range(1 << t.n):
            inst = f"{desc}; U={set_label(t.poset, u_mask)}"
            try:
                res = is_germ_extensible(t, u_mask)
            except InvariantViolation:
                # raised when the criterion holds but ν is not injective
                yield inst, False, "criterion says True, injectivity says False"
                continue
            size = len(res.masks)
            direct = len(set(res.nu_image)) == size
            yield inst, res.extensible == direct, (
                f"criterion says {res.extensible}, injectivity says {direct}"
            )
            monotone = all(
                t.poset.leq(res.nu_image[i], res.nu_image[j])
                for i in range(size)
                for j in range(size)
                if res.masks[i] & ~res.masks[j] == 0
            )
            if not monotone:
                yield inst, False, "ν is not monotone"


def _pred_partition(ctx: Context) -> Iterator[Result]:
    """Unique bases tile the powerset into intervals [U, Ḡ(U)], and the
    full lattice's own base is the lattice minus its germs."""
    for t in ctx.lattices:
        inst = describe_poset(t.poset)
        try:
            cells = verify_partition(t)
        except InvariantViolation as e:
            yield inst, False, f"partition broke: {e}"
            continue
        total = sum(len(c.members) for c in cells)
        yield inst, total == 1 << t.n, f"cells cover {total} of {1 << t.n} subsets"
        base = next(c.base_mask for c in cells if c.top_mask == t.poset.full_mask)
        ok = base == t.poset.full_mask & ~grm_mask(t.poset)
        yield inst, ok, "base of the whole lattice is not lattice minus germs"


def _pred_irr_closure(ctx: Context) -> Iterator[Result]:
    """The irreducibles are germ extensible and close onto G_T."""
    for t in ctx.lattices:
        yield describe_poset(t.poset), irr_closure_equals_g_t(t), "Ḡ(E) differs from G_T"


def _pred_closure_vs_lowerset(ctx: Context) -> Iterator[Result]:
    """Computing the closure inside the lower-set lattice by the operator
    route lands on the same two families."""
    for p in ctx.posets:
        lsl = lower_set_lattice(p)
        masks = lsl.element_masks
        lam = lambda_e(lsl)
        lam_t = {masks[i] for i in bit_indices(lam)}
        ghat_via_t = {masks[i] for i in bit_indices(g_sharp(lsl) & ~lam)}
        lam_u = set(lambda_sets(p))
        ghat_u = set(ghat_sets(p))
        ok = lam_t == lam_u and ghat_via_t == ghat_u
        yield describe_poset(p), ok, (
            f"operator route gives Λ of {len(lam_t)} and Ĝ of {len(ghat_via_t)},"
            f" closure has {len(lam_u)} and {len(ghat_u)}"
        )


def _pred_op_duality_probe(ctx: Context) -> Iterator[Result]:
    """Advisory: G(U^op) and G(U)^op appear to be isomorphic."""
    for p, clos in ctx.closures():
        a = germ_closure(p.opposite()).poset
        b = clos.poset.opposite()
        ok = bool(isomorphisms(a, b, limit=1))
        yield describe_poset(p), ok, "closure of the opposite is not the opposite closure"


@dataclass(frozen=True)
class Predicate:
    name: str
    fn: Callable[[Context], Iterator[Result]]
    advisory: bool = False


PREDICATES: dict[str, Predicate] = {
    p.name: p
    for p in [
        Predicate("cogerm-uniqueness", _pred_cogerm_uniqueness),
        Predicate("germ-chain-nesting", _pred_germ_chain_nesting),
        Predicate("base-detects", _pred_base_detects),
        Predicate("shadow-shape-exclusive", _pred_shadow_shape_exclusive),
        Predicate("shadows-force-extension", _pred_shadows_force_extension),
        Predicate("intermediate-extension", _pred_intermediate_extension),
        Predicate("universal-property", _pred_universal_property),
        Predicate("lambda-ghat-disjoint", _pred_lambda_ghat_disjoint),
        Predicate("closure-lattice", _pred_closure_lattice),
        Predicate("germ-transfer", _pred_germ_transfer),
        Predicate("reconstruction", _pred_reconstruction),
        Predicate("nu-criterion", _pred_nu_criterion),
        Predicate("partition", _pred_partition),
        Predicate("irr-closure-is-g-t", _pred_irr_closure),
        Predicate("closure-vs-lowerset", _pred_closure_vs_lowerset),
        Predicate("op-duality-probe", _pred_op_duality_probe, advisory=True),
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
