"""Command line surface.

Subcommands wrap the library one-to-one and print deterministic text, so
the outputs freeze well into golden files. Exit codes: 0 success, 1 for
domain errors (cycles, non-lattices, bad subsets), 2 for unparseable
documents, 3 for blown enumeration caps, 4 for a broken internal invariant.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Sequence

from .closure import GermClosure, germ_closure
from .documents import (
    PosetDocument,
    from_poset,
    load_document,
    serialize_poset,
    serialize_poset_json,
    to_poset,
)
from .dot import to_dot
from .embed import g_sharp, is_germ_extensible, unique_base, verify_partition
from .enumeration import CorpusSpec
from .errors import CapExceeded, DocumentSyntaxError, InvariantViolation, PosetError
from .germs import LambdaCase, grm
from .harness import PREDICATES, run_suite
from .lattice import Lattice, lambda_e, r_inf, sigma_inf
from .poset import Poset, automorphism_count, set_label
from .repdim import DimQuery, evaluate, g_size


def _load(args) -> tuple[PosetDocument, Poset]:
    doc = load_document(args.file)
    return doc, to_poset(doc)


def _subset_mask(p: Poset, spec: str) -> int:
    return p.subset(tok.strip() for tok in spec.split(",") if tok.strip())


def _chain_str(rec) -> str:
    return "<".join(rec.poset.labels[i] for i in rec.chain)


def cmd_grm(args) -> int:
    doc, p = _load(args)
    recs = grm(p)
    print(f"germs of {doc.name}: {len(recs)}")
    for rec in recs:
        u, v = rec.labels()
        print(f"  germ {u}  cogerm {v}  chain {_chain_str(rec)}")
    return 0


def _case_str(clos: GermClosure, i: int) -> str:
    case = clos.cases[i]
    if isinstance(case, LambdaCase):
        return f"cut of {set_label(clos.base, case.witness)}"
    return f"germ cut at {clos.base.labels[case.germ]}"


def cmd_closure(args) -> int:
    doc, p = _load(args)
    clos = germ_closure(p)
    gdoc = from_poset(clos.poset, name=f"G({doc.name})")
    if args.format == "json":
        payload = {
            "document": json.loads(serialize_poset_json(gdoc)),
            "classification": [
                {"member": clos.poset.labels[i], "case": _case_str(clos, i)}
                for i in range(clos.n)
            ],
            "embedding": {
                p.labels[k]: clos.poset.labels[clos.embed[k]] for k in range(p.n)
            },
        }
        print(json.dumps(payload, indent=2))
        return 0
    print(serialize_poset(gdoc), end="")
    print("classification:")
    for i in range(clos.n):
        print(f"  {clos.poset.labels[i]}  {_case_str(clos, i)}")
    print("embedding:")
    for k in range(p.n):
        print(f"  {p.labels[k]} -> {clos.poset.labels[clos.embed[k]]}")
    return 0


def cmd_gt(args) -> int:
    doc, p = _load(args)
    t = Lattice.from_poset(p)
    lam = lambda_e(t)
    hat = g_sharp(t) & ~lam
    members = lam | hat
    print(f"G_T of {doc.name}: {members.bit_count()} of {t.n} elements")
    for x in range(t.n):
        s = sigma_inf(t, x)
        r = r_inf(t, s)
        family = "cut" if lam >> x & 1 else "germ-cut" if hat >> x & 1 else "none"
        print(
            f"  {p.labels[x]}  sigma^inf={p.labels[s]}"
            f"  r^inf={p.labels[r]}  family={family}"
        )
    return 0


def cmd_extensible(args) -> int:
    doc, p = _load(args)
    t = Lattice.from_poset(p)
    res = is_germ_extensible(t, _subset_mask(p, args.subset))
    verdict = "extensible" if res.extensible else "not extensible"
    print(f"U = {set_label(p, res.subset)} inside {doc.name}: {verdict}")
    print(f"closure size: {len(res.masks)}")
    if res.extensible:
        print(f"G-bar: {set_label(p, res.g_bar)}")
    else:
        germs = " ".join(p.labels[i] for i in res.violating_germs)
        print(f"violating germs: {germs}")
    return 0


def cmd_base(args) -> int:
    doc, p = _load(args)
    t = Lattice.from_poset(p)
    s_mask = _subset_mask(p, args.subset)
    res = unique_base(t, s_mask)
    print(f"S = {set_label(p, s_mask)} inside {doc.name}")
    print(f"base U = {set_label(p, res.subset)}")
    print(f"G-bar(U) = {set_label(p, res.g_bar)}")
    return 0


def cmd_partition(args) -> int:
    doc, p = _load(args)
    t = Lattice.from_poset(p)
    cells = verify_partition(t)
    print(f"partition of subsets of {doc.name}: {len(cells)} cells, {1 << t.n} subsets")
    for cell in cells:
        print(
            f"  base {set_label(p, cell.base_mask)}"
            f"  g-bar {set_label(p, cell.top_mask)}"
            f"  size {len(cell.members)}"
        )
    return 0


def cmd_dim(args) -> int:
    if args.x_min > args.x_max:
        print(f"--x-min {args.x_min} is above --x-max {args.x_max}", file=sys.stderr)
        return 2
    doc, p = _load(args)
    e = p if args.orientation == "e" else p.opposite()
    g = g_size(e)
    g_other = g_size(e.opposite())
    aut = automorphism_count(p)
    print(
        f"dimension table for {doc.name}: |E|={p.n} |G|={g} |Aut|={aut}"
        f" dim V={args.dim_v} orientation={args.orientation}"
    )
    for x in range(args.x_min, args.x_max + 1):
        val = evaluate(DimQuery(p, x, args.dim_v), g, aut)
        print(f"  |X|={x}: {val}")
    if g_other != g:
        other = "eop" if args.orientation == "e" else "e"
        print(
            f"note: the opposite orientation has |G|={g_other};"
            f" rerun with --orientation {other}"
        )
    return 0


def cmd_verify(args) -> int:
    names = None
    if args.predicates is not None:
        names = [tok.strip() for tok in args.predicates.split(",") if tok.strip()]
        unknown = [n for n in names if n not in PREDICATES]
        repeated = sorted({n for n in names if names.count(n) > 1})
        if unknown:
            print(f"unknown predicates: {', '.join(unknown)}", file=sys.stderr)
            return 2
        if repeated:
            print(f"predicates named twice: {', '.join(repeated)}", file=sys.stderr)
            return 2
        if not names:
            print("no predicates selected", file=sys.stderr)
            return 2
    specs = [
        CorpusSpec(args.max_size, "posets", args.up_to_iso),
        CorpusSpec(args.lattice_max_size, "lattices"),
    ]
    sink = None
    if args.format == "json":

        def sink(pred: str, instance: str, ok: bool, detail: str) -> None:
            print(
                json.dumps(
                    {"predicate": pred, "instance": instance, "ok": ok, "detail": detail}
                )
            )

    reports = run_suite(specs, predicates=names, sink=sink)
    hard = 0
    if args.format == "text":
        for r in reports:
            status = "ok" if r.ok else f"{len(r.failures)} failures"
            tag = " (advisory)" if r.advisory else ""
            print(f"{r.name}: checked={r.checked} {status}{tag}")
            for inst, detail in r.failures:
                print(f"  FAIL {inst} | {detail}")
    for r in reports:
        if not r.advisory:
            hard += len(r.failures)
    return 0 if hard == 0 else 1


def cmd_dot(args) -> int:
    doc, p = _load(args)
    lat = Lattice.from_poset(p) if doc.kind == "lattice" else None
    print(to_dot(p, name=doc.name, lattice=lat), end="")
    return 0


def _at_least(low: int):
    """An argparse int type rejecting values below low."""

    def parse(text: str) -> int:
        if int(text) < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {text}")
        return int(text)

    parse.__name__ = "int"  # names the type in "invalid int value" errors
    return parse


def _parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="germclosure",
        description="Germ closures of posets: computation, embedding, verification.",
    )
    sub = top.add_subparsers(dest="command", required=True)

    def add(name: str, fn, help_: str, needs_file: bool = True):
        sp = sub.add_parser(name, help=help_)
        if needs_file:
            sp.add_argument("file", help="poset document (.txt grammar or .json)")
        sp.set_defaults(fn=fn)
        return sp

    add("grm", cmd_grm, "list the germs, cogerms and connecting chains")

    sp = add("closure", cmd_closure, "print G(U) with its classification table")
    sp.add_argument("--format", choices=("text", "json"), default="text")

    add("gt", cmd_gt, "G_T membership table for a lattice")

    sp = add("extensible", cmd_extensible, "test germ extensibility of a subset")
    sp.add_argument("--subset", required=True, help="comma-separated labels")

    sp = add("base", cmd_base, "unique germ-extensible base below a subset")
    sp.add_argument("--subset", required=True, help="comma-separated labels")

    add("partition", cmd_partition, "interval partition of all subsets")

    sp = add("dim", cmd_dim, "dimension table over a range of |X|")
    sp.add_argument("--x-max", type=_at_least(0), required=True)
    sp.add_argument("--x-min", type=_at_least(0), default=0)
    sp.add_argument("--dim-v", type=_at_least(1), default=1)
    sp.add_argument("--orientation", choices=("e", "eop"), default="e")

    sp = add("verify", cmd_verify, "run the fact suite over a corpus", needs_file=False)
    sp.add_argument("--max-size", type=_at_least(0), default=4, help="largest poset size")
    sp.add_argument("--lattice-max-size", type=_at_least(0), default=4)
    sp.add_argument("--predicates", help="comma-separated names (default: all)")
    sp.add_argument("--format", choices=("text", "json"), default="text")
    sp.add_argument(
        "--up-to-iso", action=argparse.BooleanOptionalAction, default=True
    )

    add("dot", cmd_dot, "Hasse diagram in DOT, germs boxed")
    return top


def main(argv: Sequence[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.fn(args)
    except DocumentSyntaxError as e:
        print(f"syntax error: {e}", file=sys.stderr)
        return 2
    except OSError as e:
        print(f"cannot read input: {e}", file=sys.stderr)
        return 2
    except CapExceeded as e:
        print(f"cap exceeded: {e}", file=sys.stderr)
        return 3
    except PosetError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except InvariantViolation as e:
        print(f"internal invariant violated: {e}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
