"""Line-oriented poset documents, plus a JSON twin.

The text grammar, one directive per line:

    name: <word>              (optional)
    kind: poset | lattice     (optional, default poset)
    elements: a b c           (labels: no whitespace, no '<')
    relations: a<c b<c        (each token is label<label)

Blank lines and lines starting with '#' are skipped. name:, kind: and
elements: may each appear once; relations: may repeat. The JSON form is
an object with the same four keys and no others, its name a non-blank
string on one line and its relations two-element arrays of labels.
Parsing normalizes nothing beyond whitespace; serialization emits the
directives in the order above and round-trips with parse.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

from .errors import DocumentSyntaxError
from .poset import Poset

KINDS = ("poset", "lattice")


@dataclass(frozen=True)
class PosetDocument:
    name: str
    elements: tuple[str, ...]
    relations: tuple[tuple[str, str], ...]
    kind: str = "poset"


def _bad_label(s: str) -> bool:
    # splitting on whitespace leaves a non-empty label without any whole
    return "<" in s or s.split() != [s]


def _is_labels(v: object) -> bool:
    return isinstance(v, list) and all(isinstance(x, str) and not _bad_label(x) for x in v)


def parse_poset(text: str) -> PosetDocument:
    """Parse the text grammar above. Column numbers are 1-based offsets
    of the offending token."""
    name = "poset"
    kind = "poset"
    elements: tuple[str, ...] = ()
    relations: list[tuple[str, str]] = []
    seen: set[str] = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        head, sep, rest = raw.partition(":")
        if not sep:
            raise DocumentSyntaxError(lineno, 1, "a '<directive>:' line")
        directive = head.strip()
        col = len(head) + 2
        if directive in seen and directive != "relations":
            raise DocumentSyntaxError(lineno, 1, f"no second {directive}: line")
        seen.add(directive)
        if directive == "name":
            name = rest.strip()
            if not name:
                raise DocumentSyntaxError(lineno, col, "a name")
        elif directive == "kind":
            kind = rest.strip()
            if kind not in KINDS:
                raise DocumentSyntaxError(lineno, col, "'poset' or 'lattice'")
        elif directive == "elements":
            for tok in rest.split():
                if _bad_label(tok):
                    raise DocumentSyntaxError(
                        lineno, raw.index(tok, col - 1) + 1, "a label without '<'"
                    )
                elements += (tok,)
        elif directive == "relations":
            for tok in rest.split():
                a, sep2, b = tok.partition("<")
                if not sep2 or _bad_label(a) or _bad_label(b):
                    raise DocumentSyntaxError(
                        lineno, raw.index(tok, col - 1) + 1, "a token of the form a<b"
                    )
                relations.append((a, b))
        else:
            raise DocumentSyntaxError(
                lineno, 1, "one of name:, kind:, elements:, relations:"
            )
    if "elements" not in seen:
        raise DocumentSyntaxError(0, 0, "an elements: line")
    if "relations" not in seen:
        raise DocumentSyntaxError(0, 0, "a relations: line")
    return PosetDocument(name, elements, tuple(relations), kind)


def serialize_poset(doc: PosetDocument) -> str:
    lines = [f"name: {doc.name}", f"kind: {doc.kind}"]
    lines.append("elements: " + " ".join(doc.elements) if doc.elements else "elements:")
    rels = " ".join(f"{a}<{b}" for a, b in doc.relations)
    lines.append(f"relations: {rels}" if rels else "relations:")
    return "\n".join(lines) + "\n"


def parse_poset_json(text: str) -> PosetDocument:
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as e:
        raise DocumentSyntaxError(e.lineno, e.colno, "valid JSON") from e
    if not isinstance(obj, dict) or obj.keys() - {"name", "kind", "elements", "relations"}:
        raise DocumentSyntaxError(1, 1, "a JSON object of name, kind, elements, relations")
    kind = obj.get("kind", "poset")
    if kind not in KINDS:
        raise DocumentSyntaxError(1, 1, "'poset' or 'lattice' kind")
    elements = obj.get("elements")
    if not _is_labels(elements):
        raise DocumentSyntaxError(1, 1, "an 'elements' array of labels")
    relations = obj.get("relations", [])
    if not isinstance(relations, list) or not all(
        _is_labels(r) and len(r) == 2 for r in relations
    ):
        raise DocumentSyntaxError(1, 1, "a 'relations' array of [a, b] label pairs")
    # the text grammar's name: is one non-blank line
    name = obj.get("name", "poset")
    if not isinstance(name, str) or not name.strip() or name.splitlines() != [name]:
        raise DocumentSyntaxError(1, 1, "a 'name' string on one line")
    return PosetDocument(name, tuple(elements), tuple((a, b) for a, b in relations), kind)


def serialize_poset_json(doc: PosetDocument) -> str:
    return (
        json.dumps(
            {
                "name": doc.name,
                "kind": doc.kind,
                "elements": list(doc.elements),
                "relations": [list(r) for r in doc.relations],
            },
            indent=2,
        )
        + "\n"
    )


def to_poset(doc: PosetDocument) -> Poset:
    return Poset.from_relations(list(doc.elements), list(doc.relations))


def from_poset(p: Poset, name: str = "poset", kind: str = "poset") -> PosetDocument:
    """Document with the cover pairs as relations; parse(serialize(.))
    rebuilds an order-identical poset."""
    rels = tuple((p.labels[i], p.labels[j]) for i, j in p.cover_pairs())
    return PosetDocument(name, tuple(p.labels), rels, kind)


def load_document(path: str | Path) -> PosetDocument:
    """Read a UTF-8 document, dispatching on the .json extension."""
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except UnicodeDecodeError as e:
        line = e.object[: e.start].split(b"\n")
        raise DocumentSyntaxError(len(line), len(line[-1].decode()) + 1, "UTF-8 text") from None
    if path.suffix == ".json":
        return parse_poset_json(text)
    return parse_poset(text)
