"""The document grammar: parsing, serialization, round-trips, error
positions, extension dispatch."""

import pytest

from germclosure import (
    CycleError,
    DocumentSyntaxError,
    PosetDocument,
    UnknownLabel,
    from_poset,
    load_document,
    parse_poset,
    parse_poset_json,
    serialize_poset,
    serialize_poset_json,
    to_poset,
)
from germclosure.cli import main
from germclosure.poset import Poset


def test_parse_spec_examples():
    doc = parse_poset("elements: a b c\nrelations: a<c b<c")
    p = to_poset(doc)
    assert p.leq(p.index("a"), p.index("c"))
    assert not p.leq(p.index("a"), p.index("b"))

    single = to_poset(parse_poset("elements: a\nrelations:"))
    assert single.n == 1

    with pytest.raises(CycleError):
        to_poset(parse_poset("elements: a b\nrelations: a<b b<a"))


def test_parse_full_document():
    doc = parse_poset(
        "# a comment\n"
        "name: sample\n"
        "kind: lattice\n"
        "\n"
        "elements: x y\n"
        "relations: x<y\n"
    )
    assert doc == PosetDocument("sample", ("x", "y"), (("x", "y"),), "lattice")


def test_syntax_error_positions():
    with pytest.raises(DocumentSyntaxError) as e:
        parse_poset("elements a b\n")
    assert (e.value.line, e.value.column) == (1, 1)

    with pytest.raises(DocumentSyntaxError) as e:
        parse_poset("elements: a b\nrelations: a<b c\n")
    assert e.value.line == 2
    assert e.value.column == 16
    assert "a<b" in e.value.expected

    with pytest.raises(DocumentSyntaxError) as e:
        parse_poset("kind: group\nelements: a\nrelations:")
    assert e.value.line == 1

    with pytest.raises(DocumentSyntaxError) as e:
        parse_poset("flavor: sweet\n")
    assert "name:" in e.value.expected


def test_missing_sections():
    with pytest.raises(DocumentSyntaxError):
        parse_poset("relations: a<b")
    with pytest.raises(DocumentSyntaxError):
        parse_poset("elements: a b")


def test_second_elements_line_is_a_syntax_error():
    """A second elements: line is rejected where it stands instead of
    replacing the first."""
    with pytest.raises(DocumentSyntaxError) as e:
        parse_poset("elements: a b\n# more\nelements: c\nrelations:\n")
    assert (e.value.line, e.value.column) == (3, 1)
    assert "elements:" in e.value.expected
    # an empty first line counts too
    with pytest.raises(DocumentSyntaxError) as e:
        parse_poset("elements:\nrelations:\nelements: a\n")
    assert e.value.line == 3


def test_second_name_or_kind_line_is_a_syntax_error():
    """name: and kind: may appear once, as elements: may; relations: may
    repeat."""
    for text, line in [
        ("name: first\nname: second\nelements: a\nrelations:\n", 2),
        ("kind: lattice\n# more\nkind: poset\nelements: a\nrelations:\n", 3),
    ]:
        with pytest.raises(DocumentSyntaxError) as e:
            parse_poset(text)
        assert (e.value.line, e.value.column) == (line, 1)
        assert text.splitlines()[line - 1].split(":")[0] + ":" in e.value.expected
    doc = parse_poset("elements: a b c\nrelations: a<b\nrelations: b<c\n")
    assert doc.relations == (("a", "b"), ("b", "c"))


REJECTED = {
    "names.txt": "name: first\nname: second\nkind: lattice\nkind: poset\nelements: a\nrelations:\n",
    "kinds.txt": "kind: lattice\nkind: poset\nelements: a\nrelations:\n",
    "key.json": '{"elements": ["a", "b"], "Relations": [["a", "b"]]}',
    "space.json": '{"elements": ["a", "b"], "relations": [["a", "b c"]]}',
    "empty.json": '{"elements": ["a", "b"], "relations": [["a", ""]]}',
}


@pytest.mark.parametrize("name", REJECTED)
def test_rejected_documents_exit_2(tmp_path, capsys, name):
    """A repeated name: or kind: line, an unknown JSON key and a JSON
    relation end that is not a label exit 2 from the command line, as a
    text-grammar syntax error does, and print nothing on stdout."""
    doc = tmp_path / name
    doc.write_text(REJECTED[name])
    assert main(["grm", str(doc)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("syntax error: line ")


def test_unknown_label_surfaces_from_to_poset():
    doc = parse_poset("elements: a\nrelations: a<b")
    with pytest.raises(UnknownLabel):
        to_poset(doc)


def test_text_round_trip():
    doc = PosetDocument("v", ("a", "b", "c"), (("a", "c"), ("b", "c")))
    assert parse_poset(serialize_poset(doc)) == doc
    # serialize(parse(.)) is idempotent on its own output
    once = serialize_poset(doc)
    assert serialize_poset(parse_poset(once)) == once


def test_empty_poset_round_trip():
    doc = PosetDocument("none", (), ())
    text = serialize_poset(doc)
    assert parse_poset(text) == doc


def test_json_round_trip():
    doc = PosetDocument("v", ("a", "b"), (("a", "b"),), "lattice")
    assert parse_poset_json(serialize_poset_json(doc)) == doc


def test_json_errors():
    with pytest.raises(DocumentSyntaxError):
        parse_poset_json("{not json")
    with pytest.raises(DocumentSyntaxError):
        parse_poset_json("[1, 2]")
    with pytest.raises(DocumentSyntaxError):
        parse_poset_json('{"elements": ["a b"], "relations": []}')
    with pytest.raises(DocumentSyntaxError):
        parse_poset_json('{"elements": ["a"], "relations": [["a"]]}')
    with pytest.raises(DocumentSyntaxError):
        parse_poset_json('{"elements": ["a"], "relations": [], "kind": "heap"}')
    # a name is what the text grammar's name: line could hold: a string,
    # not blank, without a line break
    for name in ["null", "7", '["v"]', '""', '"  "', r'"x\ny"', r'"x\n"', r'"x\ry"', r'"x\u2028y"']:
        with pytest.raises(DocumentSyntaxError) as e:
            parse_poset_json(f'{{"name": {name}, "elements": ["a"], "relations": []}}')
        assert "name" in e.value.expected, name
    # relation ends are labels, not values coerced to text: [null, "a"] is
    # not None<a even when an element is named None; and they pass the
    # label test the elements pass, as a<b c fails in the text form
    for pair in ['[null, "a"]', '["a", 1]', '[["a"], "b"]', '["a", {}]',
                 '["a", "b c"]', '["a", ""]', '["a<b", "a"]', '["\\t", "a"]']:
        doc = f'{{"elements": ["None", "a", "b", "1"], "relations": [{pair}]}}'
        with pytest.raises(DocumentSyntaxError) as e:
            parse_poset_json(doc)
        assert "relations" in e.value.expected, pair
    # a misspelled key is an error, not an antichain
    for extra in ['"Relations": [["a", "b"]]', '"extra": 1']:
        with pytest.raises(DocumentSyntaxError) as e:
            parse_poset_json(f'{{"elements": ["a", "b"], "relations": [], {extra}}}')
        assert e.value.expected == "a JSON object of name, kind, elements, relations", extra


def test_from_poset_emits_covers():
    p = Poset.from_relations(["a", "b", "c"], [("a", "b"), ("b", "c"), ("a", "c")])
    doc = from_poset(p, "c3")
    assert doc.relations == (("a", "b"), ("b", "c"))
    assert to_poset(doc) == p


def test_load_document_dispatches_on_extension(tmp_path):
    txt = tmp_path / "p.txt"
    txt.write_text("elements: a\nrelations:\n")
    assert load_document(txt).elements == ("a",)

    js = tmp_path / "p.json"
    js.write_text('{"name": "j", "elements": ["a"], "relations": []}')
    assert load_document(js).name == "j"
