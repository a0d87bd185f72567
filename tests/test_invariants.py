"""Internal invariants: checked by explicit raises, so python -O keeps
them, and reported by the CLI as a named failure instead of a traceback."""

import ast
from pathlib import Path

import germclosure
import germclosure.closure
import germclosure.embed
from germclosure.cli import main

PACKAGE = Path(germclosure.__file__).parent
TWELVE = Path(__file__).parent / "golden" / "inputs" / "twelve.txt"


def test_no_assert_statements_in_the_package():
    """python -O strips assert statements, so the package raises
    InvariantViolation instead."""
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(PACKAGE.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def test_reconstruction_reports_a_broken_embedding(monkeypatch, capsys):
    """A canonical embedding that fails its order check makes every
    lattice of the reconstruction predicate fail, with or without -O."""
    monkeypatch.setattr(germclosure.closure, "detects", lambda p, u_mask: False)
    argv = ["verify", "--max-size", "3", "--lattice-max-size", "3", "--predicates", "reconstruction"]
    code = main(argv)
    out, err = capsys.readouterr()
    assert code == 1
    assert out.splitlines()[0] == "reconstruction: checked=21 3 failures"
    assert out.count("| reconstruction broke: canonical embedding does not preserve the order") == 3
    assert err == ""


def test_cli_names_a_broken_invariant(monkeypatch, capsys):
    """A germ finder that misses every germ leaves unique_base a base that
    is not extensible; the CLI exits 4 with one line on stderr."""
    monkeypatch.setattr(germclosure.embed, "germs_within", lambda up, down, mask: [])
    code = main(["base", str(TWELVE), "--subset", "bot,H,I,M,E,F,G,C,D,A,B,top"])
    out, err = capsys.readouterr()
    assert code == 4
    assert out == ""
    assert err == (
        "internal invariant violated: the base produced by germ removal is not extensible\n"
    )
