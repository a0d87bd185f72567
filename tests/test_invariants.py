"""Internal invariants: checked by explicit raises, so python -O keeps
them, and reported by the CLI as a named failure instead of a traceback."""

import ast
from pathlib import Path

import pytest

import germclosure
import germclosure.closure
import germclosure.embed
from germclosure.cli import main
from germclosure.harness import PREDICATES

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


def test_every_import_in_the_package_is_used():
    """A name a module imports but never reads is left over from code
    that moved away. __init__.py re-exports and __future__ imports are
    exempt."""
    unused = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(), str(path))
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                unused += [
                    f"{path.name}:{node.lineno} {name}"
                    for alias in node.names
                    if (name := alias.asname or alias.name.split(".")[0]) not in read
                ]
    assert unused == []


def test_reconstruction_reports_a_broken_embedding(monkeypatch, capsys):
    """A canonical embedding that fails its order check makes every
    lattice of the reconstruction predicate fail, named by the exception,
    with or without -O."""
    monkeypatch.setattr(germclosure.closure, "detects", lambda p, u_mask: False)
    argv = ["verify", "--max-size", "3", "--lattice-max-size", "3", "--predicates", "reconstruction"]
    code = main(argv)
    out, err = capsys.readouterr()
    assert code == 1
    assert out.splitlines()[0] == "reconstruction: checked=21 3 failures"
    assert out.count("| InvariantViolation: canonical embedding does not preserve the order") == 3
    assert err == ""


def test_verify_reports_every_predicate_when_germ_cuts_are_dropped(monkeypatch, capsys):
    """A closure kernel that loses its germ cuts breaks the closures the
    predicates index into; each exception fails its instance by name,
    every predicate still reports, and verify exits 1 without a
    traceback."""
    real = germclosure.closure.closure_masks

    def without_germ_cuts(up, down, u_mask):
        masks, germ_of = real(up, down, u_mask)
        kept = [(m, r) for m, r in zip(masks, germ_of) if r is None]
        return tuple(m for m, _ in kept), tuple(r for _, r in kept)

    for module in (germclosure.closure, germclosure.embed):
        monkeypatch.setattr(module, "closure_masks", without_germ_cuts)
    code = main(["verify", "--max-size", "5", "--lattice-max-size", "6"])
    out, err = capsys.readouterr()
    assert code == 1
    assert err == ""
    reports = [line for line in out.splitlines() if not line.startswith("  FAIL ")]
    assert [line.split(":")[0] for line in reports] == list(PREDICATES)
    assert "universal-property: checked=40 5 failures" in reports
    assert out.count("| KeyError: ") == 19


def test_cli_names_a_broken_invariant(monkeypatch, capsys):
    """A germ finder that reports every germ twice gives the closure two
    germs with one strict cut; the CLI exits 4 with one line on stderr."""
    walk = germclosure.closure.germs_within

    def twice(up, down, mask):
        return 2 * walk(up, down, mask)

    monkeypatch.setattr(germclosure.closure, "germs_within", twice)
    code = main(["base", str(TWELVE), "--subset", "bot,H,I,M,E,F,G,C,D,A,B,top"])
    out, err = capsys.readouterr()
    assert code == 4
    assert out == ""
    assert err == "internal invariant violated: two germs share a strict lower cut\n"


@pytest.mark.parametrize(
    "drops, message",
    [
        # the base of ∅ is ∅, whose cell {∅} misses {bot} of [∅, {bot}]
        (lambda t: [0] * t.n, "a cell misses part of its interval"),
        # every subset keeps ∅, so the cell of ∅ is all of them
        (lambda t: germclosure.embed.subset_bits(t.n), "S escapes the interval [U, Ḡ(U)]"),
    ],
)
def test_cli_names_a_broken_partition(monkeypatch, capsys, drops, message):
    """Drop sets that drop nothing, or everything, break the partition
    check; the CLI exits 4 with one line on stderr."""
    monkeypatch.setattr(germclosure.embed, "drop_sets", drops)
    code = main(["partition", str(TWELVE)])
    out, err = capsys.readouterr()
    assert code == 4
    assert out == ""
    assert err == f"internal invariant violated: {message}\n"
