"""Command line behavior: byte-exact golden outputs for every worked
example, plus exit codes and the JSON formats.

Regenerate the expected files after an intentional output change with:

    GERMCLOSURE_REGEN=1 python3 -m pytest tests/test_cli.py -q
"""

import json
import os
from pathlib import Path

import pytest

import germclosure.closure
import germclosure.embed
from germclosure import cli, enumeration
from germclosure.cli import main
from germclosure.embed import verify_partition
from test_repdim import count_closures_and_chains

GOLDEN = Path(__file__).parent / "golden"
INPUTS = GOLDEN / "inputs"
EXPECTED = GOLDEN / "expected"

DOC_NAMES = [
    "chain1", "chain2", "chain3", "chain4", "chain5",
    "anti2", "anti3", "anti4", "anti5",
    "vee", "wedge", "npos", "twelve", "empty",
]

GOLDEN_CASES = (
    [(f"grm__{n}", ["grm", str(INPUTS / f"{n}.txt")]) for n in DOC_NAMES]
    + [(f"closure__{n}", ["closure", str(INPUTS / f"{n}.txt")]) for n in DOC_NAMES]
    + [
        ("gt__twelve", ["gt", str(INPUTS / "twelve.txt")]),
        ("gt__chain3", ["gt", str(INPUTS / "chain3.txt")]),
        ("partition__twelve", ["partition", str(INPUTS / "twelve.txt")]),
        ("partition__chain2", ["partition", str(INPUTS / "chain2.txt")]),
        (
            "extensible__twelve_irr",
            [
                "extensible",
                str(INPUTS / "twelve.txt"),
                "--subset",
                "H,I,E,F,G,A,B",
            ],
        ),
        (
            "extensible__twelve_bad",
            [
                "extensible",
                str(INPUTS / "twelve.txt"),
                "--subset",
                "bot,H,I,E,F,G,A,B",
            ],
        ),
        (
            "base__twelve_full",
            [
                "base",
                str(INPUTS / "twelve.txt"),
                "--subset",
                "bot,H,I,M,E,F,G,C,D,A,B,top",
            ],
        ),
        ("dim__empty", ["dim", str(INPUTS / "empty.txt"), "--x-max", "3"]),
        ("dim__vee", ["dim", str(INPUTS / "vee.txt"), "--x-max", "4"]),
        (
            "dim__anti2_v2",
            [
                "dim",
                str(INPUTS / "anti2.txt"),
                "--x-min", "2", "--x-max", "4", "--dim-v", "2",
            ],
        ),
        ("dot__vee", ["dot", str(INPUTS / "vee.txt")]),
        ("dot__twelve", ["dot", str(INPUTS / "twelve.txt")]),
        (
            "verify__tiny",
            ["verify", "--max-size", "3", "--lattice-max-size", "3"],
        ),
    ]
)


@pytest.mark.parametrize("name,argv", GOLDEN_CASES, ids=[c[0] for c in GOLDEN_CASES])
def test_golden(name, argv, capsys):
    code = main(argv)
    out = capsys.readouterr().out
    assert code == 0
    target = EXPECTED / f"{name}.txt"
    if os.environ.get("GERMCLOSURE_REGEN"):
        target.write_text(out)
    assert out == target.read_text()


def run(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_exit_code_domain_error(tmp_path, capsys):
    bad = tmp_path / "cycle.txt"
    bad.write_text("elements: a b\nrelations: a<b b<a\n")
    code, _, err = run(["grm", str(bad)], capsys)
    assert code == 1
    assert "cycle" in err


def test_exit_code_not_a_lattice(capsys):
    code, _, err = run(["gt", str(INPUTS / "vee.txt")], capsys)
    assert code == 1
    assert "meet" in err


def test_exit_code_syntax(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("elements a b\n")
    code, _, err = run(["grm", str(bad)], capsys)
    assert code == 2
    assert "line 1" in err


@pytest.mark.parametrize(
    "name, data, where",
    [
        ("bad.txt", b"elements: \xff a\nrelations:\n", "line 1, column 11"),
        ("bad.json", b'{"kind": "poset",\n "elements": ["a\xc3\xa9\xe9"]}', "line 2, column 18"),
    ],
)
def test_exit_code_invalid_utf8(tmp_path, capsys, name, data, where):
    """A document that is not UTF-8 is a syntax error at its first bad
    byte, reported without a traceback."""
    bad = tmp_path / name
    bad.write_bytes(data)
    code, out, err = run(["grm", str(bad)], capsys)
    assert code == 2
    assert out == ""
    assert err == f"syntax error: {where}: expected UTF-8 text\n"


def test_exit_code_missing_file(capsys):
    code, _, err = run(["grm", "/nonexistent/nowhere.txt"], capsys)
    assert code == 2


def test_exit_code_cap(capsys):
    code, _, err = run(["verify", "--max-size", "9"], capsys)
    assert code == 3


def test_exit_code_labelled_cap_generates_nothing(capsys, monkeypatch):
    calls = []

    def generate(n):
        calls.append(n)
        return iter(())

    monkeypatch.setattr(enumeration, "labelled_posets_by_extension", generate)
    code, _, err = run(["verify", "--no-up-to-iso", "--max-size", "7"], capsys)
    assert code == 3
    assert calls == []


@pytest.mark.parametrize(
    "bad",
    [
        ["--x-max", "2", "--x-min", "-1"],
        ["--x-max", "-1"],
        ["--x-max", "2", "--dim-v", "0"],
    ],
)
def test_dim_rejects_bad_numbers_before_printing(bad, capsys):
    with pytest.raises(SystemExit) as e:
        main(["dim", str(INPUTS / "vee.txt"), *bad])
    captured = capsys.readouterr()
    assert e.value.code == 2
    assert captured.out == ""
    assert "usage:" in captured.err


def test_dim_rejects_x_min_above_x_max(capsys):
    argv = ["dim", str(INPUTS / "vee.txt"), "--x-min", "5", "--x-max", "2"]
    code, out, err = run(argv, capsys)
    assert (code, out) == (2, "")
    assert "--x-min 5 is above --x-max 2" in err


def test_dim_with_equal_bounds_prints_one_row(capsys):
    argv = ["dim", str(INPUTS / "vee.txt"), "--x-min", "3", "--x-max", "3"]
    code, out, _ = run(argv, capsys)
    assert code == 0
    assert out.splitlines()[1:] == ["  |X|=3: 3"]


def test_dim_on_a_wide_antichain(tmp_path, capsys):
    doc = tmp_path / "anti10.txt"
    labels = " ".join(f"a{i}" for i in range(10))
    doc.write_text(f"elements: {labels}\nrelations:\n")
    code, out, _ = run(["dim", str(doc), "--x-max", "1"], capsys)
    assert code == 0
    assert "|Aut|=3628800" in out.splitlines()[0]


def test_dim_builds_its_closures_once_per_table(tmp_path, capsys, monkeypatch):
    """Both orientations' closures and one stabilizer chain, however
    many values of |X| the table has."""
    doc = tmp_path / "anti10.txt"
    doc.write_text(f"elements: {' '.join(f'a{i}' for i in range(10))}\nrelations:\n")
    built = count_closures_and_chains(monkeypatch)
    for x_max in ("2", "30"):
        built.clear()
        code, out, _ = run(["dim", str(doc), "--x-max", x_max], capsys)
        assert code == 0 and len(out.splitlines()) == int(x_max) + 2
        assert sorted(built) == ["germ_closure"] * 2 + ["stabilizer_chain"]


@pytest.mark.parametrize(
    "subset, closed",
    [("H,I,E,F,G,A,B", [1654]), ("bot,H,I,M,E,F,G,C,D,A,B,top", [4095, 2038])],
)
def test_base_closes_an_extensible_subset_once(subset, closed, capsys, monkeypatch):
    """base closes S, then closes U only when germ removal dropped
    something from S; an extensible S is its own base."""
    calls = []
    real_extensible = germclosure.embed.is_germ_extensible

    def counted_extensible(t, u_mask):
        calls.append(u_mask)
        return real_extensible(t, u_mask)

    monkeypatch.setattr(germclosure.embed, "is_germ_extensible", counted_extensible)
    code, _, _ = run(["base", str(INPUTS / "twelve.txt"), "--subset", subset], capsys)
    assert code == 0
    assert calls == closed


def _count_intersect_rows(monkeypatch) -> list[int]:
    """Record the mask of every closure.intersect_rows call."""
    calls = []
    real = germclosure.closure.intersect_rows

    def counted(rows, mask, start):
        calls.append(mask)
        return real(rows, mask, start)

    monkeypatch.setattr(germclosure.closure, "intersect_rows", counted)
    return calls


def test_witnesses_are_computed_only_where_printed(twelve, capsys, monkeypatch):
    """The partition check reads no witness, and closure computes one
    per cut it prints."""
    calls = _count_intersect_rows(monkeypatch)
    verify_partition(twelve)
    assert calls == []
    code, out, _ = run(["closure", str(INPUTS / "twelve.txt")], capsys)
    assert code == 0
    assert len(calls) == out.count(" cut of ") == 12


def test_main_builds_its_parser_once(capsys):
    cli._parser.cache_clear()
    for name in ("vee", "npos"):
        code, _, _ = run(["grm", str(INPUTS / f"{name}.txt")], capsys)
        assert code == 0
    info = cli._parser.cache_info()
    assert (info.misses, info.hits) == (1, 1)


@pytest.mark.parametrize(
    "argv",
    [
        ["nosuch", str(INPUTS / "vee.txt")],
        ["dim", str(INPUTS / "vee.txt"), "--x-max", "-1"],
        ["extensible", str(INPUTS / "twelve.txt")],
    ],
    ids=["unknown-command", "negative-x-max", "missing-subset"],
)
def test_reused_parser_rejects_like_a_fresh_one(argv, capsys):
    """After a successful call, a usage error exits 2 with the stderr of
    the same call on a freshly built parser."""
    assert run(["grm", str(INPUTS / "vee.txt")], capsys)[0] == 0
    with pytest.raises(SystemExit) as reused:
        main(argv)
    err = capsys.readouterr().err
    with pytest.raises(SystemExit) as fresh:
        cli._parser.__wrapped__().parse_args(argv)
    assert reused.value.code == fresh.value.code == 2
    assert err.startswith("usage: germclosure")
    assert err == capsys.readouterr().err


def test_names_rebound_after_the_first_call_are_seen(capsys, monkeypatch):
    """The reused parser's handlers look library names up when they run,
    so a rebinding made after the parser was built still applies."""
    doc = str(INPUTS / "vee.txt")
    assert run(["grm", doc], capsys)[0] == 0
    loaded = []
    real = cli.load_document

    def counted(path):
        loaded.append(path)
        return real(path)

    monkeypatch.setattr(cli, "load_document", counted)
    assert run(["grm", doc], capsys)[0] == 0
    assert loaded == [doc]


def test_partition_beyond_the_size_cap_exits_3(tmp_path, capsys):
    doc = tmp_path / "chain13.txt"
    labels = [f"c{i}" for i in range(13)]
    relations = " ".join(f"{a}<{b}" for a, b in zip(labels, labels[1:]))
    doc.write_text(f"elements: {' '.join(labels)}\nrelations: {relations}\n")
    code, out, err = run(["partition", str(doc)], capsys)
    assert code == 3
    assert out == ""
    assert "12" in err


def test_exit_code_unknown_subset_label(capsys):
    code, _, err = run(
        ["extensible", str(INPUTS / "twelve.txt"), "--subset", "Q"], capsys
    )
    assert code == 1
    assert "Q" in err


def test_unknown_predicate_is_rejected(capsys):
    code, _, err = run(["verify", "--predicates", "nope"], capsys)
    assert code == 2
    assert "nope" in err


@pytest.mark.parametrize(
    "names, reason",
    [
        (",", "no predicates selected"),
        (" ", "no predicates selected"),
        ("partition,partition", "predicates named twice: partition"),
    ],
)
def test_predicates_selecting_nothing_or_twice_are_rejected(names, reason, capsys):
    argv = ["verify", "--max-size", "2", "--lattice-max-size", "2", "--predicates", names]
    code, out, err = run(argv, capsys)
    assert (code, out) == (2, "")
    assert reason in err


@pytest.mark.parametrize(
    "bad", [["--max-size", "-3"], ["--lattice-max-size", "-1"]]
)
def test_verify_rejects_negative_sizes_before_printing(bad, capsys):
    with pytest.raises(SystemExit) as e:
        main(["verify", *bad])
    captured = capsys.readouterr()
    assert e.value.code == 2
    assert captured.out == ""
    assert "usage:" in captured.err


def test_closure_json_parses(capsys):
    code, out, _ = run(
        ["closure", str(INPUTS / "vee.txt"), "--format", "json"], capsys
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["document"]["name"] == "G(vee)"
    assert {"member": "{a,b}", "case": "germ cut at c"} in payload["classification"]
    assert payload["embedding"]["c"] == "{a,b,c}"


def test_verify_json_is_jsonl(capsys):
    code, out, _ = run(
        [
            "verify",
            "--max-size", "2",
            "--lattice-max-size", "2",
            "--format", "json",
            "--predicates", "base-detects,cogerm-uniqueness",
        ],
        capsys,
    )
    assert code == 0
    rows = [json.loads(line) for line in out.splitlines()]
    assert rows and all(r["ok"] for r in rows)
    assert {r["predicate"] for r in rows} == {"base-detects", "cogerm-uniqueness"}


def test_json_document_input(tmp_path, capsys):
    js = tmp_path / "p.json"
    js.write_text(
        '{"name": "jj", "elements": ["a", "b"], "relations": [["a", "b"]]}'
    )
    code, out, _ = run(["grm", str(js)], capsys)
    assert code == 0
    assert "germs of jj: 1" in out


def test_dot_of_lattice_fills_irreducibles(capsys):
    _, out, _ = run(["dot", str(INPUTS / "twelve.txt")], capsys)
    assert '"M" [shape=box]' in out
    assert '"H" [style=filled fillcolor="gray85"]' in out
    assert '"bot" -> "H";' in out
    # transitive edges never appear
    assert '"bot" -> "M"' not in out


def test_verify_tiny_is_stable(capsys):
    """Two runs emit identical bytes (no hidden state or ordering)."""
    _, first, _ = run(["verify", "--max-size", "2", "--lattice-max-size", "2"], capsys)
    _, second, _ = run(["verify", "--max-size", "2", "--lattice-max-size", "2"], capsys)
    assert first == second
