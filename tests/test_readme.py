"""The README's library example runs and prints what its comments say."""

import ast
import io
import re
import sys
import tokenize
from pathlib import Path

README = Path(__file__).parents[1] / "README.md"


def library_example() -> str:
    """The first python code block after the "## Library" heading."""
    text = README.read_text(encoding="utf-8")
    section = text[text.index("\n## Library\n"):]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def expected_outputs(code: str) -> dict[int, str]:
    """For the line of each print call, the comment on that line or else
    on the next one; the text after a ": " explains and is not compared."""
    comments = {
        tok.start[0]: tok.string[1:].strip()
        for tok in tokenize.generate_tokens(io.StringIO(code).readline)
        if tok.type == tokenize.COMMENT
    }
    return {
        node.lineno: comments.get(node.lineno, comments.get(node.lineno + 1)).split(": ")[0]
        for node in ast.walk(ast.parse(code))
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "print"
    }


def test_library_example_prints_its_comments():
    code = library_example()
    printed: dict[int, list[str]] = {}

    def record(*args):
        printed.setdefault(sys._getframe(1).f_lineno, []).append(" ".join(map(str, args)))

    exec(compile(code, "README.md", "exec"), {"print": record})
    expected = expected_outputs(code)
    assert len(expected) == 8
    assert printed == {line: [text] for line, text in expected.items()}
