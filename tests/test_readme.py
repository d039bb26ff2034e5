"""The README's examples run as written and show what they return: a name
the README uses that the package no longer exports fails here."""

import re
from fractions import Fraction
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def readme_block(heading: str) -> str:
    """The first ```python block under the README section ``heading``."""
    text = README.read_text(encoding="utf-8")
    section = text.split(f"\n## {heading}\n", 1)[1].split("\n## ", 1)[0]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def shown(value) -> str:
    """A value as the README's comments write it: rationals as p/q."""
    if isinstance(value, tuple):
        return "(" + ", ".join(map(shown, value)) + ")"
    if isinstance(value, (int, Fraction)):
        return str(value)
    return repr(value)


def test_library_quickstart_runs_and_shows_its_values():
    block = readme_block("Library quickstart")
    scope: dict = {}
    exec(compile(block, str(README), "exec"), scope)
    # "expression  # value" lines: the comment starts with the value
    annotated = re.findall(r"^(\S[^#\n]*?) +# (.*)$", block, re.M)
    assert len(annotated) >= 5
    for expr, comment in annotated:
        assert comment.startswith(shown(eval(expr, scope))), expr
