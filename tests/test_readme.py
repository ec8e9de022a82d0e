"""README's "Library quickstart" runs, and every ``# value`` comment in it
holds: the line's expression equals the comment, read as a Python
expression, so ``# 0.6666666666666666 == jaccard(a, b)`` checks both."""

import pathlib
import re

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def quickstart_lines() -> list[str]:
    text = README.read_text(encoding="utf-8")
    section = text.split("## Library quickstart", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1).splitlines()


def test_quickstart_values_hold():
    program, checks = [], 0
    for line in quickstart_lines():
        code, _, comment = line.partition("  # ")
        if comment:
            line = f"assert ({code.strip()}) == {comment}, {line!r}"
            checks += 1
        program.append(line)
    assert checks == 3
    exec("\n".join(program), {})
