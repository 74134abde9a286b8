"""The README's library example runs as printed."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def taste_block() -> str:
    """The first ```python block after the "A taste of the library" heading."""
    text = README.read_text(encoding="utf-8")
    section = text[text.index("## A taste of the library"):]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_taste_of_the_library_runs():
    namespace = {}
    exec(compile(taste_block(), "README.md", "exec"), namespace)
    assert namespace["agree"] and namespace["model"].quotient_dim == 4
    assert namespace["fiber"].rank == 1
