"""Every ```python block of README.md runs as written, so an API change
cannot leave the README's examples stale."""

import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parent.parent / "README.md"
TEXT = README.read_text(encoding="utf-8")
BLOCKS = [(TEXT.count("\n", 0, match.start()) + 1, match.group(1))
          for match in re.finditer(r"^```python\n(.*?)^```$", TEXT, re.M | re.S)]


@pytest.mark.parametrize("source", [source for _, source in BLOCKS],
                         ids=[f"line{line}" for line, _ in BLOCKS])
def test_readme_block_runs(source):
    exec(compile(source, str(README), "exec"), {"__name__": "readme"})
