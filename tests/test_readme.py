from __future__ import annotations

import re
from pathlib import Path

README = Path(__file__).parent.parent / "README.md"


def test_library_example_runs():
    """The README's `## Library` Python block runs against the package, so a
    removed name or an old signature there fails the suite."""
    section = README.read_text().split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    blocks = re.findall(r"```python\n(.*?)```", section, re.DOTALL)
    assert len(blocks) == 1
    exec(compile(blocks[0], "README.md (## Library)", "exec"), {})
