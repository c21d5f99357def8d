"""The package source stays within its line budget.

Deleting code is progress, so the budget only ever comes down. The count is
the number of newlines in ``src/curricula/*.py``, as ``cat src/curricula/*.py
| wc -l`` prints it.
"""

from pathlib import Path

import curricula

LINE_BUDGET = 1546


def test_package_source_is_within_its_line_budget():
    sources = sorted(Path(curricula.__file__).parent.glob("*.py"))
    assert sources
    lines = sum(path.read_bytes().count(b"\n") for path in sources)
    assert lines <= LINE_BUDGET, f"src/curricula: {lines} lines, over the budget of {LINE_BUDGET}"
