"""Source-level conventions that the test suite enforces."""

from pathlib import Path

import otcms

MAX_LINE = 129


def test_no_source_line_over_limit():
    root = Path(otcms.__file__).parent
    long_lines = [
        f"{path.relative_to(root)}:{number}: {len(line)} characters"
        for path in sorted(root.rglob("*.py"))
        for number, line in enumerate(path.read_text(encoding="utf-8").split("\n"), start=1)
        if len(line) > MAX_LINE
    ]
    assert not long_lines, f"lines over {MAX_LINE} characters:\n" + "\n".join(long_lines)
