"""README.md's Python example, run as written.

Each printed line must match the `#` comment on its print call, where a
"..." in the comment stands for any text.
"""

import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_example_prints_what_its_comments_say():
    (code,) = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    expected = re.findall(r"^print\(.*#\s*(.*)$", code, re.M)
    assert len(expected) == 2, expected
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, str(README), "exec"), {})
    lines = out.getvalue().splitlines()
    assert len(lines) == len(expected)
    for line, want in zip(lines, expected):
        assert re.fullmatch(".*".join(map(re.escape, want.split("..."))), line), (line, want)
