"""The README's Library example runs as written against the package."""

from __future__ import annotations

import cmath
import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_example_runs():
    section = README.read_text().split("## Library", 1)[1].split("\n## ", 1)[0]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, str(README), "exec"), {"__name__": "readme"})
    value = complex(out.getvalue().strip())
    assert cmath.isfinite(value) and abs(value) > 1e-6, value
