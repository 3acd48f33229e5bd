"""The README's library quick start must run against the current API."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_python_blocks_run():
    text = README.read_text(encoding="utf-8")
    blocks = re.findall(r"^```python\n(.*?)^```$", text, re.M | re.S)
    assert blocks, "README.md has no ```python block"
    for code in blocks:
        exec(compile(code, str(README), "exec"), {})
