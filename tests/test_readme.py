"""The README's examples run as written, so the documented API cannot drift."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def python_blocks(text: str) -> list[str]:
    return re.findall(r"^```python\n(.*?)^```$", text, flags=re.DOTALL | re.MULTILINE)


def test_readme_python_blocks_run_in_order():
    blocks = python_blocks(README.read_text())
    assert len(blocks) >= 2
    namespace: dict = {}
    for i, block in enumerate(blocks):
        # a later block may use the names an earlier one defined
        exec(compile(block, f"README.md python block {i + 1}", "exec"), namespace)
