"""The README's Python quick start runs as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def python_blocks(text: str) -> list:
    return re.findall(r"^```python\n(.*?)^```$", text, flags=re.M | re.S)


def test_readme_python_blocks_run(capsys):
    blocks = python_blocks(README.read_text(encoding="utf-8"))
    assert blocks, "README has no python block"
    namespace = {"__name__": "__readme__"}
    for block in blocks:
        exec(compile(block, str(README), "exec"), namespace)
    # the quick start prints the half-sum guarantee first
    assert capsys.readouterr().out.splitlines()[0] == "True"
