"""The Python examples of README.md run as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_python_blocks_run(tmp_path, monkeypatch):
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(encoding="utf-8"),
                        flags=re.DOTALL | re.MULTILINE)
    assert blocks
    monkeypatch.chdir(tmp_path)  # an example that writes a file writes it here
    namespace = {}
    for block in blocks:  # in order, so a later block may use an earlier one's names
        exec(compile(block, str(README), "exec"), namespace)
