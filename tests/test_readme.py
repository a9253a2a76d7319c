"""The README's library quick start runs as written."""
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_quick_start_runs():
    text = README.read_text()
    section = text[text.index("## Library quick start"):]
    block = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    namespace = {}
    exec(compile(block, f"{README}:quick start", "exec"), namespace)
    assert namespace["s_bar"] == 0.125 and abs(namespace["dim"] - 0.4) < 1e-12
    assert namespace["sups"].shape == namespace["line_sups"].shape == (9,)
