"""The README's library example runs and prints the exact values it states, and the
README names every public name."""

import re
from pathlib import Path

import flowergraphs

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_library_example_prints_its_exact_values(capsys):
    (block,) = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    exec(compile(block, "README.md", "exec"), {})
    assert capsys.readouterr().out.splitlines()[:2] == ["85/2", "22/15"]


def test_readme_names_every_public_name():
    """Each name in ``flowergraphs.__all__`` opens a backticked span of the README,
    bare or called."""
    text = README.read_text()
    assert [name for name in flowergraphs.__all__ if not re.search(rf"`{name}[`(]", text)] == []
