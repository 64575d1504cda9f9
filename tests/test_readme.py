"""The README's library example runs as written."""

import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_library_example_runs(capsys, monkeypatch):
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    (example,) = re.findall(r"```python\n(.*?)```", readme, re.DOTALL)
    monkeypatch.chdir(ROOT)
    exec(compile(example, "README.md", "exec"), {})
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 6
    assert lines == sorted(lines)
    assert "c.invite.x x.accept.c c.invite.y y.accept.c" in lines
