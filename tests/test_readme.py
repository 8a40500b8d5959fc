"""The README's Python quick start runs as written and prints what it promises."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_python_quick_start(capsys):
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], str(README), "exec"), {})
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].endswith(" converged")  # fit.beta, then fit.report.status
    assert lines[-1] == "0/0"  # the comment's "here 0/0"
    assert 'here "0/0"' in blocks[0]
