"""Checks of .github/check_perfbench.py, which CI runs on each perfbench
replay's output to read its verdict line."""

from pathlib import Path

import pytest

from conftest import child

CHECK = Path(__file__).resolve().parents[1] / ".github" / "check_perfbench.py"


@pytest.mark.parametrize("output,may_fail,code,line", [
    ("", "0", 1, "w: no verdict line"),
    ("Traceback (most recent call last):\n", "0", 1, "w: no verdict line"),
    ('{"correct": true, "failed": 0}\n', "0", 0, "w correct: True failed: 0"),
    ('{"correct": false, "failed": 0}\n', "0", 1, "w correct: False failed: 0"),
    ('{"correct": true, "failed": 2}\n', "0", 1, "w correct: True failed: 2"),
    ('{"correct": true, "failed": 2}\n', "1", 0, "w correct: True failed: 2"),
])
def test_verdict(tmp_path, output, may_fail, code, line):
    path = tmp_path / "run.out"
    path.write_text(output)
    proc = child([str(CHECK), str(path), "w", may_fail])
    assert (proc.returncode, proc.stdout.splitlines(), proc.stderr) == (code, [line], "")
