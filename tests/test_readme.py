"""README.md is the user's contract, so its examples are run here.

In a ```console block, `$ cat NAME` shows an input file: the lines up to
the next `$` line are its text.  `$ xorcount ARGS` is a command, and the
lines up to the next `$` line are what it prints: `[stderr] LINE` a line
on standard error, `[exit N]` its exit code (0 when none is shown), every
other line a line of standard output.  Each command runs through
`python -m xorcount.cli` in a directory holding every file README shows,
and `sweep`'s wall times are masked on both sides."""

import re
import shlex
from pathlib import Path

import pytest

from conftest import child, sweep_untimed

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()


def _console_steps():
    """(command, shown lines) for each `$` line of README's console blocks."""
    steps = []
    for block in re.findall(r"^```console\n(.*?)^```$", README, re.M | re.S):
        for step in re.split(r"^(?=\$ )", block, flags=re.M):
            if step:
                command, *shown = step.splitlines()
                steps.append((command[2:], shown))
    return steps


STEPS = _console_steps()
FILES = {command[4:]: "".join(line + "\n" for line in shown)
         for command, shown in STEPS if command.startswith("cat ")}
EXAMPLES = [(command, shown) for command, shown in STEPS
            if not command.startswith("cat ")]


def test_every_example_is_a_file_or_a_command():
    assert FILES and EXAMPLES
    assert all(command.startswith("xorcount ") for command, _ in EXAMPLES)


@pytest.mark.parametrize("command,shown", EXAMPLES, ids=[c for c, _ in EXAMPLES])
def test_example(tmp_path, monkeypatch, command, shown):
    for name, text in FILES.items():
        (tmp_path / name).write_text(text)
    monkeypatch.chdir(tmp_path)
    code = [int(line[6:-1]) for line in shown if re.fullmatch(r"\[exit \d+\]", line)]
    err = [line[9:] for line in shown if line.startswith("[stderr] ")]
    out = [line for line in shown if not line.startswith(("[stderr] ", "[exit "))]
    proc = child(["-m", "xorcount.cli"] + shlex.split(command)[1:])
    assert (proc.returncode, sweep_untimed(proc.stdout), proc.stderr.splitlines()) == (
        code[0] if code else 0, sweep_untimed("\n".join(out)), err)


def test_readme_stays_a_contract():
    # a user's document: short, with no private names of the code and no
    # hand-timed figures that no test re-reads
    assert len(README.splitlines()) <= 260
    assert not re.findall(r"(?<!\w)_+[A-Za-z]\w*", README)
    assert not re.findall(r"\d\s*(?:ms|us|µs)\b", README)
