"""Checks of the `xorcount` program as a process: each case runs
`python -m xorcount.cli`, which enters through `cli.run` as the console
script does, on input files written into its own directory, and holds the
exit code and the whole of stdout and stderr, as lines, that the run ends
with.  The checks of `main` called in process, and of what a process
imports, are in test_cli.py."""

import pytest

from conftest import child, sweep_untimed

# twelve 8-bit members, one listed twice, with a # line, a blank line and
# CRLF endings
SET_TEXT = ("# twelve 8-bit members, one twice\r\n00000001\r\n00000011\r\n\r\n"
            "00000111\r\n00001111\r\n00011111\r\n00111111\r\n01111111\r\n"
            "11111111\r\n10000000\r\n11000000\r\n11100000\r\n11110000\r\n"
            "00000011\r\n")

FILES = {
    "set.txt": SET_TEXT,
    # 8! = 40,320 permutation tables, past the search cap without --force
    "perm8.spec": "rows 8 cols 8\nR: 1 1 1 1 1 1 1 1\nC: 1 1 1 1 1 1 1 1\n",
    "wide.cnf": "p cnf 8 1\n1 -2 0\n",
    "unsat.cnf": "p cnf 1 2\n1 0\n-1 0\n",
}

# name: (argv, exit code, stdout lines, stderr lines); argv names the
# files of FILES, and stdout is read without `sweep`'s wall times
CASES = {
    "epsilon-variance": (
        ["epsilon", "20", "5", "64", "0.1"], 0,
        ["epsilon(n=20,m=5,q=64,f=0.1): log2 = -1.18278, ln = -0.819841, "
         "linear = 0.440502",
         "v(q): log2 = 5.74155, ln = 3.97974, linear = 53.5032"], []),
    "table-force": (
        ["table", "perm8.spec", "--force"], 0,
        ["exact count: 40320",
         "log2 count: log2 = 15.2992, ln = 10.6046, linear = 40320"], []),
    "set-lb": (
        ["bound", "set.txt", "lb", "--seed", "1"], 0,
        ["lower bound: log2 = 2.73697, ln = 1.89712, linear = 6.66667",
         "confidence 0.5654 (m=6, c=0.208333, kappa=1, T=24, p_est=0.2083)"], []),
    "set-ub": (
        ["bound", "set.txt", "ub", "--seed", "1"], 0,
        ["upper bound: log2 = 5.49185, ln = 3.80666, linear = 45",
         "event fired (m=4, T=72, empty 38/72, Delta=0.05)"], []),
    "set-count": (
        ["bound", "set.txt", "count", "--seed", "1"], 0,
        ["sparse-count estimate: log2 = 4, ln = 2.77259, linear = 16"], []),
    "set-sweep": (
        ["sweep", "set.txt", "0.2,0.4", "--seed", "1"], 0,
        ["f=0.2  lb_log2=2  ub_log2=8  (s)",
         "f=0.4  lb_log2=2.41504  ub_log2=7.2854  (s)",
         "f,lb_log2,ub_log2,wall_time_s,certificates_path",
         "0.2,2,8,,", "0.4,2.41504,7.2854,,"], []),
    # at f = 0 every hash row is zero, and at seed 0 no trial's b is: every
    # trial is answered unsat before a model is read
    "unsolvable-hashes": (
        ["bound", "wide.cnf", "lb", "--m", "8", "--T", "8", "--f", "0",
         "--seed", "0"], 0,
        ["lower bound: (vacuous)",
         "confidence 0.1535 (m=8, c=0.125, kappa=1, T=8, p_est=0.0000)"], []),
    # S is empty: the in-process m >= 1 route finds no model
    "empty-set-lb": (
        ["bound", "unsat.cnf", "lb", "--m", "1"], 0,
        ["lower bound: (vacuous)",
         "confidence 0.1535 (m=1, c=0.0416667, kappa=1, T=24, p_est=0.0000)"], []),
}


@pytest.mark.parametrize("argv,code,out,err", CASES.values(), ids=CASES.keys())
def test_program(tmp_path, argv, code, out, err):
    for name, text in FILES.items():
        (tmp_path / name).write_bytes(text.encode())
    argv = [str(tmp_path / a) if a in FILES else a for a in argv]
    proc = child(["-m", "xorcount.cli"] + argv)
    assert (proc.returncode, sweep_untimed(proc.stdout), proc.stderr.splitlines()) == (
        code, out, err)
