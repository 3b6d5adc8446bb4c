import argparse
import csv
import errno
import hashlib
import json
import math
import os
import random
import re
import subprocess
import sys
from pathlib import Path

import pytest

from xorcount import cli
from xorcount.cli import main
from xorcount.gf2hash import Assignment
from conftest import exact_epsilon


def write_explicit(path, members, n):
    path.write_text("".join(Assignment(b, n).to_string() + "\n" for b in members))


def strip_timing(doc):
    if isinstance(doc, dict):
        return {k: strip_timing(v) for k, v in doc.items()
                if k != "wall_time_s"}
    if isinstance(doc, list):
        return [strip_timing(v) for v in doc]
    return doc


class TestEpsilonCmd:
    def test_f_half(self, capsys):
        assert main(["epsilon", "30", "6", "100", "0.5"]) == 0
        out = capsys.readouterr().out
        m = re.search(r"epsilon.*log2 = (\S+),", out)
        assert float(m.group(1)) == pytest.approx(-6.0)

    def test_f_zero(self, capsys):
        main(["epsilon", "30", "6", "100", "0"])
        out = capsys.readouterr().out
        assert "log2 = 0," in out or "log2 = -0," in out

    def test_derived_value(self, capsys):
        main(["epsilon", "20", "5", "64", "0.25"])
        out = capsys.readouterr().out
        got = float(re.search(r"epsilon.*log2 = (\S+),", out).group(1))
        want = math.log2(exact_epsilon(20, 5, 64, 0.25))
        assert got == pytest.approx(want, rel=1e-5)

    @pytest.mark.parametrize("f", ["0.1234567", "0.1"])
    def test_printed_density_round_trips(self, capsys, f):
        main(["epsilon", "10", "3", "1024", f])
        assert "epsilon(n=10,m=3,q=1024,f=%s):" % f in capsys.readouterr().out

    def test_clamped_variance_bound_is_vacuous(self):
        # at q = 2^115 = 2^n / 2 the bracket 1 + eps (q-1) - q/2^m, taken
        # as a difference of logs near ln(2^98), rounds to zero, so v(q) is
        # clamped to 0 (ln -inf) with one warning
        proc = _child(["-m", "xorcount.cli", "epsilon", "116", "17",
                       str(2 ** 115), "0.5"])
        assert proc.returncode == 0
        assert "v(q): (vacuous)" in proc.stdout.splitlines()
        assert proc.stderr == ("warning: variance bound bracket non-positive; "
                               "clamped to 0\n")


class TestFstarCmd:
    def test_df_shape(self, capsys):
        assert main(["fstar", "204", "56"]) == 0
        out = capsys.readouterr().out
        fstar = float(re.search(r"f\* = (\S+)", out).group(1))
        assert fstar == pytest.approx(0.18, abs=0.02)

    def test_iqd_shape(self, capsys):
        assert main(["fstar", "76", "15"]) == 0
        out = capsys.readouterr().out
        fstar = float(re.search(r"f\* = (\S+)", out).group(1))
        assert fstar == pytest.approx(0.34, abs=0.02)

    def test_unmet_condition_exit_code(self, capsys):
        # delta huge makes the threshold dip below the f = 1/2 floor 2^-m
        assert main(["fstar", "20", "5", "--delta", "100"]) == 1
        assert "unmet" in capsys.readouterr().err

    def test_negative_threshold_printed_as_not_positive(self, capsys):
        # mu = 2^-3 and delta = 2.25: (mu/(delta-1) + mu - 1)/(q-1) with
        # q = 4 is (0.1 + 0.125 - 1)/3, which no epsilon can meet
        assert main(["fstar", "20", "5", "--c", "-3"]) == 1
        captured = capsys.readouterr()
        lines = [l for l in captured.out.splitlines() if l.startswith("threshold")]
        assert lines == ["threshold: not positive, linear = -0.258333"]
        assert "condition unmet" in captured.err

    def test_huge_mean_drops_the_minus_one(self, capsys):
        # ln(mu) = 1100 ln 2 > 700: mu - 1 is taken as mu, not overflowed
        assert main(["fstar", "2000", "5", "--c", "1100"]) == 0
        assert capsys.readouterr().out.startswith("f* = 0.00402  ")

    @pytest.mark.parametrize("delta", ["2.0000000000001", "2.25"])
    def test_printed_delta_round_trips(self, capsys, delta):
        assert main(["fstar", "204", "56", "--delta", delta]) == 0
        assert " delta=%s " % delta in capsys.readouterr().out


class TestOversizedArguments:
    """A huge n or m costs what a normal run does: neither 2^n nor
    2^(m+c) is built to check an argument against it."""

    @pytest.mark.parametrize("argv,code", [
        (["fstar", "20", "1000000000"],
         "bad parameters: need 1 <= m <= n, got m=1000000000 n=20"),
        (["fstar", "20", "5", "--c", "1000000000"],
         "bad parameters: need 2 <= q <= 2^n"),
        (["epsilon", "1000000000", "5", "64", "0.1"], 0),
        (["fstar", "1000000000", "5"], 0),
    ])
    def test_peak_memory_is_bounded(self, capsys, argv, code):
        import tracemalloc
        tracemalloc.start()
        try:
            try:
                got = main(argv)
            except SystemExit as exc:
                got = exc.code
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert got == code
        assert peak < 4 << 20  # 2^(10^9) alone takes 125 MB


class TestBoundCmd:
    def test_lb_on_explicit_set(self, tmp_path, capsys):
        rng = random.Random(2)
        f = tmp_path / "set.txt"
        write_explicit(f, rng.sample(range(1 << 12), 256), 12)
        report = tmp_path / "report.json"
        rc = main(["bound", str(f), "lb", "--T", "30", "--seed", "4",
                   "--json", str(report)])
        assert rc == 0
        doc = json.loads(report.read_text())
        cert = doc["certificates"][0]
        assert cert["kind"] == "lower_bound"
        assert cert["bound_log2"] is None or cert["bound_log2"] <= 8.0

    def test_ub_fires_on_small_set(self, tmp_path, capsys):
        rng = random.Random(3)
        f = tmp_path / "set.txt"
        write_explicit(f, rng.sample(range(1 << 12), 16), 12)
        rc = main(["bound", str(f), "ub", "--m", "9", "--seed", "1"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "event fired" in out

    def test_count_mode(self, tmp_path, capsys):
        rng = random.Random(5)
        f = tmp_path / "set.txt"
        write_explicit(f, rng.sample(range(1 << 10), 64), 10)
        report = tmp_path / "rep.json"
        rc = main(["bound", str(f), "count", "--T", "40", "--seed", "0",
                   "--json", str(report)])
        assert rc == 0
        doc = json.loads(report.read_text())
        est = doc["certificates"][0]["bound_log2"]
        assert est is not None and 2.0 <= est <= 10.0

    def test_count_on_an_unsatisfiable_cnf(self, tmp_path, capsys):
        cnf = tmp_path / "unsat.cnf"
        cnf.write_text("p cnf 1 2\n1 0\n-1 0\n")
        report = tmp_path / "rep.json"
        assert main(["bound", str(cnf), "count", "--json", str(report)]) == 0
        out, err = capsys.readouterr()
        assert out == "fewer than one solution witnessed (broke at i=0)\n" and err == ""
        cert = json.loads(report.read_text())["certificates"][0]
        assert cert["bound_log2"] is None and cert["break_i"] == 0

    def test_exhausted_level_loop_warns_on_stderr(self, tmp_path, capsys):
        # every 2-bit string: each level keeps a survivor, up to i = n
        f = tmp_path / "cube.txt"
        write_explicit(f, range(4), 2)
        assert main(["bound", str(f), "count", "--seed", "0"]) == 0
        out, err = capsys.readouterr()
        assert out.startswith("sparse-count estimate: log2 = 2,")
        assert "warning" not in out
        assert err == "warning: level loop exhausted at i=2\n"

    def test_inconclusive_exit_code(self, tmp_path, sleepy_solver):
        cnf = tmp_path / "tiny.cnf"
        cnf.write_text("p cnf 4 1\n1 2 0\n")
        rc = main(["bound", str(cnf), "lb", "--T", "3", "--m", "2",
                   "--solver", sleepy_solver.template,
                   "--budget-s", "0.2"])
        assert rc == 2

    def test_bad_model_line_is_inconclusive(self, tmp_path, capsys, bad_model_solver):
        cnf = tmp_path / "t.cnf"
        cnf.write_text("p cnf 2 1\n1 0\n")
        rc = main(["bound", str(cnf), "lb", "--m", "1", "--T", "2",
                   "--solver", bad_model_solver.template])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("inconclusive: 2 of 2 trials unknown") and err.count("\n") == 1

    def test_solver_that_cannot_start_is_inconclusive(self, tmp_path, capsys):
        cnf = tmp_path / "t.cnf"
        cnf.write_text("p cnf 2 1\n1 0\n")
        rc = main(["bound", str(cnf), "lb", "--m", "1", "--T", "2",
                   "--solver", "no_such_solver_xyz {in}"])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("inconclusive: 2 of 2 trials unknown") and err.count("\n") == 1

    def test_two_solution_lines_are_inconclusive(self, tmp_path, capsys):
        # S has 7 members; a trailing UNSATISFIABLE once overwrote each
        # SAT answer, and the run certified |S| <= 3
        cnf = tmp_path / "seven.cnf"
        cnf.write_text("p cnf 3 1\n1 2 3 0\n")
        rc = main(["bound", str(cnf), "ub", "--m", "1", "--seed", "0", "--solver",
                   "sh -c 'echo s SATISFIABLE; echo v 1 2 3 0; echo s UNSATISFIABLE' {in}"])
        out, err = capsys.readouterr()
        assert rc == 2 and out == ""
        assert err.startswith("inconclusive:") and err.count("\n") == 1

    def test_literal_past_the_header_is_inconclusive(self, tmp_path, capsys):
        # the v line's variables 2 and 400000000 once entered the model:
        # level 0 was accepted, and the recheck then failed with exit 1
        cnf = tmp_path / "sat.cnf"
        cnf.write_text("p cnf 2 1\n1 -2 0\n")
        rc = main(["bound", str(cnf), "count", "--solver",
                   "sh -c 'echo s SATISFIABLE; echo v 1 2 400000000 0' {in}"])
        out, err = capsys.readouterr()
        assert rc == 2 and out == ""
        assert err == "inconclusive: 1 of 1 trials unknown; refusing to estimate\n"

    def test_lb_falls_back_to_m_one(self, tmp_path, capsys):
        # S is empty, so no m clears 1/2 in the coarse sweep
        cnf = tmp_path / "unsat.cnf"
        cnf.write_text("p cnf 1 2\n1 0\n-1 0\n")
        assert main(["bound", str(cnf), "lb"]) == 0
        out = capsys.readouterr().out
        assert out == ("lower bound: (vacuous)\nconfidence 0.1535 (m=1, c=0.0416667, "
                       "kappa=1, T=24, p_est=0.0000)\n")

    def test_unsolvable_hashes_need_no_solver(self, tmp_path, capsys):
        # at f = 0 every hash row is zero, and at seed 0 no trial's b is:
        # no trial can have a survivor, so the failing solver is never
        # asked.  `count` asks m = 0 first, which always reaches it
        cnf = tmp_path / "wide.cnf"
        cnf.write_text("p cnf 8 1\n1 -2 0\n")
        rc = main(["bound", str(cnf), "lb", "--m", "8", "--T", "8", "--f", "0",
                   "--seed", "0", "--solver", "false {in}"])
        out, err = capsys.readouterr()
        assert rc == 0 and out.startswith("lower bound: (vacuous)") and err == ""
        rc = main(["bound", str(cnf), "count", "--seed", "0", "--solver", "false {in}"])
        err = capsys.readouterr().err
        assert rc == 2 and err.startswith("inconclusive:") and err.count("\n") == 1

    @pytest.mark.parametrize("argv", [
        ["bound", "{cnf}", "count", "--json", "{out}"],
        ["sweep", "{cnf}", "0.5", "--csv", "{out}"],
    ])
    def test_lying_solver_is_a_one_line_error(self, tmp_path, capsys, argv):
        # the model x1 = 0, x2 = 1 breaks the clause (1 -2); `count` asks
        # m = 0 first, which always reaches the solver, and at seed 0
        # `sweep`'s pre-scan draws hashes whose systems have solutions
        paths = {"cnf": tmp_path / "sat.cnf", "out": tmp_path / "out"}
        paths["cnf"].write_text("p cnf 2 1\n1 -2 0\n")
        liar = "sh -c 'echo s SATISFIABLE; echo v -1 2 0' {in}"
        with pytest.raises(SystemExit) as exc:
            main([a.format(**paths) for a in argv] + ["--solver", liar])
        assert exc.value.code == "solver witness fails in-process recheck"
        assert not paths["out"].exists()

    def test_json_deterministic_given_seed(self, tmp_path):
        rng = random.Random(8)
        f = tmp_path / "set.txt"
        write_explicit(f, rng.sample(range(1 << 10), 100), 10)
        docs = []
        for name in ("a.json", "b.json"):
            report = tmp_path / name
            main(["bound", str(f), "lb", "--T", "25", "--seed", "77",
                  "--json", str(report)])
            docs.append(strip_timing(json.loads(report.read_text())))
        assert docs[0] == docs[1]

    def test_env_var_solver(self, tmp_path, monkeypatch):
        cnf = tmp_path / "t.cnf"
        cnf.write_text("p cnf 6 2\n1 2 0\n-1 3 0\n")
        monkeypatch.setenv("XORCOUNT_SOLVER",
                           "%s -m xorcount.cli solve {in}" % sys.executable)
        rc = main(["bound", str(cnf), "lb", "--T", "6", "--m", "2",
                   "--seed", "1"])
        assert rc == 0

    def test_jobs_match_serial_with_solver(self, tmp_path):
        cnf = tmp_path / "t.cnf"
        cnf.write_text("p cnf 8 3\n1 2 0\n-1 3 0\n4 -5 6 0\n")
        solver = "%s -m xorcount.cli solve {in}" % sys.executable
        docs = []
        for jobs in ("1", "2"):
            report = tmp_path / ("jobs%s.json" % jobs)
            rc = main(["bound", str(cnf), "lb", "--T", "6", "--m", "3",
                       "--seed", "2", "--solver", solver, "--jobs", jobs,
                       "--json", str(report)])
            assert rc == 0
            docs.append(strip_timing(json.loads(report.read_text())))
        assert docs[0] == docs[1]

    @pytest.mark.parametrize("transport", [[], ["--native-xor"]])
    def test_four_jobs_match_serial_with_solver(self, tmp_path, transport):
        # each run parses the formula afresh, so its first four questions
        # go out at once and may each write the formula's clause text
        rng = random.Random(6)
        lines = ["p cnf 12 24"]
        for _ in range(24):
            lines.append(" ".join(str(rng.choice([v, -v]))
                                  for v in rng.sample(range(1, 13), 3)) + " 0")
        lines += ["x1 4 7 10 0", "x-2 3 0"]
        cnf = tmp_path / "t.cnf"
        cnf.write_text("\n".join(lines) + "\n")
        solver = "%s -m xorcount.cli solve {in}" % sys.executable
        docs = []
        for jobs in ("1", "4"):
            report = tmp_path / ("jobs%s.json" % jobs)
            rc = main(["bound", str(cnf), "lb", "--T", "4", "--m", "3",
                       "--f", "0.3", "--seed", "5", "--solver", solver,
                       "--jobs", jobs, "--json", str(report)] + transport)
            assert rc == 0
            docs.append(strip_timing(json.loads(report.read_text())))
        assert docs[0] == docs[1]

    @pytest.mark.parametrize("mode,m", [("lb", "3"), ("ub", "7")])
    @pytest.mark.parametrize("transport", [["--chunk", "6"], ["--native-xor"]])
    def test_omitted_jobs_match_one_job(self, tmp_path, mode, m, transport):
        # without --jobs an estimate's solver calls run concurrently, one
        # per usable CPU, and the report is the one --jobs 1 writes
        rng = random.Random(8)
        lines = ["p cnf 10 14"]
        for _ in range(14):
            lines.append(" ".join(str(rng.choice([v, -v]))
                                  for v in rng.sample(range(1, 11), 3)) + " 0")
        cnf = tmp_path / "t.cnf"
        cnf.write_text("\n".join(lines) + "\n")
        solver = "%s -m xorcount.cli solve {in}" % sys.executable
        docs = []
        for jobs in (["--jobs", "1"], []):
            report = tmp_path / ("jobs%d.json" % len(jobs))
            rc = main(["bound", str(cnf), mode, "--T", "4", "--m", m,
                       "--delta", "0.85", "--f", "0.3", "--seed", "3",
                       "--solver", solver, "--json", str(report)]
                      + transport + jobs)
            assert rc == 0
            docs.append(strip_timing(json.loads(report.read_text())))
        assert docs[0] == docs[1]

    @pytest.mark.parametrize("mode,extra,named", [
        ("ub", ["--kappa", "5", "--c-threshold", "0.2", "--bonferroni",
                "--alpha", "9", "--no-ln-n"],
         "--kappa, --c-threshold, --bonferroni, --alpha, --no-ln-n (not read by ub)"),
        ("count", ["--m", "5", "--kappa", "5", "--bonferroni"],
         "--m, --kappa, --bonferroni (not read by count)"),
        ("lb", ["--delta", "0.1", "--jobs", "2", "--budget-s", "3", "--chunk", "4",
                "--native-xor"],
         "--delta (not read by lb); --budget-s, --native-xor, --chunk, --jobs"
         " (explicit sets are answered in process)"),
        # the explicit backend answers every question in process, so a
        # solver is never started, however it is set
        ("lb", ["--solver", "/nonexistent/solver {in}", "--jobs", "3"],
         "--solver, --jobs (explicit sets are answered in process)"),
        ("count", ["--solver", "solver {in}", "--bonferroni", "--chunk", "2"],
         "--bonferroni (not read by count); --solver, --chunk"
         " (explicit sets are answered in process)"),
    ])
    def test_unread_flags_are_named(self, tmp_path, capsys, mode, extra, named):
        # a flag the run never reads is named once on stderr, and the run
        # prints and certifies what it does without it
        path = tmp_path / "s.txt"
        write_explicit(path, random.Random(3).sample(range(1 << 12), 111), 12)
        outs, certs = [], []
        for flags in (extra, []):
            report = tmp_path / ("r%d.json" % len(flags))
            assert main(["bound", str(path), mode, "--seed", "3",
                         "--json", str(report)] + flags) == 0
            outs.append(capsys.readouterr())
            doc = json.loads(report.read_text())
            certs.append(strip_timing(doc["certificates"]))
        assert outs[0].err == "warning: ignoring %s\n" % named
        assert outs[1].err == ""
        assert outs[0].out == outs[1].out
        assert certs[0] == certs[1]

    def test_read_and_default_flags_are_not_named(self, tmp_path, capsys):
        path = tmp_path / "s.txt"
        write_explicit(path, range(0, 200, 3), 8)
        cnf = tmp_path / "t.cnf"
        cnf.write_text("p cnf 4 1\n1 2 0\n")
        solver = "%s -m xorcount.cli solve {in}" % sys.executable
        for argv in (["lb", "--kappa", "2", "--m", "2", "--bonferroni",
                      "--c-threshold", "0.3", "--chunk", "6"],
                     ["ub", "--delta", "0.2", "--m", "2", "--kappa", "1"],
                     ["count", "--delta", "0.2", "--alpha", "0.1", "--no-ln-n"]):
            assert main(["bound", str(path)] + argv) == 0
            assert capsys.readouterr().err == ""
        assert main(["bound", str(cnf), "lb", "--m", "1", "--T", "2",
                     "--solver", solver, "--jobs", "2", "--chunk", "3",
                     "--budget-s", "30"]) == 0
        assert capsys.readouterr().err == ""
        assert main(["sweep", str(path), "0.5", "--kappa", "2", "--delta", "0.2",
                     "--T", "6"]) == 0
        assert capsys.readouterr().err == ""
        assert main(["sweep", str(path), "0.5", "--T", "6", "--jobs", "1",
                     "--solver", solver]) == 0
        assert capsys.readouterr().err == ("warning: ignoring --solver, --jobs "
                                           "(explicit sets are answered in process)\n")
        assert main(["sweep", str(cnf), "0.5", "--T", "2", "--m", "1",
                     "--jobs", "1"]) == 0
        assert capsys.readouterr().err == ("warning: ignoring --jobs "
                                           "(no solver is set)\n")

    @pytest.mark.parametrize("flags", [["--solver", "solver"],
                                       ["--solver", "solver {in}", "--chunk", "1"],
                                       ["--solver", "solver {in}", "--jobs", "0"],
                                       ["--solver", 'foo "{in}']])
    def test_bad_solver_settings_are_a_one_line_error(self, tmp_path, flags):
        cnf = tmp_path / "t.cnf"
        cnf.write_text("p cnf 3 1\n1 2 0\n")
        with pytest.raises(SystemExit) as exc:
            main(["bound", str(cnf), "lb", "--m", "1"] + flags)
        msg = str(exc.value.code)
        assert msg.startswith("bad solver settings") and "\n" not in msg

    @pytest.mark.parametrize("argv", [
        ["bound", "{set}", "lb", "--T", "0"],
        ["bound", "{set}", "lb", "--m", "0"],
        ["bound", "{set}", "ub", "--m", "0"],
        ["bound", "{set}", "lb", "--m", "40"],
        ["bound", "{set}", "ub", "--m", "40"],
        ["bound", "{set}", "lb", "--f", "0.7"],
        ["bound", "{set}", "ub", "--m", "3", "--delta", "1.5"],
        ["bound", "{set}", "count", "--delta", "1.5"],
        ["bound", "{set}", "lb", "--m", "3", "--kappa", "0"],
        ["bound", "{missing}", "lb"],
        ["sweep", "{set}", "0.3,abc"],
        ["sweep", "{set}", "0.3,0.7", "--m", "3", "--T", "4"],
        ["sweep", "{missing}", "0.3"],
    ])
    def test_bad_bound_parameters_are_a_one_line_error(self, tmp_path, argv):
        f = tmp_path / "set.txt"
        write_explicit(f, range(0, 1 << 12, 37), 12)
        argv = [a.format(set=f, missing=tmp_path / "nope.txt") for a in argv]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        msg = str(exc.value.code)
        assert msg.startswith("bad bound parameters: ") and "\n" not in msg

    @pytest.mark.parametrize("argv", [
        ["bound", "{set}", "lb", "--T", "0"],
        ["bound", "{set}", "lb", "--kappa", "0"],
        ["bound", "{set}", "lb", "--c-threshold", "1.5"],
        ["bound", "{set}", "ub", "--delta", "1.5"],
        ["sweep", "{set}", "0.3", "--T", "0"],
        ["sweep", "{set}", "0.3", "--delta", "0"],
        ["sweep", "{set}", "0.3,0.7"],
        ["sweep", "{set}", "0.3,nan"],
        ["bound", "{set}", "ub", "--T", "0"],
    ])
    def test_bad_flags_are_refused_before_the_prescan(self, tmp_path,
                                                      monkeypatch, argv):
        from xorcount import bounds
        calls = []
        real = bounds.estimate_survival

        def counting_estimate(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(bounds, "estimate_survival", counting_estimate)
        f = tmp_path / "set.txt"
        write_explicit(f, range(0, 1 << 12, 37), 12)
        certs = tmp_path / "certs"
        if argv[0] == "sweep":
            argv = argv + ["--certs-dir", str(certs)]
        with pytest.raises(SystemExit) as exc:
            main([a.format(set=f) for a in argv])
        assert str(exc.value.code).startswith("bad bound parameters: ")
        assert calls == []
        assert not list(certs.glob("*"))

    @pytest.mark.parametrize("text", ["p cnf 0 0\n", "rows 1 cols 1\nR: 0\nC: 0\n"])
    @pytest.mark.parametrize("argv", [["bound", "lb"], ["bound", "ub"],
                                      ["bound", "count"], ["sweep", "0.3"]])
    def test_width_zero_is_refused_before_any_question(self, tmp_path,
                                                       monkeypatch, text, argv):
        from xorcount import bounds
        calls = []
        real = bounds.has_survivors

        def counting_survivors(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        # every question of every mode goes through bounds._trials
        monkeypatch.setattr(bounds, "has_survivors", counting_survivors)
        f = tmp_path / ("zero.cnf" if text.startswith("p") else "zero.spec")
        f.write_text(text)
        with pytest.raises(SystemExit) as exc:
            main([argv[0], str(f), *argv[1:]])
        msg = str(exc.value.code)
        assert msg.startswith("bad bound parameters: ") and "\n" not in msg
        assert "n = 0" in msg
        assert calls == []

    def test_mixed_width_set_is_a_one_line_error(self, tmp_path):
        f = tmp_path / "mixed.txt"
        f.write_text("0101\n11\n000000\n")
        with pytest.raises(SystemExit) as exc:
            main(["bound", str(f), "lb"])
        msg = str(exc.value.code)
        assert str(f) in msg and "\n" not in msg and "width" in msg

    def test_table_input(self, tmp_path, capsys):
        # 2x2 permutation-matrix spec: 2 tables, 12-variable CNF, small
        # enough for the exhaustive backend
        spec = tmp_path / "t2.spec"
        spec.write_text("rows 2 cols 2\nR: 1 1\nC: 1 1\nbinary: 1\n")
        rc = main(["bound", str(spec), "lb", "--T", "20", "--m", "1",
                   "--seed", "3"])
        assert rc == 0


class TestSweepCmd:
    def test_csv_columns_and_sandwich(self, tmp_path):
        rng = random.Random(12)
        f = tmp_path / "set.txt"
        true_log2 = 8.0
        write_explicit(f, rng.sample(range(1 << 14), 256), 14)
        out_csv = tmp_path / "sweep.csv"
        certs = tmp_path / "certs"
        rc = main(["sweep", str(f), "0.3,0.5", "--T", "40", "--seed", "6",
                   "--csv", str(out_csv), "--certs-dir", str(certs)])
        assert rc == 0
        with open(out_csv) as fh:
            reader = csv.DictReader(fh)
            assert reader.fieldnames == ["f", "lb_log2", "ub_log2",
                                         "wall_time_s", "certificates_path"]
            rows = list(reader)
        assert [r["f"] for r in rows] == ["0.3", "0.5"]
        for row in rows:
            if row["lb_log2"]:
                assert float(row["lb_log2"]) <= true_log2
            assert float(row["ub_log2"]) >= true_log2
            assert json.loads(Path(row["certificates_path"]).read_text())

    def test_inconclusive_exit_code_keeps_every_row(self, tmp_path, capsys,
                                                    sleepy_solver):
        cnf = tmp_path / "tiny.cnf"
        cnf.write_text("p cnf 4 1\n1 2 0\n")
        out_csv = tmp_path / "sweep.csv"
        rc = main(["sweep", str(cnf), "0.3,0.5", "--m", "2", "--T", "2",
                   "--solver", sleepy_solver.template, "--budget-s", "0.2",
                   "--csv", str(out_csv)])
        assert rc == 2
        with open(out_csv) as fh:
            rows = list(csv.DictReader(fh))
        assert [(r["f"], r["lb_log2"], r["ub_log2"]) for r in rows] == [
            ("0.3", "", ""), ("0.5", "", "")]
        assert capsys.readouterr().err.count("inconclusive") == 2

    @pytest.mark.parametrize("flag", [["--f", "0.1"], ["--alpha", "9"],
                                      ["--no-ln-n"]])
    def test_bound_only_flags_are_refused(self, tmp_path, capsys, flag):
        # sweep runs lb and ub at its listed densities, so a density, an
        # alpha or the ln(n) switch would be read by nothing
        f = tmp_path / "set.txt"
        write_explicit(f, range(0, 1 << 12, 37), 12)
        with pytest.raises(SystemExit) as exc:
            main(["sweep", str(f), "0.3"] + flag)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "error: unrecognized arguments: %s\n" % " ".join(flag) in err

    def test_one_prescan_per_density(self, tmp_path, monkeypatch):
        # each certificate file holds what `bound lb` and `bound ub` write at
        # that density, from one pre-scan shared by both bounds
        from xorcount import bounds
        scanned = []
        real = bounds.pick_promising_m

        def counting_pick(problem, f, *args, **kwargs):
            scanned.append(f)
            return real(problem, f, *args, **kwargs)

        monkeypatch.setattr(bounds, "pick_promising_m", counting_pick)
        rng = random.Random(12)
        f = tmp_path / "set.txt"
        write_explicit(f, rng.sample(range(1 << 14), 256), 14)
        flags = ["--T", "40", "--seed", "6"]
        assert main(["sweep", str(f), "0.3,0.5", "--csv", str(tmp_path / "s.csv"),
                     "--certs-dir", str(tmp_path / "certs")] + flags) == 0
        assert scanned == [0.3, 0.5]
        for density in ("0.3", "0.5"):
            want = []
            for mode in ("lb", "ub"):
                report = tmp_path / ("%s_%s.json" % (mode, density))
                assert main(["bound", str(f), mode, "--f", density,
                             "--json", str(report)] + flags) == 0
                want += json.loads(report.read_text())["certificates"]
            path = tmp_path / "certs" / ("certs_f%s.json" % density.replace(".", "p"))
            assert strip_timing(json.loads(path.read_text())) == strip_timing(want)

    def test_densities_printed_alike_get_their_own_files(self, tmp_path, capsys):
        # %g printed 0.1234567 and 0.1234568 alike, so both densities were
        # written to one certs_f0p123457.json and both CSV rows named it
        f = tmp_path / "set.txt"
        write_explicit(f, random.Random(12).sample(range(1 << 14), 256), 14)
        densities = ["0.1234567", "0.1234568"]
        assert main(["sweep", str(f), ",".join(densities), "--T", "12",
                     "--seed", "6", "--csv", str(tmp_path / "s.csv"),
                     "--certs-dir", str(tmp_path / "certs")]) == 0
        out = capsys.readouterr().out
        with open(tmp_path / "s.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        paths = sorted((tmp_path / "certs").iterdir())
        assert [p.name for p in paths] == ["certs_f0p1234567.json",
                                           "certs_f0p1234568.json"]
        assert [r["certificates_path"] for r in rows] == [str(p) for p in paths]
        for density, path in zip(densities, paths):
            assert "f=%s  lb_log2=" % density in out
            certs = json.loads(path.read_text())
            assert [c["kind"] for c in certs] == ["lower_bound", "upper_bound"]
            assert {c["f"] for c in certs} == {float(density)}


class TestTableCmd:
    SYNTH_9 = "rows 9 cols 9\nR: 1 8 8 8 8 8 8 8 8\nC: 1 8 8 8 8 8 8 8 8\nbinary: 1\n"

    def test_synth_8(self, tmp_path, capsys):
        spec = tmp_path / "s.spec"
        spec.write_text("rows 8 cols 8\nR: 1 7 7 7 7 7 7 7\n"
                        "C: 1 7 7 7 7 7 7 7\nbinary: 1\n")
        assert main(["table", str(spec)]) == 0
        assert "exact count: 50" in capsys.readouterr().out

    PERM_9 = "rows 9 cols 9\nR: 1 1 1 1 1 1 1 1 1\nC: 1 1 1 1 1 1 1 1 1\nbinary: 1\n"

    def test_capacity_refusal_is_a_one_line_error(self, tmp_path):
        # 362,880 permutation tables: the search passes its work cap first
        spec = tmp_path / "p9.spec"
        spec.write_text(self.PERM_9)
        with pytest.raises(SystemExit) as exc:
            main(["table", str(spec)])
        msg = str(exc.value.code)
        assert str(spec) in msg and "\n" not in msg
        assert "rows" in msg and "--force" in msg

    def test_force_counts_past_the_cap(self, tmp_path, capsys, monkeypatch):
        from xorcount import tables
        monkeypatch.setattr(tables, "MAX_SEARCH_WORK", 100)
        spec = tmp_path / "s9.spec"
        spec.write_text(self.SYNTH_9)
        with pytest.raises(SystemExit):
            main(["table", str(spec)])
        assert main(["table", str(spec), "--force"]) == 0
        assert "exact count: 65" in capsys.readouterr().out

    @pytest.mark.parametrize("n,count", [(9, 65), (12, 122), (16, 226), (20, 362)])
    def test_synth_n_counts_without_force(self, tmp_path, capsys, n, count):
        marginals = " ".join(["1"] + [str(n - 1)] * (n - 1))
        spec = tmp_path / "synth.spec"
        spec.write_text("rows %d cols %d\nR: %s\nC: %s\nbinary: 1\n"
                        % (n, n, marginals, marginals))
        assert main(["table", str(spec)]) == 0
        assert "exact count: %d" % count in capsys.readouterr().out

    @pytest.mark.parametrize("cmd", [["table"], ["bound", "lb"]])
    def test_malformed_spec_is_a_one_line_error(self, tmp_path, cmd):
        spec = tmp_path / "bad.spec"
        spec.write_text("rows 1 cols 2\nR: 1\nC: 1 x\n")
        with pytest.raises(SystemExit) as exc:
            main([cmd[0], str(spec)] + cmd[1:])
        msg = str(exc.value.code)
        assert msg.startswith("bad table-spec file %s" % spec)
        assert "'C: 1 x'" in msg and "\n" not in msg


class TestSolveCmd:
    def test_sat_protocol(self, tmp_path, capsys):
        cnf = tmp_path / "sat.cnf"
        cnf.write_text("p cnf 3 2\n1 0\n-2 0\n")
        assert main(["solve", str(cnf)]) == 10
        out = capsys.readouterr().out.splitlines()
        assert out[0] == "s SATISFIABLE"
        lits = [int(t) for t in out[1][2:].split()[:-1]]
        assert 1 in lits and -2 in lits

    def test_unsat_protocol(self, tmp_path, capsys):
        cnf = tmp_path / "unsat.cnf"
        cnf.write_text("p cnf 1 2\n1 0\n-1 0\n")
        assert main(["solve", str(cnf)]) == 20
        assert capsys.readouterr().out.startswith("s UNSATISFIABLE")

    def test_xor_lines_respected(self, tmp_path, capsys):
        cnf = tmp_path / "x.cnf"
        cnf.write_text("p cnf 2 1\n1 0\nx1 2 0\n")  # x1 and (x1 xor x2 = 1)
        assert main(["solve", str(cnf)]) == 10
        out = capsys.readouterr().out.splitlines()
        lits = [int(t) for t in out[1][2:].split()[:-1]]
        assert 1 in lits and -2 in lits


class TestCountModelsCmd:
    def test_count(self, tmp_path, capsys):
        cnf = tmp_path / "c.cnf"
        cnf.write_text("p cnf 3 1\n1 0\n")
        assert main(["count-models", str(cnf)]) == 0
        assert "models: 4" in capsys.readouterr().out


def _child(args, **env):
    """Run `python <args>` with env overlaid on this process's environment,
    minus OPENBLAS_NUM_THREADS; return the completed process."""
    base = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    return subprocess.run([sys.executable] + args, env=dict(base, **env),
                          capture_output=True, text=True, timeout=60)


def _imported(stderr):
    """The modules a `python -X importtime` run imported, by name."""
    return {line.rsplit("|", 1)[1].strip() for line in stderr.splitlines()
            if line.startswith("import time:") and "|" in line} - {"imported package"}


class TestStartup:
    """What an `xorcount` process imports, and the environment its entry
    point sets: each solver question starts one such process."""

    def test_package_import_loads_no_module(self):
        code = ("import sys, xorcount; print(sorted(m for m in sys.modules "
                "if m.startswith(('xorcount.', 'numpy'))))")
        assert _child(["-c", code]).stdout == "[]\n"

    def test_cli_import_loads_no_numpy(self):
        code = ("import sys, xorcount.cli; print(sorted(m for m in sys.modules "
                "if m.startswith(('xorcount.', 'numpy'))))")
        assert _child(["-c", code]).stdout == (
            "['xorcount.cli', 'xorcount.dimacs', 'xorcount.errors']\n")

    def test_fstar_never_imports_numpy(self):
        proc = _child(["-X", "importtime", "-m", "xorcount.cli", "fstar", "204", "56"])
        assert proc.returncode == 0 and proc.stdout.startswith("f* = ")
        names = _imported(proc.stderr)
        assert "xorcount.comb" in names
        assert not {n for n in names if n.split(".")[0] == "numpy"}

    def test_solve_imports_only_what_it_runs(self, tmp_path):
        cnf = tmp_path / "t.cnf"
        cnf.write_text("p cnf 3 2\n1 2 0\n-1 3 0\n")
        proc = _child(["-X", "importtime", "-m", "xorcount.cli", "solve", str(cnf)])
        assert proc.returncode == 10 and proc.stdout.startswith("s SATISFIABLE")
        names = _imported(proc.stderr)
        assert "xorcount.dimacs" in names
        assert not names & {"numpy", "xorcount.oracle", "xorcount.gf2hash",
                            "xorcount.bounds", "xorcount.comb", "xorcount.tables",
                            "fractions", "csv", "json"}

    def test_count_models_imports_only_what_it_runs(self, tmp_path):
        cnf = tmp_path / "t.cnf"
        cnf.write_text("p cnf 3 2\n1 2 0\n-1 3 0\n")
        proc = _child(["-X", "importtime", "-m", "xorcount.cli", "count-models", str(cnf)])
        assert proc.returncode == 0 and proc.stdout.startswith("models: 4\n")
        names = _imported(proc.stderr)
        assert "xorcount.dimacs" in names
        assert not names & {"numpy", "xorcount.oracle", "xorcount.gf2hash",
                            "xorcount.bounds", "xorcount.comb", "xorcount.tables",
                            "fractions", "csv", "json"}

    def test_narrow_bound_never_imports_numpy_random(self, tmp_path):
        # only hash draws of k >= gf2hash._WIDE_K uniforms load numpy.random
        rng = random.Random(3)
        path = tmp_path / "s.txt"
        path.write_text("".join(Assignment(b, 16).to_string() + "\n"
                                for b in rng.sample(range(1 << 16), 64)))
        proc = _child(["-X", "importtime", "-m", "xorcount.cli", "bound", str(path), "lb"])
        assert proc.returncode == 0 and proc.stdout.startswith("lower bound: ")
        names = _imported(proc.stderr)
        assert "xorcount.bounds" in names and "numpy.random" not in names

    def test_a_wide_draw_imports_numpy_random(self):
        code = ("import sys; from xorcount.gf2hash import HashParams, sample_hash, _WIDE_K; "
                "sample_hash(HashParams(_WIDE_K - 2, 1, 0.5)); "  # k = n + 1
                "before = 'numpy.random' in sys.modules; "
                "sample_hash(HashParams(_WIDE_K - 1, 1, 0.5)); "
                "print(before, 'numpy.random' in sys.modules)")
        assert _child(["-c", code]).stdout == "False True\n"

    @pytest.mark.parametrize("preset,want", [(None, "1"), ("3", "3")])
    def test_run_defaults_openblas_threads(self, preset, want):
        code = ("import os; from xorcount import cli; "
                "rc = cli.run(['fstar', '204', '56']); "
                "print(rc, os.environ.get('OPENBLAS_NUM_THREADS'))")
        env = {} if preset is None else {"OPENBLAS_NUM_THREADS": preset}
        proc = _child(["-c", code], **env)
        assert proc.stdout.splitlines()[-1] == "0 %s" % want

    def test_run_ends_an_interrupt_in_one_line(self, monkeypatch, capsys):
        # `main` lets a Ctrl-C through to an in-process caller; `run`, the
        # program, ends with one line and exit 130.  Caught here, so a
        # `run` that let it through fails this test, not the whole session
        def interrupted(argv):
            raise KeyboardInterrupt

        monkeypatch.setattr(cli, "_parse", interrupted)
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")  # undone after the test
        with pytest.raises(KeyboardInterrupt):
            cli.main(["fstar", "204", "56"])
        try:
            rc = cli.run(["fstar", "204", "56"])
        except KeyboardInterrupt:
            rc = None
        assert rc == 130 and capsys.readouterr().err == "interrupted\n"

    def test_main_leaves_the_environment_alone(self):
        code = ("import os; from xorcount import cli; before = dict(os.environ); "
                "rc = cli.main(['fstar', '204', '56']); "
                "print(rc, dict(os.environ) == before, "
                "'OPENBLAS_NUM_THREADS' in os.environ)")
        assert _child(["-c", code]).stdout.splitlines()[-1] == "0 True False"

    def test_library_import_loads_no_numpy(self):
        code = ("import sys, xorcount.oracle, xorcount.bounds, xorcount.tables; "
                "print([m for m in sys.modules if m.split('.')[0] == 'numpy'])")
        assert _child(["-c", code]).stdout == "[]\n"

    def test_solver_child_runs_without_numpy(self, tmp_path):
        blocked = _numpy_blocked(tmp_path)
        sat, unsat = tmp_path / "sat.cnf", tmp_path / "unsat.cnf"
        sat.write_text("p cnf 2 1\n1 -2 0\n")
        unsat.write_text("p cnf 1 2\n1 0\n-1 0\n")
        assert _child([blocked, "solve", str(sat)]).returncode == 10
        assert _child([blocked, "solve", str(unsat)]).returncode == 20
        proc = _child([blocked, "count-models", str(sat)])
        assert proc.returncode == 0 and proc.stdout.startswith("models: 3\n")

    # solver-backed, cell-decided and table runs; the solver child is
    # numpy-blocked too
    ROUTES_WITHOUT_NUMPY = {
        "table": ["table", "{synth20}"],
        "cells": ["bound", "{c11}", "lb", "--m", "10", "--T", "7"],
        "solver-chunk": ["bound", "{c14}", "ub", "--m", "11", "--T", "4",
                         "--delta", "0.85", "--solver", "{solver}", "--chunk", "6"],
        "solver-native": ["bound", "{c14}", "ub", "--m", "11", "--T", "4",
                          "--delta", "0.85", "--solver", "{solver}", "--native-xor"],
        "solver-sweep": ["sweep", "{c14}", "0.3", "--m", "6", "--T", "4",
                         "--delta", "0.85", "--solver", "{solver}"],
    }

    @pytest.mark.parametrize("argv", ROUTES_WITHOUT_NUMPY.values(),
                             ids=ROUTES_WITHOUT_NUMPY.keys())
    def test_route_runs_without_numpy(self, tmp_path, capsys, argv):
        blocked = _numpy_blocked(tmp_path)
        argv = [a.format(solver="%s %s solve {in}" % (sys.executable, blocked),
                         **_route_inputs(tmp_path)) for a in argv]
        proc = _child([blocked] + argv)
        assert proc.returncode == 0, proc.stderr
        assert main(argv) == 0
        assert _sweep_untimed(proc.stdout) == _sweep_untimed(capsys.readouterr().out)

    @pytest.mark.parametrize("argv", [["bound", "{s16}", "lb"],
                                      ["bound", "{c11}", "lb"]],
                             ids=["explicit", "kernel"])
    def test_route_imports_numpy(self, tmp_path, argv):
        # an explicit set is packed by numpy, and criterion 11's default
        # pre-scan at m = 1 asks cells past the decision budget: the kernel
        argv = [a.format(**_route_inputs(tmp_path)) for a in argv]
        proc = _child(["-X", "importtime", "-m", "xorcount.cli"] + argv)
        assert proc.returncode == 0, proc.stderr
        assert "numpy" in _imported(proc.stderr)

    def test_large_chunk_is_refused_before_any_solver(self, tmp_path):
        ran = tmp_path / "ran"
        proc = _child(["-m", "xorcount.cli", "bound", _route_inputs(tmp_path)["c14"],
                       "lb", "--m", "6", "--T", "4", "--chunk", "17",
                       "--solver", "touch %s {in}" % ran])
        assert proc.returncode == 1 and not ran.exists()
        assert proc.stderr == "bad solver settings: chunk must be at most 16\n"


def _numpy_blocked(tmp_path):
    """A script that runs `cli.run` on its argv with numpy's import blocked."""
    path = tmp_path / "nonumpy.py"
    path.write_text("import sys\nsys.modules['numpy'] = None\n"
                    "from xorcount.cli import run\nsys.exit(run(sys.argv[1:]))\n")
    return str(path)


def _route_inputs(tmp_path):
    """Paths of the start-up tests' inputs, written into tmp_path: synth_20's
    table spec, criterion 11's random 3-CNF, a 14-variable random 3-CNF of
    20 clauses and a 2^10-member 16-bit explicit set."""
    from xorcount.dimacs import CnfFormula, emit
    from xorcount.tables import format_table_spec, synth_spec

    def cnf(seed, n, k):
        rng = random.Random(seed)
        return CnfFormula(n, [[v if rng.random() < 0.5 else -v
                               for v in rng.sample(range(1, n + 1), 3)]
                              for _ in range(k)], [])

    paths = {name: tmp_path / name for name in ("synth20", "c11", "c14", "s16")}
    paths["synth20"].write_text(format_table_spec(synth_spec(20)))
    paths["c11"].write_text(emit(cnf(7, 20, 15)))
    paths["c14"].write_text(emit(cnf(1400, 14, 20)))
    write_explicit(paths["s16"], random.Random(3).sample(range(1 << 16), 1 << 10), 16)
    return {name: str(path) for name, path in paths.items()}


def _sweep_untimed(stdout):
    """The lines of stdout without the wall times `sweep` prints: "(0.72s)"
    on its summary lines, and the wall_time_s field of its CSV rows."""
    stdout = re.sub(r"\(\d+\.\d+s\)", "(s)", stdout)
    return re.sub(r"^((?:[^,\n]*,){3})\d+\.\d+,", r"\1,", stdout, flags=re.M).splitlines()


# common bound/sweep flags, each away from its default
_BOUND_FLAGS = ["--seed", "7", "--m", "3", "--T", "5", "--delta", "0.2",
                "--kappa", "2", "--c-threshold", "1", "--solver", "s {in}",
                "--budget-s", "1.5", "--native-xor", "--chunk", "3",
                "--bonferroni", "--jobs", "2"]


class TestCommandParser:
    """`main` parses with the parser of argv[0]'s command alone: the
    command it runs gets the Namespace the whole tree (`build_parser`)
    gives, and any argv that parser does not take whole gets the tree's
    own usage, error line and exit code."""

    ARGVS = [
        ["epsilon", "20", "5", "64", "0.1"],
        ["epsilon", "20", "5", "64", "-0.1"],
        ["epsilon", "--", "20", "5", "64", "0.1"],
        ["fstar", "204", "56"],
        ["fstar", "204", "56", "--c", "-1", "--del", "3", "--delta", "4"],
        ["bound", "f.cnf", "lb"],
        ["bound", "f.cnf", "ub", "--f", "0.3", *_BOUND_FLAGS, "--alpha", "0.1",
         "--no-ln-n", "--json", "r.json"],
        ["bound", "f.cnf", "count", "--del", "0.1", "--so=x {in}", "--jobs=2",
         "--bonf", "--no", "--m", "3", "--m", "4"],
        ["bound", "--", "-f.cnf", "ub"],
        ["bound", "f.cnf", "--", "count"],
        ["sweep", "s.txt", "0.1,0.2"],
        ["sweep", "s.txt", "0.1,0.2", *_BOUND_FLAGS, "--csv", "o.csv",
         "--certs-dir", "d"],
        ["sweep", "s.txt", "0.1", "--cert", "d", "--cs", "o.csv", "--T", "3", "--T", "4"],
        ["table", "t.txt"],
        ["table", "t.txt", "--force"],
        ["table", "t.txt", "--for"],
        ["solve", "a.cnf"],
        ["solve", "--", "-a.cnf"],
        ["count-models", "a.cnf"],
    ]

    @pytest.mark.parametrize("argv", ARGVS, ids=" ".join)
    def test_each_command_gets_the_trees_namespace(self, monkeypatch, argv):
        seen = []
        for name, (help_line, add_arguments, _) in list(cli._COMMANDS.items()):
            monkeypatch.setitem(cli._COMMANDS, name, (
                help_line, add_arguments, lambda args: seen.append(args) or 0))
        assert main(argv) == 0
        [args] = seen
        assert vars(args) == vars(cli.build_parser().parse_args(argv))
        assert args.cmd == argv[0]

    @staticmethod
    def _outcome(parse, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            parse(argv)
        out, err = capsys.readouterr()
        return exc.value.code, out, err

    @pytest.mark.parametrize("argv,code", [
        (["bound", "f.cnf"], 2),                      # a missing positional
        (["bound", "f.cnf", "nope"], 2),              # a bad choice
        (["epsilon", "20", "5", "x", "0.1"], 2),      # a bad type
        (["bound", "f.cnf", "lb", "--m"], 2),         # a flag without its value
        (["bound", "f.cnf", "lb", "--c", "1"], 2),    # an ambiguous abbreviation
        (["bound", "f.cnf", "lb", "--bogus"], 2),     # an unrecognized argument
        (["table", "t.txt", "extra"], 2),
        (["sweep", "s.txt", "0.1", "--json", "r.json"], 2),
        (["bound", "f.cnf", "lb", "--bogus", "-h"], 0),
        (["nope"], 2),                                # an unknown command
        (["bou", "f.cnf", "lb"], 2),
        ([], 2),                                      # no command
        (["-h"], 0), (["--help"], 0),
        *[([name, "-h"], 0) for name in ["epsilon", "fstar", "bound", "sweep",
                                         "table", "solve", "count-models"]],
    ], ids=lambda v: " ".join(v) if isinstance(v, list) else None)
    def test_refusals_and_help_are_the_trees(self, capsys, argv, code):
        got = self._outcome(main, argv, capsys)
        assert got == self._outcome(cli.build_parser().parse_args, argv, capsys)
        assert got[0] == code and (got[1] if code == 0 else got[2])

    def test_unrecognized_arguments_are_named_by_the_tree(self, capsys):
        code, _, err = self._outcome(main, ["bound", "f.cnf", "lb", "--bogus"], capsys)
        assert code == 2 and err.startswith("usage: xorcount [-h]")
        assert err.endswith("xorcount: error: unrecognized arguments: --bogus\n")

    def test_a_command_builds_one_parser(self, tmp_path, monkeypatch):
        # the whole tree is eight parsers, 1.5-1.9 ms to build and parse
        # with on a 2-vCPU VM, against 0.45-0.49 ms for bound's alone
        built = []
        init = argparse.ArgumentParser.__init__

        def counted(self, *args, **kwargs):
            built.append(kwargs.get("prog"))
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
        path = tmp_path / "s.txt"
        write_explicit(path, range(8), 4)
        assert main(["bound", str(path), "ub", "--m", "1", "--T", "3"]) == 0
        assert built == ["xorcount bound"]


class TestOneLineErrors:
    """Each refusal is the one whole line a run ends on: SystemExit with a
    string is that line on stderr and exit 1."""

    # a solver whose model x1 = 0, x2 = 1 breaks sat.cnf's clause (1 -2);
    # braces doubled, since each argument is formatted with the paths
    LIAR = "sh -c 'echo s SATISFIABLE; echo v -1 2 0' {{in}}"

    @pytest.mark.parametrize("argv,message", [
        (["table", "{missing}"], "cannot read {missing}: No such file or directory"),
        (["solve", "{missing}"], "cannot read {missing}: No such file or directory"),
        (["count-models", "{missing}"],
         "cannot read {missing}: No such file or directory"),
        (["solve", "{bad_token}"],
         "bad DIMACS file {bad_token}: token 'x' is not an integer"),
        (["count-models", "{bad_token}"],
         "bad DIMACS file {bad_token}: token 'x' is not an integer"),
        (["solve", "{bad_literal}"], "bad DIMACS file {bad_literal}: literal 3 out of range"),
        (["count-models", "{bad_literal}"],
         "bad DIMACS file {bad_literal}: literal 3 out of range"),
        (["epsilon", "5", "10", "4", "0.3"],
         "bad parameters: need 1 <= m <= n, got m=10 n=5"),
        (["epsilon", "5", "3", "4", "0.9"], "bad parameters: density f must lie in [0, 1/2]"),
        (["fstar", "10", "20"], "bad parameters: need 1 <= m <= n, got m=20 n=10"),
        (["fstar", "10", "5", "--delta", "1"],
         "bad parameters: delta must be finite and exceed 2, not 1.0"),
        (["bound", "{bad_token}", "lb"],
         "bad DIMACS file {bad_token}: token 'x' is not an integer"),
        (["bound", "{bad_literal}", "lb"],
         "bad DIMACS file {bad_literal}: literal 3 out of range"),
        (["fstar", "10", "5", "--c", "-10"],
         "bad parameters: need m + c >= 1 (q = 2^(m+c) >= 2), got -5"),
        (["solve", "{too_wide}"], "formula {too_wide}: exhaustive backend capped "
                                  "at 26 variables, formula has 27"),
        (["count-models", "{too_wide}"], "formula {too_wide}: exhaustive backend "
                                         "capped at 26 variables, formula has 27"),
        (["solve", "{negative}"],
         "bad DIMACS file {negative}: malformed header: 'p cnf -1 0'"),
        (["count-models", "{negative}"],
         "bad DIMACS file {negative}: malformed header: 'p cnf -1 0'"),
        (["bound", "{negative}", "lb"],
         "bad DIMACS file {negative}: malformed header: 'p cnf -1 0'"),
        (["bound", "{good}", "lb", "--kappa", "nan"],
         "bad bound parameters: kappa must be positive and finite"),
        (["bound", "{good}", "lb", "--kappa", "inf"],
         "bad bound parameters: kappa must be positive and finite"),
        (["sweep", "{good}", "0.5", "--kappa", "nan"],
         "bad bound parameters: kappa must be positive and finite"),
        (["bound", "{good}", "count", "--alpha", "nan"],
         "bad bound parameters: alpha must be positive and finite"),
        (["bound", "{good}", "count", "--alpha", "inf"],
         "bad bound parameters: alpha must be positive and finite"),
        (["bound", "{good}", "lb", "--solver", "solve {{in}}", "--budget-s", "nan"],
         "bad solver settings: budget_s must be positive and finite, or None"),
        (["bound", "{good}", "lb", "--solver", "solve {{in}}", "--budget-s", "inf"],
         "bad solver settings: budget_s must be positive and finite, or None"),
        (["bound", "{good}", "lb", "--solver", "solve {{in}}", "--budget-s", "0"],
         "bad solver settings: budget_s must be positive and finite, or None"),
        (["bound", "{good}", "lb", "--solver", "solve {{in}}", "--budget-s", "-1"],
         "bad solver settings: budget_s must be positive and finite, or None"),
        (["solve", "{repeated}"],
         "bad DIMACS file {repeated}: repeated header: 'p cnf 5 1'"),
        (["count-models", "{repeated}"],
         "bad DIMACS file {repeated}: repeated header: 'p cnf 5 1'"),
        (["bound", "{repeated}", "lb"],
         "bad DIMACS file {repeated}: repeated header: 'p cnf 5 1'"),
        (["bound", "{good}", "lb", "--m", "1", "--json", "{no_dir}/r.json"],
         "cannot write {no_dir}/r.json: No such file or directory"),
        (["sweep", "{good}", "0.5", "--m", "1", "--csv", "{no_dir}/x.csv"],
         "cannot write {no_dir}/x.csv: No such file or directory"),
        (["sweep", "{good}", "0.5", "--m", "1", "--certs-dir", "{good}/sub"],
         "cannot write {good}/sub: Not a directory"),
        (["fstar", "204", "56", "--delta", "nan"],
         "bad parameters: delta must be finite and exceed 2, not nan"),
        (["fstar", "204", "56", "--delta", "inf"],
         "bad parameters: delta must be finite and exceed 2, not inf"),
        (["sweep", "{good}", "0.1,abc"], "bad bound parameters: could not convert "
                                         "string to float: 'abc' in '0.1,abc'"),
        (["sweep", "{good}", "0.1,0.7"], "bad bound parameters: density f must lie "
                                         "in [0, 1/2], got 0.7 in '0.1,0.7'"),
        (["bound", "{missing}", "lb"],
         "bad bound parameters: cannot read {missing}: No such file or directory"),
        (["sweep", "{missing}", "0.5"],
         "bad bound parameters: cannot read {missing}: No such file or directory"),
        # a file that is not text has no OS reason: the decoder's is kept
        (["solve", "{binary}"], "cannot read {binary}: 'utf-8' codec can't decode "
                                "byte 0xff in position 10: invalid start byte"),
        (["bound", "{binary}", "lb"], "bad bound parameters: cannot read {binary}: "
                                      "'utf-8' codec can't decode byte 0xff in "
                                      "position 10: invalid start byte"),
        (["bound", "{bad_bit}", "lb"], "bad explicit-set file {bad_bit}: invalid bit 'x'"),
        (["bound", "{mixed}", "lb"],
         "bad explicit-set file {mixed}: member width 2 != problem width 4"),
        (["bound", "{no_members}", "lb"], "empty explicit-set file: {no_members}"),
        (["table", "{bad_spec}"], "bad table-spec file {bad_spec}: bad table-spec line "
                                  "'C: 1 x': invalid literal for int() with base 10: 'x'"),
        (["table", "{perm9}"], "table spec {perm9}: enumeration visited 88236 rows "
                               "without finishing (pass --force to count without a cap)"),
        (["bound", "{good}", "lb", "--solver", "solve {{in}}", "--jobs", "0"],
         "bad solver settings: jobs must be at least 1"),
        (["bound", "{sat}", "count", "--solver", LIAR],
         "solver witness fails in-process recheck"),
        (["sweep", "{sat}", "0.5", "--solver", LIAR],
         "solver witness fails in-process recheck"),
        (["bound", "{good}", "lb", "--m", "0"],
         "bad bound parameters: m must lie within [1, n], got m=0 n=3"),
        (["bound", "{good}", "lb", "--m", "40"],
         "bad bound parameters: m must lie within [1, n], got m=40 n=3"),
        (["sweep", "{good}", "0.5", "--m", "0"],
         "bad bound parameters: m must lie within [1, n], got m=0 n=3"),
        (["bound", "{x_open}", "lb"],
         "bad DIMACS file {x_open}: x-line not 0-terminated: 'x1 2'"),
        (["bound", "{x_empty}", "lb"], "bad DIMACS file {x_empty}: empty x-line"),
        (["bound", "{x_negated}", "lb"],
         "bad DIMACS file {x_negated}: only the first x-line literal may be negated"),
        (["bound", "{zero_width}", "lb"], "bad DIMACS file {zero_width}: zero-width clause"),
        (["solve", "{no_header}"], "bad DIMACS file {no_header}: missing header"),
        (["count-models", "{odd_header}"],
         "bad DIMACS file {odd_header}: malformed header: 'p cnf 2 one'"),
        (["table", "{short_spec}"],
         "bad table-spec file {short_spec}: marginal lengths must match the table shape"),
        (["table", "{negative_spec}"],
         "bad table-spec file {negative_spec}: marginals must be nonnegative"),
        (["table", "{binary_spec}"], "bad table-spec file {binary_spec}: "
                                     "binary column marginal exceeds row count"),
        (["table", "{zero_spec}"],
         "bad table-spec file {zero_spec}: structural zero (3,0) out of range"),
        (["table", "{twice_spec}"], "bad table-spec file {twice_spec}: bad table-spec "
                                    "line 'R: 2 0': repeated 'R:' line"),
    ])
    def test_bad_input_is_a_one_line_error(self, tmp_path, argv, message):
        paths = {"missing": tmp_path / "nope.cnf",
                 "bad_token": tmp_path / "token.cnf",
                 "bad_literal": tmp_path / "literal.cnf",
                 "negative": tmp_path / "negative.cnf",
                 "too_wide": tmp_path / "wide.cnf",
                 "repeated": tmp_path / "repeated.cnf",
                 "good": tmp_path / "good.cnf",
                 "no_dir": tmp_path / "no_dir",
                 "sat": tmp_path / "sat.cnf",
                 "binary": tmp_path / "binary.cnf",
                 "bad_bit": tmp_path / "bit.txt",
                 "mixed": tmp_path / "mixed.txt",
                 "no_members": tmp_path / "no_members.txt",
                 "bad_spec": tmp_path / "bad.spec",
                 "perm9": tmp_path / "p9.spec",
                 "x_open": tmp_path / "x_open.cnf",
                 "x_empty": tmp_path / "x_empty.cnf",
                 "x_negated": tmp_path / "x_negated.cnf",
                 "zero_width": tmp_path / "zero_width.cnf",
                 "no_header": tmp_path / "no_header.cnf",
                 "odd_header": tmp_path / "odd_header.cnf",
                 "short_spec": tmp_path / "short.spec",
                 "negative_spec": tmp_path / "negative.spec",
                 "binary_spec": tmp_path / "binary.spec",
                 "zero_spec": tmp_path / "zero.spec",
                 "twice_spec": tmp_path / "twice.spec"}
        paths["good"].write_text("p cnf 3 1\n1 2 0\n")
        paths["bad_token"].write_text("p cnf 2 1\n1 x 0\n")
        paths["bad_literal"].write_text("p cnf 2 1\n1 3 0\n")
        paths["negative"].write_text("p cnf -1 0\n")
        paths["too_wide"].write_text("p cnf 27 1\n1 0\n")
        paths["repeated"].write_text("p cnf 1 1\n1 0\np cnf 5 1\n5 0\n")
        paths["sat"].write_text("p cnf 2 1\n1 -2 0\n")
        paths["binary"].write_bytes(b"p cnf 1 1\n\xff 0\n")
        paths["bad_bit"].write_text("0101\n01x1\n")
        paths["mixed"].write_text("0101\n11\n000000\n")
        paths["no_members"].write_text("# no members\n\n")
        paths["bad_spec"].write_text("rows 1 cols 2\nR: 1\nC: 1 x\n")
        paths["perm9"].write_text(TestTableCmd.PERM_9)
        paths["x_open"].write_text("p cnf 2 0\nx1 2\n")
        paths["x_empty"].write_text("p cnf 2 0\nx0\n")
        paths["x_negated"].write_text("p cnf 2 0\nx1 -2 0\n")
        paths["zero_width"].write_text("p cnf 2 1\n0\n")
        paths["no_header"].write_text("c no header\n")
        paths["odd_header"].write_text("p cnf 2 one\n1 0\n")
        paths["short_spec"].write_text("rows 2 cols 2\nR: 1\nC: 1 1\n")
        paths["negative_spec"].write_text("rows 2 cols 2\nR: -1 2\nC: 1 0\n")
        paths["binary_spec"].write_text("rows 2 cols 2\nR: 1 2\nC: 3 0\nbinary: 1\n")
        paths["zero_spec"].write_text("rows 2 cols 2\nR: 1 1\nC: 1 1\nZ: 3 0\n")
        paths["twice_spec"].write_text("rows 2 cols 2\nR: 1 1\nC: 1 1\nR: 2 0\nC: 1 1\n")
        with pytest.raises(SystemExit) as exc:
            main([a.format(**paths) for a in argv])
        assert exc.value.code == message.format(**paths)


class TestOneLineWarnings:
    """A warning the library raises reaches the user as one `warning: ...`
    line on stderr, not as Python's file-and-source-line pair."""

    @pytest.mark.parametrize("argv,code", [
        (["bound", "{short}", "count", "--seed", "1"], 0),
        (["count-models", "{short}"], 0),
        (["table", "{disagree}"], 0),
        (["fstar", "204", "56", "--c", "-1"], 1),
    ])
    def test_library_warning_is_one_line(self, tmp_path, argv, code):
        paths = {"short": tmp_path / "short.cnf",
                 "disagree": tmp_path / "disagree.txt"}
        paths["short"].write_text("p cnf 3 5\n1 -2 0\n2 3 0\n")
        paths["disagree"].write_text("rows 2 cols 2\nR: 1 0\nC: 0 0\n")
        proc = _child(["-m", "xorcount.cli"] + [a.format(**paths) for a in argv])
        assert proc.returncode == code
        lines = proc.stderr.splitlines()
        assert lines and all(line.startswith("warning: ") for line in lines)
        assert ".py" not in proc.stderr

    def test_warning_filters_still_apply(self):
        proc = _child(["-W", "error", "-m", "xorcount.cli",
                       "fstar", "204", "56", "--c", "-1"])
        assert proc.returncode == 1
        assert proc.stderr.splitlines()[-1].startswith("UserWarning: q < 2^m")


class TestOutputPathsCheckedFirst:
    """An output path that cannot be written ends a `bound` or `sweep` run
    before its first hash draw, with the line a failed write gives."""

    @pytest.fixture
    def draws(self, monkeypatch):
        from xorcount import bounds
        calls, real = [], bounds.sample_hash
        monkeypatch.setattr(bounds, "sample_hash", lambda p: calls.append(p) or real(p))
        return calls

    @pytest.fixture
    def cnf(self, tmp_path):
        path = tmp_path / "good.cnf"
        path.write_text("p cnf 3 1\n1 2 0\n")
        return path

    @pytest.mark.parametrize("argv,reason", [
        (["bound", "{cnf}", "lb", "--json", "{tmp}/no_dir/r.json"], "No such file or directory"),
        (["bound", "{cnf}", "ub", "--json", "{cnf}/r.json"], "Not a directory"),
        (["bound", "{cnf}", "count", "--json", "{tmp}"], "Is a directory"),
        (["sweep", "{cnf}", "0.5", "--csv", "{tmp}/no_dir/x.csv"], "No such file or directory"),
        (["sweep", "{cnf}", "0.5", "--csv", "{tmp}"], "Is a directory"),
        (["sweep", "{cnf}", "0.5", "--certs-dir", "{cnf}/sub"], "Not a directory"),
    ])
    def test_bad_path_fails_before_any_draw(self, tmp_path, cnf, draws, argv, reason):
        argv = [a.format(cnf=cnf, tmp=tmp_path) for a in argv]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == "cannot write %s: %s" % (argv[-1], reason)
        assert draws == []

    @pytest.mark.parametrize("argv", [
        ["bound", "{cnf}", "lb", "--json", "{tmp}/r.json"],
        ["sweep", "{cnf}", "0.5", "--csv", "{tmp}/x.csv"],
        ["sweep", "{cnf}", "0.5", "--certs-dir", "{tmp}/certs"],
    ])
    def test_unwritable_directory_fails_before_any_draw(self, tmp_path, cnf, draws,
                                                        monkeypatch, argv):
        # os.access stands in for a directory without write permission,
        # which a root user could write into all the same
        monkeypatch.setattr(os, "access", lambda *args, **kw: False)
        argv = [a.format(cnf=cnf, tmp=tmp_path) for a in argv]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == "cannot write %s: Permission denied" % argv[-1]
        assert draws == []

    def test_failed_write_after_the_run_keeps_its_line(self, tmp_path, cnf, draws,
                                                       monkeypatch):
        def full(self, *args, **kw):
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
        monkeypatch.setattr(Path, "write_text", full)
        out = tmp_path / "r.json"
        with pytest.raises(SystemExit) as exc:
            main(["bound", str(cnf), "lb", "--m", "1", "--T", "5", "--json", str(out)])
        assert exc.value.code == "cannot write %s: No space left on device" % out
        assert len(draws) == 5


class TestDimacsSniffing:
    # the sniffer reads comments and the header as dimacs.parse does: any
    # line starting with "c" is a comment, the header is "p" then "cnf"
    @pytest.mark.parametrize("text", [
        "c\tmade by a tool\np cnf 3 1\n1 2 0\n",
        "c made by a tool\np  cnf 3 1\n1 2 0\n",
        "p\tcnf 3 1\n1 2 0\n",
        "ccomment\n\n  p cnf   3 1\n1 2 0\n",
    ])
    @pytest.mark.parametrize("cmd", ["bound", "sweep"])
    def test_header_and_comments_as_parse_reads_them(self, tmp_path, capsys,
                                                     text, cmd):
        cnf = tmp_path / "tool.cnf"
        cnf.write_text(text)
        assert main(["count-models", str(cnf)]) == 0
        assert "models: 6" in capsys.readouterr().out
        argv = ([cmd, str(cnf), "ub", "--m", "1"] if cmd == "bound"
                else [cmd, str(cnf), "0.5", "--m", "1", "--csv", str(tmp_path / "s.csv")])
        assert main(argv + ["--T", "5", "--seed", "3"]) == 0


def _explicit_text(members, n, rng):
    """`members` as an explicit-set file with `#` lines, blank lines, CRLF
    endings and surrounding spaces mixed in."""
    out = ["# a comment\r\n", "\r\n"]
    for b in members:
        line = Assignment(b, n).to_string()
        pad = rng.choice(["", " ", "\t", "  "])
        out.append(pad + line + rng.choice(["", " ", "\t"])
                   + rng.choice(["\n", "\r\n"]))
        if rng.random() < 0.1:
            out.append(rng.choice(["\n", "   \n", "#x\n", "\t# 0101\r\n"]))
    return "".join(out)


class TestExplicitLoader:
    @pytest.mark.parametrize("n", [1, 7, 8, 16, 63, 64, 65, 130])
    def test_block_equals_from_explicit(self, tmp_path, n):
        from xorcount.cli import _load_problem
        from xorcount.oracle import CountingProblem
        rng = random.Random(n)
        for k in (1, 2, 5, 300):
            members = [rng.getrandbits(n) for _ in range(k)]
            members += rng.choices(members, k=k // 2 + 1)  # duplicates
            rng.shuffle(members)
            f = tmp_path / ("set%d.txt" % k)
            f.write_bytes(_explicit_text(members, n, rng).encode())
            got = _load_problem(str(f))
            want = CountingProblem.from_explicit(
                [Assignment(b, n) for b in members], n)
            assert (got.kind, got.n, sum(map(len, got._blocks))) == (
                "explicit", n, len(set(members)))
            block, expected = got._blocks[0], want._blocks[0]
            assert block.dtype == expected.dtype and block.shape == expected.shape
            assert (block == expected).all()

    def test_refusals_are_typed(self):
        from xorcount.errors import DimensionError, ParseError
        from xorcount.oracle import _explicit_from_lines
        with pytest.raises(ParseError, match="^invalid bit 'x'$"):
            _explicit_from_lines(["0101", "01x1"])
        with pytest.raises(DimensionError):
            _explicit_from_lines(["0101", "11"])

    @pytest.mark.parametrize("text,message", [
        ("", "empty explicit-set file: {f}"),
        ("\n# only comments\n  \n", "empty explicit-set file: {f}"),
        ("0101\n01x1\n", "bad explicit-set file {f}: invalid bit 'x'"),
        ("0101\n01 1\n", "bad explicit-set file {f}: invalid bit ' '"),
        ("0101\n0é01\n", "bad explicit-set file {f}: invalid bit 'é'"),
        ("0101\n2101\n01y1\n", "bad explicit-set file {f}: invalid bit '2'"),
        ("0101\n11\n000000\n",
         "bad explicit-set file {f}: member width 2 != problem width 4"),
        ("0101\n0101\n101\n",
         "bad explicit-set file {f}: member width 3 != problem width 4"),
        # widths that sum to a multiple of the first still differ
        ("0101\n011\n01111\n",
         "bad explicit-set file {f}: member width 3 != problem width 4"),
        # a width mismatch on line 2 and a bad character on line 3: the
        # characters are checked first
        ("0101\n011\n01z1\n", "bad explicit-set file {f}: invalid bit 'z'"),
    ])
    def test_error_messages(self, tmp_path, text, message):
        f = tmp_path / "bad.txt"
        f.write_text(text, encoding="utf-8")
        with pytest.raises(SystemExit) as exc:
            main(["bound", str(f), "lb"])
        assert str(exc.value.code) == message.format(f=f)


# the cases `bound` and `sweep` must keep answering byte for byte: every
# mode on its default, `--m` and `--f`/`--T` paths, on each kind of input
GOLDEN_INPUTS = {
    "set.txt": "".join(Assignment(b, 12).to_string() + "\n"
                       for b in range(0, 1 << 12, 37)),
    "f.cnf": "p cnf 10 6\n1 2 -3 0\n-1 4 0\n2 -5 6 0\n-7 8 0\n9 -10 3 0\n"
             "-2 -6 7 0\n",
    "t.spec": "rows 2 cols 2\nR: 1 1\nC: 1 1\nbinary: 1\n",
}
GOLDEN_SHA256 = "bd9644ac3d78e8da2c39ac5d32cd785b13b98318710ac4a990b645ad492a3a32"


def _untimed(text):
    return re.sub(r'("wall_time_s": )[^,\n}]+', r"\g<1>0", text)


def test_bound_and_sweep_outputs_are_pinned(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    for name, text in GOLDEN_INPUTS.items():
        Path(name).write_text(text)
    runs = [["bound", name, mode] + flags
            for name in GOLDEN_INPUTS
            for mode in ("lb", "ub", "count")
            for flags in ([], ["--m", "3"], ["--f", "0.2", "--T", "12"])]
    runs.append(["sweep", "set.txt", "0.3,0.5", "--T", "12", "--seed", "4",
                 "--csv", "s.csv", "--certs-dir", "certs"])
    record = []
    for k, argv in enumerate(runs):
        if argv[0] == "bound":
            argv = argv + ["--seed", str(k), "--json", "r%d.json" % k]
        rc = main(argv)
        out = re.sub(r"  \(\d+\.\d+s\)$", "", capsys.readouterr().out, flags=re.M)
        entry = {"argv": argv, "rc": rc, "stdout": out}
        if argv[0] == "bound":
            entry["report"] = _untimed(Path(argv[-1]).read_text())
        else:
            with open("s.csv", newline="") as fh:
                entry["csv"] = strip_timing(list(csv.DictReader(fh)))
            entry["certs"] = {p.name: _untimed(p.read_text())
                              for p in sorted(Path("certs").iterdir())}
        record.append(entry)
    blob = json.dumps(record, sort_keys=True).encode()
    assert hashlib.sha256(blob).hexdigest() == GOLDEN_SHA256


def stream_cnf(seed, num_vars, k):
    """A seeded random 3-CNF of `num_vars` variables and k clauses, as
    DIMACS text."""
    rng = random.Random(seed)
    lines = ["p cnf %d %d\n" % (num_vars, k)]
    for _ in range(k):
        lits = [rng.choice([v, -v]) for v in rng.sample(range(1, num_vars + 1), 3)]
        lines.append(" ".join(map(str, lits)) + " 0\n")
    return "".join(lines)


# random 3-CNFs of 24 and 26 variables, with 2,659 and 2,203 models: each
# default lb, ub and count run asks some estimate whose cells hold more
# assignments in all than S's first block, which the model stream answers.
# STREAM_SHA256 was recorded when every in-process CNF estimate read that
# block
STREAM_INPUTS = {"f24.cnf": stream_cnf(24060, 24, 60),
                 "f26.cnf": stream_cnf(26070, 26, 70)}
STREAM_SHA256 = "dd6f3f4d26687ff89a9f94119901aa3966de4b9a96accb9ca283cbd4c335e09e"


def test_stream_route_outputs_are_pinned(tmp_path, monkeypatch, capsys):
    from xorcount import oracle
    monkeypatch.chdir(tmp_path)
    pulled = []
    real = oracle._model_blocks
    monkeypatch.setattr(oracle, "_model_blocks",
                        lambda formula: (pulled.append(b) or b for b in real(formula)))
    record = []
    for name, text in STREAM_INPUTS.items():
        Path(name).write_text(text)
        for mode in ("lb", "ub", "count"):
            pulled.clear()
            rc = main(["bound", name, mode, "--seed", "1", "--json", "r.json"])
            assert pulled, (name, mode)  # the run read S's model stream
            record.append({"argv": [name, mode], "rc": rc,
                           "stdout": capsys.readouterr().out,
                           "report": _untimed(Path("r.json").read_text())})
    blob = json.dumps(record, sort_keys=True).encode()
    assert hashlib.sha256(blob).hexdigest() == STREAM_SHA256
