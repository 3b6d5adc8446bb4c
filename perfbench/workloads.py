"""The benchmark's four workloads.

Each workload is built from a seed slot.  It writes its instance files, knows
the exact |S| of each instance (computed outside every timed region), builds
the instances the way the program does (the timed set-up), and lists one
cycle of certificate requests.  Requests run one at a time (closed loop, one
client).  A run repeats the cycle a fixed number of times: its --seconds
over the workload's CYCLE_S, the nominal seconds of one cycle at the
reference speed, and at least three.  CALIBRATION names the calibration
work (run.CALIBRATIONS) that times are scaled by: the kind of work the
workload mostly does.  Every repetition gives
the same certificates, which the reference digests pin down.
"""

from __future__ import annotations

import json
import math
import random
import shlex
import sys
from pathlib import Path

from xorcount import bounds, cli, comb, dimacs, oracle, tables
from xorcount.dimacs import CnfFormula
from xorcount.gf2hash import Assignment

# Seeds are folded onto this many slots, so every run's requests have a
# recorded reference digest.
SLOTS = 16


class Request:
    """One certificate request.

    call()     runs it; this is the timed region.
    collect(r) turns call()'s result into a list of certificate JSON dicts,
               or None when the program reported the run inconclusive.
    pair       (instance, f) key joining a lower and an upper bound for the
               gap, or None.
    """

    def __init__(self, key, call, collect, truth_log2, pair=None):
        self.key = key
        self.call = call
        self.collect = collect
        self.truth_log2 = truth_log2
        self.pair = pair


def _random_3cnf(rng: random.Random, n: int, k: int) -> CnfFormula:
    clauses = []
    for _ in range(k):
        vs = rng.sample(range(1, n + 1), 3)
        clauses.append([v if rng.random() < 0.5 else -v for v in vs])
    return CnfFormula(n, clauses, [])


def _cli_request(key, argv, report: Path, truth_log2, pair=None):
    """`xorcount <argv> --json report`, run in process through cli.main."""
    argv = argv + ["--json", str(report)]

    def call():
        return cli.main(argv)

    def collect(rc):
        if rc == 2:
            return None
        return json.loads(report.read_text())["certificates"]

    return Request(key, call, collect, truth_log2, pair)


class Cnf20Exhaustive:
    """Criterion 11's random 3-CNF on the exhaustive backend, fixed --m."""

    name = "cnf20-exhaustive"
    CYCLE_S = 4.0
    CALIBRATION = ("arrays",)
    DENSITIES = (0.1, 0.3, 0.5)

    def __init__(self, slot: int, work: Path):
        self.slot = slot
        self.work = work
        formula = _random_3cnf(random.Random(7), 20, 15)
        self.text = dimacs.emit(formula)
        self.path = work / "cnf20.cnf"
        self.path.write_text(self.text)
        self.truth_log2 = math.log2(oracle.count_models(formula))  # 141,440

    def setup(self):
        oracle.CountingProblem.from_cnf(dimacs.parse(self.text))

    def requests(self):
        out = []
        for i, f in enumerate(self.DENSITIES):
            seed = 1000 * self.slot + i
            for mode in ("lb", "ub"):
                # --T 7 with Delta = 0.75 gives the upper bound the same 7
                # trials as the lower bound, so all requests cost alike
                argv = ["bound", str(self.path), mode, "--m", "10", "--T", "7",
                        "--delta", "0.75", "--f", repr(f), "--seed", str(seed)]
                out.append(_cli_request(
                    "f=%g %s seed=%d" % (f, mode, seed), argv,
                    self.work / ("cnf20-%d-%s.json" % (i, mode)),
                    self.truth_log2, pair=f))
        return out


class Explicit16Count:
    """Criterion 8's shape: explicit 16-bit sets of 2^10 members."""

    name = "explicit16-count"
    CYCLE_S = 5.0
    CALIBRATION = ("python",)
    SETS = 20
    SIZE = 1 << 10

    def __init__(self, slot: int, work: Path):
        self.slot = slot
        self.work = work
        self.texts = []
        self.paths = []
        for j in range(self.SETS):
            rng = random.Random(80_000 + 1000 * slot + j)
            members = rng.sample(range(1 << 16), self.SIZE)
            text = "".join(Assignment(b, 16).to_string() + "\n" for b in members)
            path = work / ("set%d.txt" % j)
            path.write_text(text)
            self.texts.append(text)
            self.paths.append(path)
        self.truth_log2 = math.log2(self.SIZE)  # the members are distinct

    def setup(self):
        for text in self.texts:
            members = [Assignment.from_string(line) for line in text.split()]
            oracle.CountingProblem.from_explicit(members, 16)

    def requests(self):
        out = []
        for j, path in enumerate(self.paths):
            seed = 1000 * self.slot + j
            # count, then the default lower bound (pre-scan plus a +-2 window)
            # and the default upper bound, all on one fresh set
            for mode in ("count", "lb", "ub"):
                argv = ["bound", str(path), mode, "--seed", str(seed)]
                out.append(_cli_request(
                    "set%d %s seed=%d" % (j, mode, seed), argv,
                    self.work / ("set%d-%s.json" % (j, mode)),
                    self.truth_log2, pair=None if mode == "count" else j))
        return out


class SynthTables:
    """The paper in miniature on synth_n tables, from f* up to 1/2."""

    name = "synth-tables"
    CYCLE_S = 2.8
    CALIBRATION = ("python",)
    # n -> (m of the lower bound, m of the upper bound): one below and two
    # above log2(1+(n-1)^2), so the upper-bound event nearly always fires
    SIZES = {8: (4, 8), 12: (5, 9), 16: (6, 10), 20: (7, 11)}
    LEVELS = 3  # densities f*, (f*+1/2)/2 and 1/2
    SEEDS = 2  # certificate seeds per (n, density)

    def __init__(self, slot: int, work: Path):
        self.slot = slot
        self.specs = {n: tables.synth_spec(n) for n in self.SIZES}
        self.truth = {n: 1 + (n - 1) ** 2 for n in self.SIZES}
        for n, spec in self.specs.items():
            counted = tables.brute_force_count(spec, force=True)
            if counted != self.truth[n]:
                raise RuntimeError("synth_%d: brute force counts %d, formula %d"
                                   % (n, counted, self.truth[n]))
        self.problems = {}

    def setup(self):
        for n, spec in self.specs.items():
            cnf, enc = tables.encode_to_cnf(spec)
            self.problems[n] = (cnf, tables.explicit_problem(spec, enc, force=True))

    def requests(self):
        out = []
        for n in self.SIZES:
            for level in range(self.LEVELS):
                for k in range(self.SEEDS):
                    seed = 1000 * self.slot + 10 * n + self.SEEDS * level + k
                    for mode in ("lb", "ub"):
                        out.append(Request(
                            "synth_%d level=%d %s seed=%d" % (n, level, mode, seed),
                            self._call(n, level, mode, seed),
                            lambda cert: [cert.to_json()],
                            math.log2(self.truth[n]), pair=(n, level, k)))
        return out

    def _call(self, n, level, mode, seed):
        def call():
            cnf, problem = self.problems[n]
            m_lb, m_ub = self.SIZES[n]
            fstar = comb.min_density_fstar(problem.n, m_lb, 1 << (m_lb + 2),
                                           2.25).f_star
            f = (fstar, (fstar + 0.5) / 2, 0.5)[level]
            if mode == "lb":
                m = m_lb
                cert = bounds.best_lower_bound(problem, f, [m], T=24, kappa=1.0,
                                               seed=seed)
            else:
                m = m_ub
                cert = bounds.upper_bound(problem, m, f, delta=0.2, seed=seed)
            # encode one question of this shape onto the table CNF, as an
            # external solver would receive it
            h = tables.hash_over_cells(cnf, m, f, seed=seed)
            dimacs.emit(oracle.conjoin(cnf.formula, h, native_xor=False))
            return cert
        return call


class Cnf14External:
    """A 14-variable random 3-CNF through the external-solver path."""

    name = "cnf14-external"
    # Half the cycle's real length (about 5.4 s), so a run repeats it twice
    # as often: the solver child's start-up time varies from call to call,
    # and six repetitions steady each request's median.
    CYCLE_S = 2.7
    CALIBRATION = ("python", "spawn")
    DENSITIES = (0.1, 0.3)  # sparse and dense
    TRANSPORTS = (("expanded", ["--chunk", "6"]), ("native", ["--native-xor"]))

    def __init__(self, slot: int, work: Path):
        self.work = work
        formula = _random_3cnf(random.Random(1400 + slot), 14, 20)
        self.text = dimacs.emit(formula)
        self.path = work / "cnf14.cnf"
        self.path.write_text(self.text)
        self.truth_log2 = math.log2(oracle.count_models(formula))
        # the package's own exhaustive solver, in a child interpreter that
        # finds the sources through PYTHONPATH
        self.solver = "%s -m xorcount.cli solve {in}" % shlex.quote(sys.executable)

    def setup(self):
        oracle.CountingProblem.from_cnf(dimacs.parse(self.text))

    def requests(self):
        out = []
        for seed, f in enumerate(self.DENSITIES):
            # The hash seeds stay the same in every slot (only the formula
            # changes), so each run asks the same questions and meets the
            # native-XOR empty-row defect on the same requests.
            for transport, flags in self.TRANSPORTS:
                for mode, m in (("lb", 6), ("ub", 11)):
                    # --T 4 with Delta = 0.85: four solver calls per request
                    argv = ["bound", str(self.path), mode, "--m", str(m),
                            "--T", "4", "--delta", "0.85", "--f", repr(f),
                            "--seed", str(seed), "--solver", self.solver] + flags
                    out.append(_cli_request(
                        "f=%g %s %s seed=%d" % (f, transport, mode, seed), argv,
                        self.work / ("cnf14-%d-%s-%s.json" % (seed, transport, mode)),
                        self.truth_log2, pair=(transport, f)))
        return out


WORKLOADS = {w.name: w for w in (Cnf20Exhaustive, Explicit16Count, SynthTables,
                                 Cnf14External)}
