"""Benchmark of `xorcount bound`: time to a certificate, oracle questions and
encoded XOR size, on four workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py [--seed N --seconds S --trace 0|1]
    python3 perfbench/run.py --record [--workload NAME]

Run it from the root of a checkout; it imports the package from ./src.  The
last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics: the end-to-end metrics with --trace 0, the
per-layer metrics with --trace 1.  A run repeats its workload's cycle of
requests a number of times fixed by --seconds alone, about --seconds long.
A human-readable summary goes to standard error and a detailed result (and,
when tracing, every span) to .perfbench/.
Without --workload every workload runs in turn, each in its own process, and
each prints its own JSON line.

--record re-runs one cycle of every seed slot and rewrites
perfbench/reference.json, the digests each request's certificates must
match.  See perfbench/NOTES.md for what each metric means.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from contextlib import contextmanager, redirect_stderr, redirect_stdout
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
HERE = Path(__file__).resolve().parent
REFERENCE = HERE / "reference.json"
OUT = ROOT / ".perfbench"

# On a shared 2-vCPU virtual machine, the host's speed swung by up to 60% in
# stretches of seconds, and whole runs could fall in a slow stretch.  So the
# host's speed is measured right before and after every timed region, by a
# fixed calibration the program never runs (CALIBRATIONS, chosen by each
# workload to resemble its main work), and each time is scaled to the
# reference speed: "seconds at the reference speed".  A run does a fixed
# amount of work, the workload's cycle of requests repeated a number of
# times set by --seconds and the cycle's nominal length, so every run of a
# seed attempts the same requests.  The set-up is timed in SETUP_BATCHES
# batches of at least SETUP_BATCH_S, spread evenly over the run.
MIN_CYCLES = 3
SETUP_BATCHES = 5
SETUP_BATCH_S = 0.05

# metric name -> unit, as BENCHMARK.json at the checkout root lists them
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in SPEC["per_layer"]}

# spans reported per request as <span>.self_s, and per set-up
SELF_TIME_SPANS = [
    "oracle.exhaustive", "oracle.explicit", "oracle.external",
    "gf2hash.sample_hash", "bounds", "oracle.conjoin", "oracle.expand_xors",
    "dimacs.emit", "comb.upper_bound_threshold", "comb.min_density_fstar",
    "cli",
]
SETUP_SPANS = ["tables.encode_to_cnf", "tables.explicit_problem", "dimacs.parse"]


def _canonical(value):
    """Certificate JSON without wall times, floats cut to 12 digits."""
    if isinstance(value, dict):
        return {k: _canonical(v) for k, v in sorted(value.items())
                if k != "wall_time_s"}
    if isinstance(value, list):
        return [_canonical(v) for v in value]
    if isinstance(value, float):
        return float("%.12g" % value)
    return value


def _digest(certs) -> str:
    blob = json.dumps(_canonical(certs), sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


def _sound(certs, truth_log2) -> bool:
    """lb <= log2|S| <= ub; sparse-count within a factor of 16."""
    for cert in certs:
        b = cert["bound_log2"]
        kind = cert["kind"]
        if kind == "lower_bound" and b is not None and b > truth_log2 + 1e-9:
            return False
        if kind == "upper_bound" and b < truth_log2 - 1e-9:
            return False
        if kind == "sparse_count" and (b is None or abs(b - truth_log2) > 4.0):
            return False
    return True


def _cal_python():
    """Interpreter work: integer arithmetic and a dict."""
    acc, table = 0, {}
    for i in range(6000):
        acc += (i * 2654435761) & 0xFFFF
        table[i & 63] = acc
    return acc


def _cal_arrays():
    """numpy work on 2 MiB arrays with fresh temporaries, the way the
    exhaustive backend evaluates a block."""
    import numpy as np

    words = np.arange(1 << 18, dtype=np.uint64)
    mask = np.ones(words.shape, dtype=bool)
    for k in (3, 5, 9, 17):
        mask &= (words & np.uint64(k)) != np.uint64(0)
    return bool(mask.any())


def _cal_spawn():
    """Start a bare child interpreter and wait for it."""
    subprocess.run([sys.executable, "-S", "-c", "pass"], check=True)


# kind -> (calibration work, its time at the reference speed)
CALIBRATIONS = {
    "python": (_cal_python, 0.9e-3),
    "arrays": (_cal_arrays, 1.2e-3),
    "spawn": (_cal_spawn, 9e-3),
}
# every workload's set-up is interpreter work: parsing and building sets
SETUP_CALIBRATION = ("python",)


def host_speed(kinds) -> float:
    """The host's speed now for work of the given kinds: the geometric mean,
    over the kinds, of the reference time over the fastest of three tries.
    1 at the reference speed, below 1 while the host runs slow."""
    log_sum = 0.0
    for kind in kinds:
        work, ref = CALIBRATIONS[kind]
        best = math.inf
        for _ in range(3):
            t0 = time.perf_counter()
            work()
            best = min(best, time.perf_counter() - t0)
        log_sum += math.log(ref / best)
    return math.exp(log_sum / len(kinds))


class Runner:
    """Runs requests one at a time and checks each against ground truth and
    the recorded reference."""

    def __init__(self, workload, reference):
        from probe import Probe

        self.workload = workload
        self.reference = reference  # list of digests by request index, or None
        self.probe = Probe()
        self.mode = None
        self.units = 0
        self._row_clauses = {}
        self.speed = host_speed(workload.CALIBRATION)

    def _scale(self, kinds, before=None) -> float:
        """Host speed over the timed region just ended: the geometric mean
        of the calibrations before and after it.  Without before, the
        previous request's after is used."""
        after = host_speed(kinds)
        factor = math.sqrt((before or self.speed) * after)
        if before is None:
            self.speed = after
        return factor

    def set_mode(self, mode):
        if mode != self.mode:
            self.probe.uninstall()
            if mode is not None:
                self.probe.install(mode)
            self.mode = mode

    def setup(self, traced: bool = False, reps: int = 1):
        """Build the workload's instances reps times; (seconds per build,
        the same at the reference speed)."""
        self.units += 1
        sink = io.StringIO()
        before = host_speed(SETUP_CALIBRATION)
        with redirect_stdout(sink), redirect_stderr(sink):
            if traced:
                self.probe.begin(self.units, "setup", span=True)
            t0 = time.perf_counter()
            for _ in range(reps):
                self.workload.setup()
            dt = (time.perf_counter() - t0) / reps
            if traced:
                self.probe.end()
        scaled = dt * self._scale(SETUP_CALIBRATION, before)
        # the next request's calibration before it
        self.speed = host_speed(self.workload.CALIBRATION)
        return dt, scaled

    def execute(self, index: int, req, first: bool):
        """Run one request; returns its record.  The deterministic counts
        are taken from the first cycle's untraced records."""
        probe = self.probe
        self.units += 1
        traced = self.mode == "trace"
        sink = io.StringIO()
        with redirect_stdout(sink), redirect_stderr(sink):
            probe.begin(self.units, "request", span=traced)
            t0 = time.perf_counter()
            try:
                raw = req.call()
                error = None
            except Exception as exc:  # a raising request is a failed request
                raw = None
                error = exc
            dt = time.perf_counter() - t0
            probe.end()
        first = first and self.mode == "count"
        rec = {"index": index, "key": req.key, "mode": self.mode, "time_s": dt,
               "ref_s": dt * self._scale(self.workload.CALIBRATION),
               "first": first, "trials": probe.trials,
               "questions": len(probe.hashes)}
        certs = None
        if error is not None:
            rec["status"] = "raised"
            rec["digest"] = "error:" + type(error).__name__
            rec["error"] = "%s: %s" % (type(error).__name__, error)
        else:
            certs = req.collect(raw)
            if certs is None:
                rec["status"] = "inconclusive"
                rec["digest"] = "error:inconclusive"
            else:
                rec["digest"] = _digest(certs)
                rec["status"] = "ok" if _sound(certs, req.truth_log2) else "unsound"
        if self.reference is not None and certs is not None:
            want = self.reference[index]
            # an error on record accepts any certificate: the defect behind
            # it may since have been fixed
            if not want.startswith("error:") and want != rec["digest"]:
                rec["status"] = "mismatch"
        if certs is not None:
            rec["useful"] = sum(len(c.get("trial_outcomes", ())) for c in certs)
            rec["bounds"] = {c["kind"]: c["bound_log2"] for c in certs}
        rec["pair"] = req.pair
        if first:
            rec["xor_clauses"] = sum(self._hash_clauses(h) for h in probe.hashes)
        return rec

    def _hash_clauses(self, h) -> int:
        """Clauses h's parity rows expand to at the default chunk size."""
        total = 0
        for i, row in enumerate(h.rows):
            key = (row.bit_count(), (h.b_bits >> i) & 1)
            if key not in self._row_clauses:
                self._row_clauses[key] = _row_clauses(*key)
            total += self._row_clauses[key]
        return total


def _row_clauses(support: int, rhs: int) -> int:
    """Clauses oracle.expand_xors makes of one parity row; the chunked
    encoding depends only on the row's support size and right-hand side.
    Called in count mode only, where expand_xors is not wrapped."""
    from xorcount import oracle
    from xorcount.dimacs import CnfFormula

    formula = CnfFormula(support, [], [(list(range(1, support + 1)), rhs)])
    return len(oracle.expand_xors(formula).clauses)


def _tail(times):
    """(value, percentile): highest percentile with ten samples beyond it,
    or the maximum when there are ten samples or fewer."""
    n = len(times)
    ordered = sorted(times)
    if n <= 10:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def _metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(records, setup_times):
    """setup_times: [(seconds, seconds at the reference speed)] per batch."""
    ok = [r for r in records if r["status"] == "ok"]
    reps = {}  # request index -> its successful repetitions
    for r in ok:
        reps.setdefault(r["index"], []).append(r)
    # each request of the cycle counts once, with its median repetition
    times = [statistics.median(r["ref_s"] for r in rs) for rs in reps.values()]
    raw = [statistics.median(r["time_s"] for r in rs) for rs in reps.values()]
    tail, pct = _tail(times)
    first_ok = [r for r in ok if r["first"]]
    gaps = []
    pairs = {}
    for r in first_ok:
        if r["pair"] is not None:
            pairs.setdefault(json.dumps(r["pair"]), {}).update(r["bounds"])
    for b in pairs.values():
        if b.get("lower_bound") is not None and "upper_bound" in b:
            gaps.append(b["upper_bound"] - b["lower_bound"])
    questions = sum(r["questions"] for r in first_ok)
    metrics = {
        "setup_s": statistics.median(ref for _, ref in setup_times),
        "cert_p50_s": statistics.median(times),
        "cert_tail_s": tail,
        "certs_per_s": len(times) / sum(times),
        "oracle_calls_per_cert": sum(r["trials"] for r in first_ok) / len(first_ok),
        "xor_cnf_clauses": sum(r["xor_clauses"] for r in first_ok) / questions,
        "gap_log2": statistics.fmean(gaps),
        "ok_frac": len(ok) / len(records),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    detail = {"cert_tail_percentile": pct, "cert_samples": len(times),
              "cert_p50_unscaled_s": statistics.median(raw),
              "cert_tail_unscaled_s": _tail(raw)[0],
              "setup_unscaled_s": statistics.median(t for t, _ in setup_times),
              "request_median_s": {rs[0]["key"]: t
                                   for rs, t in zip(reps.values(), times)},
              "gap_pairs": len(gaps), "questions_first_cycle": questions,
              "setup_batches": len(setup_times),
              "failed_frac": 1.0 - len(ok) / len(records)}
    return {k: _metric(v, END_TO_END[k]) for k, v in metrics.items()}, detail


def per_layer(runner, records):
    probe = runner.probe
    traced = [r for r in records if r["mode"] == "trace"]
    counted = [r for r in records if r["mode"] == "count"]
    n_req = len(traced)
    n_setup = sum(1 for phase in probe.units.values() if phase == "setup")
    st = probe.self_times()
    counts = probe.counts

    def req(name, which=0):
        return st.get(("request", name), (0.0, 0))[which] / n_req

    values = {}
    for name in SELF_TIME_SPANS:
        values[name + ".self_s"] = req(name)
    for name in ("oracle.exhaustive", "oracle.explicit", "gf2hash.sample_hash"):
        values[name + ".calls"] = req(name, 1)
    for name in SETUP_SPANS:
        values[name + ".self_s"] = (st.get(("setup", name), (0.0, 0))[0]
                                    / max(1, n_setup))
    trials = sum(r["trials"] for r in traced)
    ok_trials = sum(r["trials"] for r in traced if r["status"] == "ok")
    useful = sum(r.get("useful", 0) for r in traced if r["status"] == "ok")
    values.update({
        "oracle.explicit.wide_calls": counts["oracle.explicit.wide_calls"] / n_req,
        "bounds.trials": trials / n_req,
        "bounds.pick_promising_m.calls": counts["bounds.pick_promising_m.calls"] / n_req,
        "bounds.useful_call_frac": useful / ok_trials if ok_trials else 0.0,
        "dimacs.emit.bytes": counts["dimacs.emit.bytes"] / n_req,
        "oracle.enc.clauses": counts["oracle.enc.clauses"] / n_req,
        "oracle.enc.aux_vars": counts["oracle.enc.aux_vars"] / n_req,
        "oracle.run_external.calls": req("oracle.run_external", 1),
        "oracle.run_external.wait_s": req("oracle.run_external"),
        "oracle.run_external.unknown": counts["oracle.run_external.unknown"] / n_req,
        "oracle.sat_frac": (counts["has_survivor.sat"] / counts["has_survivor.calls"]
                            if counts["has_survivor.calls"] else 0.0),
        "dimacs.parse.request_s": req("dimacs.parse"),
        "bench.self_s": req("bench.request"),
        "trace.wall_s": probe.wall("request") / n_req,
        "trace.overhead_frac": (sum(r["time_s"] for r in traced)
                                / sum(r["time_s"] for r in counted) - 1.0),
    })
    wall = probe.wall("request")
    shares = {name: tot / wall for (phase, name), (tot, calls) in st.items()
              if phase == "request"}
    metrics = {name: _metric(values[name], unit) for name, unit in PER_LAYER.items()}
    return metrics, {"request_self_share": shares, "traced_requests": n_req,
                     "traced_setups": n_setup}


@contextmanager
def _work_dir():
    """A scratch directory inside the checkout, also for temporary files."""
    work = OUT / ("work-%d" % os.getpid())
    work.mkdir(parents=True)
    tempfile.tempdir = str(work)  # run_external's instance files
    try:
        yield work
    finally:
        shutil.rmtree(work, ignore_errors=True)


def measure(name, seed, seconds, trace):
    from workloads import SLOTS, WORKLOADS

    slot = seed % SLOTS
    reference = json.loads(REFERENCE.read_text())[name][str(slot)]
    with _work_dir() as work:
        workload = WORKLOADS[name](slot, work)
        runner = Runner(workload, reference)
        cycle = workload.requests()
        if len(cycle) != len(reference):
            raise SystemExit("reference for %s slot %d has %d requests, cycle %d"
                             % (name, slot, len(reference), len(cycle)))
        single, _ = runner.setup()
        reps = max(1, math.ceil(SETUP_BATCH_S / single))
        if trace:
            runner.set_mode("trace")
            runner.setup(traced=True)
        # a traced run times each request twice
        cycles = max(MIN_CYCLES, round(seconds / (workload.CYCLE_S * (1 + trace))))
        total = cycles * len(cycle)
        setup_at = {k * total // SETUP_BATCHES for k in range(SETUP_BATCHES)}
        setup_times = []
        records = []
        for position in range(total):
            c, i = divmod(position, len(cycle))
            if trace:
                # each request runs untraced and traced, alternating
                # which goes first
                order = ("count", "trace") if (c + i) % 2 == 0 else ("trace", "count")
            else:
                order = ("count",)
                if position in setup_at:
                    setup_times.append(runner.setup(reps=reps))
            for mode in order:
                runner.set_mode(mode)
                records.append(runner.execute(i, cycle[i], first=c == 0))
        runner.set_mode(None)

    if trace:
        metrics, detail = per_layer(runner, records)
        runner.probe.dump(OUT / ("spans-%s-seed%d.jsonl" % (name, seed)))
    else:
        metrics, detail = end_to_end(records, setup_times)
    bad = [r for r in records if r["status"] != "ok"]
    detail.update({
        "workload": name, "seed": seed, "slot": slot, "trace": trace,
        "cycles": cycles, "cycle_requests": len(cycle),
        "failed_requests": sorted({(r["key"], r["status"], r.get("error", ""))
                                   for r in bad}),
        "requests": [[r["index"], r["mode"], r["status"], r["time_s"]]
                     for r in records],
    })
    result = {
        # correct: every certificate is the one on record for its request.
        # Unsound, inconclusive and raising requests count as failed.
        "correct": not any(r["status"] == "mismatch" for r in records),
        "attempted": len(records),
        "failed": len(bad),
        "metrics": metrics,
    }
    (OUT / ("result-%s-seed%d-trace%d.json" % (name, seed, int(trace)))).write_text(
        json.dumps({"result": result, "detail": detail}, indent=1, default=list)
        + "\n")
    _summarise(result, detail)
    return result


def _summarise(result, detail):
    err = sys.stderr
    print("%s seed %d (slot %d): %d cycles of %d requests, %d attempted, %d failed"
          % (detail["workload"], detail["seed"], detail["slot"], detail["cycles"],
             detail["cycle_requests"], result["attempted"], result["failed"]),
          file=err)
    for name, m in result["metrics"].items():
        print("  %-36s %14.6g %s" % (name, m["value"], m["unit"]), file=err)
    if "cert_tail_percentile" in detail:
        print("  cert_tail_s is p%.1f of %d certificates; failed_frac %.4f"
              % (detail["cert_tail_percentile"], detail["cert_samples"],
                 detail["failed_frac"]), file=err)
    if "request_self_share" in detail:
        print("  share of traced request time by span:", file=err)
        for name, share in sorted(detail["request_self_share"].items(),
                                  key=lambda kv: -kv[1]):
            print("    %-34s %6.2f%%" % (name, 100 * share), file=err)
    for key, status, error in detail["failed_requests"]:
        print("  failed: %s [%s] %s" % (key, status, error), file=err)


def record(names):
    """Run one cycle of every slot and rewrite the reference digests."""
    from workloads import SLOTS, WORKLOADS

    reference = json.loads(REFERENCE.read_text()) if REFERENCE.exists() else {}
    with _work_dir() as work:
        for name in names:
            slots = {}
            for slot in range(SLOTS):
                workload = WORKLOADS[name](slot, work)
                runner = Runner(workload, None)
                runner.setup()
                runner.set_mode("count")
                recs = [runner.execute(i, req, first=False)
                        for i, req in enumerate(workload.requests())]
                runner.set_mode(None)
                slots[str(slot)] = [r["digest"] for r in recs]
                for r in recs:
                    if r["status"] != "ok":
                        print("%s slot %d: %s [%s] %s" % (name, slot, r["key"],
                              r["status"], r.get("error", "")), file=sys.stderr)
                print("%s slot %d recorded" % (name, slot), file=sys.stderr)
            reference[name] = slots
    REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record", action="store_true",
                    help="rewrite perfbench/reference.json")
    args = ap.parse_args(argv)
    if not (SRC / "xorcount" / "__init__.py").is_file():
        print("perfbench: no xorcount package under %s" % SRC, file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # the external-solver workload's child interpreter imports from src too
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)
    from workloads import WORKLOADS

    if args.record:
        record([args.workload] if args.workload else list(WORKLOADS))
        return 0
    if args.workload is None:
        # one process per workload, so each has its own peak memory
        rc = 0
        for name in WORKLOADS:
            child = subprocess.run(
                [sys.executable, __file__, "--workload", name, "--seed",
                 str(args.seed), "--seconds", str(args.seconds), "--trace",
                 str(args.trace)], stdout=subprocess.PIPE, text=True)
            if child.returncode == 0:
                result = json.loads(child.stdout.splitlines()[-1])
                print(json.dumps({"workload": name, **result}), flush=True)
            rc = rc or child.returncode
        return rc
    if args.workload not in WORKLOADS:
        ap.error("--workload must be one of %s" % ", ".join(WORKLOADS))
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
