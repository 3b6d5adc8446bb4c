"""Operator entry point.

Subcommands:
  epsilon  — evaluate the collision bound and variance bound at (n,m,q,f)
  fstar    — minimum sufficient constraint density certificate
  bound    — lower/upper bound or SPARSE-COUNT pipeline on an instance file
  sweep    — bound-vs-density tradeoff CSV over a list of f values
  table    — exact contingency-table count (pruned enumeration)
  solve    — exhaustive DIMACS solver (debug oracle; speaks the s/v protocol)
  count-models — exact model count of a DIMACS file (exhaustive)

`bound` and `sweep` reach `bounds` through one driver, `_certify`; `sweep`
checks all its densities, and both check that their output paths can be
written, before the first oracle call.

Instance files are sniffed by content: a DIMACS header, a "rows r cols c"
table spec, or one 0/1 assignment string per line (explicit set).
All log-scale outputs are printed in both natural log and log2.

Start-up: at module level this imports only the stdlib, `errors` and
`dimacs`; each subcommand imports the modules it runs (`csv` and `json`
too, where it writes them).  `epsilon` and `fstar` never load numpy, and
`solve` and `count-models` (the solver child an external-solver estimate
starts once per question) load nothing more: `dimacs` evaluates models in
Python ints.  `bound`, `sweep` and `table` load numpy only where `oracle`
holds S in process (an explicit set, a CNF's model stream, the survival
kernel) or a hash draw is wide (`gf2hash._WIDE_K`): `table`, estimates
answered by a solver, and estimates decided on their cells alone start
without it, about 120 ms sooner for `table` and for a cell-decided
`bound` (169-174 ms against 292-294 ms, medians of 9 on a 2-vCPU VM where
`python -c pass` took 77 ms).  The program entry `run` defaults
OPENBLAS_NUM_THREADS to 1 before numpy can load: xorcount does no linear
algebra, and starting the OpenBLAS worker threads numpy would otherwise
start, one per further CPU, is most of numpy's import time.  `main` builds only the parser of the
command it runs, from the same `_COMMANDS` registry as the whole tree
(`build_parser`), and hands the tree any argv that parser does not take.

A run ends with exit 0; with one stderr line and exit 1 where it cannot
go on (a bad argument, file or setting, an unwritable output path, a
solver model that fails the recheck), each such line made from its error
in one place, `_refusing`; with exit 2 where an oracle answer was
unknown (`inconclusive`); or with exit 130 on Ctrl-C (`interrupted`).
`solve` exits 10 (SAT) or 20 (UNSAT), and `fstar` 1 where unmet.
"""

from __future__ import annotations

import argparse
import errno
import math
import os
import sys
import time
import warnings
from contextlib import contextmanager, nullcontext
from pathlib import Path

from . import dimacs
from .errors import (CapacityError, IntegrityError, OracleUnknownError,
                     ParameterError, ParseError)

# names for the annotations only, read by type checkers; the commands import
# what they run (a constant, not `typing.TYPE_CHECKING`: typing is another import)
TYPE_CHECKING = False
if TYPE_CHECKING:
    from . import tables
    from .oracle import CountingProblem, SolverProfile

LN2 = math.log(2.0)


@contextmanager
def _refusing(prefix: str, *errors, suffix: str = ""):
    """An exception of `errors` raised in the body ends the run with exit 1
    and one stderr line, PREFIX + REASON + SUFFIX: REASON is its `strerror`
    where it has one (a file error names its path once), else its text."""
    try:
        yield
    except errors as exc:
        reason = getattr(exc, "strerror", None) or exc
        raise SystemExit("%s%s%s" % (prefix, reason, suffix)) from None


def _read_input(path: str, prefix: str = "") -> str:
    with _refusing("%scannot read %s: " % (prefix, path), OSError, UnicodeDecodeError):
        return Path(path).read_text()


def _check_writable(path, *, directory=False):
    """End the run with the `cannot write PATH: REASON` line that writing
    would end on, unless the directory the file `path` goes into (with
    `directory`, `path` itself) exists and is writable: called before the
    first oracle call, so a bad output path costs no run's work."""
    folder = Path(path) if directory else Path(path).parent
    if not folder.exists():
        code = errno.ENOENT
    elif not folder.is_dir():
        code = errno.ENOTDIR
    elif not directory and Path(path).is_dir():
        code = errno.EISDIR
    elif not os.access(folder, os.W_OK | os.X_OK):
        code = errno.EACCES
    else:
        return
    raise SystemExit("cannot write %s: %s" % (path, os.strerror(code)))


def _load_table_spec(path: str, text: str) -> tables.ContingencyTableSpec:
    from . import tables
    with _refusing("bad table-spec file %s: " % path, ValueError):
        return tables.parse_table_spec(text)


def _load_dimacs(path: str, text: str) -> dimacs.CnfFormula:
    with _refusing("bad DIMACS file %s: " % path, ParseError):
        return dimacs.parse(text)


def _load_problem(path: str) -> CountingProblem:
    from .oracle import CountingProblem, _explicit_from_lines
    text = _read_input(path, "bad bound parameters: ")
    lines = [raw.strip() for raw in text.splitlines()]
    # comments and the header as `dimacs.parse` reads them
    for line in lines:
        if not line or line.startswith(("c", "#")):
            continue
        if line.split()[:2] == ["p", "cnf"]:
            return CountingProblem.from_cnf(_load_dimacs(path, text))
        if line.startswith("rows"):
            from . import tables
            problem, _ = tables.encode_to_cnf(_load_table_spec(path, text))
            return problem
        break
    lines = [l for l in lines if l and not l.startswith("#")]
    if not lines:
        raise SystemExit("empty explicit-set file: %s" % path)
    # a bad character, or lines of mixed lengths
    with _refusing("bad explicit-set file %s: " % path, ValueError):
        return _explicit_from_lines(lines)


def _solver_profile(args) -> SolverProfile | None:
    template = args.solver or os.environ.get("XORCOUNT_SOLVER")
    if not template:
        return None
    from .oracle import SolverProfile
    with _refusing("bad solver settings: ", ParameterError):
        return SolverProfile(template, budget_s=args.budget_s,
                             native_xor=args.native_xor, chunk=args.chunk,
                             jobs=args.jobs)


def _print_scales(label: str, log2_value):
    if log2_value is None:
        print("%s: (vacuous)" % label)
        return
    ln_value = log2_value * LN2
    linear = 2.0 ** log2_value if log2_value < 1000 else None
    line = "%s: log2 = %.6g, ln = %.6g" % (label, log2_value, ln_value)
    if linear is not None:
        line += ", linear = %.6g" % linear
    print(line)


def cmd_epsilon(args) -> int:
    from . import comb
    with _refusing("bad parameters: ", ParameterError):
        eps = comb.epsilon(comb.EpsilonInputs(args.n, args.m, args.q, args.f))
        v = comb.variance_bound_v(args.q, args.n, args.m, args.f)
    _print_scales("epsilon(n=%d,m=%d,q=%d,f=%r)" % (args.n, args.m, args.q, args.f),
                  eps / LN2)
    _print_scales("v(q)", None if v == -math.inf else v / LN2)
    return 0


def cmd_fstar(args) -> int:
    from . import comb
    with _refusing("bad parameters: ", ParameterError):
        if args.m + args.c < 1:
            raise ParameterError("need m + c >= 1 (q = 2^(m+c) >= 2), got %d"
                                 % (args.m + args.c))
        # refused as comb.EpsilonInputs would, before q = 2^(m+c) is built
        if not 1 <= args.m <= args.n:
            raise ParameterError("need 1 <= m <= n, got m=%d n=%d" % (args.m, args.n))
        if args.m + args.c > args.n:
            raise ParameterError("need 2 <= q <= 2^n")
        cert = comb.min_density_fstar(args.n, args.m, 1 << (args.m + args.c),
                                      args.delta)
    print("f* = %.5f  (bracket [%.5f, %.5f], tolerance %g)"
          % (cert.f_star, cert.bracket_lo, cert.bracket_hi, cert.tolerance))
    print("n=%d m=%d c=%g delta=%r q=2^%d" % (cert.n, cert.m, cert.c,
                                              cert.delta, args.m + args.c))
    _print_scales("epsilon at f*", cert.condition_value / LN2)
    if cert.threshold_log == -math.inf:  # no epsilon meets it
        mu = 2.0 ** args.c
        print("threshold: not positive, linear = %.6g"
              % ((mu / (cert.delta - 1.0) + mu - 1.0) / (cert.q - 1)))
    else:
        _print_scales("threshold", cert.threshold_log / LN2)
    if not cert.met_at_half:
        print("warning: condition unmet even at f = 1/2", file=sys.stderr)
        return 1
    return 0


# bound's flags that some run never reads, with their defaults, and the
# ones each mode never reads; the solver settings are read only with a
# solver, and an explicit set reads neither them nor --solver
_DEFAULTS = {"m": None, "delta": 0.05, "kappa": 1.0, "c_threshold": None,
             "solver": None, "budget_s": None, "native_xor": False, "chunk": 6,
             "bonferroni": False, "jobs": None, "alpha": 0.04, "no_ln_n": False}
_UNREAD = {"count": {"m", "kappa", "c_threshold", "bonferroni"},
           "lb": {"delta", "alpha", "no_ln_n"},
           "ub": {"kappa", "c_threshold", "bonferroni", "alpha", "no_ln_n"}}
_SOLVER_ONLY = {"budget_s", "native_xor", "chunk", "jobs"}


def _warn_unread(args, problem, solver, modes):
    """One stderr line naming each flag set away from its default that a
    run of `modes` on `problem` never reads; the run goes on as if it were
    unset."""
    def named(dests):
        return ", ".join("--" + dest.replace("_", "-")
                         for dest, default in _DEFAULTS.items()
                         if dest in dests and getattr(args, dest, default) != default)
    parts = [(named(set.intersection(*(_UNREAD[mode] for mode in modes))),
              "not read by %s" % "/".join(modes))]
    if problem.kind == "explicit":
        parts.append((named(_SOLVER_ONLY | {"solver"}),
                      "explicit sets are answered in process"))
    elif solver is None:
        parts.append((named(_SOLVER_ONLY), "no solver is set"))
    text = "; ".join("%s (%s)" % pair for pair in parts if pair[0])
    if text:
        print("warning: ignoring " + text, file=sys.stderr)


def _certify(problem, args, solver, f: float, modes) -> list:
    """The certificates `modes` asks for at density f, in that order.

    A problem of width n = 0 is refused first, in every mode.  ["count"]
    runs SPARSE-COUNT.  "lb" and "ub" check their flags, then share one
    start level m0: --m, else one pre-scan.  lb takes the best of the
    window m0 +- 2, ub walks up from m0 through at most m0 + 8 (up to 9
    estimates) until its event fires; with --m both ask at m0 alone.  A
    solver model that fails the in-process recheck ends the run with one
    line, like a bad parameter."""
    from . import bounds as bd
    with (_refusing("bad bound parameters: ", ParameterError),
          _refusing("", IntegrityError)):
        if problem.n == 0:
            raise ParameterError("the problem has width n = 0; bounds need n >= 1")
        if modes == ["count"]:
            cfg = bd.SparseCountConfig(delta=args.delta, alpha=args.alpha,
                                       density_schedule=f, T=args.T,
                                       use_ln_n=not args.no_ln_n)
            return [bd.sparse_count(problem, cfg, seed=args.seed, solver=solver)]
        if "lb" in modes:
            bd.check_parameters(T=args.T, kappa=args.kappa, c=args.c_threshold)
        if "ub" in modes:
            bd.check_parameters(T=args.T, delta=args.delta)
        T = 24 if args.T is None else args.T  # lb's trials; ub sets its own
        m0 = args.m if args.m is not None else bd.pick_promising_m(
            problem, f, coarse_T=max(3, T // 4), seed=args.seed, solver=solver)
        certs = []
        if "lb" in modes:
            window = ([m0] if args.m is not None
                      else range(max(1, m0 - 2), min(problem.n, m0 + 2) + 1))
            certs.append(bd.best_lower_bound(
                problem, f, window, T=T, kappa=args.kappa, c=args.c_threshold,
                seed=args.seed, bonferroni=args.bonferroni, solver=solver))
        if "ub" in modes:
            top = m0 if args.m is not None else min(problem.n, m0 + 8)
            for m in range(m0, top + 1):
                cert = bd.upper_bound(problem, m, f, args.delta, seed=args.seed,
                                      T=args.T, solver=solver)
                if cert.event_fired:
                    break
            certs.append(cert)
        return certs


def _print_summary(mode: str, cert):
    if mode == "count":
        if cert.log2_estimate is None:
            print("fewer than one solution witnessed (broke at i=0)")
        else:
            _print_scales("sparse-count estimate", cert.log2_estimate)
        if cert.exhausted:
            print("warning: level loop exhausted at i=%d" % cert.break_i,
                  file=sys.stderr)
    elif mode == "lb":
        _print_scales("lower bound", cert.bound_log2)
        print("confidence %.4f (m=%d, c=%g, kappa=%g, T=%d, p_est=%.4f)"
              % (cert.confidence, cert.m, cert.c, cert.kappa, cert.T, cert.p_est))
    else:
        _print_scales("upper bound", cert.verdict_log2)
        print("event %s (m=%d, T=%d, empty %d/%d, Delta=%g)"
              % ("fired" if cert.event_fired else "did not fire; sentinel",
                 cert.m, cert.T, cert.empty_count, cert.T, cert.delta))


def cmd_bound(args) -> int:
    import json
    problem = _load_problem(args.input)
    solver = _solver_profile(args)
    _warn_unread(args, problem, solver, [args.mode])
    if args.json:
        _check_writable(args.json)
    t0 = time.monotonic()
    report = {
        "command": "bound", "input": args.input, "mode": args.mode,
        "seed": args.seed,
        "config": {"f": args.f, "m": args.m, "T": args.T, "delta": args.delta,
                   "kappa": args.kappa, "c": args.c_threshold,
                   "alpha": args.alpha, "bonferroni": args.bonferroni},
    }
    try:
        [cert] = _certify(problem, args, solver, args.f, [args.mode])
    except OracleUnknownError as exc:
        report.update(certificates=[], inconclusive=str(exc))
        print("inconclusive: %s" % exc, file=sys.stderr)
    else:
        _print_summary(args.mode, cert)
        report["certificates"] = [cert.to_json()]
    report["wall_time_s"] = time.monotonic() - t0
    if args.json:
        with _refusing("cannot write %s: " % args.json, OSError):
            Path(args.json).write_text(json.dumps(report, indent=2) + "\n")
    return 2 if "inconclusive" in report else 0


def cmd_sweep(args) -> int:
    import csv
    import json
    from .gf2hash import _check_density
    with _refusing("bad bound parameters: ", ValueError, suffix=" in %r" % args.f_list):
        f_list = [float(t) for t in args.f_list.split(",")]  # not a number
        for f in f_list:  # out of [0, 1/2]: every density, before any oracle call
            _check_density(f)
    problem = _load_problem(args.input)
    solver = _solver_profile(args)
    _warn_unread(args, problem, solver, ["lb", "ub"])
    if args.csv:
        _check_writable(args.csv)
    out_dir = Path(args.certs_dir) if args.certs_dir else None
    if out_dir:
        with _refusing("cannot write %s: " % out_dir, OSError):
            out_dir.mkdir(parents=True, exist_ok=True)
        _check_writable(out_dir, directory=True)
    rows, inconclusive = [], False
    for f in f_list:
        t0 = time.monotonic()
        row = {"f": f, "lb_log2": "", "ub_log2": "", "wall_time_s": "",
               "certificates_path": ""}
        try:
            lb, ub = _certify(problem, args, solver, f, ["lb", "ub"])
        except OracleUnknownError as exc:
            print("f=%r inconclusive: %s" % (f, exc), file=sys.stderr)
            inconclusive = True
        else:
            row["lb_log2"] = "" if lb.bound_log2 is None else "%.6g" % lb.bound_log2
            row["ub_log2"] = "%.6g" % ub.verdict_log2
            if out_dir:
                p = out_dir / ("certs_f%s.json" % repr(f).replace(".", "p"))
                with _refusing("cannot write %s: " % p, OSError):
                    p.write_text(json.dumps([lb.to_json(), ub.to_json()],
                                            indent=2) + "\n")
                row["certificates_path"] = str(p)
        row["wall_time_s"] = "%.4f" % (time.monotonic() - t0)
        rows.append(row)
        print("f=%r  lb_log2=%s  ub_log2=%s  (%ss)"
              % (f, row["lb_log2"] or "-", row["ub_log2"] or "-",
                 row["wall_time_s"]))
    fieldnames = ["f", "lb_log2", "ub_log2", "wall_time_s", "certificates_path"]
    with _refusing("cannot write %s: " % (args.csv or "stdout"), OSError), (
            open(args.csv, "w", newline="") if args.csv
            else nullcontext(sys.stdout)) as out:
        writer = csv.DictWriter(out, fieldnames=fieldnames)
        writer.writeheader()
        writer.writerows(rows)
    return 2 if inconclusive else 0


def cmd_table(args) -> int:
    from . import tables
    spec = _load_table_spec(args.input, _read_input(args.input))
    try:
        count = tables.brute_force_count(spec, force=args.force)
    except CapacityError as exc:
        raise SystemExit("table spec %s: %s" % (
            args.input, str(exc).replace("force=True", "--force"))) from None
    print("exact count: %d" % count)
    if count:
        _print_scales("log2 count", math.log2(count))
    return 0


def cmd_solve(args) -> int:
    """Exhaustive DIMACS solver speaking the standard s/v protocol: the
    lowest model, from the first sub-block that has one."""
    formula = _load_dimacs(args.input, _read_input(args.input))
    with _refusing("formula %s: " % args.input, ParameterError):  # past the cap
        masks = dimacs._model_masks(formula)
    start, mask = next(((s, mask) for s, mask in masks if mask), (0, 0))
    if not mask:
        print("s UNSATISFIABLE")
        return 20
    bits = start + (mask & -mask).bit_length() - 1
    lits = [(v if (bits >> (v - 1)) & 1 else -v) for v in range(1, formula.num_vars + 1)]
    print("s SATISFIABLE")
    print("v " + " ".join(str(l) for l in lits) + " 0")
    return 10


def cmd_count_models(args) -> int:
    formula = _load_dimacs(args.input, _read_input(args.input))
    with _refusing("formula %s: " % args.input, ParameterError):  # past the cap
        n = dimacs.count_models(formula)
    print("models: %d" % n)
    if n:
        _print_scales("log2 models", math.log2(n))
    return 0


def _add_common_bound_flags(p):
    d = _DEFAULTS
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--m", type=int, default=d["m"], help="constraint count")
    p.add_argument("--T", type=int, default=None, help="trials per estimate")
    p.add_argument("--delta", type=float, default=d["delta"])
    p.add_argument("--kappa", type=float, default=d["kappa"])
    p.add_argument("--c-threshold", dest="c_threshold", type=float,
                   default=d["c_threshold"])
    p.add_argument("--solver", default=d["solver"],
                   help='external solver command, e.g. "cryptominisat {in}"')
    p.add_argument("--budget-s", dest="budget_s", type=float, default=d["budget_s"],
                   help="wall-clock limit of each solver call, in seconds")
    p.add_argument("--native-xor", dest="native_xor", action="store_true")
    p.add_argument("--chunk", type=int, default=d["chunk"])
    p.add_argument("--bonferroni", action="store_true")
    p.add_argument("--jobs", type=int, default=d["jobs"],
                   help="solver calls run at once within an estimate "
                        "(default: the CPUs this process may run on)")


def _epsilon_arguments(p):
    p.add_argument("n", type=int)
    p.add_argument("m", type=int)
    p.add_argument("q", type=int)
    p.add_argument("f", type=float)


def _fstar_arguments(p):
    p.add_argument("n", type=int)
    p.add_argument("m", type=int)
    p.add_argument("--c", type=int, default=2, help="slack exponent, q = 2^(m+c)")
    p.add_argument("--delta", type=float, default=2.25)


def _bound_arguments(p):
    p.add_argument("input")
    p.add_argument("mode", choices=["lb", "ub", "count"])
    p.add_argument("--f", type=float, default=0.5, help="constraint density")
    _add_common_bound_flags(p)
    p.add_argument("--alpha", type=float, default=_DEFAULTS["alpha"])
    p.add_argument("--no-ln-n", dest="no_ln_n", action="store_true",
                   help="drop the ln(n) factor from the trial-count formula")
    p.add_argument("--json", default=None, help="write the run report here")


def _sweep_arguments(p):
    p.add_argument("input")
    p.add_argument("f_list", help="comma-separated densities, e.g. 0.05,0.1,0.5")
    _add_common_bound_flags(p)
    p.add_argument("--csv", default=None)
    p.add_argument("--certs-dir", dest="certs_dir", default=None)


def _table_arguments(p):
    p.add_argument("input")
    p.add_argument("--force", action="store_true",
                   help="count without the cap on rows the search builds")


def _input_argument(p):
    p.add_argument("input")


# each command: its help line, the function adding its arguments, and what
# it runs; in this order in `xorcount -h`
_COMMANDS = {
    "epsilon": ("evaluate the collision/variance bounds", _epsilon_arguments,
                cmd_epsilon),
    "fstar": ("minimum sufficient density certificate", _fstar_arguments,
              cmd_fstar),
    "bound": ("run a bound pipeline on an instance", _bound_arguments, cmd_bound),
    "sweep": ("bound-vs-density CSV over several f", _sweep_arguments, cmd_sweep),
    "table": ("exact contingency-table count", _table_arguments, cmd_table),
    "solve": ("exhaustive DIMACS solver (debug oracle)", _input_argument,
              cmd_solve),
    "count-models": ("exact model count (exhaustive)", _input_argument,
                     cmd_count_models),
}


def build_parser() -> argparse.ArgumentParser:
    """The whole tree: `xorcount` with every command's parser under it."""
    ap = argparse.ArgumentParser(prog="xorcount")
    sub = ap.add_subparsers(dest="cmd", required=True)
    for name, (help_line, add_arguments, func) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_line)
        add_arguments(p)
        p.set_defaults(func=func)
    return ap


def _parse(argv: list) -> argparse.Namespace:
    """The Namespace `build_parser().parse_args(argv)` returns, from the
    parser of argv[0]'s command alone where that parser takes all of argv:
    it is one of the tree's eight parsers, and building the tree took
    about half of an in-process `bound` on a 20-variable CNF.  Any other
    argv (no command, `-h`, an unknown command, arguments the command does
    not take) goes to the tree, which prints its own usage, error line and
    exit code for it."""
    if argv and argv[0] in _COMMANDS:
        _, add_arguments, func = _COMMANDS[argv[0]]
        p = argparse.ArgumentParser(prog="xorcount " + argv[0])
        add_arguments(p)
        p.set_defaults(cmd=argv[0], func=func)
        args, extra = p.parse_known_args(argv[1:])
        if not extra:
            return args
    return build_parser().parse_args(argv)


def _show_warning(message, category, filename, lineno, file=None, line=None):
    print("warning: %s" % message, file=sys.stderr)


def main(argv=None) -> int:
    args = _parse(sys.argv[1:] if argv is None else list(argv))
    # a library warning is one `warning: MESSAGE` line, like every other
    # diagnostic; the filters stay as they are, so `-W error` still raises
    with warnings.catch_warnings():
        warnings.showwarning = _show_warning
        return args.func(args)


def run(argv=None) -> int:
    """The program entry: `main` with OPENBLAS_NUM_THREADS defaulting to 1,
    and a Ctrl-C ending the program as one `interrupted` line on stderr and
    exit 130 (128 + SIGINT), like every other ending, not a traceback.

    Both are here, not in `main`, so that an in-process caller's environment
    is left alone and it still gets the KeyboardInterrupt; a solver child
    started by this process inherits the environment."""
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    try:
        return main(argv)
    except KeyboardInterrupt:
        print("interrupted", file=sys.stderr)
        return 130


if __name__ == "__main__":
    sys.exit(run())
