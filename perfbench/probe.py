"""Instrumentation wrapped around xorcount's public functions, from outside.

Two modes:

* ``count`` (the end-to-end run): only hardware-independent counters, no
  clocks.  It records how many survival trials a request ran and captures
  every hash `bounds` samples, so the encoded size of each question can be
  worked out after the request, outside its timed region.
* ``trace`` (the per-layer run): the same counters plus one span per call
  into a layer (name, start, end, parent span, request id), kept in memory
  and summarised or written out at the end.

A wrapper only sees the calls made through the name it replaced, so each
function is replaced in every xorcount module namespace that binds it:
`bounds` binds `sample_hash`, `has_survivor`, `upper_bound_threshold` and
`estimate_survival` as its own globals, and `dimacs.emit` imports
`oracle.expand_xors` at call time, which the replaced `oracle` attribute
covers.
"""

from __future__ import annotations

import json
import sys
import time
from collections import Counter, defaultdict

from xorcount import bounds, cli, comb, dimacs, gf2hash, oracle, tables

perf_counter = time.perf_counter


def _has_survivor_label(args, kwargs):
    """Span name of a has_survivor call, by the backend its arguments pick."""
    problem = args[0]
    if problem.kind == "explicit":
        return "oracle.explicit"
    solver = args[3] if len(args) > 3 else kwargs.get("solver")
    return "oracle.exhaustive" if solver is None else "oracle.external"


# (module, function, span name or labeller); every bounds function shares
# the span name "bounds", so its self time is the layer's own Python work.
TRACED = [
    (gf2hash, "sample_hash", "gf2hash.sample_hash"),
    (oracle, "has_survivor", _has_survivor_label),
    (oracle, "conjoin", "oracle.conjoin"),
    (oracle, "expand_xors", "oracle.expand_xors"),
    (oracle, "run_external", "oracle.run_external"),
    (dimacs, "emit", "dimacs.emit"),
    (dimacs, "parse", "dimacs.parse"),
    (tables, "encode_to_cnf", "tables.encode_to_cnf"),
    (tables, "explicit_problem", "tables.explicit_problem"),
    (comb, "upper_bound_threshold", "comb.upper_bound_threshold"),
    (comb, "min_density_fstar", "comb.min_density_fstar"),
    (bounds, "estimate_survival", "bounds"),
    (bounds, "lower_bound", "bounds"),
    (bounds, "best_lower_bound", "bounds"),
    (bounds, "upper_bound", "bounds"),
    (bounds, "sparse_count", "bounds"),
    (bounds, "pick_promising_m", "bounds"),
    (cli, "main", "cli"),
]

BACKENDS = ("oracle.explicit", "oracle.exhaustive", "oracle.external")

# functions whose results feed the counters in both modes
COUNTED = {"sample_hash", "estimate_survival", "sparse_count"}


def _bindings(func):
    """Every (module, attribute) of the loaded xorcount package bound to func."""
    out = []
    for name, mod in list(sys.modules.items()):
        if name == "xorcount" or name.startswith("xorcount."):
            out.extend((mod, attr) for attr, val in list(vars(mod).items())
                       if val is func)
    return out


class Probe:
    """Counters for the current request and, in trace mode, all spans."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index, unit id]
        self.units = {}  # unit id -> "setup" | "request"
        self.stack = []
        self.unit = None
        self.trials = 0
        self.hashes = []  # hashes sampled by bounds for the current unit
        self.counts = Counter()  # trace-mode counters, summed over units
        self._patched = []

    # -- installing --------------------------------------------------------

    def install(self, mode: str):
        """Replace the instrumented functions; mode is "count" or "trace"."""
        if self._patched:
            raise RuntimeError("probe already installed")
        for mod, attr, label in TRACED:
            if mode == "count" and attr not in COUNTED:
                continue
            func = getattr(mod, attr)
            for owner, name in _bindings(func):
                wrapper = self._wrap(func, attr, owner,
                                     label if mode == "trace" else None)
                if wrapper is not None:
                    self._patched.append((owner, name, func))
                    setattr(owner, name, wrapper)

    def uninstall(self):
        for owner, name, func in reversed(self._patched):
            setattr(owner, name, func)
        self._patched = []

    def _wrap(self, func, attr, owner, label):
        after = self._after(attr, owner)
        if label is None:
            if after is _noop:
                return None

            def counted(*args, **kwargs):
                mark = self.trials
                result = func(*args, **kwargs)
                after(args, kwargs, result, mark)
                return result
            return counted

        spans, stack = self.spans, self.stack

        def traced(*args, **kwargs):
            name = label(args, kwargs) if callable(label) else label
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self.unit]
            stack.append(len(spans))
            spans.append(rec)
            mark = self.trials
            t0 = perf_counter()
            try:
                result = func(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                rec[1] = t0
                stack.pop()
            after(args, kwargs, result, mark)
            self._observe(name, args, kwargs, result)
            return result

        return traced

    def _after(self, attr, owner):
        """Counter update run after a successful call."""
        if attr == "sample_hash":
            if owner is not bounds:
                return _noop  # tables.hash_over_cells: not an oracle question
            return lambda a, k, h, mark: self.hashes.append(h)
        if attr == "estimate_survival":
            def count_estimate(a, k, est, mark):
                self.trials += est.trials_T
            return count_estimate
        if attr == "pick_promising_m":
            def count_call(a, k, m, mark):
                self.counts["bounds.pick_promising_m.calls"] += 1
            return count_call
        if attr == "sparse_count":
            def count_levels(a, k, res, mark):
                # levels 0..break_i each ran T trials; replaces whatever
                # estimate_survival calls inside it counted, if any
                self.trials = mark + res.T * (res.break_i + 1)
            return count_levels
        return _noop

    def _observe(self, name, args, kwargs, result):
        c = self.counts
        if name in BACKENDS:
            c["has_survivor.calls"] += 1
            c["has_survivor.sat"] += result.answer == "sat"
            if name == "oracle.explicit" and args[0].n > 64:
                c["oracle.explicit.wide_calls"] += 1
        elif name == "oracle.conjoin":
            formula = args[0]
            c["oracle.enc.clauses"] += len(result.clauses) - len(formula.clauses)
            c["oracle.enc.aux_vars"] += result.num_vars - formula.num_vars
        elif name == "dimacs.emit":
            c["dimacs.emit.bytes"] += len(result)
        elif name == "oracle.run_external":
            c["oracle.run_external.unknown"] += result.answer == "unknown"

    # -- units of work -----------------------------------------------------

    def begin(self, unit_id, phase: str, span: bool):
        """Start a setup or a request; resets the per-unit counters.  With
        span=True the unit gets a root span, "bench.<phase>"."""
        self.unit = unit_id
        self.units[unit_id] = phase
        self.trials = 0
        self.hashes = []
        if span:
            self.stack.append(len(self.spans))
            self.spans.append(["bench." + phase, perf_counter(), 0.0, -1, unit_id])

    def end(self):
        if self.stack:
            self.spans[self.stack.pop()][2] = perf_counter()
        self.unit = None

    # -- summaries ---------------------------------------------------------

    def self_times(self):
        """{(phase, span name): [total self seconds, calls]} over all units."""
        child = [0.0] * len(self.spans)
        for name, t0, t1, parent, unit in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        out = defaultdict(lambda: [0.0, 0])
        for i, (name, t0, t1, parent, unit) in enumerate(self.spans):
            acc = out[(self.units.get(unit, "other"), name)]
            acc[0] += t1 - t0 - child[i]
            acc[1] += 1
        return out

    def wall(self, phase: str) -> float:
        return sum(t1 - t0 for name, t0, t1, parent, unit in self.spans
                   if parent < 0 and self.units.get(unit) == phase)

    def dump(self, path):
        """Write every span as one JSON array per line."""
        with open(path, "w") as fh:
            fh.write(json.dumps({"units": {str(k): v for k, v in self.units.items()},
                                 "fields": ["name", "start", "end", "parent", "unit"]})
                     + "\n")
            for rec in self.spans:
                fh.write(json.dumps(rec) + "\n")


def _noop(*_):
    return None
