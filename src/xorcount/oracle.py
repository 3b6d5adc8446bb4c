"""Membership oracles: does S have an element in the cell h^-1(0)?

Three interchangeable backends answer the same question:
  * explicit  — S is given outright; vectorized parity scan over its
    members, packed one uint64 per member.
  * exhaustive — S is the model set of a CNF of at most 26 variables.  On
    the problem's first question the formula's models are enumerated once
    (clauses and native XORs, 2^16 assignments per numpy block), projected
    onto the first n variables and kept packed at 8 bytes per model, at
    most 512 MB at the cap; every question is then the explicit scan.
  * external  — serialize the conjoined instance to DIMACS and invoke a
    solver subprocess; witnesses are always re-checked in process, and a
    SAT answer without a full model is `unknown`.

A hash of None asks m = 0, "is S non-empty?", on every backend.
"""

from __future__ import annotations

import math
import shlex
import subprocess
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .dimacs import CnfFormula, emit
from .gf2hash import Assignment, DimensionError, ParityHash

__all__ = [
    "CountingProblem",
    "OracleVerdict",
    "SolverProfile",
    "has_survivor",
    "xor_to_cnf",
    "expand_xors",
    "conjoin",
    "run_external",
    "count_models",
]

EXHAUSTIVE_CAP_VARS = 26
_BLOCK = 1 << 16  # assignments per numpy block while enumerating models


class IntegrityError(RuntimeError):
    """A solver returned a witness that fails the in-process recheck."""


class ParameterError(ValueError):
    pass


@dataclass(frozen=True)
class OracleVerdict:
    answer: str  # "sat" | "unsat" | "unknown"
    witness: Assignment | None = None
    stats: dict = field(default_factory=dict)

    @property
    def is_sat(self) -> bool:
        return self.answer == "sat"


@dataclass(frozen=True)
class SolverProfile:
    """External solver adapter: a command template with an {in} placeholder."""

    template: str
    budget_s: float | None = None
    native_xor: bool = False
    chunk: int = 6


class CountingProblem:
    """The set S whose size is being bounded.

    kind == "explicit": S is a deduplicated list of assignments over n bits.
    kind == "cnf":      S is the model set of `formula`, projected onto the
                        first n variables (n == num_vars unless the formula
                        carries auxiliary variables, as table encodings do).

    `_packed` holds S one uint64 per member: built here for explicit sets of
    at most 64 bits, and on the first exhaustive question for CNF problems.
    """

    def __init__(self, n: int, kind: str, members=None, formula: CnfFormula = None):
        self.n = n
        self.kind = kind
        self.formula = formula
        if kind == "explicit":
            seen = sorted({x.bits for x in members})
            self.members = tuple(Assignment(b, n) for b in seen)
            self._packed = np.array(seen, dtype=np.uint64) if n <= 64 else None
        elif kind == "cnf":
            if formula is None:
                raise ParameterError("cnf problem needs a formula")
            self.members = None
            self._packed = None
        else:
            raise ParameterError("unknown problem kind %r" % kind)

    @classmethod
    def from_explicit(cls, members, n: int) -> "CountingProblem":
        return cls(n, "explicit", members=members)

    @classmethod
    def from_cnf(cls, formula: CnfFormula, n: int = None) -> "CountingProblem":
        return cls(n if n is not None else formula.num_vars, "cnf", formula=formula)

    def __len__(self):
        if self.kind != "explicit":
            raise TypeError("only explicit problems have a known size")
        return len(self.members)


def xor_to_cnf(support, rhs: int, chunk: int = 6, fresh=None):
    """CNF clauses equivalent to XOR(support variables) = rhs.

    Long constraints are chained into ceil((t-1)/(chunk-1)) sub-XORs of
    arity <= chunk through fresh auxiliary variables; a sub-XOR of arity s
    expands to 2^(s-1) clauses.  Empty support: rhs 1 gives the empty
    clause (contradiction), rhs 0 gives no clauses.

    The default allocator numbers auxiliaries from max(support)+1; pass a
    `fresh` callable whenever the enclosing formula has variables outside
    the support, or the auxiliaries will shadow them.
    """
    if chunk < 2:
        raise ParameterError("chunk must be at least 2")
    support = list(support)
    if not support:
        return [[]] if rhs else []
    if fresh is None:
        counter = [max(support)]

        def fresh():
            counter[0] += 1
            return counter[0]

    clauses = []
    pending = support
    # chaining needs arity-3 sub-XORs at minimum (two inputs + the link
    # variable); chunk=2 still works for short constraints but long ones
    # are chained at arity 3
    link = max(chunk, 3)
    while len(pending) > chunk:
        group = pending[: link - 1]
        aux = fresh()
        # aux is defined as the XOR of the group: XOR(group + [aux]) = 0
        clauses.extend(_direct_xor(group + [aux], 0))
        pending = [aux] + pending[link - 1 :]
    clauses.extend(_direct_xor(pending, rhs))
    return clauses


def _direct_xor(vars_, rhs: int):
    """All 2^(s-1) clauses ruling out wrong-parity assignments."""
    s = len(vars_)
    out = []
    for pattern in range(1 << s):
        if pattern.bit_count() & 1 != rhs:
            # forbid the assignment where var i takes bit i of pattern
            out.append(
                [v if not (pattern >> i) & 1 else -v for i, v in enumerate(vars_)]
            )
    return out


def expand_xors(formula: CnfFormula, chunk: int = 6) -> CnfFormula:
    """Replace native XOR rows with plain clauses over fresh auxiliaries."""
    counter = [formula.num_vars]

    def fresh():
        counter[0] += 1
        return counter[0]

    clauses = [list(cl) for cl in formula.clauses]
    for sup, rhs in formula.xors:
        for cl in xor_to_cnf(sup, rhs, chunk=chunk, fresh=fresh):
            if not cl:
                # contradiction: encode on a fresh variable to stay DIMACS-legal
                v = fresh()
                clauses.append([v])
                clauses.append([-v])
            else:
                clauses.append(cl)
    return CnfFormula(counter[0], clauses, [])


def conjoin(formula: CnfFormula, h: ParityHash, native_xor: bool = True,
            chunk: int = 6) -> CnfFormula:
    """Append the hash rows of h to the formula as parity constraints.

    Hash columns address variables 1..h.n, which must be a prefix of the
    formula's variables.  Original clauses and numbering are untouched.
    """
    if h.n > formula.num_vars:
        raise DimensionError(
            "hash width %d exceeds formula variables %d" % (h.n, formula.num_vars)
        )
    xors = list(formula.xors)
    for i, row in enumerate(h.rows):
        sup = [j + 1 for j in range(h.n) if (row >> j) & 1]
        rhs = (h.b_bits >> i) & 1
        xors.append((sup, rhs))
    out = CnfFormula(formula.num_vars, [list(cl) for cl in formula.clauses], xors)
    return out if native_xor else expand_xors(out, chunk=chunk)


# ---------------------------------------------------------------------------
# backends

def _hash_masks(h: ParityHash):
    rows = np.array(h.rows, dtype=np.uint64)
    b = np.array([(h.b_bits >> i) & 1 for i in range(h.m)], dtype=np.uint64)
    return rows, b


def _packed_survivor(packed, n: int, h: ParityHash = None) -> OracleVerdict:
    """Scan a packed set for a member in h^-1(0); h=None asks for any member."""
    mask = np.ones(len(packed), dtype=bool)
    if h is not None:
        one = np.uint64(1)
        for row, bi in zip(*_hash_masks(h)):
            mask &= (np.bitwise_count(packed & row) & one) == bi
            if not mask.any():
                break
    hits = np.flatnonzero(mask)
    if not len(hits):
        return OracleVerdict("unsat")
    return OracleVerdict("sat", witness=Assignment(int(packed[hits[0]]), n))


def _wide_survivor(problem: CountingProblem, h: ParityHash = None) -> OracleVerdict:
    """Plain scan for explicit sets wider than 64 bits."""
    from .gf2hash import apply_hash

    for x in problem.members:
        if h is None or apply_hash(h, x) == 0:
            return OracleVerdict("sat", witness=x)
    return OracleVerdict("unsat")


def _formula_masks(formula: CnfFormula):
    """Precompute clause/xor data for vectorized evaluation."""
    clause_data = []
    for cl in formula.clauses:
        pos = np.uint64(sum(1 << (l - 1) for l in cl if l > 0))
        neg = np.uint64(sum(1 << (-l - 1) for l in cl if l < 0))
        clause_data.append((pos, neg))
    xor_data = []
    for sup, rhs in formula.xors:
        xor_data.append((np.uint64(sum(1 << (v - 1) for v in sup)), np.uint64(rhs)))
    return clause_data, xor_data


def _eval_block(arr, clause_data, xor_data):
    mask = np.ones(arr.shape, dtype=bool)
    one = np.uint64(1)
    zero = np.uint64(0)
    for pos, neg in clause_data:
        sat = (arr & pos) != zero if pos else np.zeros(arr.shape, dtype=bool)
        if neg:
            sat |= (arr & neg) != neg
        mask &= sat
        if not mask.any():
            return mask
    for sup, rhs in xor_data:
        mask &= (np.bitwise_count(arr & sup) & one) == rhs
        if not mask.any():
            return mask
    return mask


def _model_blocks(formula: CnfFormula):
    """Yield the formula's models in increasing order, as nonempty uint64
    arrays, one per block of 2^16 assignments (num_vars <= 26)."""
    nv = formula.num_vars
    if nv > EXHAUSTIVE_CAP_VARS:
        raise ParameterError(
            "exhaustive backend capped at %d variables, formula has %d"
            % (EXHAUSTIVE_CAP_VARS, nv)
        )
    clause_data, xor_data = _formula_masks(formula)
    total = 1 << nv
    for start in range(0, total, _BLOCK):
        arr = np.arange(start, min(start + _BLOCK, total), dtype=np.uint64)
        mask = _eval_block(arr, clause_data, xor_data)
        if mask.any():
            yield arr[mask]


def _model_set(problem: CountingProblem):
    """S of a CNF problem, packed; enumerated on first use.  Concurrent first
    calls may each enumerate, and all of them store the same array."""
    if problem._packed is None:
        blocks = list(_model_blocks(problem.formula))
        packed = np.concatenate(blocks) if blocks else np.empty(0, dtype=np.uint64)
        if problem.n < problem.formula.num_vars:
            packed = np.unique(packed & np.uint64((1 << problem.n) - 1))
        problem._packed = packed
    return problem._packed


def count_models(formula: CnfFormula) -> int:
    """Exact model count by exhaustive enumeration (num_vars <= 26)."""
    return sum(len(block) for block in _model_blocks(formula))


def _check_assignment(formula: CnfFormula, bits: int, h: ParityHash = None) -> bool:
    for cl in formula.clauses:
        if not any((bits >> (l - 1)) & 1 if l > 0 else not (bits >> (-l - 1)) & 1
                   for l in cl):
            return False
    xors = list(formula.xors)
    if h is not None:
        for i, row in enumerate(h.rows):
            sup = [j + 1 for j in range(h.n) if (row >> j) & 1]
            xors.append((sup, (h.b_bits >> i) & 1))
    for sup, rhs in xors:
        parity = 0
        for v in sup:
            parity ^= (bits >> (v - 1)) & 1
        if parity != rhs:
            return False
    return True


def run_external(instance_text: str, profile: SolverProfile,
                 budget: float = None) -> OracleVerdict:
    """Write the instance, run the solver command, parse the s/v protocol."""
    if "{in}" not in profile.template:
        raise ParameterError("solver template must contain an {in} placeholder")
    budget = budget if budget is not None else profile.budget_s
    t0 = time.monotonic()
    with tempfile.NamedTemporaryFile(
        "w", suffix=".cnf", prefix="xorcount_", delete=False
    ) as fh:
        fh.write(instance_text)
        path = fh.name
    try:
        cmd = [
            part.replace("{in}", path) for part in shlex.split(profile.template)
        ]
        try:
            proc = subprocess.run(
                cmd, capture_output=True, text=True, timeout=budget
            )
        except subprocess.TimeoutExpired:
            return OracleVerdict(
                "unknown", stats={"solver_time_s": time.monotonic() - t0,
                                  "reason": "timeout"}
            )
        elapsed = time.monotonic() - t0
        answer = None
        model_bits = {}
        for line in proc.stdout.splitlines():
            line = line.strip()
            if line.startswith("s "):
                tag = line[2:].strip()
                if tag == "SATISFIABLE":
                    answer = "sat"
                elif tag == "UNSATISFIABLE":
                    answer = "unsat"
            elif line.startswith("v "):
                for tok in line[2:].split():
                    lit = int(tok)
                    if lit:
                        model_bits[abs(lit)] = 1 if lit > 0 else 0
        stats = {"solver_time_s": elapsed, "exit_code": proc.returncode}
        if answer is None:
            stats["reason"] = "no solution line"
            stats["stderr"] = proc.stderr[-2000:]
            return OracleVerdict("unknown", stats=stats)
        if answer == "sat" and model_bits:
            bits = assigned = 0
            for var, val in model_bits.items():
                assigned |= 1 << (var - 1)
                if val:
                    bits |= 1 << (var - 1)
            stats["model_bits"] = bits
            stats["assigned_bits"] = assigned  # which variables the v lines set
        return OracleVerdict(answer, stats=stats)
    finally:
        Path(path).unlink(missing_ok=True)


def has_survivor(problem: CountingProblem, h: ParityHash = None,
                 budget: float = None, solver: SolverProfile = None) -> OracleVerdict:
    """sat iff some x in S has h(x) = 0; h=None (m = 0) asks whether S is
    non-empty.

    Explicit problems are scanned directly.  CNF problems go to the external
    solver when a profile is given, otherwise to their packed model set.
    External SAT answers must carry a model over every formula variable,
    else the verdict is unknown ("no model"); the model is re-checked in
    process, and a failing recheck is a hard integrity error, never
    silently accepted.
    """
    if h is not None and h.n != problem.n:
        raise DimensionError("hash width %d != problem width %d" % (h.n, problem.n))
    if problem.kind == "explicit":
        if problem._packed is None:
            return _wide_survivor(problem, h)
        return _packed_survivor(problem._packed, problem.n, h)
    if solver is None:
        return _packed_survivor(_model_set(problem), problem.n, h)
    formula = problem.formula
    conj = formula if h is None else conjoin(
        formula, h, native_xor=solver.native_xor, chunk=solver.chunk)
    text = emit(conj, native_xor=solver.native_xor, chunk=solver.chunk)
    verdict = run_external(text, solver, budget=budget)
    if verdict.answer != "sat":
        return verdict
    full = (1 << formula.num_vars) - 1
    if verdict.stats.get("assigned_bits", 0) & full != full:
        return OracleVerdict("unknown", stats=dict(verdict.stats, reason="no model"))
    bits = verdict.stats.get("model_bits", 0)
    if not _check_assignment(formula, bits, h):
        raise IntegrityError("solver witness fails in-process recheck")
    wit = Assignment(bits & ((1 << problem.n) - 1), problem.n)
    return OracleVerdict("sat", witness=wit, stats=verdict.stats)
