"""DIMACS CNF parsing and emission, with extended parity ("x") lines.
Text only: `oracle.expand_xors` lowers parity rows to plain clauses.

x-line convention (dialects disagree, so pinned here and in golden tests):
"x1 2 0" asserts x1 XOR x2 = 1; a leading minus on the FIRST literal flips
the right-hand side to 0, i.e. "x-1 2 0" asserts x1 XOR x2 = 0.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

from .errors import ParseError

__all__ = ["CnfFormula", "ParseError", "parse", "emit"]


@dataclass
class CnfFormula:
    """A CNF over variables 1..num_vars plus native parity rows.

    `oracle.conjoin` and `oracle.expand_xors` build new formulas that share
    this one's clause lists (only the outer list is new), so a clause list
    must not be mutated once its formula is constructed.
    """

    num_vars: int
    clauses: list  # list[list[int]], nonempty, no literal 0
    xors: list = field(default_factory=list)  # list[(list[int] of vars, rhs 0/1)]

    def validate(self):
        for cl in self.clauses:
            if not cl:
                raise ParseError("zero-width clause")
            for lit in cl:
                if lit == 0 or abs(lit) > self.num_vars:
                    raise ParseError("literal %d out of range" % lit)
        for sup, rhs in self.xors:
            if rhs not in (0, 1):
                raise ParseError("xor rhs must be 0 or 1")
            for v in sup:
                if not 1 <= v <= self.num_vars:
                    raise ParseError("xor variable %d out of range" % v)
        return self


def parse(text: str) -> CnfFormula:
    """Parse DIMACS CNF text; clause-count mismatch warns, bad literals raise."""
    num_vars = None
    declared_clauses = None
    clauses = []
    xors = []
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        if line.startswith("p"):
            parts = line.split()
            if len(parts) != 4 or parts[1] != "cnf":
                raise ParseError("malformed header: %r" % line)
            try:
                num_vars, declared_clauses = int(parts[2]), int(parts[3])
            except ValueError:
                raise ParseError("malformed header: %r" % line) from None
            continue
        if num_vars is None:
            raise ParseError("clause before header")
        if line.startswith("x"):
            lits = [int(t) for t in line[1:].split()]
            if not lits or lits[-1] != 0:
                raise ParseError("x-line not 0-terminated: %r" % line)
            lits = lits[:-1]
            if not lits:
                raise ParseError("empty x-line")
            rhs = 1
            if lits[0] < 0:
                rhs = 0
                lits[0] = -lits[0]
            if any(l <= 0 for l in lits):
                raise ParseError("only the first x-line literal may be negated")
            xors.append((lits, rhs))
            continue
        lits = [int(t) for t in line.split()]
        if not lits or lits[-1] != 0:
            raise ParseError("clause not 0-terminated: %r" % line)
        lits = lits[:-1]
        if not lits:
            raise ParseError("zero-width clause")
        clauses.append(lits)
    if num_vars is None:
        raise ParseError("missing header")
    if declared_clauses != len(clauses):
        warnings.warn(
            "header declares %d clauses, found %d" % (declared_clauses, len(clauses))
        )
    return CnfFormula(num_vars, clauses, xors).validate()


def emit(formula: CnfFormula) -> str:
    """Serialize deterministically: clauses in order, x-lines last.

    Parity rows go out as they are, as x-lines; a solver without x-line
    support is sent `oracle.expand_xors(formula)` instead.  Clauses are
    checked while they are written: each literal is looked up in a table
    of the legal ones, ±1..±num_vars.  Any fault, in a clause or in a
    parity row, raises the ParseError `CnfFormula.validate` raises for it.
    """
    num_vars, clauses, xors = formula.num_vars, formula.clauses, formula.xors
    for sup, rhs in xors:
        if rhs not in (0, 1) or (sup and not 1 <= min(sup) <= max(sup) <= num_vars):
            formula.validate()
    if not all(clauses):
        formula.validate()
    digits = list(map(str, range(1, num_vars + 1)))
    names = dict(zip(range(1, num_vars + 1), digits))
    names.update(zip(range(-1, -num_vars - 1, -1), map("-".__add__, digits)))
    name = names.__getitem__
    # an empty parity row is 0 = rhs: nothing to say when rhs is 0, and a
    # contradiction on a fresh variable when it is 1 (x-lines cannot be empty)
    extra = []
    if any(rhs for sup, rhs in xors if not sup):
        num_vars += 1
        extra = ["%d 0" % num_vars, "-%d 0" % num_vars]
    lines = ["p cnf %d %d" % (num_vars, len(clauses) + len(extra))]
    try:
        lines += [" ".join(map(name, cl)) + " 0" for cl in clauses]
        lines += extra
        for sup, rhs in xors:
            if sup:
                lits = [sup[0] if rhs else -sup[0], *sup[1:]]
                lines.append("x" + " ".join(map(name, lits)) + " 0")
    except KeyError as exc:
        formula.validate()  # raises for the first bad literal
        raise ParseError("literal %r is not an integer" % (exc.args[0],)) from None
    return "\n".join(lines) + "\n"
