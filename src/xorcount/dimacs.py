"""DIMACS CNF parsing and emission, with extended parity ("x") lines.
Text only: `oracle.expand_xors` lowers parity rows to plain clauses.

x-line convention (dialects disagree, so pinned here and in golden tests):
"x1 2 0" asserts x1 XOR x2 = 1; a leading minus on the FIRST literal flips
the right-hand side to 0, i.e. "x-1 2 0" asserts x1 XOR x2 = 0.
"""

from __future__ import annotations

import warnings
from itertools import chain

from .errors import ParseError

__all__ = ["CnfFormula", "ParseError", "parse", "emit"]


class CnfFormula:
    """A CNF over variables 1..num_vars plus native parity rows.

    A formula is not changed once it is constructed, nor are its clause
    lists: `oracle.conjoin` and `oracle.expand_xors` build formulas that
    open with this one's clauses and share its clause lists (only the outer
    list is new, and only built when `clauses` is first read), and `emit`
    keeps the validated text of the clauses on the formula, computed on its
    first call and reused by every formula built from it.  Neither shows in
    `==` or `repr`, which compare and print num_vars, clauses and xors.
    """

    def __init__(self, num_vars: int, clauses: list, xors: list = None):
        self.num_vars = num_vars
        self._clauses = clauses  # list[list[int]], nonempty, no literal 0
        # list[(list[int] of vars, rhs 0/1)]
        self.xors = [] if xors is None else xors
        self._base = None  # the formula whose clauses open this one's
        self._tail = None  # (count, text, build) of the clauses after them
        self._text = None  # (count, text) of every clause line, once written

    def _extend(self, num_vars: int, xors: list, count: int = 0, text: str = "",
                build=list) -> "CnfFormula":
        """A formula over num_vars variables with these parity rows whose
        clauses are this one's, then the `count` clauses written as `text`
        that `build()` returns when the clause lists are read."""
        out = CnfFormula(num_vars, None, xors)
        out._base, out._tail = self, (count, text, build)
        return out

    @property
    def clauses(self) -> list:
        if self._clauses is None:
            self._clauses = self._base.clauses + self._tail[2]()
        return self._clauses

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return ((self.num_vars, self.clauses, self.xors)
                == (other.num_vars, other.clauses, other.xors))

    def __repr__(self):
        return "CnfFormula(num_vars=%r, clauses=%r, xors=%r)" % (
            self.num_vars, self.clauses, self.xors)

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

    def _clause_text(self):
        """(number of clauses, their DIMACS lines), written and checked on
        the first call; a fault raises what `validate` raises for it.
        Concurrent first calls may each write the text, and all of them
        store the same."""
        if self._text is None:
            text = None
            if self._base is not None:
                count, tail, _ = self._tail
                try:
                    base_count, base = self._base._clause_text()
                    text = base_count + count, base + tail
                except ParseError:
                    pass  # the base's fault may be legal over more variables
            if text is None:
                text = len(self.clauses), _write(self, self.clauses)
            self._text = text
        return self._text


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
            if num_vars < 0 or declared_clauses < 0:
                raise ParseError("malformed header: %r" % line)
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
    support is sent `oracle.expand_xors(formula)` instead.  The clause lines
    are written once per formula and kept on it (`CnfFormula`), and a
    formula built by `oracle.conjoin` or `oracle.expand_xors` opens with its
    base formula's kept lines, so only the header, the new clauses and the
    x-lines are written again.  Each literal is checked while its lines are
    first written: only the literals that occur are named, and any fault,
    in a clause or in a parity row, raises the ParseError
    `CnfFormula.validate` raises for it.
    """
    num_vars, xors = formula.num_vars, formula.xors
    for sup, rhs in xors:
        if rhs not in (0, 1) or (sup and not 1 <= min(sup) <= max(sup) <= num_vars):
            formula.validate()
    count, body = formula._clause_text()
    # an empty parity row is 0 = rhs: nothing to say when rhs is 0, and a
    # contradiction on a fresh variable when it is 1 (x-lines cannot be empty)
    extra = ""
    if any(rhs for sup, rhs in xors if not sup):
        num_vars += 1
        count += 2
        extra = "%d 0\n-%d 0\n" % (num_vars, num_vars)
    rows = [[sup[0] if rhs else -sup[0], *sup[1:]] for sup, rhs in xors if sup]
    return "".join(["p cnf %d %d\n" % (num_vars, count), body, extra,
                    _write(formula, rows, "x")])


def _write(formula: CnfFormula, rows, prefix: str = "") -> str:
    """One DIMACS line per row of literals, `prefix` first and " 0" last.
    A literal that is not one of ±1..±num_vars, or an empty row, raises the
    ParseError `formula.validate()` raises first, else names the literal."""
    if not all(rows):
        formula.validate()
    num_vars = formula.num_vars
    lits = set(chain.from_iterable(rows))
    if set(map(type, lits)) <= {int} and 0 not in lits and (
            not lits or -num_vars <= min(lits) and max(lits) <= num_vars):
        names = dict(zip(lits, map(str, lits)))
    else:
        formula.validate()
        names = {lit: _name(lit, num_vars) for lit in lits}
        for lit in chain.from_iterable(rows):
            if names[lit] is None:
                raise ParseError("literal %r is not an integer" % (lit,))
    if not rows:
        return ""
    name = names.__getitem__
    lines = [" ".join(map(name, row)) for row in rows]
    return prefix + (" 0\n" + prefix).join(lines) + " 0\n"


def _name(lit, num_vars: int):
    """The DIMACS name of lit if it equals one of ±1..±num_vars, else None."""
    try:
        k = int(lit)
    except (TypeError, ValueError, OverflowError):
        return None
    return str(k) if k == lit and 0 < abs(k) <= num_vars else None
