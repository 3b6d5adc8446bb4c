"""DIMACS CNF parsing and emission, with extended parity ("x") lines, and
the exhaustive model evaluator (`_model_masks`, `count_models`), in
Python ints alone: a `xorcount solve` child loads this module and not
numpy.  `oracle.expand_xors` lowers parity rows to plain clauses.

x-line convention, CryptoMiniSat's (dialects disagree, so pinned here and
in golden tests):
"x1 2 0" asserts x1 XOR x2 = 1; a leading minus on the FIRST literal flips
the right-hand side to 0, i.e. "x-1 2 0" asserts x1 XOR x2 = 0.
"""

from __future__ import annotations

import functools
import warnings
from itertools import chain

from .errors import ExhaustiveCapError, ParseError

__all__ = ["CnfFormula", "ParseError", "parse", "emit", "count_models"]

EXHAUSTIVE_CAP_VARS = 26
_SUB_VARS = 16  # a sub-block is 2^16 assignments, one Python int


class CnfFormula:
    """A CNF over variables 1..num_vars plus native parity rows, checked
    once, when it is built.

    The constructor raises the ParseError naming the first fault, num_vars
    first, then clauses, then parity rows: a num_vars that is not a
    non-negative int, a clause with no literals, a literal that is not an
    int or not one of ±1..±num_vars, a right-hand side other than 0 or 1,
    or a row variable outside 1..num_vars.  So every formula is well
    formed, and nothing that reads one checks it again.

    A formula is not changed once it is constructed, nor are its clause
    lists: `oracle.conjoin` and `oracle.expand_xors` build formulas that
    open with this one's clauses and share its clause lists (only the outer
    list is new, built when `clauses` is first read, and the clauses they
    add are kept as text and read back from it then), and `emit`
    keeps the text of the clauses on the formula, computed on its first
    call and reused by every formula built from it.  `_kept` is a dict
    that other modules keep their own values in (`oracle.expand_xors` its
    variables' tokens), shared by every formula built from this one.  None
    of these shows in `==` or `repr`, which compare and print num_vars,
    clauses and xors.
    """

    def __init__(self, num_vars: int, clauses: list, xors: list = None):
        xors = [] if xors is None else xors
        if type(num_vars) is not int or num_vars < 0:
            raise ParseError("num_vars %r is not a non-negative integer"
                             % (num_vars,))
        for cl in clauses:
            if not cl:
                raise ParseError("zero-width clause")
            for lit in cl:
                if type(lit) is not int:
                    raise ParseError("literal %r is not an integer" % (lit,))
                if lit == 0 or abs(lit) > num_vars:
                    raise ParseError("literal %d out of range" % lit)
        for sup, rhs in xors:
            if rhs not in (0, 1):
                raise ParseError("xor rhs must be 0 or 1")
            for v in sup:
                if type(v) is not int:
                    raise ParseError("xor variable %r is not an integer" % (v,))
                if not 1 <= v <= num_vars:
                    raise ParseError("xor variable %d out of range" % v)
        self.num_vars = num_vars
        self._clauses = clauses  # list[list[int]], nonempty, no literal 0
        self.xors = xors  # list[(list[int] of vars, rhs 0/1)]
        self._base = None  # the formula whose clauses open this one's
        self._tail = None  # (count, text) of the clauses after them
        self._text = None  # (count, text) of every clause line, once written
        self._kept = {}  # other modules' values, shared with every formula built from it

    def _extend(self, num_vars: int, xors: list, count: int = 0,
                text: str = "") -> "CnfFormula":
        """A formula over num_vars variables with these parity rows whose
        clauses are this one's, then the `count` clauses written as `text`,
        read back from it when the clause lists are read.  Its parts are
        well formed by construction, so it is not checked again."""
        out = CnfFormula.__new__(CnfFormula)
        out.num_vars, out._clauses, out.xors = num_vars, None, xors
        out._base, out._tail, out._text = self, (count, text), None
        out._kept = self._kept
        return out

    @property
    def clauses(self) -> list:
        if self._clauses is None:
            self._clauses = self._base.clauses + _clause_lists(self._tail[1])
        return self._clauses

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return ((self.num_vars, self.clauses, self.xors)
                == (other.num_vars, other.clauses, other.xors))

    def __repr__(self):
        return "CnfFormula(num_vars=%r, clauses=%r, xors=%r)" % (
            self.num_vars, self.clauses, self.xors)

    def _clause_text(self):
        """(number of clauses, their DIMACS lines), written on the first
        call.  Concurrent first calls may each write the text, and all of
        them store the same."""
        if self._text is None:
            if self._base is None:
                self._text = len(self._clauses), _write(self._clauses)
            else:
                count, tail = self._tail
                base_count, base = self._base._clause_text()
                self._text = base_count + count, base + tail
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
            if num_vars is not None:
                raise ParseError("repeated header: %r" % line)
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
        xor = line.startswith("x")
        lits = _integers((line[1:] if xor else line).split())
        if not lits or lits.pop() != 0:
            raise ParseError("%s not 0-terminated: %r"
                             % ("x-line" if xor else "clause", line))
        if not lits:
            raise ParseError("empty x-line" if xor else "zero-width clause")
        if not xor:
            clauses.append(lits)
            continue
        rhs = int(lits[0] > 0)
        lits[0] = abs(lits[0])
        if any(l <= 0 for l in lits):
            raise ParseError("only the first x-line literal may be negated")
        xors.append((lits, rhs))
    if num_vars is None:
        raise ParseError("missing header")
    if declared_clauses != len(clauses):
        warnings.warn(
            "header declares %d clauses, found %d" % (declared_clauses, len(clauses))
        )
    return CnfFormula(num_vars, clauses, xors)


def _integers(tokens: list) -> list:
    """The tokens as ints; ParseError names the first that is not one."""
    out = []
    for tok in tokens:
        try:
            out.append(int(tok))
        except ValueError:
            raise ParseError("token %r is not an integer" % tok) from None
    return out


def _clause_lists(text: str) -> list:
    """The int lists of clause lines "l1 ... lk 0", one a line."""
    return [_integers(line.split())[:-1] for line in text.splitlines()]


def emit(formula: CnfFormula) -> str:
    """Serialize deterministically: clauses in order, x-lines last.

    Parity rows go out as they are, as x-lines; a solver without x-line
    support is sent `oracle.expand_xors(formula)` instead.  The clause lines
    are written once per formula and kept on it (`CnfFormula`), and a
    formula built by `oracle.conjoin` or `oracle.expand_xors` opens with its
    base formula's kept lines, so only the header, the new clauses and the
    x-lines are written again.  The formula was checked when it was built,
    so nothing here checks it.
    """
    num_vars, xors = formula.num_vars, formula.xors
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
                    _write(rows, "x")])


def _write(rows, prefix: str = "") -> str:
    """One DIMACS line per row of int literals, `prefix` first and " 0"
    last; each literal that occurs is named once, with `str`."""
    if not rows:
        return ""
    lits = set(chain.from_iterable(rows))
    name = dict(zip(lits, map(str, lits))).__getitem__
    lines = [" ".join(map(name, row)) for row in rows]
    return prefix + (" 0\n" + prefix).join(lines) + " 0\n"


@functools.cache
def _slices(width: int) -> tuple:
    """Variables 1..width across a sub-block of 2^width assignments,
    variable j + 1 with bit l set where bit j of l is: 2^j zeros then 2^j
    ones, repeated (`full // (2^(2^(j+1)) - 1)` has a 1 every 2^(j+1)
    bits); then each one's negation."""
    full = (1 << (1 << width)) - 1
    pos = tuple(full // ((1 << (2 << j)) - 1) * (((1 << (1 << j)) - 1) << (1 << j))
                for j in range(width))
    return pos, tuple(full ^ x for x in pos)


def _model_masks(formula: CnfFormula):
    """The formula's models as an iterator of (start, mask), one per
    sub-block of 2^min(num_vars, 16) assignments in increasing order: bit l
    of the int mask is set where assignment start + l is a model
    (num_vars <= 26, checked here, before any sub-block is read).

    Variables 1..16 are bit slices of the sub-block (`_slices`), and a
    variable above them is a constant over it, bit v - 1 of start.  The
    constraints are compiled once: a clause is the OR of its low literals'
    slices, a parity row the XOR of its low variables' slices (inverted
    for rhs 0), and those with no variable above 16 are ANDed into one
    base mask.  Each sub-block then ANDs in only the rest, until its mask
    is 0: a clause that a literal above 16 satisfies is skipped, and a row
    is inverted when its variables above 16 are odd in start.  Only the
    sub-blocks read are evaluated."""
    nv = formula.num_vars
    if nv > EXHAUSTIVE_CAP_VARS:
        raise ExhaustiveCapError(
            "exhaustive backend capped at %d variables, formula has %d"
            % (EXHAUSTIVE_CAP_VARS, nv))
    width = min(nv, _SUB_VARS)
    full = (1 << (1 << width)) - 1
    pos, neg = _slices(width)
    base, clauses, rows = full, [], []
    for cl in formula.clauses:
        low = above = unset = 0  # its slices; its variables above 16, set, unset
        for lit in cl:
            j = abs(lit) - 1
            if j < width:
                low |= pos[j] if lit > 0 else neg[j]
            elif lit > 0:
                above |= 1 << j
            else:
                unset |= 1 << j
        if above | unset:
            clauses.append((above, unset, low))
        else:
            base &= low
    for sup, rhs in formula.xors:
        low, above = 0 if rhs else full, 0
        for v in sup:
            if v <= width:
                low ^= pos[v - 1]
            else:
                above ^= 1 << v - 1
        if above:
            rows.append((above, low))
        else:
            base &= low
    if not base:  # no sub-block has a model
        clauses = rows = []

    def sweep():
        for start in range(0, 1 << nv, 1 << width):
            mask = base
            for above, unset, low in clauses:
                if mask and not (start & above or ~start & unset):
                    mask &= low
            for above, low in rows:
                if mask:
                    mask &= low ^ full if (start & above).bit_count() & 1 else low
            yield start, mask
    return sweep()


def count_models(formula: CnfFormula) -> int:
    """Exact model count by exhaustive enumeration (num_vars <= 26)."""
    return sum(mask.bit_count() for _, mask in _model_masks(formula))
