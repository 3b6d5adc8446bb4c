"""Contingency-table counting problems.

A spec fixes row/column marginals (optionally 0-1 cells and structural
zeros); the count of tables meeting it is the quantity of interest.  Specs
whose search stays within MAX_SEARCH_WORK are counted exactly by
enumeration: rows are filled top to bottom, and each cell's lower bound is
what its column still needs beyond what the rows below can supply, so the
search never builds a row that leaves a column short and then has to
discard it; the tables come out in increasing lexicographic order.  The
rows below depend only on the row index and the columns' demands left, so
each such state's rows are built once per enumeration and replayed on
every later visit.

Each spec has one cell layout, `CellEncoding`, computed from the spec
alone: every cell of nonzero width takes the next few variables in
row-major order.  `explicit_problem` packs the enumerated tables by that
layout, and `encode_to_cnf` lowers the spec to a CNF whose models over
the cell bits are exactly the admissible tables, with adder auxiliaries
after the cell bits, so parity hashes range over cell bits only and the
hashing bounds apply.
"""

from __future__ import annotations

import itertools
import operator
import warnings
from dataclasses import dataclass

from .dimacs import CnfFormula
from .errors import CapacityError, ParameterError, ParseError
from .gf2hash import Assignment, HashParams, ParityHash, sample_hash
from .oracle import CountingProblem

__all__ = [
    "ContingencyTableSpec",
    "CellEncoding",
    "CapacityError",
    "brute_force_count",
    "enumerate_tables",
    "encode_to_cnf",
    "hash_over_cells",
    "synth_spec",
    "parse_table_spec",
    "format_table_spec",
]

# the search's work, counted as c + 8 per row of c columns visited, built or
# replayed: past this much, `enumerate_tables` refuses unless forced.  On a
# 2-vCPU x86 VM the cap took 0.04 s of search on the 8 x 8 permutation spec,
# whose rows are nearly all replayed, and 0.1-0.55 s on 3- and 4-row specs
# of 2 to 100 columns, whose rows are mostly built
MAX_SEARCH_WORK = 1_500_000


@dataclass(frozen=True)
class ContingencyTableSpec:
    rows: int
    cols: int
    row_marginals: tuple
    col_marginals: tuple
    binary: bool = False
    structural_zeros: frozenset = frozenset()

    def __post_init__(self):
        object.__setattr__(self, "row_marginals", tuple(self.row_marginals))
        object.__setattr__(self, "col_marginals", tuple(self.col_marginals))
        object.__setattr__(self, "structural_zeros",
                           frozenset(self.structural_zeros))
        if len(self.row_marginals) != self.rows or len(self.col_marginals) != self.cols:
            raise ParameterError("marginal lengths must match the table shape")
        if any(x < 0 for x in self.row_marginals + self.col_marginals):
            raise ParameterError("marginals must be nonnegative")
        if self.binary:
            if any(x > self.cols for x in self.row_marginals):
                raise ParameterError("binary row marginal exceeds column count")
            if any(x > self.rows for x in self.col_marginals):
                raise ParameterError("binary column marginal exceeds row count")
        for (i, j) in self.structural_zeros:
            if not (0 <= i < self.rows and 0 <= j < self.cols):
                raise ParameterError("structural zero (%d,%d) out of range" % (i, j))
        if sum(self.row_marginals) != sum(self.col_marginals):
            warnings.warn("row and column marginals disagree; the count is 0")

    def cell_max(self, i: int, j: int) -> int:
        if (i, j) in self.structural_zeros:
            return 0
        cap = min(self.row_marginals[i], self.col_marginals[j])
        return min(cap, 1) if self.binary else cap


def synth_spec(n: int) -> ContingencyTableSpec:
    """n x n binary blocked-matrix family; both marginals {1, n-1, ..., n-1}.
    Its exact count is 1 + (n-1)^2."""
    marg = (1,) + (n - 1,) * (n - 1)
    return ContingencyTableSpec(n, n, marg, marg, binary=True)


def _rows_within(total, lo, hi):
    """Yield, in increasing lexicographic order, every row v summing to
    `total` with lo[j] <= v[j] <= hi[j].

    An odometer: each position takes the least value that still lets the
    positions after it reach `total`, and a step raises the rightmost
    position that can still rise.  Suffix sums of lo and hi keep every
    prefix completable, so each row it builds is yielded.
    """
    cols = len(lo)
    lo_suffix = [0] * (cols + 1)
    hi_suffix = [0] * (cols + 1)
    for j in range(cols - 1, -1, -1):
        if lo[j] > hi[j]:
            return
        lo_suffix[j] = lo_suffix[j + 1] + lo[j]
        hi_suffix[j] = hi_suffix[j + 1] + hi[j]
    if not lo_suffix[0] <= total <= hi_suffix[0]:
        return
    row = [0] * cols
    top = [0] * cols  # the most position j may hold after its prefix
    rem = total  # what positions j.. still have to hold
    j = 0
    while True:
        while j < cols:
            v = rem - hi_suffix[j + 1]
            if v < lo[j]:
                v = lo[j]
            t = rem - lo_suffix[j + 1]
            top[j] = t if t < hi[j] else hi[j]
            row[j] = v
            rem -= v
            j += 1
        yield tuple(row)
        j = cols - 1
        while j >= 0 and row[j] == top[j]:
            rem += row[j]
            j -= 1
        if j < 0:
            return
        row[j] += 1
        rem -= 1
        j += 1


def _children(caps, rows):
    """Yield (row, the demands `caps` leave after it) for each row."""
    for row in rows:
        yield row, tuple(map(operator.sub, caps, row))


def enumerate_tables(spec: ContingencyTableSpec, force: bool = False):
    """Yield every admissible table as a tuple of row tuples, in increasing
    lexicographic order.

    Rows are filled top to bottom.  `supply[k][j]` is the most that rows
    k.. can still put into column j, so row i must leave column j no more
    than `supply[i + 1][j]`: a per-cell lower bound `v_j >= caps_j -
    supply[i + 1][j]`, where caps_j is column j's unmet demand.  The row
    generator takes that bound with the upper bound `min(caps_j, row cap)`,
    so every row it builds leaves each column a demand the rows below can
    still meet, and none is built and then thrown away.

    A search state is a row index i with the columns' demands left; the
    tables below it depend on nothing else.  The first time a state's
    subtree is fully walked, its (row, demands left) children are kept, and
    every later visit replays them instead of building the rows again.
    The memo lives in this call alone, and once it holds MAX_SEARCH_WORK
    worth of rows, new states are walked without being kept.

    Replaying walks the same tree in the same order as building, so the
    work is counted per row visited, built or replayed, weighted by the
    row's width; past MAX_SEARCH_WORK it raises CapacityError unless
    `force` is set.
    """
    if sum(spec.row_marginals) != sum(spec.col_marginals):
        return
    # row_cap[k][j]: the most row k alone may put into column j
    row_cap = [
        [0 if (k, j) in spec.structural_zeros else min(r, 1) if spec.binary else r
         for j in range(spec.cols)]
        for k, r in enumerate(spec.row_marginals)
    ]
    supply = [[0] * spec.cols]
    for cap_row in reversed(row_cap):
        supply.append([s + c for s, c in zip(supply[-1], cap_row)])
    supply.reverse()
    # memo[i]: demands left -> row i's children, as (row, demands left after)
    memo = [{} for _ in range(spec.rows)]
    # depth first without recursion: stack[i] = [demands left, row i's
    # children, the children walked so far if they are to be kept]
    table, stack, caps = [()] * spec.rows, [], spec.col_marginals
    work, held, row_work = 0, 0, spec.cols + 8
    while True:
        i = len(stack)
        if i == spec.rows:
            yield tuple(table)
        elif (known := memo[i].get(caps)) is not None:
            stack.append([caps, iter(known), None])
        else:
            lo = [max(0, c - s) for c, s in zip(caps, supply[i + 1])]
            hi = [min(c, u) for c, u in zip(caps, row_cap[i])]
            rows = _rows_within(spec.row_marginals[i], lo, hi)
            stack.append([caps, _children(caps, rows),
                          [] if held < MAX_SEARCH_WORK else None])
        while stack and (child := next(stack[-1][1], None)) is None:
            caps, _, walked = stack.pop()
            if walked is not None:
                memo[len(stack)][caps] = walked
        if not stack:
            return
        work += row_work
        if work > MAX_SEARCH_WORK and not force:
            raise CapacityError(
                "enumeration visited %d rows without finishing (pass force=True "
                "to count without a cap)" % (work // row_work))
        top = stack[-1]
        if top[2] is not None:
            if held < MAX_SEARCH_WORK:
                top[2].append(child)
                held += row_work
            else:
                top[2] = None
        table[len(stack) - 1], caps = child


def brute_force_count(spec: ContingencyTableSpec, force: bool = False) -> int:
    """Exact number of admissible tables by pruned enumeration."""
    return sum(1 for _ in enumerate_tables(spec, force=force))


# ---------------------------------------------------------------------------
# CNF lowering

# op -> (its truth function, the Tseitin clauses tying out to `a op b`)
_GATES = {
    "xor": (operator.xor, lambda a, b, out: [[-a, -b, -out], [a, b, -out],
                                             [a, -b, out], [-a, b, out]]),
    "and": (operator.and_, lambda a, b, out: [[-a, -b, out], [a, -out],
                                              [b, -out]]),
    "or": (operator.or_, lambda a, b, out: [[a, b, -out], [-a, out],
                                            [-b, out]]),
}


class _CircuitBuilder:
    """Tseitin-encoded gate circuit; bits are bool constants or int literals."""

    def __init__(self, num_vars: int):
        self.num_vars = num_vars
        self.clauses = []
        self.gates = []  # (op, lit_a, lit_b, out_var)

    def new_var(self) -> int:
        self.num_vars += 1
        return self.num_vars

    def gate(self, op, a, b):
        """`a op b` for an op of _GATES.  A constant input folds the gate
        into a constant or a literal of the other input; only two literal
        inputs add a variable, its clauses and its `gates` entry."""
        truth, clauses = _GATES[op]
        if isinstance(a, bool) and isinstance(b, bool):
            return truth(a, b)
        if isinstance(a, bool):
            a, b = b, a
        if isinstance(b, bool):
            lo, hi = truth(False, b), truth(True, b)
            return lo if lo == hi else a if hi else -a
        out = self.new_var()
        self.clauses += clauses(a, b, out)
        self.gates.append((op, a, b, out))
        return out

    def add(self, xs, ys):
        """Ripple-carry sum of two little-endian bit lists, one bit wider
        than the longer."""
        out, carry = [], False
        for a, b in itertools.zip_longest(xs, ys, fillvalue=False):
            axb = self.gate("xor", a, b)
            out.append(self.gate("xor", axb, carry))
            carry = self.gate("or", self.gate("and", a, b),
                              self.gate("and", carry, axb))
        return out + [carry]

    def sum_tree(self, vectors):
        if not vectors:
            return [False]
        layer = list(vectors)
        while len(layer) > 1:
            nxt = [self.add(layer[k], layer[k + 1]) for k in range(0, len(layer) - 1, 2)]
            if len(layer) % 2:
                nxt.append(layer[-1])
            layer = nxt
        return layer[0]

    def assert_equals(self, bits, value: int):
        width = max(len(bits), value.bit_length())
        for k in range(width):
            want = (value >> k) & 1
            bit = bits[k] if k < len(bits) else False
            if isinstance(bit, bool):
                if int(bit) != want:
                    v = self.new_var()
                    self.clauses += [[v], [-v]]  # constant mismatch: unsat
                    return
            else:
                self.clauses.append([bit] if want else [-bit])

    def assert_le_constant(self, bits, bound: int):
        """Forbid values of the variables `bits` above `bound`: for each zero
        bit i of the bound, bit i is 0 or a higher bit differs from the
        bound's."""
        for i, bit in enumerate(bits):
            if not (bound >> i) & 1:
                self.clauses.append([-bit] + [-bj if (bound >> j) & 1 else bj
                                              for j, bj in enumerate(bits[i + 1:], i + 1)])


class CellEncoding:
    """A spec's cell layout, from the spec alone: `cells` holds (i, j,
    shift, width) for each cell of nonzero width in row-major order, its
    value being the little-endian bits shift + 1 .. shift + width, wide
    enough for `cell_max`.  The cells fill variables 1 .. num_cell_bits;
    `encode_to_cnf` adds the adder `gates` and `num_vars` after them."""

    def __init__(self, spec: ContingencyTableSpec):
        self.spec = spec
        self.cells = []
        shift = 0
        for i in range(spec.rows):
            for j in range(spec.cols):
                width = spec.cell_max(i, j).bit_length()
                if width:
                    self.cells.append((i, j, shift, width))
                    shift += width
        self.num_cell_bits = self.num_vars = shift
        self.gates = []  # (op, lit_a, lit_b, out_var), in evaluation order

    def cell_bits(self, i: int, j: int):
        """Cell (i, j)'s variables, least significant first."""
        for ci, cj, shift, width in self.cells:
            if (ci, cj) == (i, j):
                return list(range(shift + 1, shift + width + 1))
        return []

    def complete(self, cell_assignment: int) -> int:
        """Extend an assignment of the cell bits to all variables by
        evaluating the adder gates forward."""
        bits = cell_assignment

        def val(lit):  # a gate's inputs are literals, never constants
            v = (bits >> (abs(lit) - 1)) & 1
            return v if lit > 0 else 1 - v

        for op, a, b, out in self.gates:
            if _GATES[op][0](val(a), val(b)):
                bits |= 1 << (out - 1)
        return bits

    def decode_table(self, cell_assignment: int):
        out = [[0] * self.spec.cols for _ in range(self.spec.rows)]
        for i, j, shift, width in self.cells:
            out[i][j] = (cell_assignment >> shift) & ((1 << width) - 1)
        return tuple(map(tuple, out))

    def encode_table(self, table) -> int:
        return sum(table[i][j] << shift for i, j, shift, _ in self.cells)


def encode_to_cnf(spec: ContingencyTableSpec):
    """Lower a table spec to CNF: cell bitvectors, per-cell range clamps,
    and adder-tree sums pinned to the marginals.

    Returns (CountingProblem, CellEncoding); the problem's n is the number
    of cell bits, so hashes never touch adder auxiliaries.
    """
    enc = CellEncoding(spec)
    builder = _CircuitBuilder(enc.num_cell_bits)
    lines = [[] for _ in range(spec.rows + spec.cols)]  # rows, then columns
    for i, j, shift, width in enc.cells:
        bits = list(range(shift + 1, shift + width + 1))
        builder.assert_le_constant(bits, spec.cell_max(i, j))
        lines[i].append(bits)
        lines[spec.rows + j].append(bits)
    for line, total in zip(lines, spec.row_marginals + spec.col_marginals):
        builder.assert_equals(builder.sum_tree(line), total)

    enc.num_vars = builder.num_vars
    enc.gates = builder.gates
    formula = CnfFormula(builder.num_vars, builder.clauses, [])
    problem = CountingProblem.from_cnf(formula, n=enc.num_cell_bits)
    return problem, enc


def hash_over_cells(problem: CountingProblem, m: int, f: float,
                    seed: int = 0) -> ParityHash:
    """Sample a parity hash spanning exactly the cell-bit variables."""
    return sample_hash(HashParams(problem.n, m, f, seed=seed))


def explicit_problem(spec: ContingencyTableSpec, enc: CellEncoding = None,
                     force: bool = False) -> CountingProblem:
    """Enumerate the tables and pack them as an explicit set over the cell
    bits; handy for running pipelines when the count is small.

    A table's cell bits are the sum of its rows' bits, and the search
    yields the same few rows again and again, so each (i, row) is packed
    once.  Only the cell layout is read, so without `enc` no circuit is
    built."""
    if enc is None:
        enc = CellEncoding(spec)
    # the row-major cells of each row that has any, one run per row
    runs = [list(run) for _, run in
            itertools.groupby(enc.cells, operator.itemgetter(0))]
    packed = [{} for _ in runs]  # packed[k]: row -> its bits
    members = []
    for t in enumerate_tables(spec, force=force):
        bits = 0
        for run, seen in zip(runs, packed):
            row = t[run[0][0]]
            value = seen.get(row)
            if value is None:
                value = seen[row] = sum(row[j] << shift
                                        for _, j, shift, _ in run)
            bits += value
        members.append(Assignment(bits, enc.num_cell_bits))
    return CountingProblem.from_explicit(members, enc.num_cell_bits)


# ---------------------------------------------------------------------------
# spec file format: "rows R cols C", "R: ...", "C: ...", "binary: 0|1", "Z: i j";
# a repeated line is refused, except a Z: line, whose zeros are a set

def parse_table_spec(text: str) -> ContingencyTableSpec:
    rows = cols = None
    rmarg = cmarg = None
    binary = False
    zeros = set()
    seen = set()  # which of rows, R:, C: and binary: were read
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        try:
            key = next((k for k in ("rows", "R:", "C:", "binary:") if line.startswith(k)), None)
            if key in seen:
                raise ParseError("repeated %r line" % key)
            if key:
                seen.add(key)
            if line.startswith("rows"):
                parts = line.split()
                if len(parts) != 4 or parts[::2] != ["rows", "cols"]:
                    raise ParseError("expected 'rows R cols C'")
                rows, cols = int(parts[1]), int(parts[3])
            elif line.startswith("R:"):
                rmarg = tuple(int(t) for t in line[2:].split())
            elif line.startswith("C:"):
                cmarg = tuple(int(t) for t in line[2:].split())
            elif line.startswith("binary:"):
                flag = line.split(":", 1)[1].strip()
                if flag not in ("0", "1"):
                    raise ParseError("binary takes 0 or 1")
                binary = flag == "1"
            elif line.startswith("Z:"):
                i, j = (int(t) for t in line[2:].split())
                zeros.add((i, j))
            else:
                raise ParseError("unrecognized line")
        except (ValueError, IndexError) as exc:
            raise ParseError("bad table-spec line %r: %s" % (line, exc)) from None
    if rows is None or rmarg is None or cmarg is None:
        raise ParseError("table spec needs 'rows r cols c', 'R:' and 'C:' lines")
    return ContingencyTableSpec(rows, cols, rmarg, cmarg, binary, frozenset(zeros))


def format_table_spec(spec: ContingencyTableSpec) -> str:
    lines = [
        "rows %d cols %d" % (spec.rows, spec.cols),
        "R: " + " ".join(str(x) for x in spec.row_marginals),
        "C: " + " ".join(str(x) for x in spec.col_marginals),
        "binary: %d" % int(spec.binary),
    ]
    for i, j in sorted(spec.structural_zeros):
        lines.append("Z: %d %d" % (i, j))
    return "\n".join(lines) + "\n"
