"""Membership oracles: does S have an element in the cell h^-1(0)?

Three interchangeable backends answer the same question:
  * explicit  — S is given outright: one packed block, sorted and
    deduplicated by `_distinct` whether it comes from members or a file.
  * exhaustive — S is the model set of a CNF of at most 26 variables.  Its
    models are enumerated lazily, one block of assignments at a time and
    only as far as the questions read them, projected onto the first n
    variables, packed and kept for later questions, at most 512 MB at the
    cap.  Each block of 2^16 assignments doubling up to 2^20 joins the
    bit masks of its 2^16-assignment sub-blocks, which `dimacs._model_masks`
    evaluates bit-sliced in Python ints: a clause is an OR of variable
    slices, and a native XOR row an XOR.
  * external  — serialize the conjoined instance to DIMACS and invoke a
    solver subprocess; witnesses are always re-checked in process, and a
    SAT answer without a full model, or with a v line that is not all
    integers or sets a variable the instance lacks, is `unknown`.  Solvers
    without x-lines get the parity rows as plain clauses, lowered here by
    `expand_xors`: each row is laid out once as its chain of sub-XORs, one
    flat token list, and each sub-XOR's clause lines are one cached
    getter over its window of that list.

The first two are in process: S is a stream of (k, W) uint64 blocks, W =
ceil(n/64) words per member (an explicit set is one block), and every
question is answered against it.  Only `_stream` adds a block to it.
numpy serves this alone: the functions that pack, stream or scan S import
it at their first call, as `gf2hash._draw_wide` imports numpy.random.  So
a run whose questions all go to a solver, or are all decided on their
cells (below), never loads numpy, nor does `xorcount table`; an explicit
set, a CNF's model stream and the kernel load it at first use.

Every question goes through `has_survivors`, which takes a whole
estimate's T hashes at once (a hash of None asks m = 0, "is S non-empty?",
which an estimate asks once, in `bounds._trials`, not once per trial):
  * On a CNF problem, each hash is eliminated once (`_echelon`), and one
    whose system Ax = b has no solution over GF(2) is "unsat" before S is
    read or a solver is asked: its cell is empty whatever S is, and sparse
    rows make such hashes common (a row is all zero with probability
    (1-f)^n).  An explicit set, whose one block is already in memory,
    skips the elimination.
  * In process, m = 0 reads S's first block, if any.  At m >= 1 a trial
    of a CNF problem can be decided on its cell (`_decide`) from its
    elimination's pivots: the formula evaluated bit-sliced over the
    solutions of Ax = b, at a cost that does not depend on where in S its
    survivors lie.  A CNF estimate whose asked cells hold at most 2^16
    assignments in all, as many as S's first block, each cell counted as
    at least 2^8 (so at most 256 trials), is decided so, trial by trial,
    and reads no block of S.
  * Every other estimate runs the survival kernel (`_table_scan`) over
    S's first block for every trial asked, by table lookup (the "method
    of Four Russians"): per chunk of trials, one 256-entry table per
    member byte holds the XOR of the columns of A that the byte selects,
    so Ax is ceil(n/8) lookups whatever m is, compared with b as one uint
    per group of up to 64 hash rows.  Each lookup gathers the entries of
    every trial in the chunk at once.  That block is all of an explicit
    set, and S is empty when it has none.  On a CNF problem, a trial that
    first block leaves without a survivor is then decided on its cell.
  * Only a cell of more than 2^16 assignments has the kernel read the
    rest of S.  A trial needs one survivor, so the kernel stops after the
    block in which its last trial finds one, and a CNF's models past that
    block are not enumerated until a question reads them.
  * With a solver, each CNF hash asked is instead one `has_survivor` call,
    up to solver.jobs calls at once on a thread pool of its own, each pool
    thread given the call's `_Batch` of solver processes once, by the
    pool's initializer.
In-process verdicts carry no model: only an external SAT verdict does, in
its stats, rechecked in process.
"""

from __future__ import annotations

import functools
import math
import os
import re
import shlex
import signal
import subprocess
import tempfile
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from itertools import chain, compress, islice
from operator import itemgetter
from pathlib import Path

from .dimacs import _SUB_VARS, CnfFormula, _model_masks, _slices, count_models, emit
from .errors import DimensionError, IntegrityError, ParameterError, ParseError
from .gf2hash import ParityHash

__all__ = [
    "CountingProblem",
    "OracleVerdict",
    "SolverProfile",
    "has_survivor",
    "has_survivors",
    "expand_xors",
    "conjoin",
    "run_external",
    "count_models",
]

# model enumeration: blocks of 2^16 assignments, then blocks doubling up to
# 2^20, each the masks of its 2^16-assignment sub-blocks
_BLOCK_VARS = 20
# the survival kernel: a chunk of trials holds at most _TABLE_BYTES of
# tables, a block of members at most _BLOCK_ELEMENTS (member, trial) pairs,
# and `any` folds a block's pairs _FOLD members at a time
_TABLE_BYTES = 1 << 20
_BLOCK_ELEMENTS = 1 << 16
_FOLD = 64
# the decision budget of `_survivors` counts a cell of fewer than
# 2^_FLOOR_VARS assignments as 2^_FLOOR_VARS: `_decide`'s time on a small
# cell is Python's cost per operation, not the masks' length, so past 256
# trials the kernel's pass over S's first block is as fast or faster
_FLOOR_VARS = 8
# the largest sub-XOR arity `expand_xors` takes: a sub-XOR of arity s is
# 2^(s-1) clause lines, 32,768 at 16
_MAX_CHUNK = 16


@dataclass(frozen=True)
class OracleVerdict:
    """One question's answer.  An external solver's stats hold its time,
    exit code and any unknown's reason, and on SAT its model as two ints:
    "model_bits" (bit v - 1 set where variable v is true) and
    "assigned_bits" (where a v line set variable v)."""

    answer: str  # "sat" | "unsat" | "unknown"
    stats: dict = field(default_factory=dict)


def _check_count(name: str, value, least: int, most: int = None) -> None:
    """`value` must be an int (not a bool) of at least `least` and, unless
    `most` is None, at most `most`."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ParameterError("%s must be an integer, got %r" % (name, value))
    if value < least:
        raise ParameterError("%s must be at least %d" % (name, least))
    if most is not None and value > most:
        raise ParameterError("%s must be at most %d" % (name, most))


@dataclass(frozen=True)
class SolverProfile:
    """Every setting of the external solver, checked once here.

    `template` is the command, with an {in} placeholder for the instance
    path; `budget_s` is the per-call wall-clock timeout in seconds, a
    positive and finite int or float, not a bool (None: no limit);
    `native_xor` sends parity rows as x-lines, else they are expanded into
    CNF with sub-XORs of arity `chunk`, an int from 2 to 16; `jobs`, an
    int of at least 1, is how many solver calls of one estimate run at
    once, by default (None) the number of CPUs this process may run on.
    The CLI fills these from --solver, --budget-s, --native-xor, --chunk
    and --jobs.  Without a profile every question is answered in process,
    so neither `budget_s` nor `jobs` has any effect.  `argv` is the
    template split once, shell-style, here.
    """

    template: str
    budget_s: float | None = None
    native_xor: bool = False
    chunk: int = 6
    jobs: int | None = None
    argv: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if "{in}" not in self.template:
            raise ParameterError("solver template must contain an {in} placeholder")
        try:
            object.__setattr__(self, "argv", tuple(shlex.split(self.template)))
        except ValueError as exc:  # unbalanced quotes
            raise ParameterError("solver template %r: %s" % (self.template, exc)) from None
        budget = self.budget_s
        if budget is not None and (isinstance(budget, bool)
                                   or not isinstance(budget, (int, float))
                                   or not 0.0 < budget < math.inf):
            raise ParameterError("budget_s must be positive and finite, or None")
        _check_count("chunk", self.chunk, 2, _MAX_CHUNK)
        if self.jobs is None:
            object.__setattr__(self, "jobs", _usable_cpus())
        _check_count("jobs", self.jobs, 1)


def _usable_cpus() -> int:
    """The number of CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


class CountingProblem:
    """The set S whose size is being bounded: the model set of `formula`,
    or else the rows of `block`.

    kind == "explicit" (formula None): S is a set of n-bit assignments,
        one packed block sorted and deduplicated by `_distinct`.
    kind == "cnf": S is the model set of `formula`, projected onto the
        first n variables (n == num_vars unless the formula carries
        auxiliary variables, as table encodings do).

    Every in-process question (`has_survivors`, T hashes in one pass)
    reads S as a stream of packed blocks (`_stream`): (k, W) uint64 arrays,
    W = ceil(n/64), word k of a row holding bits 64k..64k+63 of the member.
    `_blocks` holds the blocks so far and `_source` what yields the rest.
    An explicit set is its one block, none when empty.  A CNF problem's
    blocks are its models, each block in increasing order, enumerated by
    `_model_blocks` only when a question reads past the blocks held;
    projected onto n < num_vars, a member may recur in later blocks.
    `_lock` lets one thread at a time extend the stream.
    """

    def __init__(self, n: int, formula: CnfFormula = None, block=None):
        self.n = n
        self.formula = formula
        self._lock = threading.Lock()
        self._blocks = [block] if block is not None and len(block) else []
        # `_model_blocks` for a CNF, on the first read past _blocks
        self._source = iter(()) if formula is None else None

    @property
    def kind(self) -> str:
        return "explicit" if self.formula is None else "cnf"

    @classmethod
    def from_explicit(cls, members, n: int) -> "CountingProblem":
        """S = the distinct bits of `members`, Assignments of width n."""
        if n < 0:
            raise ParameterError("problem width n = %d is negative" % n)
        values = []
        for x in members:
            if x.n != n:
                raise DimensionError("member width %d != problem width %d" % (x.n, n))
            values.append(x.bits)
        return cls(n, block=_distinct(_pack(values, _words(n))))

    @classmethod
    def from_cnf(cls, formula: CnfFormula, n: int = None) -> "CountingProblem":
        n = formula.num_vars if n is None else n
        if not 0 <= n <= formula.num_vars:
            raise ParameterError("problem width n = %d is outside 0..num_vars = %d"
                                 % (n, formula.num_vars))
        return cls(n, formula=formula)


class _Tokens(dict):
    """Variable v -> its four DIMACS tokens, in the order `_lines` reads
    them: "v ", "-v ", then their line-ending forms "v 0\\n" and "-v 0\\n",
    written on the first lookup of v.  A base formula keeps one for all
    the questions asked on it (see `expand_xors`), so it holds only the
    variables their parity rows name: the hash's, and the auxiliaries,
    numbered from the base's num_vars + 1 again in every question."""

    def __missing__(self, v: int) -> tuple:
        x = str(v)
        self[v] = out = (x + " ", "-" + x + " ", x + " 0\n", "-" + x + " 0\n")
        return out


@functools.cache
def _lines(s: int, rhs: int):
    """The 2^(s-1) clause lines ruling out wrong-parity assignments of s
    variables, as a getter of tokens: given a window's 4s tokens, the
    `_Tokens` of each variable in turn, it returns the tokens of its DIMACS
    lines in order.  Pattern p forbids the assignment where variable i takes bit i of p, so
    its clause negates exactly those variables, and the last one ends the
    line.  One variable has one line, picked as a slice, so that it too
    comes back as a sequence."""
    picks = []
    for p in range(1 << s):
        if p.bit_count() & 1 != rhs:
            picks += [4 * i + (p >> i & 1) for i in range(s - 1)]
            picks.append(4 * s - 2 + (p >> s - 1 & 1))
    if s == 1:
        return itemgetter(slice(picks[0], picks[0] + 1))
    return itemgetter(*picks)


def expand_xors(formula: CnfFormula, chunk: int = 6) -> CnfFormula:
    """Replace native XOR rows with plain clauses over fresh auxiliaries,
    numbered from num_vars + 1: the one lowering of XOR rows to CNF.
    `chunk` is an int from 2 to _MAX_CHUNK, checked before any row is read.

    A row of t > chunk variables is chained into 1 + ceil((t - chunk) /
    (link - 2)) sub-XORs, link = max(chunk, 3), and a sub-XOR of arity s
    expands to 2^(s-1) clauses.  A link needs arity 3 at least (two inputs
    and the link variable), so chunk=2 chains at arity 3.  The row is laid
    out once as its chain Q: its first link - 1 variables, auxiliary a1,
    its next link - 2, a2, and so on.  Sub-XOR j is the window
    Q[j(link-1) : j(link-1) + link], XOR(window) = 0, so each auxiliary is
    the XOR of the variables before it and stands in for them in the next
    window; the last window, what is left (at most chunk variables), takes
    the row's rhs.  An empty row with rhs 1 is a contradiction written on
    a fresh variable, so that no clause is empty.

    Each row's chain is one flat list of its variables' `_Tokens`, read
    from the table the formula keeps in `_kept`, which it shares with its
    base and every formula built from that (so the questions on one base
    write each variable's tokens once, as they share its kept text), and
    each window's lines are one `_lines` getter over its slice.
    The result opens with the formula's own clauses (their lists are
    shared, not copied), and its new ones are kept as text, their int
    lists read back from those lines only when its `clauses` are read."""
    _check_count("chunk", chunk, 2, _MAX_CHUNK)
    link = max(chunk, 3)
    step, span = 4 * link - 4, 4 * link  # a window's start and length in tokens
    top, lines, out = formula.num_vars, 0, []
    get = formula._kept.setdefault("tokens", _Tokens()).__getitem__
    for sup, rhs in formula.xors:
        t = len(sup)
        if t > chunk:
            aux = -(-(t - chunk) // (link - 2))
            q, lo = list(sup[:link - 1]), link - 1
            for a in range(top + 1, top + aux + 1):
                q.append(a)
                q += sup[lo:lo + link - 2]
                lo += link - 2
            q += sup[lo:]
            top += aux
            row, inner = list(chain.from_iterable(map(get, q))), _lines(link, 0)
            for lo in range(0, aux * step, step):
                out += inner(row[lo:lo + span])
            t -= aux * (link - 2)  # the last window's arity
            out += _lines(t, rhs)(row[aux * step:])
            lines += (aux << link - 1) + (1 << t - 1)
        elif t:
            out += _lines(t, rhs)(list(chain.from_iterable(map(get, sup))))
            lines += 1 << t - 1
        elif rhs:
            top += 1
            lines += 2
            out.append("%d 0\n-%d 0\n" % (top, top))
    return formula._extend(top, [], lines, "".join(out))


_BITS = bytes.maketrans(b"01", b"\0\1")  # a binary digit as a 0/1 byte


def conjoin(formula: CnfFormula, h: ParityHash, native_xor: bool = True) -> CnfFormula:
    """Append the hash rows of h to the formula as parity constraints.

    Hash columns address variables 1..h.n, which must be a prefix of the
    formula's variables.  Original clauses and numbering are untouched: the
    result opens with the formula's clauses (see `CnfFormula`) and has no
    clauses of its own.
    """
    if h.n > formula.num_vars:
        raise DimensionError(
            "hash width %d exceeds formula variables %d" % (h.n, formula.num_vars)
        )
    xors = list(formula.xors)
    for i, row in enumerate(h.rows):
        # bin(row)[:1:-1] is the row's bits, lowest first: variable j at j - 1
        sup = list(compress(range(1, h.n + 1), bin(row)[:1:-1].encode().translate(_BITS)))
        xors.append((sup, h.b_bits >> i & 1))
    out = formula._extend(formula.num_vars, xors)
    return out if native_xor else expand_xors(out)


# ---------------------------------------------------------------------------
# backends

def _words(n: int) -> int:
    """uint64 words per packed n-bit member."""
    return max(1, -(-n // 64))


def _pack(values, words: int):
    """Python ints as a (len(values), words) uint64 array, word k of a row
    holding bits 64k..64k+63."""
    import numpy as np

    if words == 1:
        return np.array(values, dtype=np.uint64).reshape(-1, 1)
    blob = b"".join(v.to_bytes(8 * words, "little") for v in values)
    return np.frombuffer(blob, dtype="<u8").reshape(-1, words)


def _distinct(words):
    """The rows of a (k, W) uint64 array in increasing order, each once:
    how every explicit set is sorted and deduplicated."""
    import numpy as np

    words = words[np.lexsort(words.T)]  # the top word is the primary key
    fresh = np.ones(len(words), dtype=bool)
    fresh[1:] = (words[1:] != words[:-1]).any(axis=1)
    return words[fresh]


def _explicit_from_lines(lines: list) -> CountingProblem:
    """The explicit problem whose members are `lines`, nonempty stripped 0/1
    strings, leftmost character = variable 1 (bit 0), as `from_explicit`
    would build it from `Assignment.from_string` of each line.

    A ParseError names the first character that is not 0 or 1, else a
    DimensionError the first line whose width differs from the first's.
    The lines are checked as one joined string, then its bytes become the
    packed block in one numpy pass.
    """
    import numpy as np

    joined = "".join(lines)
    raw = joined.encode()
    if raw.translate(None, b"01"):
        raise ParseError("invalid bit %r" % joined.lstrip("01")[0])
    n, k = len(lines[0]), len(lines)
    if len(set(map(len, lines))) > 1:
        width = next(len(l) for l in lines if len(l) != n)
        raise DimensionError("member width %d != problem width %d" % (width, n))
    bits = np.zeros((k, 64 * _words(n)), dtype=bool)
    bits[:, :n] = np.frombuffer(raw, dtype=np.uint8).reshape(k, n) == 49
    words = np.packbits(bits, axis=1, bitorder="little").view("<u8")
    return CountingProblem(n, block=_distinct(words))


def _table_scan(blocks, hashes, rows, n: int):
    """The survival kernel by table lookup (the "method of Four Russians"):
    Ax is the XOR, over the member's bytes, of one 256-entry table per byte
    position, entry v holding the XOR of the columns of A that v selects.
    The hash rows are taken 64 at a time: in a group of g rows a column is
    a g-bit uint, bit i from the group's row i, and the group holds where
    its Ax equals its slice of b, so h(x) = 0 where every group holds.

    `blocks()` iterates over S as packed (k, W) blocks, none if S is empty;
    each chunk of trials, as many as fit in _TABLE_BYTES of tables, builds
    its tables once, then reads the blocks anew, in pieces of `block`
    members, at most _BLOCK_ELEMENTS (member, trial) pairs, and stops after
    the piece in which its last trial finds a survivor.  The pieces' arrays
    are views of buffers allocated here, once, for `block` members, a
    multiple of _FOLD, so a piece padded to one fits.  The tables cost 256
    entries per member byte and trial whatever |S| is, so a tiny set of
    wide members pays for them in full."""
    import numpy as np

    count, m = rows.shape[:2]
    nb = -(-n // 8)
    row_bytes = rows.astype("<u8", copy=False).view(np.uint8)
    groups = []
    for g in range(0, m, 64):
        width = min(64, m - g)
        uint = np.min_scalar_type((1 << width) - 1)  # uint8 .. uint64
        powers = np.left_shift(1, np.arange(width, dtype=np.uint64)).astype(uint)
        rhs = np.array([h.b_bits >> g & (1 << width) - 1 for h in hashes], dtype=uint)
        groups.append((row_bytes[:, g:g + width], powers, rhs))
    itemsizes = [powers.itemsize for _, powers, _ in groups]  # widest first
    step = max(1, min(count, _TABLE_BYTES // (256 * nb * sum(itemsizes))))
    lanes = _lanes(step, itemsizes[0])
    block = max(_FOLD, _BLOCK_ELEMENTS // max(lanes, nb) // _FOLD * _FOLD)
    pairs = block * lanes
    buffers = (np.empty((nb, block), dtype=np.intp),  # rows of the tables
               np.arange(nb)[:, None],
               [np.empty(pairs * k, dtype=np.uint8) for k in itemsizes],  # each Ax
               np.empty(pairs * itemsizes[0], dtype=np.uint8),  # a lookup, a comparison
               np.empty(pairs, dtype=bool))  # where every group holds
    hit = np.empty(count, dtype=bool)
    for lo in range(0, count, step):
        hit[lo:lo + step] = _chunk_hits(blocks, groups, slice(lo, lo + step), nb,
                                        block, buffers)
    return hit


def _lanes(trials: int, itemsize: int) -> int:
    """Trials padded so that a table row under 32 bytes is a power of two of
    bytes, which `np.take` copies about 3x as fast as other widths."""
    if trials * itemsize >= 32:
        return trials
    return (1 << (trials * itemsize - 1).bit_length()) // itemsize


def _chunk_hits(blocks, groups, trials: slice, nb: int, block: int, buffers):
    """One bool per trial of the chunk: does some member hold in every group?
    Each group is (trial, row, byte) of its hash rows, 2^i for each row i as
    the group's uint, and each trial's slice of b.  The tables are built
    once, then `_block_hits` reads `block` members of `blocks()` at a time
    until every trial has a survivor.  The lanes past the chunk's trials
    (see `_lanes`) have A = 0 and b = 0, so every member holds in them."""
    import numpy as np

    count = len(groups[0][2][trials])
    lanes = _lanes(count, groups[0][1].itemsize)
    chunk = []
    for row_bytes, powers, rhs in groups:
        bits = np.unpackbits(row_bytes[trials], axis=2, count=8 * nb,
                             bitorder="little")
        # column 8p + k of each trial's A, laid out (k, p, lane)
        cols = np.zeros((lanes, 8 * nb), dtype=powers.dtype)
        np.matmul(powers, bits, out=cols[:count])
        cols = np.ascontiguousarray(cols.reshape(lanes, nb, 8).T)
        tables = np.empty((256, nb, lanes), dtype=powers.dtype)
        tables[0] = 0
        for k in range(8):  # entries 2^k..2^(k+1)-1: the ones below, ^ column k
            np.bitwise_xor(tables[:1 << k], cols[k], out=tables[1 << k:2 << k])
        # b joins the tables of byte 0, so the lookups give Ax ^ b, 0 where
        # the group holds
        tables[:, 0, :count] ^= rhs[trials]
        chunk.append(tables.reshape(256 * nb, lanes))
    hit = np.zeros(lanes, dtype=bool)
    for members in blocks():
        # byte p of a member must be its bits 8p..8p+7: read through '<u8',
        # since `_pack` gives one word native uint64, big-endian on a
        # big-endian host
        member_bytes = members.astype("<u8", copy=False).view(np.uint8)[:, :nb]
        for lo in range(0, len(member_bytes), block):
            hit |= _block_hits(member_bytes[lo:lo + block], chunk, buffers)
            if hit.all():
                return hit[:count]
    return hit[:count]


def _block_hits(member_bytes, chunk, buffers):
    """One bool per lane: does one of these members hold in every group?
    `chunk` is each group's tables, entry v of byte p in row nb * v + p;
    the (member, lane) arrays are views of `buffers`.  The members are
    padded with False to a multiple of _FOLD and folded _FOLD at a time
    before `any` reduces them: `any` down a (member, lane) array of a few
    lanes took up to 40x as long."""
    import numpy as np

    size, nb = member_bytes.shape
    lanes = chunk[0].shape[1]
    index, offsets, axs, scratch, alive = buffers
    index = index[:, :size]
    index[...] = member_bytes.T
    index *= nb
    index += offsets
    padded = size + -size % _FOLD
    alive = _pairs(alive, bool, padded, lanes)
    alive[size:] = False
    held = alive[:size]
    for g, tables in enumerate(chunk):
        ax = _pairs(axs[g], tables.dtype, size, lanes)
        np.take(tables, index[0], axis=0, out=ax, mode="clip")
        look = _pairs(scratch, tables.dtype, size, lanes)
        for p in range(1, nb):
            ax ^= np.take(tables, index[p], axis=0, out=look, mode="clip")
        if g:
            held &= np.equal(ax, 0, out=_pairs(scratch, bool, size, lanes))
        else:
            np.equal(ax, 0, out=held)
    return alive.reshape(-1, _FOLD * lanes).any(0).reshape(_FOLD, lanes).any(0)


def _pairs(buffer, dtype, size: int, lanes: int):
    """The start of `buffer` as a (size, lanes) array of dtype."""
    return buffer.view(dtype)[:size * lanes].reshape(size, lanes)


def _model_blocks(formula: CnfFormula):
    """The formula's models in increasing order, as an iterator of nonempty
    uint64 arrays, one per block of assignments (num_vars <= 26, checked
    by `dimacs._model_masks` before any block is read).

    The first block is [0, 2^16); then each block [2^w, 2^(w+1)) doubles
    up to 2^20 assignments, and the rest are 2^20 long, each aligned to its
    own length; a formula of at most 16 variables is one block.  A block
    is its sub-blocks' masks (`dimacs._model_masks`, 2^16 assignments
    each), decoded by `_block_models`; only the sub-blocks of the blocks
    read are evaluated.
    """
    masks = _model_masks(formula)
    size = max(1, 1 << min(formula.num_vars, _SUB_VARS) >> 3)  # bytes a mask

    def blocks():
        read = 0  # a block takes as many sub-blocks as came before it, 1 to 16
        while part := list(islice(masks, min(max(read, 1), 1 << _BLOCK_VARS - _SUB_VARS))):
            read += len(part)
            if any(mask for _, mask in part):
                yield _block_models(part, size)
    return blocks()


def _block_models(part: list, size: int):
    """The models of consecutive sub-blocks, (start, mask) pairs with
    `size`-byte masks, as one increasing uint64 array.

    Each distinct mask is decoded once: the distinct masks are joined as
    bytes and unpacked together, so distinct mask k's models come out
    offset by k masks, and each sub-block i writes the models of its mask
    k into place, shifted by i - k masks, with the block's start.  A mask
    recurs where a variable above the sub-block is in no constraint, or
    its constraints hold either way."""
    import numpy as np

    distinct, which = [], []  # each sub-block's mask is distinct[which[i]]
    for _, mask in part:
        if mask not in distinct:
            distinct.append(mask)
        which.append(distinct.index(mask))
    raw = b"".join(mask.to_bytes(size, "little") for mask in distinct)
    bits = np.unpackbits(np.frombuffer(raw, dtype=np.uint8), bitorder="little")
    models = np.flatnonzero(bits.view(bool)).view(np.uint64)
    width = 8 * size
    bounds = np.searchsorted(
        models, np.arange(len(distinct) + 1, dtype=np.uint64) * np.uint64(width)).tolist()
    out = np.empty(sum(bounds[k + 1] - bounds[k] for k in which), dtype=np.uint64)
    at, start = 0, part[0][0]
    for i, k in enumerate(which):
        got = models[bounds[k]:bounds[k + 1]]
        np.add(got, np.uint64(start + (i - k) * width), out=out[at:at + len(got)])
        at += len(got)
    return out


def _stream(problem: CountingProblem):
    """S of an in-process problem as its packed blocks: those held, read
    without the lock, then each further one added under it.  A CNF
    problem's next block of models is enumerated, projected onto the first
    n variables (masked and deduplicated when n < num_vars), packed and
    kept; an explicit problem has none."""
    import numpy as np

    blocks, i = problem._blocks, 0
    while True:
        if i == len(blocks):
            with problem._lock:
                if i == len(blocks):  # no other thread added it meanwhile
                    if problem._source is None:
                        problem._source = _model_blocks(problem.formula)
                    models = next(problem._source, None)
                    if models is None:
                        return
                    if problem.n < problem.formula.num_vars:
                        models = np.unique(models & np.uint64((1 << problem.n) - 1))
                    blocks.append(models.reshape(-1, 1))
        yield blocks[i]
        i += 1


def _check_assignment(formula: CnfFormula, bits: int) -> bool:
    for cl in formula.clauses:
        if not any((bits >> (l - 1)) & 1 if l > 0 else not (bits >> (-l - 1)) & 1
                   for l in cl):
            return False
    for sup, rhs in formula.xors:
        parity = 0
        for v in sup:
            parity ^= (bits >> (v - 1)) & 1
        if parity != rhs:
            return False
    return True


def _kill_group(proc: subprocess.Popen) -> None:
    """Kill the solver and every process it started: it leads its own
    session (`start_new_session`), so they share its process group."""
    if proc.returncode is None:  # not reaped, so the pid is still its own
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except OSError:  # the whole group has exited
            pass


class _Batch:
    """The solver processes one `has_survivors` call has running.  Once
    stopped, it kills each of them, and each one that joins later."""

    def __init__(self):
        self._lock = threading.Lock()
        self._running = set()
        self._stopped = False

    @contextmanager
    def holding(self, proc: subprocess.Popen):
        """`proc` is in the batch while the body runs; on the way out its
        group is killed unless it has exited (the budget ran out, or an
        interrupt came)."""
        with self._lock:
            self._running.add(proc)
            stopped = self._stopped
        try:
            if stopped:
                _kill_group(proc)
            yield
        finally:
            with self._lock:
                self._running.discard(proc)
            _kill_group(proc)

    def stop(self) -> None:
        with self._lock:
            self._stopped = True
            running = list(self._running)
        for proc in running:
            _kill_group(proc)


# in a `has_survivors` pool thread, `.batch` is that call's `_Batch`, set
# once by the pool's initializer, not passed, so `has_survivor` and
# `run_external` keep the signatures that wrappers of them (perfbench's
# probe) and stand-ins call
_worker = threading.local()


def run_external(instance_text: str, profile: SolverProfile) -> OracleVerdict:
    """Write the instance, run the solver command, parse the s/v protocol.

    A timeout, a command that cannot be started, an s line answering
    neither SATISFIABLE nor UNSATISFIABLE, and output without exactly one
    s line or with a bad v line (a token that is not an integer, or a
    literal past the N variables of the instance's "p cnf N M" header) are
    `unknown`, with stats["reason"] saying which; text with no such header
    is refused with the ParseError `dimacs.parse` gives, before any solver
    runs.
    Output bytes that do not decode are replaced: the s and v lines are
    ASCII, so no answer depends on them.  The solver runs in a session of
    its own, and on a timeout or an interrupt its whole process group is
    killed and reaped, so no process a wrapper script started outlives
    the call.  Run for `has_survivors`, the call's solver is in that call's
    `_Batch` too."""
    t0 = time.monotonic()
    # a v line may set only the variables of the "p cnf N M" header
    header = re.search(r"^[ \t]*p[ \t]+cnf[ \t]+(\d+)", instance_text, re.MULTILINE)
    if header is None:
        raise ParseError("missing header")
    num_vars = int(header[1])

    def unknown(reason: str, **stats) -> OracleVerdict:
        return OracleVerdict("unknown", stats={
            "solver_time_s": time.monotonic() - t0, **stats, "reason": reason})

    with tempfile.NamedTemporaryFile(
        "w", suffix=".cnf", prefix="xorcount_", delete=False
    ) as fh:
        fh.write(instance_text)
        path = fh.name
    try:
        cmd = [part.replace("{in}", path) for part in profile.argv]
        try:
            proc = subprocess.Popen(
                cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                errors="replace", start_new_session=True)
        except OSError as exc:  # missing or not executable
            return unknown("cannot start solver", error=str(exc))
        # leaving, `holding` kills the group first; then `proc` closes
        # both pipes and reaps the solver
        with proc, getattr(_worker, "batch", _Batch()).holding(proc):
            try:
                stdout, stderr = proc.communicate(timeout=profile.budget_s)
            except subprocess.TimeoutExpired:
                return unknown("timeout")
        answer = reason = None
        bits = assigned = 0  # the model, and which variables the v lines set
        for line in stdout.splitlines():
            line = line.strip()
            if line.startswith("s "):
                tag = line[2:].strip()
                if answer is not None:
                    reason = "more than one solution line"
                    break
                answer = {"SATISFIABLE": "sat", "UNSATISFIABLE": "unsat"}.get(tag)
                if answer is None:
                    reason = "solver answered %s" % tag
                    break
            elif line.startswith("v "):
                try:
                    lits = [int(tok) for tok in line[2:].split()]
                except ValueError:
                    lits = None
                if lits is None or max(map(abs, lits), default=0) > num_vars:
                    reason = "bad model line"
                    break
                for lit in lits:
                    if lit:  # a later literal of a variable overrides
                        bit = 1 << abs(lit) - 1
                        assigned |= bit
                        bits = bits | bit if lit > 0 else bits & ~bit
        if answer is None and reason is None:
            reason = "no solution line"
        if reason is not None:
            return unknown(reason, exit_code=proc.returncode, stderr=stderr[-2000:])
        stats = {"solver_time_s": time.monotonic() - t0, "exit_code": proc.returncode}
        if answer == "sat" and assigned:
            stats.update(model_bits=bits, assigned_bits=assigned)
        return OracleVerdict(answer, stats=stats)
    finally:
        Path(path).unlink(missing_ok=True)


def _check_hashes(problem: CountingProblem, hashes):
    if len({0 if h is None else h.m for h in hashes}) > 1:
        raise ParameterError("the hashes of one batch must share m")
    for h in hashes:
        if h is not None and h.n != problem.n:
            raise DimensionError("hash width %d != problem width %d" % (h.n, problem.n))


def has_survivor(problem: CountingProblem, h: ParityHash = None, *,
                 solver: SolverProfile) -> OracleVerdict:
    """The solver's answer to "has S an x with h(x) = 0?" on a CNF problem;
    h=None (m = 0) asks whether S is non-empty.

    This is the raw per-call worker that `has_survivors` runs on its pool:
    it asks the solver whatever h is, so the checks of h and its GF(2)
    elimination are made once, by its caller.  The hash rows are conjoined
    once as native XORs; that one formula is the model's recheck, and it
    is sent as x-lines or, without solver.native_xor, as its `expand_xors`
    at solver.chunk.  The verdict is returned as `run_external` parsed it,
    its model in stats["model_bits"], once that model passes the recheck.
    A SAT answer must carry a model over every formula variable, else the
    verdict is unknown ("no model"); a model failing the recheck is a hard
    integrity error, never silently accepted.  A problem with no formula
    (an explicit set) is refused with a ParameterError.
    """
    if problem.formula is None:
        raise ParameterError("has_survivor asks a solver, so it needs a CNF problem")
    conj = problem.formula if h is None else conjoin(problem.formula, h)
    text = emit(conj if solver.native_xor else expand_xors(conj, chunk=solver.chunk))
    verdict = run_external(text, solver)
    if verdict.answer != "sat":
        return verdict
    full = (1 << conj.num_vars) - 1
    if verdict.stats.get("assigned_bits", 0) & full != full:
        return OracleVerdict("unknown", stats=dict(verdict.stats, reason="no model"))
    bits = verdict.stats.get("model_bits", 0)
    if not _check_assignment(conj, bits):
        raise IntegrityError("solver witness fails in-process recheck")
    return verdict


def _echelon(h: ParityHash):
    """Gaussian elimination over h's rows as Python ints, each shifted left
    by one with its bit of b below: a reduced row is kept as the pivot of
    its top bit unless that bit has one, which it is XORed with.  The
    pivots as a tuple, each with a top bit of its own (variable top - 1 is
    bit top - 2 of a row), or None when a row reduces to 1, the equation
    0 = 1: then Ax = b has no solution.  A tuple, not the dict of the
    elimination, since `has_survivors` keeps one per trial for `_decide`."""
    pivots = {}
    for i, row in enumerate(h.rows):
        r = row << 1 | h.b_bits >> i & 1
        while r > 1:
            top = r.bit_length()
            if top not in pivots:
                pivots[top] = r
                break
            r ^= pivots[top]
        else:
            if r:
                return None
    return tuple(pivots.values())


def _decide(formula: CnfFormula, pivots: tuple):
    """Has the formula a model in the cell of the hash whose `_echelon`
    gave `pivots`?  None when the cell, over all num_vars variables, holds
    more than 2^_SUB_VARS assignments.

    The d free variables, those that top no pivot, are the bit slices of
    2^d assignments (`dimacs._slices`), so each variable is a mask over
    them.  A pivot's other variables all lie below its top, so taken from
    the lowest top up, each pivot variable is its row's b XOR masks already
    known.  The formula is then evaluated as
    `dimacs._model_masks` evaluates a sub-block: a clause is the OR of its
    literals' masks, a parity row the XOR of its variables' masks, and the
    cell has a model where all of them hold."""
    d = formula.num_vars - len(pivots)
    if d > _SUB_VARS:
        return None
    full = (1 << (1 << d)) - 1
    slices = iter(_slices(d)[0])
    tops = {r.bit_length() for r in pivots}
    value = [0 if v + 2 in tops else next(slices) for v in range(formula.num_vars)]
    for r in sorted(pivots):  # by top bit, the tops being distinct
        top = r.bit_length()
        mask = full if r & 1 else 0
        rest = r >> 1 ^ 1 << top - 2
        while rest:
            mask ^= value[(rest & -rest).bit_length() - 1]
            rest &= rest - 1
        value[top - 2] = mask
    alive = full
    for clause in formula.clauses:
        held = 0
        for lit in clause:
            held |= value[lit - 1] if lit > 0 else value[-lit - 1] ^ full
        alive &= held
        if not alive:
            return False
    for sup, rhs in formula.xors:
        parity = 0 if rhs else full
        for v in sup:
            parity ^= value[v - 1]
        alive &= parity
        if not alive:
            return False
    return True


def _survivors(problem: CountingProblem, hashes, pivots) -> list:
    """In-process answers at m >= 1, one bool per hash: has S a member in
    its cell?  The route is the module docstring's.  A CNF estimate whose
    cells hold at most 2^_SUB_VARS assignments in all, the size of S's
    first block, each counted as at least 2^_FLOOR_VARS, is `_decide` on
    each trial's `pivots` alone.  Any other runs the kernel over S's first
    block, then, on a CNF problem, `_decide` on the trials it leaves, and
    the kernel over the rest of S for a cell too large.  The budget is
    checked first, so an estimate decided on its cells loads no numpy."""
    formula = problem.formula
    if formula is not None and sum(
            1 << max(formula.num_vars - len(p), _FLOOR_VARS)
            for p in pivots) <= 1 << _SUB_VARS:
        return [_decide(formula, p) for p in pivots]
    n = problem.n
    rows = _pack([r for h in hashes for r in h.rows], _words(n))
    rows = rows.reshape(len(hashes), hashes[0].m, -1)
    hit = _table_scan(lambda: islice(_stream(problem), 1), hashes, rows, n).tolist()
    if formula is None or not problem._blocks:
        return hit
    scanned = []
    for k, got in enumerate(hit):
        if not got:
            hit[k] = _decide(formula, pivots[k])
            if hit[k] is None:
                scanned.append(k)
    if scanned:
        got = _table_scan(lambda: islice(_stream(problem), 1, None),
                          [hashes[k] for k in scanned], rows[scanned], n)
        for k, g in zip(scanned, got.tolist()):
            hit[k] = g
    return hit


def has_survivors(problem: CountingProblem, hashes,
                  solver: SolverProfile = None) -> list:
    """The answer ("sat", "unsat" or "unknown") to "has S an x with
    h(x) = 0?" for every h in `hashes`, which share m (None for all asks
    m = 0), by the route of the module docstring.  The hashes that the
    elimination leaves (None among them) are asked, in hash order; if none
    is left, no block is read and no pool, thread or temp file is made.

    The solver gets one `has_survivor` call per hash asked.  This is the
    one place that runs them: on a pool of min(solver.jobs, calls)
    threads, whose initializer hands each thread this call's `_Batch`
    once, as `_worker.batch`.  Each call owns its own subprocess and temp
    file, and its answer goes to its hash's slot.  A call that raises (a
    witness failing its recheck, an interrupt), or an interrupt while the
    calls run, cancels every call not yet started and kills the solvers of
    those running (in sessions of their own, they do not get the
    terminal's Ctrl-C); the first error in hash order is raised once the
    started calls have returned.
    """
    _check_hashes(problem, hashes)
    answers = ["unsat"] * len(hashes)
    # each CNF hash's pivots, None where Ax = b has no solution; m = 0 and
    # an explicit set's hashes are not eliminated
    cnf = problem.formula is not None
    pivots = [_echelon(h) if cnf and h is not None else () for h in hashes]
    asked = [i for i, p in enumerate(pivots) if p is not None]
    if not asked:
        return answers
    if not cnf or solver is None:
        picked = [hashes[i] for i in asked]
        if picked[0] is not None:
            hits = _survivors(problem, picked, [pivots[i] for i in asked])
        else:  # m = 0: is S's first block there?
            hits = [next(_stream(problem), None) is not None] * len(picked)
        for i, hit in zip(asked, hits):
            answers[i] = "sat" if hit else "unsat"
        return answers
    # imported here: it loads `logging`, which neither the in-process
    # backends nor a `xorcount solve` child need
    from concurrent.futures import FIRST_EXCEPTION, ThreadPoolExecutor, wait

    batch = _Batch()
    pool = ThreadPoolExecutor(max_workers=min(solver.jobs, len(asked)),
                              initializer=setattr, initargs=(_worker, "batch", batch))
    calls = {i: pool.submit(has_survivor, problem, hashes[i], solver=solver)
             for i in asked}
    finished = False
    try:
        finished = not wait(calls.values(), return_when=FIRST_EXCEPTION).not_done
    finally:
        if not finished:  # a call raised, or an interrupt came
            batch.stop()
        # calls start in hash order, so none cancelled precedes a failure
        pool.shutdown(cancel_futures=True)
    for i, call in calls.items():
        answers[i] = call.result().answer
    return answers
