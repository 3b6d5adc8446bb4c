"""Sparse random parity (XOR) hash functions over GF(2).

A hash h_{A,b}(x) = Ax + b mod 2 maps {0,1}^n to {0,1}^m.  Rows of A are
drawn entrywise Bernoulli(f) with f <= 1/2, b is a uniform m-bit vector.
Rows and assignments are bit-packed into Python ints, bit j holding
variable j + 1.

Draw contract: a hash is a function of (n, m, f, seed) alone, n, m and
the seed ints (`HashParams` refuses bools and any other type).  It is the
one that `random.Random(seed)` gives by comparing one `random()` per entry
of A, row-major, against f, then one per bit of b against 1/2.
`sample_hash` does not build that generator, and reads all k = m*n + m
uniforms at once from one of two Mersenne Twisters that each thread keeps
and reseeds per hash with abs(seed)'s 32-bit words through
`init_by_array`, the state `random.Random(seed)` starts from.  Below
`_WIDE_K` uniforms it is CPython's (the C base of `random.Random`): one
`getrandbits` call, whose 32-bit outputs, lowest word first, are the ones
`random()` reads two at a time, and the comparisons rebuilt exactly from
them in three steps: each entry decided by its top byte through translate
tables built once per process (the rare ties on all 53 bits), all k parsed
as one int, and the rows cut from it by one `struct` unpack where n is 8,
16, 32 or 64, by shift and mask otherwise.  At n = 16, m = 8 that costs
about 10.5 us a draw, of which the reseed and `getrandbits` are about 7 us
(2-vCPU x86 VM, Python 3.11).  From `_WIDE_K` on it is numpy's legacy
`RandomState`, whose `random_sample` makes each double from two outputs as
`random()` does; NEP 19 freezes that stream.  Neither runs the per-entry
loop, and only wide draws import numpy.random.
"""

from __future__ import annotations

import _random
import math
import struct
import threading
from dataclasses import dataclass

from .errors import DimensionError, ParameterError, ParseError

__all__ = [
    "HashParams",
    "ParityHash",
    "Assignment",
    "derive_seed",
    "sample_hash",
]

_WORDS = struct.Struct("<II")  # the two 32-bit outputs behind one random()

# _decide[top] holds the translate tables of a threshold t with top byte
# top = t >> 45 (t <= 2^52, so top <= 128), mapping an entry's top byte to
# "1" below t's and "0" above it: [0] for t whose low 45 bits are 0, where
# an equal top byte means u >= t, and [1] for the rest, where it is "?", a
# tie `_draw_narrow` resolves on all 53 bits.  `_row_cut[m, n]` unpacks m
# little-endian n-bit rows, for n in _ROW_CODES.  Both fill at first use,
# each entry always to the same value, so threads may fill one at once.
_decide = {}
_row_cut = {}
_HALF = b"1" * 128 + b"0" * 128  # t = 2^52: a fair coin of b
_LOW = (1 << 45) - 1
_ROW_CODES = {8: "B", 16: "H", 32: "I", 64: "Q"}

# Draws of at least this many uniforms (k = m*n + m) take `_draw_wide`,
# whose first draw in a process imports numpy.random.  Measured on a
# 2-vCPU x86 VM (Python 3.11, numpy 2.4), in processes that had loaded
# cli, oracle and bounds: the import took 9.4-14 ms, and a wide draw saved
# about 20 ns per uniform over a narrow one (37-52 us at k = 2,500, f =
# 1/2).  The ~170 draws of one default `xorcount bound lb` win the import
# back from k of about 3,500; at 2,500 they win back half of it or more,
# and a process that runs several estimates (a `sweep`, a library caller)
# all of it.  Those processes had numpy itself loaded already.  One that
# has not (a solver-backed or cell-decided estimate, which `oracle`
# answers without numpy) pays numpy's whole import at its first wide draw:
# a median 137 ms against 18 ms (7 fresh processes each, same VM,
# OPENBLAS_NUM_THREADS=1, no cached bytecode), which this value was not
# measured against.  Paper-scale solver runs (n = 204, m about 56: k =
# 11,480) are past it, so they still load numpy at their first draw; only
# narrower draws start without it.  Once numpy.random is loaded, the wide
# draw is the cheaper one from k of about 520 (same VM, f = 0.3): 30 against
# 63 us at n = 256, m = 8, and 38 against 99 us at n = 144, m = 16.  A
# cut that moved on whether numpy.random is in sys.modules changed the
# synth-tables benchmark by about 2%, within its run-to-run spread, so the
# value stays.
_WIDE_K = 2_500


class _Generator(threading.local):
    """Each thread's Mersenne Twisters, reseeded for every hash: CPython's
    (the C base of `random.Random`), and numpy's legacy `RandomState` for
    wide draws, made at the thread's first one."""

    def __init__(self):
        self.rng = _random.Random()
        self.wide = None


_generator = _Generator()


def _check_density(f: float):
    """Refuse a constraint density outside [0, 1/2], nan included."""
    if not 0.0 <= f <= 0.5:
        raise ParameterError("density f must lie in [0, 1/2], got %r" % (f,))


@dataclass(frozen=True)
class HashParams:
    """Parameters of the hash family: n variables, m constraints, density f.
    n, m and seed must be ints, not bools."""

    n: int
    m: int
    f: float
    seed: int = 0

    def __post_init__(self):
        n, m = self.n, self.m
        # one test for plain ints, since every trial builds a HashParams
        if not type(n) is type(m) is type(self.seed) is int:
            for name in ("n", "m", "seed"):
                value = getattr(self, name)
                if isinstance(value, bool) or not isinstance(value, int):
                    raise ParameterError("%s must be an int, got %r" % (name, value))
        if n < 1 or m < 1:
            raise ParameterError("n and m must be positive, got n=%d m=%d" % (n, m))
        if m > n:
            raise ParameterError("m=%d exceeds n=%d" % (m, n))
        _check_density(self.f)


_NOT_BITS = str.maketrans("", "", "01")  # deletes the valid characters


@dataclass(frozen=True)
class Assignment:
    """An element of {0,1}^n, bit j of `bits` holding x_j."""

    bits: int
    n: int

    def __post_init__(self):
        if self.bits < 0 or self.bits >> self.n:
            raise DimensionError("assignment does not fit in %d bits" % self.n)

    @classmethod
    def from_string(cls, s: str) -> "Assignment":
        """Parse a 0/1 string, leftmost character = variable 1 (bit 0)."""
        rest = s.translate(_NOT_BITS)
        if rest:
            raise ParseError("invalid bit %r" % rest[0])
        return cls(int(s[::-1], 2) if s else 0, len(s))

    def to_string(self) -> str:
        return "".join("1" if (self.bits >> j) & 1 else "0" for j in range(self.n))


@dataclass(frozen=True)
class ParityHash:
    """A sampled hash: rows[i] packs row i of A, bit i of b_bits is b_i."""

    rows: tuple[int, ...]
    b_bits: int
    params: HashParams

    @property
    def m(self) -> int:
        return self.params.m

    @property
    def n(self) -> int:
        return self.params.n


def derive_seed(master: int, index: int) -> int:
    """Per-trial seed: splitmix64 of master ^ index, so trials are independent
    streams but fully reproducible from the master seed."""
    z = (master ^ (index * 0x9E3779B97F4A7C15)) & 0xFFFFFFFFFFFFFFFF
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & 0xFFFFFFFFFFFFFFFF
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & 0xFFFFFFFFFFFFFFFF
    return z ^ (z >> 31)


def sample_hash(params: HashParams) -> ParityHash:
    """Draw h_{A,b} from the f-sparse family.

    The draw order is row-major over A (one uniform per entry, compared
    against f), then one fair coin per entry of b.  Equal params give
    identical output, the same hash that k = m*n + m calls of
    `random.Random(params.seed).random()` would give.  A draw of fewer
    than `_WIDE_K` uniforms reads them from this thread's CPython Mersenne
    Twister (`_draw_narrow`), a wider one from its numpy `RandomState`
    (`_draw_wide`); both reseed their generator with params.seed.
    """
    n, m = params.n, params.m
    draw = _draw_wide if m * n + m >= _WIDE_K else _draw_narrow
    rows, b_bits = draw(n, m, params.f, params.seed)
    return ParityHash(rows, b_bits, params)


def _draw_narrow(n: int, m: int, f: float, seed: int):
    """(rows, b_bits) of `sample_hash` from CPython's Mersenne Twister.

    All k uniforms come from one `getrandbits(64*k)` call, which consumes
    the same 2k 32-bit outputs, in the same order, as k `random()` calls.
    `random()` returns u / 2^53 with u = ((a >> 5) << 26) | (b >> 6) for
    its two outputs a, b, so `random() < f` holds exactly when u < ceil(f
    * 2^53) (f * 2^53 is an exact double).  Little-endian, entry e's a and
    b are bytes 8e..8e+7, and byte 8e+3 is u's top 8 bits.  The draw then
    takes three steps:

    1. Each threshold's 256-byte translate table, built once per process
       (`_decide`), maps every top byte below the threshold's to "1" and
       every one above it to "0".  An equal one, ~1/256 of entries, is
       "0" where the threshold's low 45 bits are 0 and a tie, "?", else.
    2. The A entries are translated against ceil(f * 2^53), the b entries
       against 2^52, the ties compared in full, and the k characters parsed
       as one int: entry (i, j) of A at bit i*n + j, b from bit m*n up.
    3. Where n is 8, 16, 32 or 64, one `struct` unpack (`_row_cut`) cuts
       the m rows from that int's low m*n bits' bytes; other widths cut
       them by shift and mask, which costs time quadratic in m (draws that
       wide take `_draw_wide`).

    At n = 16, m = 8 a draw costs about 10.5 us on a 2-vCPU x86 VM
    (Python 3.11), of which the reseed and `getrandbits` are about 7 us.
    """
    mn = m * n
    k = mn + m
    rng = _generator.rng
    rng.seed(seed)
    raw = rng.getrandbits(64 * k).to_bytes(8 * k, "little")
    tops = raw[3::8]
    t = math.ceil(f * 2.0**53)
    top = t >> 45
    tables = _decide.get(top)
    if tables is None:
        tables = _decide[top] = (b"1" * top + b"0" * (256 - top),
                                 b"1" * top + b"?" + b"0" * (255 - top))
    table = tables[t & _LOW != 0]
    bits = tops[:mn].translate(table) + tops[mn:].translate(_HALF)
    e = bits.find(b"?")
    if e >= 0:
        bits = bytearray(bits)
        while e >= 0:
            a, b = _WORDS.unpack_from(raw, 8 * e)
            bits[e] = 49 if ((a >> 5) << 26 | b >> 6) < t else 48  # "1" / "0"
            e = bits.find(b"?", e + 1)
    v = int(bits[::-1], 2)
    code = _ROW_CODES.get(n)
    if code is None:
        mask = (1 << n) - 1
        # a list, not a generator: tuple(genexpr) raised peak RSS by 2 MB
        # over 60k draws at n = 16, where tuple(list) raised it by nothing
        rows = tuple([v >> i & mask for i in range(0, mn, n)])
    else:
        cut = _row_cut.get((m, n))
        if cut is None:
            cut = _row_cut[m, n] = struct.Struct("<%d%s" % (m, code))
        rows = cut.unpack_from(v.to_bytes((k + 7) >> 3, "little"))
    return rows, v >> mn


def _draw_wide(n: int, m: int, f: float, seed: int):
    """(rows, b_bits) of `sample_hash` from numpy's legacy Mersenne Twister.

    `RandomState.seed` given a list of 32-bit words runs the same
    `init_by_array` as `random.Random(seed)` does on abs(seed)'s words
    (given an int, or an ndarray it can squeeze to one, it runs
    `init_genrand` instead, a different stream), and `random_sample`
    returns the doubles ((a >> 5) * 2^26 + (b >> 6)) / 2^53 that
    `random()` does.  NEP 19 freezes that stream.  CPython's generator,
    with numpy doing only the comparisons and the row cut, drew the same
    hashes 2.2-3.3x slower (68-126 against 30-45 us at n = 256-401, m =
    7-11; 3.1 against 0.93 ms at n = 1001, m = 100), most of it spent
    building and converting the `getrandbits` int.  Each row is packed to
    bytes, bit j at bit j, and read as one int.  The first call in a
    process imports numpy.random, and with it numpy itself where nothing
    else has loaded it (see _WIDE_K).
    """
    import numpy.random  # only draws this wide load it (see _WIDE_K)

    rs = _generator.wide
    if rs is None:
        rs = _generator.wide = numpy.random.RandomState()
    s = abs(seed)
    rs.seed([s >> i & 0xFFFFFFFF for i in range(0, s.bit_length() or 1, 32)])
    mn = m * n
    u = rs.random_sample(mn + m)
    packed = numpy.packbits((u[:mn] < f).reshape(m, n), axis=1,
                            bitorder="little").tobytes()
    w = (n + 7) >> 3
    rows = tuple([int.from_bytes(packed[i : i + w], "little")
                  for i in range(0, m * w, w)])
    b_bits = int.from_bytes(numpy.packbits(u[mn:] < 0.5, bitorder="little").tobytes(),
                            "little")
    return rows, b_bits
