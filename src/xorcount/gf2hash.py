"""Sparse random parity (XOR) hash functions over GF(2).

A hash h_{A,b}(x) = Ax + b mod 2 maps {0,1}^n to {0,1}^m.  Rows of A are
drawn entrywise Bernoulli(f) with f <= 1/2, b is a uniform m-bit vector.
Rows and assignments are bit-packed into Python ints, bit j holding
variable j + 1.

Draw contract: a hash is a function of (n, m, f, seed) alone, the seed an
int (`HashParams` refuses any other type).  It is the one that
`random.Random(seed)` gives by comparing one `random()` per entry of A,
row-major, against f, then one per bit of b against 1/2.  `sample_hash`
does not build that generator, and reads all k = m*n + m uniforms at once
from one of two Mersenne Twisters that each thread keeps and reseeds per
hash with abs(seed)'s 32-bit words through `init_by_array`, the state
`random.Random(seed)` starts from.  Below `_WIDE_K` uniforms it is CPython's
(the C base of `random.Random`): one `getrandbits` call, whose 32-bit
outputs, lowest word first, are the ones `random()` reads two at a time,
and the comparisons rebuilt exactly from them.  From `_WIDE_K` on it is
numpy's legacy `RandomState`, whose `random_sample` makes each double from
two outputs as `random()` does; NEP 19 freezes that stream.  Neither runs
the per-entry loop, and only wide draws import numpy.random.
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
# narrower draws start without it.
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
    """Parameters of the hash family: n variables, m constraints, density f."""

    n: int
    m: int
    f: float
    seed: int = 0

    def __post_init__(self):
        if self.n < 1 or self.m < 1:
            raise ParameterError("n and m must be positive, got n=%d m=%d" % (self.n, self.m))
        if self.m > self.n:
            raise ParameterError("m=%d exceeds n=%d" % (self.m, self.n))
        _check_density(self.f)
        if not isinstance(self.seed, int):
            raise ParameterError("seed must be an int, got %r" % (self.seed,))


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


def _below(raw: bytes, tops: bytes, t: int) -> bytes:
    """b"1" for each entry e of `tops` whose u (from raw[8e:8e+8]) is < t,
    else b"0"."""
    top = t >> 45
    if not t & ((1 << 45) - 1):
        # u >= t for every u whose top byte is t's
        return tops.translate(b"1" * top + b"0" * (256 - top))
    bits = bytearray(tops.translate(b"1" * top + b"?" + b"0" * (255 - top)))
    e = bits.find(b"?")
    while e >= 0:
        a, b = _WORDS.unpack_from(raw, 8 * e)
        bits[e] = 49 if ((a >> 5) << 26 | b >> 6) < t else 48  # "1" / "0"
        e = bits.find(b"?", e + 1)
    return bits


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
    b are bytes 8e..8e+7, and byte 8e+3 is u's top 8 bits: a 256-byte
    translate table decides every entry whose top byte differs from the
    threshold's, and the ~1/256 that tie are compared in full.  The m*n
    entries of A become one int, entry (i, j) at bit i*n + j, and row i is
    cut from it by shift and mask, which costs time quadratic in m; draws
    that wide take `_draw_wide`.
    """
    mn = m * n
    k = mn + m
    rng = _generator.rng
    rng.seed(seed)
    raw = rng.getrandbits(64 * k).to_bytes(8 * k, "little")
    tops = raw[3::8]
    a = int(_below(raw, tops[:mn], math.ceil(f * 2.0**53))[::-1], 2)
    mask = (1 << n) - 1
    # a list, not a generator: tuple(genexpr) raised peak RSS by 2 MB over
    # 60k draws at n = 16, where tuple(list) raised it by nothing
    rows = tuple([a >> i & mask for i in range(0, mn, n)])
    b_bits = int(_below(raw[8 * mn :], tops[mn:], 1 << 52)[::-1], 2)
    return rows, b_bits


def _draw_wide(n: int, m: int, f: float, seed: int):
    """(rows, b_bits) of `sample_hash` from numpy's legacy Mersenne Twister.

    `RandomState.seed` given a list of 32-bit words runs the same
    `init_by_array` as `random.Random(seed)` does on abs(seed)'s words
    (given an int, or an ndarray it can squeeze to one, it runs
    `init_genrand` instead, a different stream), and `random_sample`
    returns the doubles ((a >> 5) * 2^26 + (b >> 6)) / 2^53 that
    `random()` does.  NEP 19 freezes that stream.  Each row is packed to
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
