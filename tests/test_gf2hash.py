import hashlib
import math
import random
import sys
import threading
from fractions import Fraction

import numpy as np
import pytest

from xorcount import gf2hash
from xorcount.gf2hash import (Assignment, DimensionError, HashParams,
                              ParameterError, ParityHash, derive_seed,
                              sample_hash)
from xorcount.errors import CapacityError, ParseError
from conftest import apply_hash, count_survivors, exact_survival_probability


def full_cube(n):
    return [Assignment(b, n) for b in range(1 << n)]


class TestSampleHash:
    def test_f_zero_matrix_all_zero(self):
        h = sample_hash(HashParams(16, 5, 0.0, seed=3))
        assert all(row == 0 for row in h.rows)

    def test_f_half_density_large(self):
        # law-of-large-numbers check on the shipped RNG stream
        h = sample_hash(HashParams(1000, 1000, 0.5, seed=42))
        ones = sum(row.bit_count() for row in h.rows)
        assert abs(ones / 1_000_000 - 0.5) < 0.01

    def test_determinism(self):
        p = HashParams(40, 7, 0.3, seed=999)
        assert sample_hash(p) == sample_hash(p)

    def test_different_seeds_differ(self):
        a = sample_hash(HashParams(40, 7, 0.3, seed=1))
        b = sample_hash(HashParams(40, 7, 0.3, seed=2))
        assert a != b

    def test_row_shape(self):
        h = sample_hash(HashParams(10, 4, 0.5, seed=0))
        assert len(h.rows) == 4
        assert all(0 <= row < (1 << 10) for row in h.rows)
        assert 0 <= h.b_bits < (1 << 4)

    @pytest.mark.parametrize("n,m,f", [(0, 1, 0.5), (4, 0, 0.5), (4, 5, 0.5),
                                       (4, 2, -0.1), (4, 2, 0.6),
                                       (16.0, 8, 0.5), (16, 8.0, 0.5),
                                       (True, 1, 0.5), (4, True, 0.5),
                                       (4, 2, "0.5"), (4, 2, None), (4, 2, False),
                                       (4, 2, 0.5j)])
    def test_invalid_params(self, n, m, f):
        with pytest.raises(ParameterError):
            HashParams(n, m, f)

    @pytest.mark.parametrize("f", [0, Fraction(1, 4), np.float64(0.3), np.float32(0.5)])
    def test_real_densities_are_accepted(self, f):
        assert HashParams(4, 2, f).f == f


def reference_sample_hash(params):
    """The per-entry draw `sample_hash` must reproduce: one rng.random()
    per entry of A, row-major, then one per bit of b."""
    rng = random.Random(params.seed)
    n, m, f = params.n, params.m, params.f
    rows = []
    for _ in range(m):
        row = 0
        for j in range(n):
            if rng.random() < f:
                row |= 1 << j
        rows.append(row)
    b_bits = 0
    for i in range(m):
        if rng.random() < 0.5:
            b_bits |= 1 << i
    return tuple(rows), b_bits


DRAW_NS = (1, 2, 16, 63, 64, 65, 130, 400)
# 0, the least subnormal, a 2^-20 grid point, values just off and at 1/2
DRAW_FS = (0.0, 5e-324, 2.0 ** -20, 0.1, 1 / 3, 0.4999999999999999, 0.5)
DRAW_SEEDS = (0, 1, 2**32 - 1, 2**32, 2**64 - 1, derive_seed(0, 0),
              derive_seed(12345, 7), derive_seed(2**64 - 1, 3))


def draw_grid():
    for n in DRAW_NS:
        for m in sorted({1, 2, n} & set(range(1, n + 1))):
            for f in DRAW_FS:
                for seed in DRAW_SEEDS:
                    yield HashParams(n, m, f, seed=seed)


def draws_of_each_path(p):
    """(rows, b_bits) of sample_hash(p), then of each draw path forced."""
    h = sample_hash(p)
    return [(h.rows, h.b_bits)] + [draw(p.n, p.m, p.f, p.seed) for draw in
                                   (gf2hash._draw_narrow, gf2hash._draw_wide)]


class TestSampleHashDrawContract:
    @pytest.mark.parametrize("n", DRAW_NS)
    def test_matches_per_entry_reference(self, n):
        for p in draw_grid():
            if p.n == n:
                assert draws_of_each_path(p) == [reference_sample_hash(p)] * 3, p

    def test_matches_reference_on_random_params(self):
        rng = random.Random(2014)
        for _ in range(300):
            n = rng.choice([3, 7, 31, 32, 33, 100, 204])
            p = HashParams(n, rng.randint(1, n), rng.random() / 2,
                           seed=rng.getrandbits(64))
            h = sample_hash(p)
            assert (h.rows, h.b_bits) == reference_sample_hash(p), p

    @pytest.mark.parametrize("n", [7, 8, 9, 15, 16, 17, 31, 32, 33, 63, 64, 65])
    def test_row_cut_matches_reference(self, n):
        # n = 8, 16, 32 and 64 cut their rows by one struct unpack, at every
        # m that stays narrow; their neighbours by shift and mask
        if n in (8, 16, 32, 64):
            ms = [m for m in range(1, n + 1) if m * n + m < gf2hash._WIDE_K]
        else:
            ms = [1, 3, min(8, n)]
        for m in ms:
            for f in DRAW_FS:
                for seed in DRAW_SEEDS[::3]:
                    p = HashParams(n, m, f, seed=seed)
                    h = sample_hash(p)
                    want = reference_sample_hash(p)
                    assert (h.rows, h.b_bits) == want, p
                    assert gf2hash._draw_narrow(n, m, f, seed) == want, p

    def test_outputs_pinned(self):
        # sha256 over the whole grid, recorded with the per-entry sampler
        digest = hashlib.sha256()
        for p in draw_grid():
            h = sample_hash(p)
            digest.update(repr((h.rows, h.b_bits)).encode())
        assert digest.hexdigest() == (
            "251653224e1998317106abb11a282d8cd0dd01b048a2c824d8091d798ce44739")


def _shape_of(k):
    """(n, m) with m*n + m == k and m <= n, m as large as it can be."""
    for m in range(math.isqrt(k), 0, -1):
        if k % m == 0 and k // m - 1 >= m:
            return k // m - 1, m


class TestTwoDrawPaths:
    # a draw of k = m*n + m >= _WIDE_K uniforms reads them from numpy's
    # RandomState, a narrower one from CPython's generator
    @pytest.mark.parametrize("k", [gf2hash._WIDE_K - 1, gf2hash._WIDE_K])
    def test_each_path_matches_reference_at_the_cut(self, k):
        # DRAW_SEEDS holds one-word seeds (0, 1, 2^32 - 1): numpy seeds an
        # int, or an array it can squeeze to one, through init_genrand,
        # which draws other hashes for them than init_by_array does
        n, m = _shape_of(k)
        for f in DRAW_FS:
            for seed in DRAW_SEEDS:
                p = HashParams(n, m, f, seed=seed)
                assert draws_of_each_path(p) == [reference_sample_hash(p)] * 3, p

    def test_sample_hash_goes_wide_from_wide_k(self, monkeypatch):
        taken = []
        for name in ("_draw_narrow", "_draw_wide"):
            draw = getattr(gf2hash, name)
            monkeypatch.setattr(gf2hash, name,
                                lambda *a, name=name, draw=draw: taken.append(name) or draw(*a))
        for k in (gf2hash._WIDE_K - 1, gf2hash._WIDE_K):
            n, m = _shape_of(k)
            sample_hash(HashParams(n, m, 0.3, seed=k))
        assert taken == ["_draw_narrow", "_draw_wide"]


class TestApplyHash:
    def test_zero_map(self):
        h = ParityHash((0, 0, 0), 0, HashParams(5, 3, 0.0))
        for x in (0, 7, 31):
            assert apply_hash(h, Assignment(x, 5)) == 0

    def test_identity_matrix(self):
        n = 6
        h = ParityHash(tuple(1 << i for i in range(n)), 0, HashParams(n, n, 0.5))
        for bits in (0, 5, 63, 42):
            assert apply_hash(h, Assignment(bits, n)) == bits

    def test_hand_example(self):
        # a = [1,1,0], b = [1], x = (1,0,1): (1*1 + 1*0 + 0*1 + 1) mod 2 = 0
        h = ParityHash((0b011,), 1, HashParams(3, 1, 0.5))
        assert apply_hash(h, Assignment.from_string("101")) == 0
        # truth-table confirmation against direct arithmetic
        for bits in range(8):
            want = ((bits & 1) ^ ((bits >> 1) & 1) ^ 1)
            assert apply_hash(h, Assignment(bits, 3)) == want

    def test_width_mismatch(self):
        h = sample_hash(HashParams(5, 2, 0.5))
        with pytest.raises(DimensionError):
            apply_hash(h, Assignment(0, 6))

    def test_flipping_b_flips_output_bit(self):
        rng = random.Random(0)
        for _ in range(50):
            h = sample_hash(HashParams(12, 4, 0.4, seed=rng.getrandbits(32)))
            i = rng.randrange(4)
            h2 = ParityHash(h.rows, h.b_bits ^ (1 << i), h.params)
            x = Assignment(rng.getrandbits(12), 12)
            assert apply_hash(h, x) ^ apply_hash(h2, x) == 1 << i


class TestCountSurvivors:
    def test_zero_hash_keeps_everything(self):
        s = full_cube(4)
        h = ParityHash((0, 0), 0, HashParams(4, 2, 0.0))
        assert count_survivors(h, s) == 16

    def test_nonzero_b_kills_everything(self):
        s = full_cube(4)
        h = ParityHash((0, 0), 0b10, HashParams(4, 2, 0.0))
        assert count_survivors(h, s) == 0

    def test_single_parity_halves_cube(self):
        s = full_cube(3)
        for a in range(1, 8):
            for b in (0, 1):
                h = ParityHash((a,), b, HashParams(3, 1, 0.5))
                assert count_survivors(h, s) == 4

    def test_partition_property(self):
        rng = random.Random(5)
        s = [Assignment(b, 10) for b in rng.sample(range(1 << 10), 100)]
        for seed in range(20):
            h = sample_hash(HashParams(10, 3, 0.35, seed=seed))
            nonzero = sum(1 for x in s if apply_hash(h, x) != 0)
            assert count_survivors(h, s) + nonzero == len(s)


class TestExactSurvivalProbability:
    def test_empty_set(self):
        assert exact_survival_probability([], 2, 0.5) == 0

    def test_singleton_zero(self):
        # A*0 = 0, so survival iff b = 0: probability exactly 2^-m
        for m in (1, 2, 3):
            for f in (0.0, 0.25, 0.5):
                p = exact_survival_probability([Assignment(0, 4)], m, f)
                assert p == Fraction(1, 1 << m)

    def test_two_element_hand_case(self):
        # hand enumeration of the 8 (A, b) pairs: A = 00 survives for b=0,
        # A = 01 and 10 survive for either b, A = 11 survives only for b=1:
        # (1 + 2 + 2 + 1) / 8 = 3/4
        s = [Assignment.from_string("01"), Assignment.from_string("10")]
        assert exact_survival_probability(s, 1, 0.5) == Fraction(3, 4)

    def test_full_cube_f_half(self):
        # brute-force cross-check against direct (A, b) enumeration
        s = full_cube(2)
        p = exact_survival_probability(s, 2, 0.5)
        hits = 0
        for amat in range(1 << 4):
            rows = [amat & 3, (amat >> 2) & 3]
            for b in range(4):
                image = {(((r0 & x).bit_count() & 1)
                          | (((r1 & x).bit_count() & 1) << 1)) ^ b
                         for x in range(4)
                         for r0, r1 in [rows]}
                hits += 0 in image
        assert p == Fraction(hits, 1 << 6)

    def test_capacity_error(self):
        with pytest.raises(CapacityError):
            exact_survival_probability(full_cube(5), 5, 0.5)

    def test_fine_grained_f_rejected(self):
        with pytest.raises(ParameterError):
            exact_survival_probability([Assignment(0, 2)], 1, 1 / 3)

    def test_monte_carlo_consistency(self):
        rng = random.Random(11)
        s = [Assignment(b, 3) for b in rng.sample(range(8), 5)]
        m, f, trials = 2, 0.25, 20_000
        exact = float(exact_survival_probability(s, m, f))
        hits = 0
        for k in range(trials):
            h = sample_hash(HashParams(3, m, f, seed=derive_seed(123, k)))
            hits += count_survivors(h, s) >= 1
        se = math.sqrt(exact * (1 - exact) / trials)
        assert abs(hits / trials - exact) < 3 * se


class TestAssignment:
    def test_string_round_trip(self):
        for s in ("0", "1", "0110", "10000001"):
            assert Assignment.from_string(s).to_string() == s

    def test_bit_order(self):
        # leftmost character is variable 1 = bit 0
        assert Assignment.from_string("100").bits == 1
        assert Assignment.from_string("001").bits == 4

    def test_overflow(self):
        with pytest.raises(DimensionError):
            Assignment(4, 2)

    def test_bad_character(self):
        with pytest.raises(ParseError):
            Assignment.from_string("10x")

    @pytest.mark.parametrize("bits,n,error,field", [
        (0, -1, DimensionError, "n"), (-1, -1, DimensionError, "n"),
        (1.5, 4, ParameterError, "bits"), ("1", 4, ParameterError, "bits"),
        (1, 4.0, ParameterError, "n")])
    def test_bad_fields_are_named(self, bits, n, error, field):
        with pytest.raises(error, match="^assignment %s must " % field):
            Assignment(bits, n)

    @pytest.mark.parametrize("s", ["01x", "0_1", "+1", " 01"])
    def test_rejects_what_int_would_accept(self, s):
        # int(s, 2) alone takes underscores, signs and surrounding spaces
        with pytest.raises(ParseError, match="invalid bit"):
            Assignment.from_string(s)

    def test_wide_and_empty_strings(self):
        s = "1" + "0" * 63 + "1"
        x = Assignment.from_string(s)
        assert (x.bits, x.n) == (1 | 1 << 64, 65)
        assert x.to_string() == s
        assert Assignment.from_string("") == Assignment(0, 0)


def test_derive_seed_spreads():
    seeds = {derive_seed(0, k) for k in range(1000)}
    assert len(seeds) == 1000
    assert all(0 <= s < (1 << 64) for s in seeds)


class TestReseededGenerator:
    # one generator per thread is reseeded for every hash; each draw must
    # still be the one random.Random(seed) gives, whatever came before it
    SEEDS = (0, 1, 2**32 - 1, 2**32, 2**64 - 1, 2**64 + 5, -1, -(2**32), -(2**64 + 5))

    @pytest.mark.parametrize("n", [5, 63, 64, 65, 130])
    def test_matches_reference_at_edge_seeds(self, n):
        for seed in self.SEEDS:
            for m in sorted({1, 3, n}):
                for f in (0.1, 0.5):
                    p = HashParams(n, m, f, seed=seed)
                    h = sample_hash(p)
                    assert (h.rows, h.b_bits) == reference_sample_hash(p), p

    def test_negative_seed_draws_its_absolute_value(self):
        h, g = (sample_hash(HashParams(20, 4, 0.3, seed=s)) for s in (-77, 77))
        assert (h.rows, h.b_bits) == (g.rows, g.b_bits)

    def test_threads_draw_what_one_serial_draw_gets(self):
        shapes = [(16, 8), (70, 3), (130, 65), (9, 9)] * 200
        params = [HashParams(n, m, 0.3, seed=derive_seed(5, k))
                  for k, (n, m) in enumerate(shapes)]
        want = [sample_hash(p) for p in params]
        got = [[None] * len(params) for _ in range(4)]
        start = threading.Barrier(4, timeout=60)

        def draw(t):
            start.wait()
            # each thread walks the list from its own offset, so the four
            # threads' draws interleave on different params
            for i in range(len(params)):
                j = (i + 200 * t) % len(params)
                got[t][j] = sample_hash(params[j])

        threads = [threading.Thread(target=draw, args=(t,)) for t in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads between seed and draw
        try:
            for th in threads:
                th.start()
            for th in threads:
                th.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(th.is_alive() for th in threads)
        assert all(g == want for g in got)

    @pytest.mark.parametrize("seed", ["7", b"7", 7.0, None, 2**0.5, True, False])
    def test_seed_must_be_an_int(self, seed):
        with pytest.raises(ParameterError, match="seed must be an int"):
            HashParams(8, 2, 0.5, seed=seed)
