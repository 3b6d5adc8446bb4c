import dataclasses
import hashlib
import math
import random
import warnings
from fractions import Fraction

import pytest

from xorcount.comb import (DensityCertificate, EpsilonInputs, ParameterError,
                           epsilon, min_density_fstar,
                           upper_bound_threshold, variance_bound_v)
from conftest import exact_epsilon


def exact_variance(q, n, m, f):
    """Independent exact-rational evaluation of v(q)."""
    mu = Fraction(q, 1 << m)
    if q == 1:
        return mu * (1 - mu)
    return mu * (1 + exact_epsilon(n, m, q, f) * (q - 1) - mu)


class TestEpsilon:
    def test_f_half_closed_form(self):
        e = epsilon(EpsilonInputs(30, 7, 1000, 0.5))
        assert e == pytest.approx(-7 * math.log(2), rel=1e-12)

    def test_f_zero_is_one(self):
        assert epsilon(EpsilonInputs(30, 7, 1000, 0.0)) == 0.0

    @pytest.mark.parametrize("n,m,q,f", [
        (20, 5, 64, 0.25),
        (12, 4, 100, 0.125),
        (40, 10, 5000, 0.375),
        (8, 3, 9, 0.25),       # w* = 1, remainder active
        (25, 6, 26, 0.0625),   # q - 1 = n: exactly the weight-1 shell
    ])
    def test_against_exact_rational(self, n, m, q, f):
        got = epsilon(EpsilonInputs(n, m, q, f))
        want = math.log(exact_epsilon(n, m, q, f))
        assert got == pytest.approx(want, rel=1e-9, abs=1e-9)

    def test_shells_stop_at_w_star(self):
        # w* is the largest w with C(n,1) + ... + C(n,w) <= q - 1, found
        # here from math.comb alone, without the walk epsilon makes
        rng = random.Random(2)
        for _ in range(200):
            n = rng.randint(1, 60)
            m = rng.randint(1, n)
            q = rng.randint(2, 1 << n)
            f = Fraction(rng.randint(1, 31), 64)
            shells = [math.comb(n, j) for j in range(1, n + 1)]
            w = 0
            while w < n and sum(shells[:w + 1]) <= q - 1:
                w += 1
            sizes = shells[:w] + [q - 1 - sum(shells[:w])]
            want = sum(size * (Fraction(1, 2) + (1 - 2 * f) ** (j + 1) / 2) ** m
                       for j, size in enumerate(sizes)) / (q - 1)
            got = epsilon(EpsilonInputs(n, m, q, float(f)))
            assert got == pytest.approx(math.log(want), rel=1e-9, abs=1e-9)

    def test_nonincreasing_in_f(self):
        rng = random.Random(31)
        grid = [k / 98 for k in range(50)]  # 50 points spanning [0, 1/2]
        for _ in range(200):
            n = rng.randint(1, 40)
            m = rng.randint(1, n)
            q = rng.randint(2, 1 << n)
            prev = float("inf")
            for f in grid:
                cur = epsilon(EpsilonInputs(n, m, q, f))
                assert cur <= prev + 1e-9
                prev = cur

    def test_input_validation(self):
        with pytest.raises(ParameterError):
            EpsilonInputs(5, 6, 4, 0.5)
        with pytest.raises(ParameterError):
            EpsilonInputs(5, 2, 1, 0.5)
        with pytest.raises(ParameterError):
            EpsilonInputs(5, 2, 33, 0.5)
        with pytest.raises(ParameterError):
            EpsilonInputs(5, 2, 4, 0.7)

    @pytest.mark.parametrize("n,m,q,name", [
        (10, True, 4, "m"), (10, 3.0, 64, "m"), (10, 3, 4.5, "q"),
        (True, 1, 2, "n"), (10.0, 3, 64, "n"), (10, 3, False, "q")])
    def test_non_int_inputs_are_refused(self, n, m, q, name):
        # a bool passed as 1, a float m as 3, and a float q raised
        # AttributeError from int.bit_length
        with pytest.raises(ParameterError, match="^%s must be an int, got " % name):
            EpsilonInputs(n, m, q, 0.3)


class TestVarianceBound:
    def test_f_half_closed_form(self):
        for q in (1, 2, 37, 4096):
            v = variance_bound_v(q, 20, 5, 0.5)
            want = (q / 32) * (1 - 1 / 32)
            assert math.exp(v) == pytest.approx(want, rel=1e-9)

    def test_q_one_singleton_variance(self):
        v = variance_bound_v(1, 10, 3, 0.2)
        assert math.exp(v) == pytest.approx((1 / 8) * (1 - 1 / 8), rel=1e-12)

    def test_against_exact_rational(self):
        got = variance_bound_v(100, 12, 4, 0.1)
        want = math.log(exact_variance(100, 12, 4, 0.1))
        assert got == pytest.approx(want, rel=1e-9)

    def test_invalid_q(self):
        with pytest.raises(ParameterError):
            variance_bound_v(0, 10, 3, 0.5)

    @pytest.mark.parametrize("q,n,m,name", [
        (2.5, 10, 3, "q"), (1.0, 10, 3, "q"), (True, 10, 3, "q"),
        (4, 10, True, "m"), (4, 10.0, 3, "n")])
    def test_non_int_inputs_are_refused(self, q, n, m, name):
        with pytest.raises(ParameterError, match="^%s must be an int, got " % name):
            variance_bound_v(q, n, m, 0.3)


class TestUpperBoundThreshold:
    def test_f_half_closed_form(self):
        for m in range(1, 11):
            assert upper_bound_threshold(m + 4, m, 0.5) == 3 * (1 << m) - 3

    def test_matches_exhaustive_scan(self):
        from xorcount.comb import _threshold_predicate
        for n, m, f in [(10, 3, 0.2), (12, 4, 0.35), (10, 2, 0.05),
                        (14, 5, 0.5), (10, 4, 0.45)]:
            got = upper_bound_threshold(n, m, f)
            scan = next((z for z in range(1, (1 << n) + 1)
                         if _threshold_predicate(z, n, m, f)), 1 << n)
            assert got == scan

    def test_predicate_monotone(self):
        from xorcount.comb import _threshold_predicate
        rng = random.Random(17)
        for _ in range(20):
            n = rng.randint(4, 14)
            m = rng.randint(1, min(6, n))
            f = rng.uniform(0.02, 0.5)
            fired = False
            for z in range(1, 1 << min(n, 10)):
                cur = _threshold_predicate(z, n, m, f)
                assert cur or not fired  # pred(z1) implies pred(z2 > z1)
                fired = fired or cur

    def test_sentinel(self):
        # a tiny cube where the ratio never drops: fall back to 2^n
        n, m = 3, 3
        assert upper_bound_threshold(n, m, 0.5) == 1 << n

    @pytest.mark.parametrize("n,m,f", [(16, 8, 0.0), (3, 3, 0.5), (14, 5, 0.5),
                                       (10, 3, 0.2), (12, 4, 0.35), (1, 1, 0.5)])
    def test_no_z_is_evaluated_twice(self, monkeypatch, n, m, f):
        # with no qualifying z, the probe's last point 2^n was once tested
        # again before the sentinel was returned, and the binary search
        # could test the last failing probe point again
        from xorcount import comb
        asked = []
        predicate = comb._threshold_predicate

        def counting(z, *args):
            asked.append(z)
            return predicate(z, *args)

        monkeypatch.setattr(comb, "_threshold_predicate", counting)
        got = upper_bound_threshold(n, m, f)
        assert len(asked) == len(set(asked))
        assert max(asked) <= 1 << n
        assert got == next((z for z in range(1, (1 << n) + 1)
                            if predicate(z, n, m, f)), 1 << n)


class TestMinDensityFstar:
    def test_huge_slack_pushes_f_below_half(self):
        cert = min_density_fstar(64, 6, 1 << 30, 2.25)
        assert cert.met_at_half
        assert cert.f_star < 0.5

    def test_minimality_witness(self):
        cert = min_density_fstar(204, 56, 1 << 58, 2.25)
        assert cert.condition_value <= cert.threshold_log + 1e-12
        below = epsilon(EpsilonInputs(204, 56, 1 << 58, cert.f_star - 1e-4))
        assert below > cert.threshold_log

    def test_bracket_contains_fstar(self):
        cert = min_density_fstar(76, 15, 1 << 17, 2.25)
        assert cert.bracket_lo <= cert.f_star <= cert.bracket_hi
        assert cert.bracket_hi - cert.bracket_lo <= cert.tolerance

    def test_c_property(self):
        cert = min_density_fstar(64, 6, 1 << 8, 2.25)
        assert cert.c == pytest.approx(2.0)

    def test_delta_validation(self):
        with pytest.raises(ParameterError):
            min_density_fstar(20, 4, 64, 2.0)

    @pytest.mark.parametrize("delta", [math.nan, math.inf])
    def test_non_finite_delta_is_refused(self, delta):
        with pytest.raises(ParameterError, match="delta"):
            min_density_fstar(20, 4, 64, delta)

    @pytest.mark.parametrize("tol", [0.0, -1e-3, math.nan])
    def test_tolerance_validation(self, tol):
        with pytest.raises(ParameterError, match="tol"):
            min_density_fstar(204, 56, 1 << 58, 2.25, tol=tol)

    def test_tolerance_below_float_spacing_still_ends(self):
        # the bracket stops shrinking once no float lies strictly inside it
        cert = min_density_fstar(204, 56, 1 << 58, 2.25, tol=1e-300)
        lo, hi = cert.bracket_lo, cert.bracket_hi
        assert lo < cert.f_star == hi and not lo < 0.5 * (lo + hi) < hi

    def test_mu_below_one_warns(self):
        with pytest.warns(UserWarning):
            min_density_fstar(20, 6, 32, 2.25)


class TestPinned:
    # every value comb returns on a seeded grid, bit for bit, on every
    # Python: epsilon adds its shell terms with math.fsum, exactly rounded,
    # where sum() of floats is compensated only from 3.12 on
    OUTPUTS_SHA256 = "3b21d0671fca545251612124359b6940f5d25b62d43db169b2b7f9e5d70abb77"

    def test_outputs_are_pinned(self):
        rng = random.Random(28)
        digest = hashlib.sha256()

        def pin(*values):
            digest.update(repr(values).encode())

        with warnings.catch_warnings(record=True) as clamped:
            warnings.simplefilter("always")
            for k in range(400):
                n = rng.randint(1, 400)
                m = rng.randint(1, n)
                # q - 1 = n fills exactly the weight-1 shell (remainder 0)
                q = n + 1 if k % 8 == 0 else rng.randint(2, 1 << n)
                f = rng.choice((0.0, 0.5, rng.uniform(0.0, 0.5),
                                rng.uniform(0.0, 0.05)))
                pin(epsilon(EpsilonInputs(n, m, q, f)),
                    variance_bound_v(q, n, m, f),
                    variance_bound_v(1, n, m, f))
        pin([str(w.message) for w in clamped])
        shapes = [(20, 10), (400, 11)] + [(16, m) for m in range(1, 17)]
        for n, m in shapes:
            for f in (0.1, 0.3, 0.5):
                pin(upper_bound_threshold(n, m, f))
        for n, m, q, delta in [(204, 56, 1 << 58, 2.25), (64, 6, 1 << 30, 2.25),
                               (76, 15, 1 << 17, 2.25), (20, 4, 64, 2.25),
                               (400, 11, 1 << 13, 2.25), (204, 56, 1 << 60, 3.0),
                               (100, 20, 1 << 21, 2.0001), (20, 5, 1 << 7, 100.0)]:
            pin(dataclasses.astuple(min_density_fstar(n, m, q, delta)))
        pin(dataclasses.astuple(min_density_fstar(204, 56, 1 << 58, 2.25,
                                                  tol=1e-300)))
        with pytest.warns(UserWarning, match="mu < 1"):
            pin(dataclasses.astuple(min_density_fstar(204, 56, 1 << 55, 2.25)))
        assert digest.hexdigest() == self.OUTPUTS_SHA256
