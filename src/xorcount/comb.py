"""Closed-form combinatorial quantities behind the hashing bounds.

Every probability-scale quantity is returned as its natural log, a plain
float, -inf for an exact zero, because terms like C(576, 288) overflow
binary64 by hundreds of orders of magnitude.  Set-size hypotheses q are
arbitrary Python ints, as are the prefix sums of binomials that define w*.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

from .errors import ParameterError

__all__ = [
    "EpsilonInputs",
    "DensityCertificate",
    "epsilon",
    "variance_bound_v",
    "upper_bound_threshold",
    "min_density_fstar",
]

LN2 = math.log(2.0)

# U-threshold predicate: 1/(1 + 2^(2m) v(z)/z^2) >= 3/4  <=>  ratio <= 1/3
_LOG_ONE_THIRD = math.log(1.0 / 3.0)
_PRED_SLACK = 1e-12  # absorbs log-domain rounding at exact boundaries


def _check_ints(**values):
    """Refuse a value that is not an int, a bool included.  Callers test
    `type(x) is int` first, since bisections build an EpsilonInputs per
    step."""
    for name, value in values.items():
        if isinstance(value, bool) or not isinstance(value, int):
            raise ParameterError("%s must be an int, got %r" % (name, value))


@dataclass(frozen=True)
class EpsilonInputs:
    """Arguments of the collision bound: n variables, m constraints,
    hypothesised set size q, constraint density f."""

    n: int
    m: int
    q: int
    f: float

    def __post_init__(self):
        if not type(self.n) is type(self.m) is type(self.q) is int:
            _check_ints(n=self.n, m=self.m, q=self.q)
        if not 1 <= self.m <= self.n:
            raise ParameterError("need 1 <= m <= n, got m=%d n=%d" % (self.m, self.n))
        if self.q < 2 or (self.q - 1).bit_length() > self.n:  # q <= 2^n, unbuilt
            raise ParameterError("need 2 <= q <= 2^n")
        if not 0.0 <= self.f <= 0.5:
            raise ParameterError("density f must lie in [0, 1/2]")


@dataclass(frozen=True)
class DensityCertificate:
    """Smallest density meeting the shattering sufficiency condition."""

    f_star: float
    n: int
    m: int
    q: int
    delta: float
    condition_value: float  # ln epsilon at f_star
    threshold_log: float
    tolerance: float
    bracket_lo: float
    bracket_hi: float
    met_at_half: bool  # False: even f = 1/2 fails the condition

    @property
    def c(self) -> float:
        """Slack exponent: q = 2^(m+c)."""
        return math.log2(self.q) - self.m


def epsilon(inputs: EpsilonInputs) -> float:
    """ln of the worst-case average collision bound over sets of size q.

    Two-part sum over Hamming weights: exact terms up to w*, plus the
    remainder r = q-1-prefix at weight w*+1, all divided by q-1.  Evaluated
    entirely in log domain.
    """
    n, m, q, f = inputs.n, inputs.m, inputs.q, inputs.f
    if f == 0.0:
        return 0.0
    if f == 0.5:
        return -m * LN2

    def collide_log(w: int) -> float:
        # ln( (1/2 + 1/2 (1-2f)^w)^m )
        return m * math.log(0.5 + 0.5 * (1.0 - 2.0 * f) ** w)

    target = q - 1
    prefix = 0
    binom = 1
    ws = 0
    terms = []
    while ws < n:
        nxt = binom * (n - ws) // (ws + 1)
        if prefix + nxt > target:
            break
        binom = nxt
        prefix += binom
        ws += 1
        terms.append(math.log(binom) + collide_log(ws))
    r = target - prefix
    if r > 0:
        terms.append(math.log(r) + collide_log(ws + 1))
    hi = max(terms)
    total = hi + math.log(math.fsum(math.exp(t - hi) for t in terms))
    return total - math.log(target)


def _log_sub(a: float, b: float) -> float:
    """ln(e^a - e^b) for a > b; -inf when they coincide within rounding."""
    if b == float("-inf"):
        return a
    d = b - a
    if d >= 0:
        return float("-inf")
    return a + math.log1p(-math.exp(d))


def variance_bound_v(q: int, n: int, m: int, f: float) -> float:
    """ln of the variance bound v(q) = (q/2^m) (1 + eps(n,m,q,f) (q-1) - q/2^m).

    q = 1 degenerates to the singleton Bernoulli variance; the inner bracket
    is clamped to zero (with a warning), so v(q) to -inf, should rounding
    drive it negative.  q, n and m must be ints, none of them a bool.
    """
    if not type(q) is type(n) is type(m) is int:
        _check_ints(q=q, n=n, m=m)
    if q < 1:
        raise ParameterError("q must be positive")
    log_mu = math.log(q) - m * LN2  # ln(q / 2^m)
    if q == 1:
        inner = _log_sub(0.0, log_mu)
    else:
        eps = epsilon(EpsilonInputs(n, m, q, f))
        big = eps + math.log(q - 1)
        pos = max(0.0, big) + math.log1p(math.exp(-abs(big)))  # ln(1 + e^big)
        inner = _log_sub(pos, log_mu)
    if inner == float("-inf"):
        warnings.warn("variance bound bracket non-positive; clamped to 0")
    return log_mu + inner


def _threshold_predicate(z: int, n: int, m: int, f: float) -> bool:
    """1/(1 + 2^(2m) v(z)/z^2) >= 3/4, i.e. the ratio is at most 1/3; a
    clamped v(z) = 0 (-inf) meets it."""
    ratio_log = variance_bound_v(z, n, m, f) + 2 * m * LN2 - 2 * math.log(z)
    return ratio_log <= _LOG_ONE_THIRD + _PRED_SLACK


def upper_bound_threshold(n: int, m: int, f: float) -> int:
    """U(n,m,f): minimal z whose variance-to-mean ratio refutes |S| >= z.

    The predicate is monotone in z (z^2/v(z) is increasing), so an
    exponential probe up to 2^n followed by binary search above the last
    failing probe finds the minimum, testing no z twice.  Returns the
    sentinel 2^n when no z <= 2^n qualifies.
    """
    cap = 1 << n
    hi = 1
    while not _threshold_predicate(hi, n, m, f):
        if hi == cap:
            return cap
        hi *= 2
    lo = hi // 2 + 1  # hi // 2 failed, unless hi = 1
    while lo < hi:
        mid = (lo + hi) // 2
        if _threshold_predicate(mid, n, m, f):
            hi = mid
        else:
            lo = mid + 1
    return hi


def _fstar_threshold_log(q: int, m: int, delta: float) -> float:
    """ln of (mu/(delta-1) + mu - 1) / (q-1) with mu = q/2^m."""
    log_mu = math.log(q) - m * LN2
    k = 1.0 / (delta - 1.0) + 1.0
    if log_mu > 700.0:
        # mu - 1 ~ mu; the dropped 1 is below float resolution here
        num_log = log_mu + math.log(k)
    else:
        mu = math.exp(log_mu)
        num = mu * k - 1.0
        if num <= 0.0:
            return float("-inf")
        num_log = math.log(num)
    return num_log - math.log(q - 1)


def min_density_fstar(
    n: int, m: int, q: int, delta: float, tol: float = 1e-5
) -> DensityCertificate:
    """Smallest f with eps(n,m,q,f) <= (mu/(delta-1) + mu - 1)/(q-1).

    eps is nonincreasing in f, so a plain bisection over [0, 1/2] applies;
    it stops once the bracket is at most `tol` wide or no float lies
    strictly inside it.  When even f = 1/2 fails, f_star = 1/2 is returned
    flagged unmet.  delta must be finite and above 2, and tol positive.
    """
    if not 2.0 < delta < math.inf:
        raise ParameterError("delta must be finite and exceed 2, not %r"
                             % (delta,))
    if not tol > 0:
        raise ParameterError("tol must be positive, not %r" % (tol,))
    log_mu = math.log(q) - m * LN2
    if log_mu < 0:
        warnings.warn("q < 2^m (mu < 1): the sufficiency condition is weak here")
    thr = _fstar_threshold_log(q, m, delta)

    def ok(f: float) -> bool:
        return epsilon(EpsilonInputs(n, m, q, f)) <= thr

    met = ok(0.5)
    lo, hi = (0.0, 0.5) if met else (0.5, 0.5)  # unmet: the bracket [1/2, 1/2]
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            break
        if ok(mid):
            hi = mid
        else:
            lo = mid
    return DensityCertificate(
        f_star=hi, n=n, m=m, q=q, delta=delta,
        condition_value=epsilon(EpsilonInputs(n, m, q, hi)),
        threshold_log=thr, tolerance=tol,
        bracket_lo=lo, bracket_hi=hi, met_at_half=met,
    )

