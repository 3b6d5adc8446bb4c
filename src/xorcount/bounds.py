"""Certified lower/upper bounds on |S| from repeated hash-survival trials.

Lower bound: if the empirical survival frequency over T trials at m
constraints clears a threshold c, then |S| >= 2^m c/(1+kappa) with
confidence 1 - exp(-kappa^2 c T / ((1+kappa)(2+kappa))).

Upper bound: with T >= 24 ln(1/Delta) trials, a strict majority of empty
cells certifies |S| <= U(n,m,f) with probability 1 - Delta.

SPARSE-COUNT: grow m until the median survival indicator drops below 1;
the break index brackets log2 |S| within a constant factor.

Every trial is asked through one loop, `_trials`: the bound certificates and
the pre-scan ask all T at once, and each SPARSE-COUNT level asks its trials
in order only until its median test is decided.  The loop is also the one
place where m = 0 is asked once for all T trials.
"""

from __future__ import annotations

import dataclasses
import math
import time
from dataclasses import dataclass

from .comb import upper_bound_threshold
from .errors import OracleUnknownError, ParameterError
from .gf2hash import HashParams, _check_density, derive_seed, sample_hash
from .oracle import CountingProblem, SolverProfile, has_survivors

__all__ = [
    "SurvivalEstimate",
    "LowerBoundCertificate",
    "UpperBoundCertificate",
    "SparseCountConfig",
    "SparseCountResult",
    "OracleUnknownError",
    "estimate_survival",
    "lower_bound",
    "best_lower_bound",
    "upper_bound",
    "sparse_count",
    "pick_promising_m",
    "check_parameters",
]

LN2 = math.log(2.0)


@dataclass(frozen=True)
class SurvivalEstimate:
    m: int
    f: float
    trials_T: int
    successes_Y: int
    seed: int
    outcomes: tuple = ()  # per-trial 0/1, order matches derived seeds

    @property
    def p_est(self) -> float:
        return self.successes_Y / self.trials_T


@dataclass(frozen=True)
class LowerBoundCertificate:
    n: int
    m: int
    f: float
    T: int
    kappa: float
    c: float
    bound_log2: float | None  # None: vacuous (p_est fell short of c)
    confidence: float
    p_est: float
    seed: int
    c_data_chosen: bool = False
    outcomes: tuple = ()
    wall_time_s: float = 0.0

    @property
    def issued(self) -> bool:
        return self.bound_log2 is not None

    def to_json(self) -> dict:
        return {
            "kind": "lower_bound",
            "n": self.n, "m": self.m, "f": self.f, "T": self.T,
            "params": {"kappa": self.kappa, "c": self.c,
                       "c_data_chosen": self.c_data_chosen},
            "bound_log2": self.bound_log2,
            "bound_ln": None if self.bound_log2 is None else self.bound_log2 * LN2,
            "confidence": self.confidence,
            "p_est": self.p_est,
            "seed": self.seed,
            "trial_outcomes": list(self.outcomes),
            "wall_time_s": self.wall_time_s,
        }


@dataclass(frozen=True)
class UpperBoundCertificate:
    n: int
    m: int
    f: float
    T: int
    delta: float
    verdict_log2: float  # log2 U when the median-empty event fired, else n
    event_fired: bool
    empty_count: int
    seed: int
    outcomes: tuple = ()
    wall_time_s: float = 0.0

    def to_json(self) -> dict:
        return {
            "kind": "upper_bound",
            "n": self.n, "m": self.m, "f": self.f, "T": self.T,
            "params": {"delta": self.delta},
            "bound_log2": self.verdict_log2,
            "bound_ln": self.verdict_log2 * LN2,
            "confidence": 1.0 - self.delta,
            "event_fired": self.event_fired,
            "empty_count": self.empty_count,
            "seed": self.seed,
            "trial_outcomes": list(self.outcomes),
            "wall_time_s": self.wall_time_s,
        }


@dataclass
class SparseCountConfig:
    delta: float
    alpha: float
    density_schedule: object = 0.5  # constant f or callable i -> f_i
    max_i: int | None = None
    T: int | None = None
    use_ln_n: bool = True

    def __post_init__(self):
        check_parameters(delta=self.delta)
        if isinstance(self.alpha, bool) or not 0.0 < self.alpha < math.inf:
            raise ParameterError("alpha must be positive and finite")
        if not callable(self.density_schedule):
            _check_density(self.density_schedule)
            fconst = float(self.density_schedule)
            self.density_schedule = lambda i: fconst

    def trials(self, n: int) -> int:
        if self.T is not None:
            return self.T
        base = math.log(1.0 / self.delta) / self.alpha
        if self.use_ln_n:
            base *= math.log(n)
        return max(1, math.ceil(base))


@dataclass(frozen=True)
class SparseCountResult:
    log2_estimate: float | None  # None: broke at i=0, fewer than 1 witnessed
    break_i: int
    exhausted: bool
    T: int
    n: int
    seed: int

    def to_json(self) -> dict:
        return {
            "kind": "sparse_count",
            "n": self.n,
            "T": self.T,
            "bound_log2": self.log2_estimate,
            "bound_ln": None if self.log2_estimate is None else self.log2_estimate * LN2,
            "break_i": self.break_i,
            "exhausted": self.exhausted,
            "seed": self.seed,
        }


def check_parameters(T: int = None, kappa: float = None, c: float = None,
                     delta: float = None):
    """Refuse a trial count that is not an int, a bool as any of them, and
    a trial count, kappa, threshold c or Delta out of range (a bool Delta
    is 0 or 1); None skips that check.  The bound functions check theirs
    here, and callers can check before any oracle call."""
    if T is not None:
        if isinstance(T, bool) or not isinstance(T, int):
            raise ParameterError("T must be an integer, got %r" % (T,))
        if T < 1:
            raise ParameterError("T must be at least 1")
    if kappa is not None and (isinstance(kappa, bool) or not 0.0 < kappa < math.inf):
        raise ParameterError("kappa must be positive and finite")
    if c is not None and (isinstance(c, bool) or not 0.0 < c <= 1.0):
        raise ParameterError("threshold c must lie in (0, 1]")
    if delta is not None and not 0.0 < delta < 1.0:
        raise ParameterError("delta must lie in (0,1)")


def estimate_survival(problem: CountingProblem, m: int, f: float, T: int,
                      seed: int, solver: SolverProfile = None) -> SurvivalEstimate:
    """Run T independent trials at m constraints; refuse on any unknown.

    All T questions go to the oracle in one call: in process they are
    answered in one pass; with an external solver up to the profile's jobs
    calls run at once (by default one per usable CPU), each limited to
    budget_s.  Outcomes are kept in trial order either way.
    """
    outcomes = _trials(problem, m, f, T, seed, solver)
    return SurvivalEstimate(m, f, T, sum(outcomes), seed, outcomes)


def _trials(problem: CountingProblem, m: int, f: float, T: int, seed: int,
            solver: SolverProfile, more=None) -> tuple:
    """The 0/1 outcomes of the trials asked at (m, f, seed), in trial order.

    Trial k's hash is drawn from derive_seed(derive_seed(seed, m), k).
    more(ones, zeros) is how many further trials to ask, 0 once the
    caller's test is decided; None asks all T in one has_survivors call.
    m = 0 asks "is S non-empty?" once and every one of the T trials shares
    its answer.  On a CNF problem, a trial whose hash has no solution of
    Ax = b is "unsat" without reading S or reaching a solver (see
    `has_survivors`), so it is never unknown either.  An unknown raises
    OracleUnknownError(unknown, asked so far); a trial never asked cannot
    be unknown.
    """
    check_parameters(T=T)
    stream = derive_seed(seed, m)
    outcomes = ()
    wave = T if more is None else more(0, 0)
    while wave:
        asked = len(outcomes)
        hashes = [sample_hash(HashParams(problem.n, m, f, seed=derive_seed(stream, k)))
                  for k in range(asked, asked + wave)] if m else [None]
        answers = has_survivors(problem, hashes, solver=solver)
        unknown = answers.count("unknown")
        if unknown:
            raise OracleUnknownError(unknown, asked + len(hashes))
        outcomes += tuple(1 if a == "sat" else 0 for a in answers)
        if not m:
            return outcomes * T
        ones = sum(outcomes)
        wave = 0 if more is None else more(ones, len(outcomes) - ones)
    return outcomes


def _lb_confidence(kappa: float, c: float, T: int) -> float:
    return 1.0 - math.exp(-kappa * kappa * c * T / ((1.0 + kappa) * (2.0 + kappa)))


def lower_bound(est: SurvivalEstimate, kappa: float, c: float = None, *,
                n: int, wall_time_s: float = 0.0) -> LowerBoundCertificate:
    """Certificate |S| >= 2^m c/(1+kappa), issued iff p_est >= c, for a
    problem of width n.

    c=None picks the data-chosen threshold p_est itself (already on the 1/T
    grid); the certificate records that choice.
    """
    check_parameters(kappa=kappa)
    data_chosen = c is None
    if data_chosen:
        c = est.p_est if est.successes_Y > 0 else 1.0 / est.trials_T
    check_parameters(c=c)
    confidence = _lb_confidence(kappa, c, est.trials_T)
    issued = est.p_est >= c
    bound_log2 = est.m + math.log2(c) - math.log2(1.0 + kappa) if issued else None
    return LowerBoundCertificate(
        n=n, m=est.m, f=est.f, T=est.trials_T,
        kappa=kappa, c=c, bound_log2=bound_log2, confidence=confidence,
        p_est=est.p_est, seed=est.seed, c_data_chosen=data_chosen,
        outcomes=est.outcomes, wall_time_s=wall_time_s,
    )


def best_lower_bound(problem: CountingProblem, f: float, m_range, T: int,
                     kappa: float, c: float = None, seed: int = 0,
                     bonferroni: bool = False,
                     solver: SolverProfile = None) -> LowerBoundCertificate:
    """Scan m over m_range, return the issued certificate with the largest
    bound; all-vacuous scans return the vacuous certificate with the best
    p_est on record.

    With bonferroni=True the per-m failure budget is divided by the number
    of m values scanned (multiplicity correction, off by default).
    """
    m_list = sorted(set(m_range))
    if not m_list:
        raise ParameterError("m_range is empty")
    for m in m_list[0], m_list[-1]:
        if not 1 <= m <= problem.n:
            raise ParameterError("m must lie within [1, n], got m=%d n=%d" % (m, problem.n))
    best = None
    best_vacuous = None
    for m in m_list:
        t0 = time.monotonic()
        est = estimate_survival(problem, m, f, T, seed, solver)
        cert = lower_bound(est, kappa, c, n=problem.n,
                           wall_time_s=time.monotonic() - t0)
        if bonferroni:
            fail = (1.0 - cert.confidence) * len(m_list)
            cert = dataclasses.replace(cert, confidence=max(0.0, 1.0 - fail))
        if cert.issued:
            if best is None or cert.bound_log2 > best.bound_log2:
                best = cert
        elif best_vacuous is None or cert.p_est > best_vacuous.p_est:
            best_vacuous = cert
    return best if best is not None else best_vacuous


def upper_bound(problem: CountingProblem, m: int, f: float, delta: float,
                seed: int = 0, T: int = None,
                solver: SolverProfile = None) -> UpperBoundCertificate:
    """Certificate |S| <= U(n,m,f) when a strict majority of T trials find
    the cell empty; otherwise the vacuous sentinel 2^n.

    T defaults to ceil(24 ln(1/Delta)) and is never allowed below it; a
    given T below 1 is refused.
    """
    check_parameters(T=T, delta=delta)
    if not 1 <= m <= problem.n:
        raise ParameterError("m must lie within [1, n], got m=%d n=%d" % (m, problem.n))
    t_min = math.ceil(24.0 * math.log(1.0 / delta))
    T = t_min if T is None else max(T, t_min)
    t0 = time.monotonic()
    est = estimate_survival(problem, m, f, T, seed, solver)
    empty = T - est.successes_Y
    fired = empty * 2 > T  # strict majority: median of indicators is 1
    n = problem.n
    if fired:
        u = upper_bound_threshold(n, m, f)
        verdict_log2 = math.log2(u)
    else:
        verdict_log2 = float(n)
    return UpperBoundCertificate(
        n=n, m=m, f=f, T=T, delta=delta, verdict_log2=verdict_log2,
        event_fired=fired, empty_count=empty, seed=seed,
        outcomes=tuple(1 - y for y in est.outcomes),
        wall_time_s=time.monotonic() - t0,
    )


def sparse_count(problem: CountingProblem, config: SparseCountConfig,
                 seed: int = 0, solver: SolverProfile = None) -> SparseCountResult:
    """SPARSE-COUNT: raise the constraint count until the median survival
    indicator drops below 1; report i-1 as the log2 estimate.

    Median < 1 means at most half the trials saw a survivor.  A break at
    i = 0 reports "fewer than one solution witnessed" (estimate None);
    running out of levels returns n flagged exhausted.  A max_i outside
    [0, n] is refused before any question.

    Level i's trials are those of estimate_survival(problem, i, f_i, T,
    seed), asked in trial order only until the median test is decided (at
    least T - T//2 of them; level 0 is one question), so the result is the
    one all T answers give.  An unknown among the asked trials raises
    OracleUnknownError; an unknown among the skipped ones is never seen.
    """
    n = problem.n
    T = config.trials(n)
    max_i = config.max_i if config.max_i is not None else n
    if not 0 <= max_i <= n:
        raise ParameterError("max_i must lie within [0, n], got max_i=%d n=%d"
                             % (max_i, n))
    need = T // 2 + 1  # survivors for a strict majority

    def majority(ones, zeros):  # the fewest further trials that could decide it
        return max(0, min(need - ones, T - need + 1 - zeros))

    for i in range(0, max_i + 1):
        f_i = config.density_schedule(i)
        _check_density(f_i)
        if sum(_trials(problem, i, f_i, T, seed, solver, majority)) < need:  # median < 1
            if i == 0:
                return SparseCountResult(None, 0, False, T, n, seed)
            return SparseCountResult(float(i - 1), i, False, T, n, seed)
    return SparseCountResult(float(n), max_i, True, T, n, seed)


def pick_promising_m(problem: CountingProblem, f: float, coarse_T: int,
                     seed: int = 0, solver: SolverProfile = None) -> int:
    """Coarse sweep for the largest m whose survival estimate clears 1/2.

    Geometric probe first (1, 2, 4, ...), then a linear walk upward from the
    best geometric point.  Falls back to m = 1 when nothing clears 1/2.
    """
    if coarse_T < 3:
        raise ParameterError("coarse_T must be at least 3")
    n = problem.n

    def p_at(m: int) -> float:
        return estimate_survival(problem, m, f, coarse_T, seed, solver).p_est

    best = 0
    m = 1
    while m <= n:
        if p_at(m) >= 0.5:
            best = m
        elif best:
            break
        m *= 2
    if best == 0:
        return 1
    m = best + 1
    while m <= n and m < best * 2:
        if p_at(m) < 0.5:
            break
        best = m
        m += 1
    return best
