import dataclasses
import hashlib
import json
import math
import random

import pytest

from xorcount import bounds, oracle
from xorcount.bounds import (LowerBoundCertificate, OracleUnknownError,
                             SparseCountConfig, SparseCountResult,
                             SurvivalEstimate, check_parameters,
                             best_lower_bound, estimate_survival, lower_bound,
                             pick_promising_m, sparse_count, upper_bound)
from xorcount.gf2hash import Assignment, HashParams, derive_seed, sample_hash
from xorcount.dimacs import CnfFormula
from xorcount.errors import ParameterError
from xorcount.oracle import CountingProblem
from conftest import count_survivors, random_subset_problem


def full_cube_problem(n):
    return CountingProblem.from_explicit(
        [Assignment(b, n) for b in range(1 << n)], n)


class TestEstimateSurvival:
    def test_empty_set_never_survives(self):
        problem = CountingProblem.from_explicit([], 8)
        est = estimate_survival(problem, 3, 0.5, 50, seed=1)
        assert est.successes_Y == 0

    def test_full_cube_mostly_survives(self):
        # for the full cube a cell is empty only when Ax=b is inconsistent,
        # which at m << n is a rank-deficiency event of tiny probability
        problem = full_cube_problem(10)
        est = estimate_survival(problem, 3, 0.5, 50, seed=7)
        assert est.successes_Y == 50

    def test_singleton_zero_matches_exact_probability(self):
        problem = CountingProblem.from_explicit([Assignment(0, 8)], 8)
        T = 10_000
        est = estimate_survival(problem, 3, 0.5, T, seed=3)
        se = math.sqrt((1 / 8) * (7 / 8) / T)
        assert abs(est.p_est - 1 / 8) < 3 * se

    def test_deterministic_given_seed(self):
        rng = random.Random(0)
        problem = random_subset_problem(rng, 10, 100)
        a = estimate_survival(problem, 4, 0.4, 30, seed=11)
        b = estimate_survival(problem, 4, 0.4, 30, seed=11)
        assert a == b

    def test_m_zero_is_satisfiability(self):
        assert estimate_survival(full_cube_problem(4), 0, 0.5, 5, seed=0
                                 ).successes_Y == 5
        empty = CountingProblem.from_explicit([], 4)
        assert estimate_survival(empty, 0, 0.5, 5, seed=0).successes_Y == 0

    def test_unknown_refuses(self, sleepy_solver):
        from xorcount.dimacs import CnfFormula
        problem = CountingProblem.from_cnf(CnfFormula(4, [[1]], []))
        with pytest.raises(OracleUnknownError):
            estimate_survival(problem, 2, 0.5, 2, seed=0, solver=sleepy_solver)

    def test_T_validation(self):
        with pytest.raises(ValueError):
            estimate_survival(full_cube_problem(4), 1, 0.5, 0, seed=0)

    def test_jobs_match_serial_on_cnf(self, exhaustive_solver):
        # four solver calls at once answer as one at a time, and as in process
        from xorcount.dimacs import CnfFormula
        rng = random.Random(4)
        clauses = [[rng.choice([v, -v]) for v in rng.sample(range(1, 13), 3)]
                   for _ in range(10)]
        formula = CnfFormula(12, clauses, [])
        serial_solver = dataclasses.replace(exhaustive_solver, jobs=1)
        parallel_solver = dataclasses.replace(exhaustive_solver, jobs=4)
        serial = estimate_survival(CountingProblem.from_cnf(formula), 5, 0.3,
                                   16, seed=2, solver=serial_solver)
        parallel = estimate_survival(CountingProblem.from_cnf(formula), 5, 0.3,
                                     16, seed=2, solver=parallel_solver)
        assert serial == parallel
        assert serial == estimate_survival(CountingProblem.from_cnf(formula),
                                           5, 0.3, 16, seed=2)

    @pytest.mark.parametrize("n,size,m,f,T", [
        (1, 2, 1, 0.5, 20),
        (16, 300, 7, 0.3, 40),
        (16, 50, 3, 0.0, 10),     # f = 0: every row empty
        (63, 100, 6, 0.1, 30),
        (64, 100, 6, 0.5, 30),
        (65, 1024, 9, 0.3, 70),   # two words; 70 trials cross chunk boundaries
        (130, 80, 5, 0.05, 30),
        (400, 40, 4, 0.02, 30),
        (70, 10, 0, 0.5, 5),      # m = 0
        (65, 0, 3, 0.5, 10),      # empty S
    ])
    def test_outcomes_match_pure_python_scan(self, n, size, m, f, T):
        rng = random.Random(n * 1000 + size)
        members = [Assignment(rng.getrandbits(n), n) for _ in range(size)]
        est = estimate_survival(CountingProblem.from_explicit(members, n),
                                m, f, T, seed=n)
        assert est.outcomes == scan_outcomes(members, n, m, f, T, seed=n)

    def test_cnf_outcomes_match_pure_python_scan(self):
        # n < num_vars: S is the model set projected onto the first 7 vars
        from xorcount.dimacs import CnfFormula
        from xorcount.oracle import _check_assignment
        rng = random.Random(9)
        clauses = [[rng.choice([v, -v]) for v in rng.sample(range(1, 11), 3)]
                   for _ in range(12)]
        formula = CnfFormula(10, clauses, [([2, 9], 1)])
        S = {b & 127 for b in range(1 << 10) if _check_assignment(formula, b)}
        members = [Assignment(b, 7) for b in sorted(S)]
        for m in (0, 2, 4):
            est = estimate_survival(CountingProblem.from_cnf(formula, 7),
                                    m, 0.3, 25, seed=4)
            assert est.outcomes == scan_outcomes(members, 7, m, 0.3, 25, seed=4)

    @pytest.mark.parametrize("n,size,m,f,want", [
        (16, 300, 8, 0.3, "0111111111011011111011101111101110111111"),
        (130, 200, 7, 0.1, "1101111110110011000011101111111100111101"),
    ])
    def test_golden_outcomes(self, n, size, m, f, want):
        # recorded before trials were batched: the seed streams and hash
        # draws are the reproducibility contract
        rng = random.Random(2024)
        problem = CountingProblem.from_explicit(
            [Assignment(rng.getrandbits(n), n) for _ in range(size)], n)
        est = estimate_survival(problem, m, f, 40, seed=99)
        assert "".join(map(str, est.outcomes)) == want

    def test_m_zero_sat_without_model_refuses(self, no_model_solver):
        from xorcount.dimacs import CnfFormula
        problem = CountingProblem.from_cnf(CnfFormula(2, [[1], [-1]], []))
        with pytest.raises(OracleUnknownError):
            estimate_survival(problem, 0, 0.5, 2, seed=0, solver=no_model_solver)


def scan_outcomes(members, n, m, f, T, seed):
    """estimate_survival's outcomes, one pure-Python scan per trial."""
    stream = derive_seed(seed, m)
    out = []
    for k in range(T):
        if m == 0:
            out.append(int(bool(members)))
            continue
        h = sample_hash(HashParams(n, m, f, seed=derive_seed(stream, k)))
        out.append(int(count_survivors(h, members) > 0))
    return tuple(out)


def batching(answer):
    """A stand-in for bounds.has_survivors that answers every question
    `answer` and records each call's hashes."""
    batches = []

    def has_survivors(problem, hashes, solver=None):
        batches.append(list(hashes))
        return [answer] * len(hashes)
    return has_survivors, batches


class TestTrialLoop:
    def test_all_t_trials_are_one_call(self, monkeypatch):
        stub, batches = batching("sat")
        monkeypatch.setattr(bounds, "has_survivors", stub)
        est = estimate_survival(full_cube_problem(6), 2, 0.5, 24, seed=4)
        assert [len(b) for b in batches] == [24]
        assert est.outcomes == (1,) * 24
        stream = derive_seed(4, 2)
        assert [h.params.seed for h in batches[0]] == [derive_seed(stream, k)
                                                       for k in range(24)]

    @pytest.mark.parametrize("answer,y", [("sat", 1), ("unsat", 0)])
    def test_m_zero_is_one_question_for_all_trials(self, monkeypatch, answer, y):
        stub, batches = batching(answer)
        monkeypatch.setattr(bounds, "has_survivors", stub)
        est = estimate_survival(full_cube_problem(6), 0, 0.5, 9, seed=4)
        assert batches == [[None]]
        assert est.outcomes == (y,) * 9 and est.successes_Y == 9 * y

    def test_unknown_at_m_zero_counts_one_question(self, monkeypatch):
        stub, batches = batching("unknown")
        monkeypatch.setattr(bounds, "has_survivors", stub)
        with pytest.raises(OracleUnknownError) as err:
            estimate_survival(full_cube_problem(6), 0, 0.5, 9, seed=4)
        assert (err.value.unknown, err.value.total) == (1, 1)
        assert batches == [[None]]


class TestLowerBound:
    def _est(self, m, T, Y):
        outcomes = (1,) * Y + (0,) * (T - Y)
        return SurvivalEstimate(m, 0.5, T, Y, seed=0, outcomes=outcomes)

    def test_confidence_formula(self):
        cert = lower_bound(self._est(5, 24, 24), kappa=1.0, c=0.5, n=16)
        assert cert.confidence == pytest.approx(1 - math.exp(-2))

    def test_bound_arithmetic(self):
        cert = lower_bound(self._est(13, 100, 60), kappa=0.1, c=0.5, n=16)
        assert cert.issued
        assert cert.bound_log2 == pytest.approx(13 - 1 - math.log2(1.1))
        assert cert.bound_log2 == pytest.approx(11.86, abs=0.01)

    def test_vacuous_when_p_est_below_c(self):
        cert = lower_bound(self._est(5, 20, 5), kappa=1.0, c=0.5, n=16)
        assert not cert.issued
        assert cert.bound_log2 is None
        assert cert.confidence == pytest.approx(
            1 - math.exp(-0.5 * 20 / 6))  # confidence unchanged by the branch

    def test_data_chosen_c(self):
        cert = lower_bound(self._est(6, 40, 30), kappa=1.0, n=16)
        assert cert.c_data_chosen
        assert cert.c == pytest.approx(0.75)
        assert cert.issued

    def test_confidence_monotone_in_T(self):
        prev = 0.0
        for T in (10, 50, 100, 500):
            cert = lower_bound(self._est(4, T, T), kappa=1.0, c=0.5, n=16)
            assert cert.confidence > prev
            prev = cert.confidence

    def test_order_independence(self):
        rng = random.Random(9)
        outcomes = [1] * 12 + [0] * 8
        rng.shuffle(outcomes)
        est = SurvivalEstimate(5, 0.5, 20, sum(outcomes), 0, tuple(outcomes))
        cert = lower_bound(est, kappa=1.0, c=0.5, n=16)
        ref = lower_bound(self._est(5, 20, 12), kappa=1.0, c=0.5, n=16)
        assert cert.bound_log2 == ref.bound_log2
        assert cert.confidence == ref.confidence

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            lower_bound(self._est(4, 10, 5), kappa=0.0, c=0.5, n=16)
        with pytest.raises(ValueError):
            lower_bound(self._est(4, 10, 5), kappa=1.0, c=1.5, n=16)

    def test_json_serialization(self):
        cert = lower_bound(self._est(5, 8, 6), kappa=1.0, c=0.5, n=16)
        doc = cert.to_json()
        assert doc["kind"] == "lower_bound"
        assert (doc["n"], doc["m"]) == (16, 5)
        assert doc["bound_ln"] == pytest.approx(doc["bound_log2"] * math.log(2))
        assert doc["trial_outcomes"] == [1] * 6 + [0] * 2


class TestBestLowerBound:
    def test_soundness_on_known_size(self):
        rng = random.Random(3)
        problem = random_subset_problem(rng, 16, 1 << 10)
        cert = best_lower_bound(problem, 0.5, range(1, 17), T=100,
                                kappa=1.0, c=0.5, seed=2)
        assert cert.issued
        assert cert.bound_log2 <= 10.0

    def test_single_m_matches_lower_bound(self):
        rng = random.Random(4)
        problem = random_subset_problem(rng, 12, 64)
        est = estimate_survival(problem, 5, 0.5, 40, seed=9)
        direct = lower_bound(est, kappa=1.0, c=0.5, n=12)
        best = best_lower_bound(problem, 0.5, [5], T=40, kappa=1.0, c=0.5,
                                seed=9)
        assert best.bound_log2 == direct.bound_log2
        assert best.p_est == direct.p_est

    def test_issuance_rate_near_true_size(self):
        # survival at m = log2|S| stays near 1 - 1/e > 1/2, so the m = 10
        # certificate (bound 10 - 1 - log2(1.1) = 8.86) issues almost always
        issued = 0
        runs = 30
        for k in range(runs):
            rng = random.Random(1000 + k)
            problem = random_subset_problem(rng, 16, 1 << 10)
            cert = best_lower_bound(problem, 0.5, range(8, 13), T=150,
                                    kappa=0.1, c=0.5, seed=k)
            issued += cert.issued and cert.bound_log2 >= 8.5
        assert issued >= int(0.9 * runs)

    def test_all_vacuous_returns_best_p_est(self):
        problem = CountingProblem.from_explicit([Assignment(0, 10)], 10)
        cert = best_lower_bound(problem, 0.5, range(4, 8), T=20, kappa=1.0,
                                c=0.99, seed=0)
        assert not cert.issued
        assert 0.0 <= cert.p_est < 0.99

    def test_bonferroni_reduces_confidence(self):
        rng = random.Random(6)
        problem = random_subset_problem(rng, 12, 256)
        plain = best_lower_bound(problem, 0.5, range(4, 9), T=50, kappa=1.0,
                                 c=0.25, seed=3)
        corrected = best_lower_bound(problem, 0.5, range(4, 9), T=50,
                                     kappa=1.0, c=0.25, seed=3,
                                     bonferroni=True)
        assert corrected.bound_log2 == plain.bound_log2
        assert corrected.confidence < plain.confidence

    def test_m_range_validation(self):
        problem = full_cube_problem(6)
        with pytest.raises(ValueError):
            best_lower_bound(problem, 0.5, [0, 3], T=10, kappa=1.0, seed=0)
        with pytest.raises(ValueError):
            best_lower_bound(problem, 0.5, [7], T=10, kappa=1.0, seed=0)

    def test_empty_m_range_is_refused(self):
        with pytest.raises(ParameterError, match="^m_range is empty$"):
            best_lower_bound(full_cube_problem(6), 0.5, [], T=10, kappa=1.0, seed=0)


class TestUpperBound:
    def test_default_T_for_delta(self):
        problem = CountingProblem.from_explicit([Assignment(0, 8)], 8)
        cert = upper_bound(problem, 6, 0.5, delta=0.05, seed=0)
        assert cert.T == math.ceil(24 * math.log(20))  # 72
        assert cert.T == 72

    def test_T_never_below_minimum(self):
        problem = CountingProblem.from_explicit([Assignment(0, 8)], 8)
        cert = upper_bound(problem, 6, 0.5, delta=0.05, seed=0, T=10)
        assert cert.T == 72

    @pytest.mark.parametrize("T", [0, -3])
    def test_given_T_below_one_is_refused(self, T):
        problem = CountingProblem.from_explicit([Assignment(0, 8)], 8)
        with pytest.raises(ValueError, match="T must be at least 1"):
            upper_bound(problem, 6, 0.5, delta=0.05, seed=0, T=T)

    @pytest.mark.parametrize("T", [2.5, 3.0, True])
    def test_given_T_not_an_int_is_refused(self, T):
        problem = CountingProblem.from_explicit([Assignment(0, 8)], 8)
        with pytest.raises(ParameterError, match="T must be an integer"):
            upper_bound(problem, 6, 0.5, delta=0.05, seed=0, T=T)
        with pytest.raises(ParameterError, match="T must be an integer"):
            estimate_survival(problem, 3, 0.5, T, 1)

    @pytest.mark.parametrize("given,match", [
        ({"kappa": True}, "^kappa must be positive and finite$"),
        ({"c": True}, "^threshold c must lie in"),
        ({"delta": True}, "^delta must lie in")])
    def test_bool_reals_are_refused(self, given, match):
        # refused as a bool T is: True passed as 1 before
        with pytest.raises(ParameterError, match=match):
            check_parameters(**given)

    def test_full_cube_never_fires(self):
        problem = full_cube_problem(8)
        for m in (1, 4, 8):
            cert = upper_bound(problem, m, 0.5, delta=0.1, seed=m)
            assert not cert.event_fired
            assert cert.verdict_log2 == 8.0  # sentinel 2^n

    def test_fires_well_above_true_size(self):
        # |S| = 2^8 in n = 16 at m = 12: cells are empty with high probability
        fired = 0
        runs = 20
        for k in range(runs):
            rng = random.Random(500 + k)
            problem = random_subset_problem(rng, 16, 256)
            cert = upper_bound(problem, 12, 0.5, delta=0.05, seed=k)
            if cert.event_fired:
                fired += 1
                want = math.log2(3 * (1 << 12) - 3)
                assert cert.verdict_log2 == pytest.approx(want)
        assert fired >= int(0.9 * runs)

    def test_delta_validation(self):
        problem = full_cube_problem(4)
        with pytest.raises(ValueError):
            upper_bound(problem, 2, 0.5, delta=1.5)

    def test_json_serialization(self):
        problem = CountingProblem.from_explicit([Assignment(0, 8)], 8)
        doc = upper_bound(problem, 6, 0.5, delta=0.1, seed=1).to_json()
        assert doc["kind"] == "upper_bound"
        assert doc["confidence"] == pytest.approx(0.9)
        assert len(doc["trial_outcomes"]) == doc["T"]


def full_t_sparse_count(problem, config, seed):
    """sparse_count as it was before early stopping: every level asks all T
    trials through estimate_survival and tests the median on their count."""
    n = problem.n
    T = config.trials(n)
    max_i = config.max_i if config.max_i is not None else n
    for i in range(max_i + 1):
        ones = estimate_survival(problem, i, config.density_schedule(i), T,
                                 seed).successes_Y
        if ones * 2 <= T:
            return SparseCountResult(None if i == 0 else float(i - 1), i,
                                     False, T, n, seed)
    return SparseCountResult(float(n), max_i, True, T, n, seed)


# SPARSE_GRID_SHA256 is the sha256 of sparse_count's results over
# sparse_grid(), recorded when every level asked all T trials.
SPARSE_GRID_SHA256 = "ccb69c89c628f5d58ef0da3a0a5113d6776191b8051af416a2212c2c8d9f76a6"


def sparse_grid():
    """(problem, config, seed) over explicit 8-bit sets (empty, singleton,
    full cube, random) x densities (0.2, 0.5, a schedule) x T (1, 2, 7, 8,
    the default 24) x max_i (n, 3)."""
    n = 8
    rng = random.Random(8)
    sets = ([], [5], range(1 << n), rng.sample(range(1 << n), 40))
    schedules = (0.2, 0.5, lambda i: 0.5 if i < 3 else 0.25)
    index = 0
    for members in sets:
        problem = CountingProblem.from_explicit(
            [Assignment(b, n) for b in members], n)
        for schedule in schedules:
            for T in (1, 2, 7, 8, None):
                for max_i in (None, 3):
                    index += 1
                    yield problem, SparseCountConfig(
                        delta=0.1, alpha=0.2, density_schedule=schedule,
                        T=T, max_i=max_i), index


def answering(answers):
    """A stand-in for bounds.has_survivors that answers each question from
    answers(hash) and records how many it was asked at each m."""
    asked = {}

    def has_survivors(problem, hashes, solver=None):
        for h in hashes:
            m = 0 if h is None else h.params.m
            asked[m] = asked.get(m, 0) + 1
        return [answers(h) for h in hashes]
    return has_survivors, asked


class TestSparseCount:
    def test_matches_full_t_run(self):
        digest = hashlib.sha256()
        for problem, cfg, seed in sparse_grid():
            res = sparse_count(problem, cfg, seed=seed)
            assert res == full_t_sparse_count(problem, cfg, seed), (cfg, seed)
            digest.update(json.dumps(res.to_json(), sort_keys=True).encode())
        assert digest.hexdigest() == SPARSE_GRID_SHA256

    @pytest.mark.parametrize("T", [1, 2, 7, 8, 24])
    def test_decided_levels_ask_the_fewest_trials(self, T, monkeypatch):
        # sample_hash is drawn once per asked trial; every level past 0
        # survives, so each asks T//2 + 1 and the run goes to max_i
        problem = full_cube_problem(8)
        drawn = {}
        real_sample_hash = bounds.sample_hash

        def counting_sample_hash(params):
            drawn[params.m] = drawn.get(params.m, 0) + 1
            return real_sample_hash(params)

        monkeypatch.setattr(bounds, "sample_hash", counting_sample_hash)
        stub, asked = answering(lambda h: "sat")
        monkeypatch.setattr(bounds, "has_survivors", stub)
        cfg = SparseCountConfig(delta=0.1, alpha=0.2, T=T, max_i=5)
        res = sparse_count(problem, cfg, seed=3)
        assert res.exhausted and res.T == T
        assert drawn == {m: T // 2 + 1 for m in range(1, 6)}
        assert asked == {0: 1, **drawn}

        # an empty level stops at its (T - T//2)-th empty cell
        drawn.clear()
        stub, asked = answering(lambda h: "sat" if h is None else "unsat")
        monkeypatch.setattr(bounds, "has_survivors", stub)
        res = sparse_count(problem, cfg, seed=3)
        assert (res.break_i, res.log2_estimate) == (1, 0.0)
        assert drawn == {1: T - T // 2}
        assert asked == {0: 1, 1: T - T // 2}

    def test_split_levels_ask_at_most_t(self, monkeypatch):
        # a biased coin per question: every level asks between T - T//2 and
        # T trials, and the run ends as the full-T run on the same answers
        rng = random.Random(5)
        coins = {}

        def coin(h):
            if h is None:
                return "sat"
            key = (h.params.m, h.params.seed)
            return coins.setdefault(key, "sat" if rng.random() < 0.6 else "unsat")

        problem = full_cube_problem(8)
        split = 0
        for T in (7, 8, 24) * 4:
            cfg = SparseCountConfig(delta=0.1, alpha=0.2, T=T)
            stub, asked = answering(coin)
            monkeypatch.setattr(bounds, "has_survivors", stub)
            res = sparse_count(problem, cfg, seed=len(coins))
            assert asked.pop(0) == 1
            assert sorted(asked) == list(range(1, res.break_i + 1))
            assert all(T - T // 2 <= k <= T for k in asked.values()), asked
            split += sum(k > T // 2 + 1 for k in asked.values())
            monkeypatch.setattr(bounds, "has_survivors", lambda p, hs, solver=None:
                                [coin(h) for h in hs])
            assert res == full_t_sparse_count(problem, cfg, seed=res.seed)
        assert split

    def test_unknown_in_a_skipped_trial_is_never_seen(self, monkeypatch):
        # trials 0-3 of level 1 survive, which decides it at T = 7; a full-T
        # run would have met the unknown in trial 4 and refused
        answers = iter(["sat"] * 4 + ["unknown"] * 3)
        stub, asked = answering(lambda h: "sat" if h is None else next(answers))
        monkeypatch.setattr(bounds, "has_survivors", stub)
        res = sparse_count(full_cube_problem(4), SparseCountConfig(
            delta=0.1, alpha=0.2, T=7, max_i=1), seed=0)
        assert res.exhausted
        assert asked == {0: 1, 1: 4}

    def test_unknown_in_an_asked_wave_refuses(self, monkeypatch):
        # level 1's first wave (4 of T = 7) holds one unknown
        stub, asked = answering(lambda h: "sat" if h is None or h.params.seed % 2
                                else "unknown")
        monkeypatch.setattr(bounds, "has_survivors", stub)
        problem = full_cube_problem(4)
        with pytest.raises(OracleUnknownError) as err:
            sparse_count(problem, SparseCountConfig(delta=0.1, alpha=0.2, T=7),
                         seed=0)
        assert err.value.unknown >= 1 and err.value.total == asked[1] == 4

    def test_solver_level_zero_is_one_call(self, monkeypatch, exhaustive_solver):
        calls = []
        real = oracle.run_external

        def counting_run_external(text, profile):
            calls.append(text)
            return real(text, profile)

        monkeypatch.setattr(oracle, "run_external", counting_run_external)
        cfg = SparseCountConfig(delta=0.1, alpha=0.2)
        unsat = CountingProblem.from_cnf(CnfFormula(3, [[1], [-1]], []))
        res = sparse_count(unsat, cfg, seed=0, solver=exhaustive_solver)
        assert (res.break_i, res.log2_estimate) == (0, None) and res.T > 1
        assert len(calls) == 1

    @pytest.mark.parametrize("jobs", [1, 4])
    def test_solver_matches_in_process(self, jobs, monkeypatch,
                                       exhaustive_solver):
        # |S| = 4 of 2^5: through a solver, count equals the in-process run
        # and asks fewer questions than T per level
        calls = []
        real = oracle.run_external

        def counting_run_external(text, profile):
            calls.append(text)
            return real(text, profile)

        monkeypatch.setattr(oracle, "run_external", counting_run_external)
        problem = CountingProblem.from_cnf(CnfFormula(5, [[1], [-2], [3]], []))
        cfg = SparseCountConfig(delta=0.1, alpha=0.5, T=5)
        solver = dataclasses.replace(exhaustive_solver, jobs=jobs)
        res = sparse_count(problem, cfg, seed=1, solver=solver)
        assert res == sparse_count(problem, cfg, seed=1)
        assert res == full_t_sparse_count(problem, cfg, seed=1)
        assert len(calls) < res.T * (res.break_i + 1)

    def test_solver_unknown_refuses(self, sleepy_solver):
        # the first asked question, level 0's only one, times out
        problem = CountingProblem.from_cnf(CnfFormula(4, [[1]], []))
        with pytest.raises(OracleUnknownError) as err:
            sparse_count(problem, SparseCountConfig(delta=0.1, alpha=0.2),
                         seed=0, solver=sleepy_solver)
        assert (err.value.unknown, err.value.total) == (1, 1)

    def test_empty_set_special_value(self):
        problem = CountingProblem.from_explicit([], 8)
        res = sparse_count(problem, SparseCountConfig(delta=0.1, alpha=0.1),
                           seed=0)
        assert res.log2_estimate is None
        assert res.break_i == 0

    def test_full_cube_returns_near_n(self):
        problem = full_cube_problem(8)
        res = sparse_count(problem, SparseCountConfig(delta=0.1, alpha=0.1),
                           seed=2)
        assert res.log2_estimate in (7.0, 8.0)

    def test_trial_count_formula(self):
        cfg = SparseCountConfig(delta=0.05, alpha=0.04)
        assert cfg.trials(16) == math.ceil(
            math.log(20) / 0.04 * math.log(16))
        assert SparseCountConfig(delta=0.05, alpha=0.04,
                                 use_ln_n=False).trials(16) == math.ceil(
            math.log(20) / 0.04)

    def test_density_schedule_callable(self):
        problem = CountingProblem.from_explicit([], 6)
        cfg = SparseCountConfig(delta=0.2, alpha=0.5,
                                density_schedule=lambda i: 0.5 / (i + 1))
        res = sparse_count(problem, cfg, seed=0)
        assert res.break_i == 0

    def test_bad_schedule_value(self):
        problem = full_cube_problem(4)
        cfg = SparseCountConfig(delta=0.2, alpha=0.5,
                                density_schedule=lambda i: 0.9)
        with pytest.raises(ValueError):
            sparse_count(problem, cfg, seed=0)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SparseCountConfig(delta=0.0, alpha=0.1)
        with pytest.raises(ValueError):
            SparseCountConfig(delta=0.1, alpha=0.0)

    @pytest.mark.parametrize("alpha,delta,match", [
        (True, 0.1, "^alpha must be positive and finite$"),
        (0.1, True, "^delta must lie in"), (0.1, False, "^delta must lie in")])
    def test_bool_parameters_are_refused(self, alpha, delta, match):
        with pytest.raises(ParameterError, match=match):
            SparseCountConfig(delta=delta, alpha=alpha)

    @pytest.mark.parametrize("f", ["0.3", None, True, 0.7, math.nan])
    def test_constant_schedule_is_checked(self, f):
        # a string was float()-ed, and any constant was checked only when
        # its first level was asked
        with pytest.raises(ParameterError, match="^density f must "):
            SparseCountConfig(delta=0.1, alpha=0.1, density_schedule=f)

    def test_max_i_exhaustion(self):
        problem = full_cube_problem(6)
        cfg = SparseCountConfig(delta=0.2, alpha=0.5, max_i=2)
        res = sparse_count(problem, cfg, seed=1)
        assert res.exhausted
        assert res.log2_estimate == 6.0


    @pytest.mark.parametrize("max_i", [-1, 7])
    def test_max_i_outside_zero_to_n_is_refused(self, monkeypatch, max_i):
        stub, batches = batching("sat")
        monkeypatch.setattr(bounds, "has_survivors", stub)
        cfg = SparseCountConfig(delta=0.2, alpha=0.5, max_i=max_i)
        with pytest.raises(ParameterError, match="max_i"):
            sparse_count(full_cube_problem(4), cfg, seed=1)
        assert batches == []

class TestPickPromisingM:
    def test_singleton_falls_back_to_one(self):
        problem = CountingProblem.from_explicit([Assignment(0, 12)], 12)
        assert pick_promising_m(problem, 0.5, coarse_T=10, seed=0) == 1

    def test_empty_set_falls_back_to_one(self):
        # no m clears 1/2 when nothing survives any hash
        problem = CountingProblem.from_explicit([], 12)
        assert pick_promising_m(problem, 0.5, coarse_T=10, seed=0) == 1

    def test_full_cube_reaches_high_m(self):
        problem = full_cube_problem(10)
        assert pick_promising_m(problem, 0.5, coarse_T=10, seed=0) >= 8

    def test_mid_size_lands_near_log2(self):
        hits = 0
        runs = 20
        for k in range(runs):
            rng = random.Random(900 + k)
            problem = random_subset_problem(rng, 16, 1 << 10)
            m = pick_promising_m(problem, 0.5, coarse_T=20, seed=k)
            hits += 8 <= m <= 12
        assert hits >= int(0.9 * runs)

    def test_coarse_T_validation(self):
        with pytest.raises(ValueError):
            pick_promising_m(full_cube_problem(4), 0.5, coarse_T=2)
