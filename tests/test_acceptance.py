"""Acceptance suite: one pass/fail line per criterion on the real terminal.

Each test exercises one end-to-end contract at its stated tolerance; the
statistical ones run seeded Monte-Carlo harnesses against explicit sets of
known size so soundness is checkable exactly.
"""

import csv
import functools
import math
import random
from fractions import Fraction

from xorcount.bounds import (SparseCountConfig, best_lower_bound,
                             sparse_count, upper_bound)
from xorcount.comb import (EpsilonInputs, epsilon, min_density_fstar,
                           upper_bound_threshold, variance_bound_v)
from xorcount.dimacs import CnfFormula
from xorcount.gf2hash import Assignment
from xorcount.oracle import (CountingProblem, count_models, expand_xors,
                             _check_assignment)
from xorcount.tables import brute_force_count, encode_to_cnf, synth_spec
from xorcount.cli import main as cli_main
from conftest import (exact_survival_probability, random_subset_problem,
                      random_table_spec)

LN2 = math.log(2.0)


def criterion(num, label):
    """Record exactly one PASS/FAIL line per criterion for the summary."""

    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            import conftest
            try:
                fn(*args, **kwargs)
            except BaseException:
                conftest.ACCEPTANCE_LINES.append(
                    "criterion %2d %-28s FAIL" % (num, label))
                raise
            conftest.ACCEPTANCE_LINES.append(
                "criterion %2d %-28s PASS" % (num, label))
        return wrapper

    return deco


@criterion(1, "epsilon closed forms")
def test_criterion_1_epsilon_closed_forms():
    rng = random.Random(101)
    for _ in range(200):
        n = rng.randint(1, 400)
        m = rng.randint(1, n)
        q = rng.randint(2, 1 << n)
        at_half = epsilon(EpsilonInputs(n, m, q, 0.5))
        assert abs(at_half - (-m * LN2)) <= 1e-9 * abs(m * LN2)
        assert epsilon(EpsilonInputs(n, m, q, 0.0)) == 0.0


@criterion(2, "variance ratio monotone")
def test_criterion_2_lemma2_monotonicity():
    rng = random.Random(202)
    for _ in range(50):
        n = rng.randint(14, 400)
        m = rng.randint(1, min(n, 24))
        f = rng.uniform(0.0, 0.5)
        prev = -math.inf
        for z in range(1, 10_001):
            v = variance_bound_v(z, n, m, f)
            ratio_log = 2 * math.log(z) - v  # ln(z^2 / v(z))
            assert ratio_log > prev - 1e-12, (n, m, f, z)
            prev = ratio_log


@criterion(3, "U threshold at f=1/2")
def test_criterion_3_threshold_closed_form():
    for m in range(1, 17):
        want = 3 * (1 << m) - 3  # min integer z >= 3*2^m*(1 - 2^-m)
        assert upper_bound_threshold(m + 2, m, 0.5) == want


@criterion(4, "f* reproduction")
def test_criterion_4_fstar_reproduction():
    cases = [
        (204, 56, 0.18),
        (236, 58, 0.19),
        (125, 29, 0.26),
        (76, 15, 0.34),
        (64, 6, 0.41),
        (400, 9, 0.42),
    ]
    for n, m, want in cases:
        cert = min_density_fstar(n, m, 1 << (m + 2), 2.25)
        assert cert.met_at_half
        assert abs(cert.f_star - want) <= 0.02, (n, m, cert.f_star, want)


@criterion(5, "survival probability ceiling")
def test_criterion_5_lemma1_exactness():
    rng = random.Random(505)
    for n in range(1, 7):
        m_max = min(n, 20 // (n + 1))
        for m in range(1, m_max + 1):
            sets = [[Assignment(0, n)]]
            if n <= 3:
                sets.append([Assignment(b, n) for b in range(1 << n)])
            size = rng.randint(1, 1 << n)
            sets.append([Assignment(b, n)
                         for b in rng.sample(range(1 << n), size)])
            for s in sets:
                p = exact_survival_probability(s, m, 0.5)
                assert isinstance(p, Fraction)
                assert (1 << m) * p <= len(s)  # exact rational comparison


@criterion(6, "lower bound soundness")
def test_criterion_6_lower_bound_soundness():
    runs = 1000
    kappa, c, T = 1.0, 0.5, 24
    confidence = 1.0 - math.exp(-kappa * kappa * c * T
                                / ((1 + kappa) * (2 + kappa)))
    violations = 0
    for k in range(runs):
        rng = random.Random(60_000 + k)
        n = 12
        size = rng.randint(50, 300)
        problem = random_subset_problem(rng, n, size)
        m = rng.randint(1, n)
        cert = best_lower_bound(problem, 0.5, [m], T=T, kappa=kappa, c=c,
                                seed=k)
        if cert.issued and 2.0 ** cert.bound_log2 > size:
            violations += 1
    p_allow = 1.0 - confidence
    sigma = math.sqrt(p_allow * (1 - p_allow) / runs)
    assert violations / runs <= p_allow + 3 * sigma


@criterion(7, "upper bound soundness")
def test_criterion_7_upper_bound_soundness():
    runs, delta = 500, 0.1
    violations = 0
    for k in range(runs):
        rng = random.Random(70_000 + k)
        n = 14
        size = rng.randint(50, 400)
        problem = random_subset_problem(rng, n, size)
        m = rng.randint(1, n)
        cert = upper_bound(problem, m, 0.5, delta=delta, seed=k)
        if cert.verdict_log2 < math.log2(size):
            violations += 1
    sigma = math.sqrt(delta * (1 - delta) / runs)
    assert violations / runs <= delta + 3 * sigma


@criterion(8, "sparse-count factor 16")
def test_criterion_8_sparse_count_factor_16():
    runs = 100
    cfg = SparseCountConfig(delta=0.05, alpha=0.04, density_schedule=0.5)
    inside = 0
    for k in range(runs):
        rng = random.Random(80_000 + k)
        problem = random_subset_problem(rng, 16, 1 << 10)
        res = sparse_count(problem, cfg, seed=k)
        if res.log2_estimate is not None and 6.0 <= res.log2_estimate <= 14.0:
            inside += 1
    assert inside >= 95


@criterion(9, "blocked-matrix ground truth")
def test_criterion_9_synth_ground_truth():
    for n in range(3, 11):
        want = 1 + (n - 1) ** 2
        assert brute_force_count(synth_spec(n), force=n >= 9) == want
    assert abs(math.log2(50) - 5.64) <= 0.01
    # synth_20 fits the pruned enumerator comfortably despite 400 cells
    assert brute_force_count(synth_spec(20), force=True) == 362
    assert abs(math.log2(362) - 8.50) <= 0.01


@criterion(10, "encoding fidelity")
def test_criterion_10_encoding_fidelity():
    rng = random.Random(1010)
    specs = [random_table_spec(rng, max_cell_bits=12) for _ in range(98)]
    # hand-picked wider instances near the 14-cell-bit ceiling
    from xorcount.tables import ContingencyTableSpec
    specs.append(ContingencyTableSpec(3, 3, (3, 3, 3), (3, 3, 3),
                                      structural_zeros=frozenset(
                                          {(0, 0), (1, 1)})))        # 14 bits
    specs.append(ContingencyTableSpec(3, 2, (3, 3, 2), (4, 4)))      # 12 bits
    for spec in specs:
        problem, enc = encode_to_cnf(spec)
        assert enc.num_cell_bits <= 14
        count = 0
        for cells in range(1 << enc.num_cell_bits):
            if _check_assignment(problem.formula, enc.complete(cells)):
                count += 1
        assert count == brute_force_count(spec), spec

    # expand_xors projection equivalence, exhaustive for n <= 10
    for chunk in range(2, 7):
        for trial in range(3):
            rng2 = random.Random(100 * chunk + trial)
            n = rng2.randint(3, 10)
            support = rng2.sample(range(1, n + 1), rng2.randint(1, n))
            rhs = rng2.randint(0, 1)
            # auxiliaries are numbered from n + 1, past variables 1..n
            g = expand_xors(CnfFormula(n, [], [(support, rhs)]), chunk)
            nv = g.num_vars
            projected = {
                bits & ((1 << n) - 1)
                for bits in range(1 << nv)
                if _check_assignment(g, bits)
            }
            direct = {
                bits for bits in range(1 << n)
                if sum((bits >> (v - 1)) & 1 for v in support) % 2 == rhs
            }
            assert projected == direct


@criterion(11, "sweep sandwich smoke test")
def test_criterion_11_sweep_sandwich(tmp_path):
    rng = random.Random(7)
    n = 20
    clauses = []
    for _ in range(15):
        vs = rng.sample(range(1, n + 1), 3)
        clauses.append([v if rng.random() < 0.5 else -v for v in vs])
    formula = CnfFormula(n, clauses, [])
    exact = count_models(formula)
    exact_log2 = math.log2(exact)

    from xorcount.dimacs import emit
    cnf_path = tmp_path / "smoke.cnf"
    cnf_path.write_text(emit(formula))
    csv_path = tmp_path / "sweep.csv"
    rc = cli_main(["sweep", str(cnf_path), "0.1,0.3,0.5", "--m", "10",
                   "--T", "12", "--delta", "0.2", "--seed", "19",
                   "--csv", str(csv_path)])
    assert rc == 0
    with open(csv_path) as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 3
    for row in rows:
        assert row["lb_log2"], "lower bound not issued at f=%s" % row["f"]
        assert float(row["lb_log2"]) <= exact_log2
        assert float(row["ub_log2"]) >= exact_log2
