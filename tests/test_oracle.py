import hashlib
import os
import random
import shlex
import signal
import subprocess
import sys
import textwrap
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from xorcount.dimacs import CnfFormula, emit
from xorcount.gf2hash import (Assignment, HashParams, ParityHash, derive_seed,
                              sample_hash)
from xorcount.errors import ParseError
from xorcount.oracle import (CountingProblem, IntegrityError, ParameterError,
                             SolverProfile, conjoin, count_models,
                             expand_xors, has_survivor, has_survivors,
                             run_external, _check_assignment, _decide,
                             _echelon, _model_blocks, _pack, _stream,
                             _table_scan)
from conftest import apply_hash, count_survivors


def parity_solutions(n, support, rhs):
    return {
        bits for bits in range(1 << n)
        if sum((bits >> (v - 1)) & 1 for v in support) % 2 == rhs
    }


def packed_set(problem):
    """S of an in-process problem as one (|S|, W) array in increasing
    order: its stream of blocks concatenated, deduplicated when a CNF is
    projected onto n < num_vars."""
    blocks = list(_stream(problem))
    if not blocks:
        return np.empty((0, max(1, -(-problem.n // 64))), dtype=np.uint64)
    packed = np.concatenate(blocks)
    if problem.kind == "cnf" and problem.n < problem.formula.num_vars:
        packed = np.unique(packed[:, 0]).reshape(-1, 1)
    return packed


def projected_models(formula, n):
    """All models of `formula` projected onto variables 1..n, by enumeration."""
    out = set()
    for bits in range(1 << formula.num_vars):
        if _check_assignment(formula, bits):
            out.add(bits & ((1 << n) - 1))
    return out


class TestXorToCnf:
    """XOR(support) = rhs lowered alone, by `expand_xors` on a formula
    holding just that row."""

    @staticmethod
    def lowered(n, support, rhs, chunk=6):
        return expand_xors(CnfFormula(n, [], [(support, rhs)]), chunk)

    def test_empty_support_contradiction(self):
        # rhs 1 is unsatisfiable, written on a fresh variable with no empty
        # clause; rhs 0 holds everywhere and adds nothing
        assert self.lowered(2, [], 1).clauses == [[3], [-3]]
        assert self.lowered(2, [], 0).clauses == []

    def test_equivalence_pair(self):
        cls = self.lowered(2, [1, 2], 0).clauses
        assert sorted(map(sorted, cls)) == [[-2, 1], [-1, 2]]

    def test_clause_count_no_chaining(self):
        for t in range(1, 6):
            assert len(self.lowered(t, list(range(1, t + 1)), 1).clauses) == 1 << (t - 1)

    def test_chunk_validation(self):
        with pytest.raises(ParameterError):
            self.lowered(3, [1, 2, 3], 0, chunk=1)

    @pytest.mark.parametrize("chunk", [2, 3, 4, 5, 6])
    def test_projection_equivalence(self, chunk):
        rng = random.Random(chunk)
        for _ in range(10):
            n = rng.randint(2, 8)
            t = rng.randint(1, n)
            support = rng.sample(range(1, n + 1), t)
            rhs = rng.randint(0, 1)
            # auxiliaries are numbered from n + 1, past all n variables
            f = self.lowered(n, support, rhs, chunk)
            assert projected_models(f, n) == parity_solutions(n, support, rhs)

    @staticmethod
    def reference(support, rhs, chunk):
        """(clauses, num_vars) of the lowering of a row over variables
        1..200 as it was, with one Python loop per sign pattern and one per
        chained sub-XOR."""
        if chunk < 2:
            raise ParameterError("chunk must be at least 2")

        def direct(vars_, rhs):
            out = []
            for pattern in range(1 << len(vars_)):
                if pattern.bit_count() & 1 != rhs:
                    out.append([v if not (pattern >> i) & 1 else -v
                                for i, v in enumerate(vars_)])
            return out

        clauses = []
        pending = list(support)
        link = max(chunk, 3)
        aux = 200
        while len(pending) > chunk:
            aux += 1
            clauses.extend(direct(pending[: link - 1] + [aux], 0))
            pending = [aux] + pending[link - 1 :]
        clauses.extend(direct(pending, rhs))
        return clauses, aux

    @classmethod
    def expanded(cls, support, rhs, chunk):
        lowered = cls.lowered(200, support, rhs, chunk)
        return lowered.clauses, lowered.num_vars

    @staticmethod
    def outcome(lower, support, rhs, chunk):
        """lower's (clauses, num_vars) or its ParameterError's message."""
        try:
            return lower(support, rhs, chunk)
        except ParameterError as exc:
            return "ParameterError: %s" % exc

    @pytest.mark.parametrize("chunk", [1, 2, 3, 4, 5, 6, 7, 8, 9])
    def test_matches_the_per_pattern_loop(self, chunk):
        rng = random.Random(chunk)
        for t in range(1, 61):  # an empty row: TestExpandXors
            support = rng.sample(range(1, 201), t)
            for rhs in (0, 1):
                got = self.outcome(self.expanded, support, rhs, chunk)
                want = self.outcome(self.reference, support, rhs, chunk)
                assert got == want, (support, rhs, chunk)


class TestExpandXors:
    def test_solution_preserving(self):
        f = CnfFormula(4, [[1, 2]], [([1, 3], 1), ([2, 3, 4], 0)])
        g = expand_xors(f, chunk=6)
        assert g.xors == []
        direct = {
            bits for bits in range(16)
            if _check_assignment(f, bits)
        }
        assert projected_models(g, 4) == direct

    def test_empty_xor_contradiction_stays_dimacs_legal(self):
        f = CnfFormula(2, [[1]], [([], 1)])
        g = expand_xors(f)
        assert all(g.clauses)  # no empty clause emitted
        assert count_models(g) == 0

    @pytest.mark.parametrize("chunk", range(2, 12))
    def test_auxiliary_count(self, chunk):
        # a row of t > chunk variables is 1 + ceil((t - chunk) / (link - 2))
        # sub-XORs, one auxiliary between each two (3 at chunk 6, t 11)
        link = max(chunk, 3)
        for t in range(1, 60):
            aux = -(-(t - chunk) // (link - 2)) if t > chunk else 0
            g = expand_xors(CnfFormula(t, [], [(list(range(1, t + 1)), t & 1)]), chunk)
            assert g.num_vars - t == aux, (chunk, t)
            # every sub-XOR but the last has arity link
            last = t - aux * (link - 2)
            assert 1 <= last <= chunk
            assert len(g.clauses) == (aux << link - 1) + (1 << last - 1)

    @pytest.mark.parametrize("chunk", [6.0, 2.5, True, "6", None])
    def test_chunk_must_be_an_int(self, chunk):
        f = CnfFormula(14, [], [(list(range(1, 15)), 1)])
        with pytest.raises(ParameterError, match="chunk must be an integer"):
            expand_xors(f, chunk)

    @pytest.mark.parametrize("chunk", [17, 100])
    def test_chunk_past_16_is_refused_before_any_line(self, monkeypatch, chunk):
        # a sub-XOR of arity s is 2^(s-1) lines: no getter is built for one
        from xorcount import oracle
        monkeypatch.setattr(oracle, "_lines", lambda s, rhs: pytest.fail("built"))
        f = CnfFormula(40, [], [(list(range(1, 41)), 1)])
        with pytest.raises(ParameterError, match="chunk must be at most 16"):
            expand_xors(f, chunk)

    def test_chunk_16_is_the_largest(self):
        # a row of 16 variables is one sub-XOR of 2^15 lines
        f = CnfFormula(17, [], [(list(range(1, 17)), 1)])
        assert len(expand_xors(f, 16).clauses) == 1 << 15
        assert SolverProfile("solver {in}", chunk=16).chunk == 16


class TestConjoin:
    def test_native_path_emits_m_xlines(self):
        f = CnfFormula(6, [[1, -2]], [])
        h = sample_hash(HashParams(6, 3, 0.5, seed=1))
        text = emit(conjoin(f, h))
        assert sum(1 for l in text.splitlines() if l.startswith("x")) == 3

    def test_originals_untouched(self):
        f = CnfFormula(6, [[1, -2], [3]], [([4, 5], 1)])
        h = sample_hash(HashParams(6, 2, 0.4, seed=9))
        g = conjoin(f, h)
        assert g.clauses == f.clauses
        assert g.num_vars == f.num_vars
        assert g.xors[: len(f.xors)] == f.xors

    def test_expanded_leaves_the_formula_alone(self):
        f = CnfFormula(6, [[1, -2], [3], [-4, 5, 6]], [([4, 5], 1)])
        before = [list(cl) for cl in f.clauses]
        h = sample_hash(HashParams(6, 3, 0.5, seed=2))
        g = conjoin(f, h, native_xor=False)
        assert len(g.clauses) > len(f.clauses)
        assert f.clauses == before
        assert f.xors == [([4, 5], 1)]

    def test_purity(self):
        f = CnfFormula(5, [[1, 2, 3]], [])
        h = sample_hash(HashParams(5, 2, 0.3, seed=4))
        assert emit(conjoin(f, h)) == emit(conjoin(f, h))

    def test_double_count(self):
        # model count of the conjoined instance = survivors among models
        rng = random.Random(12)
        n = 8
        clauses = [[rng.choice([v, -v]) for v in rng.sample(range(1, n + 1), 3)]
                   for _ in range(6)]
        f = CnfFormula(n, clauses, [])
        models = [Assignment(b, n) for b in range(1 << n)
                  if _check_assignment(f, b)]
        for seed in range(5):
            h = sample_hash(HashParams(n, 3, 0.5, seed=seed))
            conj = expand_xors(conjoin(f, h))
            want = count_survivors(h, models)
            got = len(projected_models(conj, n) & {x.bits for x in models})
            assert got == want

    def test_width_check(self):
        f = CnfFormula(4, [[1]], [])
        h = sample_hash(HashParams(6, 2, 0.5, seed=0))
        from xorcount.gf2hash import DimensionError
        with pytest.raises(DimensionError):
            conjoin(f, h)


class TestExplicitBackend:
    def test_empty_set_unsat(self):
        problem = CountingProblem.from_explicit([], 6)
        h = sample_hash(HashParams(6, 2, 0.5, seed=0))
        assert has_survivors(problem, [h]) == ["unsat"]
        # an empty S has no block: the kernel answers every trial "unsat",
        # b = 0 and all-zero rows among them
        hashes = [h, ParityHash((0, 0), 0, h.params), ParityHash(h.rows, 0, h.params)]
        assert has_survivors(problem, hashes) == ["unsat"] * 3
        assert has_survivors(problem, [None] * 3) == ["unsat"] * 3

    def test_zero_hash_sat_with_witness(self):
        members = [Assignment(b, 6) for b in (5, 9, 33)]
        problem = CountingProblem.from_explicit(members, 6)
        h = ParityHash((0, 0), 0, HashParams(6, 2, 0.0))
        assert has_survivors(problem, [h]) == ["sat"]

    def test_witness_actually_survives(self):
        rng = random.Random(3)
        members = [Assignment(b, 12) for b in rng.sample(range(1 << 12), 80)]
        problem = CountingProblem.from_explicit(members, 12)
        for seed in range(30):
            h = sample_hash(HashParams(12, 4, 0.3, seed=seed))
            [answer] = has_survivors(problem, [h])
            assert (answer == "sat") == any(apply_hash(h, x) == 0 for x in members)

    def test_wide_problem_two_words(self):
        # n > 64 packs two uint64 words per member
        members = [Assignment(0, 70), Assignment((1 << 70) - 1, 70)]
        problem = CountingProblem.from_explicit(members, 70)
        h = ParityHash((0,), 1, HashParams(70, 1, 0.0))
        assert has_survivors(problem, [h]) == ["unsat"]

    def test_deduplication(self):
        members = [Assignment(3, 4)] * 5 + [Assignment(1, 4)]
        problem = CountingProblem.from_explicit(members, 4)
        assert sum(map(len, problem._blocks)) == 2

    @pytest.mark.parametrize("n", [0, 1, 12, 63, 64, 65, 130])
    def test_block_is_the_sorted_distinct_members(self, n):
        # one (|S|, W) uint64 block, rows in increasing order, each once:
        # what packing sorted(set(bits)) row by row gives, whether the
        # members come as a list or as a one-pass generator
        rng = random.Random(n)
        members = [Assignment(rng.getrandbits(n), n) for _ in range(40)]
        members += members[::3]
        want = _pack(sorted({x.bits for x in members}), max(1, -(-n // 64)))
        for source in (members, (x for x in members)):
            [block] = CountingProblem.from_explicit(source, n)._blocks
            assert (block.dtype, block.shape) == (want.dtype, want.shape)
            assert block.tobytes() == want.tobytes()

    def test_mixed_widths_rejected(self):
        from xorcount.gf2hash import DimensionError
        members = [Assignment.from_string(t) for t in ("0101", "11", "000000")]
        with pytest.raises(DimensionError):
            CountingProblem.from_explicit(members, 4)

    @pytest.mark.parametrize("n", [12, 130])
    def test_witness_is_first_survivor(self, n):
        rng = random.Random(n)
        members = [Assignment(rng.getrandbits(n), n) for _ in range(60)]
        problem = CountingProblem.from_explicit(members, n)
        for seed in range(20):
            h = sample_hash(HashParams(n, 4, 0.3, seed=seed))
            survivors = [x.bits for x in members if apply_hash(h, x) == 0]
            assert (has_survivors(problem, [h])[0] == "sat") == bool(survivors)

    def test_batch_checks_its_hashes(self):
        from xorcount.gf2hash import DimensionError
        problem = CountingProblem.from_explicit([Assignment(1, 6)], 6)
        h2 = sample_hash(HashParams(6, 2, 0.5, seed=0))
        h3 = sample_hash(HashParams(6, 3, 0.5, seed=0))
        with pytest.raises(ParameterError):
            has_survivors(problem, [h2, h3])
        with pytest.raises(ParameterError):
            has_survivors(problem, [h2, None])
        with pytest.raises(DimensionError):
            has_survivors(problem, [sample_hash(HashParams(7, 2, 0.5, seed=0))])
        assert has_survivors(problem, []) == []


class TestBackendAgreement:
    def test_explicit_vs_exhaustive_vs_external(self, exhaustive_solver):
        rng = random.Random(21)
        n = 10
        clauses = [[rng.choice([v, -v]) for v in rng.sample(range(1, n + 1), 3)]
                   for _ in range(8)]
        formula = CnfFormula(n, clauses, [])
        members = [Assignment(b, n) for b in range(1 << n)
                   if _check_assignment(formula, b)]
        explicit = CountingProblem.from_explicit(members, n)
        cnf = CountingProblem.from_cnf(formula)
        for seed in range(8):
            h = sample_hash(HashParams(n, 4, 0.4, seed=seed))
            [a] = has_survivors(explicit, [h])
            [b] = has_survivors(cnf, [h])
            c = has_survivor(cnf, h, solver=exhaustive_solver).answer
            assert a == b == c

    def test_exhaustive_cap(self):
        # past the cap: construction must not enumerate, the first question
        # without a solver refuses
        f = CnfFormula(30, [[1]], [])
        problem = CountingProblem.from_cnf(f)
        h = sample_hash(HashParams(30, 2, 0.5, seed=0))
        with pytest.raises(ParameterError):
            has_survivors(problem, [h])


def random_cnf(rng, num_vars, k, xors=0):
    clauses = [[rng.choice([v, -v]) for v in rng.sample(range(1, num_vars + 1), 3)]
               for _ in range(k)]
    rows = [(rng.sample(range(1, num_vars + 1), rng.randint(1, 4)), rng.randint(0, 1))
            for _ in range(xors)]
    return CnfFormula(num_vars, clauses, rows)


class TestModelSet:
    @pytest.mark.parametrize("seed", range(6))
    def test_agrees_with_brute_force(self, seed):
        # native xors in the formula, and projection onto n < num_vars
        rng = random.Random(seed)
        num_vars = rng.randint(6, 11)
        n = num_vars if seed % 2 else rng.randint(3, num_vars - 1)
        formula = random_cnf(rng, num_vars, rng.randint(3, 12), xors=seed % 3)
        models = [b for b in range(1 << num_vars) if _check_assignment(formula, b)]
        assert count_models(formula) == len(models)
        S = {b & ((1 << n) - 1) for b in models}
        problem = CountingProblem.from_cnf(formula, n)
        assert has_survivors(problem, [None]) == ["sat" if S else "unsat"]
        for k in range(12):
            h = sample_hash(HashParams(n, rng.randint(1, n), rng.random() / 2,
                                       seed=100 * seed + k))
            survivors = {x for x in S if apply_hash(h, Assignment(x, n)) == 0}
            assert (has_survivors(problem, [h])[0] == "sat") == bool(survivors)
        assert sorted(packed_set(problem)[:, 0].tolist()) == sorted(S)

    def test_external_questions_never_build_it(self, exhaustive_solver):
        rng = random.Random(5)
        problem = CountingProblem.from_cnf(random_cnf(rng, 8, 6))
        for seed in range(3):
            h = sample_hash(HashParams(8, 2, 0.5, seed=seed))
            has_survivor(problem, h, solver=exhaustive_solver)
        has_survivor(problem, solver=exhaustive_solver)
        assert problem._blocks == [] and problem._source is None

    def test_m_zero_on_every_kind(self, exhaustive_solver):
        sat = CountingProblem.from_cnf(CnfFormula(3, [[1, 2]], []))
        unsat = CountingProblem.from_cnf(CnfFormula(2, [[1], [-1]], []))
        for solver in (None, exhaustive_solver):
            assert has_survivors(sat, [None], solver=solver) == ["sat"]
            assert has_survivors(unsat, [None], solver=solver) == ["unsat"]
        members = [Assignment(5, 70)]
        for n, xs in ((6, [Assignment(5, 6)]), (70, members)):
            assert has_survivors(CountingProblem.from_explicit(xs, n), [None]) == ["sat"]
            assert has_survivors(CountingProblem.from_explicit([], n), [None]) == ["unsat"]


class TestSolverQuestion:
    """What has_survivor sends to an external solver, and how often."""

    @pytest.mark.parametrize("native_xor", [True, False])
    @pytest.mark.parametrize("f", [0.0, 0.3])
    @pytest.mark.parametrize("own_xlines", [0, 3])
    def test_sends_the_conjoined_formula(self, monkeypatch, native_xor, f,
                                         own_xlines):
        from xorcount import oracle
        sent = []

        def fake_run_external(text, profile):
            sent.append(text)
            return oracle.OracleVerdict("unsat")

        monkeypatch.setattr(oracle, "run_external", fake_run_external)
        rng = random.Random(own_xlines * 10 + int(f * 10))
        formula = random_cnf(rng, 10, 8, xors=own_xlines)
        problem = CountingProblem.from_cnf(formula)
        p = SolverProfile("solver {in}", native_xor=native_xor, chunk=3)
        for seed in range(4):
            h = sample_hash(HashParams(10, 5, f, seed=seed))
            assert has_survivor(problem, h, solver=p).answer == "unsat"
            conj = conjoin(formula, h)
            want = emit(conj if p.native_xor else expand_xors(conj, chunk=p.chunk))
            assert sent[-1] == want
        assert len(sent) == 4

    def test_refuses_an_explicit_problem(self, monkeypatch):
        # an explicit set has no formula to send: refused up front, with a
        # hash or without, and no solver is run
        from xorcount import oracle
        monkeypatch.setattr(oracle, "run_external", None)
        problem = CountingProblem.from_explicit([Assignment(1, 4)], 4)
        p = SolverProfile("solver {in}")
        for h in (ParityHash((0b0001,), 0, HashParams(4, 1, 0.5)), None):
            with pytest.raises(ParameterError, match="needs a CNF problem"):
                has_survivor(problem, h, solver=p)

    # a formula with its own x-lines, one of them long enough to chain
    FORMULA = CnfFormula(8, [[1, -2, 3], [-4, 5], [2, 6, -7], [-1, 8]],
                         [([1, 3, 5, 7], 1), ([2, 4, 6, 8, 1, 3, 5], 0)])
    # m = 0, a dense hash, an f = 0 hash whose second (empty) row has rhs 1,
    # and a sparse hash with an empty rhs-1 row last
    HASHES = (
        None,
        ParityHash((0b10110101, 0b01101110, 0b11111111), 0b101, HashParams(8, 3, 0.5)),
        ParityHash((0, 0), 0b10, HashParams(8, 2, 0.0)),
        ParityHash((0b00000100, 0b10000001, 0b00110000, 0), 0b1011,
                   HashParams(8, 4, 0.2)),
    )

    # SHA-256 of the texts sent for HASHES in order, recorded before the
    # transport choice moved out of dimacs.emit
    @pytest.mark.parametrize("native_xor,chunk,digest", [
        (True, 6, "62e4bd0ea31f29311e95738a6e42f097f60a3ef2dcf802236a02bf6a9652e294"),
        (False, 3, "4ebc4497a29392d75ab8586977d6e97c9956f3dc26834730a09fe478328a3df0"),
        (False, 6, "db19a83c4872de6767dd0e5074b75c9f4698c01eb589664efe5da14b9421a1da"),
    ])
    def test_sent_text_digests(self, monkeypatch, native_xor, chunk, digest):
        from xorcount import oracle
        sent = []

        def fake_run_external(text, profile):
            sent.append(text)
            return oracle.OracleVerdict("unsat")

        monkeypatch.setattr(oracle, "run_external", fake_run_external)
        problem = CountingProblem.from_cnf(self.FORMULA)
        p = SolverProfile("solver {in}", native_xor=native_xor, chunk=chunk)
        for h in self.HASHES:
            assert has_survivor(problem, h, solver=p).answer == "unsat"
        assert len(sent) == len(self.HASHES)
        assert hashlib.sha256("".join(sent).encode()).hexdigest() == digest

    def test_m_zero_is_asked_once(self, monkeypatch, exhaustive_solver):
        from xorcount import oracle
        from xorcount.bounds import estimate_survival
        calls = []
        real = oracle.run_external

        def counting_run_external(text, profile):
            calls.append(text)
            return real(text, profile)

        monkeypatch.setattr(oracle, "run_external", counting_run_external)
        problem = CountingProblem.from_cnf(CnfFormula(3, [[1, 2]], []))
        est = estimate_survival(problem, 0, 0.5, 5, seed=0, solver=exhaustive_solver)
        assert est.outcomes == (1, 1, 1, 1, 1)
        assert len(calls) == 1

    @pytest.mark.parametrize("kwargs", [{"chunk": 1}, {"chunk": 17}, {"jobs": 0},
                                        {"template": 'solver "{in}'},
                                        {"budget_s": float("nan")},
                                        {"budget_s": float("inf")},
                                        {"budget_s": 0.0}, {"budget_s": -1.0},
                                        # not ints, or bools
                                        {"chunk": 6.0}, {"chunk": 2.5},
                                        {"chunk": True}, {"jobs": 1.5},
                                        {"jobs": True}, {"budget_s": True},
                                        {"budget_s": "5"}])
    def test_profile_checked_at_construction(self, kwargs):
        # the template's {in} check: TestRunExternal.test_template_needs_placeholder
        with pytest.raises(ParameterError):
            SolverProfile(**{"template": "solver {in}", **kwargs})

    def test_int_budget_is_accepted(self):
        assert SolverProfile("solver {in}", budget_s=5).budget_s == 5

    def test_float_chunk_never_reaches_the_expansion(self, monkeypatch):
        # a profile that bypasses the check is refused in expand_xors,
        # before any solver runs
        from xorcount import oracle
        monkeypatch.setattr(oracle, "run_external", lambda *a: pytest.fail("ran"))
        with pytest.raises(ParameterError, match="chunk must be an integer"):
            SolverProfile("solver {in}", chunk=6.0)
        profile = SolverProfile("solver {in}", jobs=1)
        object.__setattr__(profile, "chunk", 6.0)
        formula = CnfFormula(14, [[1, 2, 3], [-4, 5, -6]], [])
        h = sample_hash(HashParams(14, 3, 0.5, seed=1))
        with pytest.raises(ParameterError, match="chunk must be an integer"):
            has_survivor(CountingProblem.from_cnf(formula), h, solver=profile)

    def test_jobs_default_to_the_usable_cpus(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 3, 5},
                            raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 8)
        assert SolverProfile("solver {in}").jobs == 3
        assert SolverProfile("solver {in}", jobs=1).jobs == 1
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        assert SolverProfile("solver {in}").jobs == 8
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert SolverProfile("solver {in}").jobs == 1

    def test_failure_stops_queued_calls(self, tmp_path):
        # the first question's call is slow; the second's witness fails its
        # recheck, so the calls queued behind them never start
        log = tmp_path / "calls.log"
        script = tmp_path / "slow_liar.py"
        script.write_text(textwrap.dedent("""\
            import sys, time
            text = open(sys.argv[1]).read()
            with open(%r, "a") as fh:
                fh.write("call\\n")
            if "x-4 0" in text:
                time.sleep(1.5)
            print("s SATISFIABLE")
            print("v -1 -2 -3 -4 0")
        """ % str(log)))
        solver = SolverProfile("%s %s {in}" % (sys.executable, script),
                               native_xor=True, jobs=2)
        problem = CountingProblem.from_cnf(CnfFormula(4, [[1]], []))
        params = HashParams(4, 1, 0.5)
        hashes = ([ParityHash((0b1000,), 0, params)]
                  + [ParityHash((0b0001,), 0, params)] * 15)
        with pytest.raises(IntegrityError):
            has_survivors(problem, hashes, solver=solver)
        assert len(log.read_text().splitlines()) < 16

    def test_interrupt_stops_queued_calls(self, monkeypatch):
        from xorcount import oracle
        calls = []

        def interrupted(problem, h, solver):
            calls.append(h)
            time.sleep(0.05)
            raise KeyboardInterrupt

        monkeypatch.setattr(oracle, "has_survivor", interrupted)
        problem = CountingProblem.from_cnf(CnfFormula(4, [[1]], []))
        hashes = [sample_hash(HashParams(4, 2, 0.5, seed=k)) for k in range(16)]
        with pytest.raises(KeyboardInterrupt):
            has_survivors(problem, hashes, solver=SolverProfile("s {in}", jobs=2))
        assert len(calls) < 16


def load_probe(monkeypatch):
    """perfbench/probe.py as a module, imported from its path without
    writing bytecode next to it or entering it in sys.modules."""
    import importlib.util
    path = Path(__file__).resolve().parents[1] / "perfbench" / "probe.py"
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("perfbench_probe", path)
    probe = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(probe)
    return probe


class TestBenchmarkBindings:
    """The benchmark's probe wraps xorcount's functions by name, so a
    rename in the package would break its traced runs."""

    def test_every_traced_name_is_a_function_of_the_package(self, monkeypatch):
        probe = load_probe(monkeypatch)
        assert len(probe.TRACED) > 10
        for mod, attr, _ in probe.TRACED:
            assert mod.__name__.startswith("xorcount."), mod
            assert callable(getattr(mod, attr, None)), (mod.__name__, attr)

    def test_pool_calls_are_labelled_external(self, monkeypatch):
        # has_survivors passes `solver` by keyword, which is how the probe
        # tells an external call from an in-process one
        from xorcount import oracle
        probe = load_probe(monkeypatch)
        labels = []

        def labelled(*args, **kwargs):
            labels.append(probe._has_survivor_label(args, kwargs))
            return oracle.OracleVerdict("unsat")

        monkeypatch.setattr(oracle, "has_survivor", labelled)
        problem = CountingProblem.from_cnf(CnfFormula(4, [[1]], []))
        hashes = [ParityHash((0b0001,), 0, HashParams(4, 1, 0.5))] * 3
        solver = SolverProfile("solver {in}", jobs=2)
        assert has_survivors(problem, hashes, solver=solver) == ["unsat"] * 3
        assert has_survivors(problem, [None], solver=solver) == ["unsat"]
        assert labels == ["oracle.external"] * 4


class TestUnsolvableHashes:
    """On a CNF problem, on both backends, a question whose system Ax = b
    has no solution over GF(2) is "unsat" without reading S or reaching the
    solver (`_echelon` gives None); explicit sets skip the check."""

    @staticmethod
    def brute_force(h):
        """Does some x in {0,1}^n have Ax = b?"""
        return survives(h, np.arange(1 << h.n, dtype=np.uint64))

    def test_matches_brute_force(self):
        rng = random.Random(31)
        verdicts = []
        for _ in range(400):
            n = rng.randint(1, 10)
            m = rng.randint(1, n)
            f = rng.choice((0.0, 0.05, 0.1, 0.3, 0.5))
            h = sample_hash(HashParams(n, m, f, seed=rng.getrandbits(32)))
            verdicts.append(self.brute_force(h))
            assert (_echelon(h) is not None) == verdicts[-1], h
        assert 50 < verdicts.count(False) < 350

    P = HashParams(4, 3, 0.5)

    @pytest.mark.parametrize("rows,b_bits,want", [
        ((0b0110, 0, 0b1001), 0b010, False),  # a zero row with rhs 1
        ((0b0110, 0, 0b1001), 0b101, True),  # ... and with rhs 0
        ((0b1011, 0b1011, 0b0001), 0b001, False),  # equal rows, different rhs
        ((0b1011, 0b1011, 0b0001), 0b011, True),
        ((0b1100, 0b0110, 0b1010), 0b001, False),  # row 3 = row 1 ^ row 2
        ((0b1100, 0b0110, 0b1010), 0b101, True),  # consistent, rank 2
        ((0b0001, 0b0010, 0b0100), 0b111, True),  # unit rows, full rank
        ((0, 0, 0), 0, True),
    ])
    def test_edge_cases(self, rows, b_bits, want):
        h = ParityHash(rows, b_bits, self.P)
        assert self.brute_force(h) == want
        assert (_echelon(h) is not None) == want

    @staticmethod
    def stand_in(monkeypatch, sent):
        """Put in `run_external`'s place a solver answering in process, with
        the first model of the text it is sent; it logs each text."""
        from xorcount import oracle
        from xorcount.dimacs import parse

        def solve(text, profile):
            sent.append(text)
            formula = parse(text)
            models = next(_model_blocks(formula), None)
            if models is None:
                return oracle.OracleVerdict("unsat")
            return oracle.OracleVerdict("sat", stats={
                "model_bits": int(models[0]),
                "assigned_bits": (1 << formula.num_vars) - 1})

        monkeypatch.setattr(oracle, "run_external", solve)

    SOLVER = SolverProfile("solver {in}", native_xor=True, jobs=2)

    def test_grid_answers_unchanged_without_the_check(self, monkeypatch):
        # the grid's formulas of at most 12 variables, so that the stand-in
        # solver's enumerations stay short.  Both backends' answers, with
        # the check, are those of brute force over the model set and those
        # of the solver asked every hash, unsolvable ones among them
        self.stand_in(monkeypatch, [])
        rng = random.Random(23)
        cases = []
        for formula in model_grid():
            n = formula.num_vars
            for m in sorted({1, (n + 1) // 2, n}) if 0 < n <= 12 else ():
                cases.append((formula, [
                    sample_hash(HashParams(n, m, f, seed=rng.getrandbits(32)))
                    for f in (0.0, 0.1, 0.3) for _ in range(3)]))
        assert not all(_echelon(h) is not None for _, hashes in cases for h in hashes)
        in_process = [has_survivors(CountingProblem.from_cnf(formula), hashes)
                      for formula, hashes in cases]
        checked = [has_survivors(CountingProblem.from_cnf(formula), hashes,
                                 solver=self.SOLVER)
                   for formula, hashes in cases]
        unchecked = [[has_survivor(CountingProblem.from_cnf(formula), h,
                                   solver=self.SOLVER).answer for h in hashes]
                     for formula, hashes in cases]
        brute = []
        for formula, hashes in cases:
            blocks = list(_model_blocks(formula))
            models = np.concatenate(blocks) if blocks else np.empty(0, np.uint64)
            brute.append(["sat" if survives(h, models) else "unsat" for h in hashes])
        assert checked == in_process == unchecked == brute

    def test_explicit_sets_skip_the_check(self, monkeypatch):
        # an explicit set's one block is in memory, so its questions go
        # straight to the kernel, and that block is all of S: with the check
        # and the cell decision made to raise, the answers, unsolvable
        # trials among them, are unchanged
        from xorcount import oracle
        rng = random.Random(41)
        members = [Assignment(rng.getrandbits(10), 10) for _ in range(40)]
        problem = CountingProblem.from_explicit(members, 10)
        S = packed_set(problem)[:, 0]
        hashes = [sample_hash(HashParams(10, m, f, seed=rng.getrandbits(32)))
                  for m in (2, 5) for f in (0.0, 0.1, 0.5) for _ in range(4)]
        batches = [[h for h in hashes if h.m == m] for m in (2, 5)]
        assert not all(_echelon(h) is not None for h in hashes)
        want = [["sat" if survives(h, S) else "unsat" for h in batch]
                for batch in batches]
        assert {"sat", "unsat"} <= set(want[0] + want[1])

        def refuse(*args):
            raise AssertionError("explicit sets skip the check")

        monkeypatch.setattr(oracle, "_echelon", refuse)
        monkeypatch.setattr(oracle, "_decide", refuse)
        assert [has_survivors(problem, batch) for batch in batches] == want
        assert has_survivors(problem, [None]) == ["sat"]

    def test_only_solvable_hashes_reach_the_solver(self, monkeypatch):
        sent = []
        self.stand_in(monkeypatch, sent)
        formula = random_cnf(random.Random(5), 8, 10)
        for m in (1, 3, 6):
            hashes = [sample_hash(HashParams(8, m, f, seed=k))
                      for f in (0.05, 0.1, 0.3) for k in range(6)]
            sent.clear()
            got = has_survivors(CountingProblem.from_cnf(formula), hashes,
                                solver=self.SOLVER)
            assert got == has_survivors(CountingProblem.from_cnf(formula), hashes)
            asked = [emit(conjoin(formula, h)) for h in hashes
                     if _echelon(h) is not None]
            assert sorted(sent) == sorted(asked) and len(asked) < len(hashes)
            assert {"sat", "unsat"} <= set(got)

    def test_unsolvable_estimate_asks_no_solver(self, monkeypatch):
        # at f = 0 every row is zero, so a trial is solvable only if b = 0;
        # at seed 0 none of the 8 is, and an estimate with a solver that
        # always fails completes with no solver call, pool or temp file
        import concurrent.futures
        from xorcount import oracle
        from xorcount.bounds import estimate_survival
        calls = []
        real = oracle.run_external
        monkeypatch.setattr(oracle, "run_external",
                            lambda text, profile: calls.append(text) or real(text, profile))
        monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", None)
        problem = CountingProblem.from_cnf(CnfFormula(8, [[1, -2]], []))
        est = estimate_survival(problem, 8, 0.0, 8, seed=0,
                                solver=SolverProfile("false {in}"))
        assert est.outcomes == (0,) * 8 and calls == []


class TestCellDecisions:
    """A trial of a CNF problem is decided on its cell (`_decide`), the
    formula evaluated over the cell's points, when the cell has at most
    2^16 assignments of all num_vars variables."""

    def test_matches_the_model_set(self):
        rng = random.Random(53)
        seen = {False: 0, True: 0, None: 0}
        for formula in model_grid():
            nv = formula.num_vars
            blocks = list(_model_blocks(formula))
            models = np.concatenate(blocks) if blocks else np.empty(0, np.uint64)
            for n in {nv, nv // 2}:
                S = np.unique(models & np.uint64((1 << n) - 1))
                for m in sorted({1, (n + 1) // 2, n}) if n else ():
                    for f in (0.1, 0.3, 0.5):
                        h = sample_hash(HashParams(n, m, f, seed=rng.getrandbits(32)))
                        pivots = _echelon(h)
                        got = False if pivots is None else _decide(formula, pivots)
                        if pivots is not None and nv - len(pivots) > 16:
                            assert got is None
                        else:
                            assert got == survives(h, S), (formula, n, h)
                        seen[got] += 1
        assert min(seen.values()) > 10, seen


class TestCountModels:
    def test_small_formula(self):
        # (x1 or x2) and (not x1 or x3) over 4 variables
        f = CnfFormula(4, [[1, 2], [-1, 3]], [])
        want = sum(1 for b in range(16) if _check_assignment(f, b))
        assert count_models(f) == want

    def test_with_native_xors(self):
        f = CnfFormula(5, [[1, 2]], [([1, 5], 1)])
        want = sum(1 for b in range(32) if _check_assignment(f, b))
        assert count_models(f) == want

    def test_unsat(self):
        assert count_models(CnfFormula(3, [[1], [-1]], [])) == 0

    @pytest.mark.parametrize("formula,want", [
        (CnfFormula(0, [], []), 1),
        (CnfFormula(0, [], [([], 1)]), 0),
        (CnfFormula(3, [[1]], [([], 0)]), 4),
        # DIMACS allows a repeated variable: "1 1 0" and "x1 1 0"
        (CnfFormula(2, [[1, 1], [-2]], []), 1),
        (CnfFormula(2, [], [([1, 1], 0)]), 4),
    ])
    def test_edge_counts(self, formula, want):
        assert count_models(formula) == want


# nv of the enumeration grid: no variable, a partial word, exactly one
# word (6), one block (20) and two or four blocks of 2^20 assignments
MODEL_GRID_NV = (0, 1, 2, 5, 6, 7, 12, 19, 20, 21, 22)
# sha256 of the packed model sets over the grid (`packed_set`), in full and
# projected onto variables 1..nv//2, as the one-assignment-per-word
# enumerator built them
MODEL_GRID_SHA256 = "d4ef43e0dac716aada8d4305c50414167b521e5ff58d41ecc237a9c6e726dbd3"


def model_grid():
    """Seeded formulas over MODEL_GRID_NV, three per nv: clauses only;
    clauses with parity rows (an empty one with rhs 0, random ones, one over
    the top variables); and that again with an empty row of rhs 1.  Clauses
    have width 1-4 on distinct variables; above 20 variables some of them
    reach above the 2^20-assignment block, and one lies wholly above it."""
    rng = random.Random(2024)
    for nv in MODEL_GRID_NV:
        clauses = []
        for _ in range(nv):
            vars_ = rng.sample(range(1, nv + 1), min(rng.choice((1, 2, 3, 4, 4)), nv))
            if nv > 20 and len(vars_) > 1 and rng.random() < 0.4:
                vars_[0] = rng.choice([v for v in range(21, nv + 1) if v not in vars_[1:]])
            clauses.append([rng.choice([v, -v]) for v in vars_])
        if nv > 20:
            clauses.append(list(range(21, nv + 1)))
        rows = [([], 0)]
        for _ in range(rng.randint(1, 3) if nv else 0):
            rows.append((rng.sample(range(1, nv + 1), rng.randint(1, min(6, nv))),
                         rng.randint(0, 1)))
        top = list(range(max(1, nv - 2), nv + 1)) if nv else []
        rows.append((top, rng.randint(0, 1)))
        yield CnfFormula(nv, clauses, [])
        yield CnfFormula(nv, clauses, rows)
        yield CnfFormula(nv, clauses, rows + [([], 1)])


def per_assignment_models(formula):
    """The formula's models, each assignment evaluated on its own in numpy
    (2^16 at a time): a reference where brute force in Python is too slow."""
    nv, out = formula.num_vars, []
    for lo in range(0, 1 << nv, 1 << 16):
        x = np.arange(lo, min(lo + (1 << 16), 1 << nv), dtype=np.uint64)
        col = [None] + [(x >> np.uint64(j)) & np.uint64(1) == 1 for j in range(nv)]
        ok = np.ones(len(x), dtype=bool)
        for cl in formula.clauses:
            ok &= np.any([col[l] if l > 0 else ~col[-l] for l in cl], axis=0)
        for sup, rhs in formula.xors:
            parity = np.zeros(len(x), dtype=bool)
            for v in sup:
                parity ^= col[v]
            ok &= parity == bool(rhs)
        out += x[ok].tolist()
    return out


class TestModelBlocks:
    @pytest.mark.parametrize("index", range(3 * len(MODEL_GRID_NV)))
    def test_matches_brute_force(self, index):
        formula = list(model_grid())[index]
        nv = formula.num_vars
        blocks = list(_model_blocks(formula))
        for block in blocks:
            assert block.dtype == np.uint64 and block.ndim == 1 and len(block)
        models = np.concatenate(blocks).tolist() if blocks else []
        assert models == sorted(set(models))
        if nv <= 12:
            assert models == [b for b in range(1 << nv) if _check_assignment(formula, b)]
            return
        assert models == per_assignment_models(formula)
        rng, held = random.Random(index), set(models)
        for b in rng.sample(models, min(len(models), 1000)) + rng.sample(range(1 << nv), 2000):
            assert _check_assignment(formula, b) == (b in held)

    def test_packed_sets_match_the_recorded_digest(self):
        digest = hashlib.sha256()
        for formula in model_grid():
            for n in (formula.num_vars, formula.num_vars // 2):
                packed = packed_set(CountingProblem.from_cnf(formula, n))
                digest.update(b"%d:" % len(packed) + packed.tobytes())
        assert digest.hexdigest() == MODEL_GRID_SHA256


def edge_grid():
    """Seeded formulas of 0-6 variables (clauses, then parity rows, some
    with a repeated variable), and formulas of 17-21 variables whose
    clauses and parity rows lie wholly, or partly, above variable 16, so
    that they are constants over each 2^16-assignment sub-block."""
    rng = random.Random(34)
    for nv in range(7):
        for _ in range(3):
            clauses = [[rng.choice([v, -v]) for v in
                        rng.choices(range(1, nv + 1), k=rng.randint(1, 3))]
                       for _ in range(rng.randint(0, nv + 1))] if nv else []
            rows = [(rng.choices(range(1, nv + 1), k=rng.randint(0, 4)) if nv else [],
                     rng.randint(0, 1)) for _ in range(rng.randint(0, 2))]
            yield CnfFormula(nv, clauses, rows)
    for nv in (17, 18, 20, 21):
        high = range(17, nv + 1)
        for _ in range(2):
            clauses = [[rng.choice([v, -v]) for v in rng.sample(high, min(2, len(high)))]
                       for _ in range(2)]
            rows = [(rng.sample(high, rng.randint(1, len(high))), rng.randint(0, 1))
                    for _ in range(2)]
            mixed = [([rng.randint(1, 16), rng.choice(high)], rng.randint(0, 1)),
                     ([rng.randint(1, 16), rng.choice(high), rng.choice(high)], 1)]
            yield CnfFormula(nv, clauses, rows)
            yield CnfFormula(nv, clauses + [[1, -2, rng.choice(high)]], rows + mixed)


class TestSubBlocks:
    """`xorcount solve`, `count_models` and the model stream read one
    evaluator, `dimacs._model_masks`, and agree on every formula."""

    FORMULAS = list(model_grid()) + list(edge_grid())

    @pytest.mark.parametrize("index", range(len(FORMULAS)))
    def test_solve_count_and_stream_agree(self, index, tmp_path, capsys):
        from xorcount.cli import main
        formula = self.FORMULAS[index]
        nv = formula.num_vars
        blocks = list(_model_blocks(formula))
        assert count_models(formula) == sum(len(b) for b in blocks)
        path = tmp_path / "f.cnf"
        path.write_text(emit(formula))
        rc = main(["solve", str(path)])
        out = capsys.readouterr().out.splitlines()
        if not blocks:
            assert rc == 20 and out == ["s UNSATISFIABLE"]
            return
        assert rc == 10 and out[0] == "s SATISFIABLE"
        lits = [int(t) for t in out[1].split()[1:]]
        assert lits[-1] == 0 and [abs(l) for l in lits[:-1]] == list(range(1, nv + 1))
        first = sum(1 << (l - 1) for l in lits if l > 0)
        assert first == int(blocks[0][0])
        # projected onto n < nv, each block of the stream is its block's
        # models masked and deduplicated, and solve's model is in the first
        for n in sorted({0, nv // 2, nv - 1}) if nv else ():
            held = list(_stream(CountingProblem.from_cnf(formula, n)))
            mask = np.uint64((1 << n) - 1)
            assert len(held) == len(blocks)
            for got, block in zip(held, blocks):
                assert np.array_equal(got.ravel(), np.unique(block & mask))
            assert first & ((1 << n) - 1) in held[0].ravel().tolist()


def criterion_11_cnf():
    """Criterion 11's random 3-CNF: 141,440 models of 20 variables, in
    stream blocks of 6,880, 6,880, 16,416, 32,000 and 79,264."""
    rng = random.Random(7)
    clauses = []
    for _ in range(15):
        vs = rng.sample(range(1, 21), 3)
        clauses.append([v if rng.random() < 0.5 else -v for v in vs])
    return CnfFormula(20, clauses, [])


class TestRepeatedMasks:
    """A block decodes each distinct sub-block mask once and writes its
    models at every sub-block that holds it.  On formulas whose masks
    repeat within a block (`edge_grid`'s of more than 16 variables, and
    criterion 11's CNF, whose variable 17 is in no clause) the blocks match
    an evaluation of each assignment on its own."""

    FORMULAS = [f for f in edge_grid() if f.num_vars > 16] + [criterion_11_cnf()]

    @pytest.mark.parametrize("index", range(len(FORMULAS)))
    def test_matches_brute_force(self, index):
        formula = self.FORMULAS[index]
        blocks = list(_model_blocks(formula))
        models = np.concatenate(blocks).tolist() if blocks else []
        assert models == per_assignment_models(formula)

    def test_masks_repeat(self, monkeypatch):
        from xorcount import oracle
        parts, real = [], oracle._block_models

        def spy(part, size):
            parts.append((len(part), len({mask for _, mask in part})))
            return real(part, size)

        monkeypatch.setattr(oracle, "_block_models", spy)
        for formula in self.FORMULAS:
            list(_model_blocks(formula))
        # criterion 11's last block: 8 sub-blocks, 4 masks
        assert (8, 4) in parts
        assert sum(subs > masks for subs, masks in parts) >= 8


def survives(h, members):
    """Does some member (uint64 array) have h(x) = 0?  By row parities,
    one popcount per member and row."""
    ok = np.ones(len(members), dtype=bool)
    for i, row in enumerate(h.rows):
        parity = np.bitwise_count(members & np.uint64(row)) & 1
        ok &= parity == (h.b_bits >> i & 1)
    return bool(ok.any())


def spy_model_blocks(monkeypatch):
    """The length of each block a problem's enumerator yields, in order."""
    from xorcount import oracle
    pulled = []
    real = oracle._model_blocks

    def counting(formula):
        def blocks(source):
            for models in source:
                pulled.append(len(models))
                yield models
        return blocks(real(formula))

    monkeypatch.setattr(oracle, "_model_blocks", counting)
    return pulled


def spy_decide(monkeypatch):
    """The pivots of each cell `has_survivors` decides, in order."""
    from xorcount import oracle
    decided = []
    real = oracle._decide
    monkeypatch.setattr(oracle, "_decide",
                        lambda formula, pivots: decided.append(pivots)
                        or real(formula, pivots))
    return decided


def late_hashes():
    """An m = 1 batch on criterion 11's 3-CNF that reads its whole stream:
    six sampled hashes, one with no solution (0 = 1), and x20 = 1, whose
    cell of 2^19 assignments is too large for `_decide` and whose survivors
    all lie in the last block."""
    hashes = [sample_hash(HashParams(20, 1, 0.3, seed=s)) for s in range(6)]
    params = hashes[0].params
    return hashes + [ParityHash((0,), 1, params), ParityHash((1 << 19,), 1, params)]


class TestModelStream:
    """In-process questions read a CNF's models only as far as they need."""

    def test_blocks_double_up_to_2_20(self):
        blocks = list(_model_blocks(criterion_11_cnf()))
        assert [len(b) for b in blocks] == [6880, 6880, 16416, 32000, 79264]
        bounds = [0, 1 << 16, 1 << 17, 1 << 18, 1 << 19, 1 << 20]
        for block, lo, hi in zip(blocks, bounds, bounds[1:]):
            assert lo <= int(block[0]) and int(block[-1]) < hi
        spans = [(int(b[0]) >> 20, int(b[-1]) >> 20)
                 for b in _model_blocks(CnfFormula(23, [[21, 22, 23]], []))]
        assert spans[-7:] == [(k, k) for k in range(1, 8)]

    def test_first_block_answers_leave_the_rest_unread(self, monkeypatch):
        # every trial's survivor is the first model.  At m = 10, T = 7 the
        # cells hold 7 * 2^10 assignments, within the budget of 2^16: each
        # is decided and no block is pulled.  At m = 3 they hold 7 * 2^17:
        # the kernel pulls one block of five, and answers every trial there
        pulled = spy_model_blocks(monkeypatch)
        decided = spy_decide(monkeypatch)
        formula = criterion_11_cnf()
        first = int(next(_model_blocks(formula))[0])
        problem = CountingProblem.from_cnf(formula)
        hashes, wide = [], []
        for m, batch in ((10, hashes), (3, wide)):
            for seed in range(7):
                h = sample_hash(HashParams(20, m, 0.5, seed=seed))
                image = TestSurvivalKernels.image(h, Assignment(first, 20))
                batch.append(ParityHash(h.rows, image, h.params))
        assert has_survivors(problem, hashes) == ["sat"] * 7
        assert pulled == [] and len(decided) == 7
        assert has_survivors(problem, wide) == ["sat"] * 7
        assert pulled == [6880] and len(problem._blocks) == 1
        assert len(decided) == 7
        # later questions reread the blocks held
        assert has_survivors(problem, [None]) == ["sat"]
        assert pulled == [6880]
        # an unsolvable hash (0 = 1) is "unsat" before any block is read
        none = ParityHash((0,) * 10, 1, hashes[0].params)
        assert has_survivors(problem, [none]) == ["unsat"]
        assert pulled == [6880]
        # a solvable hash with no survivor, found by brute force, is
        # decided on its cell, as is the hash asked with it: no further
        # block is read
        models = np.concatenate(list(_model_blocks(formula)))
        empty = next(h for h in (sample_hash(HashParams(20, 10, 0.1, seed=s))
                                 for s in range(100))
                     if _echelon(h) is not None and not survives(h, models))
        assert has_survivors(problem, [empty, hashes[0]]) == ["unsat", "sat"]
        assert pulled == [6880] and len(decided) == 9
        # x20 = 1, a cell too large to decide, reads to its first survivor
        # in the last block: every block is read, once
        late = late_hashes()[-1]
        assert has_survivors(problem, [late]) == ["sat"]
        assert pulled == [6880, 6880, 16416, 32000, 79264]
        assert has_survivors(problem, [none]) == ["unsat"]
        assert has_survivors(problem, [late]) == ["sat"]
        assert len(pulled) == 5

    def test_unsolvable_trials_read_no_block(self, monkeypatch):
        # cnf20-exhaustive's f = 0.1 request in seed slot 7 (--seed 7000,
        # --m 10, --T 7): six of its seven hashes have no solution of
        # Ax = b, and the one that has is decided on its cell, within the
        # budget, so no block is pulled
        from xorcount.gf2hash import derive_seed
        pulled = spy_model_blocks(monkeypatch)
        decided = spy_decide(monkeypatch)
        formula = criterion_11_cnf()
        stream = derive_seed(7000, 10)
        hashes = [sample_hash(HashParams(20, 10, 0.1, seed=derive_seed(stream, k)))
                  for k in range(7)]
        assert [_echelon(h) is not None for h in hashes] == [False] * 4 + [True] + [False] * 2
        models = np.concatenate(list(_model_blocks(formula)))
        want = ["unsat"] * 4 + ["sat"] + ["unsat"] * 2
        assert ["sat" if survives(h, models) else "unsat" for h in hashes] == want
        assert has_survivors(CountingProblem.from_cnf(formula), hashes) == want
        assert pulled == [] and len(decided) == 1

    def test_late_survivors_are_decided_on_their_cells(self, monkeypatch):
        # cnf20-exhaustive's f = 0.1 request in seed slot 0 (--seed 0,
        # --m 10, --T 7): of its three solvable hashes, one has its first
        # survivor in the first block and two only in blocks 3 and 4.  All
        # three are decided on their cells, within the budget, so no block
        # is pulled, where reading on to each first survivor pulled all five
        from xorcount.gf2hash import derive_seed
        pulled = spy_model_blocks(monkeypatch)
        formula = criterion_11_cnf()
        stream = derive_seed(0, 10)
        hashes = [sample_hash(HashParams(20, 10, 0.1, seed=derive_seed(stream, k)))
                  for k in range(7)]
        blocks = list(_model_blocks(formula))
        first = [next((i for i, b in enumerate(blocks) if survives(h, b)), None)
                 for h in hashes if _echelon(h) is not None]
        assert first == [3, 0, 4]
        want = ["unsat", "sat", "unsat", "sat", "unsat", "sat", "unsat"]
        assert ["sat" if survives(h, np.concatenate(blocks)) else "unsat"
                for h in hashes] == want
        decided = spy_decide(monkeypatch)
        assert has_survivors(CountingProblem.from_cnf(formula), hashes) == want
        assert pulled == [] and len(decided) == 3

    def test_each_hash_is_eliminated_once(self, monkeypatch):
        # the seed-0 f = 0.1 request above: its three solvable trials are
        # decided on the pivots of the one elimination that let them be
        # asked, so `_echelon` runs once per hash; with a solver, too, each
        # hash is eliminated once
        from xorcount import oracle
        from xorcount.gf2hash import derive_seed
        stream = derive_seed(0, 10)
        hashes = [sample_hash(HashParams(20, 10, 0.1, seed=derive_seed(stream, k)))
                  for k in range(7)]
        eliminated = []
        echelon = oracle._echelon
        monkeypatch.setattr(oracle, "_echelon",
                            lambda h: eliminated.append(h) or echelon(h))
        decided = spy_decide(monkeypatch)
        problem = CountingProblem.from_cnf(criterion_11_cnf())
        want = ["unsat", "sat", "unsat", "sat", "unsat", "sat", "unsat"]
        assert has_survivors(problem, hashes) == want
        assert decided == [echelon(h) for h in hashes if echelon(h) is not None]
        assert [id(h) for h in eliminated] == [id(h) for h in hashes]
        eliminated.clear()
        monkeypatch.setattr(oracle, "run_external",
                            lambda text, profile: oracle.OracleVerdict("unsat"))
        solver = SolverProfile("solver {in}", jobs=1)
        assert has_survivors(problem, hashes, solver=solver) == ["unsat"] * 7
        assert [id(h) for h in eliminated] == [id(h) for h in hashes]

    def test_answers_over_the_grid_match_apply_hash(self):
        rng = random.Random(17)
        for formula in model_grid():
            blocks = list(_model_blocks(formula))
            models = np.concatenate(blocks) if blocks else np.empty(0, np.uint64)
            for n in {formula.num_vars, formula.num_vars // 2}:
                S = np.unique(models & np.uint64((1 << n) - 1))
                problem = CountingProblem.from_cnf(formula, n)
                assert has_survivors(problem, [None] * 2) == ["sat" if len(S) else "unsat"] * 2
                for m in sorted({1, (n + 1) // 2, n}) if n else ():
                    hashes = [sample_hash(HashParams(n, m, f, seed=rng.getrandbits(32)))
                              for f in (0.1, 0.3, 0.5) for _ in range(3)]
                    hashes.append(ParityHash((0,) * m, 1, hashes[0].params))
                    want = [survives(h, S) for h in hashes]
                    got = has_survivors(problem, hashes)
                    assert got == ["sat" if w else "unsat" for w in want], (formula, n, m)
                    assert want[-1] is False
                    # the parity reference agrees with apply_hash
                    for h in hashes[:3]:
                        for x in rng.sample(S.tolist(), min(len(S), 20)):
                            ok = apply_hash(h, Assignment(x, n)) == 0
                            assert ok == survives(h, np.array([x], dtype=np.uint64))

    def test_m_zero_reads_the_first_nonempty_block(self, monkeypatch):
        pulled = spy_model_blocks(monkeypatch)
        # models only from assignment 3 * 2^20 on: the stream's first block
        late = CountingProblem.from_cnf(CnfFormula(22, [[21], [22]], []))
        assert has_survivors(late, [None] * 3) == ["sat"] * 3
        assert pulled == [1 << 20] and len(late._blocks) == 1
        early = CountingProblem.from_cnf(criterion_11_cnf())
        assert has_survivors(early, [None]) == ["sat"]
        assert pulled[1:] == [6880]
        unsat = CountingProblem.from_cnf(CnfFormula(20, [[1], [-1]], []))
        assert has_survivors(unsat, [None] * 2) == ["unsat"] * 2
        assert len(pulled) == 2 and unsat._blocks == []
        # m >= 1 on the same empty model set: every trial is "unsat", the
        # one whose hash holds for every x too
        hashes = [sample_hash(HashParams(20, 3, 0.5, seed=s)) for s in range(2)]
        hashes.append(ParityHash((0,) * 3, 0, hashes[0].params))
        assert has_survivors(unsat, hashes) == ["unsat"] * 3
        assert len(pulled) == 2 and unsat._blocks == []

    def test_solve_reads_one_block(self, tmp_path, capsys, monkeypatch):
        from xorcount import dimacs
        from xorcount.cli import main
        formula = CnfFormula(26, [[1, 26], [-2, 25], [3, -4]], [([5, 20, 26], 1)])
        read = []
        real = dimacs._model_masks

        def counting(formula):
            for start, mask in real(formula):
                read.append(start)
                yield start, mask

        monkeypatch.setattr(dimacs, "_model_masks", counting)
        path = tmp_path / "f26.cnf"
        path.write_text(emit(formula))
        assert main(["solve", str(path)]) == 10
        assert read == [0]
        vline = capsys.readouterr().out.splitlines()[1]
        lits = [int(t) for t in vline.split()[1:-1]]
        assert _check_assignment(formula, sum(1 << (l - 1) for l in lits if l > 0))

    def test_concurrent_first_questions(self):
        import threading
        formula = criterion_11_cnf()
        # x20 = 1 finds its first survivor in the last block, so each
        # question reads the whole stream
        hashes = late_hashes()
        serial = has_survivors(CountingProblem.from_cnf(formula), hashes)
        assert "sat" in serial and "unsat" in serial
        for _ in range(3):
            problem = CountingProblem.from_cnf(formula)
            start = threading.Barrier(2)
            answers, errors = [None, None], []

            def ask(k):
                try:
                    start.wait()
                    answers[k] = has_survivors(problem, hashes)
                except Exception as exc:  # reported below, in the main thread
                    errors.append(exc)

            threads = [threading.Thread(target=ask, args=(k,)) for k in range(2)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            assert errors == [] and answers == [serial, serial]
            assert [len(b) for b in problem._blocks] == [6880, 6880, 16416, 32000, 79264]

    def test_four_readers_enumerate_each_block_once(self, monkeypatch):
        # four threads ask the same questions of one fresh problem at once:
        # the one that extends the stream takes the lock, the others read
        # what it added, so each block of models is enumerated once
        import threading
        formula = criterion_11_cnf()
        hashes = late_hashes()
        serial = has_survivors(CountingProblem.from_cnf(formula), hashes)
        pulled = spy_model_blocks(monkeypatch)
        problem = CountingProblem.from_cnf(formula)
        start = threading.Barrier(4)
        answers, errors = [None] * 4, []

        def ask(k):
            try:
                start.wait()
                answers[k] = has_survivors(problem, hashes)
            except Exception as exc:  # reported below, in the main thread
                errors.append(exc)

        threads = [threading.Thread(target=ask, args=(k,)) for k in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert errors == [] and answers == [serial] * 4
        assert pulled == [6880, 6880, 16416, 32000, 79264]
        assert [len(b) for b in problem._blocks] == pulled


class TestDecisionBudget:
    """A CNF estimate whose cells hold at most 2^16 assignments in all, the
    size of S's first block, each counted as at least 2^8, is decided on
    its cells and reads no block; one trial more, or one cell of 2^8 or
    more twice as wide, sends it through the kernel, which reads S's first
    block.  A cell counts the assignments of all the formula's variables,
    also when S is projected onto fewer."""

    BUDGET, FLOOR = 1 << 16, 1 << 8

    @classmethod
    def charge(cls, formula, h):
        """What the budget counts for h's cell: its assignments of the
        formula's variables, at least FLOOR; 0 when Ax = b has no
        solution."""
        pivots = _echelon(h)
        return 0 if pivots is None else max(1 << formula.num_vars - len(pivots), cls.FLOOR)

    @classmethod
    def at_budget(cls, formula, n, m, rng):
        """Random hashes of width n and m rows, each kept while the charges'
        sum stays within the budget, until it is the budget exactly (every
        charge is a power of two of at least FLOOR, which divides 2^16);
        and the first full-rank hash the sum had no room for.  Some hashes
        have no solution of Ax = b."""
        params = HashParams(n, m, 0.5)
        full = max(1 << formula.num_vars - m, cls.FLOOR)
        batch, total, spare = [], 0, None
        while total < cls.BUDGET or spare is None:
            h = ParityHash(tuple(rng.getrandbits(n) for _ in range(m)),
                           rng.getrandbits(m), params)
            size = cls.charge(formula, h)
            if total + size <= cls.BUDGET:
                batch.append(h)
                total += size
            elif spare is None and size == full and len(_echelon(h)) == m:
                spare = h
        return batch, spare

    @staticmethod
    def widened(h):
        """h of full rank with its last row and bit of b zeroed: rank m - 1,
        so its cell holds twice the assignments."""
        return ParityHash(h.rows[:-1] + (0,), h.b_bits & ~(1 << h.m - 1), h.params)

    @classmethod
    def batches(cls, formula, n, rng, m=None):
        """The batch at the budget and it with one trial more, both at m
        rows (default max(1, nv - 13): a full-rank cell of at most 2^13
        assignments); and, where a full-rank cell holds FLOOR or more, the
        batch with one such cell widened."""
        nv = formula.num_vars
        m = max(1, nv - 13) if m is None else m
        batch, spare = cls.at_budget(formula, n, m, rng)
        out = [batch, batch + [spare]]
        if 1 << nv - m >= cls.FLOOR:
            full = next(k for k, h in enumerate(batch) if len(_echelon(h) or ()) == m)
            out.append(batch[:full] + [cls.widened(batch[full])] + batch[full + 1:])
        # each over the budget by one full-rank cell
        for over in out[1:]:
            assert sum(cls.charge(formula, h) for h in over) == (
                cls.BUDGET + cls.charge(formula, spare))
        return out

    def test_read_order_at_the_boundary(self, monkeypatch):
        # full-rank cells of 2^13 assignments, then of 2^6, counted as 2^8
        pulled = spy_model_blocks(monkeypatch)
        formula = criterion_11_cnf()
        models = np.concatenate(list(_model_blocks(formula)))
        rng = random.Random(61)
        batches = self.batches(formula, 20, rng) + self.batches(formula, 20, rng, m=14)
        reads = []
        for batch in batches:
            pulled.clear()
            want = ["sat" if survives(h, models) else "unsat" for h in batch]
            assert has_survivors(CountingProblem.from_cnf(formula), batch) == want
            reads.append(list(pulled))
        assert reads == [[], [6880], [6880], [], [6880]]

    def test_answers_at_the_boundary_match_brute_force(self, monkeypatch):
        # over S and over S projected onto nv // 2 variables; the batches
        # past the budget run the kernel, over the stream's blocks
        from xorcount import oracle
        scans = []
        real = oracle._table_scan
        monkeypatch.setattr(oracle, "_table_scan",
                            lambda *args: scans.append(1) or real(*args))
        rng = random.Random(67)
        for formula in model_grid():
            nv = formula.num_vars
            blocks = list(_model_blocks(formula))
            models = np.concatenate(blocks) if blocks else np.empty(0, np.uint64)
            for n in {nv, nv // 2} - {0}:
                members = np.unique(models & np.uint64((1 << n) - 1))
                brute = {}
                for over, batch in enumerate(self.batches(formula, n, rng)):
                    want = []
                    for h in batch:
                        key = (h.rows, h.b_bits)
                        if key not in brute:
                            brute[key] = "sat" if survives(h, members) else "unsat"
                        want.append(brute[key])
                    scans.clear()
                    got = has_survivors(CountingProblem.from_cnf(formula, n), batch)
                    assert got == want, (formula, n)
                    assert bool(scans) == bool(over), (formula, n)


@st.composite
def cnf_questions(draw, wide=False):
    """(problem, S, m): a CNF of 0-12 variables, with or without parity
    rows, whole or projected onto fewer, S its models found by enumeration
    as a uint64 array, and m = 0..n.  A wide one has 10-12 variables and
    m = 1..nv - 9 rows, so each cell of a solvable hash holds at least 2^9
    assignments: 256 or 257 trials are then past the decision budget, where
    at nv <= 8, every cell being charged 2^8, 256 is the budget itself."""
    nv = draw(st.integers(10, 12) if wide else st.integers(0, 12))
    lits = st.integers(1, max(nv, 1)).flatmap(lambda v: st.sampled_from([v, -v]))
    clauses = draw(st.lists(st.lists(lits, min_size=1, max_size=3), max_size=2 * nv))
    rows = draw(st.lists(st.tuples(
        st.lists(st.integers(1, max(nv, 1)), min_size=1, max_size=4, unique=True),
        st.integers(0, 1)), max_size=3 if nv else 0))
    formula = CnfFormula(nv, clauses, [(list(v), r) for v, r in rows])
    n = draw(st.integers(1, nv - 1)) if nv > 1 and draw(st.booleans()) else nv
    m = draw(st.integers(1, min(n, nv - 9)) if wide else st.integers(0, n))
    members = np.array(sorted(projected_models(formula, n)), dtype=np.uint64)
    return CountingProblem.from_cnf(formula, n), members, m


@st.composite
def explicit_questions(draw):
    """(problem, S, m): an explicit set of 0-8 members of width n = 1-130,
    S a list of Assignments, and m = 0..n."""
    n = draw(st.integers(1, 130))
    members = [Assignment(x, n) for x in
               draw(st.lists(st.integers(0, (1 << n) - 1), max_size=8))]
    return CountingProblem.from_explicit(members, n), members, draw(st.integers(0, n))


def deep_cnf(nv, seed):
    """A random CNF of nv variables, nv // 2 3-clauses and nv - 12 parity
    rows of 2-5 variables, so that its 1,000-3,000 models are spread over
    all 2^nv assignments."""
    rng = random.Random(seed)
    clauses = [[rng.choice([v, -v]) for v in rng.sample(range(1, nv + 1), 3)]
               for _ in range(nv // 2)]
    rows = [(rng.sample(range(1, nv + 1), rng.randint(2, 5)), rng.randint(0, 1))
            for _ in range(nv - 12)]
    return CnfFormula(nv, clauses, rows)


def evaluated_models(formula):
    """Every model of `formula`, increasing, as a uint64 array: each clause
    and parity row evaluated over all 2^num_vars assignments at once, with
    no code of the model stream or of `dimacs`' evaluator."""
    x = np.arange(1 << formula.num_vars, dtype=np.uint32)
    bit = [None] + [(x >> np.uint32(v - 1)) & np.uint32(1) == 1
                    for v in range(1, formula.num_vars + 1)]
    ok = np.ones(len(x), dtype=bool)
    for clause in formula.clauses:
        ok &= np.logical_or.reduce([bit[l] if l > 0 else ~bit[-l] for l in clause])
    for support, rhs in formula.xors:
        ok &= np.logical_xor.reduce([bit[v] for v in support]) == bool(rhs)
    return x[ok].astype(np.uint64)


class TestAnswerNet:
    """Every in-process answer, whichever route gives it, is the one brute
    force gives: a survivor among S's enumerated models, or a count of an
    explicit set's survivors; T hashes at a density on or off the 2^-8
    grid."""

    @staticmethod
    def brute(h, members):
        if h is None:
            return len(members) > 0
        if isinstance(members, np.ndarray):
            return survives(h, members)
        return count_survivors(h, members) > 0

    @pytest.mark.parametrize("T", [1, 7, 256, 257])
    @pytest.mark.parametrize("questions", [cnf_questions(), cnf_questions(wide=True),
                                           explicit_questions()],
                             ids=["cnf", "wide-cnf", "explicit"])
    @given(data=st.data())
    @settings(max_examples=15, deadline=None)
    def test_answers_match_brute_force(self, questions, T, data):
        problem, members, m = data.draw(questions)
        f = data.draw(st.one_of(st.integers(0, 128).map(lambda k: k / 256),
                                st.floats(0.0, 0.5)))
        seed = data.draw(st.integers(0, 1 << 32))
        hashes = [sample_hash(HashParams(problem.n, m, f, seed=derive_seed(seed, t)))
                  if m else None for t in range(T)]
        want = ["sat" if self.brute(h, members) else "unsat" for h in hashes]
        assert has_survivors(problem, hashes) == want

    @pytest.mark.parametrize("nv,n,seed", [(18, 18, 1), (19, 16, 2), (20, 20, 3),
                                           (20, 17, 4)])
    def test_answers_past_the_first_block(self, nv, n, seed):
        # models in several blocks of S, and 1,000 trials, past the decision
        # budget: the kernel reads S's first block, the trials it leaves are
        # decided on their cells, and a cell of more than 2^16 assignments
        # (m = 2, 3 at nv = 20) has the kernel read on through S
        formula = deep_cnf(nv, seed)
        models = evaluated_models(formula)
        assert len({max(0, x.bit_length() - 16) for x in models.tolist()}) >= 3
        members = np.unique(models & np.uint64((1 << n) - 1))
        for m, f in [(2, 0.05), (3, 0.5), (nv - 14, 0.3), (nv - 9, 0.1), (nv - 8, 0.5)]:
            hashes = [sample_hash(HashParams(n, m, f, seed=derive_seed(seed, t)))
                      for t in range(1000)]
            want = ["sat" if survives(h, members) else "unsat" for h in hashes]
            assert has_survivors(CountingProblem.from_cnf(formula, n), hashes) == want


class TestProblemWidth:
    def test_cnf_width_beyond_the_formula_refused(self):
        formula = CnfFormula(3, [[1, 2]], [])
        for n in (5, 4, -1):
            with pytest.raises(ParameterError) as err:
                CountingProblem.from_cnf(formula, n)
            message = str(err.value)
            assert "\n" not in message and "n = %d" % n in message and "3" in message
        for n in (0, 2, 3):
            assert has_survivors(CountingProblem.from_cnf(formula, n), [None]) == ["sat"]

    def test_kind_follows_formula_or_block(self):
        formula = CnfFormula(3, [[1, 2]], [])
        [block] = CountingProblem.from_explicit([Assignment(1, 3)], 3)._blocks
        assert CountingProblem(3, formula=formula).kind == "cnf"
        problem = CountingProblem(3, block=block)
        assert problem.kind == "explicit"
        # derived from `formula`, the one field that holds the backend
        with pytest.raises(AttributeError):
            problem.kind = "cnf"

    def test_negative_explicit_width_refused(self):
        with pytest.raises(ParameterError, match="n = -1"):
            CountingProblem.from_explicit([], -1)

    def test_table_encodings_are_projected(self):
        from xorcount import tables
        for k in (3, 5, 8):
            problem, enc = tables.encode_to_cnf(tables.synth_spec(k))
            assert problem.n == enc.num_cell_bits < problem.formula.num_vars


class TestExhaustiveCap:
    @staticmethod
    def grouped_formula():
        """26 variables in disjoint groups, so the count is the product of
        the groups' counts: (a|b|c)(-a|-b) has 5 models in a 3-variable
        group, (a|b|c) with a^c = 1 has 4, and (-25|-26) has 3."""
        clauses, rows = [[-25, -26]], []
        for g in range(8):
            a, b, c = 3 * g + 1, 3 * g + 2, 3 * g + 3
            clauses.append([a, b, c])
            if g % 2:
                rows.append(([a, c], 1))
            else:
                clauses.append([-a, -b])
        return CnfFormula(26, clauses, rows)

    def test_count_at_the_cap(self):
        assert count_models(self.grouped_formula()) == 5 ** 4 * 4 ** 4 * 3

    def test_solve_at_the_cap(self, tmp_path, capsys):
        from xorcount.cli import main
        formula = self.grouped_formula()
        path = tmp_path / "cap.cnf"
        path.write_text(emit(formula))
        assert main(["solve", str(path)]) == 10
        vline = capsys.readouterr().out.splitlines()[1]
        lits = [int(t) for t in vline.split()[1:-1]]
        assert [abs(l) for l in lits] == list(range(1, 27))
        assert _check_assignment(formula, sum(1 << (l - 1) for l in lits if l > 0))

    def test_27_variables_refused(self):
        formula = CnfFormula(27, [[1]], [])
        with pytest.raises(ParameterError):
            count_models(formula)
        with pytest.raises(ParameterError):
            packed_set(CountingProblem.from_cnf(formula))


class TestRunExternal:
    def test_trivial_sat(self, exhaustive_solver):
        v = run_external("p cnf 1 1\n1 0\n", exhaustive_solver)
        assert v.answer == "sat"
        assert v.stats["model_bits"] == 1

    def test_trivial_unsat(self, exhaustive_solver):
        v = run_external("p cnf 1 2\n1 0\n-1 0\n", exhaustive_solver)
        assert v.answer == "unsat"

    def test_header_after_a_comment(self, exhaustive_solver):
        # N is read from the "p cnf" line wherever it stands, not from the
        # first line
        v = run_external("c hi\np cnf 1 1\n1 0\n", exhaustive_solver)
        assert v.answer == "sat" and v.stats["model_bits"] == 1

    @pytest.mark.parametrize("text", ["", "c no header\n1 0\n"])
    def test_text_without_a_header_is_refused(self, text, tmp_path):
        # refused before the solver runs, as dimacs.parse refuses it
        ran = tmp_path / "ran"
        profile = SolverProfile("touch %s {in}" % ran)
        with pytest.raises(ParseError, match="^missing header$"):
            run_external(text, profile)
        assert not ran.exists()

    def test_timeout_is_unknown(self, sleepy_solver):
        v = run_external("p cnf 1 1\n1 0\n", sleepy_solver)
        assert v.answer == "unknown"
        assert v.stats["reason"] == "timeout"
        assert v.stats["solver_time_s"] == pytest.approx(0.3, abs=0.25)

    def test_garbage_output_is_unknown(self, tmp_path):
        import sys
        script = tmp_path / "noise.py"
        script.write_text("print('nonsense')\n")
        profile = SolverProfile("%s %s {in}" % (sys.executable, script))
        v = run_external("p cnf 1 1\n1 0\n", profile)
        assert v.answer == "unknown"
        assert v.stats["reason"] == "no solution line"

    def test_undecodable_output_bytes_are_replaced(self, tmp_path):
        # a comment byte that is not UTF-8 once raised UnicodeDecodeError
        # out of the solver call; the ASCII s and v lines after it are
        # read, and the model rechecked, as for any other output
        def solver(name, answer):
            script = tmp_path / (name + ".py")
            script.write_text(
                "import sys\nsys.stdout.buffer.write(b'c caf\\xe9 \\xff\\n%s')\n"
                "sys.stderr.buffer.write(b'\\x80\\n')\n" % answer)
            return SolverProfile("%s %s {in}" % (sys.executable, script))

        problem = CountingProblem.from_cnf(CnfFormula(2, [[1]], []))
        h = ParityHash((1,), 1, HashParams(2, 1, 0.5))  # x1 = 1 survives
        sat = solver("sat", "s SATISFIABLE\\nv 1 -2 0\\n")
        v = has_survivor(problem, h, solver=sat)
        assert v.answer == "sat" and v.stats["model_bits"] == 1
        unsat = solver("unsat", "s UNSATISFIABLE\\n")
        assert has_survivor(problem, h, solver=unsat).answer == "unsat"
        assert has_survivors(problem, [h, h], solver=sat) == ["sat"] * 2
        v = run_external("p cnf 2 1\n1 0\n", solver("garbage", ""))
        assert v.answer == "unknown"
        assert v.stats["reason"] == "no solution line"
        assert v.stats["stderr"] == "\ufffd\n"
        with pytest.raises(IntegrityError):
            has_survivor(problem, h, solver=solver("liar", "s SATISFIABLE\\nv -1 -2 0\\n"))

    def test_unknown_answer_is_named(self, tmp_path):
        # an s line that is neither SATISFIABLE nor UNSATISFIABLE was once
        # reported as "no solution line"
        import sys
        script = tmp_path / "shrug.py"
        script.write_text("import sys\nprint('c thinking')\nprint('s UNKNOWN')\n"
                          "sys.stderr.write('gave up\\n')\n")
        profile = SolverProfile("%s %s {in}" % (sys.executable, script))
        v = run_external("p cnf 1 1\n1 0\n", profile)
        assert v.answer == "unknown"
        assert v.stats["reason"] == "solver answered UNKNOWN"
        assert v.stats["stderr"] == "gave up\n"

    @pytest.mark.parametrize("lines", [
        "echo s SATISFIABLE; echo v 1 2 3 0; echo s UNSATISFIABLE",
        "echo s UNSATISFIABLE; echo s SATISFIABLE; echo v 1 2 3 0",
        "echo s SATISFIABLE; echo v 1 2 3 0; echo s SATISFIABLE",
    ])
    def test_more_than_one_solution_line_is_unknown(self, lines):
        # a later s line once overwrote an earlier one's answer, so that a
        # trailing UNSATISFIABLE made a false upper bound
        profile = SolverProfile("sh -c %s solver {in}"
                                % shlex.quote(lines + "; echo two answers >&2"))
        v = run_external("p cnf 3 1\n1 2 3 0\n", profile)
        assert v.answer == "unknown"
        assert v.stats["reason"] == "more than one solution line"
        assert v.stats["stderr"] == "two answers\n"
        problem = CountingProblem.from_cnf(CnfFormula(3, [[1, 2, 3]], []))
        h = ParityHash((0b001,), 1, HashParams(3, 1, 0.5))  # x1 = 1 survives
        assert has_survivors(problem, [h, h], solver=profile) == ["unknown"] * 2
        assert has_survivor(problem, solver=profile).answer == "unknown"

    @staticmethod
    def echo_solver(model):
        return SolverProfile("sh -c %s solver {in}" % shlex.quote(
            "echo s SATISFIABLE; echo v %s; echo past the header >&2" % model))

    @pytest.mark.parametrize("model", ["1 2 0", "1 -2 0", "1 400000000 0"])
    def test_literal_past_the_header_is_unknown(self, model):
        # such a literal once entered the model: `v 1 2 0` made a 1-variable
        # instance sat, and `v 1 400000000 0` built a 400-million-bit int
        import tracemalloc
        tracemalloc.start()
        try:
            v = run_external("p cnf 1 1\n1 0\n", self.echo_solver(model))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert v.answer == "unknown"
        assert v.stats["reason"] == "bad model line"
        assert v.stats["stderr"] == "past the header\n"
        assert peak < 4 << 20

    def test_literals_within_the_header_are_a_model(self):
        # a later literal of a variable still overrides an earlier one
        v = run_external("p cnf 1 1\n1 0\n", self.echo_solver("-1 1 0"))
        assert v.answer == "sat"
        assert v.stats["model_bits"] == v.stats["assigned_bits"] == 1

    def test_template_needs_placeholder(self):
        with pytest.raises(ParameterError):
            run_external("p cnf 1 1\n1 0\n", SolverProfile("solver"))

    def test_lying_solver_triggers_integrity_error(self, lying_solver):
        # the liar answers SAT with the all-false model; x1 must be true
        f = CnfFormula(2, [[1]], [])
        problem = CountingProblem.from_cnf(f)
        h = ParityHash((0,), 0, HashParams(2, 1, 0.0))
        with pytest.raises(IntegrityError):
            has_survivor(problem, h, solver=lying_solver)

    def test_non_integer_model_token_is_unknown(self, bad_model_solver):
        v = run_external("p cnf 2 1\n1 0\n", bad_model_solver)
        assert v.answer == "unknown"
        assert v.stats["reason"] == "bad model line"
        assert "model garbled" in v.stats["stderr"]

    def test_non_integer_model_token_in_a_question(self, bad_model_solver):
        problem = CountingProblem.from_cnf(CnfFormula(2, [[1]], []))
        h = ParityHash((1,), 1, HashParams(2, 1, 0.5))
        for v in (has_survivor(problem, h, solver=bad_model_solver),
                  has_survivor(problem, solver=bad_model_solver)):
            assert v.answer == "unknown" and v.stats["reason"] == "bad model line"
        assert has_survivors(problem, [h, h], solver=bad_model_solver) == ["unknown"] * 2

    @pytest.mark.parametrize("kind", ["missing", "not executable"])
    def test_solver_that_cannot_start_is_unknown(self, tmp_path, kind):
        script = tmp_path / "solver.sh"
        if kind == "not executable":
            script.write_text("#!/bin/sh\necho 's UNSATISFIABLE'\n")
            script.chmod(0o644)
        profile = SolverProfile("%s {in}" % script)
        v = run_external("p cnf 2 1\n1 0\n", profile)
        assert v.answer == "unknown" and v.stats["reason"] == "cannot start solver"
        assert str(script) in v.stats["error"]
        problem = CountingProblem.from_cnf(CnfFormula(2, [[1]], []))
        h = ParityHash((1,), 1, HashParams(2, 1, 0.5))
        assert has_survivors(problem, [h, h], solver=profile) == ["unknown"] * 2

    def test_lying_solver_at_m_zero(self, lying_solver):
        problem = CountingProblem.from_cnf(CnfFormula(2, [[1]], []))
        with pytest.raises(IntegrityError):
            has_survivor(problem, solver=lying_solver)

    def test_sat_without_model_is_unknown(self, no_model_solver):
        # the formula is unsatisfiable; a bare SAT claim must not count
        problem = CountingProblem.from_cnf(CnfFormula(2, [[1], [-1]], []))
        h = sample_hash(HashParams(2, 1, 0.5, seed=0))
        v = has_survivor(problem, h, solver=no_model_solver)
        assert v.answer == "unknown"
        assert v.stats["reason"] == "no model"

    def test_sat_without_model_at_m_zero_is_unknown(self, no_model_solver):
        problem = CountingProblem.from_cnf(CnfFormula(2, [[1], [-1]], []))
        v = has_survivor(problem, solver=no_model_solver)
        assert v.answer == "unknown"
        assert v.stats["reason"] == "no model"

    def test_partial_model_is_unknown(self, tmp_path):
        import sys
        script = tmp_path / "partial.py"
        script.write_text("print('s SATISFIABLE')\nprint('v 1 0')\n")
        profile = SolverProfile("%s %s {in}" % (sys.executable, script))
        problem = CountingProblem.from_cnf(CnfFormula(3, [[1]], []))
        h = ParityHash((0,), 0, HashParams(3, 1, 0.0))
        v = has_survivor(problem, h, solver=profile)
        assert v.answer == "unknown"
        assert v.stats["reason"] == "no model"

    def test_external_witness_passes_recheck(self, exhaustive_solver):
        rng = random.Random(9)
        n = 8
        clauses = [[rng.choice([v, -v]) for v in rng.sample(range(1, n + 1), 3)]
                   for _ in range(5)]
        f = CnfFormula(n, clauses, [])
        problem = CountingProblem.from_cnf(f)
        for seed in range(5):
            h = sample_hash(HashParams(n, 2, 0.5, seed=seed))
            v = has_survivor(problem, h, solver=exhaustive_solver)
            if v.answer == "sat":
                assert _check_assignment(conjoin(f, h), v.stats["model_bits"])


def _running(pid):
    """Is `pid` a process that still runs?  A zombie waiting for its
    reaper does not."""
    try:
        stat = Path("/proc/%d/stat" % pid).read_text()
    except FileNotFoundError:
        return False
    return stat.rpartition(")")[2].split()[0] != "Z"


def _ends_soon(pid, within_s=5.0):
    deadline = time.monotonic() + within_s
    while _running(pid):
        if time.monotonic() > deadline:
            return False
        time.sleep(0.02)
    return True


def _sleepers(pidfiles, liar_after=0):
    """A wrapper script as a solver command: sh takes the first free pid
    file, starts a `sleep 30` child, writes its pid there and waits.  With
    `liar_after`, only an instance holding the x-line `x-4 0` does; any
    other waits until the first `liar_after` pid files are written, then
    answers SAT with a model that fails the recheck."""
    script = ("for p in %s; do if mkdir \"$p.lock\" 2>/dev/null; then "
              "sleep 30 & echo $! > \"$p\"; wait; exit; fi; done"
              % " ".join(str(p) for p in pidfiles))
    if liar_after:
        ready = " && ".join("[ -s %s ]" % p for p in pidfiles[:liar_after])
        script = ("if grep -q 'x-4 0' \"$1\"; then %s; fi; "
                  "until %s; do sleep 0.02; done; "
                  "echo 's SATISFIABLE'; echo 'v -1 -2 -3 -4 0'" % (script, ready))
    return "sh -c %s solver {in}" % shlex.quote(script)


@pytest.mark.skipif(not Path("/proc/self/stat").exists(), reason="reads /proc")
class TestSolverProcessGroup:
    """No process a solver command starts outlives its call: the solver
    leads a session of its own, and its whole group is killed."""

    def test_timeout_kills_the_solvers_children(self, tmp_path):
        # subprocess.run's timeout once killed the sh alone, and its
        # `sleep` ran on after the call had returned
        pidfile = tmp_path / "sleeper.pid"
        v = run_external("p cnf 1 1\n1 0\n",
                         SolverProfile(_sleepers([pidfile]), budget_s=0.5))
        assert v.answer == "unknown" and v.stats["reason"] == "timeout"
        assert _ends_soon(int(pidfile.read_text()))

    def test_failed_recheck_kills_every_sibling_solver(self, tmp_path):
        # three calls sleep, then the fourth's witness fails its recheck;
        # the sleepers are killed, not waited for, and so is each queued
        # call's solver that a freed worker starts before the pool stops
        # taking calls.  Four workers on fewer CPUs, switching often
        pidfiles = [tmp_path / ("sleeper%d.pid" % k) for k in range(8)]
        solver = SolverProfile(_sleepers(pidfiles, liar_after=3),
                               native_xor=True, budget_s=10.0, jobs=4)
        problem = CountingProblem.from_cnf(CnfFormula(4, [[1]], []))
        params = HashParams(4, 1, 0.5)
        sleep, lie = ParityHash((0b1000,), 0, params), ParityHash((0b0001,), 0, params)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            t0 = time.monotonic()
            with pytest.raises(IntegrityError):
                has_survivors(problem, [sleep] * 3 + [lie] + [sleep] * 4, solver=solver)
            assert time.monotonic() - t0 < 5.0
        finally:
            sys.setswitchinterval(interval)
        pids = [int(p.read_text()) for p in pidfiles if p.exists() and p.read_text()]
        assert len(pids) >= 3 and all(_ends_soon(pid) for pid in pids)

    def test_ctrl_c_kills_every_running_solvers_children(self, tmp_path):
        # a solver in a session of its own does not get the terminal's
        # SIGINT, so the interrupted estimate kills its group itself
        cnf = tmp_path / "sat.cnf"
        cnf.write_text("p cnf 2 1\n1 -2 0\n")
        pidfiles = [tmp_path / ("sleeper%d.pid" % k) for k in range(2)]
        # the program ends with one `interrupted` line and exit 130
        child = subprocess.Popen(
            [sys.executable, "-m", "xorcount.cli", "bound", str(cnf), "lb",
             "--m", "1", "--T", "2", "--jobs", "2", "--budget-s", "20",
             "--solver", _sleepers(pidfiles)],
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
        try:
            deadline = time.monotonic() + 20.0
            while not all(p.exists() and p.read_text() for p in pidfiles):
                assert time.monotonic() < deadline and child.poll() is None
                time.sleep(0.02)
            child.send_signal(signal.SIGINT)
            _, err = child.communicate(timeout=10.0)
            assert child.returncode == 130 and err == "interrupted\n"
        finally:
            child.kill()
            child.communicate()
        assert all(_ends_soon(int(p.read_text())) for p in pidfiles)


# The survival kernel, by table lookup.  The grid crosses widths around the
# byte and word edges with m around the table uint widths and the 64-row
# group; KERNEL_GRID_SHA256 is the sha256 of its answers, recorded with a
# row-at-a-time scan, the kernel this one replaced.
KERNEL_NS = (1, 7, 8, 9, 16, 20, 63, 64, 65, 130)
KERNEL_MS = (1, 8, 9, 16, 17, 32, 33, 64, 65)
KERNEL_SIZES = (0, 1, 255, 256, 257, 5000)
KERNEL_FS = (0.0, 0.05, 0.5)
# (n, m, |S|, T): pairs of set sizes one apart, then larger T, some over
# several trial chunks (test_trial_chunks_and_row_groups pins those edges)
KERNEL_EDGES = ((16, 6, 512, 9), (16, 6, 513, 9), (130, 17, 512, 9),
                (130, 17, 513, 9), (64, 64, 85, 9), (64, 64, 86, 9),
                (16, 9, 5000, 31), (20, 10, 5000, 31), (64, 8, 255, 70),
                (130, 65, 257, 50))
KERNEL_GRID_SHA256 = "4f8d36be9c9ee0c2cb517127fa3896b9cb27f6c5ad7ed339448207b466a0f7aa"


def kernel_cases():
    """(n, m, members, hashes) over the grid: T sampled hashes, then the
    first one with b all zeros and all ones, with every other row zeroed,
    and all-zero rows with b all zeros and all ones."""
    shapes = []
    for n in KERNEL_NS:
        for m in KERNEL_MS:
            if m <= n:
                shapes.append((n, m, KERNEL_SIZES[len(shapes) % 6], 9))
    shapes += KERNEL_EDGES
    for index, (n, m, size, T) in enumerate(shapes):
        rng = random.Random(index)
        size = min(size, 1 << n)
        if n <= 20:
            members = rng.sample(range(1 << n), size)
        else:
            members = set()
            while len(members) < size:
                members.add(rng.getrandbits(n))
        f = KERNEL_FS[index % 3]
        hashes = [sample_hash(HashParams(n, m, f, seed=1000 * index + k))
                  for k in range(T)]
        first, ones = hashes[0], (1 << m) - 1
        halved = tuple(r if i % 2 else 0 for i, r in enumerate(first.rows))
        hashes += [ParityHash(first.rows, 0, first.params),
                   ParityHash(first.rows, ones, first.params),
                   ParityHash(halved, first.b_bits, first.params),
                   ParityHash((0,) * m, 0, first.params),
                   ParityHash((0,) * m, ones, first.params)]
        yield n, m, sorted(members), hashes


class TestSurvivalKernels:
    def test_match_apply_hash(self):
        digest = hashlib.sha256()
        for n, m, members, hashes in kernel_cases():
            xs = [Assignment(x, n) for x in members]
            got = has_survivors(CountingProblem.from_explicit(xs, n), hashes)
            want = [any(apply_hash(h, x) == 0 for x in xs) for h in hashes]
            assert got == ["sat" if w else "unsat" for w in want], (n, m, len(xs))
            digest.update(b"%d %d %d:" % (n, m, len(xs))
                          + "".join(a[0] for a in got).encode())
        assert digest.hexdigest() == KERNEL_GRID_SHA256

    @pytest.mark.parametrize("n,m", [(16, 9), (130, 64), (130, 129)])
    def test_trial_chunks_and_row_groups(self, n, m, monkeypatch):
        # trial k plants a member spread over the set, the first trial the
        # first member and the last trial the last one; at n = 16 one chunk
        # of 31 trials reads several blocks, at n = 130 the tables of 31
        # trials need several chunks, and at m = 129 each chunk takes three
        # groups of rows (64, 64, 1)
        size, T = 5000, 31
        xs = self.random_members(n, size, seed=n + m)
        hashes = []
        for k in range(T):
            h = sample_hash(HashParams(n, m, 0.05 * (k % 3), seed=k))
            # b = Ax makes the planted member survive; one flipped bit of b,
            # in the first or the last row, makes it fail in that row alone
            ax = self.image(h, xs[k * (size - 1) // (T - 1)])
            b = (h.b_bits, ax, ax ^ 1, ax ^ 1 << m - 1)[k % 4]
            hashes.append(ParityHash(h.rows, b, h.params))
        chunks, blocks = self.spy(monkeypatch)
        want = self.check(xs, hashes)
        assert True in want and False in want
        assert len(chunks) > 1 if n == 130 else len(blocks) > len(chunks)

    @pytest.mark.parametrize("size", [1, 300, 20_000])
    def test_a_survivor_in_the_last_member_of_the_last_block(self, size, monkeypatch):
        # with 40 rows no member but the planted one survives; the scan
        # reads every block, the last one short of a whole block
        xs = self.random_members(64, size, seed=size)
        hashes = []
        for k in range(3):
            h = sample_hash(HashParams(64, 40, 0.5, seed=k))
            ax = self.image(h, xs[-1])
            hashes.append(ParityHash(h.rows, ax ^ (k == 2), h.params))
        chunks, blocks = self.spy(monkeypatch)
        assert self.check(xs, hashes) == [True, True, False]
        assert sum(blocks) == size
        assert size < 20_000 or len(blocks) > 1 and blocks[-1] < blocks[0]

    def test_trials_resolve_in_different_blocks(self, monkeypatch):
        # trial k's only survivor is member 1,000 k + 999: the scan stops
        # after the block holding the last trial's survivor
        xs = self.random_members(64, 30_000, seed=3)
        T = 20
        hashes = []
        for k in range(T):
            h = sample_hash(HashParams(64, 40, 0.5, seed=k))
            hashes.append(ParityHash(h.rows, self.image(h, xs[1000 * k + 999]), h.params))
        chunks, blocks = self.spy(monkeypatch)
        assert self.check(xs, hashes) == [True] * T
        assert len(chunks) == 1 and len(blocks) > 1
        assert sum(blocks[:-1]) <= 1000 * (T - 1) + 999 < sum(blocks) < len(xs)

    def test_early_hits_read_only_the_first_block(self, monkeypatch):
        # every trial's survivor is among the first members: one block is
        # read of a set many blocks long
        xs = self.random_members(20, 100_000, seed=4)
        hashes = [sample_hash(HashParams(20, 10, 0.5, seed=s)) for s in range(7)]
        hashes = [ParityHash(h.rows, self.image(h, xs[s]), h.params)
                  for s, h in enumerate(hashes)]
        chunks, blocks = self.spy(monkeypatch)
        assert has_survivors(CountingProblem.from_explicit(xs, 20), hashes) == ["sat"] * 7
        assert len(chunks) == 1 and len(blocks) == 1 and blocks[0] < len(xs) // 4

    @staticmethod
    def random_members(n, size, seed):
        rng = random.Random(seed)
        members = set()
        while len(members) < size:
            members.add(rng.getrandbits(n))
        return [Assignment(x, n) for x in sorted(members)]

    @staticmethod
    def image(h, x):
        """Ax, so that b = Ax makes x survive h."""
        return apply_hash(ParityHash(h.rows, 0, h.params), x)

    @staticmethod
    def check(xs, hashes):
        """The kernel's answers, checked against apply_hash."""
        got = has_survivors(CountingProblem.from_explicit(xs, xs[0].n), hashes)
        want = [any(apply_hash(h, x) == 0 for x in xs) for h in hashes]
        assert got == ["sat" if w else "unsat" for w in want]
        return want

    @staticmethod
    def spy(monkeypatch):
        """Record each chunk of trials the kernel scans and the members in
        each block it reads."""
        from xorcount import oracle
        chunks, blocks = [], []
        chunk_hits, block_hits = oracle._chunk_hits, oracle._block_hits

        def on_chunk(member_bytes, groups, trials, *rest):
            chunks.append(trials)
            return chunk_hits(member_bytes, groups, trials, *rest)

        def on_block(member_bytes, *rest):
            blocks.append(len(member_bytes))
            return block_hits(member_bytes, *rest)

        monkeypatch.setattr(oracle, "_chunk_hits", on_chunk)
        monkeypatch.setattr(oracle, "_block_hits", on_block)
        return chunks, blocks

    @pytest.mark.parametrize("n", [20, 70])
    def test_tables_read_member_bytes_in_value_order(self, n):
        # a '>u8' array lays out its bytes as a big-endian host's native
        # uint64 does: the tables must still read byte p as bits 8p..8p+7
        rng = random.Random(n)
        words = -(-n // 64)
        members = sorted({rng.getrandbits(n) for _ in range(3000)})
        packed = _pack(members, words)
        hashes = [sample_hash(HashParams(n, 12, 0.3, seed=s)) for s in range(40)]
        rows = _pack([r for h in hashes for r in h.rows], words).reshape(40, 12, words)
        xs = [Assignment(x, n) for x in members]
        want = [any(apply_hash(h, x) == 0 for x in xs) for h in hashes]
        blocks = lambda: [packed.astype(">u8")]  # noqa: E731
        assert _table_scan(blocks, hashes, rows, n).tolist() == want
        assert True in want and False in want

    def test_tables_are_built_per_trial_chunk(self, monkeypatch):
        # the 141,440 models of criterion 11's 3-CNF, as an explicit set of
        # 20 variables (asked of the CNF, these cells are decided without
        # the kernel).  Tables for all 2,000 trials at once would take
        # 256 * 3 * 2,000 * 4 bytes, 6 MB; one chunk at a time needs about
        # 2.2 MB at peak
        import tracemalloc
        members = packed_set(CountingProblem.from_cnf(criterion_11_cnf()))
        assert len(members) == 141_440
        problem = CountingProblem(20, block=members)
        hashes = [sample_hash(HashParams(20, 17, 0.3, seed=s)) for s in range(2000)]
        chunks, _ = self.spy(monkeypatch)
        tracemalloc.start()
        try:
            has_survivors(problem, hashes)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(chunks) > 1
        assert peak < 4 << 20
