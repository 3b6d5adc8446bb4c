import hashlib
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from xorcount import comb, tables
from xorcount.dimacs import CnfFormula, ParseError, emit, parse
from xorcount.oracle import conjoin, expand_xors


class TestParse:
    def test_minimal(self):
        f = parse("p cnf 1 1\n1 0\n")
        assert f.num_vars == 1
        assert f.clauses == [[1]]
        assert f.xors == []

    def test_comments_and_blank_lines(self):
        f = parse("c hello\n\np cnf 3 2\nc mid\n1 -2 0\n3 0\n")
        assert f.clauses == [[1, -2], [3]]

    def test_xor_line_rhs_one(self):
        f = parse("p cnf 2 0\nx1 2 0\n")
        assert f.xors == [([1, 2], 1)]

    def test_xor_line_rhs_zero(self):
        # leading minus on the first literal flips the right-hand side
        f = parse("p cnf 2 0\nx-1 2 0\n")
        assert f.xors == [([1, 2], 0)]

    def test_clause_count_mismatch_warns(self):
        with pytest.warns(UserWarning):
            parse("p cnf 2 5\n1 0\n")

    def test_out_of_range_literal(self):
        with pytest.raises(ParseError):
            parse("p cnf 2 1\n3 0\n")

    def test_malformed_header(self):
        with pytest.raises(ParseError):
            parse("p dnf 2 1\n1 0\n")

    @pytest.mark.parametrize("header", ["p cnf -1 0", "p cnf 2 -1"])
    def test_negative_header_count(self, header):
        with pytest.raises(ParseError, match="malformed header"):
            parse(header + "\n")

    def test_missing_header(self):
        with pytest.raises(ParseError):
            parse("1 0\n")

    def test_unterminated_clause(self):
        with pytest.raises(ParseError):
            parse("p cnf 2 1\n1 2\n")

    def test_repeated_header(self):
        # a second header once re-ranged the clauses read before it:
        # this text parsed as a 5-variable formula [[1], [5]]
        with pytest.raises(ParseError) as exc:
            parse("p cnf 1 1\n1 0\np cnf 5 1\n5 0\n")
        assert str(exc.value) == "repeated header: 'p cnf 5 1'"

    @pytest.mark.parametrize("text,token", [
        ("p cnf 2 1\n1 x 0\n", "x"),
        ("p cnf 2 1\n1 2 0.5\n", "0.5"),
        ("p cnf 2 0\nx1 y 0\n", "y"),
        ("p cnf 2 0\nx-1 2 z0\n", "z0"),
    ])
    def test_token_that_is_not_an_integer(self, text, token):
        # int() once raised a plain ValueError here, which a caller catching
        # ParseError missed
        with pytest.raises(ParseError) as exc:
            parse(text)
        assert str(exc.value) == "token %r is not an integer" % token

    @pytest.mark.parametrize("text,message", [
        ("p cnf 2 0\nx1 2\n", "x-line not 0-terminated: 'x1 2'"),
        ("p cnf 2 0\nx\n", "x-line not 0-terminated: 'x'"),
        ("p cnf 2 0\nx0\n", "empty x-line"),
        ("p cnf 2 0\nx-0\n", "empty x-line"),
        ("p cnf 2 0\nx1 -2 0\n", "only the first x-line literal may be negated"),
        ("p cnf 2 0\nx-1 -2 0\n", "only the first x-line literal may be negated"),
        ("p cnf 2 1\n0\n", "zero-width clause"),
        ("", "missing header"),
        ("c only a comment\n\n", "missing header"),
        ("1 0\n", "clause before header"),
        ("p cnf 2 one\n1 0\n", "malformed header: 'p cnf 2 one'"),
        ("p cnf 1.5 1\n1 0\n", "malformed header: 'p cnf 1.5 1'"),
    ])
    def test_refusal_is_named(self, text, message):
        with pytest.raises(ParseError) as exc:
            parse(text)
        assert str(exc.value) == message

    def test_langford_header_shape(self):
        # header shape of a 576-variable, 13584-clause instance
        lines = ["p cnf 576 13584"]
        for k in range(13584):
            v = (k % 575) + 1
            lines.append("%d -%d 0" % (v, v + 1))
        f = parse("\n".join(lines) + "\n")
        assert f.num_vars == 576
        assert len(f.clauses) == 13584


class TestEmit:
    def test_empty_formula(self):
        assert emit(CnfFormula(0, [])) == "p cnf 0 0\n"

    def test_single_xor_native(self):
        text = emit(CnfFormula(3, [[1, 2]], [([1, 3], 1)]))
        assert text == "p cnf 3 1\n1 2 0\nx1 3 0\n"

    def test_xor_rhs_zero_polarity(self):
        text = emit(CnfFormula(2, [], [([1, 2], 0)]))
        assert text.splitlines()[-1] == "x-1 2 0"

    def test_deterministic(self):
        f = CnfFormula(4, [[1, -2], [3, 4]], [([2, 3], 1)])
        assert emit(f) == emit(f)

    def test_expansion_header_counts(self):
        # one arity-3 XOR expands to 2^(3-1) = 4 clauses
        f = CnfFormula(3, [[1]], [([1, 2, 3], 1)])
        text = emit(expand_xors(f))
        header = text.splitlines()[0]
        assert header == "p cnf 3 5"
        assert not any(line.startswith("x") for line in text.splitlines())

    def test_expansion_with_chunking(self):
        # arity 5 at chunk 3 chains into three arity-3 sub-XORs (two fresh
        # link variables), 4 clauses each
        f = CnfFormula(5, [], [([1, 2, 3, 4, 5], 0)])
        text = emit(expand_xors(f, chunk=3))
        assert text.splitlines()[0] == "p cnf 7 12"

    @pytest.mark.parametrize("rhs", [0, 1])
    def test_conjoined_empty_row_native_matches_expanded(self, rhs):
        # f = 0 hash rows have empty support; rhs 0 is vacuous, rhs 1 makes
        # the instance unsatisfiable, and no x-line may come out empty
        from xorcount.gf2hash import HashParams, ParityHash
        from xorcount.oracle import conjoin, count_models

        f = CnfFormula(4, [[1, -2], [3, 4]], [])
        h = ParityHash((0b0110, 0), rhs << 1, HashParams(4, 2, 0.5))
        conj = conjoin(f, h)
        native = parse(emit(conj))
        expanded = parse(emit(expand_xors(conj)))
        assert all(sup for sup, _ in native.xors)
        assert count_models(native) == count_models(expanded)
        assert (count_models(native) == 0) == bool(rhs)

    def test_names_only_the_literals_written(self):
        # a formula declaring 10^6 variables once made a table of all 2*10^6
        # legal literals on every call (about 255 MB at peak)
        import tracemalloc

        f = CnfFormula(10**6, [[1, -2]], [])
        tracemalloc.start()
        try:
            text = emit(f)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert text == "p cnf 1000000 1\n1 -2 0\n"
        assert peak < 1 << 20

    # each bad formula raises, when it is built, the fault named first,
    # clauses before x-lines, so emit never sees it; messages recorded when
    # emit checked the formula it was handed
    @pytest.mark.parametrize("clauses,xors,message", [
        ([[1, 2], [0, -5], [4]], [], "literal 0 out of range"),
        ([[1, 4], [0]], [], "literal 4 out of range"),
        ([[1, -4]], [], "literal -4 out of range"),
        ([[1, 2], [3, -4, 0], [5]], [], "literal -4 out of range"),
        ([[1], []], [], "zero-width clause"),
        ([[], [7]], [], "zero-width clause"),
        ([[4]], [([], 1)], "literal 4 out of range"),
        ([[5]], [([1, 4], 1)], "literal 5 out of range"),
        ([[1, 2]], [([1, 4], 1)], "xor variable 4 out of range"),
        ([[1, 2]], [([2, 0], 1)], "xor variable 0 out of range"),
        ([[1, 2]], [([-2, 1], 0)], "xor variable -2 out of range"),
        ([[1, 2]], [([1, 2], 2)], "xor rhs must be 0 or 1"),
        ([[1, 2]], [([], 2)], "xor rhs must be 0 or 1"),
        ([[1, 2]], [([1, 2], 1), ([3, 9], 2)], "xor rhs must be 0 or 1"),
        # a literal must be a plain int: emit once wrote np.int64(1), True
        # and 1.0 as 1, and refused 2.5 only when it came to write it
        ([[1, 2.5]], [], "literal 2.5 is not an integer"),
        ([[np.int64(1)]], [], "literal np.int64(1) is not an integer"),
        ([[True]], [], "literal True is not an integer"),
        ([[1], [True]], [], "literal True is not an integer"),  # True == 1
        ([[1.0, 0]], [], "literal 1.0 is not an integer"),
        ([[0, 2.5]], [], "literal 0 out of range"),
        ([[1], [], [2.5]], [], "zero-width clause"),
        ([[2.5]], [([9], 1)], "literal 2.5 is not an integer"),
        ([[1]], [([1, 2.5], 1)], "xor variable 2.5 is not an integer"),
        ([[1]], [([np.int64(2)], 0)], "xor variable np.int64(2) is not an integer"),
        ([[1]], [([True], 0)], "xor variable True is not an integer"),
        ([[1]], [([2.5], 2)], "xor rhs must be 0 or 1"),
    ])
    def test_bad_formula_names_the_first_fault(self, clauses, xors, message):
        with pytest.raises(ParseError) as exc:
            CnfFormula(3, clauses, xors)
        assert str(exc.value) == message


class TestCheckedWhenBuilt:
    @pytest.mark.parametrize("clauses,message", [
        ([[0]], "literal 0 out of range"),
        ([[5]], "literal 5 out of range"),
    ])
    def test_in_process_backends_never_see_a_bad_formula(self, clauses, message):
        # the exhaustive backend once counted these as 4 models (literal 0
        # read variable 3) and 0 models: the fault is now refused when built
        from xorcount.oracle import count_models

        with pytest.raises(ParseError) as exc:
            count_models(CnfFormula(3, clauses, []))
        assert str(exc.value) == message

    @pytest.mark.parametrize("num_vars", [-1, 2.0, True, np.int64(2), None])
    def test_num_vars_is_checked(self, num_vars):
        with pytest.raises(ParseError) as exc:
            CnfFormula(num_vars, [[1]], [])
        assert str(exc.value) == ("num_vars %r is not a non-negative integer"
                                  % (num_vars,))

    def test_negative_num_vars_is_never_emitted(self):
        # emit once wrote "p cnf -1 0", a header parse refuses
        with pytest.raises(ParseError, match="num_vars -1"):
            emit(CnfFormula(-1, [], []))

    @pytest.mark.parametrize("num_vars", [-1, 2.0])
    def test_bad_num_vars_never_reaches_the_counter(self, num_vars):
        # count_models once raised "negative shift count" at -1 and a
        # TypeError at 2.0
        from xorcount.oracle import count_models

        with pytest.raises(ParseError, match="num_vars"):
            count_models(CnfFormula(num_vars, [], []))

    def test_formulas_built_from_parts_are_not_checked_again(self, monkeypatch):
        from xorcount.gf2hash import HashParams, sample_hash

        f = CnfFormula(6, [[1, -2], [3, 4, -6]], [([2, 5], 0)])
        calls = []
        real = CnfFormula.__init__
        monkeypatch.setattr(CnfFormula, "__init__",
                            lambda self, *a: calls.append(a) or real(self, *a))
        conj = conjoin(f, sample_hash(HashParams(6, 3, 0.5, seed=2)))
        expanded = expand_xors(conj, chunk=3)
        assert expanded.clauses[:2] == f.clauses
        assert calls == []


class TestEncodingDigests:
    """SHA-256 of the text emit writes for synth_n table CNFs with hashes
    over their cell bits at f = 0 (empty rows, some with rhs 1), f* and 1/2,
    in three forms; recorded before emit, conjoin and expand_xors lost
    their per-literal Python loops."""

    FORMS = {
        "native": lambda F, h: emit(conjoin(F, h)),
        "expanded": lambda F, h: emit(conjoin(F, h, native_xor=False)),
        "chunk3": lambda F, h: emit(expand_xors(conjoin(F, h), chunk=3)),
    }

    # (n, m, f* of that m rounded to two places, form, digest)
    @pytest.mark.parametrize("n,m,fstar,form,digest", [
        (8, 8, 0.40, "native",
         "427b66a94c9d16f57693772224d280d26b7a765831ee0c7bee7341394abfaaf9"),
        (8, 8, 0.40, "expanded",
         "d10266c6d32e176fbf3a447c5b7dfd5e88c3bf1575af3d6aa4ba3843526d8592"),
        (8, 8, 0.40, "chunk3",
         "499bd900a30c15fbda1f0210df39133aee44c6db06262db4d8f710cd093e1ea8"),
        (12, 9, 0.41, "native",
         "9f166753c812b05de2c4db81a97a43297977152b57803ef381fd8aa0972ffc97"),
        (12, 9, 0.41, "expanded",
         "180fc23623cb25974c545d195a9aa3d7008e39a7d1b5b83ddc73bbef935b1c7b"),
        (12, 9, 0.41, "chunk3",
         "821592ad39f20017408d09ec094279340dbed9b93baaffd9f85d646b95062558"),
    ])
    def test_synth_table_questions(self, n, m, fstar, form, digest):
        problem, _ = tables.encode_to_cnf(tables.synth_spec(n))
        texts = []
        for f in (0.0, fstar, 0.5):
            h = tables.hash_over_cells(problem, m, f, seed=n)
            if f == 0.0:
                assert h.b_bits and not any(h.rows)
            texts.append(self.FORMS[form](problem.formula, h))
        assert hashlib.sha256("".join(texts).encode()).hexdigest() == digest


def reference_emit(formula):
    """emit as it was before a formula kept its clause text: a name table of
    every legal literal, and every line written again on every call."""
    num_vars, clauses, xors = formula.num_vars, formula.clauses, formula.xors
    digits = list(map(str, range(1, num_vars + 1)))
    names = dict(zip(range(1, num_vars + 1), digits))
    names.update(zip(range(-1, -num_vars - 1, -1), map("-".__add__, digits)))
    name = names.__getitem__
    extra = []
    if any(rhs for sup, rhs in xors if not sup):
        num_vars += 1
        extra = ["%d 0" % num_vars, "-%d 0" % num_vars]
    lines = ["p cnf %d %d" % (num_vars, len(clauses) + len(extra))]
    lines += [" ".join(map(name, cl)) + " 0" for cl in clauses]
    lines += extra
    for sup, rhs in xors:
        if sup:
            lits = [sup[0] if rhs else -sup[0], *sup[1:]]
            lines.append("x" + " ".join(map(name, lits)) + " 0")
    return "\n".join(lines) + "\n"


def reference_conjoin(formula, h):
    """conjoin's result built eagerly: new lists throughout."""
    rows = [([j + 1 for j in range(h.n) if row >> j & 1], h.b_bits >> i & 1)
            for i, row in enumerate(h.rows)]
    return CnfFormula(formula.num_vars, list(formula.clauses),
                      list(formula.xors) + rows)


def reference_expand(formula, chunk=6):
    """expand_xors built eagerly, one clause per sign pattern: each row
    chained into sub-XORs of arity <= chunk (at least 3 when chaining),
    and an empty row with rhs 1 a contradiction on a fresh variable."""
    num_vars = formula.num_vars
    clauses = list(formula.clauses)

    def direct(vars_, rhs):
        return [[-v if p >> i & 1 else v for i, v in enumerate(vars_)]
                for p in range(1 << len(vars_)) if p.bit_count() & 1 != rhs]

    for sup, rhs in formula.xors:
        if not sup:
            if rhs:
                num_vars += 1
                clauses += [[num_vars], [-num_vars]]
            continue
        pending = list(sup)
        link = max(chunk, 3)
        while len(pending) > chunk:
            num_vars += 1
            clauses += direct(pending[: link - 1] + [num_vars], 0)
            pending = [num_vars] + pending[link - 1:]
        clauses += direct(pending, rhs)
    return CnfFormula(num_vars, clauses, [])


class TestEncodingMatchesReference:
    """conjoin, expand_xors and emit write a question's text from the base
    formula's kept text, line templates and x-lines; every byte and every
    clause list must be what the eager reference gives."""

    @staticmethod
    def bases():
        """Fresh base formulas (cold text) with their hash widths: random
        3-CNFs without and with their own x-lines, and the synth_8 table
        CNF."""
        rng = random.Random(5)
        clauses = [[rng.choice([v, -v]) for v in rng.sample(range(1, 15), 3)]
                   for _ in range(30)]
        own = [([1, 3, 5, 7, 9, 11, 13], 1), ([2, 4], 0), ([], 0), ([6], 1)]
        problem, _ = tables.encode_to_cnf(tables.synth_spec(8))
        return [(CnfFormula(14, clauses, []), 12),
                (CnfFormula(14, [list(cl) for cl in clauses], own), 12),
                (problem.formula, problem.n)]

    @staticmethod
    def hashes(n, seed):
        """Seeded hashes at f = 0, 0.05, f* and 1/2, and one whose empty
        rows (rhs 1, rhs 0, rhs 1) sit between long and short rows."""
        from xorcount.gf2hash import HashParams, ParityHash, sample_hash

        m = 6
        fstar = comb.min_density_fstar(n, m, 1 << (m + 2), 2.25).f_star
        out = [sample_hash(HashParams(n, m, f, seed=seed + k))
               for k, f in enumerate((0.0, 0.05, fstar, 0.5))]
        full = (1 << n) - 1
        rows = (full ^ 0b10, 0, full, 0, 0, 0b11, 0)
        out.append(ParityHash(rows, 0b1010110, HashParams(n, len(rows), 0.5)))
        return out

    @pytest.mark.parametrize("chunk", range(2, 10))
    def test_questions_match(self, chunk):
        for formula, n in self.bases():
            # the base's clauses read before any text is kept
            assert formula.clauses == [list(cl) for cl in formula.clauses]
            kept = None
            for h in self.hashes(n, seed=10 * chunk):
                ref = reference_conjoin(formula, h)
                want_native = reference_emit(ref)
                want_expanded = reference_expand(ref, chunk)
                want_text = reference_emit(want_expanded)

                conj = conjoin(formula, h)
                assert emit(conj) == want_native
                early = expand_xors(conj, chunk)
                assert early.clauses == want_expanded.clauses  # read before emit
                assert emit(early) == want_text
                late = expand_xors(conj, chunk)
                assert emit(late) == want_text
                assert late.clauses == want_expanded.clauses  # read after emit
                assert late.num_vars == want_expanded.num_vars
                if chunk == 6:
                    assert emit(conjoin(formula, h, native_xor=False)) == want_text
                # the base's text is written once and kept for every question
                kept = kept or formula._text
                assert formula._text is kept

    def test_the_kept_text_is_invisible(self):
        from xorcount.gf2hash import HashParams, sample_hash

        formula, n = self.bases()[1]
        copy, _ = self.bases()[1]
        h = sample_hash(HashParams(n, 4, 0.3, seed=1))
        conj = conjoin(formula, h)
        expanded = expand_xors(conj, chunk=3)
        forms = (formula, conj, expanded)
        before = [repr(f) for f in forms]
        texts = [emit(f) for f in forms]
        assert [repr(f) for f in forms] == before
        assert formula == copy and copy._text is None
        assert conj == reference_conjoin(copy, h)
        assert expanded == reference_expand(reference_conjoin(copy, h), 3)
        assert texts == [emit(copy), emit(conjoin(copy, h)),
                         emit(expand_xors(conjoin(copy, h), chunk=3))]
        assert repr(formula) == repr(copy)


class TestChainBoundaries:
    """expand_xors against `reference_expand`, byte for byte, on rows whose
    lengths sit at the chain's boundaries: t = chunk (no auxiliary),
    t = chunk + j(link - 2) (the last window full) and one more (a last
    window of two variables), plus empty and one-variable rows."""

    @pytest.mark.parametrize("chunk", range(2, 10))
    def test_rows_at_the_boundaries(self, chunk):
        link = max(chunk, 3)
        lengths = {0, 1, chunk, chunk + 1}
        for j in range(1, 5):
            lengths |= {chunk + j * (link - 2), chunk + j * (link - 2) + 1}
        for t in sorted(lengths):
            for rhs in (0, 1):
                # variables out of order and not from 1, after a clause
                support = [2 * v + 3 for v in reversed(range(t))]
                formula = CnfFormula(2 * t + 4, [[1, -2]], [(support, rhs)])
                want = reference_expand(formula, chunk)
                got = expand_xors(formula, chunk)
                assert emit(got) == reference_emit(want), (chunk, t, rhs)
                assert got.clauses == want.clauses
                assert got.num_vars == want.num_vars


class TestKeptTokens:
    """Every formula built from a base reads and writes the one token table
    the base keeps: questions asked at once, on threads, all get the text a
    fresh base gives, and the table holds no more than the variables the
    questions named."""

    def test_concurrent_questions_match_a_fresh_base(self):
        import sys
        from concurrent.futures import ThreadPoolExecutor

        from xorcount.gf2hash import HashParams, sample_hash

        problem, _ = tables.encode_to_cnf(tables.synth_spec(8))
        n = problem.n
        hashes = [sample_hash(HashParams(n, 6, 0.5, seed=s)) for s in range(48)]
        chunks = [2 + s % 5 for s in range(48)]
        fresh = [emit(expand_xors(conjoin(tables.encode_to_cnf(tables.synth_spec(8))[0]
                                          .formula, h), chunk))
                 for h, chunk in zip(hashes, chunks)]
        base = problem.formula
        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=8) as pool:
                texts = list(pool.map(
                    lambda hc: emit(expand_xors(conjoin(base, hc[0]), hc[1])),
                    zip(hashes, chunks), timeout=120))
        finally:
            sys.setswitchinterval(switch)
        assert texts == fresh
        # the hash's variables and the widest question's auxiliaries
        widest = max(expand_xors(conjoin(base, h), c).num_vars
                     for h, c in zip(hashes, chunks))
        assert set(base._kept["tokens"]) <= set(range(1, n + 1)) | set(
            range(base.num_vars + 1, widest + 1))
        assert conjoin(base, hashes[0])._kept is base._kept


class TestWideEncodingDigests:
    """SHA-256 of the text emit writes for synth_16 and synth_20 questions
    at the synth-tables benchmark's m (its lower and upper bound) and
    densities (f*, halfway to 1/2, and 1/2), in `TestEncodingDigests`'s
    three forms."""

    SIZES = {16: (6, 10), 20: (7, 11)}  # n -> (m of lb, m of ub)

    @pytest.mark.parametrize("n,m,form,digest", [
        (16, 6, "native",
         "089ed1f7deab5cfe4cf6c44f207e885e5101a35b7c9f5a9b671aa50ade8401f9"),
        (16, 6, "expanded",
         "687672cafb946d5b4c2345d7cfbd1c376afa706c524620da212df3da2a5eec4b"),
        (16, 6, "chunk3",
         "470a41e69205dc8bfdc91f12fbdd237602ab2d104861538e52eebc047c3b2b94"),
        (16, 10, "native",
         "70a2909f48557a4c292ca02f72e8c0753f4b43f73441e2bfa77c86a38dc35cc7"),
        (16, 10, "expanded",
         "a584e397f5bd2b5ea6b295951ae7ffcbfbe470dc5dbd5807468ff785bb1f5b15"),
        (16, 10, "chunk3",
         "52fe59ab2af8b11c88847e79dee97ec7aaa8cef618df2a24d62dbe5af8c35830"),
        (20, 7, "native",
         "df4671560c948923a8c74b5fddce9af0c27b8271f535684f0f3c3cc211f673fd"),
        (20, 7, "expanded",
         "ecfa2665a5ac31bf137bed750006fbc836ef47fa5413c1f3b7d0485d63101c4d"),
        (20, 7, "chunk3",
         "fcd82cec1e097c1c25038cd3efb7aa88ebe129c50110b9cc6049b5b60b71a8ae"),
        (20, 11, "native",
         "439751ded53542043d8b9a91e34e56a18e204f08613e37cb65796d0f922ca05e"),
        (20, 11, "expanded",
         "2c617ac7d718372bb8f3e5cfdf22c9c949b416e7d36dedfe2468f2105b48abef"),
        (20, 11, "chunk3",
         "d10cc1d8ee3f762992021548a7364e961e4edb1494ae4f0018955ba688546028"),
    ])
    def test_benchmark_questions(self, n, m, form, digest):
        problem, _ = tables.encode_to_cnf(tables.synth_spec(n))
        m_lb = self.SIZES[n][0]
        fstar = comb.min_density_fstar(problem.n, m_lb, 1 << (m_lb + 2), 2.25).f_star
        texts = [TestEncodingDigests.FORMS[form](
                     problem.formula, tables.hash_over_cells(problem, m, f, seed=n + m))
                 for f in (fstar, (fstar + 0.5) / 2, 0.5)]
        assert hashlib.sha256("".join(texts).encode()).hexdigest() == digest


@st.composite
def formulas(draw):
    num_vars = draw(st.integers(min_value=1, max_value=12))
    lits = st.integers(min_value=1, max_value=num_vars).map(
        lambda v: v).flatmap(
        lambda v: st.sampled_from([v, -v]))
    clauses = draw(st.lists(
        st.lists(lits, min_size=1, max_size=4), min_size=0, max_size=8))
    xors = draw(st.lists(
        st.tuples(
            st.lists(st.integers(min_value=1, max_value=num_vars),
                     min_size=1, max_size=4, unique=True),
            st.integers(min_value=0, max_value=1),
        ),
        min_size=0, max_size=3,
    ))
    return CnfFormula(num_vars, clauses, [(list(s), r) for s, r in xors])


class TestRoundTrip:
    @given(formulas())
    @settings(max_examples=200)
    def test_parse_emit_parse_identity(self, f):
        text = emit(f)
        g = parse(text)
        assert g.num_vars == f.num_vars
        assert g.clauses == f.clauses
        assert g.xors == [(list(s), r) for s, r in f.xors]
        assert emit(g) == text
