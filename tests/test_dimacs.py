import hashlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from xorcount import tables
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

    def test_missing_header(self):
        with pytest.raises(ParseError):
            parse("1 0\n")

    def test_unterminated_clause(self):
        with pytest.raises(ParseError):
            parse("p cnf 2 1\n1 2\n")

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

    # each bad formula raises what validate() names first, clauses before
    # x-lines; messages recorded before emit checked clauses as it wrote them
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
    ])
    def test_bad_formula_names_the_first_fault(self, clauses, xors, message):
        with pytest.raises(ParseError) as exc:
            emit(CnfFormula(3, clauses, xors))
        assert str(exc.value) == message


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
