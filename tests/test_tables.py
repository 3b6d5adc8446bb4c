import hashlib
import itertools
import math
import random
import warnings

import pytest

from xorcount import tables
from xorcount.errors import ParameterError, ParseError
from xorcount.gf2hash import Assignment
from xorcount.oracle import CountingProblem, _check_assignment
from xorcount.tables import (CapacityError, ContingencyTableSpec,
                             brute_force_count, encode_to_cnf,
                             enumerate_tables, explicit_problem,
                             format_table_spec, hash_over_cells,
                             parse_table_spec, synth_spec)
from conftest import random_table_spec, transpose


def projected_count(spec):
    """Count CNF models over the cell bits by completing each cell
    assignment through the adder gates and checking all clauses."""
    problem, enc = encode_to_cnf(spec)
    formula = problem.formula
    count = 0
    for cells in range(1 << enc.num_cell_bits):
        full = enc.complete(cells)
        if _check_assignment(formula, full):
            count += 1
    return count


class TestBruteForce:
    def test_synth_8(self):
        assert brute_force_count(synth_spec(8)) == 50
        assert math.log2(50) == pytest.approx(5.64, abs=0.01)

    def test_synth_formula(self):
        for n in (3, 4, 5, 6):
            assert brute_force_count(synth_spec(n)) == 1 + (n - 1) ** 2

    def test_1x1_integer(self):
        spec = ContingencyTableSpec(1, 1, (4,), (4,))
        assert brute_force_count(spec) == 1

    def test_1x1_binary_overflow(self):
        with pytest.raises(ParameterError, match="binary row marginal exceeds"):
            ContingencyTableSpec(1, 1, (2,), (2,), binary=True)

    @pytest.mark.parametrize("args,message", [
        ((2, 1, (1,), (1,)), "marginal lengths must match the table shape"),
        ((1, 1, (-1,), (-1,)), "marginals must be nonnegative"),
        ((1, 2, (2,), (2, 0), True), "binary column marginal exceeds row count"),
        ((1, 1, (1,), (1,), False, {(0, 1)}), r"structural zero \(0,1\) out of range"),
    ])
    def test_out_of_range_values_are_parameter_errors(self, args, message):
        with pytest.raises(ParameterError, match=message):
            ContingencyTableSpec(*args)

    def test_mismatched_marginals_count_zero(self):
        with pytest.warns(UserWarning):
            spec = ContingencyTableSpec(2, 2, (1, 1), (2, 1))
        assert brute_force_count(spec) == 0

    def test_against_naive_enumeration(self):
        rng = random.Random(4)
        for _ in range(20):
            spec = random_table_spec(rng, max_cell_bits=8)
            # naive: enumerate every cell-value combination directly
            cells = [(i, j) for i in range(spec.rows) for j in range(spec.cols)]
            caps = [spec.cell_max(i, j) for i, j in cells]
            naive = 0
            def rec(k, values):
                nonlocal naive
                if k == len(cells):
                    rm = [0] * spec.rows
                    cm = [0] * spec.cols
                    for (i, j), v in zip(cells, values):
                        rm[i] += v
                        cm[j] += v
                    naive += (tuple(rm) == spec.row_marginals
                              and tuple(cm) == spec.col_marginals)
                    return
                for v in range(caps[k] + 1):
                    rec(k + 1, values + [v])
            rec(0, [])
            assert brute_force_count(spec) == naive

    def test_capacity_refusal_rows(self, monkeypatch):
        # the 6 x 7 permutation tables take 1,956 rows of work 7 + 8 each;
        # past the cap the search refuses, and force counts them all
        monkeypatch.setattr(tables, "MAX_SEARCH_WORK", 1956 * 15 - 1)
        spec = ContingencyTableSpec(6, 7, (1,) * 6, (1,) * 6 + (0,))
        with pytest.raises(CapacityError, match="visited 1956 rows"):
            brute_force_count(spec)
        assert brute_force_count(spec, force=True) == math.factorial(6)
        monkeypatch.setattr(tables, "MAX_SEARCH_WORK", 1956 * 15)
        assert brute_force_count(spec) == math.factorial(6)

    def test_structural_zero_monotone(self):
        rng = random.Random(8)
        for _ in range(10):
            spec = random_table_spec(rng, max_cell_bits=8)
            base = brute_force_count(spec)
            i = rng.randrange(spec.rows)
            j = rng.randrange(spec.cols)
            harder = ContingencyTableSpec(
                spec.rows, spec.cols, spec.row_marginals, spec.col_marginals,
                spec.binary, spec.structural_zeros | {(i, j)})
            assert brute_force_count(harder) <= base

    def test_permutation_invariance(self):
        rng = random.Random(15)
        spec = ContingencyTableSpec(3, 3, (2, 3, 1), (1, 4, 1))
        base = brute_force_count(spec)
        perm = [0, 1, 2]
        rng.shuffle(perm)
        permuted = ContingencyTableSpec(
            3, 3, tuple(spec.row_marginals[p] for p in perm),
            spec.col_marginals)
        assert brute_force_count(permuted) == base

    def test_transpose_symmetry(self):
        rng = random.Random(23)
        for _ in range(10):
            spec = random_table_spec(rng, max_cell_bits=8)
            assert brute_force_count(transpose(spec)) == brute_force_count(spec)

    def test_enumerated_tables_are_valid(self):
        spec = ContingencyTableSpec(3, 3, (2, 1, 2), (1, 2, 2), binary=True,
                                    structural_zeros=frozenset({(0, 0)}))
        for t in enumerate_tables(spec):
            assert all(sum(row) == r for row, r in zip(t, spec.row_marginals))
            for j, c in enumerate(spec.col_marginals):
                assert sum(t[i][j] for i in range(3)) == c
            assert t[0][0] == 0
            assert all(v in (0, 1) for row in t for v in row)


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _golden_random_spec(seed):
    spec = random_table_spec(random.Random(seed), max_cell_bits=24)
    # the goldens are meant to cover integer cells and structural zeros
    assert not spec.binary and spec.structural_zeros
    assert any(spec.cell_max(i, j) > 1
               for i in range(spec.rows) for j in range(spec.cols))
    return spec


def _naive_tables(spec):
    """Every cell-value product meeting the marginals, sorted by rows."""
    caps = [range(spec.cell_max(i, j) + 1)
            for i in range(spec.rows) for j in range(spec.cols)]
    found = []
    for flat in itertools.product(*caps):
        t = tuple(flat[i * spec.cols:(i + 1) * spec.cols]
                  for i in range(spec.rows))
        if (tuple(map(sum, t)) == spec.row_marginals
                and tuple(map(sum, zip(*t))) == spec.col_marginals):
            found.append(t)
    return sorted(found)


def _order_spec(rng):
    """Random spec small enough for a cell-by-cell product: binary or
    integer cells, structural zeros, sometimes an all-zero row or column
    and sometimes marginals that disagree."""
    while True:
        r, c = rng.randint(2, 4), rng.randint(2, 4)
        binary = rng.random() < 0.5
        zeros = frozenset((i, j) for i in range(r) for j in range(c)
                          if rng.random() < 0.15)
        table = [[0 if (i, j) in zeros else rng.randint(0, 1 if binary else 2)
                  for j in range(c)] for i in range(r)]
        if rng.random() < 0.2:
            if rng.random() < 0.5:
                table[rng.randrange(r)] = [0] * c
            else:
                j = rng.randrange(c)
                for row in table:
                    row[j] = 0
        rmarg = [sum(row) for row in table]
        cmarg = [sum(col) for col in zip(*table)]
        if rng.random() < 0.15:
            j = rng.randrange(c)
            cmarg[j] += 1 if cmarg[j] < r or not binary else -1
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)
            spec = ContingencyTableSpec(r, c, rmarg, cmarg, binary, zeros)
        if math.prod(spec.cell_max(i, j) + 1 for i in range(r)
                     for j in range(c)) <= 10000:
            return spec


class TestEnumerationOrder:
    # SHA-256 of repr(list(enumerate_tables(spec, force=True))): callers
    # such as explicit_problem and the CLI rely on this exact sequence
    GOLDEN = {
        "synth_5": "23861111371720874166c782f69bda16294ccf869ecbbbad01a42a56b3da2dd5",
        "synth_8": "78bb93fb532429012d51790ef08f9eec62a2f1a31487f3f3ddce63e429e27f4d",
        "synth_12": "9f12915afc2b023f52bfa1e2db5fc6913124a2ab9a9c155ba06bc1d97a0d6716",
        "random_74": "b0d559355cf2d214863724cad118270bebb917be79035152b57b6402f40db5db",
        "random_255": "e41d7d0093b078c5bcce35e25b03639c2f97646542e65eb6359aeb388e4731f8",
        "random_274": "4c9ddc52769963f489a77f4dae27bf010b89cbe50328ba996f52ed5319d3a16b",
    }
    PACKED_SYNTH_12 = "6939d3d8cd431183491a35da5e9b7412ee3aac270173eddac25a636489dea975"

    @pytest.mark.parametrize("name", sorted(GOLDEN))
    def test_golden_sequence(self, name):
        kind, arg = name.split("_")
        spec = (synth_spec(int(arg)) if kind == "synth"
                else _golden_random_spec(int(arg)))
        tables = list(enumerate_tables(spec, force=True))
        assert _digest(repr(tables).encode()) == self.GOLDEN[name]

    def test_golden_packed_set(self):
        problem = explicit_problem(synth_spec(12), force=True)
        [packed] = problem._blocks  # an explicit set is one packed block
        assert _digest(packed.tobytes()) == self.PACKED_SYNTH_12

    def test_order_matches_sorted_product(self):
        rng = random.Random(29)
        seen = {"binary": 0, "integer": 0, "zeros": 0, "empty line": 0,
                "mismatched": 0, "several tables": 0}
        for _ in range(200):
            spec = _order_spec(rng)
            seen["binary" if spec.binary else "integer"] += 1
            seen["zeros"] += bool(spec.structural_zeros)
            seen["empty line"] += 0 in spec.row_marginals + spec.col_marginals
            seen["mismatched"] += (sum(spec.row_marginals)
                                   != sum(spec.col_marginals))
            naive = _naive_tables(spec)
            seen["several tables"] += len(naive) > 1
            assert list(enumerate_tables(spec)) == naive, spec
        assert all(seen.values()), seen

    def test_depth_not_bounded_by_recursion_limit(self):
        # one row per level of the search; a recursive walk dies near 1,000
        spec = ContingencyTableSpec(1200, 1, (0,) * 1200, (0,))
        assert brute_force_count(spec, force=True) == 1


def reference_enumerate_tables(spec, force=False):
    """enumerate_tables as it was before search states were kept: every
    visit to a state builds its rows again with the row odometer."""
    if sum(spec.row_marginals) != sum(spec.col_marginals):
        return
    row_cap = [
        [0 if (k, j) in spec.structural_zeros else min(r, 1) if spec.binary else r
         for j in range(spec.cols)]
        for k, r in enumerate(spec.row_marginals)
    ]
    supply = [[0] * spec.cols]
    for cap_row in reversed(row_cap):
        supply.append([s + c for s, c in zip(supply[-1], cap_row)])
    supply.reverse()
    table, stack, caps = [()] * spec.rows, [], list(spec.col_marginals)
    work, row_work = 0, spec.cols + 8
    while True:
        i = len(stack)
        if i == spec.rows:
            yield tuple(table)
        else:
            lo = [max(0, c - s) for c, s in zip(caps, supply[i + 1])]
            hi = [min(c, u) for c, u in zip(caps, row_cap[i])]
            stack.append((caps, tables._rows_within(spec.row_marginals[i], lo, hi)))
        while stack and (row := next(stack[-1][1], None)) is None:
            stack.pop()
        if not stack:
            return
        work += row_work
        if work > tables.MAX_SEARCH_WORK and not force:
            raise CapacityError(
                "enumeration visited %d rows without finishing (pass force=True "
                "to count without a cap)" % (work // row_work))
        table[len(stack) - 1] = row
        caps = [c - v for c, v in zip(stack[-1][0], row)]


def _outcome(enumerate_, spec, force=False):
    """The tables yielded, then the CapacityError's message if one ends
    the search."""
    out = []
    try:
        out.extend(enumerate_(spec, force=force))
    except CapacityError as exc:
        out.append(str(exc))
    return out


def _search_spec(rng):
    """Random spec of up to 6 x 6 cells: binary or integer cells,
    structural zeros, sometimes marginals that disagree.  Larger than
    `_order_spec`'s, so that a search forced past a lowered cap fills the
    memo before it finishes."""
    r, c = rng.randint(1, 6), rng.randint(1, 6)
    binary = rng.random() < 0.5
    zeros = frozenset((i, j) for i in range(r) for j in range(c)
                      if rng.random() < 0.15)
    table = [[0 if (i, j) in zeros else rng.randint(0, 1 if binary else 2)
              for j in range(c)] for i in range(r)]
    rmarg = [sum(row) for row in table]
    cmarg = [sum(col) for col in zip(*table)]
    if rng.random() < 0.15:
        cmarg[0] += 1 if cmarg[0] < r or not binary else -1
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        return ContingencyTableSpec(r, c, rmarg, cmarg, binary, zeros)


class TestKeptSearchStates:
    def test_matches_the_rebuilding_search(self, monkeypatch):
        # the same tables in the same order, then the same refusal, at
        # lowered caps; forced past a lowered cap, the memo stops keeping
        # states and the walk still matches
        rng = random.Random(31)
        seen = {"binary": 0, "integer": 0, "zeros": 0, "mismatched": 0,
                "refused": 0, "forced past the cap": 0}
        for _ in range(300):
            spec = _search_spec(rng)
            seen["binary" if spec.binary else "integer"] += 1
            seen["zeros"] += bool(spec.structural_zeros)
            seen["mismatched"] += (sum(spec.row_marginals)
                                   != sum(spec.col_marginals))
            cap = rng.choice((60, 400, 3000))
            monkeypatch.setattr(tables, "MAX_SEARCH_WORK", cap)
            want = _outcome(reference_enumerate_tables, spec)
            assert _outcome(enumerate_tables, spec) == want, (spec, cap)
            refused = bool(want) and isinstance(want[-1], str)
            seen["refused"] += refused
            monkeypatch.setattr(tables, "MAX_SEARCH_WORK", 30000)
            whole = _outcome(reference_enumerate_tables, spec)
            assert _outcome(enumerate_tables, spec) == whole, spec
            if refused and not (whole and isinstance(whole[-1], str)):
                monkeypatch.setattr(tables, "MAX_SEARCH_WORK", cap)
                assert _outcome(enumerate_tables, spec, force=True) == whole, spec
                seen["forced past the cap"] += 1
        assert all(seen.values()), seen

    def test_explicit_members_are_the_encoded_tables(self):
        rng = random.Random(37)
        specs = [_order_spec(rng) for _ in range(60)] + [synth_spec(12)]
        for spec in specs:
            _, enc = encode_to_cnf(spec)
            want = CountingProblem.from_explicit(
                [Assignment(enc.encode_table(t), enc.num_cell_bits)
                 for t in enumerate_tables(spec)], enc.num_cell_bits)
            got = explicit_problem(spec, enc)
            assert got.n == want.n == enc.num_cell_bits
            assert ([b.tobytes() for b in got._blocks]
                    == [b.tobytes() for b in want._blocks]), spec


class TestCellLayout:
    def test_explicit_problem_builds_no_circuit(self, monkeypatch):
        # the layout comes from the spec alone, so packing the tables
        # needs no adder circuit; with one given, the packing is the same
        rng = random.Random(41)
        specs = [_order_spec(rng) for _ in range(60)]
        specs += [synth_spec(n) for n in range(8, 21)]
        wanted = []
        for spec in specs:
            _, enc = encode_to_cnf(spec)
            wanted.append(explicit_problem(spec, enc, force=True))

        def no_circuit(*args):
            raise AssertionError("explicit_problem built a circuit")

        monkeypatch.setattr(tables, "_CircuitBuilder", no_circuit)
        for spec, want in zip(specs, wanted):
            got = explicit_problem(spec, force=True)
            assert got.n == want.n
            assert ([b.tobytes() for b in got._blocks]
                    == [b.tobytes() for b in want._blocks]), spec


class TestEncoding:
    def test_projection_equals_brute_force(self):
        rng = random.Random(77)
        for _ in range(25):
            spec = random_table_spec(rng, max_cell_bits=10)
            assert projected_count(spec) == brute_force_count(spec)

    def test_all_zero_marginals_single_model(self):
        spec = ContingencyTableSpec(2, 3, (0, 0), (0, 0, 0))
        assert brute_force_count(spec) == 1
        # every cell is structurally zero-width: no cell bits at all
        _, enc = encode_to_cnf(spec)
        assert enc.num_cell_bits == 0

    def test_mismatched_marginals_unsat_cnf(self):
        with pytest.warns(UserWarning):
            spec = ContingencyTableSpec(2, 2, (1, 0), (0, 0))
        assert projected_count(spec) == 0

    def test_table_round_trip_through_encoding(self):
        spec = ContingencyTableSpec(3, 3, (2, 3, 1), (1, 4, 1))
        _, enc = encode_to_cnf(spec)
        for t in enumerate_tables(spec):
            assert enc.decode_table(enc.encode_table(t)) == t

    def test_models_decode_to_exact_table_set(self):
        spec = ContingencyTableSpec(2, 3, (2, 2), (1, 2, 1), binary=True)
        problem, enc = encode_to_cnf(spec)
        found = set()
        for cells in range(1 << enc.num_cell_bits):
            if _check_assignment(problem.formula, enc.complete(cells)):
                found.add(enc.decode_table(cells))
        assert found == set(enumerate_tables(spec))

    # sha256 over what encode_to_cnf gives for 60 seeded random specs,
    # synth_8..synth_20, a larger integer spec and one whose marginals
    # disagree: n, num_vars, the clauses, the gates, and complete and
    # decode_table at five cell assignments each
    ENCODER_SHA256 = ("43ca6a06ce3633cc1ec1d14ad015be4d"
                      "c7af6b2b43c2165a0f56d8410760003a")

    def test_encoder_output_is_pinned(self):
        rng = random.Random(2025)
        specs = [random_table_spec(rng, max_cell_bits=24) for _ in range(60)]
        specs += [synth_spec(n) for n in range(8, 21)]
        specs.append(ContingencyTableSpec(3, 3, (5, 6, 7), (6, 6, 6),
                                          structural_zeros={(0, 2)}))
        with pytest.warns(UserWarning):
            specs.append(ContingencyTableSpec(2, 2, (1, 0), (0, 0)))
        digest = hashlib.sha256()
        for spec in specs:
            problem, enc = encode_to_cnf(spec)
            cells = [0, (1 << enc.num_cell_bits) - 1] + [
                rng.getrandbits(enc.num_cell_bits) for _ in range(3)]
            digest.update(repr((
                problem.n, enc.num_vars, problem.formula.clauses, enc.gates,
                [enc.complete(c) for c in cells],
                [enc.decode_table(c) for c in cells])).encode())
        assert digest.hexdigest() == self.ENCODER_SHA256

    def test_cell_bits_precede_auxiliaries(self):
        spec = synth_spec(5)
        problem, enc = encode_to_cnf(spec)
        assert problem.n == enc.num_cell_bits
        assert enc.num_vars >= enc.num_cell_bits
        flat = [v for i in range(5) for j in range(5)
                for v in enc.cell_bits(i, j)]
        assert sorted(flat) == list(range(1, enc.num_cell_bits + 1))


class TestHashOverCells:
    def test_rows_span_cell_bits_only(self):
        spec = synth_spec(6)
        problem, enc = encode_to_cnf(spec)
        h = hash_over_cells(problem, 5, 0.5, seed=3)
        assert h.n == enc.num_cell_bits
        assert all(row < (1 << enc.num_cell_bits) for row in h.rows)

    def test_df_shape_gives_204_columns(self):
        # 12 x 17 binary spec: one bit per cell
        spec = ContingencyTableSpec(12, 17, (17,) * 12, (12,) * 17, binary=True)
        problem, enc = encode_to_cnf(spec)
        assert enc.num_cell_bits == 204
        h = hash_over_cells(problem, 10, 0.18, seed=0)
        assert h.n == 204

    def test_pipeline_on_synth_8(self):
        # survival estimates over the explicit 50-table set certify a lower
        # bound near log2(50) at moderate density
        from xorcount.bounds import best_lower_bound
        problem = explicit_problem(synth_spec(8))
        assert sum(map(len, problem._blocks)) == 50
        cert = best_lower_bound(problem, f=0.3, m_range=range(3, 7), T=60,
                                kappa=1.0, seed=5)
        assert cert.issued
        assert cert.bound_log2 <= math.log2(50)
        assert cert.bound_log2 >= 3.0


class TestSpecFiles:
    def test_round_trip(self):
        spec = ContingencyTableSpec(2, 3, (2, 2), (1, 2, 1), binary=True,
                                    structural_zeros=frozenset({(1, 2)}))
        assert parse_table_spec(format_table_spec(spec)) == spec

    def test_parse_with_comments(self):
        text = "# synthetic\nrows 2 cols 2\nR: 1 1\nC: 1 1\nbinary: 1\n"
        spec = parse_table_spec(text)
        assert spec.rows == 2 and spec.binary

    def test_parse_missing_sections(self):
        with pytest.raises(ParseError, match="table spec needs"):
            parse_table_spec("rows 2 cols 2\nR: 1 1\n")

    def test_parse_unknown_line(self):
        with pytest.raises(ParseError, match="unrecognized line"):
            parse_table_spec("rows 1 cols 1\nR: 0\nC: 0\nQ: what\n")

    @pytest.mark.parametrize("key,text", [
        ("rows", "rows 2 cols 2\nR: 1 1\nC: 1 1\nrows 2 cols 2\n"),
        ("R:", "rows 2 cols 2\nR: 1 1\nC: 1 1\nR: 2 0\nC: 1 1\n"),
        ("C:", "rows 2 cols 2\nC: 1 1\nR: 1 1\nC: 2 0\n"),
        ("binary:", "rows 2 cols 2\nR: 1 1\nC: 1 1\nbinary: 1\nbinary: 0\n"),
    ], ids=["rows", "R", "C", "binary"])
    def test_repeated_line_is_refused(self, key, text):
        # a second line of the kind would silently replace the first
        repeated = [line for line in text.splitlines() if line.startswith(key)][1]
        with pytest.raises(ParseError) as exc:
            parse_table_spec(text)
        assert str(exc.value) == "bad table-spec line %r: repeated %r line" % (repeated, key)

    def test_repeated_zero_is_one_zero(self):
        text = "rows 2 cols 2\nR: 1 1\nC: 1 1\nZ: 0 0\nZ: 0 0\n"
        assert parse_table_spec(text).structural_zeros == frozenset({(0, 0)})

    @pytest.mark.parametrize("line", [
        "binary: 7", "binary: -1", "rows 1 foo 1", "rows 1 cols 1 junk",
    ])
    def test_malformed_header_or_binary_line_is_refused(self, line):
        lines = ["rows 1 cols 1", "R: 1", "C: 1"]
        if line.startswith("rows"):
            lines[0] = line
        else:
            lines.append(line)
        with pytest.raises(ParseError, match="bad table-spec line"):
            parse_table_spec("\n".join(lines) + "\n")
