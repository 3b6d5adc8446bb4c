import os
import random
import re
import subprocess
import sys
import textwrap
from fractions import Fraction
from pathlib import Path

import pytest

import xorcount

# Fake solvers run `python -m xorcount.cli solve` in a child process; let the
# child import the package under test however pytest itself found it.
os.environ["PYTHONPATH"] = os.pathsep.join(
    p for p in (str(Path(xorcount.__file__).resolve().parents[1]),
                os.environ.get("PYTHONPATH")) if p)

# one "criterion N <label> PASS|FAIL" line per acceptance test, printed in
# the terminal summary so capture modes cannot swallow them
ACCEPTANCE_LINES = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)

from xorcount.errors import CapacityError, DimensionError, ParameterError
from xorcount.gf2hash import Assignment, ParityHash
from xorcount.oracle import CountingProblem, SolverProfile

# Reference oracles that tests compare the package against: plain loops and
# exact rationals, kept apart from the code they check.

# enumeration ceiling for the exact brute-force oracle: 2^(m*n+m) hash draws
EXACT_ENUM_BITS = 24


def apply_hash(h: ParityHash, x: Assignment) -> int:
    """h(x) = Ax + b mod 2, packed into an int (bit i = output i)."""
    if x.n != h.n:
        raise DimensionError("assignment width %d != hash width %d" % (x.n, h.n))
    out = h.b_bits
    for i, row in enumerate(h.rows):
        out ^= ((row & x.bits).bit_count() & 1) << i
    return out


def count_survivors(h: ParityHash, s) -> int:
    """|S ∩ h^-1(0)| for an explicit iterable of Assignments."""
    return sum(1 for x in s if apply_hash(h, x) == 0)


def _as_exact_fraction(f: float) -> Fraction:
    frac = Fraction(f)  # exact for any binary64
    if frac.denominator > (1 << 20):
        # need a short significand so the per-matrix weights stay small
        raise ParameterError(
            "f=%r needs more than 20 significand bits; pick a coarser grid value" % (f,)
        )
    return frac


def exact_survival_probability(s, m: int, f: float) -> Fraction:
    """Exact Pr[S(h) >= 1] by summing over every (A, b) pair.

    Uses the identity S(h_{A,b}) >= 1  <=>  b in {Ax : x in S}, so only the
    2^(m n) matrices are enumerated and each contributes |image|/2^m.  All
    weights are exact rationals; requires m*n + m <= EXACT_ENUM_BITS.
    """
    xs = list(s)
    if not xs:
        return Fraction(0)
    n = xs[0].n
    if any(x.n != n for x in xs):
        raise DimensionError("mixed assignment widths in S")
    if m * n + m > EXACT_ENUM_BITS:
        raise CapacityError(
            "m*n+m = %d exceeds the enumeration cap %d" % (m * n + m, EXACT_ENUM_BITS)
        )
    frac = _as_exact_fraction(f)
    p, den = frac.numerator, frac.denominator  # f = p / den, den = 2^s
    q = den - p
    mn = m * n
    xbits = [x.bits for x in xs]
    # numerator accumulated over matrices: p^ones * q^(mn-ones) * |image|
    pow_p = [p**k for k in range(mn + 1)]
    pow_q = [q**k for k in range(mn + 1)]
    acc = 0
    for amat in range(1 << mn):
        ones = amat.bit_count()
        rows = [(amat >> (i * n)) & ((1 << n) - 1) for i in range(m)]
        image = set()
        for xb in xbits:
            y = 0
            for i, row in enumerate(rows):
                y |= ((row & xb).bit_count() & 1) << i
            image.add(y)
        acc += pow_p[ones] * pow_q[mn - ones] * len(image)
    return Fraction(acc, den**mn * (1 << m))


def transpose(spec):
    """The contingency-table spec with rows and columns swapped."""
    from xorcount.tables import ContingencyTableSpec

    return ContingencyTableSpec(
        spec.cols, spec.rows, spec.col_marginals, spec.row_marginals,
        spec.binary, frozenset((j, i) for i, j in spec.structural_zeros),
    )


def exact_epsilon(n, m, q, f):
    """Independent exact-rational evaluation of the collision bound.

    Only valid when f is an exact Fraction (or dyadic float); kept free of
    any log-domain code so it can serve as an oracle for comb.epsilon.
    """
    f = Fraction(f)
    half = Fraction(1, 2)
    target = q - 1
    prefix = 0
    binom = 1
    w = 0
    total = Fraction(0)
    while w < n:
        nxt = binom * (n - w) // (w + 1)
        if prefix + nxt > target:
            break
        binom = nxt
        prefix += binom
        w += 1
        total += binom * (half + half * (1 - 2 * f) ** w) ** m
    r = target - prefix
    if r > 0:
        total += r * (half + half * (1 - 2 * f) ** (w + 1)) ** m
    return total / target


def random_subset_problem(rng, n, size):
    members = [Assignment(b, n) for b in rng.sample(range(1 << n), size)]
    return CountingProblem.from_explicit(members, n)


def child(args, **env):
    """Run `python <args>` with env overlaid on this process's environment,
    minus OPENBLAS_NUM_THREADS; return the completed process."""
    base = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    return subprocess.run([sys.executable] + args, env=dict(base, **env),
                          capture_output=True, text=True, timeout=60)


def sweep_untimed(stdout):
    """The lines of stdout without the wall times `sweep` prints: "(0.72s)"
    on its summary lines, and the wall_time_s field of its CSV rows."""
    stdout = re.sub(r"\(\d+\.\d+s\)", "(s)", stdout)
    return re.sub(r"^((?:[^,\n]*,){3})\d+\.\d+,", r"\1,", stdout, flags=re.M).splitlines()


@pytest.fixture
def exhaustive_solver(tmp_path):
    """External-solver profile backed by this package's own debug solver."""
    return SolverProfile("%s -m xorcount.cli solve {in}" % sys.executable)


@pytest.fixture
def lying_solver(tmp_path):
    """A solver that claims SAT with an all-false model, whatever the input."""
    script = tmp_path / "liar.py"
    script.write_text(textwrap.dedent("""\
        import sys
        nv = 1
        for line in open(sys.argv[1]):
            if line.startswith('p cnf'):
                nv = int(line.split()[2])
        print('s SATISFIABLE')
        print('v ' + ' '.join(str(-v) for v in range(1, nv + 1)) + ' 0')
    """))
    return SolverProfile("%s %s {in}" % (sys.executable, script))


@pytest.fixture
def no_model_solver(tmp_path):
    """A solver that claims SAT and prints no v line, whatever the input."""
    script = tmp_path / "no_model.py"
    script.write_text("print('s SATISFIABLE')\n")
    return SolverProfile("%s %s {in}" % (sys.executable, script))


@pytest.fixture
def bad_model_solver(tmp_path):
    """A solver that claims SAT with a non-integer token in its v line."""
    script = tmp_path / "bad_model.py"
    script.write_text(textwrap.dedent("""\
        import sys
        print('s SATISFIABLE')
        print('v 1 x 0')
        print('model garbled', file=sys.stderr)
    """))
    return SolverProfile("%s %s {in}" % (sys.executable, script))


@pytest.fixture
def sleepy_solver(tmp_path):
    script = tmp_path / "sleepy.py"
    script.write_text("import time\ntime.sleep(30)\n")
    return SolverProfile("%s %s {in}" % (sys.executable, script), budget_s=0.3)


def random_table_spec(rng, max_cell_bits=10):
    """Random small contingency spec whose encoding stays under the bit cap."""
    from xorcount.tables import ContingencyTableSpec

    while True:
        r = rng.randint(1, 3)
        c = rng.randint(1, 3)
        binary = rng.random() < 0.5
        table = [[rng.randint(0, 1 if binary else 3) for _ in range(c)]
                 for _ in range(r)]
        zeros = set()
        for i in range(r):
            for j in range(c):
                if rng.random() < 0.15:
                    table[i][j] = 0
                    zeros.add((i, j))
        rmarg = tuple(sum(row) for row in table)
        cmarg = tuple(sum(table[i][j] for i in range(r)) for j in range(c))
        spec = ContingencyTableSpec(r, c, rmarg, cmarg, binary, frozenset(zeros))
        bits = sum(
            max(1, spec.cell_max(i, j).bit_length()) if spec.cell_max(i, j) else 0
            for i in range(r) for j in range(c)
        )
        if 0 < bits <= max_cell_bits:
            return spec
