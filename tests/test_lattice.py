"""Smith normal form and weight solving, cross-checked against sympy and
brute-force lattice enumeration."""

import random
from collections import Counter
from fractions import Fraction
from math import gcd, lcm

import pytest
import sympy
from hypothesis import given, settings, strategies as st
from sympy.matrices.normalforms import smith_normal_form as sympy_snf

from test_search import LADDER, QUARTICS

from invquot import (
    GcdNotOneError,
    LatticeInvariantError,
    NoPositiveWeightsError,
    SingularMatrixError,
    det,
    parse,
    smith_normal_form,
    solve_positive_weights,
    splitting_coefficients,
)
from invquot.lattice import _cramer
from invquot.presets import PRESETS

PENTAGON_ROWS = [
    [2, 1, 0, 0, 0],
    [0, 2, 1, 0, 0],
    [0, 0, 2, 1, 0],
    [0, 0, 0, 2, 1],
    [1, 0, 0, 0, 2],
]


def random_matrix(rng, rows, cols, bound=5):
    return tuple(
        tuple(rng.randint(-bound, bound) for _ in range(cols)) for _ in range(rows)
    )


def matmul(a, b):
    """The product of two matrices given as rows, as a tuple of row tuples."""
    return tuple(tuple(sum(x * y for x, y in zip(row, col)) for col in zip(*b)) for row in a)


def is_unimodular(m) -> bool:
    return all(len(row) == len(m) for row in m) and abs(det(m)) == 1


def sympy_diagonal(m):
    d = sympy_snf(sympy.Matrix(m))
    out = [abs(int(d[i, i])) for i in range(min(d.rows, d.cols))]
    # sympy trims trailing zero columns for some shapes; normalize by padding
    out += [0] * (min(len(m), len(m[0])) - len(out))
    return out


def check_smith_form(m, diagonal, v):
    """The Smith form (diagonal, V) of m, checked without a row transform:
    V is unimodular; column j of M V is zero where d_j = 0 or j >= min(rows,
    cols), and divisible by d_j elsewhere; and the quotient columns, (M V)_j /
    d_j for those j, have every invariant factor 1 (sympy), so they extend
    to a unimodular W, and U = W^-1 gives U M V = D."""
    rows, cols = len(m), len(m[0])
    assert len(diagonal) == min(rows, cols)
    assert is_unimodular(v) and len(v) == cols
    mv_columns = list(zip(*matmul(m, v)))
    quotient = []
    for j, column in enumerate(mv_columns):
        d = diagonal[j] if j < len(diagonal) else 0
        if d == 0:
            assert not any(column)
        else:
            assert all(x % d == 0 for x in column)
            quotient.append([x // d for x in column])
    if quotient:
        assert sympy_diagonal(list(zip(*quotient))) == [1] * len(quotient)


class TestSmithNormalForm:
    def test_pentagon_matrix_invariants(self):
        diagonal, _ = smith_normal_form(PENTAGON_ROWS)
        assert diagonal == (1, 1, 1, 1, 33)
        assert tuple(d for d in diagonal if d > 1) == (33,)

    def test_reconstruction_and_unimodularity_random(self):
        rng = random.Random(20260819)
        for _ in range(120):
            rows = rng.randint(1, 5)
            cols = rng.randint(1, 5)
            m = random_matrix(rng, rows, cols)
            diagonal, v = smith_normal_form(m)
            check_smith_form(m, diagonal, v)
            diag = list(diagonal)
            for x, y in zip(diag, diag[1:]):
                assert x >= 0 and y >= 0
                if x == 0:
                    assert y == 0
                else:
                    assert y % x == 0

    def test_matches_sympy_random(self):
        rng = random.Random(77)
        for _ in range(120):
            rows = rng.randint(1, 6)
            cols = rng.randint(1, 6)
            m = random_matrix(rng, rows, cols)
            assert list(smith_normal_form(m)[0]) == sympy_diagonal(m)

    @given(
        st.lists(
            st.lists(st.integers(-9, 9), min_size=1, max_size=4),
            min_size=1,
            max_size=4,
        ).filter(lambda rows: len({len(r) for r in rows}) == 1)
    )
    @settings(max_examples=150, derandomize=True)
    def test_reconstruction_property(self, rows):
        check_smith_form(rows, *smith_normal_form(rows))

    def test_off_diagonal_zero(self):
        # column j of M V is d_j times a column of a unimodular matrix, so
        # U M V is diagonal for U its inverse
        rng = random.Random(5)
        for _ in range(40):
            m = random_matrix(rng, rng.randint(1, 4), rng.randint(1, 4))
            check_smith_form(m, *smith_normal_form(m))

    def test_rejects_non_integer_entries(self):
        for rows in ([[2.5, 1], [1, 2]], [[True, 0], [0, 1]], [[Fraction(1), 2]]):
            with pytest.raises(ValueError, match="^matrix entries must be integers$"):
                smith_normal_form(rows)


class TestDeterminant:
    def test_matches_sympy(self):
        rng = random.Random(11)
        for _ in range(100):
            n = rng.randint(1, 5)
            m = random_matrix(rng, n, n)
            assert det(m) == int(sympy.Matrix(m).det())

    def test_pentagon(self):
        assert det(PENTAGON_ROWS) == 33

    def test_rejects_non_square_and_ragged(self):
        with pytest.raises(ValueError, match="square"):
            det([[1, 2]])
        with pytest.raises(ValueError, match="ragged"):
            smith_normal_form([[1, 2], [3]])

    def test_rejects_non_integer_entries(self):
        for rows in ([[1.5, 2], [3, 5]], [[True, 2], [3, 5]], [[Fraction(3, 2)]]):
            with pytest.raises(ValueError, match="^matrix entries must be integers$"):
                det(rows)


class TestPositiveWeights:
    def test_pentagon_weights(self):
        q, d = solve_positive_weights(PENTAGON_ROWS)
        assert q == (1, 1, 1, 1, 1)
        assert d == 3

    def test_weights_satisfy_system(self):
        rng = random.Random(9)
        found = 0
        while found < 30:
            n = rng.randint(2, 4)
            rows = []
            for i in range(n):
                row = [0] * n
                row[i] = rng.randint(2, 5)
                row[(i + 1) % n] = 1
                rows.append(row)
            if det(rows) == 0:
                continue
            try:
                q, d = solve_positive_weights(rows)
            except NoPositiveWeightsError:
                continue
            found += 1
            assert all(x > 0 for x in q)
            assert gcd(*q) if len(q) > 1 else q[0] == 1
            for row in rows:
                assert sum(a * x for a, x in zip(row, q)) == d

    def test_matches_sympy_random(self):
        # the primitive positive ray of sympy's exact solution of A x = 1, or
        # the error a rational solve of A x = 1 gives
        rng = random.Random(20261018)
        outcomes = Counter()
        for _ in range(300):
            n = rng.randint(1, 6)
            m = [[rng.choice((-1, 0, 0, 1, 2, 3)) for _ in range(n)] for _ in range(n)]
            a = sympy.Matrix(m)
            det_a = a.det()
            if det_a == 0:
                expected = (SingularMatrixError, "exponent matrix is singular over the rationals")
            else:
                x = [Fraction(int(v.p), int(v.q)) for v in a.LUsolve(sympy.ones(n, 1))]
                if any(v <= 0 for v in x):
                    expected = (NoPositiveWeightsError, f"rational weights {x} are not all positive")
                else:
                    scale = lcm(*(v.denominator for v in x))
                    ints = [int(v * scale) for v in x]
                    q = tuple(v // gcd(*ints) for v in ints)
                    (d,) = set(a * sympy.Matrix(q))
                    expected = (q, int(d))
            try:
                got = solve_positive_weights(m)
            except (SingularMatrixError, NoPositiveWeightsError) as exc:
                got = (type(exc), str(exc))
            assert got == expected
            kind = expected[0] if isinstance(expected[0], type) else "weights"
            outcomes[kind, det_a < 0] += 1
        # every outcome occurs, the weights on both determinant signs
        assert outcomes[SingularMatrixError, False] > 0
        assert outcomes[NoPositiveWeightsError, False] > 0
        assert outcomes["weights", False] > 0
        assert outcomes["weights", True] > 0

    def test_no_positive_solution(self):
        # x1*x2^3 and x1*x2: nonsingular, but q1 + 3 q2 = q1 + q2 forces
        # q2 = 0, so the rational weights are (1, 0) and none is positive
        with pytest.raises(NoPositiveWeightsError):
            solve_positive_weights([[1, 3], [1, 1]])


def bareiss_det(rows):
    """det of a square integer matrix by forward fraction-free (Bareiss)
    elimination, which shares no code with lattice._cramer."""
    if not all(type(x) is int for row in rows for x in row):
        raise ValueError("matrix entries must be integers")
    n = len(rows)
    m = [list(row) for row in rows]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            pivot_row = next((i for i in range(k + 1, n) if m[i][k] != 0), None)
            if pivot_row is None:
                return 0
            m[k], m[pivot_row] = m[pivot_row], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = m[k][k]
    return sign * m[n - 1][n - 1] if n else 1


def cramer_on_det(matrix):
    """The weight solve by Cramer's rule on n + 1 determinants, det A and
    each det A_j, by bareiss_det: the reference for the one-pass elimination."""
    n = len(matrix)
    if any(len(row) != n for row in matrix):
        raise SingularMatrixError("weight system needs a square matrix")
    full = bareiss_det(matrix)
    if full == 0:
        raise SingularMatrixError("exponent matrix is singular over the rationals")
    cramer = [bareiss_det([[*row[:j], 1, *row[j + 1:]] for row in matrix]) for j in range(n)]
    if any(c * full <= 0 for c in cramer):
        weights = [Fraction(c, full) for c in cramer]
        raise NoPositiveWeightsError(f"rational weights {weights} are not all positive")
    g = gcd(*cramer)
    q = tuple(abs(c) // g for c in cramer)
    return q, sum(matrix[0][j] * q[j] for j in range(n))


def _outcome(solve, matrix):
    """solve(matrix), or the type and message of the error it raises."""
    try:
        return solve(matrix)
    except (ValueError, LatticeInvariantError) as exc:
        return type(exc), str(exc)


# both presets and the 16 cubic and 16 quartic atomic sums
WEIGHT_INPUTS = {
    **PRESETS,
    **LADDER,
    **{f"quartic-{name}": poly for name, poly in QUARTICS.items()},
}


class TestOnePassWeights:
    """solve_positive_weights reads det A and every Cramer numerator off one
    fraction-free Gauss-Jordan pass over [A | 1]; cramer_on_det takes n + 1
    determinants."""

    @pytest.mark.parametrize("name", list(WEIGHT_INPUTS))
    def test_matches_cramer_on_det(self, name):
        matrix = parse(WEIGHT_INPUTS[name]).matrix
        q, d = solve_positive_weights(matrix)
        assert (q, d) == cramer_on_det(matrix)
        assert d == (4 if name.startswith("quartic-") else 3)

    def test_random_matrices(self):
        # zero leading pivots, both determinant signs, singular matrices and
        # weight systems with a zero or negative rational weight
        rng = random.Random(20261020)
        seen = Counter()
        for _ in range(1500):
            n = rng.randint(1, 6)
            m = [[rng.choice((-2, -1, 0, 0, 0, 1, 2, 3)) for _ in range(n)] for _ in range(n)]
            expected = _outcome(cramer_on_det, m)
            assert _outcome(solve_positive_weights, m) == expected
            full = bareiss_det(m)
            numerators = [bareiss_det([[*r[:j], 1, *r[j + 1:]] for r in m]) for j in range(n)]
            assert _cramer(m) == (full, numerators if full else [])
            assert det(m) == full
            # a zero leading principal minor of a nonsingular matrix is a
            # zero pivot that only a row swap gets past
            if full and any(bareiss_det([r[:k] for r in m[:k]]) == 0 for k in range(1, n)):
                seen["row swap"] += 1
            seen[full < 0, expected[0] if isinstance(expected[0], type) else "weights"] += 1
        assert seen["row swap"] >= 100
        for sign in (False, True):
            assert seen[sign, NoPositiveWeightsError] >= 100
            assert seen[sign, "weights"] >= 20
        assert seen[False, SingularMatrixError] >= 100

    @pytest.mark.parametrize(
        "matrix",
        [
            [],
            [[1, 2]],
            [[1, 2], [3]],
            [[1.5, 2], [3, 5]],
            [[True, 2], [3, 5]],
            [[Fraction(3, 2)]],
            [[0, 1], [1, 0]],
            [[0, 2, 1], [1, 0, 2], [2, 1, 0]],
            [[1, 1, 0], [1, 1, 1], [0, 1, 1]],
            [[1, 3], [1, 1]],
            [[2, 4], [1, 2]],
        ],
        ids=[
            "empty", "not-square", "ragged", "float", "bool", "fraction",
            "swap-negative", "swap-first", "swap-second", "zero-weight", "singular",
        ],
    )
    def test_edge_cases(self, matrix):
        assert _outcome(solve_positive_weights, matrix) == _outcome(cramer_on_det, matrix)


class TestSplittingCoefficients:
    def test_pentagon_split(self):
        assert splitting_coefficients((1, 1, 1, 1, 1)) == (1, 0, 0, 0, 0)

    def test_bezout_identity(self):
        rng = random.Random(21)
        for _ in range(80):
            n = rng.randint(1, 5)
            q = [rng.randint(1, 9) for _ in range(n)]
            g = gcd(*q) if n > 1 else q[0]
            q = [x // g for x in q]
            if (gcd(*q) if n > 1 else q[0]) != 1:
                continue
            c = splitting_coefficients(tuple(q))
            assert sum(a * b for a, b in zip(c, q)) == 1

    def test_small_shift(self):
        # coefficients should stay small; the greedy reduction keeps them
        # within the lattice fundamental domain
        c = splitting_coefficients((2, 3))
        assert sum(a * b for a, b in zip(c, (2, 3))) == 1
        assert max(abs(x) for x in c) <= 3

    def test_rejects_non_integer_weights(self):
        for q in ((2.7, 3), (True, 2), (Fraction(1), 2), (2, 3.0)):
            with pytest.raises(GcdNotOneError, match="^weights must be positive integers$"):
                splitting_coefficients(q)
