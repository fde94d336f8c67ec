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

from invquot import (
    NoPositiveWeightsError,
    SingularMatrixError,
    det,
    smith_normal_form,
    solve_positive_weights,
    splitting_coefficients,
)

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


class TestSmithNormalForm:
    def test_pentagon_matrix_invariants(self):
        snf = smith_normal_form(PENTAGON_ROWS)
        assert snf.diagonal == (1, 1, 1, 1, 33)
        assert tuple(d for d in snf.diagonal if d > 1) == (33,)

    def test_reconstruction_and_unimodularity_random(self):
        rng = random.Random(20260819)
        for _ in range(120):
            rows = rng.randint(1, 5)
            cols = rng.randint(1, 5)
            m = random_matrix(rng, rows, cols)
            snf = smith_normal_form(m)
            assert matmul(matmul(snf.U, m), snf.V) == snf.D
            assert is_unimodular(snf.U)
            assert is_unimodular(snf.V)
            diag = list(snf.diagonal)
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
            assert list(smith_normal_form(m).diagonal) == sympy_diagonal(m)

    @given(
        st.lists(
            st.lists(st.integers(-9, 9), min_size=1, max_size=4),
            min_size=1,
            max_size=4,
        ).filter(lambda rows: len({len(r) for r in rows}) == 1)
    )
    @settings(max_examples=150, derandomize=True)
    def test_reconstruction_property(self, rows):
        snf = smith_normal_form(rows)
        assert matmul(matmul(snf.U, rows), snf.V) == snf.D
        assert abs(det(snf.U)) == 1
        assert abs(det(snf.V)) == 1

    def test_off_diagonal_zero(self):
        rng = random.Random(5)
        for _ in range(40):
            m = random_matrix(rng, rng.randint(1, 4), rng.randint(1, 4))
            d = smith_normal_form(m).D
            for i, row in enumerate(d):
                for j, x in enumerate(row):
                    if i != j:
                        assert x == 0


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
