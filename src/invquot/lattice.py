"""Exact integer matrix kernel: determinant, Smith normal form, weight systems,
splitting coefficients.

A matrix is a sequence of rows, each a sequence of Python integers; results
come back as tuples of row tuples. Everything here runs on arbitrary-precision
integers and no step solves over the rationals: weights come from Cramer's
rule on Bareiss determinants. Floating point is never used; fractions.Fraction
appears only in the text of the NoPositiveWeightsError message, and is
imported there.
"""

from __future__ import annotations

from math import gcd

from .errors import (
    GcdNotOneError,
    LatticeInvariantError,
    NoPositiveWeightsError,
    SingularMatrixError,
)
from .record import FrozenRecord


def det(rows) -> int:
    """Exact determinant of a square matrix by fraction-free Bareiss elimination.

    >>> det([[2, 1, 0], [0, 2, 1], [1, 0, 2]])
    9
    >>> det([])
    1
    """
    n = len(rows)
    if any(len(row) != n for row in rows):
        raise ValueError("determinant needs a square matrix")
    if n == 0:
        return 1
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
    return sign * m[n - 1][n - 1]


class SnfDecomposition(FrozenRecord):
    """U @ M @ V = D with U, V unimodular and D diagonal, d1 | d2 | ... , di >= 0;
    each a tuple of row tuples."""

    _fields = ("U", "D", "V")

    @property
    def diagonal(self) -> tuple[int, ...]:
        d = self.D
        return tuple(d[i][i] for i in range(min(len(d), len(d[0]) if d else 0)))


def _pivot(m, k, rows, cols):
    """Smallest nonzero |entry| in the trailing block, ties by (row, col)."""
    best = None
    for i in range(k, rows):
        mi = m[i]
        for j in range(k, cols):
            v = mi[j]
            if v:
                key = (abs(v), i, j)
                if best is None or key < best[0]:
                    best = (key, i, j)
    return (best[1], best[2]) if best else None


def smith_normal_form(matrix) -> SnfDecomposition:
    """Diagonalize an integer matrix by unimodular row and column operations.

    Pivoting is deterministic: the entry of minimal nonzero absolute value,
    ties broken by (row, col). Works for rectangular matrices.

    >>> snf = smith_normal_form([[2, 0], [0, 4]])
    >>> snf.diagonal
    (2, 4)
    """
    m = [list(r) for r in matrix]
    rows, cols = len(m), len(m[0]) if m else 0
    if any(len(r) != cols for r in m):
        raise ValueError("ragged rows")
    u = [[int(i == j) for j in range(rows)] for i in range(rows)]
    v = [[int(i == j) for j in range(cols)] for i in range(cols)]

    def swap_rows(a, b):
        m[a], m[b] = m[b], m[a]
        u[a], u[b] = u[b], u[a]

    def swap_cols(a, b):
        for r in m:
            r[a], r[b] = r[b], r[a]
        for r in v:
            r[a], r[b] = r[b], r[a]

    def add_row(dst, src, c):
        # row_dst += c * row_src, applied to m and u alike
        mdst, msrc = m[dst], m[src]
        for j in range(cols):
            mdst[j] += c * msrc[j]
        udst, usrc = u[dst], u[src]
        for j in range(rows):
            udst[j] += c * usrc[j]

    def add_col(dst, src, c):
        for r in m:
            r[dst] += c * r[src]
        for r in v:
            r[dst] += c * r[src]

    for k in range(min(rows, cols)):
        while True:
            pos = _pivot(m, k, rows, cols)
            if pos is None:
                break
            swap_rows(k, pos[0])
            swap_cols(k, pos[1])
            pivot = m[k][k]
            dirty = False
            for i in range(k + 1, rows):
                if m[i][k]:
                    q = m[i][k] // pivot
                    if q:
                        add_row(i, k, -q)
                    if m[i][k]:
                        dirty = True
            for j in range(k + 1, cols):
                if m[k][j]:
                    q = m[k][j] // pivot
                    if q:
                        add_col(j, k, -q)
                    if m[k][j]:
                        dirty = True
            if dirty:
                continue
            # row and column are clear; force the divisibility chain
            stray = None
            for i in range(k + 1, rows):
                mi = m[i]
                for j in range(k + 1, cols):
                    if mi[j] % pivot:
                        stray = i
                        break
                if stray is not None:
                    break
            if stray is None:
                break
            add_row(k, stray, 1)
        if k < min(rows, cols) and m[k][k] < 0:
            for j in range(cols):
                m[k][j] = -m[k][j]
            for j in range(rows):
                u[k][j] = -u[k][j]

    return SnfDecomposition(
        U=tuple(map(tuple, u)), D=tuple(map(tuple, m)), V=tuple(map(tuple, v))
    )


def solve_positive_weights(matrix) -> tuple[tuple[int, ...], int]:
    """Primitive positive integer weights q and degree d with matrix @ q = d (1,...,1).

    By Cramer's rule the unique rational solution of A x = (1,...,1) is
    x_j = det(A_j) / det(A), where A_j is A with column j replaced by ones;
    every determinant is an exact Bareiss integer. The weights are positive
    exactly when each det(A_j) has the sign of det(A), and q is then the
    vector of |det(A_j)| divided by their gcd. Raises SingularMatrixError when
    det(A) = 0 and NoPositiveWeightsError when some rational weight is zero or
    negative.

    >>> solve_positive_weights([[1, 2], [2, 1]])
    ((1, 1), 3)
    """
    n = len(matrix)
    if any(len(row) != n for row in matrix):
        raise SingularMatrixError("weight system needs a square matrix")
    full = det(matrix)
    if full == 0:
        raise SingularMatrixError("exponent matrix is singular over the rationals")
    cramer = [det([[*row[:j], 1, *row[j + 1:]] for row in matrix]) for j in range(n)]
    if any(c * full <= 0 for c in cramer):
        from fractions import Fraction

        weights = [Fraction(c, full) for c in cramer]
        raise NoPositiveWeightsError(f"rational weights {weights} are not all positive")
    g = gcd(*cramer)
    q = tuple(abs(c) // g for c in cramer)
    d = sum(matrix[0][j] * q[j] for j in range(n))
    if any(sum(a * x for a, x in zip(row, q)) != d for row in matrix):
        raise LatticeInvariantError(f"weights {q} do not give every monomial degree {d}")
    return q, d


def _best_shift(b: list[int], w: tuple[int, ...]) -> tuple[int, int]:
    """Integer t minimizing max_i |b_i - t w_i| (convex in t), and that minimum."""

    def norm(t: int) -> int:
        return max(abs(x - t * y) for x, y in zip(b, w))

    # each ratio x / y truncated toward zero, as int(Fraction(x, y)) is
    ratios = [abs(x) // abs(y) * (-1 if (x < 0) != (y < 0) else 1) for x, y in zip(b, w) if y]
    lo = min(ratios) - 2
    hi = max(ratios) + 2
    while hi - lo > 2:
        m1 = lo + (hi - lo) // 3
        m2 = hi - (hi - lo) // 3
        if norm(m1) < norm(m2) or (norm(m1) == norm(m2) and abs(m1) <= abs(m2)):
            hi = m2
        else:
            lo = m1
    best_t = min(range(lo, hi + 1), key=lambda t: (norm(t), abs(t), t))
    return best_t, norm(best_t)


def splitting_coefficients(q: tuple[int, ...]) -> tuple[int, ...]:
    """Integer vector b with sum(b_i q_i) = 1, reduced to small coefficients.

    The base solution comes from the Smith form of the 1 x n matrix (q); the
    kernel columns of V then shrink b by a greedy max-norm descent with a
    deterministic tie-break (only strict improvements are applied).

    >>> splitting_coefficients((1, 1, 1, 1, 1))
    (1, 0, 0, 0, 0)
    >>> splitting_coefficients((2, 3))
    (-1, 1)
    """
    q = tuple(int(x) for x in q)
    if not q or any(x <= 0 for x in q):
        raise GcdNotOneError("weights must be positive integers")
    snf = smith_normal_form([q])
    if snf.D[0][0] != 1:
        raise GcdNotOneError(f"gcd of weights is {snf.D[0][0]}, expected 1")
    sign = snf.U[0][0]
    first, *kernel = zip(*snf.V)
    b = [sign * x for x in first]
    improved = True
    while improved:
        improved = False
        cur = max(abs(x) for x in b)
        for w in kernel:
            t, new_norm = _best_shift(b, w)
            if t and new_norm < cur:
                b = [x - t * y for x, y in zip(b, w)]
                cur = new_norm
                improved = True
    if sum(x * y for x, y in zip(b, q)) != 1:
        raise LatticeInvariantError(
            f"splitting coefficients {tuple(b)} do not pair to 1 with {q}"
        )
    return tuple(b)
