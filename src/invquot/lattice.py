"""Exact integer matrix kernel: determinant, Smith normal form, weight systems,
splitting coefficients.

A matrix is a sequence of rows, each a sequence of Python ints (type exactly
`int`; `det` and `smith_normal_form` raise ValueError on any other entry).
The Smith form returns the invariant factors and the column transform V, as
a tuple and a tuple of row tuples; the row transform is not kept, since no
caller reads it. Everything here runs on arbitrary-precision integers and no
step solves over the rationals: the weights are the Cramer numerators that one
fraction-free Gauss-Jordan pass over [A | 1] leaves in its last column.
Floating point is never used; fractions.Fraction appears only in the text of
the NoPositiveWeightsError message, and is imported there.
"""

from __future__ import annotations

from math import gcd

from .errors import (
    GcdNotOneError,
    LatticeInvariantError,
    NoPositiveWeightsError,
    SingularMatrixError,
)


def det(rows) -> int:
    """Exact determinant of a square matrix: the last pivot of _cramer's
    fraction-free elimination.

    >>> det([[2, 1, 0], [0, 2, 1], [1, 0, 2]])
    9
    >>> det([])
    1
    """
    n = len(rows)
    if any(len(row) != n for row in rows):
        raise ValueError("determinant needs a square matrix")
    return _cramer(rows)[0]


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


def smith_normal_form(matrix) -> tuple[tuple[int, ...], tuple[tuple[int, ...], ...]]:
    """Invariant factors and column transform (diagonal, V) of an integer matrix.

    The diagonal d_1 | d_2 | ..., all >= 0, has one entry per min(rows, cols).
    V is unimodular, and column j of M V is d_j times column j of some
    unimodular matrix (the inverse of the row transform, which is not kept),
    so it is zero where d_j = 0 or j >= min(rows, cols). Pivoting is
    deterministic: the entry of minimal nonzero absolute value, ties broken
    by (row, col). Works for rectangular matrices.

    >>> smith_normal_form([[2, 0], [0, 4]])
    ((2, 4), ((1, 0), (0, 1)))
    """
    m = [list(r) for r in matrix]
    rows, cols = len(m), len(m[0]) if m else 0
    if any(len(r) != cols for r in m):
        raise ValueError("ragged rows")
    if not all(type(x) is int for r in m for x in r):
        raise ValueError("matrix entries must be integers")
    v = [[int(i == j) for j in range(cols)] for i in range(cols)]

    # a column operation acts on m and v alike; a row operation on m alone
    def swap_cols(a, b):
        for r in (*m, *v):
            r[a], r[b] = r[b], r[a]

    def add_col(dst, src, c):
        for r in (*m, *v):
            r[dst] += c * r[src]

    size = min(rows, cols)
    for k in range(size):
        while True:
            pos = _pivot(m, k, rows, cols)
            if pos is None:
                break
            m[k], m[pos[0]] = m[pos[0]], m[k]
            swap_cols(k, pos[1])
            pivot = m[k][k]
            dirty = False
            for i in range(k + 1, rows):
                if m[i][k]:
                    q = m[i][k] // pivot
                    if q:
                        m[i] = [x - q * y for x, y in zip(m[i], m[k])]
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
            # row and column are clear; force the divisibility chain, which a
            # unit pivot meets
            stray = abs(pivot) > 1 and next(
                (i for i in range(k + 1, rows) if any(x % pivot for x in m[i][k + 1:])), None
            )
            if not stray:
                break
            m[k] = [x + y for x, y in zip(m[k], m[stray])]

    return tuple(abs(m[k][k]) for k in range(size)), tuple(map(tuple, v))


def _cramer(rows) -> tuple[int, list[int]]:
    """det A and the Cramer numerators det A_1, ..., det A_n of a square
    integer matrix A, A_j being A with column j replaced by ones; the
    numerators are [] when det A = 0.

    One fraction-free Gauss-Jordan pass over [A | 1] (Bareiss, Math. Comp.
    22, 1968): step k clears column k in every other row, each entry becoming
    (p m_ij - m_ik m_kj) / p', p the pivot of step k and p' that of the step
    before, and every division is exact. After step k each entry is a minor
    of order k + 1 of the row-permuted [A | 1], so after the last step the
    pivot is det A and the last column holds the det A_j, each times the
    sign of the row swaps, which the two share (A_j's column of ones is
    permuted with its rows into a column of ones).

    >>> _cramer([[0, 1], [1, 0]])
    (-1, [-1, -1])
    """
    if not all(type(x) is int for row in rows for x in row):
        raise ValueError("matrix entries must be integers")
    m = [[*row, 1] for row in rows]
    n = len(m)
    sign = 1
    prev = 1
    for k in range(n):
        if not m[k][k]:
            pivot_row = next((i for i in range(k + 1, n) if m[i][k]), None)
            if pivot_row is None:
                return 0, []
            m[k], m[pivot_row] = m[pivot_row], m[k]
            sign = -sign
        p = m[k][k]
        tail = m[k][k + 1:]
        # columns up to k are read no more (zero but on the diagonal)
        for i, row in enumerate(m):
            if i != k:
                f = row[k]
                row[k + 1:] = [(p * x - f * y) // prev for x, y in zip(row[k + 1:], tail)]
        prev = p
    return sign * prev, [sign * row[n] for row in m]


def solve_positive_weights(matrix) -> tuple[tuple[int, ...], int]:
    """Primitive positive integer weights q and degree d with matrix @ q = d (1,...,1).

    By Cramer's rule the unique rational solution of A x = (1,...,1) is
    x_j = det(A_j) / det(A), where A_j is A with column j replaced by ones;
    det(A) and every det(A_j) are exact integers from one fraction-free
    elimination (_cramer). The weights are positive exactly when each det(A_j)
    has the sign of det(A), and q is then the vector of |det(A_j)| divided by
    their gcd. Raises SingularMatrixError when det(A) = 0 and
    NoPositiveWeightsError when some rational weight is zero or negative.

    >>> solve_positive_weights([[1, 2], [2, 1]])
    ((1, 1), 3)
    """
    n = len(matrix)
    if any(len(row) != n for row in matrix):
        raise SingularMatrixError("weight system needs a square matrix")
    full, cramer = _cramer(matrix)
    if full == 0:
        raise SingularMatrixError("exponent matrix is singular over the rationals")
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
    if not q or any(type(x) is not int or x <= 0 for x in q):
        raise GcdNotOneError("weights must be positive integers")
    q = tuple(q)
    (g,), v = smith_normal_form([q])
    if g != 1:
        raise GcdNotOneError(f"gcd of weights is {g}, expected 1")
    # on a row of positive integers every column operation leaves a
    # nonnegative remainder, so the pivot is never negated: b is V's first column
    b, *kernel = zip(*v)
    b = list(b)
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
