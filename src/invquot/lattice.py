"""Exact integer matrix kernel: Smith normal form, weight systems, splitting coefficients.

Everything here runs on arbitrary-precision Python integers and no step solves
over the rationals: weights come from Cramer's rule on Bareiss determinants.
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
from .record import FrozenRecord


class IntMatrix(FrozenRecord):
    """Immutable integer matrix, row major."""

    _fields = ("entries",)

    @classmethod
    def from_rows(cls, rows) -> "IntMatrix":
        rows = tuple(tuple(int(x) for x in row) for row in rows)
        if rows:
            width = len(rows[0])
            if any(len(r) != width for r in rows):
                raise ValueError("ragged rows")
        return cls(rows)

    @classmethod
    def identity(cls, n: int) -> "IntMatrix":
        return cls(tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n)))

    @property
    def rows(self) -> int:
        return len(self.entries)

    @property
    def cols(self) -> int:
        return len(self.entries[0]) if self.entries else 0

    def __getitem__(self, ij):
        i, j = ij
        return self.entries[i][j]

    def to_lists(self) -> list[list[int]]:
        return [list(row) for row in self.entries]

    def mul(self, other: "IntMatrix") -> "IntMatrix":
        if self.cols != other.rows:
            raise ValueError("shape mismatch")
        ot = list(zip(*other.entries)) if other.entries else []
        return IntMatrix(
            tuple(
                tuple(sum(a * b for a, b in zip(row, col)) for col in ot)
                for row in self.entries
            )
        )

    def det(self) -> int:
        """Exact determinant by fraction-free Bareiss elimination."""
        n = self.rows
        if n != self.cols:
            raise ValueError("determinant needs a square matrix")
        if n == 0:
            return 1
        m = [list(row) for row in self.entries]
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

    def is_unimodular(self) -> bool:
        return self.rows == self.cols and abs(self.det()) == 1


class SnfDecomposition(FrozenRecord):
    """U @ M @ V = D with U, V unimodular and D diagonal, d1 | d2 | ... , di >= 0."""

    _fields = ("U", "D", "V")

    @property
    def diagonal(self) -> tuple[int, ...]:
        k = min(self.D.rows, self.D.cols)
        return tuple(self.D[i, i] for i in range(k))

    @property
    def invariant_factors(self) -> tuple[int, ...]:
        """Diagonal entries larger than 1 (the nontrivial cyclic orders)."""
        return tuple(d for d in self.diagonal if d > 1)


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


def smith_normal_form(matrix: IntMatrix) -> SnfDecomposition:
    """Diagonalize an integer matrix by unimodular row and column operations.

    Pivoting is deterministic: the entry of minimal nonzero absolute value,
    ties broken by (row, col). Works for rectangular matrices.

    >>> snf = smith_normal_form(IntMatrix.from_rows([[2, 0], [0, 4]]))
    >>> snf.diagonal
    (2, 4)
    """
    rows, cols = matrix.rows, matrix.cols
    m = [list(r) for r in matrix.entries]
    u = [list(r) for r in IntMatrix.identity(rows).entries]
    v = [list(r) for r in IntMatrix.identity(cols).entries]

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
        U=IntMatrix.from_rows(u), D=IntMatrix.from_rows(m), V=IntMatrix.from_rows(v)
    )


def solve_positive_weights(matrix: IntMatrix) -> tuple[tuple[int, ...], int]:
    """Primitive positive integer weights q and degree d with matrix @ q = d (1,...,1).

    By Cramer's rule the unique rational solution of A x = (1,...,1) is
    x_j = det(A_j) / det(A), where A_j is A with column j replaced by ones;
    every determinant is an exact Bareiss integer. The weights are positive
    exactly when each det(A_j) has the sign of det(A), and q is then the
    vector of |det(A_j)| divided by their gcd. Raises SingularMatrixError when
    det(A) = 0 and NoPositiveWeightsError when some rational weight is zero or
    negative.

    >>> solve_positive_weights(IntMatrix.from_rows([[1, 2], [2, 1]]))
    ((1, 1), 3)
    """
    n = matrix.rows
    if n != matrix.cols:
        raise SingularMatrixError("weight system needs a square matrix")
    det = matrix.det()
    if det == 0:
        raise SingularMatrixError("exponent matrix is singular over the rationals")
    cramer = [
        IntMatrix(tuple(row[:j] + (1,) + row[j + 1:] for row in matrix.entries)).det()
        for j in range(n)
    ]
    if any(c * det <= 0 for c in cramer):
        from fractions import Fraction

        weights = [Fraction(c, det) for c in cramer]
        raise NoPositiveWeightsError(f"rational weights {weights} are not all positive")
    g = gcd(*cramer)
    q = tuple(abs(c) // g for c in cramer)
    d = sum(matrix[0, j] * q[j] for j in range(n))
    if any(sum(a * x for a, x in zip(row, q)) != d for row in matrix.entries):
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
    snf = smith_normal_form(IntMatrix.from_rows([list(q)]))
    if snf.D[0, 0] != 1:
        raise GcdNotOneError(f"gcd of weights is {snf.D[0, 0]}, expected 1")
    sign = snf.U[0, 0]
    n = len(q)
    b = [sign * snf.V[i, 0] for i in range(n)]
    kernel = [tuple(snf.V[i, j] for i in range(n)) for j in range(1, n)]
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
