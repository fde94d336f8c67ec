"""Parsing and classification of invertible polynomials.

An admissible input has as many monomials as variables, all coefficients equal
to one, an exponent matrix that is invertible over the rationals, and a
positive primitive weight system making every monomial the same degree.
Quasi-smoothness is certified structurally, by decomposing the polynomial into
power / cycle / chain summands; inputs where that decomposition fails are still
accepted but carry quasi_smooth_certified=False.
"""

from __future__ import annotations

import re

from .errors import (
    NotAtomicSumError,
    NotSquareError,
    PolynomialSyntaxError,
)
from .lattice import det, solve_positive_weights
from .record import FrozenRecord

_TOKEN = re.compile(r"\s*(?:(x\d+)|(\d+)|(\+)|(\*)|(\^)|(.))")


def _tokenize(text: str) -> list[tuple[str, str]]:
    tokens = []
    for m in _TOKEN.finditer(text):
        var, num, plus, star, caret, junk = m.groups()
        if var:
            tokens.append(("var", var))
        elif num:
            tokens.append(("int", num))
        elif plus:
            tokens.append(("+", plus))
        elif star:
            tokens.append(("*", star))
        elif caret:
            tokens.append(("^", caret))
        elif junk and junk.strip():
            raise PolynomialSyntaxError(f"unexpected character {junk!r}")
    return tokens


def _parse_monomials(text: str) -> list[dict[int, int]]:
    """Grammar: poly := term ('+' term)*; term := factor ('*' factor)*;
    factor := var ('^' posint)?; var := 'x' posint."""
    tokens = _tokenize(text)
    if not tokens:
        raise PolynomialSyntaxError("empty polynomial")
    pos = 0

    def peek():
        return tokens[pos][0] if pos < len(tokens) else None

    def take(kind):
        nonlocal pos
        if peek() != kind:
            got = tokens[pos][1] if pos < len(tokens) else "end of input"
            raise PolynomialSyntaxError(f"expected {kind!r}, got {got!r}")
        pos += 1
        return tokens[pos - 1][1]

    def parse_factor(expos: dict[int, int]):
        if peek() == "int":
            raise PolynomialSyntaxError(
                f"numeric coefficient {tokens[pos][1]!r} not allowed, "
                "all coefficients must be 1"
            )
        name = take("var")
        index = int(name[1:])
        if index < 1:
            raise PolynomialSyntaxError(f"variable index must be positive: {name}")
        exp = 1
        if peek() == "^":
            take("^")
            exp = int(take("int"))
            if exp < 1:
                raise PolynomialSyntaxError("exponents must be positive integers")
        expos[index] = expos.get(index, 0) + exp

    monomials = []
    while True:
        expos: dict[int, int] = {}
        parse_factor(expos)
        while peek() == "*":
            take("*")
            parse_factor(expos)
        monomials.append(expos)
        if peek() is None:
            break
        take("+")
    return monomials


class InvertiblePolynomial(FrozenRecord):
    """Validated polynomial with its exponent matrix, weights and degree."""

    _fields = (
        "matrix",   # tuple of row tuples, row i = exponent vector of monomial i
        "weights",  # primitive positive integer weights
        "degree",   # common weighted degree of every monomial
        "quasi_smooth_certified",
    )

    @property
    def n(self) -> int:
        return len(self.matrix)

    def determinant(self) -> int:
        return det(self.matrix)

    def to_text(self) -> str:
        return " + ".join(map(monomial_text, self.matrix))


def monomial_text(exponents) -> str:
    """The monomial with these exponents, e.g. x1^2*x3; the constant is 1."""
    parts = []
    for j, e in enumerate(exponents, start=1):
        if e == 1:
            parts.append(f"x{j}")
        elif e > 1:
            parts.append(f"x{j}^{e}")
    return "*".join(parts) or "1"


def from_matrix(rows) -> InvertiblePolynomial:
    """Build directly from an exponent matrix (one row per monomial)."""
    matrix = tuple(map(tuple, rows))
    # type, not isinstance: True and False are bools, an int subclass
    if not all(type(e) is int for row in matrix for e in row):
        raise PolynomialSyntaxError("matrix entries must be integers")
    if not matrix:
        raise PolynomialSyntaxError("empty exponent matrix: no monomials")
    n, cols = len(matrix), len(matrix[0])
    if any(len(row) != cols for row in matrix):
        raise PolynomialSyntaxError("matrix rows must all have the same length")
    if n != cols:
        raise NotSquareError(f"{n} monomials but {cols} variables")
    if any(e < 0 for row in matrix for e in row):
        raise PolynomialSyntaxError("exponents must be nonnegative")
    if any(all(e == 0 for e in row) for row in matrix):
        raise PolynomialSyntaxError("constant monomial (all-zero exponent row)")
    seen = set()
    for row in matrix:
        if row in seen:
            raise PolynomialSyntaxError(
                "repeated monomial would need a coefficient other than 1"
            )
        seen.add(row)
    # raises SingularMatrixError when det A = 0
    weights, degree = solve_positive_weights(matrix)
    certified = True
    try:
        _decompose(matrix)
    except NotAtomicSumError:
        certified = False
    return InvertiblePolynomial(
        matrix=matrix,
        weights=weights,
        degree=degree,
        quasi_smooth_certified=certified,
    )


def parse(text: str) -> InvertiblePolynomial:
    """Parse a polynomial string such as 'x1^2*x2 + x2^2*x1'.

    Whitespace is ignored. Raises PolynomialSyntaxError, NotSquareError,
    SingularMatrixError, or NoPositiveWeightsError on inadmissible input.
    """
    stripped = text.strip()
    if stripped.startswith("{"):
        return parse_json_matrix(stripped)
    monomials = _parse_monomials(text)
    nvars = max(max(m) for m in monomials)
    if len(monomials) != nvars:
        raise NotSquareError(
            f"{len(monomials)} monomials but {nvars} variables (x1..x{nvars})"
        )
    rows = [
        [m.get(j, 0) for j in range(1, nvars + 1)]
        for m in monomials
    ]
    return from_matrix(rows)


def parse_json_matrix(text: str) -> InvertiblePolynomial:
    """Accept the JSON alternative form {"matrix": [[...], ...]}."""
    # imported here, so that a library import of invquot loads no json
    import json

    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise PolynomialSyntaxError(f"invalid JSON: {exc}") from exc
    if not isinstance(data, dict) or "matrix" not in data:
        raise PolynomialSyntaxError('JSON form must be {"matrix": [[...], ...]}')
    rows = data["matrix"]
    if not isinstance(rows, list) or not all(isinstance(r, list) for r in rows):
        raise PolynomialSyntaxError("matrix must be a list of rows")
    return from_matrix(rows)


class Block(FrozenRecord):
    """One indecomposable summand.

    kind 'fermat': x_{v1}^{a1}
    kind 'chain':  x_{v1}^{a1} x_{v2} + ... + x_{vk}^{ak}
    kind 'loop':   x_{v1}^{a1} x_{v2} + ... + x_{vk}^{ak} x_{v1}
    Variable indices are 1-based.
    """

    _fields = ("kind", "variables", "exponents")


class AtomicDecomposition(FrozenRecord):
    _fields = ("blocks",)


def decomposition_text(blocks) -> str:
    """Blocks given as (kind, exponents) pairs, e.g. Fermat(3) + Loop(2, 2)."""
    names = {"fermat": "Fermat", "loop": "Loop", "chain": "Chain"}
    return " + ".join(f"{names[kind]}({', '.join(map(str, e))})" for kind, e in blocks)


def _decompose(rows) -> tuple[Block, ...]:
    n = len(rows)
    # head candidates per monomial: (head_var, tail_var or None)
    options: list[list[tuple[int, int | None]]] = []
    for i in range(n):
        support = [(j, rows[i][j]) for j in range(n) if rows[i][j]]
        if len(support) == 1:
            j, _ = support[0]
            options.append([(j, None)])
        elif len(support) == 2:
            (j1, e1), (j2, e2) = support
            opts = []
            if e2 == 1:
                opts.append((j1, j2))
            if e1 == 1:
                opts.append((j2, j1))
            if not opts:
                raise NotAtomicSumError(
                    f"monomial {i + 1} links two variables with both exponents > 1"
                )
            options.append(opts)
        else:
            raise NotAtomicSumError(
                f"monomial {i + 1} involves {len(support)} variables, expected 1 or 2"
            )

    # assign each monomial a distinct head variable; tails must also be distinct
    head_of: dict[int, int] = {}   # head variable -> monomial
    tails_used: set[int] = set()

    def assign(i: int) -> bool:
        if i == n:
            return True
        for head, tail in options[i]:
            if head in head_of:
                continue
            if tail is not None and tail in tails_used:
                continue
            head_of[head] = i
            if tail is not None:
                tails_used.add(tail)
            if assign(i + 1):
                return True
            del head_of[head]
            if tail is not None:
                tails_used.discard(tail)
        return False

    if not assign(0):
        raise NotAtomicSumError("no consistent head/tail assignment exists")

    # heads within one monomial's options are distinct, so the tail is determined
    tail_of: dict[int, int | None] = {}
    for head, i in head_of.items():
        tail_of[head] = next(t for h, t in options[i] if h == head)

    blocks = []
    unvisited = set(range(n))
    while unvisited:
        start = min(unvisited)
        # walk backwards to the chain start (a variable that is nobody's tail)
        chain_start = start
        seen = {start}
        while True:
            prev = next(
                (v for v in unvisited if tail_of.get(v) == chain_start), None
            )
            if prev is None or prev in seen:
                break
            chain_start = prev
            seen.add(prev)
        # walk forward collecting the component
        path = []
        v = chain_start
        while v is not None and v not in path:
            path.append(v)
            v = tail_of.get(v)
        is_loop = v is not None and v == path[0]
        if v is not None and not is_loop:
            raise NotAtomicSumError("tail chain re-enters a previous component")
        variables = tuple(p + 1 for p in path)
        exponents = tuple(rows[head_of[p]][p] for p in path)
        if is_loop:
            # canonical rotation: start the cycle at its smallest variable
            k = variables.index(min(variables))
            variables = variables[k:] + variables[:k]
            exponents = exponents[k:] + exponents[:k]
            kind = "loop"
        elif len(path) == 1:
            kind = "fermat"
        else:
            kind = "chain"
        blocks.append(Block(kind=kind, variables=variables, exponents=exponents))
        unvisited -= set(path)
    blocks.sort(key=lambda b: b.variables[0])
    return tuple(blocks)


def atomic_decomposition(poly: InvertiblePolynomial) -> AtomicDecomposition:
    """Split into power / cycle / chain summands, or raise NotAtomicSumError."""
    return AtomicDecomposition(blocks=_decompose(poly.matrix))
