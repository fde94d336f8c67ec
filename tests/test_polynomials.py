"""Parsing, validation, and atomic decomposition of invertible polynomials."""

import json
import random

import pytest
from test_search import LADDER

from invquot import (
    InvertiblePolynomial,
    NoPositiveWeightsError,
    NotAtomicSumError,
    NotSquareError,
    PolynomialSyntaxError,
    SingularMatrixError,
    atomic_decomposition,
    parse,
    parse_json_matrix,
)
from invquot.polynomials import Block, _decompose, decomposition_text, from_matrix, monomial_text
from invquot.presets import PRESETS

PENTAGON = "x1^2*x2 + x2^2*x3 + x3^2*x4 + x4^2*x5 + x5^2*x1"


class TestParsing:
    def test_pentagon(self, pentagon_poly):
        assert pentagon_poly.n == 5
        assert pentagon_poly.weights == (1, 1, 1, 1, 1)
        assert pentagon_poly.degree == 3
        assert pentagon_poly.determinant() == 33
        assert pentagon_poly.quasi_smooth_certified

    def test_whitespace_and_explicit_powers(self):
        assert parse("x1^2 * x2+x2^2*x1").matrix == parse("x1^2*x2 + x1*x2^2").matrix

    def test_variables_in_any_order(self):
        p = parse("x2^2*x1 + x1^2*x2")
        assert p.matrix == ((1, 2), (2, 1))

    def test_roundtrip_through_text(self, pentagon_poly):
        again = parse(pentagon_poly.to_text())
        assert again.matrix == pentagon_poly.matrix

    def test_monomial_text(self):
        assert monomial_text((2, 0, 1)) == "x1^2*x3"
        assert monomial_text([0, 1]) == "x2"
        assert monomial_text((0, 0, 0)) == "1"

    def test_fermat_and_chain(self):
        p = parse("x1^3 + x2^2*x1")
        assert p.matrix == ((3, 0), (1, 2))

    @pytest.mark.parametrize(
        "bad",
        [
            "",
            "x1^2 +",
            "x0^2 + x1^2",
            "2*x1^2 + x2^2",
            "x1^-2 + x2^2",
            "x1^2 - x2^2",
            "x1 & x2",
            "x1^0 + x2^2",
        ],
    )
    def test_syntax_errors(self, bad):
        with pytest.raises(PolynomialSyntaxError):
            parse(bad)

    def test_wrong_monomial_count(self):
        with pytest.raises(NotSquareError):
            parse("x1^2 + x2^2 + x1*x2")

    def test_repeated_monomial(self):
        with pytest.raises(PolynomialSyntaxError, match="repeated monomial"):
            parse("x1^2*x2 + x1^2*x2")

    def test_singular_matrix(self):
        # rows (2,0) and (4,0) are dependent
        with pytest.raises(SingularMatrixError, match="^exponent matrix is singular over the rationals$"):
            from_matrix([[2, 0], [4, 0]])

    def test_no_positive_weights(self):
        with pytest.raises(NoPositiveWeightsError):
            parse("x1^4*x2^2 + x1*x3 + x2*x3^5")


class TestJsonMatrix:
    def test_parse_json(self, pentagon_poly):
        payload = json.dumps({"matrix": pentagon_poly.matrix})
        p = parse_json_matrix(payload)
        assert p.matrix == pentagon_poly.matrix

    def test_parse_dispatches_on_brace(self, pentagon_poly):
        payload = json.dumps({"matrix": pentagon_poly.matrix})
        assert parse(payload).matrix == pentagon_poly.matrix

    @pytest.mark.parametrize(
        "payload",
        [
            "{}",
            '{"matrix": "no"}',
            '{"matrix": [[1, 2], [3]]}',
            "{bad json",
            '{"matrix": [[2, true], [1, 2]]}',
        ],
    )
    def test_bad_json(self, payload):
        with pytest.raises(PolynomialSyntaxError):
            parse_json_matrix(payload)


class TestFromMatrix:
    def test_pentagon_matrix(self, pentagon_poly):
        p = from_matrix([list(row) for row in pentagon_poly.matrix])
        assert p.weights == (1, 1, 1, 1, 1)
        assert p.to_text() == pentagon_poly.to_text()

    def test_rejects_rectangular(self):
        with pytest.raises(NotSquareError):
            from_matrix([[1, 2, 0], [0, 1, 2]])

    def test_rejects_negative_exponent(self):
        with pytest.raises(PolynomialSyntaxError):
            from_matrix([[-1, 2], [0, 1]])

    def test_rejects_zero_row(self):
        with pytest.raises(PolynomialSyntaxError):
            from_matrix([[0, 0], [0, 1]])

    @pytest.mark.parametrize("rows", [[], ()], ids=["list", "matrix"])
    def test_rejects_empty(self, rows):
        with pytest.raises(PolynomialSyntaxError, match="no monomials"):
            from_matrix(rows)

    @pytest.mark.parametrize(
        "rows, message",
        [
            ([[2.7, 1], [1, 2]], "matrix entries must be integers"),
            ([[2.0, 1], [1, 2]], "matrix entries must be integers"),
            ([[2, True], [1, 2]], "matrix entries must be integers"),
            ([[2, 1], [1]], "matrix rows must all have the same length"),
        ],
        ids=["float", "integral-float", "bool", "ragged"],
    )
    def test_rejects_non_integer_and_ragged(self, rows, message):
        # a float or a bool is not read as an integer, a short row is not padded
        with pytest.raises(PolynomialSyntaxError, match=f"^{message}$"):
            from_matrix(rows)


class TestAtomicDecomposition:
    def test_pentagon_is_single_loop(self, pentagon_poly):
        dec = atomic_decomposition(pentagon_poly)
        assert decomposition_text((b.kind, b.exponents) for b in dec.blocks) == "Loop(2, 2, 2, 2, 2)"
        (block,) = dec.blocks
        assert block.kind == "loop"
        assert block.variables == (1, 2, 3, 4, 5)
        assert block.exponents == (2, 2, 2, 2, 2)

    def test_fermat_sum(self):
        dec = atomic_decomposition(parse("x1^3 + x2^4"))
        assert [b.kind for b in dec.blocks] == ["fermat", "fermat"]
        assert [b.exponents for b in dec.blocks] == [(3,), (4,)]

    def test_chain(self):
        dec = atomic_decomposition(parse("x1^2*x2 + x2^3*x3 + x3^4"))
        (block,) = dec.blocks
        assert block.kind == "chain"
        assert block.variables == (1, 2, 3)
        assert block.exponents == (2, 3, 4)

    def test_mixed_blocks_sorted_by_first_variable(self):
        dec = atomic_decomposition(parse("x2^2*x3 + x3^2*x2 + x1^5 + x4^2*x5 + x5^3"))
        assert [b.kind for b in dec.blocks] == ["fermat", "loop", "chain"]
        assert [b.variables for b in dec.blocks] == [(1,), (2, 3), (4, 5)]

    def test_two_loop(self):
        dec = atomic_decomposition(parse("x1^3*x2 + x2^4*x1"))
        (block,) = dec.blocks
        assert block.kind == "loop"
        assert block.exponents == (3, 4)

    def test_backtracking_head_choice(self):
        # x1*x2 + x2^2 is a chain only if x2^2 is read as the chain tail;
        # the first greedy head choice for x1*x2 must be revisable
        dec = atomic_decomposition(parse("x1*x2 + x2^2"))
        (block,) = dec.blocks
        assert block.kind == "chain"
        assert block.exponents == (1, 2)

    def test_not_atomic(self):
        # x1^2*x2*x3 has three-variable support, never atomic
        p = from_matrix([[2, 1, 1], [0, 3, 0], [0, 0, 3]])
        with pytest.raises(NotAtomicSumError):
            atomic_decomposition(p)
        assert not p.quasi_smooth_certified

    def test_loop_rotation_starts_at_min_variable(self):
        dec = atomic_decomposition(parse("x3^2*x1 + x1^4*x2 + x2^3*x3"))
        (block,) = dec.blocks
        assert block.variables[0] == 1
        assert block.kind == "loop"
        # x1^4*x2, x2^3*x3, x3^2*x1 in cycle order from x1
        assert block.variables == (1, 2, 3)
        assert block.exponents == (4, 3, 2)


def reference_walk(rows):
    """The block walk _decompose replaced, kept as a reference: the same head
    and tail assignment, then, from the smallest unvisited variable, a
    backward walk to its component's start and a forward walk over it."""
    n = len(rows)
    options = []
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
    head_of = {}
    tails_used = set()

    def assign(i):
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
    tail_of = {}
    for head, i in head_of.items():
        tail_of[head] = next(t for h, t in options[i] if h == head)

    blocks = []
    unvisited = set(range(n))
    while unvisited:
        start = min(unvisited)
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


def random_atomic_sum(rng):
    """The exponent rows of a seeded random sum of Fermat, chain and loop
    blocks, its variables relabelled and its rows shuffled."""
    n = rng.randint(1, 9)
    label = list(range(n))
    rng.shuffle(label)
    rows = []
    start = 0
    while start < n:
        size = rng.randint(1, n - start)
        kind = "fermat" if size == 1 else rng.choice(["chain", "loop"])
        block = label[start:start + size]
        for k, j in enumerate(block):
            row = [0] * n
            row[j] = rng.randint(1, 4) if size > 1 else rng.randint(2, 5)
            if k + 1 < size:
                row[block[k + 1]] = 1
            elif kind == "loop":
                row[block[0]] = 1
            rows.append(tuple(row))
        start += size
    rng.shuffle(rows)
    return rows


class TestDecomposeAgainstReference:
    """_decompose walks each component forward once; the blocks, their kind,
    variables, exponents and order, are those of the backward walk it
    replaced."""

    @staticmethod
    def outcome(walk, rows):
        try:
            return walk(rows)
        except NotAtomicSumError as err:
            return str(err)

    @pytest.mark.parametrize(
        "text", [*PRESETS.values(), *LADDER.values()], ids=[*PRESETS, *LADDER]
    )
    def test_presets_and_ladder(self, text):
        # the cubic-trivial-quotient preset is no atomic sum
        rows = parse(text).matrix
        assert self.outcome(_decompose, rows) == self.outcome(reference_walk, rows)

    def test_seeded_random_atomic_sums(self):
        rng = random.Random(11)
        kinds = set()
        for _ in range(2000):
            rows = random_atomic_sum(rng)
            blocks = _decompose(rows)
            assert blocks == reference_walk(rows), rows
            kinds.update(b.kind for b in blocks)
        assert kinds == {"fermat", "chain", "loop"}

    def test_seeded_rows_of_one_or_two_variables(self):
        # atomic or not: the same blocks, or the same error
        rng = random.Random(12)
        atomic = 0
        for _ in range(2000):
            n = rng.randint(1, 6)
            rows = []
            for _ in range(n):
                row = [0] * n
                for j in rng.sample(range(n), rng.randint(1, min(2, n))):
                    row[j] = rng.randint(1, 3)
                rows.append(tuple(row))
            got = self.outcome(_decompose, rows)
            assert got == self.outcome(reference_walk, rows), rows
            atomic += not isinstance(got, str)
        assert 200 < atomic < 1800
