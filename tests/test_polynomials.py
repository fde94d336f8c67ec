"""Parsing, validation, and atomic decomposition of invertible polynomials."""

import json

import pytest

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
from invquot.polynomials import decomposition_text, from_matrix, monomial_text

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
