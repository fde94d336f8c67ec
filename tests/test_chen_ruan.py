"""Orbifold cohomology dimension over the twisted sectors."""

from collections import Counter
from fractions import Fraction

import pytest

from itertools import product
from math import lcm

from test_search import LADDER
from test_symmetry import from_fractions, identity, mul, phases, power

from invquot import (
    BiDegree,
    FixedLocusNotImplementedError,
    InvquotError,
    SymmetryInvariantError,
    UnsupportedGeometryError,
    chen_ruan_dim,
    enumerate_sectors,
    monomial_dim,
    parse,
    symmetry_quotient,
    untwisted_invariants,
)
from invquot.chen_ruan import _pieces
from invquot.presets import PRESETS
from invquot.symmetry import SymmetryQuotient

# both presets and the 16 cubic atomic sums
INPUTS = {**PRESETS, **LADDER}


class TestUntwisted:
    def test_pentagon(self, sq):
        u = untwisted_invariants(sq)
        assert u.hyperplane_classes == 4
        assert u.middle_full == 5
        assert u.middle_invariant == 0
        assert u.total == 4

    def test_trivial_quotient(self, trivial_sq):
        u = untwisted_invariants(trivial_sq)
        assert u.middle_full == 5
        assert u.middle_invariant == 5
        assert u.total == 14

    def test_invariant_part_is_the_zero_residue(self, sq):
        # the pentagon's quotient with characters (0, 0, 1, 4, 6) / 11, which
        # sum to zero: x1 and x2 are the invariant linear monomials, and no
        # other residue holds two of the five
        fields = {name: getattr(sq, name) for name in SymmetryQuotient._fields}
        moved = SymmetryQuotient(**{**fields, "characters": ((0, 0, 1, 4, 6),)})
        u = untwisted_invariants(moved)
        assert u.middle_full == 5
        assert u.middle_invariant == monomial_dim(moved, BiDegree(1, (0,))) == 2


class TestSectors:
    def test_piece_count(self, sq):
        sectors = enumerate_sectors(sq)
        # the level is 11: each of the 10 nonzero classes has 11 eigenphases,
        # and the identity class adds its 10 nonzero ones, 10 * 11 + 10 = 120
        assert len(sectors) == 120

    def test_fifty_contributing_pieces(self, sq):
        sectors = enumerate_sectors(sq)
        contributing = [s for s in sectors if s.contribution]
        assert len(contributing) == 50
        assert all(s.contribution == 1 for s in contributing)

    def test_five_per_nonzero_class(self, sq):
        sectors = enumerate_sectors(sq)
        per_class = Counter(
            s.class_powers for s in sectors if s.contribution
        )
        assert set(per_class) == {(k,) for k in range(1, 11)}
        assert set(per_class.values()) == {5}

    def test_contributions_have_singleton_fixed_axis(self, sq):
        for s in enumerate_sectors(sq):
            if s.contribution:
                assert len(s.fixed_coords) == 1

    def test_each_axis_contributes_for_some_class(self, sq):
        axes = {
            s.fixed_coords[0] for s in enumerate_sectors(sq) if s.contribution
        }
        assert axes == {1, 2, 3, 4, 5}

    def test_eigenphases_are_fractions_in_unit_interval(self, sq):
        for s in enumerate_sectors(sq):
            assert isinstance(s.eigenphase, Fraction)
            assert 0 <= s.eigenphase < 1

    def test_identity_class_contributes_nothing(self, sq):
        for s in enumerate_sectors(sq):
            if s.class_powers == (0,):
                assert s.contribution == 0

    def test_trivial_quotient_has_no_sectors(self, trivial_sq):
        assert enumerate_sectors(trivial_sq) == []


class TestTotal:
    def test_pentagon_is_54(self, sq):
        assert chen_ruan_dim(sq) == 54

    def test_trivial_quotient_is_14(self, trivial_sq):
        assert chen_ruan_dim(trivial_sq) == 14

    def test_decomposition_of_54(self, sq):
        u = untwisted_invariants(sq)
        twisted = sum(s.contribution for s in enumerate_sectors(sq))
        assert u.total + twisted == 54 == 4 + 50


class TestGuards:
    def test_requires_degree_three(self):
        sq = symmetry_quotient(parse("x1^2 + x2^2 + x3^2 + x4^2 + x5^2"))
        with pytest.raises(UnsupportedGeometryError):
            chen_ruan_dim(sq)

    def test_positive_dimensional_fixed_locus_raises(self):
        # x1^3 + x2^3 + x3^3 + x4^3 + x5^3: the quotient contains classes
        # fixing whole coordinate planes
        sq = symmetry_quotient(parse("x1^3 + x2^3 + x3^3 + x4^3 + x5^3"))
        with pytest.raises(FixedLocusNotImplementedError):
            enumerate_sectors(sq)
        # the total also refuses, whichever guard fires first
        with pytest.raises(UnsupportedGeometryError):
            chen_ruan_dim(sq)

    def test_generator_of_another_order_raises(self, sq):
        # the pieces are counted over the quotient exponent, which holds the
        # phases of every lift only when each generator has its factor's order
        fields = {name: getattr(sq, name) for name in SymmetryQuotient._fields}
        bad = SymmetryQuotient(
            **{**fields, "quotient_generators": (identity(sq.n),)}
        )
        for compute in (chen_ruan_dim, enumerate_sectors):
            with pytest.raises(SymmetryInvariantError, match="order 1, not its factor's 11"):
                compute(bad)


def _outcome(compute):
    """compute()'s value, or the type and message of the error it raises."""
    try:
        return compute()
    except InvquotError as exc:
        return type(exc), str(exc)


def _reference_pieces(sq):
    """(element, class powers, eigenphase, fixed coordinates, contribution)
    of every twisted piece, by products of DiagonalElement and Fraction
    phases, up to the first piece fixing more than an axis, which ends the
    list with contribution None."""
    exponent = lcm(*sq.quotient_orders)
    out = []
    for powers in product(*(range(m) for m in sq.quotient_orders)):
        lift = identity(sq.n)
        for k, g in zip(powers, sq.quotient_generators):
            lift = mul(lift, power(g, k))
        level = lcm(lift.order, exponent)
        for j in range(level):
            if any(powers) or j:
                phase = Fraction(j, level)
                fixed = tuple(i for i, p in enumerate(phases(lift), start=1) if p == phase)
                element = from_fractions([p - phase for p in phases(lift)])
                if len(fixed) > 1:
                    return out + [(element, powers, phase, fixed, None)]
                point = len(fixed) == 1 and not _axis_outside(sq, fixed[0])
                out.append((element, powers, phase, fixed, int(point)))
    return out


def _axis_outside(sq, coord):
    """A monomial x_coord^d keeps the coordinate axis off the hypersurface."""
    return any(
        row[coord - 1] and not any(e for j, e in enumerate(row, start=1) if j != coord)
        for row in sq.poly.matrix
    )


class TestAgreement:
    """chen_ruan_dim counts the pieces on integer phases, while
    enumerate_sectors builds each as a Sector for the report."""

    @pytest.mark.parametrize("text", list(INPUTS.values()), ids=list(INPUTS))
    def test_total_is_untwisted_plus_sectors(self, text):
        sq = symmetry_quotient(parse(text))
        assert _outcome(lambda: chen_ruan_dim(sq)) == _outcome(
            lambda: untwisted_invariants(sq).total
            + sum(s.contribution for s in enumerate_sectors(sq))
        )

    @pytest.mark.parametrize("text", list(INPUTS.values()), ids=list(INPUTS))
    def test_sectors_match_reference(self, text):
        # the same pieces in the same order, or a failure at the first piece
        # fixing more than an axis
        sq = symmetry_quotient(parse(text))
        pieces = _reference_pieces(sq)
        if pieces and pieces[-1][-1] is None:
            with pytest.raises(FixedLocusNotImplementedError) as info:
                enumerate_sectors(sq)
            assert str(info.value).startswith(f"fixed coordinate set {pieces[-1][3]} ")
            return
        assert [
            (s.element, s.class_powers, s.eigenphase, s.fixed_coords, s.contribution)
            for s in enumerate_sectors(sq)
        ] == pieces

    @pytest.mark.parametrize("text", list(INPUTS.values()), ids=list(INPUTS))
    def test_contributions_up_to_first_failure(self, text):
        # every piece the count reaches before it fails, whose contributions
        # a failing enumerate_sectors never shows
        sq = symmetry_quotient(parse(text))
        counted = []
        try:
            for powers, _, level, j, fixed, contribution in _pieces(sq):
                counted.append((powers, Fraction(j, level), fixed, contribution))
        except FixedLocusNotImplementedError:
            counted.append(None)
        reference = _reference_pieces(sq)
        assert counted == [
            None if c is None else (powers, phase, fixed, c)
            for _, powers, phase, fixed, c in reference
        ]
