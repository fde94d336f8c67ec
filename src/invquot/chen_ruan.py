"""Chen-Ruan orbifold cohomology dimension of the quotient threefold.

The quotient acts on the cubic threefold through the projectivization, so a
group class fixes points exactly where some torus lift has an eigenspace; the
fixed locus of one class decomposes by eigenvalue. Here only point-like pieces
(single coordinate axes lying inside the hypersurface) are counted; any
higher-dimensional fixed piece raises FixedLocusNotImplementedError rather
than being silently miscounted.
"""

from __future__ import annotations

from itertools import product
from math import lcm

from .errors import FixedLocusNotImplementedError, SymmetryInvariantError, UnsupportedGeometryError
from .homs import _require_threefold, ext_table
from .record import FrozenRecord
from .symmetry import DiagonalElement, SymmetryQuotient


class Sector(FrozenRecord):
    """One (class, eigenvalue) piece of the inertia decomposition.

    element is the torus representative whose phase-zero coordinates are the
    eigenspace; class_powers gives the quotient class, one exponent per
    quotient factor; eigenphase is the eigenvalue as a fraction of a full turn.
    """

    # eigenphase is a Fraction
    _fields = ("element", "class_powers", "eigenphase", "fixed_coords", "contribution")


def _require_cubic_threefold(sq: SymmetryQuotient):
    _require_threefold(sq)
    if sq.degree != 3:
        raise UnsupportedGeometryError(
            f"orbifold count is implemented for cubics only, degree is {sq.degree}"
        )


def _axis_inside_hypersurface(sq: SymmetryQuotient, coord: int) -> bool:
    """True when the coordinate axis (1-based) lies inside the hypersurface,
    i.e. no monomial is supported entirely on that single coordinate."""
    for row in sq.poly.matrix:
        if all(e == 0 for j, e in enumerate(row, start=1) if j != coord):
            return False
    return True


def _piece_contribution(inside: frozenset[int], fixed: tuple[int, ...]) -> int:
    """A piece's count: 1 for a single fixed axis in inside (the axes lying in
    the hypersurface), 0 for an empty fixed set or an axis not in inside."""
    if not fixed:
        return 0
    if len(fixed) == 1:
        return 1 if fixed[0] in inside else 0
    raise FixedLocusNotImplementedError(
        f"fixed coordinate set {fixed} spans more than an axis; counting its "
        "classes would need the geometry of a positive-dimensional fixed locus"
    )


def _pieces(sq: SymmetryQuotient):
    """Yield every twisted sector piece as plain integers, in enumeration
    order: (class powers, lift phases, level, j, fixed coordinates,
    contribution). The lift is the product of the quotient generators to the
    class powers, its phases are numerators over level, and the piece is its
    eigenvalue exp(2 pi i j / level), fixed on the coordinates whose phase is
    j. The untwisted main piece (identity class, j = 0) is left out. Raises
    FixedLocusNotImplementedError at the first piece whose fixed locus is
    larger than a point.

    The level is the quotient exponent: every quotient generator of a graded
    quotient has exact order, its factor's order, so every lift's order
    divides the exponent. A generator of another order raises
    SymmetryInvariantError."""
    _require_cubic_threefold(sq)
    n = sq.n
    inside = frozenset(
        c for c in range(1, n + 1) if _axis_inside_hypersurface(sq, c)
    )
    for g, m in zip(sq.quotient_generators, sq.quotient_orders):
        if g.den != m:
            raise SymmetryInvariantError(
                f"quotient generator {g} has order {g.den}, not its factor's {m}"
            )
    level = lcm(*sq.quotient_orders)
    gens = [g.residues(level) for g in sq.quotient_generators]
    for powers in product(*(range(m) for m in sq.quotient_orders)):
        # the lift's phases over the level
        phases = tuple(
            sum(k * g[i] for k, g in zip(powers, gens)) % level for i in range(n)
        )
        by_phase: dict[int, tuple[int, ...]] = {}
        for i, p in enumerate(phases, start=1):
            by_phase[p] = by_phase.get(p, ()) + (i,)
        for j in range(0 if any(powers) else 1, level):
            fixed = by_phase.get(j, ())
            yield powers, phases, level, j, fixed, _piece_contribution(inside, fixed)


def enumerate_sectors(sq: SymmetryQuotient) -> list[Sector]:
    """All twisted sector pieces: every nonzero quotient class, decomposed by
    eigenvalue, plus the empty eigenvalue pieces of the identity class for
    completeness. Raises FixedLocusNotImplementedError on any piece whose
    fixed locus is larger than a point."""
    from fractions import Fraction

    return [
        Sector(
            element=DiagonalElement.of([p - j for p in phases], level),
            class_powers=powers,
            eigenphase=Fraction(j, level),
            fixed_coords=fixed,
            contribution=contribution,
        )
        for powers, phases, level, j, fixed, contribution in _pieces(sq)
    ]


class UntwistedData(FrozenRecord):
    _fields = (
        "hyperplane_classes",  # h^{0,0} + h^{1,1} + h^{2,2} + h^{3,3}
        "middle_full",         # h^{2,1} of the hypersurface itself
        "middle_invariant",    # its invariant part under the quotient
    )

    @property
    def total(self) -> int:
        return self.hyperplane_classes + 2 * self.middle_invariant


def untwisted_invariants(sq: SymmetryQuotient) -> UntwistedData:
    """Invariant cohomology of the cubic threefold under the quotient action.

    The middle cohomology is carried by residue forms indexed by degree-1
    monomials; the residue form of a monomial is invariant exactly when the
    monomial's character cancels the character sum of the coordinates, and
    this bookkeeping is only implemented when that character sum vanishes.
    """
    _require_cubic_threefold(sq)
    for chars, m in zip(sq.characters, sq.quotient_orders):
        if sum(chars) % m:
            raise UnsupportedGeometryError(
                "coordinate characters do not sum to zero, the residue "
                "bookkeeping for the middle cohomology is not implemented"
            )
    # degree-1 monomials by residue number, the zero residue first
    row = ext_table(sq).monomial_row(1)
    return UntwistedData(
        hyperplane_classes=4, middle_full=sum(row), middle_invariant=row[0]
    )


def chen_ruan_dim(sq: SymmetryQuotient) -> int:
    """Total dimension of the Chen-Ruan cohomology of the quotient."""
    untwisted = untwisted_invariants(sq)
    return untwisted.total + sum(piece[-1] for piece in _pieces(sq))
