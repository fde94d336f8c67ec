"""Diagonal symmetry groups of invertible polynomials and their scalar quotients.

A diagonal symmetry is a torus element (e^{2 pi i t_1}, ..., e^{2 pi i t_n})
scaling each coordinate; it preserves the polynomial exactly when every
exponent row pairs integrally with (t_1, ..., t_n). The full group of such
symmetries is finite abelian. The scalars it contains form a cyclic subgroup
generated by the weight phases, and the quotient by that subgroup is what the
rest of the toolkit grades by.
"""

from __future__ import annotations

from functools import reduce
from math import gcd, lcm, prod

from .errors import (
    DegenerateLoopError,
    SingularMatrixError,
    SymmetryInvariantError,
    UnsupportedGeometryError,
)
from .lattice import det, smith_normal_form, splitting_coefficients
from .polynomials import InvertiblePolynomial
from .record import FrozenRecord


class DiagonalElement(FrozenRecord):
    """Finite-order diagonal torus element, stored as phases num_i / den.

    Canonical form: den >= 1, 0 <= num_i < den, and gcd(den, num_1, ..., num_n)
    equal to 1, so den is exactly the order of the element.
    """

    _fields = ("num", "den")

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        num, den = self.num, self.den
        if den < 1:
            raise SymmetryInvariantError(f"denominator {den} is not positive")
        if not all(0 <= x < den or (den == 1 and x == 0) for x in num):
            raise SymmetryInvariantError(f"phases {num} are not reduced mod {den}")
        if reduce(gcd, num, den) != 1:
            raise SymmetryInvariantError(f"phases {num} over {den} share a common factor")

    @classmethod
    def of(cls, nums, den: int) -> "DiagonalElement":
        """Canonicalize arbitrary integer phase numerators over a common denominator."""
        if den < 1:
            raise ValueError("denominator must be positive")
        nums = tuple(int(x) % den for x in nums)
        g = reduce(gcd, nums, den)
        return cls(num=tuple(x // g for x in nums), den=den // g)

    @property
    def n(self) -> int:
        return len(self.num)

    @property
    def order(self) -> int:
        return self.den

    def residues(self, modulus: int) -> tuple[int, ...]:
        """Phase numerators rescaled to a common modulus (order must divide it)."""
        if modulus % self.den:
            raise ValueError(f"order {self.den} does not divide modulus {modulus}")
        s = modulus // self.den
        return tuple(x * s for x in self.num)

    def character(self, exponents) -> int:
        """Residue of sum(e_i * num_i) mod den; zero iff the monomial is fixed."""
        return sum(e * x for e, x in zip(exponents, self.num)) % self.den


class FiniteAbelianGroup(FrozenRecord):
    """Subgroup of the diagonal torus presented by invariant factors.

    invariant_factors is ascending with each dividing the next, all > 1;
    generators[i] has exact order invariant_factors[i] and the generators
    together span the group as a direct sum.
    """

    _fields = ("nvars", "invariant_factors", "generators")

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        nvars, invariant_factors, generators = self._values()
        if len(invariant_factors) != len(generators):
            raise SymmetryInvariantError("one generator per invariant factor expected")
        for a, b in zip(invariant_factors, invariant_factors[1:]):
            if b % a:
                raise SymmetryInvariantError(
                    f"invariant factor {a} does not divide the next, {b}"
                )
        for f, g in zip(invariant_factors, generators):
            if not (f > 1 and g.order == f and g.n == nvars):
                raise SymmetryInvariantError(
                    f"generator {g} does not have order {f} on {nvars} variables"
                )

    @property
    def order(self) -> int:
        out = 1
        for f in self.invariant_factors:
            out *= f
        return out

    @property
    def exponent(self) -> int:
        return self.invariant_factors[-1] if self.invariant_factors else 1


def _subgroup_order(nvars: int, elements, modulus: int) -> int:
    """Order of the subgroup of (Z/modulus)^nvars that the elements' residue
    vectors generate (every order must divide modulus): the lattice L they
    span with modulus * Z^nvars, taken mod modulus * Z^nvars. L has index D
    in Z^nvars, the product of the Smith diagonal of the vectors stacked on
    modulus * I, so the order is modulus^nvars / D."""
    rows = [list(g.residues(modulus)) for g in elements]
    rows += [[modulus if i == j else 0 for j in range(nvars)] for i in range(nvars)]
    return modulus**nvars // prod(smith_normal_form(rows)[0])


def spans_group(group: FiniteAbelianGroup, generators) -> bool:
    """True when the given elements generate exactly the given group: when
    the subgroup they generate, the group, which its generators generate,
    and the subgroup both sets generate together all have one order, since
    the last holds both others. Decided by orders, so no element is
    listed."""
    m = lcm(group.exponent, *(g.order for g in generators))
    n = group.nvars
    return (
        _subgroup_order(n, generators, m)
        == _subgroup_order(n, group.generators, m)
        == _subgroup_order(n, [*generators, *group.generators], m)
    )


def symmetry_group_of_matrix(a) -> FiniteAbelianGroup:
    """Diagonal symmetries of any nondegenerate square exponent matrix, given
    as rows, via its Smith form (diagonal, V): the group is generated by the
    columns of V divided by the matching diagonal entries, and the invariant
    factors are the diagonal entries larger than 1. Their product, the group
    order, is checked against |det A| by Bareiss elimination, a second route."""
    diagonal, v = smith_normal_form(a)
    if 0 in diagonal:
        raise SingularMatrixError("exponent matrix is singular, the group is infinite")
    factors = []
    gens = []
    for d, column in zip(diagonal, zip(*v)):
        if d > 1:
            g = DiagonalElement.of(column, d)
            if g.order != d:
                raise SymmetryInvariantError(f"generator {g} does not have order {d}")
            # membership: every exponent row must pair to an integer
            if any(g.character(row) for row in a):
                raise SymmetryInvariantError(f"generator {g} does not preserve the polynomial")
            factors.append(d)
            gens.append(g)
    order = abs(det(a))
    if prod(factors) != order:
        raise SymmetryInvariantError(
            f"invariant factors {tuple(factors)} multiply to {prod(factors)}, not |det A| = {order}"
        )
    return FiniteAbelianGroup(
        nvars=len(a), invariant_factors=tuple(factors), generators=tuple(gens)
    )


def diagonal_symmetry_group(poly: InvertiblePolynomial) -> FiniteAbelianGroup:
    """The full diagonal symmetry group of a validated polynomial."""
    return symmetry_group_of_matrix(poly.matrix)


def loop_generator(exponents) -> DiagonalElement:
    """Closed-form generator of the symmetry group of a loop polynomial
    x1^a1 x2 + x2^a2 x3 + ... + xn^an x1.

    The group is cyclic of order delta = a1 a2 ... an + (-1)^{n+1}, generated by
    phases ((-1)^{n+1-j} * a1 a2 ... a_{j-1} / delta)_j. A loop with delta = 0
    has a one-parameter symmetry and is rejected as degenerate.
    """
    a = [int(x) for x in exponents]
    n = len(a)
    if n < 2 or any(x < 1 for x in a):
        raise ValueError("loop needs at least 2 exponents, all >= 1")
    prod = 1
    for x in a:
        prod *= x
    delta = prod + (-1) ** (n + 1)
    if delta == 0:
        raise DegenerateLoopError(
            "loop determinant vanishes, the symmetry group is not finite"
        )
    nums = []
    prefix = 1
    for j in range(1, n + 1):
        sign = -1 if (n + 1 - j) % 2 else 1
        nums.append(sign * prefix)
        prefix *= a[j - 1]
    return DiagonalElement.of(nums, abs(delta))


class SymmetryQuotient(FrozenRecord):
    """Symmetry data of an invertible polynomial and its quotient by scalars.

    Built by symmetry_quotient from one Smith form, that of [A | 1]: the
    scalar generator, the quotient's invariant factors and a canonical
    generator per factor. characters[i][j] is the grading character of x_j
    under the i-th quotient factor, valid when the scalar subgroup splits
    off; otherwise characters is None and graded computations downstream
    refuse the input. The full group and the splitting coefficients, which
    no graded computation reads, are not fields: they are computed from poly
    on each read.
    """

    _fields = (
        "poly", "scalar_generator", "quotient_orders", "quotient_generators", "characters",
    )

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # tables derived from this quotient, kept as long as it lives: "ext"
        # (homs.ext_table) and "neg_counts" (the Laurent monomial counts of
        # the long-exact-sequence route); not a field, so equality, hashing
        # and repr ignore it
        object.__setattr__(self, "derived", {})

    @property
    def group(self) -> FiniteAbelianGroup:
        """The full diagonal symmetry group, from the Smith form of A;
        computed on each read."""
        return diagonal_symmetry_group(self.poly)

    @property
    def splitting(self) -> tuple[int, ...]:
        """Small integers b with sum(b_i q_i) = 1 over the weights q;
        computed on each read."""
        return splitting_coefficients(self.weights)

    @property
    def n(self) -> int:
        return self.poly.n

    @property
    def weights(self) -> tuple[int, ...]:
        return self.poly.weights

    @property
    def degree(self) -> int:
        return self.poly.degree

    @property
    def scalar_order(self) -> int:
        return self.scalar_generator.order

    @property
    def quotient_order(self) -> int:
        out = 1
        for f in self.quotient_orders:
            out *= f
        return out

    @property
    def quotient_is_cyclic(self) -> bool:
        return len(self.quotient_orders) <= 1

    def char_of_exponents(self, exponents) -> tuple[int, ...]:
        """Quotient character of a monomial, one residue per quotient factor."""
        if self.characters is None:
            raise UnsupportedGeometryError("quotient characters unavailable")
        return tuple(
            sum(e * c for e, c in zip(exponents, chars)) % m
            for chars, m in zip(self.characters, self.quotient_orders)
        )


def _quotient_class_reps(poly: InvertiblePolynomial):
    """Invariant factors of group/scalars and one torus representative per factor.

    The quotient of the symmetry group by the scalar subgroup is the cokernel
    of the columns of [A | 1] acting on phase space: A columns give the unit
    lattice relations, the ones column kills the scalar generator.

    With the Smith form (diagonal, V) of [A | 1], column i of [A | 1] V is
    d_i times column i of some unimodular W, that is A V[:n, i] + V[n, i]
    (1,...,1) = d_i W e_i. The representative of factor i is A^-1 W e_i, and
    since A^-1 (1,...,1) = q / d for the weights q and degree d, it is
    (V[:n, i] + V[n, i] q / d) / d_i: phases (V[j, i] d + V[n, i] q_j) /
    (d_i d), all integers.
    """
    n = poly.n
    q, deg = poly.weights, poly.degree
    diagonal, v = smith_normal_form([row + (1,) for row in poly.matrix])
    factors = []
    reps = []
    for i, d in enumerate(diagonal):
        if d <= 1:
            continue
        factors.append(d)
        reps.append(
            DiagonalElement.of([v[j][i] * deg + v[n][i] * q[j] for j in range(n)], d * deg)
        )
    return tuple(factors), tuple(reps)


def _canonical_generator(m: int, rep: DiagonalElement, sigma: DiagonalElement):
    """The canonical generator of a quotient factor of order m whose class
    holds rep: among the scalar translates rep + t sigma, t < ord sigma, and
    their powers k < m coprime to m, the element of exact order m with the
    lexicographically smallest phase vector; None when no candidate has
    order m, so the scalar subgroup does not split off.

    Every candidate is an integer phase vector over the one denominator
    L = lcm(rep.den, sigma.den). A translate of order o has k-th power of
    order o / gcd(k, o), and a vector of order m over L is L / m times its
    reduced phases, so candidates of order m compare over L as their reduced
    phase vectors do.
    """
    big = lcm(rep.den, sigma.den)
    r = [x * (big // rep.den) for x in rep.num]
    s = [x * (big // sigma.den) for x in sigma.num]
    powers = [k for k in range(1, m) if gcd(k, m) == 1]
    best = None
    for t in range(sigma.order):
        base = [(x + t * y) % big for x, y in zip(r, s)]
        order = big // gcd(big, *base)
        for k in powers:
            if order // gcd(k, order) != m:
                continue
            cand = [x * k % big for x in base]
            if best is None or cand < best:
                best = cand
    if best is None:
        return None
    scale = big // m
    return DiagonalElement(tuple(x // scale for x in best), m)


def symmetry_quotient(poly: InvertiblePolynomial) -> SymmetryQuotient:
    """The scalar quotient of one polynomial's diagonal symmetry group.

    Builds the scalar generator, the weight phases q / d, and, from the one
    Smith form of [A | 1], the quotient's invariant factors and a
    representative per factor (_quotient_class_reps). The canonical
    generator of a factor is the lexicographically smallest representative
    of exact order among all scalar translates and coprime powers
    (_canonical_generator); when no exact-order representative exists the
    quotient does not split and characters is None. The group order is
    checked by two routes: |det A| by Bareiss elimination equals ord sigma
    times the product of the invariant factors. The full group and the
    splitting coefficients are not built here; SymmetryQuotient computes
    them on read.
    """
    q, d = poly.weights, poly.degree
    rows = poly.matrix
    sigma = DiagonalElement.of(q, d)
    if any(sigma.character(row) for row in rows):
        raise SymmetryInvariantError("scalar generator does not preserve the polynomial")
    factors, raw_reps = _quotient_class_reps(poly)

    canonical = []
    characters: list[tuple[int, ...]] | None = []
    for m, rep in zip(factors, raw_reps):
        best = _canonical_generator(m, rep, sigma)
        if best is None:
            characters = None
            canonical.append(rep)
        else:
            canonical.append(best)
            if characters is not None:
                if any(best.character(row) for row in rows):
                    raise SymmetryInvariantError(
                        f"quotient generator {best} does not preserve the polynomial"
                    )
                characters.append(best.num)

    group_order = abs(poly.determinant())
    if group_order != sigma.order * prod(factors):
        raise SymmetryInvariantError(
            f"group order |det A| = {group_order} is not {sigma.order} scalars "
            f"times quotient order {prod(factors)}"
        )

    return SymmetryQuotient(
        poly=poly,
        scalar_generator=sigma,
        quotient_orders=factors,
        quotient_generators=tuple(canonical),
        characters=tuple(characters) if characters is not None else None,
    )
