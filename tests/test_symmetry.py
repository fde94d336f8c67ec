"""Diagonal symmetry groups, the scalar subgroup, and the quotient data."""

import os
import random
import subprocess
import sys
import textwrap
from collections import Counter
from fractions import Fraction
from math import gcd, lcm, prod
from pathlib import Path

import pytest
import sympy
from hypothesis import given, settings, strategies as st

from invquot import (
    DegenerateLoopError,
    DiagonalElement,
    FiniteAbelianGroup,
    InvertiblePolynomial,
    InvquotError,
    SingularMatrixError,
    SymmetryInvariantError,
    UnsupportedGeometryError,
    candidate_window,
    det,
    diagonal_symmetry_group,
    loop_generator,
    max_exceptional,
    parse,
    smith_normal_form,
    spans_group,
    symmetry_group_of_matrix,
    symmetry_quotient,
)
from invquot import lattice, symmetry
from invquot.cli import main
from invquot.polynomials import from_matrix
from invquot.presets import PRESETS
from invquot.symmetry import _quotient_class_reps

from test_search import LADDER

SRC = Path(__file__).resolve().parent.parent / "src"


def phases(element: DiagonalElement) -> tuple:
    """The phases num_i / den of an element as Fractions."""
    return tuple(Fraction(x, element.den) for x in element.num)


def from_fractions(fractions) -> DiagonalElement:
    """The element with the given phases, rationals reduced mod 1."""
    fractions = [Fraction(p) for p in fractions]
    den = lcm(*(p.denominator for p in fractions))
    return DiagonalElement.of([p.numerator * (den // p.denominator) for p in fractions], den)


def mul(g: DiagonalElement, h: DiagonalElement) -> DiagonalElement:
    """The product of two elements: phases added over a common denominator."""
    d = lcm(g.den, h.den)
    return DiagonalElement.of(
        [x * (d // g.den) + y * (d // h.den) for x, y in zip(g.num, h.num)], d
    )


def power(g: DiagonalElement, k: int) -> DiagonalElement:
    """The k-th power of an element: its phases times k."""
    return DiagonalElement.of([x * k for x in g.num], g.den)


def identity(n: int) -> DiagonalElement:
    """The identity element on n variables."""
    return DiagonalElement(num=(0,) * n, den=1)


def is_cyclic(group: FiniteAbelianGroup) -> bool:
    return len(group.invariant_factors) <= 1


def intersection_group(sq) -> FiniteAbelianGroup:
    """The scalar symmetries: cyclic, generated by the weight phases."""
    if sq.scalar_order == 1:
        return FiniteAbelianGroup(nvars=sq.n, invariant_factors=(), generators=())
    return FiniteAbelianGroup(
        nvars=sq.n, invariant_factors=(sq.scalar_order,), generators=(sq.scalar_generator,)
    )


def quotient_group(sq) -> FiniteAbelianGroup:
    """The quotient realized inside the torus; needs the split model."""
    if sq.characters is None:
        raise UnsupportedGeometryError(
            "scalar subgroup does not split off, no torus model of the quotient"
        )
    return FiniteAbelianGroup(
        nvars=sq.n, invariant_factors=sq.quotient_orders, generators=sq.quotient_generators
    )


def generated_residues(nvars: int, generators, modulus: int) -> frozenset:
    """Reference for spans_group: every element of the subgroup the given
    elements generate, as residue vectors mod modulus (every order must
    divide it), by breadth-first closure."""
    vecs = [g.residues(modulus) for g in generators if g.order > 1]
    zero = (0,) * nvars
    seen = {zero}
    frontier = [zero]
    while frontier:
        cur = frontier.pop()
        for v in vecs:
            nxt = tuple((a + b) % modulus for a, b in zip(cur, v))
            if nxt not in seen:
                seen.add(nxt)
                frontier.append(nxt)
    return frozenset(seen)


def brute_force_group_residues(m, modulus: int) -> frozenset:
    """All t in (Z/modulus)^n with m @ (t/modulus) integral: the full
    diagonal symmetry group when modulus is a multiple of every element
    order (|det m| always works)."""
    n = len(m[0])
    out = set()

    def rec(i, t):
        if i == n:
            vec = tuple(t)
            for row in m:
                if sum(a * x for a, x in zip(row, vec)) % modulus:
                    return
            out.add(vec)
            return
        for x in range(modulus):
            t.append(x)
            rec(i + 1, t)
            t.pop()

    rec(0, [])
    return frozenset(out)


class TestDiagonalElement:
    def test_canonical_reduction(self):
        e = DiagonalElement.of((2, 4), 8)
        assert (e.num, e.den) == ((1, 2), 4)

    def test_of_reduces_mod_den(self):
        assert DiagonalElement.of((9, -1), 8).num == (1, 7)

    def test_identity(self):
        e = identity(3)
        assert e.den == 1 and e.order == 1 and e.n == 3

    def test_mul_and_inverse(self):
        g = DiagonalElement.of((1, 3), 4)
        h = DiagonalElement.of((1, 1), 6)
        gh = mul(g, h)
        # phases live in [0, 1): 3/4 + 1/6 stays 11/12
        assert phases(gh) == (Fraction(5, 12), Fraction(11, 12))
        assert mul(g, power(g, g.order - 1)) == identity(2)

    def test_pow_matches_repeated_mul(self):
        g = DiagonalElement.of((1, 4, 2), 9)
        acc = identity(3)
        for k in range(1, 12):
            acc = mul(acc, g)
            assert power(g, k) == acc

    def test_order_is_exact(self):
        g = DiagonalElement.of((2, 3), 12)
        assert g.den == 12 and g.order == 12
        for k in range(1, 12):
            assert power(g, k) != identity(2)
        assert power(g, 12) == identity(2)

    def test_character_and_residues(self):
        g = DiagonalElement.of((1, 9, 4, 3, 5), 11)
        assert g.residues(11) == (1, 9, 4, 3, 5)
        assert g.residues(33) == (3, 27, 12, 9, 15)
        assert g.character((2, 1, 0, 0, 0)) == 0  # first pentagon monomial
        assert g.character((1, 0, 0, 0, 0)) == 1

    @given(
        st.integers(2, 12),
        st.lists(st.integers(0, 11), min_size=2, max_size=4),
        st.lists(st.integers(0, 11), min_size=2, max_size=4),
    )
    @settings(max_examples=120, derandomize=True)
    def test_group_axioms(self, den, a, b):
        n = min(len(a), len(b))
        g = DiagonalElement.of(tuple(a[:n]), den)
        h = DiagonalElement.of(tuple(b[:n]), den)
        assert mul(g, h) == mul(h, g)
        assert mul(mul(g, h), power(g, g.order - 1)) == h
        assert power(mul(g, h), 3) == mul(power(g, 3), power(h, 3))
        assert g.order == min(
            k for k in range(1, den + 1) if power(g, k) == identity(n)
        )


class TestSymmetryGroup:
    def test_pentagon_group(self, pentagon_poly):
        g = diagonal_symmetry_group(pentagon_poly)
        assert g.order == 33
        assert g.invariant_factors == (33,)
        assert is_cyclic(g)
        expected = DiagonalElement.of((1, 31, 4, 25, 16), 33)
        assert spans_group(g, [expected])
        assert len(generated_residues(g.nvars, g.generators, g.exponent)) == g.order

    def test_brute_force_small_matrices(self):
        rng = random.Random(40)
        checked = 0
        while checked < 25:
            n = rng.randint(1, 2)
            m = [[rng.randint(0, 4) for _ in range(n)] for _ in range(n)]
            if det(m) == 0:
                continue
            checked += 1
            group = symmetry_group_of_matrix(m)
            modulus = abs(det(m))
            assert group.order == modulus
            assert generated_residues(n, group.generators, modulus) == brute_force_group_residues(
                m, modulus
            )

    def test_brute_force_three_by_three(self):
        m = [[2, 1, 0], [0, 2, 1], [0, 0, 2]]
        group = symmetry_group_of_matrix(m)
        assert group.order == 8
        assert generated_residues(3, group.generators, 8) == brute_force_group_residues(m, 8)

    def test_order_equals_abs_det(self):
        rng = random.Random(41)
        for _ in range(40):
            n = rng.randint(1, 4)
            m = [[rng.randint(0, 3) for _ in range(n)] for _ in range(n)]
            if det(m) == 0:
                with pytest.raises(SingularMatrixError):
                    symmetry_group_of_matrix(m)
            else:
                assert symmetry_group_of_matrix(m).order == abs(det(m))

    def test_generators_satisfy_matrix(self, pentagon_poly):
        group = diagonal_symmetry_group(pentagon_poly)
        for gen in group.generators:
            for row in pentagon_poly.matrix:
                assert gen.character(row) == 0

    def test_same_subgroup_distinguishes(self):
        m = [[4, 0], [0, 2]]
        g = symmetry_group_of_matrix(m)
        assert not spans_group(g, [DiagonalElement.of((1, 0), 2)])
        assert spans_group(
            g, [DiagonalElement.of((1, 0), 4), DiagonalElement.of((0, 1), 2)]
        )

    def test_generated_residues_closure(self):
        # the test-side reference that spans_group is checked against
        gens = [DiagonalElement.of((1, 0), 4), DiagonalElement.of((0, 1), 2)]
        res = generated_residues(2, gens, 4)
        assert len(res) == 8
        assert (3, 2) in res

    def test_spans_group_against_the_closure(self):
        # seeded groups of up to three variables, each with a list of
        # elements from inside the group or from a torus of the group's
        # exponent: spans_group, by orders, agrees with listing both sets
        rng = random.Random(2026_10)
        outcomes = Counter()
        while sum(outcomes.values()) < 1_500:
            n = rng.randint(1, 3)
            m = [[rng.randint(0, 4) for _ in range(n)] for _ in range(n)]
            if det(m) == 0:
                continue
            group = symmetry_group_of_matrix(m)
            e = group.exponent
            elements = []
            for _ in range(rng.randint(0, 3)):
                if rng.random() < 0.8:
                    element = identity(n)
                    for f, g in zip(group.invariant_factors, group.generators):
                        element = mul(element, power(g, rng.randrange(f)))
                else:
                    element = DiagonalElement.of([rng.randrange(e) for _ in range(n)], e)
                elements.append(element)
            modulus = lcm(e, *(g.order for g in elements))
            expected = generated_residues(n, elements, modulus) == generated_residues(
                n, group.generators, modulus
            )
            assert spans_group(group, elements) is expected, (m, elements)
            outcomes[expected] += 1
        assert outcomes[True] > 300 and outcomes[False] > 300

    def test_spans_a_group_too_large_to_list(self):
        # the five-variable loop with exponents 20 has 3,200,001 symmetries;
        # spans_group decides it by orders, without listing any of them
        group = diagonal_symmetry_group(
            parse("x1^20*x2 + x2^20*x3 + x3^20*x4 + x4^20*x5 + x5^20*x1")
        )
        assert group.order == 3_200_001
        gen = loop_generator((20,) * 5)
        assert spans_group(group, [gen])
        assert spans_group(group, [power(gen, 2), power(gen, 3)])
        assert not spans_group(group, [power(gen, 3_200_001)])


class TestLoopFormula:
    def test_pentagon_loop(self):
        g = loop_generator((2, 2, 2, 2, 2))
        assert g.den == 33
        assert g.num == (32, 2, 29, 8, 17)

    def test_degenerate_loop(self):
        # even length, all ones: product + 1*(-1)^(n+1) = 0
        with pytest.raises(DegenerateLoopError):
            loop_generator((1, 1))

    def test_matches_smith_form_on_random_loops(self):
        rng = random.Random(2026_08)
        checked = 0
        while checked < 60:
            n = rng.randint(2, 6)
            exps = [rng.randint(1, 4) for _ in range(n)]
            if prod(exps) + (-1) ** (n + 1) == 0:
                continue
            checked += 1
            rows = []
            for i in range(n):
                row = [0] * n
                row[i] = exps[i]
                row[(i + 1) % n] = 1
                rows.append(row)
            group = symmetry_group_of_matrix(rows)
            gen = loop_generator(tuple(exps))
            assert spans_group(group, [gen])

    def test_loop_generator_kills_all_monomials(self):
        g = loop_generator((3, 2, 4))
        rows = [(3, 1, 0), (0, 2, 1), (1, 0, 4)]
        for row in rows:
            assert g.character(row) == 0


class TestSymmetryQuotient:
    def test_pentagon_quotient(self, sq):
        assert sq.scalar_order == 3
        assert sq.scalar_generator == DiagonalElement.of((1, 1, 1, 1, 1), 3)
        assert sq.quotient_orders == (11,)
        assert sq.quotient_is_cyclic
        assert sq.splitting == (1, 0, 0, 0, 0)
        assert sq.characters == ((1, 9, 4, 3, 5),)
        (rho,) = sq.quotient_generators
        assert (rho.num, rho.den) == ((1, 9, 4, 3, 5), 11)

    def test_characters_sum_to_zero_mod_order(self, sq):
        (chars,) = sq.characters
        assert sum(chars) % 11 == 0

    def test_quotient_generator_kills_monomials(self, sq):
        (rho,) = sq.quotient_generators
        for row in sq.poly.matrix:
            assert rho.character(row) == 0

    def test_group_factorizes(self, sq):
        # scalar subgroup and quotient generator together span the full group
        assert spans_group(sq.group, [sq.scalar_generator, *sq.quotient_generators])
        assert sq.group.order == sq.scalar_order * sq.quotient_order

    def test_intersection_group(self, sq):
        inter = intersection_group(sq)
        assert inter.order == 3
        assert spans_group(inter, [sq.scalar_generator])

    def test_char_of_exponents(self, sq):
        assert sq.char_of_exponents((1, 0, 0, 0, 0)) == (1,)
        assert sq.char_of_exponents((0, 1, 0, 0, 0)) == (9,)
        assert sq.char_of_exponents((1, 1, 1, 1, 1)) == (0,)

    def test_scalar_has_exact_order(self, sq):
        assert sq.scalar_generator.order == sq.degree

    def test_non_split_quotient(self):
        sq = symmetry_quotient(parse("x1^3*x2 + x2^3*x1"))
        assert sq.group.order == 8
        assert sq.scalar_order == 4
        assert sq.quotient_orders == (2,)
        assert sq.characters is None
        with pytest.raises(UnsupportedGeometryError):
            quotient_group(sq)

    def test_multi_factor_quotient(self):
        sq = symmetry_quotient(parse("x1^2 + x2^2 + x3^2 + x4^2 + x5^2"))
        assert sq.scalar_order == 2
        assert sq.quotient_orders == (2, 2, 2, 2)
        assert sq.characters is not None
        assert len(sq.characters) == 4

    def test_trivial_quotient(self, trivial_sq):
        assert trivial_sq.group.order == 3
        assert trivial_sq.scalar_order == 3
        assert trivial_sq.quotient_orders == ()
        assert trivial_sq.quotient_order == 1
        assert trivial_sq.characters == ()

    def test_quotient_rep_classes_are_distinct(self, sq):
        # powers of the quotient generator must hit 11 distinct cosets of
        # the scalar subgroup
        (rho,) = sq.quotient_generators
        scalar_res = {
            power(sq.scalar_generator, k).residues(33) for k in range(3)
        }
        seen = set()
        for k in range(11):
            rep = power(rho, k).residues(33)
            coset = frozenset(
                tuple((r + s) % 33 for r, s in zip(rep, srs)) for srs in scalar_res
            )
            assert coset not in seen
            seen.add(coset)


def rational_route_reps(a):
    """Quotient invariant factors and representatives A^-1 U^-1 e_i, from the
    Smith form (diagonal, V) of [A | 1], computed over the rationals by sympy:
    U^-1 e_i is column i of [A | 1] V divided by d_i."""
    a1 = [list(row) + [1] for row in a]
    diagonal, v = smith_normal_form(a1)
    a1v = sympy.Matrix(a1) * sympy.Matrix(v)
    a_sym = sympy.Matrix(a)
    factors, reps = [], []
    for i, d in enumerate(diagonal):
        if d > 1:
            col = a_sym.LUsolve(a1v[:, i] / d)
            factors.append(d)
            reps.append(
                from_fractions(Fraction(int(x.p), int(x.q)) for x in col)
            )
    return tuple(factors), tuple(reps)


class TestQuotientClassReps:
    def test_matches_rational_route(self):
        # the representatives read off V are the same elements as those of
        # the inverse-of-U route, on split, non-split and multi-factor inputs
        rng = random.Random(0)
        inputs = [
            parse("x1^2 + x2^2 + x3^2 + x4^2 + x5^2"),
            parse("x1^3 + x2^3 + x3^3 + x4^3 + x5^3"),
            parse("x1*x2^3 + x1^3*x2"),
            parse("x1^2*x2 + x2^2*x3 + x3^2*x4 + x4^2*x5 + x5^2*x1"),
        ]
        while len(inputs) < 200:
            n = rng.randint(1, 6)
            try:
                inputs.append(
                    from_matrix([[rng.choice((0, 0, 1, 2, 3)) for _ in range(n)] for _ in range(n)])
                )
            except InvquotError:
                pass
        kinds = Counter()
        for poly in inputs:
            assert _quotient_class_reps(poly) == rational_route_reps(poly.matrix)
            sq = symmetry_quotient(poly)
            kinds["negative determinant"] += poly.determinant() < 0
            kinds["non-split"] += sq.characters is None
            kinds["multi-factor"] += len(sq.quotient_orders) > 1
        assert min(kinds.values()) > 0 and len(kinds) == 3, kinds


def reference_generators(poly):
    """The canonical quotient generators and characters, every candidate
    built as a DiagonalElement: for each factor m, every product of its
    representative with a power sigma^t of the scalar generator, and every
    power k <= m coprime to m of that product; the candidate of exact order
    m with the smallest phase vector wins, and a factor without one leaves
    its representative and no characters."""
    sigma = DiagonalElement.of(poly.weights, poly.degree)
    canonical, characters = [], []
    for m, rep in zip(*_quotient_class_reps(poly)):
        best = None
        for t in range(sigma.order):
            base = mul(rep, power(sigma, t))
            for k in range(1, m + 1):
                if gcd(k, m) != 1:
                    continue
                cand = power(base, k)
                if cand.order == m and (best is None or cand.num < best.num):
                    best = cand
        if best is None:
            characters = None
            canonical.append(rep)
        else:
            canonical.append(best)
            if characters is not None:
                characters.append(best.num)
    return tuple(canonical), None if characters is None else tuple(characters)


def random_polynomials(seed: int, count: int):
    """count seeded random invertible polynomials in 2 to 5 variables, from
    exponent matrices with entries 0 to 3 that pass from_matrix."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        n = rng.randint(2, 5)
        try:
            out.append(
                from_matrix([[rng.choice((0, 0, 0, 1, 2, 3)) for _ in range(n)] for _ in range(n)])
            )
        except InvquotError:
            pass
    return out


class TestCanonicalGenerators:
    @pytest.mark.parametrize("name", [*PRESETS, *LADDER])
    def test_named_inputs_match_the_reference(self, name):
        # both presets and the 16 ladder inputs, Z/9 (loop2+loop3) among them
        poly = parse({**PRESETS, **LADDER}[name])
        sq = symmetry_quotient(poly)
        assert (sq.quotient_generators, sq.characters) == reference_generators(poly)

    def test_random_polynomials_match_the_reference(self):
        kinds = Counter()
        for poly in random_polynomials(2026_23, 1_000):
            sq = symmetry_quotient(poly)
            assert (sq.quotient_generators, sq.characters) == reference_generators(poly), poly
            kinds["weighted"] += len(set(poly.weights)) > 1
            kinds["non-split"] += sq.characters is None
            kinds["multi-factor"] += len(sq.quotient_orders) > 1
        assert len(kinds) == 3 and min(kinds.values()) >= 10, kinds


class TestOneSmithForm:
    """A run builds the scalar quotient from the one Smith form of [A | 1]:
    neither the full group nor the splitting coefficients, each of which
    takes a Smith form of its own, unless it is read."""

    @pytest.fixture
    def smith_calls(self, monkeypatch):
        calls = []
        real = lattice.smith_normal_form

        def counted(matrix):
            calls.append(matrix)
            return real(matrix)

        def unread(*args):
            raise AssertionError("built, though the run does not read it")

        monkeypatch.setattr(lattice, "smith_normal_form", counted)
        monkeypatch.setattr(symmetry, "smith_normal_form", counted)
        monkeypatch.setattr(symmetry, "diagonal_symmetry_group", unread)
        monkeypatch.setattr(symmetry, "splitting_coefficients", unread)
        return calls

    def test_headline_search(self, smith_calls, capsys):
        assert main(["search", "--preset", "lu-counterexample", "-f", "json"]) == 0
        assert "24 < 54" in capsys.readouterr().out
        assert len(smith_calls) == 1

    @pytest.mark.parametrize("name", list(LADDER))
    def test_ladder_run(self, smith_calls, name):
        sq = symmetry_quotient(parse(LADDER[name]))
        window, _ = candidate_window(sq)
        sub = random.Random(name).sample(window, min(20, len(window)))
        assert max_exceptional(sq, vertices=sub).size > 0
        assert len(smith_calls) == 1

    def test_group_and_splitting_on_read(self, sq):
        # each read builds them afresh, from the polynomial alone
        assert sq.group == diagonal_symmetry_group(sq.poly) and sq.group is not sq.group
        assert sq.splitting == lattice.splitting_coefficients(sq.weights)


class TestGroupOrderRoutes:
    """|det A| by Bareiss elimination against the Smith form's invariant
    factors: a mutation on either side raises."""

    def test_group_of_matrix_with_a_dropped_smith_factor(self, monkeypatch, pentagon_poly):
        real = symmetry.smith_normal_form

        def dropped(matrix):
            diagonal, v = real(matrix)
            return (*diagonal[:-1], 1), v

        monkeypatch.setattr(symmetry, "smith_normal_form", dropped)
        with pytest.raises(SymmetryInvariantError, match=r"multiply to 1, not \|det A\| = 33"):
            symmetry_group_of_matrix(pentagon_poly.matrix)

    def test_group_of_matrix_with_a_wrong_determinant(self, monkeypatch, pentagon_poly):
        monkeypatch.setattr(symmetry, "det", lambda rows: 66)
        with pytest.raises(SymmetryInvariantError, match=r"multiply to 33, not \|det A\| = 66"):
            symmetry_group_of_matrix(pentagon_poly.matrix)

    def test_quotient_with_a_dropped_factor(self, monkeypatch, pentagon_poly):
        real = symmetry._quotient_class_reps
        monkeypatch.setattr(
            symmetry, "_quotient_class_reps",
            lambda poly: tuple(part[:-1] for part in real(poly)),
        )
        with pytest.raises(SymmetryInvariantError, match="33 is not 3 scalars times quotient order 1"):
            symmetry_quotient(pentagon_poly)

    def test_quotient_with_a_wrong_determinant(self, monkeypatch, pentagon_poly):
        monkeypatch.setattr(InvertiblePolynomial, "determinant", lambda self: -66)
        with pytest.raises(SymmetryInvariantError, match="66 is not 3 scalars times quotient order 11"):
            symmetry_quotient(pentagon_poly)


class TestInvariantErrors:
    def test_raise_under_optimize(self):
        # python -O strips asserts; the typed errors of the symmetry and
        # lattice kernels must still fire
        script = textwrap.dedent(
            """
            assert False, "stripped under -O"
            from invquot import (
                DiagonalElement, LatticeInvariantError,
                SymmetryInvariantError, lattice,
            )
            from invquot.symmetry import FiniteAbelianGroup

            for make in (
                lambda: DiagonalElement(num=(3, 1), den=2),
                lambda: DiagonalElement(num=(2, 4), den=6),
                lambda: FiniteAbelianGroup(
                    nvars=2, invariant_factors=(3,),
                    generators=(DiagonalElement.of((1, 1), 2),),
                ),
            ):
                try:
                    make()
                except SymmetryInvariantError as exc:
                    print("raised:", exc)
            # the weight solve's elimination, made to give every determinant 1
            lattice._cramer = lambda rows: (1, [1] * len(rows))
            try:
                lattice.solve_positive_weights([[2, 0], [0, 1]])
            except LatticeInvariantError as exc:
                print("raised:", exc)
            """
        )
        proc = subprocess.run(
            [sys.executable, "-O", "-c", script],
            capture_output=True, text=True, env={**os.environ, "PYTHONPATH": str(SRC)},
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines() == [
            "raised: phases (3, 1) are not reduced mod 2",
            "raised: phases (2, 4) over 6 share a common factor",
            "raised: generator DiagonalElement(num=(1, 1), den=2) does not have "
            "order 3 on 2 variables",
            "raised: weights (1, 1) do not give every monomial degree 2",
        ]
