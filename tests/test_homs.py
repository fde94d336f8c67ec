"""Bigraded section counts and Ext dimensions, checked against an
independent brute-force monomial enumeration."""

import os
import subprocess
import sys
import textwrap
import time
from itertools import combinations_with_replacement, product
from math import comb
from pathlib import Path

import pytest

from invquot import (
    UnsupportedGeometryError,
    bidegree,
    candidate_window,
    canonical_bidegree,
    ext_dims,
    ext_dims_via_les,
    get_preset,
    hom_dim,
    hom_table,
    homs,
    monomial_dim,
    parse,
    representative_table,
    symmetry_quotient,
    verify_collection,
)
from invquot.homs import (
    BiDegree,
    ExtTable,
    _difference_table,
    all_residues,
    ambient_cohomology_dim,
    delta,
    ext_table,
    hom_dim_delta,
    hypersurface_cohomology,
    negate,
    shift,
)
from invquot.polynomials import monomial_text
from invquot.symmetry import SymmetryQuotient

PENTAGON = "x1^2*x2 + x2^2*x3 + x3^2*x4 + x4^2*x5 + x5^2*x1"
Z9 = "x1^2*x2 + x1*x2^2 + x3^2*x4 + x4^2*x5 + x3*x5^2"
FERMAT = "x1^3 + x2^3 + x3^3 + x4^3 + x5^3"
QUADRIC = "x1^2 + x2^2 + x3^2 + x4^2 + x5^2"
# quotients beside the pentagon whose counts are checked against the oracles:
# Z/9, (Z/3)^4, trivial and (Z/2)^4
OTHER_QUOTIENTS = {
    "z9": Z9,
    "fermat": FERMAT,
    "trivial": get_preset("cubic-trivial-quotient"),
    "quadric": QUADRIC,
}
SRC = Path(__file__).resolve().parent.parent / "src"

# every (a, b) with a nonzero section count in rows 0..3, written as frozen
# data so a regression in the counting code cannot hide
ROW_PATTERN = {
    0: {0: 1},
    1: {1: 1, 3: 1, 4: 1, 5: 1, 9: 1},
    2: {1: 1, 2: 2, 3: 1, 4: 1, 5: 1, 6: 2, 7: 2, 8: 2, 9: 1, 10: 2},
    3: {0: 4, 1: 3, 2: 3, 3: 3, 4: 3, 5: 3, 6: 3, 7: 3, 8: 3, 9: 3, 10: 3},
}

# vanishing cells with positive total degree
X_SET = {(1, 0), (1, 2), (1, 6), (1, 7), (1, 8), (1, 10), (2, 0)}


def oracle_monomial_count(sq, a, b_tuple):
    """Count degree-a monomials with quotient character b by enumerating
    actual monomials, bypassing the composition generator entirely."""
    if a < 0:
        return 0
    count = 0
    for combo in combinations_with_replacement(range(sq.n), a):
        exps = [0] * sq.n
        for i in combo:
            exps[i] += 1
        if sq.char_of_exponents(exps) == b_tuple:
            count += 1
    return count


def oracle_representative(sq, a, b_tuple):
    """Lexicographically smallest exponent tuple of degree a and quotient
    character b, by enumerating actual monomials; None when there is none."""
    found = []
    for combo in combinations_with_replacement(range(sq.n), a):
        exps = [0] * sq.n
        for i in combo:
            exps[i] += 1
        if sq.char_of_exponents(exps) == b_tuple:
            found.append(tuple(exps))
    return min(found, default=None)


class TestMonomialCounts:
    def test_matches_oracle_everywhere(self, sq):
        for a in range(9):
            for b in all_residues(sq):
                deg = bidegree(sq, a, list(b))
                assert monomial_dim(sq, deg) == oracle_monomial_count(sq, a, b)

    @pytest.mark.parametrize("case", sorted(OTHER_QUOTIENTS))
    def test_matches_oracle_on_other_quotients(self, case):
        sq = symmetry_quotient(parse(OTHER_QUOTIENTS[case]))
        for a in range(10):
            for b in all_residues(sq):
                deg = bidegree(sq, a, list(b))
                assert monomial_dim(sq, deg) == oracle_monomial_count(sq, a, b), (a, b)

    def test_negative_degree_is_zero(self, sq):
        assert monomial_dim(sq, bidegree(sq, -1, 0)) == 0

    def test_total_over_residues_is_binomial(self, sq):
        # degree 400 has about 10^9 monomials: only the recurrence reaches it
        for a in [*range(10), 400]:
            total = sum(
                monomial_dim(sq, bidegree(sq, a, list(b))) for b in all_residues(sq)
            )
            assert total == comb(a + 4, 4)


class TestHomDims:
    def test_frozen_row_pattern(self, sq):
        for a, row in ROW_PATTERN.items():
            for b in range(11):
                expected = row.get(b, 0)
                assert (
                    hom_dim_delta(sq, bidegree(sq, a, b)) == expected
                ), f"cell ({a}, {b})"

    def test_vanishing_set(self, sq):
        zero = {
            (a, b)
            for a in range(4)
            for b in range(11)
            if hom_dim_delta(sq, bidegree(sq, a, b)) == 0
        }
        expected = X_SET | {(0, b) for b in range(1, 11)}
        assert zero == expected

    def test_matches_oracle_differences(self, sq):
        for a in range(8):
            for b in all_residues(sq):
                expected = oracle_monomial_count(sq, a, b) - oracle_monomial_count(
                    sq, a - 3, b
                )
                assert hom_dim_delta(sq, bidegree(sq, a, list(b))) == expected

    def test_hilbert_series(self, sq):
        # sections of O(a) over all residues: cubic hypersurface Hilbert values
        for a in range(13):
            total = sum(
                hom_dim_delta(sq, bidegree(sq, a, list(b))) for b in all_residues(sq)
            )
            assert total == comb(a + 4, 4) - comb(a + 1, 4)

    def test_whole_rows(self, sq):
        # the rows the Ext table reads at large and negative total degrees
        table = ext_table(sq)
        assert sum(table.hom_row(398)) == comb(402, 4) - comb(399, 4)
        assert table.hom_row(-1) == [0] * 11

    def test_depends_only_on_difference(self, sq):
        u = bidegree(sq, 1, 4)
        v = bidegree(sq, 3, 9)
        t = bidegree(sq, 2, 7)
        assert hom_dim(sq, u, v) == hom_dim(sq, shift(sq, u, t), shift(sq, v, t))

    def test_hom_table_matches_pointwise(self, sq):
        table = hom_table(sq, 3)
        for deg, val in table.items():
            assert val == hom_dim_delta(sq, deg)
        assert len(table) == 4 * 11


class TestExtDims:
    def test_canonical_bidegree(self, sq):
        k = canonical_bidegree(sq)
        assert (k.a, k.b) == (-2, (0,))

    def test_endomorphisms(self, sq):
        o = bidegree(sq, 0, 0)
        assert ext_dims(sq, o, o) == (1, 0, 0, 0)

    def test_serre_duality_symmetry(self, sq):
        k = canonical_bidegree(sq)
        for a in range(-4, 5):
            for b in range(11):
                d = bidegree(sq, a, b)
                e = ext_dims(sq, bidegree(sq, 0, 0), d)
                dual = ext_dims(
                    sq, bidegree(sq, 0, 0), shift(sq, k, negate(sq, d))
                )
                assert e[0] == dual[3] and e[3] == dual[0]

    def test_agrees_with_long_exact_sequence(self, sq):
        o = bidegree(sq, 0, 0)
        for a in range(-6, 7):
            for b in range(11):
                d = bidegree(sq, a, b)
                assert ext_dims(sq, o, d) == ext_dims_via_les(sq, o, d), (a, b)

    def test_middle_exts_vanish(self, sq):
        o = bidegree(sq, 0, 0)
        for a in range(-6, 7):
            for b in range(11):
                e = ext_dims(sq, o, bidegree(sq, a, b))
                assert e[1] == 0 and e[2] == 0


class TestAmbientCohomology:
    def test_h0_counts_monomials(self, sq):
        for a in range(5):
            for b in range(11):
                d = bidegree(sq, a, b)
                assert ambient_cohomology_dim(sq, 0, d) == monomial_dim(sq, d)

    def test_middle_vanishes(self, sq):
        for i in (1, 2, 3):
            assert ambient_cohomology_dim(sq, i, bidegree(sq, -2, 5)) == 0

    def test_top_by_duality(self, sq):
        # H^4 of O(a) pairs with H^0 of O(-5 - a) twisted by the character
        # of the volume form
        d = bidegree(sq, -6, 0)
        dual = bidegree(sq, 1, -22)
        assert ambient_cohomology_dim(sq, 4, d) == monomial_dim(sq, dual)

    def test_hypersurface_h0(self, sq):
        for a in range(4):
            for b in range(11):
                d = bidegree(sq, a, b)
                assert hypersurface_cohomology(sq, d)[0] == hom_dim_delta(sq, d)


def _laurent_counts_by_listing(sq, a):
    """The Laurent monomials with all exponents <= -1 summing to a, listed
    one by one and tallied by character: the oracle for _neg_char_counts."""

    def compositions(total, parts):
        if parts == 1:
            yield (total,)
            return
        for first in range(total + 1):
            for rest in compositions(total - first, parts - 1):
                yield (first,) + rest

    counts = {}
    total = -sq.n - a
    for f in compositions(total, sq.n) if total >= 0 else ():
        key = sq.char_of_exponents(tuple(-1 - x for x in f))
        counts[key] = counts.get(key, 0) + 1
    return counts


class TestLaurentCounts:
    """The long-exact-sequence route's Laurent counts, by character classes,
    against listing every monomial."""

    @pytest.mark.parametrize("poly", [PENTAGON, *OTHER_QUOTIENTS.values()],
                             ids=["pentagon", *OTHER_QUOTIENTS])
    def test_match_listing(self, poly):
        # total degrees -17..2: up to 12 for the sum of the f = -1 - e
        sq = symmetry_quotient(parse(poly))
        for a in range(-17, 3):
            assert homs._neg_char_counts(sq, a) == _laurent_counts_by_listing(sq, a), a

    def test_large_degree_les_entry(self, sq):
        # one entry of total degree 80 by the LES route: 17.8 s when every
        # Laurent monomial was listed
        source, target = bidegree(sq, 80, 0), bidegree(sq, 0, 0)
        start = time.perf_counter()
        les = ext_dims_via_les(sq, source, target)
        assert time.perf_counter() - start < 1.0
        assert les == ext_dims(sq, source, target) == (0, 0, 0, 22414)

    def test_degree_400_les_entry(self, sq):
        # the Laurent counts are linear in the excess, here 395
        source, target = bidegree(sq, 400, 0), bidegree(sq, 0, 0)
        start = time.perf_counter()
        les = ext_dims_via_les(sq, source, target)
        assert time.perf_counter() - start < 1.0
        assert les == ext_dims(sq, source, target) == (0, 0, 0, 2887344)


class TestBidegreeArithmetic:
    def test_residue_normalization(self, sq):
        assert bidegree(sq, 1, 14) == bidegree(sq, 1, 3)
        assert bidegree(sq, 1, -1) == bidegree(sq, 1, 10)

    def test_delta_shift_roundtrip(self, sq):
        u = bidegree(sq, 1, 4)
        v = bidegree(sq, 3, 2)
        assert shift(sq, u, delta(sq, u, v)) == v

    def test_str_forms(self, sq):
        assert str(bidegree(sq, 2, 7)) == "(2, 7)"

    def test_rejects_wrong_residue_width(self, sq):
        with pytest.raises(ValueError):
            bidegree(sq, 1, [1, 2])


class TestTrivialQuotient:
    def test_only_zero_residue(self, trivial_sq):
        with pytest.raises(ValueError):
            bidegree(trivial_sq, 1, 5)
        deg = bidegree(trivial_sq, 1, 0)
        assert deg.b == ()

    def test_counts_are_plain_hilbert(self, trivial_sq):
        for a in range(8):
            assert monomial_dim(trivial_sq, bidegree(trivial_sq, a)) == comb(a + 4, 4)
            assert hom_dim_delta(trivial_sq, bidegree(trivial_sq, a)) == comb(
                a + 4, 4
            ) - comb(a + 1, 4)


class TestGuards:
    def test_non_split_quotient_rejected(self):
        sq = symmetry_quotient(parse("x1^3*x2 + x2^3*x1"))
        with pytest.raises(UnsupportedGeometryError):
            hom_dim_delta(sq, bidegree(sq, 1, 0))

    def test_nonstandard_weights_rejected(self):
        sq = symmetry_quotient(parse("x1^3 + x2^3 + x3^3 + x4^3 + x5^6"))
        assert sq.weights != (1, 1, 1, 1, 1)
        with pytest.raises(UnsupportedGeometryError):
            hom_dim_delta(sq, bidegree(sq, 1, [0] * len(sq.quotient_orders)))

    def test_surface_rejected_for_ext(self):
        sq = symmetry_quotient(parse("x1^2 + x2^2 + x3^2 + x4^2"))
        with pytest.raises(UnsupportedGeometryError):
            canonical_bidegree(sq)


class TestRepresentatives:
    def test_row_one_representatives(self, sq):
        reps = representative_table(sq, 1)
        assert reps[bidegree(sq, 0, 0)] == "1"
        assert reps[bidegree(sq, 1, 1)] == "x1"
        assert reps[bidegree(sq, 1, 9)] == "x2"
        assert reps[bidegree(sq, 1, 0)] is None

    def test_representatives_have_claimed_bidegree(self, sq):
        reps = representative_table(sq, 3)
        for deg, text in reps.items():
            if text is None or text == "1":
                continue
            exps = [0] * sq.n
            for factor in text.split("*"):
                name, _, power = factor.partition("^")
                exps[int(name[1:]) - 1] += int(power) if power else 1
            assert sum(exps) == deg.a
            assert sq.char_of_exponents(exps) == deg.b

    @pytest.mark.parametrize("case", ["pentagon", *sorted(OTHER_QUOTIENTS)])
    def test_match_enumeration(self, case):
        # the smallest monomial of each cell against an enumeration of every
        # monomial, in cells with sections; None exactly where there are none
        sq = symmetry_quotient(parse(OTHER_QUOTIENTS.get(case, PENTAGON)))
        reps = representative_table(sq, 4)
        assert len(reps) == 5 * len(all_residues(sq))
        for deg, text in reps.items():
            if hom_dim_delta(sq, deg) > 0:
                exps = oracle_representative(sq, deg.a, deg.b)
                assert text == monomial_text(exps), deg
            else:
                assert text is None, deg


class TestExtTable:
    @pytest.mark.parametrize("orders", [(), (11,), (2, 12), (3, 3, 6), (3, 3, 3, 3)])
    def test_difference_table(self, orders):
        residues = list(product(*(range(m) for m in orders)))
        index = {b: i for i, b in enumerate(residues)}
        diff = _difference_table(orders)
        for i, x in enumerate(residues):
            assert diff[i] == [
                index[tuple((y - z) % m for y, z, m in zip(w, x, orders))]
                for w in residues
            ]

    @pytest.mark.parametrize("poly", [PENTAGON, Z9], ids=["pentagon", "z9"])
    def test_window_entries_match_les(self, poly):
        # a fresh table, so exactly the rows the window's digraph reads are
        # filled: per difference of total degrees, the Serre row, the nonzero
        # row and the support read from it
        sq = symmetry_quotient(parse(poly))
        verts, _ = candidate_window(sq)
        table = ExtTable(sq)
        table.rows(table.layers(verts))
        o = bidegree(sq, 0, [0] * len(sq.quotient_orders))
        differences = sorted({v.a - u.a for u in verts for v in verts})
        assert sorted(table._serres) == sorted(table._nonzeros) == differences
        assert sorted(table._supports) == differences
        for a, (nonzero, support) in table._supports.items():
            assert len(table._serres[a]) == len(table._nonzeros[a]) == len(table.residues)
            for r, b in enumerate(table.residues):
                dims = ext_dims_via_les(sq, o, BiDegree(a=a, b=b))
                assert (table.hom_row(a)[r], 0, 0, table._serres[a][r]) == dims, (a, r)
                assert bool(table._nonzeros[a][r]) == any(dims), (a, r)
                assert (r in support) == (any(dims) == nonzero), (a, r)

    def test_layers(self):
        # unsorted, residues missing, a negative layer: each total degree in
        # the order the list first reaches it, the bit of each vertex at its
        # residue number
        sq = symmetry_quotient(parse(PENTAGON))
        table = ext_table(sq)
        pairs = [(2, 5), (-1, 3), (0, 0), (0, 7), (3, 1), (-1, 0), (3, 10), (2, 2)]
        verts = [bidegree(sq, a, b) for a, b in pairs]
        expected = {}
        for j, (a, b) in enumerate(pairs):
            expected.setdefault(a, [0] * 11)[b] = 1 << j
        layers = table.layers(verts)
        assert layers == expected and list(layers) == [2, -1, 0, 3]
        assert table.layers([]) == {}
        with pytest.raises(ValueError, match="given twice"):
            table.layers(verts + verts[3:4])

    @pytest.mark.parametrize(
        "case", ["fermat", "pentagon", "z9", "trivial", "irregular"]
    )
    def test_rows_match_per_pair_dims(self, case):
        # the residue-translated rows against one Ext lookup per ordered pair
        poly = {"fermat": FERMAT, "z9": Z9, "trivial": get_preset("cubic-trivial-quotient")}
        sq = symmetry_quotient(parse(poly.get(case, PENTAGON)))
        table = ext_table(sq)
        if case == "trivial":
            # one residue, so every layer is a single vertex
            verts = [bidegree(sq, a) for a in range(-4, 5)]
        elif case == "irregular":
            # unsorted, residues missing from every layer, no layer 1, and a
            # negative layer
            pairs = [(2, 5), (-1, 3), (0, 0), (0, 7), (3, 1), (-1, 0), (3, 10), (2, 2)]
            verts = [bidegree(sq, a, b) for a, b in pairs]
            with pytest.raises(ValueError, match="given twice"):
                table.rows(table.layers(verts + verts[3:4]))
        else:
            verts, _ = candidate_window(sq)
        out = table.rows(table.layers(verts))
        assert out == [
            sum(
                1 << j
                for j, v in enumerate(verts)
                if i != j and any(ext_dims(sq, u, v))
            )
            for i, u in enumerate(verts)
        ]
        if case == "fermat":
            # nonzero counts per difference row reach 0 and 81, and both
            # branches ran
            assert len(verts) == 518 and sum(map(int.bit_count, out)) == 53_449
            sizes = {
                len(support) if nonzero else 81 - len(support)
                for nonzero, support in table._supports.values()
            }
            assert {0, 81} <= sizes
            assert {nonzero for nonzero, _ in table._supports.values()} == {True, False}

    def test_quotients_do_not_share_entries(self, sq, trivial_sq):
        # queried in alternation, each quotient answers from its own table
        o, t = bidegree(sq, 0, 0), bidegree(trivial_sq, 0)
        for a in range(-4, 5):
            for b in range(11):
                d = bidegree(sq, a, b)
                assert ext_dims(sq, o, d) == ext_dims_via_les(sq, o, d), (a, b)
                e = bidegree(trivial_sq, a)
                assert ext_dims(trivial_sq, t, e) == ext_dims_via_les(trivial_sq, t, e), a
        assert ext_table(sq) is ext_table(sq)
        assert ext_table(sq) is not ext_table(trivial_sq)
        assert len(ext_table(trivial_sq).residues) == 1

    def test_les_counts_kept_with_quotient(self, monkeypatch):
        # queried in alternation, the long-exact-sequence route of each
        # quotient reads Laurent counts from its own table, kept with the
        # quotient: it never hashes the quotient and reads no Ext entry
        first = symmetry_quotient(parse(PENTAGON))
        second = symmetry_quotient(parse(get_preset("cubic-trivial-quotient")))
        o, t = bidegree(first, 0, 0), bidegree(second, 0)
        pairs = [
            (sq, base, d)
            for a in range(-6, 7)
            for sq, base, d in [(first, o, bidegree(first, a, b)) for b in range(11)]
            + [(second, t, bidegree(second, a))]
        ]

        def no_hash(self):
            raise AssertionError("quotient hashed")

        monkeypatch.setattr(SymmetryQuotient, "__hash__", no_hash)
        les = [ext_dims_via_les(sq, base, d) for sq, base, d in pairs]
        monkeypatch.undo()
        for table in (ext_table(first), ext_table(second)):
            # the Serre-duality route's rows stay empty
            assert not table._homs and not table._serres
            assert not table._nonzeros and not table._supports
        assert first.derived["neg_counts"] is not second.derived["neg_counts"]
        assert sorted(first.derived["neg_counts"]) == list(range(-9, 7))
        assert any(dims[3] for dims in les)
        assert les == [ext_dims(sq, base, d) for sq, base, d in pairs]

    def test_serre_route_enumerates_nothing(self, monkeypatch):
        # counts, sections, Ext rows, the window, verification and
        # representatives come from the count recurrence; only the
        # long-exact-sequence route reads the Laurent counts, and neither
        # route lists a monomial
        def laurent_counts(sq, a):
            raise AssertionError("Laurent counts read")

        monkeypatch.setattr(homs, "_neg_char_counts", laurent_counts)
        sq = symmetry_quotient(parse(PENTAGON))
        verts, _ = candidate_window(sq)
        assert verify_collection(sq, verts).violations
        assert len(hom_table(sq, 30)) == len(representative_table(sq, 30)) == 31 * 11
        assert ext_dims(sq, verts[0], bidegree(sq, 400, 0))[0] > 0
        with pytest.raises(AssertionError, match="Laurent counts read"):
            ext_dims_via_les(sq, bidegree(sq, 2, 0), verts[0])

    def test_unnormalized_residue(self, sq):
        o = bidegree(sq, 0, 0)
        raw = BiDegree(a=1, b=(14,))
        assert ext_dims(sq, o, raw) == ext_dims(sq, o, bidegree(sq, 1, 3))
        with pytest.raises(ValueError):
            ext_dims(sq, o, BiDegree(a=1, b=(1, 2)))

    def test_table_lives_with_quotient(self):
        # an equal quotient parsed again gets its own table; the table is not
        # part of the quotient's value
        first = symmetry_quotient(parse(PENTAGON))
        h = hash(first)
        table = ext_table(first)
        ext_dims(first, bidegree(first, 0, 0), bidegree(first, 2, 3))
        assert ext_table(first) is table and table._homs and table._serres
        again = symmetry_quotient(parse(PENTAGON))
        assert again == first and hash(again) == h
        fresh = ext_table(again)
        assert fresh is not table
        assert not fresh._counts and not fresh._homs and not fresh._serres
        assert not fresh._nonzeros and not fresh._supports


class TestLesInvariantErrors:
    def test_raise_under_optimize(self):
        # python -O strips asserts; the typed error must still fire
        script = textwrap.dedent(
            f"""
            assert False, "stripped under -O"
            from invquot import CohomologyInvariantError, bidegree, homs, parse
            from invquot import symmetry_quotient

            sq = symmetry_quotient(parse({PENTAGON!r}))
            real = homs.ambient_cohomology_dim
            for bad in (1, 3, 4):
                # a nonzero H^1, a nonzero H^3 in degree 1 only, or an H^4
                # growing with the degree
                homs.ambient_cohomology_dim = lambda sq, i, deg: (
                    deg.a + 100 if i == bad and (bad != 3 or deg.a == 1)
                    else real(sq, i, deg)
                )
                try:
                    homs.hypersurface_cohomology(sq, bidegree(sq, 1, 0))
                except CohomologyInvariantError as exc:
                    print("raised:", exc)
            """
        )
        proc = subprocess.run(
            [sys.executable, "-O", "-c", script],
            capture_output=True, text=True, env={**os.environ, "PYTHONPATH": str(SRC)},
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines() == [
            "raised: H^0 of (1, 0): multiplication by W is not injective on sections",
            "raised: H^3 of (1, 0): ambient H^3 is nonzero",
            "raised: H^3 of (1, 0): H^4(P, deg - w) -> H^4(P, deg) is not surjective",
        ]
