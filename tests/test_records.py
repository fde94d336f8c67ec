"""The record classes: construction, equality, hashing, order, immutability
and text, pinned field by field; and what importing the package loads."""

import os
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

from invquot import (
    AtomicDecomposition,
    BiDegree,
    Block,
    CollectionReport,
    DiagonalElement,
    FiniteAbelianGroup,
    InvertiblePolynomial,
    SearchResult,
    SymmetryInvariantError,
    SymmetryQuotient,
    atomic_decomposition,
    bidegree,
    enumerate_sectors,
    max_exceptional,
    symmetry_quotient,
    untwisted_invariants,
    verify_collection,
)
from invquot.chen_ruan import Sector, UntwistedData

FIELDS = {
    Sector: ("element", "class_powers", "eigenphase", "fixed_coords", "contribution"),
    UntwistedData: ("hyperplane_classes", "middle_full", "middle_invariant"),
    BiDegree: ("a", "b"),
    InvertiblePolynomial: ("matrix", "weights", "degree", "quasi_smooth_certified"),
    Block: ("kind", "variables", "exponents"),
    AtomicDecomposition: ("blocks",),
    CollectionReport: ("valid", "size", "violations"),
    SearchResult: ("size", "witness", "witness_set", "optimal", "vertices", "proof_log"),
    DiagonalElement: ("num", "den"),
    FiniteAbelianGroup: ("nvars", "invariant_factors", "generators"),
    SymmetryQuotient: (
        "poly", "scalar_generator", "quotient_orders", "quotient_generators", "characters",
    ),
}
FROZEN = [cls for cls in FIELDS if cls is not SearchResult]
SRC = Path(__file__).resolve().parent.parent / "src"


@pytest.fixture(scope="module")
def records(pentagon_poly):
    """One instance of every record class, taken from the pentagon."""
    poly = pentagon_poly
    sq = symmetry_quotient(poly)
    small = [bidegree(sq, 0, b) for b in range(3)]
    return {
        Sector: enumerate_sectors(sq)[0],
        UntwistedData: untwisted_invariants(sq),
        BiDegree: bidegree(sq, 1, 2),
        InvertiblePolynomial: poly,
        Block: atomic_decomposition(poly).blocks[0],
        AtomicDecomposition: atomic_decomposition(poly),
        CollectionReport: verify_collection(sq, small),
        SearchResult: max_exceptional(sq, vertices=small),
        DiagonalElement: sq.scalar_generator,
        FiniteAbelianGroup: sq.group,
        SymmetryQuotient: sq,
    }


def values(obj):
    return tuple(getattr(obj, name) for name in FIELDS[type(obj)])


@pytest.mark.parametrize("cls", FIELDS, ids=lambda c: c.__name__)
class TestEveryRecord:
    def test_keyword_and_positional_construction(self, records, cls):
        obj = records[cls]
        by_name = cls(**dict(zip(FIELDS[cls], values(obj))))
        by_position = cls(*values(obj))
        assert by_name == obj and by_position == obj
        assert values(by_name) == values(by_position) == values(obj)
        with pytest.raises(TypeError):
            cls(*values(obj), None)
        # as a Python signature would: each missing field (SearchResult's
        # proof_log is optional), an unknown keyword, a field given twice
        by_keyword = dict(zip(FIELDS[cls], values(obj)))
        for name in FIELDS[cls]:
            if name != "proof_log":
                with pytest.raises(TypeError):
                    cls(**{k: v for k, v in by_keyword.items() if k != name})
        with pytest.raises(TypeError):
            cls(**by_keyword, unknown=None)
        first = FIELDS[cls][0]
        with pytest.raises(TypeError):
            cls(*values(obj), **{first: by_keyword[first]})

    def test_equal_only_to_its_own_class(self, records, cls):
        obj = records[cls]
        twin = SimpleNamespace(**dict(zip(FIELDS[cls], values(obj))))
        sub = type("Sub", (cls,), {})(*values(obj))
        for other in (twin, sub, values(obj)):
            assert obj != other and not obj == other
        assert obj == cls(*values(obj)) and not obj != cls(*values(obj))

    def test_repr_lists_the_fields_in_order(self, records, cls):
        obj = records[cls]
        fields = ", ".join(
            f"{name}={value!r}"
            for name, value in zip(FIELDS[cls], values(obj))
            if name != "proof_log"
        )
        assert repr(obj) == f"{cls.__name__}({fields})"


@pytest.mark.parametrize("cls", FROZEN, ids=lambda c: c.__name__)
class TestFrozenRecord:
    def test_hash_is_that_of_the_field_tuple(self, records, cls):
        obj = records[cls]
        assert hash(obj) == hash(values(obj)) == hash(cls(*values(obj)))

    def test_fields_cannot_be_assigned_or_deleted(self, records, cls):
        obj = records[cls]
        for name in FIELDS[cls]:
            with pytest.raises(AttributeError):
                setattr(obj, name, None)
            with pytest.raises(AttributeError):
                delattr(obj, name)
        with pytest.raises(AttributeError):
            obj.extra = 1
        assert values(obj) == values(cls(*values(obj)))


class TestBiDegree:
    def test_ordered_by_a_then_b(self):
        x, y, z = BiDegree(0, (5,)), BiDegree(1, (0,)), BiDegree(1, (3,))
        assert x < y < z and z > y > x and x <= x and z >= z
        assert not y < x and not x > y
        assert sorted([z, x, y]) == [x, y, z]
        assert min([z, y, x]) is x and max([x, z, y]) is z

    def test_no_order_or_equality_with_a_tuple(self):
        v = BiDegree(0, (0,))
        assert v != (0, (0,)) and (0, (0,)) != v
        for compare in (
            lambda: v < (0, (0,)),
            lambda: v <= (0, (0,)),
            lambda: v > (0, (0,)),
            lambda: v >= (0, (0,)),
        ):
            with pytest.raises(TypeError):
                compare()

    def test_text(self):
        assert repr(BiDegree(a=1, b=(2,))) == "BiDegree(a=1, b=(2,))"
        assert str(BiDegree(1, (2,))) == "(1, 2)"
        assert str(BiDegree(-3, (1, 4))) == "(-3, 1.4)"
        assert f"{BiDegree(0, ())}" == "(0, )"


class TestDiagonalElement:
    def test_text(self):
        g = DiagonalElement(num=(1, 0, 2), den=3)
        assert repr(g) == str(g) == "DiagonalElement(num=(1, 0, 2), den=3)"

    @pytest.mark.parametrize(
        "num, den, message",
        [
            ((0,), 0, "denominator 0 is not positive"),
            ((3, 1), 3, r"phases \(3, 1\) are not reduced mod 3"),
            ((2, 4), 6, r"phases \(2, 4\) over 6 share a common factor"),
        ],
    )
    def test_invalid_phases_raise(self, num, den, message):
        with pytest.raises(SymmetryInvariantError, match=message):
            DiagonalElement(num, den)
        with pytest.raises(SymmetryInvariantError, match=message):
            DiagonalElement(num=num, den=den)


class TestFiniteAbelianGroup:
    def test_invalid_presentations_raise(self):
        g2, g3 = DiagonalElement((1, 1), 2), DiagonalElement((1, 2), 3)
        with pytest.raises(SymmetryInvariantError, match="one generator per invariant factor"):
            FiniteAbelianGroup(2, (2, 3), (g2,))
        with pytest.raises(SymmetryInvariantError, match="invariant factor 2 does not divide the next, 3"):
            FiniteAbelianGroup(nvars=2, invariant_factors=(2, 3), generators=(g2, g3))
        with pytest.raises(
            SymmetryInvariantError,
            match=r"^generator DiagonalElement\(num=\(1, 1\), den=2\) does not have order 3 on 2 variables$",
        ):
            FiniteAbelianGroup(2, (3,), (g2,))
        assert FiniteAbelianGroup(2, (3,), (g3,)).order == 3


class TestOtherText:
    def test_int_matrix_and_block(self, pentagon_poly):
        # a matrix is a tuple of row tuples, shown as such inside a record
        assert repr(pentagon_poly) == (
            "InvertiblePolynomial(matrix=((2, 1, 0, 0, 0), (0, 2, 1, 0, 0), (0, 0, 2, 1, 0),"
            " (0, 0, 0, 2, 1), (1, 0, 0, 0, 2)), weights=(1, 1, 1, 1, 1), degree=3,"
            " quasi_smooth_certified=True)"
        )
        block = Block(kind="loop", variables=(1, 2), exponents=(2, 2))
        assert repr(block) == "Block(kind='loop', variables=(1, 2), exponents=(2, 2))"


class TestSearchResult:
    def test_unhashable_and_proof_log_not_shown(self, records):
        result = records[SearchResult]
        with pytest.raises(TypeError, match="unhashable"):
            hash(result)
        assert result.proof_log and "proof_log" not in repr(result)

    def test_proof_log_defaults_to_a_fresh_dict(self, records):
        args = values(records[SearchResult])[:-1]
        first, second = SearchResult(*args), SearchResult(*args)
        assert first.proof_log == {} and first.proof_log is not second.proof_log
        assert first == second and first != records[SearchResult]
        logged = SearchResult(*args, proof_log={"x": 1})
        assert logged.proof_log == {"x": 1} and logged != first
        first.size = 99
        assert first.size == 99


class TestSymmetryQuotientDerived:
    def test_derived_is_not_an_argument_and_starts_empty(self, records):
        sq = records[SymmetryQuotient]
        fields = dict(zip(FIELDS[SymmetryQuotient], values(sq)))
        with pytest.raises(TypeError):
            SymmetryQuotient(**fields, derived={})
        first, second = SymmetryQuotient(**fields), SymmetryQuotient(**fields)
        assert first.derived == {} and first.derived is not second.derived

    def test_equality_and_hash_ignore_derived(self, records):
        sq = records[SymmetryQuotient]
        fresh = SymmetryQuotient(*values(sq))
        sq.derived["marker"] = object()
        assert "marker" not in fresh.derived
        assert fresh == sq and hash(fresh) == hash(sq)
        assert "derived" not in repr(sq)
        with pytest.raises(AttributeError):
            sq.derived = {}


class TestImportCost:
    """The records are plain classes, so importing the package compiles no
    generated code and loads neither dataclasses nor inspect (with ast, dis
    and tokenize behind it), nor fractions (with decimal and numbers). A
    library import loads no json either: only parse_json_matrix and the
    CLI's reports use it; nor heapq."""

    @staticmethod
    def loaded(statement):
        proc = subprocess.run(
            [sys.executable, "-c", f"{statement}; import sys; print(*sys.modules)"],
            capture_output=True, text=True, check=True,
            env={**os.environ, "PYTHONPATH": str(SRC)},
        )
        return set(proc.stdout.split())

    def test_no_dataclasses_or_inspect(self):
        # against a bare interpreter, so that a site hook that imports
        # either module does not fail the test
        bare = self.loaded("pass")
        for module in ("invquot", "invquot.cli"):
            added = self.loaded(f"import {module}") - bare
            assert module in added
            assert not added & {"dataclasses", "inspect"}, module

    def test_library_import_loads_no_json(self):
        bare = self.loaded("pass")
        added = self.loaded("import invquot") - bare
        assert "invquot" in added
        assert "json" not in added

    def test_library_import_loads_no_fractions_or_heapq(self):
        # Fraction is imported where a report or an error message uses it,
        # and the topological sort takes its ready vertices from a bitmask
        bare = self.loaded("pass")
        added = self.loaded("import invquot") - bare
        assert "invquot" in added
        assert not added & {"fractions", "heapq"}

    def test_cli_import_loads_no_fractions(self):
        bare = self.loaded("pass")
        added = self.loaded("import invquot.cli") - bare
        assert "invquot.cli" in added
        assert "fractions" not in added

    def test_spelled_cli_run_loads_no_locale(self):
        # the headline argv, spelled in full, builds no argparse parser, so
        # argparse's first gettext call, which imports locale, never runs
        bare = self.loaded("pass")
        added = self.loaded(
            "import io, sys, invquot.cli; sys.stdout = io.StringIO(); "
            "code = invquot.cli.main(['search', '--preset', 'lu-counterexample', '-f', 'json']); "
            "sys.stdout = sys.__stdout__; assert code == 0"
        ) - bare
        assert "invquot.cli" in added
        assert "locale" not in added
