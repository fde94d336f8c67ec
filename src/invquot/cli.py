"""Command line driver.

Subcommands: analyze | table | chen-ruan | search | verify. All of them take
one input (a positional polynomial string, --json-matrix FILE or --preset
NAME) and the output options --format text|json|csv and --out FILE; only the
requested format is rendered. A JSON report's parameters are the
subcommand's own options. Exit codes: 0 success, 1 validation error,
2 search timeout. A total degree given by the user (table --max-a, a verify
collection entry) may be at most MAX_TOTAL_DEGREE in absolute value.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time

from . import __version__
from .chen_ruan import chen_ruan_dim, enumerate_sectors, untwisted_invariants
from .errors import DegenerateLoopError, InvquotError, PolynomialSyntaxError, SearchTimeoutError
from .homs import BiDegree, bidegree, ext_table, representative_table, hom_table
from .polynomials import (
    InvertiblePolynomial,
    atomic_decomposition,
    decomposition_text,
    parse,
    parse_json_matrix,
)
from .presets import get_preset
# candidate_window stays reachable here: perfbench/child.py traces the window
# layer through the cli module as well as through search
from .search import candidate_window, max_exceptional, verify_collection
from .symmetry import (
    DiagonalElement,
    FiniteAbelianGroup,
    SymmetryQuotient,
    loop_generator,
    spans_group,
    symmetry_quotient,
)


class _UsageError(InvquotError):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(f"{self.prog}: {message}")


# The section counts of a quotient are kept for every total degree up to the
# largest one asked for, so a user-supplied degree sets the memory of a run:
# at this cap the pentagon's table --max-a peaks at about 24 MB resident,
# where a verify at degree 200,000 took 157 MB.
MAX_TOTAL_DEGREE = 1000


def _nonnegative(convert, most=math.inf):
    """An argparse type for a cap or a time budget: convert(text), finite,
    >= 0 and at most most.

    A negative cap would print an empty table, a negative budget has expired
    before the search starts and a NaN one, failing every comparison, never
    expires.
    """

    def parse(text: str):
        try:
            value = convert(text)
        except ValueError:
            value = math.nan
        if not 0 <= value < math.inf or value > most:
            upto = f" up to {most}" if most < math.inf else ""
            raise argparse.ArgumentTypeError(
                f"expected a finite nonnegative {convert.__name__}{upto}, got {text!r}"
            )
        return value

    return parse


# subcommand -> its line in the top-level help
_SUMMARIES = {
    "analyze": "symmetry groups, quotient, characters",
    "table": "bigraded section dimensions and representatives",
    "chen-ruan": "orbifold cohomology dimension and sectors",
    "search": "maximum exceptional collection of line bundles",
    "verify": "check a collection supplied as JSON [a, b] pairs",
}

# Every option, declared once as (flags, add_argument keywords): those every
# subcommand shares, after the one positional, then each subcommand's own.
# Both parse routes read them: _add_options hands them to argparse, and
# _parse_spelled reads dest, type, choices, default and required itself.
_SHARED_OPTIONS = (
    (("--json-matrix",), {"dest": "json_matrix", "metavar": "FILE",
                          "help": 'file with {"matrix": [[...], ...]}'}),
    (("--preset",), {"dest": "preset", "metavar": "NAME", "help": "named input polynomial"}),
    (("--format", "-f"), {"dest": "format", "choices": ("text", "json", "csv"),
                          "default": "text"}),
    (("--out",), {"dest": "out", "metavar": "FILE",
                  "help": "write output to a file instead of stdout"}),
)
# argument names that are not a subcommand's own options, so not parameters
_SHARED = ("subcommand", "polynomial", *(spec["dest"] for _, spec in _SHARED_OPTIONS))
_OWN_OPTIONS = {
    "analyze": (),
    "table": ((("--max-a",), {"dest": "max_a", "type": _nonnegative(int, MAX_TOTAL_DEGREE),
                              "default": 3,
                              "help": f"highest total degree, at most {MAX_TOTAL_DEGREE}"}),),
    "chen-ruan": (),
    "search": ((("--timeout-secs",), {"dest": "timeout_secs", "type": _nonnegative(float),
                                      "default": None}),),
    "verify": ((("--collection",), {"dest": "collection", "metavar": "FILE", "required": True,
                                    "help": f"total degrees at most {MAX_TOTAL_DEGREE} "
                                            "in absolute value"}),),
}


def _add_options(p: _Parser, name: str) -> _Parser:
    """Declare subcommand name's options on p: the input and output options
    every subcommand shares, then its own."""
    p.add_argument("polynomial", nargs="?", help="polynomial string, e.g. 'x1^2*x2 + x2^2*x1'")
    for flags, spec in _SHARED_OPTIONS + _OWN_OPTIONS[name]:
        p.add_argument(*flags, **spec)
    return p


def build_parser() -> _Parser:
    """The whole tree: the top-level parser and one subparser per subcommand."""
    parser = _Parser(prog="invquot", description=__doc__)
    parser.add_argument("--version", action="version", version=f"invquot {__version__}")
    subs = parser.add_subparsers(dest="subcommand", required=True)
    for name, summary in _SUMMARIES.items():
        _add_options(subs.add_parser(name, help=summary), name)
    return parser


def _parse_spelled(argv: list[str]) -> argparse.Namespace | None:
    """The namespace of an argv in canonical form, read from the option
    table without building a parser; None for any other argv.

    Canonical: argv[0] is a subcommand, and every later token is either the
    exact flag of one of its options (-f included) followed by a value that
    does not start with "-" and passes the option's type and choices, or
    the one positional, which does not start with "-"; verify's --collection
    is present. argparse reads such tokens the same way whatever precedes
    them, so the result is what it gives, a repeated option keeping its last
    value, with the attributes in its order: subcommand, polynomial, then
    the options as declared.
    """
    if not argv or argv[0] not in _SUMMARIES:
        return None
    declared = _SHARED_OPTIONS + _OWN_OPTIONS[argv[0]]
    by_flag = {flag: spec for flags, spec in declared for flag in flags}
    values = {"subcommand": argv[0], "polynomial": None}
    values.update((spec["dest"], spec.get("default")) for _, spec in declared)
    seen = set()
    tokens = iter(argv[1:])
    for token in tokens:
        if not token.startswith("-"):
            if "polynomial" in seen:
                return None
            seen.add("polynomial")
            values["polynomial"] = token
            continue
        spec = by_flag.get(token)
        value = next(tokens, "-")
        if spec is None or value.startswith("-"):
            return None
        if "type" in spec:
            try:
                value = spec["type"](value)
            except (argparse.ArgumentTypeError, TypeError, ValueError):
                return None
        if value not in spec.get("choices", (value,)):
            return None
        seen.add(spec["dest"])
        values[spec["dest"]] = value
    if any(spec.get("required") and spec["dest"] not in seen for _, spec in declared):
        return None
    return argparse.Namespace(**values)


def parse_args(argv: list[str]) -> argparse.Namespace:
    """What build_parser().parse_args(argv) gives, by one of two routes.

    The direct route, _parse_spelled, reads an argv in canonical form (a
    subcommand, then only full option spellings with their values and the
    positional) from the option table and builds no parser, so argparse's
    first gettext call, which imports locale, never runs. Every other argv
    goes through the whole tree, so argparse writes every help text, version
    line and error message. Both routes read the same option table.
    """
    return _parse_spelled(argv) or build_parser().parse_args(argv)


def _resolve_input(args) -> tuple[InvertiblePolynomial, dict]:
    sources = [
        s for s in (
            ("argument", args.polynomial),
            ("json-matrix", args.json_matrix),
            ("preset", args.preset),
        )
        if s[1]
    ]
    if len(sources) != 1:
        raise _UsageError(
            "provide exactly one input: a polynomial string, --json-matrix, or --preset"
        )
    kind, value = sources[0]
    if kind == "preset":
        poly = parse(get_preset(value))
    elif kind == "json-matrix":
        try:
            with open(value) as fh:
                poly = parse_json_matrix(fh.read())
        except OSError as exc:
            raise PolynomialSyntaxError(f"cannot read {value}: {exc}") from exc
    else:
        poly = parse(value)
    info = {
        "source": kind if kind != "preset" else f"preset:{value}",
        "polynomial": poly.to_text(),
        "matrix": [list(row) for row in poly.matrix],
    }
    return poly, info


def _element_json(e) -> list:
    return [list(e.num), e.den]


def _deg_json(d: BiDegree) -> list:
    return [d.a, list(d.b)]


def _b_label(b: list[int] | tuple[int, ...]) -> str:
    return ".".join(map(str, b)) if b else "0"


# -- analyze -----------------------------------------------------------------


def _loop_formula_check(poly: InvertiblePolynomial, blocks, group: FiniteAbelianGroup):
    """Cross-check the closed-form loop generator against the Smith-form group.

    Returns None unless blocks (empty when the polynomial has no atomic
    decomposition) is a single loop in all variables.
    """
    if len(blocks) != 1 or blocks[0].kind != "loop" or len(blocks[0].variables) != poly.n:
        return None
    block = blocks[0]
    try:
        gen = loop_generator(block.exponents)
    except DegenerateLoopError:
        return None
    # scatter the standard-order phases back onto the loop's actual variables
    nums = [0] * poly.n
    for pos, var in enumerate(block.variables):
        nums[var - 1] = gen.num[pos]
    return spans_group(group, [DiagonalElement.of(nums, gen.den)])


def _run_analyze(
    poly: InvertiblePolynomial, sq: SymmetryQuotient, args, stages: dict
) -> dict:
    try:
        blocks = atomic_decomposition(poly).blocks
    except InvquotError:
        blocks = ()  # no atomic decomposition: reported as None
    group = sq.group  # computed on each read, so read once
    return {
        "n": poly.n,
        "determinant": poly.determinant(),
        "weights": list(poly.weights),
        "degree": poly.degree,
        "quasi_smooth_certified": poly.quasi_smooth_certified,
        "atomic_blocks": [
            {"kind": b.kind, "variables": list(b.variables), "exponents": list(b.exponents)}
            for b in blocks
        ] or None,
        "symmetry_group": {
            "order": group.order,
            "invariant_factors": list(group.invariant_factors),
            "generators": [_element_json(g) for g in group.generators],
        },
        "scalar_subgroup": {
            "order": sq.scalar_order,
            "generator": _element_json(sq.scalar_generator),
        },
        "quotient": {
            "order": sq.quotient_order,
            "invariant_factors": list(sq.quotient_orders),
            "generators": [_element_json(g) for g in sq.quotient_generators],
            "is_cyclic": sq.quotient_is_cyclic,
            "split": sq.characters is not None,
            "characters": (
                [list(c) for c in sq.characters] if sq.characters is not None else None
            ),
        },
        "splitting_coefficients": list(sq.splitting),
        "loop_formula_agrees": _loop_formula_check(poly, blocks, group),
    }


def _text_analyze(report: dict) -> str:
    results = report["results"]
    lines = [
        f"polynomial: {report['input']['polynomial']}",
        f"variables: {results['n']}   determinant: {results['determinant']}",
        f"weights: {tuple(results['weights'])}   degree: {results['degree']}",
        f"quasi-smooth certified: {results['quasi_smooth_certified']}",
    ]
    if results["atomic_blocks"] is not None:
        lines.append("atomic decomposition: " + decomposition_text(
            (b["kind"], b["exponents"]) for b in results["atomic_blocks"]
        ))
    else:
        lines.append("atomic decomposition: none found")
    g = results["symmetry_group"]
    lines.append(
        f"symmetry group: order {g['order']}, invariant factors {g['invariant_factors']}"
    )
    for nums, den in g["generators"]:
        lines.append(f"  generator: {tuple(nums)} / {den}")
    s = results["scalar_subgroup"]
    lines.append(f"scalar subgroup: order {s['order']}, generator {tuple(s['generator'][0])} / {s['generator'][1]}")
    qt = results["quotient"]
    lines.append(
        f"quotient: order {qt['order']}, invariant factors {qt['invariant_factors']}, "
        f"cyclic: {qt['is_cyclic']}, split: {qt['split']}"
    )
    for nums, den in qt["generators"]:
        lines.append(f"  generator: {tuple(nums)} / {den}")
    if qt["characters"]:
        for c in qt["characters"]:
            lines.append(f"  characters: {tuple(c)}")
    lines.append(f"splitting coefficients: {tuple(results['splitting_coefficients'])}")
    if results["loop_formula_agrees"] is not None:
        lines.append(f"loop formula agrees with Smith form: {results['loop_formula_agrees']}")
    return "\n".join(lines)


def _csv_analyze(report: dict) -> str:
    rows = ["key,value"]
    for k, v in report["results"].items():
        if k != "atomic_blocks":
            rows.append(f"{k},{json.dumps(v) if isinstance(v, (list, dict)) else v}")
    return "\n".join(rows)


# -- table ---------------------------------------------------------------------


def _run_table(
    poly: InvertiblePolynomial, sq: SymmetryQuotient, args, stages: dict
) -> dict:
    dims = hom_table(sq, args.max_a)
    reps = representative_table(sq, args.max_a)
    table = ext_table(sq)
    residues = table.residues
    rows = []
    for a in range(args.max_a + 1):
        cells = table.cells(a, range(len(residues)))
        rows.append(
            {
                "a": a,
                "dims": [dims[c] for c in cells],
                "representatives": [reps[c] for c in cells],
            }
        )
    return {
        "max_a": args.max_a,
        "residues": [_b_label(b) for b in residues],
        "rows": rows,
    }


def _text_table(report: dict) -> str:
    results = report["results"]
    res = results["residues"]
    width = max(8, max(len(r) for r in res) + 2)
    head = "a\\b".ljust(6) + "".join(r.rjust(width) for r in res)
    lines = ["section dimensions:", head]
    for row in results["rows"]:
        cells = [(str(d) if d else ".").rjust(width) for d in row["dims"]]
        lines.append(str(row["a"]).ljust(6) + "".join(cells))
    lines.append("")
    lines.append("representatives (smallest monomial per nonzero cell):")
    repw = max(
        [10]
        + [len(r) for row in results["rows"] for r in row["representatives"] if r]
    ) + 2
    lines.append("a\\b".ljust(6) + "".join(r.rjust(repw) for r in res))
    for row in results["rows"]:
        cells = [(r if r else ".").rjust(repw) for r in row["representatives"]]
        lines.append(str(row["a"]).ljust(6) + "".join(cells))
    return "\n".join(lines)


def _csv_table(report: dict) -> str:
    results = report["results"]
    res = results["residues"]
    lines = ["# dimensions", "a," + ",".join(res)]
    for row in results["rows"]:
        lines.append(f"{row['a']}," + ",".join(str(d) for d in row["dims"]))
    lines.append("# representatives")
    lines.append("a," + ",".join(res))
    for row in results["rows"]:
        lines.append(
            f"{row['a']}," + ",".join(r if r else "" for r in row["representatives"])
        )
    return "\n".join(lines)


# -- chen-ruan -------------------------------------------------------------------


def _run_chen_ruan(
    poly: InvertiblePolynomial, sq: SymmetryQuotient, args, stages: dict
) -> dict:
    untwisted = untwisted_invariants(sq)
    sectors = enumerate_sectors(sq)
    twisted = sum(s.contribution for s in sectors)
    return {
        "total": untwisted.total + twisted,
        "untwisted": {
            "hyperplane_classes": untwisted.hyperplane_classes,
            "middle_full": untwisted.middle_full,
            "middle_invariant": untwisted.middle_invariant,
            "total": untwisted.total,
        },
        "twisted_total": twisted,
        "contributing_sectors": sum(1 for s in sectors if s.contribution),
        "sector_pieces": len(sectors),
        "sectors": [
            {
                "class_powers": list(s.class_powers),
                "eigenphase": str(s.eigenphase),
                "element": _element_json(s.element),
                "fixed_coords": list(s.fixed_coords),
                "contribution": s.contribution,
            }
            for s in sectors
        ],
    }


def _text_chen_ruan(report: dict) -> str:
    results = report["results"]
    u = results["untwisted"]
    lines = [
        f"orbifold cohomology dimension: {results['total']}",
        f"  untwisted: {u['total']} "
        f"(hyperplane classes {u['hyperplane_classes']}, middle invariant "
        f"{u['middle_invariant']} of {u['middle_full']}, counted twice)",
        f"  twisted: {results['twisted_total']} from "
        f"{results['contributing_sectors']} contributing sector pieces "
        f"({results['sector_pieces']} enumerated)",
        "",
        "class    eigenphase  fixed  contribution",
    ]
    for s in results["sectors"]:
        if s["contribution"] or s["fixed_coords"]:
            cls = _b_label(s["class_powers"])
            fixed = ",".join(f"x{i}" for i in s["fixed_coords"]) or "-"
            lines.append(
                f"{cls:<8} {s['eigenphase']:>10}  {fixed:<6} {s['contribution']}"
            )
    return "\n".join(lines)


def _csv_chen_ruan(report: dict) -> str:
    results = report["results"]
    lines = ["class_powers,eigenphase,fixed_coords,contribution"]
    for s in results["sectors"]:
        cls = ".".join(map(str, s["class_powers"]))
        fixed = ";".join(map(str, s["fixed_coords"]))
        lines.append(f"{cls},{s['eigenphase']},{fixed},{s['contribution']}")
    lines.append(f"# untwisted,{results['untwisted']['total']}")
    lines.append(f"# twisted,{results['twisted_total']}")
    lines.append(f"# total,{results['total']}")
    return "\n".join(lines)


# -- search ------------------------------------------------------------------------


def _verdict(size: int, cr: int | None) -> str:
    head = f"maximum line-bundle exceptional collection = {size}"
    if cr is None:
        return f"{head} (orbifold dimension unavailable for comparison)"
    if size < cr:
        return f"{head} < {cr} = required full-collection length"
    return f"{head}, not below the required full-collection length {cr}"


def _run_search(
    poly: InvertiblePolynomial, sq: SymmetryQuotient, args, stages: dict
) -> dict:
    t0 = time.monotonic()
    try:
        cr: int | None = chen_ruan_dim(sq)
    except InvquotError:
        cr = None
    t1 = time.monotonic()
    stages["chen_ruan_s"] = round(t1 - t0, 4)
    try:
        result = max_exceptional(sq, timeout_secs=args.timeout_secs)
    except SearchTimeoutError as exc:
        return {
            "timed_out": True,
            "window_size": exc.proof_log["vertices"],
            "best_size": exc.best_size,
            "best_witness": [_deg_json(d) for d in exc.best_witness],
            "proof_log": exc.proof_log,
            "chen_ruan_dim": cr,
            "verdict": None,
        }
    finally:
        stages["search_s"] = round(time.monotonic() - t1, 4)
    return {
        "timed_out": False,
        "window_size": len(result.vertices),
        "window": [_deg_json(d) for d in result.vertices],
        "optimum": result.size,
        "optimal_certified": result.optimal,
        "witness": [_deg_json(d) for d in result.witness],
        "witness_sorted": [_deg_json(d) for d in result.witness_set],
        "chen_ruan_dim": cr,
        "verdict": _verdict(result.size, cr),
        "proof_log": result.proof_log,
    }


def _text_search(report: dict) -> str:
    results = report["results"]
    if results["timed_out"]:
        lines = [
            "search timed out",
            f"window size: {results['window_size']}",
            f"best collection found: {results['best_size']}",
        ]
        if results["best_witness"]:
            lines.append("witness (partial search):")
            lines.append("  " + " ".join(
                f"({a},{_b_label(b)})" for a, b in results["best_witness"]
            ))
        return "\n".join(lines)
    stats = results["proof_log"].get("stats", {})
    lines = [
        f"window size: {results['window_size']}",
        f"maximum exceptional collection: {results['optimum']} (certified optimal)",
        "witness (exceptional order):",
        "  " + " ".join(f"({a},{_b_label(b)})" for a, b in results["witness"]),
        f"search nodes: {stats.get('nodes')}, bound prunes: {stats.get('bound_prunes')}, "
        f"cycle rejects: {stats.get('cycle_rejects')}, "
        f"symmetry prunes: {stats.get('symmetry_prunes')}",
        f"orbifold cohomology dimension: {results['chen_ruan_dim']}",
        "",
        results["verdict"],
    ]
    return "\n".join(lines)


def _csv_search(report: dict) -> str:
    results = report["results"]
    lines = ["position,a,b"]
    for i, (a, b) in enumerate(results.get("witness", results.get("best_witness") or [])):
        lines.append(f"{i},{a},{_b_label(b)}")
    lines.append(f"# optimum,{results.get('optimum', results.get('best_size'))}")
    if results.get("verdict"):
        lines.append(f"# verdict,{results['verdict']}")
    return "\n".join(lines)


# -- verify -------------------------------------------------------------------------


def _load_collection(sq: SymmetryQuotient, path: str) -> list[BiDegree]:
    try:
        with open(path) as fh:
            data = json.load(fh)
    except OSError as exc:
        raise PolynomialSyntaxError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise PolynomialSyntaxError(f"invalid JSON in {path}: {exc}") from exc
    if not isinstance(data, list):
        raise PolynomialSyntaxError("collection file must be a JSON list of [a, b] pairs")
    out = []
    for item in data:
        a, b = item if type(item) is list and len(item) == 2 else (None, None)
        residues = b if type(b) is list else [b]
        # JSON integers only (type, not isinstance: a bool is an int); int()
        # would read true as 1, 1.5 as 1 and "2" as 2
        if type(a) is not int or any(type(x) is not int for x in residues):
            raise PolynomialSyntaxError(
                f"collection entry {item!r} is not an [a, b] pair of integers "
                "(b may be a list of integers)"
            )
        if abs(a) > MAX_TOTAL_DEGREE:
            raise PolynomialSyntaxError(
                f"collection entry {item!r}: total degree beyond {MAX_TOTAL_DEGREE} "
                "in absolute value"
            )
        try:
            out.append(bidegree(sq, a, b))
        except ValueError as exc:
            raise PolynomialSyntaxError(f"collection entry {item!r}: {exc}") from exc
    return out


def _run_verify(
    poly: InvertiblePolynomial, sq: SymmetryQuotient, args, stages: dict
) -> dict:
    collection = _load_collection(sq, args.collection)
    report = verify_collection(sq, collection)
    return {
        "size": report.size,
        "valid": report.valid,
        "violations": [dict(v) for v in report.violations],
    }


def _text_verify(report: dict) -> str:
    results = report["results"]
    lines = [
        f"objects: {results['size']}",
        "collection is exceptional" if results["valid"] else "collection is NOT exceptional",
    ]
    for v in results["violations"]:
        if v.get("kind") == "backward ext":
            lines.append(
                f"  violation: Ext({v['source']}, {v['target']}) = {v['ext']}"
            )
        else:
            lines.append(f"  violation: {v}")
    return "\n".join(lines)


def _csv_verify(report: dict) -> str:
    results = report["results"]
    lines = ["kind,source,target,ext", ]
    for v in results["violations"]:
        lines.append(
            f"{v.get('kind')},{v.get('source', '')},{v.get('target', '')},"
            f"{json.dumps(v.get('ext')) if v.get('ext') else ''}"
        )
    lines.append(f"# size,{results['size']}")
    lines.append(f"# valid,{results['valid']}")
    return "\n".join(lines)


# -- JSON report ----------------------------------------------------------------------

# json.dumps(value, indent=2) leaves json's C encoder for its pure-Python one,
# which yields once per token; _json_text writes the same text in one pass.
# encode_basestring_ascii is the C function json.dumps itself quotes strings
# with.
_json_str = json.encoder.encode_basestring_ascii
_int_text = int.__repr__


def _json_text(value) -> str:
    """The text of json.dumps(value, indent=2), byte for byte.

    The exact types a report holds are written here: str, int, float, None,
    True, False, list, tuple, and dict with str keys. Any other value, a
    dict with any other key among them, goes to json.dumps(value, indent=2)
    whole, its newlines moved to the indent of the line it starts on, so
    subclasses, non-finite floats and non-str keys print as json prints them
    and anything json refuses raises as json raises. Reports are trees, so
    no container is checked for cycles: one that contains itself raises
    RecursionError.
    """
    parts = []
    _json_write(value, parts.append, "\n")
    return "".join(parts)


def _json_write(value, out, newline: str) -> None:
    # out appends to the text; newline is "\n" and the indent of the line
    # value starts on. The most frequent types of a report are tried first:
    # int, list, str, dict
    t = type(value)
    if t is int:
        out(_int_text(value))
    elif t is list or t is tuple:
        if not value:
            out("[]")
            return
        inner = newline + "  "
        comma, sep = "," + inner, "[" + inner
        for item in value:
            out(sep)
            _json_write(item, out, inner)
            sep = comma
        out(newline + "]")
    elif t is str:
        out(_json_str(value))
    elif t is dict and all(type(key) is str for key in value):
        if not value:
            out("{}")
            return
        inner = newline + "  "
        comma, sep = "," + inner, "{" + inner
        for key, item in value.items():
            out(sep)
            out(_json_str(key))
            out(": ")
            _json_write(item, out, inner)
            sep = comma
        out(newline + "}")
    elif t is float and math.isfinite(value):
        out(float.__repr__(value))
    elif value is None or value is True or value is False:
        out("null" if value is None else "true" if value else "false")
    else:
        out(json.dumps(value, indent=2).replace("\n", newline))


# -- driver ---------------------------------------------------------------------------


# subcommand -> (run, text renderer, CSV renderer); run takes the polynomial,
# its symmetry quotient, the parsed arguments and a dict to which it may add
# the seconds of its stages (main puts the quotient's, quotient_s, there
# first), a renderer the whole report
_SUBCOMMANDS = {
    "analyze": (_run_analyze, _text_analyze, _csv_analyze),
    "table": (_run_table, _text_table, _csv_table),
    "chen-ruan": (_run_chen_ruan, _text_chen_ruan, _csv_chen_ruan),
    "search": (_run_search, _text_search, _csv_search),
    "verify": (_run_verify, _text_verify, _csv_verify),
}


def main(argv=None) -> int:
    try:
        args = parse_args(sys.argv[1:] if argv is None else list(argv))
        t0 = time.monotonic()
        poly, input_info = _resolve_input(args)
        run, text, csv = _SUBCOMMANDS[args.subcommand]
        t1 = time.monotonic()
        sq = symmetry_quotient(poly)
        stages = {"quotient_s": round(time.monotonic() - t1, 4)}
        results = run(poly, sq, args, stages)
        report = {
            "tool": {"name": "invquot", "version": __version__},
            "subcommand": args.subcommand,
            "input": input_info,
            "parameters": {k: v for k, v in vars(args).items() if k not in _SHARED},
            "results": results,
            "timings": {"total_s": round(time.monotonic() - t0, 4), **stages},
        }
        if args.format == "json":
            payload = _json_text(report)
        else:
            payload = (csv if args.format == "csv" else text)(report)
        if args.out:
            try:
                with open(args.out, "w") as fh:
                    fh.write(payload + "\n")
            except OSError as exc:
                raise InvquotError(f"cannot write {args.out}: {exc}") from exc
        else:
            try:
                print(payload)
                sys.stdout.flush()  # a buffered payload fails here, not at exit
            except BrokenPipeError as exc:
                raise InvquotError(f"cannot write to stdout: {exc.strerror}") from exc
        return 2 if results.get("timed_out") else 0
    except InvquotError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def script() -> int:
    """The installed invquot command and python -m invquot.cli: main() on
    sys.argv, then stdout flushed.

    Where the reader of stdout has gone (main has said so on stderr), the
    unwritten bytes stay buffered, so stdout's descriptor is pointed at
    os.devnull and the interpreter's flush at exit cannot raise again. This
    is done here, not in main, which callers also run in-process.
    """
    try:
        return main()
    finally:
        try:
            sys.stdout.flush()
        except BrokenPipeError:
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)


if __name__ == "__main__":
    sys.exit(script())
