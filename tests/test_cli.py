"""End-to-end command line behavior: subcommands, formats, exit codes."""

import argparse
import hashlib
import json
import math
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from invquot import InvquotError, cli
from invquot.cli import MAX_TOTAL_DEGREE, build_parser, main, parse_args

SRC = Path(__file__).resolve().parent.parent / "src"

PENTAGON = "x1^2*x2 + x2^2*x3 + x3^2*x4 + x4^2*x5 + x5^2*x1"
VERDICT = (
    "maximum line-bundle exceptional collection = 24 < 54 "
    "= required full-collection length"
)

# option values outside the accepted range, each a usage error
OUT_OF_RANGE = [
    ["table", "--max-a", "-1"],
    ["search", "--timeout-secs", "nan"],
    ["search", "--timeout-secs", "-1"],
    ["search", "--timeout-secs", "inf"],
    ["table", "--max-a", "1001"],
]


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestAnalyze:
    def test_text(self, capsys):
        code, out, err = run(capsys, "analyze", PENTAGON)
        assert code == 0
        assert "order 33" in out
        assert "(1, 9, 4, 3, 5) / 11" in out
        assert "Loop(2, 2, 2, 2, 2)" in out

    def test_json_report_schema(self, capsys):
        code, out, _ = run(capsys, "analyze", PENTAGON, "--format", "json")
        assert code == 0
        report = json.loads(out)
        assert set(report) == {
            "tool", "subcommand", "input", "parameters", "results", "timings",
        }
        assert report["tool"]["name"] == "invquot"
        assert report["subcommand"] == "analyze"
        assert report["results"]["symmetry_group"]["order"] == 33
        assert report["results"]["quotient"]["characters"] == [[1, 9, 4, 3, 5]]
        assert report["results"]["loop_formula_agrees"] is True
        assert "total_s" in report["timings"]

    def test_csv(self, capsys):
        code, out, _ = run(capsys, "analyze", PENTAGON, "--format", "csv")
        assert code == 0
        assert out.splitlines()[0] == "key,value"

    def test_preset_equals_inline(self, capsys):
        _, inline, _ = run(capsys, "analyze", PENTAGON, "--format", "json")
        _, preset, _ = run(
            capsys, "analyze", "--preset", "lu-counterexample", "--format", "json"
        )
        a, b = json.loads(inline), json.loads(preset)
        assert a["results"] == b["results"]

    def test_json_matrix_input(self, capsys, tmp_path):
        path = tmp_path / "matrix.json"
        path.write_text(
            json.dumps(
                {
                    "matrix": [
                        [2, 1, 0, 0, 0],
                        [0, 2, 1, 0, 0],
                        [0, 0, 2, 1, 0],
                        [0, 0, 0, 2, 1],
                        [1, 0, 0, 0, 2],
                    ]
                }
            )
        )
        code, out, _ = run(
            capsys, "analyze", "--json-matrix", str(path), "--format", "json"
        )
        assert code == 0
        assert json.loads(out)["results"]["determinant"] == 33


class TestInputValidation:
    def test_no_input(self, capsys):
        code, _, err = run(capsys, "analyze")
        assert code == 1
        assert "exactly one input" in err

    def test_two_inputs(self, capsys):
        code, _, err = run(
            capsys, "analyze", PENTAGON, "--preset", "lu-counterexample"
        )
        assert code == 1

    def test_bad_polynomial(self, capsys):
        code, _, err = run(capsys, "analyze", "x1^2 + ")
        assert code == 1
        assert "error:" in err

    def test_unknown_preset(self, capsys):
        code, _, err = run(capsys, "analyze", "--preset", "missing")
        assert code == 1
        assert "available presets" in err

    def test_missing_matrix_file(self, capsys):
        code, _, err = run(capsys, "analyze", "--json-matrix", "/nonexistent.json")
        assert code == 1

    def test_empty_matrix(self, capsys, tmp_path):
        path = tmp_path / "matrix.json"
        path.write_text(json.dumps({"matrix": []}))
        code, out, err = run(capsys, "analyze", "--json-matrix", str(path))
        assert code == 1
        assert out == ""
        assert err == "error: empty exponent matrix: no monomials\n"

    def test_singular_matrix(self, capsys):
        # x1^2*x2^2 is the square of x1*x2: det A = 0, found by the weight solve
        code, out, err = run(capsys, "analyze", "x1^2*x2^2 + x1*x2")
        assert code == 1
        assert out == ""
        assert err == "error: exponent matrix is singular over the rationals\n"

    def test_unknown_flag(self, capsys):
        code, _, err = run(capsys, "analyze", PENTAGON, "--bogus")
        assert code == 1

    def test_non_threefold_search(self, capsys):
        code, _, err = run(capsys, "search", "x1^2 + x2^2")
        assert code == 1

    @pytest.mark.parametrize(
        "argv",
        OUT_OF_RANGE,
        ids=[
            "negative-table-cap", "nan-budget",
            "negative-budget", "infinite-budget", "table-cap-above-limit",
        ],
    )
    def test_out_of_range_option(self, capsys, argv):
        code, out, err = run(capsys, *argv, "--preset", "lu-counterexample")
        assert code == 1
        assert out == ""
        assert err.startswith(f"error: invquot {argv[0]}: argument {argv[1]}: ")
        assert err.count("\n") == 1


class TestTable:
    def test_text_table(self, capsys):
        code, out, _ = run(capsys, "table", PENTAGON)
        assert code == 0
        assert "section dimensions" in out
        assert "x4^2*x5" in out

    def test_csv_dims(self, capsys):
        code, out, _ = run(capsys, "table", PENTAGON, "--format", "csv")
        lines = out.splitlines()
        assert lines[0] == "# dimensions"
        assert lines[1] == "a,0,1,2,3,4,5,6,7,8,9,10"
        assert lines[2] == "0,1,0,0,0,0,0,0,0,0,0,0"
        assert lines[3] == "1,0,1,0,1,1,1,0,0,0,1,0"
        assert lines[4] == "2,0,1,2,1,1,1,2,2,2,1,2"
        assert lines[5] == "3,4,3,3,3,3,3,3,3,3,3,3"

    def test_max_a(self, capsys):
        code, out, _ = run(
            capsys, "table", PENTAGON, "--max-a", "1", "--format", "json"
        )
        report = json.loads(out)
        assert [r["a"] for r in report["results"]["rows"]] == [0, 1]


class TestChenRuan:
    def test_total(self, capsys):
        code, out, _ = run(capsys, "chen-ruan", PENTAGON)
        assert code == 0
        assert "orbifold cohomology dimension: 54" in out

    def test_json_breakdown(self, capsys):
        _, out, _ = run(capsys, "chen-ruan", PENTAGON, "--format", "json")
        results = json.loads(out)["results"]
        assert results["total"] == 54
        assert results["untwisted"]["total"] == 4
        assert results["twisted_total"] == 50
        assert results["contributing_sectors"] == 50
        assert results["sector_pieces"] == 120

    def test_trivial_quotient(self, capsys):
        _, out, _ = run(
            capsys, "chen-ruan", "--preset", "cubic-trivial-quotient",
            "--format", "json",
        )
        assert json.loads(out)["results"]["total"] == 14


class TestSearch:
    def test_verdict_text(self, capsys):
        code, out, _ = run(capsys, "search", PENTAGON)
        assert code == 0
        assert VERDICT in out
        assert "24 (certified optimal)" in out

    def test_json_results(self, capsys):
        _, out, _ = run(capsys, "search", PENTAGON, "--format", "json")
        results = json.loads(out)["results"]
        assert results["optimum"] == 24
        assert results["chen_ruan_dim"] == 54
        assert results["verdict"] == VERDICT
        assert len(results["witness"]) == 24
        assert results["window_size"] == 40
        assert results["optimal_certified"] is True

    def test_csv_witness(self, capsys):
        _, out, _ = run(capsys, "search", PENTAGON, "--format", "csv")
        lines = out.splitlines()
        assert lines[0] == "position,a,b"
        assert len([l for l in lines if not l.startswith("#")]) == 25

    def test_timeout_exit_code(self, capsys):
        code, out, _ = run(
            capsys, "search", PENTAGON, "--timeout-secs", "1e-9", "--format", "json"
        )
        assert code == 2
        results = json.loads(out)["results"]
        assert results["timed_out"] is True
        assert results["best_size"] >= 1

    @pytest.mark.parametrize(
        "budget", [[], ["--timeout-secs", "1e-9"]], ids=["certified", "timed-out"]
    )
    def test_stage_timings(self, capsys, budget, tmp_path):
        # every report times the symmetry quotient beside the total, and a
        # search report Chen-Ruan and the search too, each rounded to 0.1 ms,
        # so the stages' sum exceeds the total by at most four half-steps
        _, out, _ = run(capsys, "search", PENTAGON, *budget, "--format", "json")
        timings = json.loads(out)["timings"]
        assert list(timings) == ["total_s", "quotient_s", "chen_ruan_s", "search_s"]
        assert min(timings.values()) >= 0
        stages = timings["quotient_s"] + timings["chen_ruan_s"] + timings["search_s"]
        assert stages <= timings["total_s"] + 2e-4
        collection = tmp_path / "collection.json"
        collection.write_text("[[0, [0]]]")
        for argv in (["analyze"], ["table"], ["chen-ruan"], ["verify", "--collection", str(collection)]):
            _, out, _ = run(capsys, *argv, PENTAGON, "--format", "json")
            assert list(json.loads(out)["timings"]) == ["total_s", "quotient_s"]

    def test_deterministic_reports_identical(self, capsys):
        _, a, _ = run(capsys, "search", PENTAGON, "--format", "json")
        _, b, _ = run(capsys, "search", PENTAGON, "--format", "json")
        ra, rb = json.loads(a), json.loads(b)
        ra.pop("timings"), rb.pop("timings")
        assert ra == rb


class TestVerify:
    def test_valid_collection(self, capsys, tmp_path):
        path = tmp_path / "collection.json"
        path.write_text(json.dumps([[0, [0]], [0, [1]], [1, [3]]]))
        code, out, _ = run(
            capsys, "verify", PENTAGON, "--collection", str(path)
        )
        assert code == 0
        assert "collection is exceptional" in out

    def test_invalid_collection_still_exit_zero(self, capsys, tmp_path):
        # Ext^3(O(2,0), O) is one-dimensional, so this order fails
        path = tmp_path / "collection.json"
        path.write_text(json.dumps([[0, 0], [2, 0]]))
        code, out, _ = run(
            capsys, "verify", PENTAGON, "--collection", str(path), "--format", "json"
        )
        assert code == 0
        results = json.loads(out)["results"]
        assert results["valid"] is False
        assert results["violations"]

    def test_large_total_degree(self, capsys, tmp_path):
        # about 10^9 monomials of degree 398 stand behind the Serre term,
        # counted by the recurrence rather than listed
        path = tmp_path / "collection.json"
        path.write_text(json.dumps([[0, 0], [400, 0]]))
        code, out, err = run(capsys, "verify", PENTAGON, "--collection", str(path))
        assert (code, err) == (0, "")
        assert out.splitlines() == [
            "objects: 2",
            "collection is NOT exceptional",
            "  violation: Ext((400, 0), (0, 0)) = [0, 0, 0, 2887344]",
        ]

    def test_degree_cap_is_inclusive(self, capsys, tmp_path):
        # total degrees up to MAX_TOTAL_DEGREE in absolute value are served
        assert MAX_TOTAL_DEGREE == 1000
        path = tmp_path / "collection.json"
        path.write_text(json.dumps([[-1000, 0], [1000, 0]]))
        code, out, err = run(capsys, "verify", PENTAGON, "--collection", str(path))
        assert (code, err) == (0, "")
        assert out.startswith("objects: 2\ncollection is NOT exceptional\n")
        code, out, err = run(capsys, "table", PENTAGON, "--max-a", "1000", "-f", "csv")
        assert (code, err) == (0, "")
        assert out.count("\n1000,") == 2

    def test_integer_residues_accepted(self, capsys, tmp_path):
        path = tmp_path / "collection.json"
        path.write_text(json.dumps([[0, 0], [0, 1]]))
        code, out, _ = run(capsys, "verify", PENTAGON, "--collection", str(path))
        assert code == 0
        assert "collection is exceptional" in out

    @pytest.mark.parametrize(
        "text",
        [
            '{"not": "a list"}',
            "[[0, [1, 2]]]",
            '[["x", 0]]',
            '[[0, {"a": 1}]]',
            "[[0, 1.5]]",
            "[[0, 0], [1.5, 0]]",
            "[[0, 0], [true, 0]]",
            '[[0, 0], ["2", 0]]',
            "[[0, 0], [1001, 0]]",
            "[[-1001, 0]]",
        ],
        ids=[
            "not-a-list", "wrong-width", "string-a", "dict-b", "float-b",
            "float-a", "bool-a", "string-a-digit", "degree-above-cap",
            "degree-below-cap",
        ],
    )
    def test_malformed_collection(self, capsys, tmp_path, text):
        path = tmp_path / "collection.json"
        path.write_text(text)
        code, out, err = run(capsys, "verify", PENTAGON, "--collection", str(path))
        assert code == 1
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_missing_file(self, capsys):
        code, _, err = run(
            capsys, "verify", PENTAGON, "--collection", "/nonexistent.json"
        )
        assert code == 1


class TestOutput:
    def test_out_file(self, capsys, tmp_path):
        path = tmp_path / "report.json"
        code, out, _ = run(
            capsys, "analyze", PENTAGON, "--format", "json", "--out", str(path)
        )
        assert code == 0
        assert out == ""
        assert json.loads(path.read_text())["subcommand"] == "analyze"

    @pytest.mark.parametrize(
        "argv, keys",
        [
            (["analyze"], []),
            (["table"], ["max_a"]),
            (["chen-ruan"], []),
            (["search"], ["timeout_secs"]),
            (["verify", "--collection", "COLLECTION"], ["collection"]),
        ],
        ids=["analyze", "table", "chen-ruan", "search", "verify"],
    )
    def test_parameters_are_result_options(self, capsys, tmp_path, argv, keys):
        # parameters lists only the options that can change a result; the
        # removed knobs are rejected as unknown options
        path = tmp_path / "collection.json"
        path.write_text(json.dumps([[0, 0], [0, 1]]))
        argv = [str(path) if x == "COLLECTION" else x for x in argv]
        code, out, _ = run(capsys, *argv, PENTAGON, "--format", "json")
        assert code == 0
        assert list(json.loads(out)["parameters"]) == keys
        for removed in (
            ["--seed", "7"], ["--no-deterministic"], ["--deterministic"],
            ["--window-max-a", "1"],
        ):
            code, out, err = run(capsys, *argv, PENTAGON, *removed)
            assert code == 1
            assert out == ""
            assert "unrecognized arguments" in err

    def test_unwritable_out(self, capsys, tmp_path):
        path = tmp_path / "missing" / "report.json"
        code, out, err = run(
            capsys, "analyze", "--preset", "lu-counterexample", "--out", str(path)
        )
        assert code == 1
        assert out == ""
        assert err.startswith(f"error: cannot write {path}: ")
        assert err.count("\n") == 1

    def test_closed_stdout_pipe(self):
        # the reader of stdout has gone, as in `invquot table ... | head -1`:
        # one error line and exit code 1, no traceback, and nothing raised
        # again by the interpreter's flush at exit, whether stdout is
        # buffered (PYTHONUNBUFFERED empty) or not
        for unbuffered in ("", "1"):
            read, write = os.pipe()
            os.close(read)
            try:
                proc = subprocess.run(
                    [sys.executable, "-m", "invquot.cli", "analyze", "--preset",
                     "lu-counterexample"],
                    stdout=write, stderr=subprocess.PIPE, text=True,
                    env={**os.environ, "PYTHONPATH": str(SRC), "PYTHONUNBUFFERED": unbuffered},
                )
            finally:
                os.close(write)
            assert proc.returncode == 1, unbuffered
            assert proc.stderr.startswith("error: cannot write to stdout: "), unbuffered
            assert proc.stderr.count("\n") == 1, unbuffered


# each subcommand's own options, with a value in range
OWN_OPTIONS = {
    "analyze": [],
    "table": [["--max-a", "5"]],
    "chen-ruan": [],
    "search": [["--timeout-secs", "1.5"]],
    "verify": [["--collection", "collection.json"]],
}
SHARED_OPTIONS = [
    [PENTAGON], ["--preset", "lu-counterexample"], ["--json-matrix", "matrix.json"],
    ["--format", "json"], ["-f", "csv"], ["--out", "report.txt"],
]


def _route_table() -> list[list[str]]:
    table = [["-h"], ["--version"], []]
    for sub, own in OWN_OPTIONS.items():
        for option in SHARED_OPTIONS + own:
            table.append([sub, *option])
        table.append([sub, *(x for option in SHARED_OPTIONS[1:] + own for x in option)])
        table.append([sub, "-h"])
        table.append([sub, PENTAGON, "--bogus"])
        # an ambiguous abbreviation of the top-level --help and --version
        table.append([sub, "--preset", "lu-counterexample", "--=x"])
    table += [
        ["bogus", PENTAGON],
        ["search", "--preset", "lu-counterexample", "--format", "xml"],
        ["verify", PENTAGON, "--format", "json"],  # no --collection
        # a removed option, with a value that looks like a negative number
        ["search", "--window-max-a", "2"],
        ["search", "--window-max-a", "-3", "--preset", "lu-counterexample"],
    ]
    table += [[*argv, "--preset", "lu-counterexample"] for argv in OUT_OF_RANGE]
    return table


def _random_table(count: int) -> list[list[str]]:
    tokens = [
        *OWN_OPTIONS, "bogus", "-h", "--help", "--version", "--bogus", "-x",
        "--", "-", "--=", "--=x", "--h", "--ver", "--form", "--pre=p", "-fjson",
        "--max-a=2", "-1.5", "nan", "3", "xml", *(x for o in SHARED_OPTIONS for x in o),
        *(x for own in OWN_OPTIONS.values() for o in own for x in o),
    ]
    rng = random.Random(15)
    return [
        [rng.choice(list(OWN_OPTIONS))] + rng.choices(tokens, k=rng.randint(0, 6))
        for _ in range(count)
    ]


# values for every option's flag: in range, out of range, malformed, and
# ones that start with "-"
SPELLED_VALUES = {
    "--json-matrix": ["matrix.json", "", "-m"],
    "--preset": ["lu-counterexample", "cubic-trivial-quotient", "missing", ""],
    "--format": ["text", "json", "csv", "xml", "-json"],
    "-f": ["json", "csv", "text", "xml"],
    "--out": ["report.txt", "", "-"],
    "--max-a": ["0", "3", "1000", "1001", "-1", "1.5", "x"],
    "--timeout-secs": ["1.5", "0", "1e-9", "nan", "inf", "-1"],
    "--collection": ["collection.json", "", "-c"],
}
SPELLED_POSITIONALS = [PENTAGON, "x1^3+x2^3", "", "search", "-x"]
SHARED_FLAGS = ["--json-matrix", "--preset", "--format", "-f", "--out"]


def _spelled_table(count: int) -> list[list[str]]:
    """Seeded argv of a subcommand and full option spellings: mostly its own
    options with a value from SPELLED_VALUES, sometimes another subcommand's,
    a positional, or a flag without a value."""
    rng = random.Random(22)
    table = []
    for _ in range(count):
        sub = rng.choice(list(OWN_OPTIONS))
        flags = [*SHARED_FLAGS, *(option[0] for option in OWN_OPTIONS[sub])]
        argv = [sub]
        if sub == "verify" and rng.random() < 0.8:
            argv += ["--collection", "collection.json"]
        for _ in range(rng.randint(0, 4)):
            roll = rng.random()
            if roll < 0.25:
                argv.append(rng.choice(SPELLED_POSITIONALS))
            elif roll < 0.3:
                argv.append(rng.choice(list(SPELLED_VALUES)))
            else:
                flag = rng.choice(flags if roll < 0.9 else list(SPELLED_VALUES))
                argv += [flag, rng.choice(SPELLED_VALUES[flag])]
        table.append(argv)
    return table


def _whole_tree(argv):
    return build_parser().parse_args(argv)


def _parsed(capsys, parse, argv):
    """Exit code, stdout, stderr and the parsed items of one parse: a usage
    error, which main prints as one error line, gives code 1 and its message,
    -h and --version the code of their SystemExit."""
    try:
        code, result = 0, list(vars(parse(list(argv))).items())
    except SystemExit as exc:
        code, result = exc.code, None
    except InvquotError as exc:
        code, result = 1, str(exc)
    captured = capsys.readouterr()
    return code, captured.out, captured.err, result


class TestParseRoutes:
    """parse_args reads an argv of full option spellings from the option
    table and builds no parser, and for any other argv that starts with a
    subcommand builds only that subcommand's parser; every argv must parse
    exactly as through the whole tree."""

    @pytest.mark.parametrize(
        "argv", _route_table(), ids=lambda argv: " ".join(argv) or "no-arguments"
    )
    def test_same_as_whole_tree(self, capsys, argv):
        assert _parsed(capsys, parse_args, argv) == _parsed(capsys, _whole_tree, argv)

    def test_same_on_random_argv(self, capsys):
        for argv in _random_table(300):
            assert _parsed(capsys, parse_args, argv) == _parsed(
                capsys, _whole_tree, argv
            ), argv

    def test_same_on_spelled_argv(self, capsys, monkeypatch):
        spelled, direct = cli._parse_spelled, []

        def spy(argv):
            args = spelled(argv)
            direct.append(args is not None)
            return args

        monkeypatch.setattr(cli, "_parse_spelled", spy)
        table, tree = _spelled_table(2000), build_parser()
        for argv in table:
            assert _parsed(capsys, parse_args, argv) == _parsed(
                capsys, tree.parse_args, argv
            ), argv
        assert len(direct) == len(table)
        assert 3 * sum(direct) >= len(table)

    def test_unrecognized_in_top_level_words(self, capsys):
        code, _, _, message = _parsed(capsys, parse_args, ["analyze", PENTAGON, "--bogus"])
        assert (code, message) == (1, "invquot: unrecognized arguments: --bogus")

    def test_one_parser_for_a_subcommand(self, monkeypatch):
        built = []
        init = argparse.ArgumentParser.__init__

        def spy(self, *args, **kwargs):
            built.append(kwargs.get("prog"))
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", spy)
        parse_args(["search", "--preset", "lu-counterexample"])
        assert built == []
        tree = ["invquot", *(f"invquot {sub}" for sub in OWN_OPTIONS)]
        parse_args(["search", "--pre", "lu-counterexample"])
        assert built == tree
        with pytest.raises(SystemExit):
            parse_args(["--version"])
        assert built == tree + tree


GOLDEN_INPUTS = {
    "pentagon": ["--preset", "lu-counterexample"],
    "trivial": ["--preset", "cubic-trivial-quotient"],
    "binary": ["x1^3+x2^3"],
}
GOLDEN_COMMANDS = {
    "analyze": ["analyze"],
    "table": ["table"],
    "table-max-a-2": ["table", "--max-a", "2"],
    "chen-ruan": ["chen-ruan"],
    "search": ["search"],
    "verify": ["verify", "--collection", "collection.json"],
}
TOO_SMALL = (
    "error: 2 variables give an ambient space too small for this line bundle model\n"
)
# SHA-256 of stdout for every successful run, keyed command-input-format; a
# JSON report is hashed with its timings removed, re-dumped with indent=2, so
# these pins do not see the CLI's own JSON writer: the raw bytes are checked
# by TestGoldenOutput::test_json_bytes
GOLDEN = {
    "analyze-pentagon-text":
        "6c676abdcdd268076c6c9d9f77e260eb84d81569d7598e46b0f7a02b13a9fb21",
    "analyze-pentagon-json":
        "54c0ea666a00f0ee360efaf2549f8085f59598626e43754fcdea6f5ede572e46",
    "analyze-pentagon-csv":
        "ac335e6129d8246a2dd6a4796abfbbc20d4c424d8583b19e33f5ac94181d4658",
    "analyze-trivial-text":
        "c4f969bd39544092f040ae0b17bd27a4d36cf66619c444a7eabe08cc7e22d9e8",
    "analyze-trivial-json":
        "7a97d8002aae51a814efbb02f78896a297bcc0e778c518249a93810ecd9be51a",
    "analyze-trivial-csv":
        "2df2ffa36806fec3345183610c787fed81fbc3e6781f938d0d6011e97e58a899",
    "analyze-binary-text":
        "2b33f27d1eaa5101c4aa517c81b716e011e3bf1753fa0f7b714ae584d43515d8",
    "analyze-binary-json":
        "f603e4b159671ea14cc7aecdbd6ec57fd47cbc4b85adc05ad3e3553895efae4f",
    "analyze-binary-csv":
        "a56ec146f611e92bee224b4de496f3c6b9e0e8c9b806ea8694b7dbf9c2042c3a",
    "table-pentagon-text":
        "d52003f2a4eb68ac0fb1ba701899ede4b88825be6de668997d41ede47d563437",
    "table-pentagon-json":
        "40a5457a09acbe31e7fd477befa1f761e5d12def6e39cf9572eda03e17d51323",
    "table-pentagon-csv":
        "221e63c6bda537c0469598c7377932a6dfad86edabb7e7eecd262d60817b0b0a",
    "table-trivial-text":
        "2872b44d072b849b3ae12ad82ba6be48909567a818495a133e3d41da0466b9a3",
    "table-trivial-json":
        "c5d34aaa65b0875c9917f5721ba0f6ebf9f9d96e908c7f04d56961f4f84eda4c",
    "table-trivial-csv":
        "d4103f52537e7f1720cac7fa5224dad721a3347ad20f2b777425d5d5bda8e68b",
    "table-max-a-2-pentagon-text":
        "e05b526059334632ac1c01f319e7d05c1d8e569c7ce261daa99f8e3cac1b02ba",
    "table-max-a-2-pentagon-json":
        "76a35932889d71266a3ced845f74d02edf073789941683d5b63d01e1582cc68b",
    "table-max-a-2-pentagon-csv":
        "98bf0f00681aa0fadc37d1ed0ea19f4e3158c7603235ff1caa2644e2d388abbe",
    "table-max-a-2-trivial-text":
        "19f364dc3970201af7e572ba8446936a48479b85194b64a8a44f47c4a5e734d7",
    "table-max-a-2-trivial-json":
        "f1f62297f47364ef6dddcf27c20bd4191905d018bddf9a69ec80b80aaf90b7ce",
    "table-max-a-2-trivial-csv":
        "f54a9535abcf2e6b89d1ca647f2916322e370fbcdca0ce1d4f0870b4d1d518c9",
    "chen-ruan-pentagon-text":
        "f25734b25a41400e85e36694168dbe7297af66fcb5201cb2e3e839501e3cee47",
    "chen-ruan-pentagon-json":
        "bb533ed6bb373fff442f748c5f1ab22a9e919bd007f60a75dbc4497547b0a8b0",
    "chen-ruan-pentagon-csv":
        "53b84476bd50d87d20519037b166677e5b87ede82c1e1f111824b96d868ef4a0",
    "chen-ruan-trivial-text":
        "53e90393f88dc6fc69d41a527e4ece1b97289d5e4f8923f26c7abced7be1a655",
    "chen-ruan-trivial-json":
        "682ac48e5a4455362a6e912daa786c1013c9c80ec12ea0c5af3336ba9defab4a",
    "chen-ruan-trivial-csv":
        "540682744d7d38a10ca3735eacbc48fb81267d640a22288e55d50a74588c2125",
    "search-pentagon-text":
        "1addaf4c2059931b2a6014d857606a9380276c478f82554a41e260e15e6ced08",
    "search-pentagon-json":
        "647fe8cdaad268dd0b14dd2d131cd10326c02b96079f52a0c6bdc50869938345",
    "search-pentagon-csv":
        "e5b1047a389bd96dc27279ee28d04de518e48e9bb03ccbd7b7eee5339f8f3ce2",
    "search-trivial-text":
        "b6fe834603143899e078dd19864344a7c9313207407d088f5e1bc5d653e3c654",
    "search-trivial-json":
        "35a9155097ce3d5b97612dd60f7f8c4c4411d26fb15aa19f0fd5c5b03b94084c",
    "search-trivial-csv":
        "732e1bbe2709eaf5dcb1ae74ea1a33a98444a590a461f8a534b5064f40394446",
    "verify-pentagon-text":
        "b28f405c3738f518a464e80b0bd52afe005c8246edde207ec41873eb7a2ce51f",
    "verify-pentagon-json":
        "9d9d4553e7bd8b57a60da8a92f9c57c683fc27a2f4aa633617910bf3020cd5f7",
    "verify-pentagon-csv":
        "8aef663f2108ac7747dbec985976b91a8e072d45ac21371875b42403a804b495",
    "verify-trivial-text":
        "12a23b9c896e7862b52d1a2e4de5983a0d7ab416ab84a749f956ea49636eb2e1",
    "verify-trivial-json":
        "10b7f43fef7b4bfbf86001eb6ca270996618a97b5940a76d362e50b13afaf089",
    "verify-trivial-csv":
        "80046329f190cb84714f94aa9d5e02a41a6508f52efcc1d9d3250f2c46b3e9cc",
}


def _golden_run(capsys, monkeypatch, tmp_path, argv):
    # a relative collection path keeps parameters.collection fixed
    monkeypatch.chdir(tmp_path)
    (tmp_path / "collection.json").write_text(json.dumps([[0, 0], [2, 0], [1, 0]]))
    code, out, err = run(capsys, *argv)
    report = None
    if ("json" in argv or "--format=json" in argv) and out:
        report = json.loads(out)
        del report["timings"]
        out = json.dumps(report, indent=2)
    return code, out, err, report


class TestGoldenOutput:
    @pytest.mark.parametrize("fmt", ["text", "json", "csv"])
    @pytest.mark.parametrize("source", list(GOLDEN_INPUTS))
    @pytest.mark.parametrize("command", list(GOLDEN_COMMANDS))
    def test_output_pinned(self, capsys, monkeypatch, tmp_path, command, source, fmt):
        argv = [*GOLDEN_COMMANDS[command], *GOLDEN_INPUTS[source], "--format", fmt]
        code, out, err, _ = _golden_run(capsys, monkeypatch, tmp_path, argv)
        if source == "binary" and command != "analyze":
            assert (code, out, err) == (1, "", TOO_SMALL)
            return
        digest = hashlib.sha256(out.encode()).hexdigest()
        assert (code, digest, err) == (0, GOLDEN[f"{command}-{source}-{fmt}"], "")

    @pytest.mark.parametrize("source", list(GOLDEN_INPUTS))
    @pytest.mark.parametrize("command", list(GOLDEN_COMMANDS))
    def test_json_bytes(self, capsys, monkeypatch, tmp_path, command, source):
        # the report as printed and as written by --out, timings included, is
        # json.dumps's own indent=2 text of itself
        argv = [*GOLDEN_COMMANDS[command], *GOLDEN_INPUTS[source], "--format", "json"]
        monkeypatch.chdir(tmp_path)
        (tmp_path / "collection.json").write_text(json.dumps([[0, 0], [2, 0], [1, 0]]))
        code, out, err = run(capsys, *argv)
        if source == "binary" and command != "analyze":
            assert (code, out, err) == (1, "", TOO_SMALL)
            return
        assert (code, err) == (0, "")
        assert out == json.dumps(json.loads(out), indent=2) + "\n"
        assert run(capsys, *argv, "--out", "report.json") == (0, "", "")
        written = (tmp_path / "report.json").read_bytes().decode()
        assert written == json.dumps(json.loads(written), indent=2) + "\n"

    @pytest.mark.parametrize("fmt", ["text", "json", "csv"])
    @pytest.mark.parametrize("command", list(GOLDEN_COMMANDS))
    def test_argparse_route_pinned(self, capsys, monkeypatch, tmp_path, command, fmt):
        # the goldens above are spelled in full and take the direct route;
        # --format=FMT takes the argparse route and must print the same bytes
        argv = [*GOLDEN_COMMANDS[command], *GOLDEN_INPUTS["pentagon"], f"--format={fmt}"]
        assert cli._parse_spelled([*argv[:-1], "--format", fmt]) is not None
        assert cli._parse_spelled(argv) is None
        code, out, err, _ = _golden_run(capsys, monkeypatch, tmp_path, argv)
        digest = hashlib.sha256(out.encode()).hexdigest()
        assert (code, digest, err) == (0, GOLDEN[f"{command}-pentagon-{fmt}"], "")

    @pytest.mark.parametrize("fmt", ["text", "json", "csv"])
    @pytest.mark.parametrize("source", list(GOLDEN_INPUTS))
    def test_timeout_pinned(self, capsys, monkeypatch, tmp_path, source, fmt):
        # best_size depends on timing: pin the exit code and the result keys
        argv = ["search", "--timeout-secs", "1e-9", *GOLDEN_INPUTS[source], "--format", fmt]
        code, out, err, report = _golden_run(capsys, monkeypatch, tmp_path, argv)
        if source == "binary":
            assert (code, out, err) == (1, "", TOO_SMALL)
            return
        assert (code, err) == (2, "")
        if report is not None:
            assert list(report["results"]) == [
                "timed_out", "window_size", "best_size", "best_witness",
                "proof_log", "chen_ruan_dim", "verdict",
            ]


class _Str(str):
    def __repr__(self):
        return "_Str()"


class _Int(int):
    def __repr__(self):
        return "_Int()"

    __str__ = __repr__


class _Float(float):
    def __repr__(self):
        return "_Float()"

    __str__ = __repr__


class _List(list):
    pass


class _Dict(dict):
    pass


_CHARS = [
    "a", "Z", "0", " ", '"', "\\", "/", "\n", "\t", "\x00", "\x1f", "\x7f",
    "\xe9", "\u20ac", "\u2028", "\U0001f600", "\ud800", "\udfff",
]
_INTS = [0, 1, -1, 54, -(2**70), 2**64, 2**64 + 1, -(10**30)]
_FLOATS = [0.0, -0.0, 0.1, -2.5, 1e-300, 5e-324, 1e300, math.nan, math.inf, -math.inf]


def _random_text(rng):
    return "".join(rng.choice(_CHARS) for _ in range(rng.randrange(6)))


def _random_key(rng):
    return rng.choice([
        _random_text, lambda r: _Str(_random_text(r)), lambda r: r.choice(_INTS),
        lambda r: _Int(r.choice(_INTS)), lambda r: r.choice(_FLOATS),
        lambda r: r.choice([True, False, None]),
    ])(rng)


def _random_json(rng, depth):
    """A value json.dumps can write: scalars of every kind and their
    subclasses, and, above depth 0, lists, tuples and dicts (and list and
    dict subclasses) of random values, empty ones among them."""
    kind = rng.randrange(13 if depth else 8)
    if kind == 0:
        return _random_text(rng)
    if kind == 1:
        return rng.choice(_INTS)
    if kind == 2:
        return rng.choice(_FLOATS)
    if kind == 3:
        return rng.choice([True, False, None])
    if kind == 4:
        return _Str(_random_text(rng))
    if kind == 5:
        return _Int(rng.choice(_INTS))
    if kind == 6:
        return _Float(rng.choice(_FLOATS))
    if kind == 7:
        return rng.choice([[], (), {}, _List(), _Dict()])
    items = [_random_json(rng, depth - 1) for _ in range(rng.randrange(1, 4))]
    if kind == 8:
        return items
    if kind == 9:
        return tuple(items)
    if kind == 10:
        return _List(items)
    pairs = [(_random_key(rng), item) for item in items]
    return dict(pairs) if kind == 11 else _Dict(pairs)


class TestJsonText:
    """cli._json_text, the writer of every JSON report, against
    json.dumps(value, indent=2)."""

    HEADLINE = ["search", "--preset", "lu-counterexample", "-f", "json"]

    @pytest.mark.parametrize("source", list(GOLDEN_INPUTS))
    @pytest.mark.parametrize("command", list(GOLDEN_COMMANDS))
    def test_golden_reports(self, capsys, monkeypatch, tmp_path, command, source):
        reports = []
        write = cli._json_text

        def spy(value):
            reports.append(value)
            return write(value)

        monkeypatch.setattr(cli, "_json_text", spy)
        argv = [*GOLDEN_COMMANDS[command], *GOLDEN_INPUTS[source], "--format", "json"]
        code, _, _, _ = _golden_run(capsys, monkeypatch, tmp_path, argv)
        if source == "binary" and command != "analyze":
            assert (code, reports) == (1, [])
            return
        assert code == 0
        assert write(reports[0]) == json.dumps(reports[0], indent=2)

    def test_random_values(self):
        rng = random.Random(30)
        depths = set()
        for _ in range(2000):
            value = _random_json(rng, 6)
            text = json.dumps(value, indent=2)
            assert cli._json_text(value) == text
            depths.add(max((len(line) - len(line.lstrip(" "))) // 2 for line in text.split("\n")))
        assert max(depths) == 6

    def test_scalars_and_empty_containers(self):
        for value in [
            None, True, False, 0, -(2**70), 2**64, -0.0, 1e-300, math.nan, math.inf,
            -math.inf, "", 'q"b\\\x01\u20ac\ud800', [], (), {}, _List(), _Dict(),
            _Str("x"), _Int(-3), _Float(2.5), {1: [], 2.5: {}, True: (), None: "", False: 0},
        ]:
            assert cli._json_text(value) == json.dumps(value, indent=2)

    @pytest.mark.parametrize(
        "value",
        [{1, 2}, [b"bytes"], {"q": Fraction(1, 3)}, [0, object()], {(1, 2): 0}],
        ids=["set", "bytes", "fraction", "object", "tuple-key"],
    )
    def test_type_errors(self, value):
        with pytest.raises(TypeError):
            json.dumps(value, indent=2)
        with pytest.raises(TypeError):
            cli._json_text(value)

    def test_self_containing_list(self):
        # no cycle markers: a report is a tree, so a cycle is a recursion
        # error, not json's ValueError
        value = [0]
        value.append(value)
        with pytest.raises(RecursionError):
            cli._json_text(value)

    def test_headline_skips_the_indent_encoder(self, capsys, monkeypatch):
        # json.dumps with indent runs json's pure-Python encoder; the report
        # must not go through it
        dumps = json.dumps

        def compact_only(value, **kwargs):
            if "indent" in kwargs:
                raise AssertionError("json.dumps called with indent")
            return dumps(value, **kwargs)

        monkeypatch.setattr(cli.json, "dumps", compact_only)
        code, out, err = run(capsys, *self.HEADLINE)
        monkeypatch.undo()
        assert (code, err) == (0, "")
        assert json.loads(out)["results"]["verdict"] == VERDICT
        assert out == json.dumps(json.loads(out), indent=2) + "\n"
