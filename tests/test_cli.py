"""End-to-end command line behavior: subcommands, formats, exit codes."""

import json

import pytest

from invquot.cli import main

PENTAGON = "x1^2*x2 + x2^2*x3 + x3^2*x4 + x4^2*x5 + x5^2*x1"
VERDICT = (
    "maximum line-bundle exceptional collection = 24 < 54 "
    "= required full-collection length"
)


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

    def test_unknown_flag(self, capsys):
        code, _, err = run(capsys, "analyze", PENTAGON, "--bogus")
        assert code == 1

    def test_non_threefold_search(self, capsys):
        code, _, err = run(capsys, "search", "x1^2 + x2^2")
        assert code == 1


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

    def test_window_cap_changes_answer(self, capsys):
        _, out, _ = run(
            capsys, "search", PENTAGON, "--window-max-a", "0", "--format", "json"
        )
        assert json.loads(out)["results"]["optimum"] == 11

    def test_timeout_exit_code(self, capsys):
        code, out, _ = run(
            capsys, "search", PENTAGON, "--timeout-secs", "1e-9", "--format", "json"
        )
        assert code == 2
        results = json.loads(out)["results"]
        assert results["timed_out"] is True
        assert results["best_size"] >= 1

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

    def test_integer_residues_accepted(self, capsys, tmp_path):
        path = tmp_path / "collection.json"
        path.write_text(json.dumps([[0, 0], [0, 1]]))
        code, out, _ = run(capsys, "verify", PENTAGON, "--collection", str(path))
        assert code == 0
        assert "collection is exceptional" in out

    def test_malformed_collection(self, capsys, tmp_path):
        path = tmp_path / "collection.json"
        path.write_text("{\"not\": \"a list\"}")
        code, _, err = run(capsys, "verify", PENTAGON, "--collection", str(path))
        assert code == 1

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
            (["search"], ["window_max_a", "timeout_secs"]),
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
        for removed in (["--seed", "7"], ["--no-deterministic"], ["--deterministic"]):
            code, out, err = run(capsys, *argv, PENTAGON, *removed)
            assert code == 1
            assert out == ""
            assert "unrecognized arguments" in err
