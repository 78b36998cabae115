from __future__ import annotations

import argparse
import dataclasses
import json

import pytest

from flecklab.cli import _AXIS_FLAGS, _SUITE_IDS, _parse_values, build_parser, main
from flecklab.statements import SEARCH_IDS, SEARCHES, SKIP, STATEMENTS, Statement
from flecklab.verifier import run_statement, search_conjecture

# Gap table (observed order minus degree bound) for the fixed demonstration
# grid p=3, alpha=2, r=2: frozen from an independent run of the exact
# arithmetic, one row per n in 90..98, one column per weight degree 0..9.
FROZEN_GAP_ROWS = {
    90: [1, 0, 2, 0, 1, 0, 1, 0, 3, 0],
    91: [1, 0, 1, 0, 3, 0, 1, 0, 1, 0],
    92: [0, 1, 0, 3, 0, 1, 0, 1, 0, 2],
    93: [0, 2, 0, 1, 0, 1, 0, 4, 0, 1],
    94: [0, 1, 0, 2, 0, 1, 0, 1, 0, 3],
    95: [1, 0, 0, 0, 0, 1, 1, 0, 0, 0],
    96: [1, 0, 0, 0, 0, 1, 2, 0, 0, 0],
    97: [1, 0, 0, 0, 0, 1, 1, 0, 0, 0],
    98: [1, 3, 0, 1, 0, 1, 1, 4, 0, 1],
}

FROZEN_ORDERS_N20 = [19, 19, 17, 17, 14, 14, 12, 12, 10, 10, 8, 8, 8, 8, 11, 9, 9, 9, 8, 8, 8, 8]


def failing_statement(statement_id: str, kind: str) -> Statement:
    def check(n):
        if n == 1:
            return SKIP
        return True if n % 2 == 0 else ("odd value", "an even value")

    return Statement(
        id=statement_id,
        kind=kind,
        description="synthetic statement for exit-code tests",
        defaults={"n": tuple(range(6))},
        check=check,
    )


class TestParseValues:
    def test_forms(self):
        assert _parse_values("3") == [3]
        assert _parse_values("1,2,5") == [1, 2, 5]
        assert _parse_values("0..4") == [0, 1, 2, 3, 4]
        assert _parse_values("-2..2") == [-2, -1, 0, 1, 2]
        assert _parse_values("-2..2,10") == [-2, -1, 0, 1, 2, 10]
        assert _parse_values("7..7") == [7]

    def test_rejects_empty_and_reversed(self):
        with pytest.raises(argparse.ArgumentTypeError):
            _parse_values("5..2")
        with pytest.raises(argparse.ArgumentTypeError):
            _parse_values("")
        with pytest.raises(argparse.ArgumentTypeError):
            _parse_values(",,")


class TestSumCommand:
    def test_attainment_row_golden(self, capsys):
        code = main(["sum", "--p", "2", "--alpha", "1", "--n", "20", "--r", "0", "--l", "4"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert list(payload) == [
            "p", "alpha", "n", "r", "coeffs", "sum", "order", "degree_bound", "floor_bound",
        ]
        assert payload["sum"] == "428359680"
        assert payload["order"] == 14
        assert payload["degree_bound"] == 14  # attained exactly
        assert payload["floor_bound"] == 8
        assert payload["coeffs"] == [0, 0, 0, 0, 1]

    def test_constant_weight_default(self, capsys):
        assert main(["sum", "--p", "2", "--alpha", "1", "--n", "4", "--r", "0"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["coeffs"] == [1]
        assert payload["sum"] == "8"
        assert payload["order"] == 3

    def test_explicit_coefficients(self, capsys):
        assert main(
            ["sum", "--p", "2", "--alpha", "1", "--n", "4", "--r", "0", "--coeffs", "1,0,2"]
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["coeffs"] == [1, 0, 2]

    def test_vanishing_sum_reports_infinite_order(self, capsys):
        assert main(["sum", "--p", "2", "--alpha", "0", "--n", "2", "--r", "0", "--l", "1"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["sum"] == "0"
        assert payload["order"] == "infinity"

    def test_weight_flags_are_mutually_exclusive(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["sum", "--p", "2", "--alpha", "1", "--n", "4", "--r", "0",
                  "--l", "1", "--coeffs", "1"])
        assert exc.value.code == 2

    def test_non_prime_is_a_usage_error(self, capsys):
        assert main(["sum", "--p", "4", "--alpha", "1", "--n", "4", "--r", "0"]) == 2
        assert "error:" in capsys.readouterr().err


class TestTable1Command:
    def test_json_golden(self, capsys):
        assert main(["table1"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert (payload["p"], payload["alpha"], payload["r"]) == (3, 2, 2)
        assert payload["l"] == list(range(10))
        assert {row["n"]: row["gaps"] for row in payload["rows"]} == FROZEN_GAP_ROWS

    def test_csv_golden(self, capsys):
        assert main(["table1", "--format", "csv"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "n,l=0,l=1,l=2,l=3,l=4,l=5,l=6,l=7,l=8,l=9"
        assert lines[6] == "95,1,0,0,0,0,1,1,0,0,0"
        assert len(lines) == 10

    def test_tsv(self, capsys):
        assert main(["table1", "--format", "tsv"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[1].split("\t") == ["90", "1", "0", "2", "0", "1", "0", "1", "0", "3", "0"]


class TestExample13Command:
    def test_json_golden(self, capsys):
        assert main(["example13"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert (payload["p"], payload["alpha"], payload["r"], payload["n"]) == (2, 1, 0, 20)
        assert payload["orders"] == FROZEN_ORDERS_N20
        assert payload["degree_bounds"] == [18 - l for l in range(22)]
        assert payload["floor_bound"] == 8

    def test_csv_shows_attainment_row(self, capsys):
        assert main(["example13", "--format", "csv"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "l,order,degree_bound,floor_bound"
        assert lines[5] == "4,14,14,8"  # order equals the degree bound at l=4
        assert len(lines) == 23


class TestVerifyCommand:
    def test_axis_flags_are_the_catalog_axes_in_first_use_order(self, capsys):
        assert _AXIS_FLAGS == (
            "p", "alpha", "n", "r", "l", "s", "t", "m",
            "beta", "d", "fdeg", "j", "k", "q", "c", "e",
        )
        with pytest.raises(SystemExit):
            main(["verify", "--help"])
        help_text = capsys.readouterr().out
        assert all(f"--{name} VALS" in help_text for name in _AXIS_FLAGS)

    def test_passing_statement(self, capsys):
        assert main(["verify", "R1.6"]) == 0
        captured = capsys.readouterr()
        payload = json.loads(captured.out)
        assert payload["status"] == "pass"
        assert payload["checked"] == 165
        assert captured.err.strip() == "R1.6: pass (checked 165, skipped 0, failures reported 0)"

    def test_grid_override_appears_in_report(self, capsys):
        assert main(["verify", "R1.6", "--n", "0..3", "--l", "0,2"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["grid"] == {"n": [0, 1, 2, 3], "l": [0, 2]}
        assert payload["checked"] == 8

    def test_negative_range_syntax(self, capsys):
        assert main(["verify", "T1.5", "--p", "2", "--alpha", "2", "--l", "0",
                     "--n", "0..5", "--r=-2..2"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["grid"]["r"] == [-2, -1, 0, 1, 2]

    def test_unknown_id_is_exit_2(self, capsys):
        assert main(["verify", "NOPE"]) == 2
        assert "known ids" in capsys.readouterr().err

    def test_unknown_axis_is_exit_2(self, capsys):
        assert main(["verify", "R1.6", "--p", "2"]) == 2
        assert "has no axis" in capsys.readouterr().err

    def test_repeated_axis_value_is_exit_2(self, capsys):
        assert main(["verify", "R1.6", "--n", "0..3,2", "--l", "3"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "axis 'n' repeats the value 2" in captured.err

    def test_all_skipped_grid_is_exit_2(self, capsys):
        assert main(["verify", "T1.3", "--r=-5"]) == 2
        assert "no checkable instances" in capsys.readouterr().err

    # Rows outside a statement's hypothesis are skipped before their check
    # runs, and an invalid p or alpha is rejected with the overrides, so
    # these keep the outcome they had when every row reached its check.
    @pytest.mark.parametrize(
        "argv, message",
        [
            (["verify", "CONJ3.1", "--p", "3,4", "--alpha", "1"], "p must be prime, got 4"),
            (
                ["verify", "T1.5", "--alpha=-1,2", "--r", "0"],
                "alpha must be a nonnegative int, got -1",
            ),
            (["verify", "T2.1", "--p", "4", "--n=-1", "--r", "0"], "p must be prime, got 4"),
            (["conjecture", "T1.5-alpha1", "--p", "4", "--n=-1"], "p must be prime, got 4"),
            (
                ["verify", "T1.3", "--r=-1"],
                "T1.3: the grid produced no checkable instances (7020 skipped by preconditions)",
            ),
        ],
    )
    def test_rows_outside_the_hypothesis_keep_their_exit_2(self, capsys, argv, message):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"

    def test_failing_theorem_is_exit_1(self, capsys, monkeypatch):
        monkeypatch.setitem(STATEMENTS, "FAKE.T", failing_statement("FAKE.T", "theorem"))
        assert main(["verify", "FAKE.T"]) == 1
        captured = capsys.readouterr()
        assert json.loads(captured.out)["status"] == "fail"
        assert "FAKE.T: fail" in captured.err

    def test_csv_format(self, capsys):
        assert main(["verify", "R1.6", "--format", "csv", "--n", "0..2"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "statement,status,checked,skipped,n,l,observed,expected"


class TestConjectureCommand:
    def test_passing_search(self, capsys):
        assert main(["conjecture", "CONJ1.2", "--n", "0..8"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["status"] == "pass"

    def test_theorem_id_is_rejected(self, capsys):
        assert main(["conjecture", "T1.1"]) == 2
        assert "conjecture ids" in capsys.readouterr().err

    def test_counterexample_is_exit_3(self, capsys, monkeypatch):
        monkeypatch.setitem(SEARCHES, "FAKE.C", failing_statement("FAKE.C", "conjecture"))
        assert main(["conjecture", "FAKE.C"]) == 3
        captured = capsys.readouterr()
        assert json.loads(captured.out)["status"] == "counterexample-found"
        assert "counterexample-found" in captured.err


class TestSuiteCommand:
    def test_default_ids_are_the_theorems_then_the_searches(self):
        theorems = tuple(sid for sid, st in STATEMENTS.items() if st.kind == "theorem")
        assert _SUITE_IDS == theorems + SEARCH_IDS
        assert len(_SUITE_IDS) == 29

    def test_writes_one_report_and_one_line_per_id(self, tmp_path, capsys):
        ids = ("R1.6", "T1.8", "T1.5-alpha1")
        assert main(["suite", "--ids", ",".join(ids), "--out-dir", str(tmp_path)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert [line.split()[:2] for line in lines] == [[sid, "pass"] for sid in ids]
        # T1.5-alpha1 is not in STATEMENTS, so it must go through the search.
        assert (tmp_path / "R1.6.json").read_text() == run_statement("R1.6").to_json() + "\n"
        assert (tmp_path / "T1.8.json").read_text() == run_statement("T1.8").to_json() + "\n"
        assert (tmp_path / "T1.5-alpha1.json").read_text() == (
            search_conjecture("T1.5-alpha1").to_json() + "\n"
        )

    def test_unknown_id_is_exit_2_before_any_sweep(self, capsys):
        assert main(["suite", "--ids", "R1.6,NOPE"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "NOPE" in captured.err

    @pytest.mark.parametrize(
        "ids, what",
        [("", "--ids was given no ids"), ("R1.6,", "an empty id"), ("R1.6,,T1.8", "an empty id")],
        ids=["empty", "trailing-comma", "inner-empty"],
    )
    def test_empty_ids_are_exit_2_before_any_sweep(self, capsys, ids, what):
        assert main(["suite", "--ids", ids]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert what in captured.err

    def test_ids_around_commas_are_stripped(self, tmp_path, capsys):
        assert main(["suite", "--ids", " R1.6, T1.8 ", "--out-dir", str(tmp_path)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert [line.split()[:2] for line in lines] == [["R1.6", "pass"], ["T1.8", "pass"]]
        assert sorted(f.name for f in tmp_path.iterdir()) == ["R1.6.json", "T1.8.json"]

    @pytest.mark.parametrize("ids", ["R1.6,R1.6", "T1.8,R1.6, R1.6"])
    def test_repeated_id_is_exit_2_before_any_sweep(self, tmp_path, capsys, ids):
        assert main(["suite", "--ids", ids, "--out-dir", str(tmp_path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: --ids repeats the id R1.6\n"
        assert list(tmp_path.iterdir()) == []

    def test_out_dir_that_is_a_file_is_exit_2_before_any_sweep(self, tmp_path, capsys):
        taken = tmp_path / "taken"
        taken.write_text("kept\n")
        assert main(["suite", "--ids", "R1.6", "--out-dir", str(taken)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: --out-dir {str(taken)!r}")
        assert taken.read_text() == "kept\n"

    def test_unwritable_report_is_exit_2(self, tmp_path, capsys):
        # The reports before it stay written; the sweeps after it never run.
        (tmp_path / "R1.6.json").mkdir()
        assert main(["suite", "--ids", "T1.8,R1.6,L4.1", "--out-dir", str(tmp_path)]) == 2
        captured = capsys.readouterr()
        assert [line.split()[0] for line in captured.out.splitlines()] == ["T1.8", "R1.6"]
        path = str(tmp_path / "R1.6.json")
        assert captured.err == f"error: --out-dir {path!r}: Is a directory\n"
        assert sorted(f.name for f in tmp_path.iterdir()) == ["R1.6.json", "T1.8.json"]
        assert (tmp_path / "T1.8.json").read_text() == run_statement("T1.8").to_json() + "\n"

    @pytest.mark.parametrize("command", ["verify", "conjecture"])
    @pytest.mark.parametrize(
        "where, strerror",
        [("missing/x.json", "No such file or directory"), (".", "Is a directory")],
        ids=["missing-directory", "directory"],
    )
    def test_unwritable_out_is_exit_2_before_any_sweep(
        self, monkeypatch, tmp_path, capsys, command, where, strerror
    ):
        calls = []
        fake = dataclasses.replace(
            failing_statement("FAKE", "theorem"), check=lambda n: calls.append(n) or True
        )
        monkeypatch.setitem(STATEMENTS if command == "verify" else SEARCHES, "FAKE", fake)
        out = str(tmp_path / where)
        assert main([command, "FAKE", "--out", out]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: --out {out!r}: {strerror}\n"
        assert calls == []

    @pytest.mark.parametrize(
        "argv",
        [
            ["sum", "--p", "2", "--alpha", "1", "--n", "3", "--r", "0"],
            ["table1"],
            ["example13", "--format", "csv"],
        ],
        ids=["sum", "table1", "example13"],
    )
    def test_unwritable_out_is_exit_2(self, tmp_path, capsys, argv):
        out = str(tmp_path / "missing" / "x")
        assert main([*argv, "--out", out]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: --out {out!r}: No such file or directory\n"
        assert main([*argv, "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err == f"error: --out {str(tmp_path)!r}: Is a directory\n"

    def test_exit_codes(self, monkeypatch, capsys):
        monkeypatch.setitem(STATEMENTS, "FAKE.T", failing_statement("FAKE.T", "theorem"))
        monkeypatch.setitem(SEARCHES, "FAKE.C", failing_statement("FAKE.C", "conjecture"))
        assert main(["suite", "--ids", "R1.6"]) == 0
        assert main(["suite", "--ids", "FAKE.C,R1.6"]) == 3
        assert main(["suite", "--ids", "FAKE.T"]) == 1
        assert main(["suite", "--ids", "FAKE.T,FAKE.C"]) == 1
        assert main(["suite", "--ids", "FAKE.C,FAKE.T"]) == 1


class TestOutputAndDeterminism:
    def test_out_flag_writes_file(self, tmp_path, capsys):
        target = tmp_path / "report.json"
        assert main(["verify", "R1.6", "--n", "0..2", "--out", str(target)]) == 0
        captured = capsys.readouterr()
        assert captured.out == ""
        assert json.loads(target.read_text())["status"] == "pass"

    def test_reports_identical_across_job_counts(self, tmp_path):
        base = ["verify", "T1.5", "--p", "2", "--alpha", "2", "--l", "0,1", "--n", "0..11"]
        one, four = tmp_path / "jobs1.json", tmp_path / "jobs4.json"
        assert main([*base, "--jobs", "1", "--out", str(one)]) == 0
        assert main([*base, "--jobs", "4", "--out", str(four)]) == 0
        assert one.read_bytes() == four.read_bytes()

    def test_jobs_default_is_one_whatever_the_environment(self, monkeypatch):
        # --jobs is the one setting for the job count; no variable stands in.
        monkeypatch.setenv("FLECKLAB_JOBS", "3")
        for command in (["verify", "R1.6"], ["conjecture", "CONJ1.1"], ["suite"]):
            assert build_parser().parse_args(command).jobs == 1
