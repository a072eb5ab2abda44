import json
import os
import shutil
import subprocess
import sys

import pytest

from circuitcodes import cli, verify
from circuitcodes.cli import main
from circuitcodes.tables import KnownValue
from circuitcodes.verify import InternalConsistencyError


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestVerify:
    def test_valid_square(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--d", "2", "--k", "1", "--seq", "1,2,1,2")
        assert code == 0
        assert out.strip() == "valid n=4 longest_bit_run=2 symmetric=yes"

    def test_violation(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "--d", "3", "--k", "2", "--seq", "1,2,1,3,1,2,1,3"
        )
        assert code == 2
        assert out.strip() == (
            "violation i=1 j=4 code_dist=3 cube_dist=1 required=2 segment=1,2,1"
        )

    def test_search_witness_verifies(self, capsys, rec_52):
        seq = ",".join(str(c) for c in rec_52.witnesses[0])
        code, out, _ = run_cli(capsys, "verify", "--d", "5", "--k", "2", "--seq", seq)
        assert code == 0
        assert "valid n=14" in out

    @pytest.mark.parametrize(
        "seq", ["1,2,0,2", "1,2,x", "1,2,9", "1,-1"]
    )
    def test_malformed_exits_1(self, capsys, seq):
        code, _, err = run_cli(capsys, "verify", "--d", "3", "--k", "1", "--seq", seq)
        assert code == 1
        assert "position" in err or "range" in err

    def test_open_walk_exits_1(self, capsys):
        code, _, err = run_cli(capsys, "verify", "--d", "3", "--k", "1", "--seq", "1,2,3")
        assert code == 1
        assert "closed" in err or "cycle" in err

    def test_file_input(self, capsys, tmp_path):
        f = tmp_path / "seq.txt"
        f.write_text("1,2,1,2\n")
        code, out, _ = run_cli(capsys, "verify", "--d", "2", "--k", "1", "--file", str(f))
        assert code == 0
        assert out.startswith("valid")

    def test_bad_params_exit_1(self, capsys):
        code, _, _ = run_cli(capsys, "verify", "--d", "1", "--k", "1", "--seq", "1,1")
        assert code == 1

    def test_missing_file_exit_1(self, capsys, tmp_path):
        code, _, err = run_cli(
            capsys, "verify", "--d", "2", "--k", "1", "--file", str(tmp_path / "nope")
        )
        assert code == 1


class TestSearch:
    def test_5_2_match(self, capsys):
        code, out, _ = run_cli(capsys, "search", "--d", "5", "--k", "2")
        assert code == 0
        lines = out.strip().splitlines()
        record = json.loads(lines[0])
        assert record["n"] == 14
        assert record["exhaustive"] is True
        assert record["mode"] == "general"
        assert lines[1].startswith("MATCH n=14 expected=14")

    def test_3_1_match_odd_rule(self, capsys):
        code, out, _ = run_cli(capsys, "search", "--d", "3", "--k", "1")
        assert code == 0
        assert json.loads(out.splitlines()[0])["n"] == 8
        assert "MATCH n=8 expected=8" in out

    def test_uncovered_family_prints_no_match(self, capsys):
        code, out, _ = run_cli(capsys, "search", "--d", "4", "--k", "2")
        assert code == 0
        assert "MATCH" not in out and "MISMATCH" not in out

    def test_symmetric_flag(self, capsys):
        code, out, _ = run_cli(capsys, "search", "--d", "6", "--k", "3", "--symmetric")
        assert code == 0
        record = json.loads(out.splitlines()[0])
        assert record["mode"] == "symmetric" and record["n"] == 16

    def test_out_file_appends(self, capsys, tmp_path):
        out_file = tmp_path / "results.jsonl"
        for _ in range(2):
            code, _, _ = run_cli(
                capsys, "search", "--d", "3", "--k", "1", "--out", str(out_file)
            )
            assert code == 0
        lines = out_file.read_text().strip().splitlines()
        assert len(lines) == 2
        first, second = (json.loads(ln) for ln in lines)
        assert first["n"] == second["n"] == 8
        assert first["witnesses"] == second["witnesses"]

    def test_decision_mode(self, capsys):
        code, out, _ = run_cli(
            capsys, "search", "--d", "5", "--k", "2", "--target", "14"
        )
        assert code == 0
        assert "target=14 reached=yes" in out

    def test_decision_mode_no(self, capsys):
        code, out, _ = run_cli(
            capsys, "search", "--d", "5", "--k", "2", "--target", "16"
        )
        assert code == 0
        assert "target=16 reached=no" in out

    def test_truncation_exits_3(self, capsys):
        code, out, err = run_cli(
            capsys, "search", "--d", "16", "--k", "9", "--node-budget", "2000"
        )
        assert code == 3
        record = json.loads(out.splitlines()[0])
        assert record["exhaustive"] is False
        assert record["nodes"] == 2000
        assert "MATCH" not in out and "MISMATCH" not in out
        assert "truncated" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["search", "--d", "5", "--k", "2", "--target", "13"],
            ["search", "--d", "5", "--k", "2", "--target", "14", "--threads", "2"],
            ["search", "--d", "5", "--k", "2", "--family-l", "1"],
            ["search", "--d", "1", "--k", "1"],
            ["search", "--d", "5", "--k", "0"],
            ["search", "--d", "21", "--k", "5"],
            ["search", "--d", "5", "--k", "2", "--threads", "2", "--node-budget", "100"],
            ["enumerate", "--d", "5", "--k", "2", "--out", "enumerate.jsonl"],
            ["enumerate", "--d", "5", "--k", "2", "--target", "14"],
            # a NaN deadline never expires
            ["search", "--d", "5", "--k", "2", "--time-limit", "nan"],
            ["search", "--d", "5", "--k", "2", "--node-budget", "0"],
            ["search", "--d", "5", "--k", "2", "--max-length", "-1"],
        ],
    )
    def test_invalid_flags_exit_1(self, capsys, argv):
        code, _, _ = run_cli(capsys, *argv)
        assert code == 1

    @pytest.mark.parametrize("extra", [["--node-budget", "5"], ["--target", "14"]])
    def test_zero_workers_is_the_reported_error(self, capsys, extra):
        # the worker count is checked before the single-worker rules
        code, _, err = run_cli(capsys, "search", "--d", "5", "--k", "2", "--threads", "0", *extra)
        assert code == 1
        assert "workers must be >= 1" in err

    def test_out_into_missing_directory_exits_1(self, capsys, tmp_path):
        # the record still reaches stdout; no verdict follows the failed append
        path = tmp_path / "missing" / "runs.jsonl"
        code, out, err = run_cli(capsys, "search", "--d", "3", "--k", "1", "--out", str(path))
        assert code == 1
        assert len(out.splitlines()) == 1 and json.loads(out)["n"] == 8
        assert err == (
            f"search: cannot append to {path}: "
            f"[Errno 2] No such file or directory: '{path}'\n"
        )

    def test_max_length_flag_bounds_the_search(self, capsys):
        # a capped run is not a proof: exit 3 and no table verdict
        for d, k, cap in (("3", "1", "6"), ("5", "2", "10")):
            code, out, err = run_cli(
                capsys, "search", "--d", d, "--k", k, "--max-length", cap
            )
            assert code == 3
            record = json.loads(out.splitlines()[0])
            assert record["n"] == int(cap) and record["exhaustive"] is False
            assert "MATCH" not in out and "MISMATCH" not in out
            assert "truncated (length)" in err

    def test_table_mismatch_exits_4(self, capsys, monkeypatch):
        wrong = KnownValue(16, False, "wrong on purpose")
        monkeypatch.setattr(cli, "lookup", lambda params, mode, l=None: wrong)
        code, out, _ = run_cli(capsys, "search", "--d", "5", "--k", "2")
        assert code == 4
        assert "MISMATCH n=14 expected=16 classes=3" in out

    def test_unique_row_with_three_classes_exits_4(self, capsys, monkeypatch):
        # K(5,2) has three classes even up to reversal
        unique = KnownValue(14, True, "unique on purpose")
        monkeypatch.setattr(cli, "lookup", lambda params, mode, l=None: unique)
        code, out, err = run_cli(capsys, "search", "--d", "5", "--k", "2")
        assert code == 4
        assert "MISMATCH n=14 expected=14 classes=3 (unique on purpose)" in out
        assert "3 classes where the known-values table has one" in err

    def test_unique_row_merges_reversed_witnesses(self, capsys, monkeypatch):
        # two witnesses up to rotation and relabeling, one class with reversal
        from circuitcodes import CodeParams, canonical_form
        from circuitcodes.search import SearchRecord

        word = (1, 2, 1, 3, 1, 2, 4, 1, 3, 4)
        mirror = canonical_form(word[::-1]).word
        assert mirror != word
        record = SearchRecord(
            CodeParams(4, 1), "general", None, 10, True, (word, mirror), 1, 0.0
        )
        monkeypatch.setattr(cli, "max_length", lambda params, options: record)
        unique = KnownValue(10, True, "unique on purpose")
        monkeypatch.setattr(cli, "lookup", lambda params, mode, l=None: unique)
        code, out, _ = run_cli(capsys, "search", "--d", "4", "--k", "1")
        assert code == 0
        assert "MATCH n=10 expected=10 classes=1 (unique on purpose)" in out

    def test_unique_table_row_matches_with_one_class(self, capsys):
        code, out, _ = run_cli(capsys, "search", "--d", "8", "--k", "4", "--symmetric")
        assert code == 0
        assert out.splitlines()[1].startswith("MATCH n=22 expected=22 classes=1 (")

    def test_missed_floor_exits_4(self, capsys, monkeypatch):
        # an exhaustive run that cannot re-find the symmetric floor is a bug
        from circuitcodes import search

        monkeypatch.setattr(
            search, "_symmetric_floor", lambda *args: search._RunResult(16, [], 1, "complete")
        )
        code, out, err = run_cli(capsys, "search", "--d", "5", "--k", "2")
        assert code == 4
        assert out == ""
        assert "symmetric floor 16" in err
        code, out, err = run_cli(capsys, "enumerate", "--d", "5", "--k", "2")
        assert code == 4 and out == ""

    def test_time_limit_flag_truncates(self, capsys):
        code, out, _ = run_cli(
            capsys, "search", "--d", "16", "--k", "9", "--time-limit", "0.2"
        )
        assert code == 3
        assert json.loads(out.splitlines()[0])["exhaustive"] is False

    def test_threads_flag_matches_single(self, capsys):
        _, out1, _ = run_cli(capsys, "search", "--d", "5", "--k", "2")
        _, out2, _ = run_cli(capsys, "search", "--d", "5", "--k", "2", "--threads", "2")
        a, b = json.loads(out1.splitlines()[0]), json.loads(out2.splitlines()[0])
        assert a["witnesses"] == b["witnesses"]
        assert a["nodes"] == b["nodes"]


class TestEnumerate:
    def test_2_1(self, capsys):
        code, out, _ = run_cli(capsys, "enumerate", "--d", "2", "--k", "1")
        assert code == 0
        assert out.strip() == "1,2,1,2 1"

    def test_6_3_single_class(self, capsys):
        code, out, _ = run_cli(capsys, "enumerate", "--d", "6", "--k", "3")
        assert code == 0
        assert len(out.strip().splitlines()) == 1

    @pytest.mark.parametrize("mode", [["--symmetric"], ["--family-l", "3"]])
    def test_symmetric_and_family_8_4(self, capsys, mode):
        code, out, err = run_cli(capsys, "enumerate", "--d", "8", "--k", "4", *mode)
        assert (code, err) == (0, "")
        assert out == "1,2,3,4,5,1,6,2,7,4,8,1,2,3,4,5,1,6,2,7,4,8 3\n"

    def test_zero_workers_exits_1(self, capsys):
        code, out, err = run_cli(capsys, "enumerate", "--d", "5", "--k", "2", "--threads", "0")
        assert (code, out, err) == (1, "", "enumerate: workers must be >= 1\n")

    def test_truncated_prints_nothing(self, capsys):
        code, out, err = run_cli(
            capsys, "enumerate", "--d", "16", "--k", "9", "--node-budget", "300"
        )
        assert code == 3
        assert out == ""
        assert "no class list" in err


class TestCanon:
    @pytest.mark.parametrize(
        "seq,want",
        [("2,1,2,1", "1,2,1,2"), ("3,1,3,1", "1,2,1,2"), ("1,2,1,2", "1,2,1,2")],
    )
    def test_examples(self, capsys, seq, want):
        code, out, _ = run_cli(capsys, "canon", "--seq", seq)
        assert code == 0
        lines = dict(
            ln.split(": ", 1) for ln in out.strip().splitlines() if ": " in ln
        )
        assert lines["canonical"] == want
        assert "shift" in lines and "relabeling" in lines

    def test_with_reversal(self, capsys):
        code, out, _ = run_cli(capsys, "canon", "--seq", "1,2,1,2", "--with-reversal")
        assert code == 0
        assert "reversed: no" in out

    def test_malformed(self, capsys):
        code, _, _ = run_cli(capsys, "canon", "--seq", "1,0")
        assert code == 1


class TestAudit:
    CUBE_3_1 = '{"d": 3, "k": 1, "transitions": [1, 2, 1, 3, 1, 2, 1, 3]}'

    @staticmethod
    def write_records(path, records):
        path.write_text("\n".join(json.dumps(r) for r in records) + "\n")

    def test_searched_maxima_pass(self, capsys, tmp_path, rec_63, rec_84_sym):
        records = []
        for rec in (rec_63, rec_84_sym):
            for w in rec.witnesses:
                records.append(
                    {
                        "d": rec.params.d,
                        "k": rec.params.k,
                        "n": len(w),
                        "transitions": list(w),
                        "symmetric": True,
                        "canonical": True,
                        "source": "searched",
                    }
                )
        f = tmp_path / "maxima.jsonl"
        self.write_records(f, records)
        code, out, _ = run_cli(capsys, "audit", "--file", str(f))
        assert code == 0
        assert "FAIL" not in out
        assert "bitrun_normal_form ok" in out  # the (8,4) record reaches the normal form
        assert "longest_bit_run=7" in out

    def test_invalid_code_fails_with_exit_4(self, capsys, tmp_path):
        f = tmp_path / "bad.jsonl"
        self.write_records(
            f,
            [
                {
                    "d": 3,
                    "k": 2,
                    "n": 8,
                    "transitions": [1, 2, 1, 3, 1, 2, 1, 3],
                    "symmetric": True,
                    "canonical": False,
                    "source": "user",
                }
            ],
        )
        code, out, _ = run_cli(capsys, "audit", "--file", str(f))
        assert code == 4
        assert "delta_inequalities FAIL" in out
        assert "labels=1,2,1 delta=1" in out

    def test_default_d_k_flags(self, capsys, tmp_path):
        f = tmp_path / "min.jsonl"
        self.write_records(f, [{"transitions": [1, 2, 1, 3, 1, 2, 1, 3]}])
        code, out, _ = run_cli(capsys, "audit", "--file", str(f), "--d", "3", "--k", "1")
        assert code == 0
        assert "delta_inequalities ok" in out

    def test_missing_d_k_is_input_error(self, capsys, tmp_path):
        f = tmp_path / "nodk.jsonl"
        self.write_records(f, [{"transitions": [1, 2, 1, 2]}])
        code, _, err = run_cli(capsys, "audit", "--file", str(f))
        assert code == 1

    def test_malformed_line_is_input_error(self, capsys, tmp_path):
        f = tmp_path / "junk.jsonl"
        f.write_text("{not json}\n")
        code, _, _ = run_cli(capsys, "audit", "--file", str(f))
        assert code == 1

    def test_mismatched_length_is_input_error(self, capsys, tmp_path):
        f = tmp_path / "short.jsonl"
        self.write_records(
            f,
            [{"d": 2, "k": 1, "n": 5, "transitions": [1, 2, 1, 2], "symmetric": True,
              "canonical": True, "source": "user"}],
        )
        code, _, err = run_cli(capsys, "audit", "--file", str(f))
        assert code == 1
        assert "n=5" in err or "claims" in err

    def test_missing_file(self, capsys, tmp_path):
        code, _, _ = run_cli(capsys, "audit", "--file", str(tmp_path / "absent.jsonl"))
        assert code == 1

    @pytest.mark.parametrize(
        "line,message",
        [
            ("[1, 2, 1, 2]", "record is not a JSON object"),
            ('{"d": 3, "k": 1, "witnesses": 5}', "record needs a list of transitions or of witnesses"),
            # the audits' own cycle precondition, with its message
            (
                '{"d": 3, "k": 1, "transitions": [1, 2, 3, 1]}',
                "sequence is not closed: walk does not return to origin",
            ),
            (
                '{"d": 2, "k": 1, "transitions": [1, 1]}',
                "a cycle in the hypercube has at least 4 transitions, got 2",
            ),
        ],
        ids=["array", "witnesses-5", "open-walk", "two-steps"],
    )
    def test_non_record_line_is_input_error(self, capsys, tmp_path, line, message):
        f = tmp_path / "bad.jsonl"
        f.write_text(self.CUBE_3_1 + "\n\n" + line + "\n")
        code, out, err = run_cli(capsys, "audit", "--file", str(f))
        assert (code, out, err) == (1, "", f"audit: line 3: {message}\n")

    def test_blank_lines_are_skipped(self, capsys, tmp_path):
        f = tmp_path / "gaps.jsonl"
        f.write_text("\n" + self.CUBE_3_1 + "\n   \n\n" + self.CUBE_3_1 + "\n")
        code, out, err = run_cli(capsys, "audit", "--file", str(f))
        assert (code, err) == (0, "")
        assert "record 2: window_bitrun ok" in out and "record 3:" not in out

    def test_short_record_skips_every_audit(self, capsys, tmp_path):
        # n = 4 <= 2k: no audit applies, and a run of skips passes
        f = tmp_path / "square.jsonl"
        self.write_records(f, [{"d": 3, "k": 2, "transitions": [1, 2, 1, 2]}])
        code, out, err = run_cli(capsys, "audit", "--file", str(f))
        assert (code, err) == (0, "")
        assert out.splitlines() == [
            "record 1: d=3 k=2 n=4 symmetric=yes longest_bit_run=2",
            "record 1: delta_inequalities skipped (delta audit needs length > 4, got 4)",
            "record 1: window_bitrun skipped (window property needs length > 6, got 4)",
            "record 1: bitrun_normal_form skipped (normal form needs 2d = 3k+4, got d=3, k=2)",
        ]

    def test_normal_form_inconsistency_fails_with_exit_4(self, capsys, tmp_path, monkeypatch):
        def broken(word, params):
            raise InternalConsistencyError("normal form lost its head run")

        monkeypatch.setattr(cli, "normalize_to_bitrun_form", broken)
        f = tmp_path / "s84.jsonl"
        self.write_records(
            f, [{"d": 8, "k": 4, "transitions": [1, 2, 3, 4, 5, 1, 6, 2, 7, 4, 8] * 2}]
        )
        code, out, err = run_cli(capsys, "audit", "--file", str(f))
        assert (code, err) == (4, "")
        assert "record 1: delta_inequalities ok" in out
        assert "record 1: window_bitrun ok" in out
        assert "record 1: bitrun_normal_form FAIL (normal form lost its head run)" in out

    def test_each_record_is_validated_and_run_once(
        self, capsys, tmp_path, monkeypatch, rec_84_sym
    ):
        # the header and all three audits share one validation and run table
        calls = []

        def counted(name, real):
            def wrapper(*args):
                calls.append(name)
                return real(*args)

            return wrapper

        for name in ("as_word", "leading_runs", "prefix_masks"):
            monkeypatch.setattr(verify, name, counted(name, getattr(verify, name)))
        f = tmp_path / "s84.jsonl"
        word = list(rec_84_sym.witnesses[0])
        self.write_records(f, [{"d": 8, "k": 4, "transitions": word}] * 2)
        code, out, err = run_cli(capsys, "audit", "--file", str(f))
        assert (code, err) == (0, "")
        assert out.count("bitrun_normal_form ok") == 2
        assert sorted(calls) == ["as_word"] * 2 + ["leading_runs"] * 2 + ["prefix_masks"] * 2

    def test_boolean_k_is_input_error(self, capsys, tmp_path):
        f = tmp_path / "bool.jsonl"
        self.write_records(
            f,
            [
                {"d": 3, "k": 1, "transitions": [1, 2, 1, 3, 1, 2, 1, 3]},
                {"d": 4, "k": True, "transitions": [1, 2, 1, 2]},
            ],
        )
        code, out, err = run_cli(capsys, "audit", "--file", str(f))
        assert code == 1
        assert out == ""
        assert "line 2" in err and "integers" in err

    def test_open_walk_is_input_error_before_any_report(self, capsys, tmp_path):
        f = tmp_path / "open.jsonl"
        self.write_records(
            f,
            [
                {"d": 3, "k": 1, "transitions": [1, 2, 1, 3, 1, 2, 1, 3]},
                {"d": 3, "k": 1, "transitions": [1, 2, 3, 1, 2]},
            ],
        )
        code, out, err = run_cli(capsys, "audit", "--file", str(f))
        assert code == 1
        assert out == ""
        assert "line 2" in err


class TestSearchThenAudit:
    """``audit --file`` reads the records ``search --out`` writes."""

    @staticmethod
    def search_out(capsys, path, *argv):
        code, _, _ = run_cli(capsys, "search", *argv, "--out", str(path))
        assert code == 0

    def test_symmetric_8_4_reaches_the_normal_form(self, capsys, tmp_path):
        f = tmp_path / "s84.jsonl"
        self.search_out(capsys, f, "--d", "8", "--k", "4", "--symmetric")
        code, out, _ = run_cli(capsys, "audit", "--file", str(f))
        assert code == 0
        assert "record 1: bitrun_normal_form ok" in out
        assert "FAIL" not in out

    def test_each_witness_is_a_record(self, capsys, tmp_path):
        f = tmp_path / "k52.jsonl"
        self.search_out(capsys, f, "--d", "5", "--k", "2")
        code, out, _ = run_cli(capsys, "audit", "--file", str(f))
        assert code == 0
        for idx in (1, 2, 3):
            assert f"record {idx}: d=5 k=2 n=14 " in out
        assert "record 4:" not in out

    def test_label_above_d_exits_1_before_any_report(self, capsys, tmp_path):
        f = tmp_path / "mixed.jsonl"
        self.search_out(capsys, f, "--d", "5", "--k", "2")
        with open(f, "a", encoding="utf-8") as fh:
            fh.write('{"d":3,"k":1,"transitions":[1,2,5,1,2,5]}\n')
        code, out, err = run_cli(capsys, "audit", "--file", str(f))
        assert code == 1
        assert out == ""
        assert "line 2" in err and "label 5" in err


class TestEntryPoint:
    def test_console_script_if_installed(self):
        exe = shutil.which("circuitcodes")
        if exe is None:
            pytest.skip("console script not on PATH")
        proc = subprocess.run(
            [exe, "verify", "--d", "2", "--k", "1", "--seq", "1,2,1,2"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert proc.stdout.startswith("valid")

    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "circuitcodes.cli", "canon", "--seq", "2,1,2,1"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert "canonical: 1,2,1,2" in proc.stdout

    def test_import_loads_no_pool_or_array_module(self):
        # importing the CLI does no work that only a multi-worker search or
        # the verifier's first call needs
        code = "import sys, circuitcodes.cli; print(sorted({'array', 'multiprocessing'} & set(sys.modules)))"
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert (proc.returncode, proc.stdout) == (0, "[]\n")

    def test_usage_error_exit_1(self, capsys):
        assert main(["bogus-subcommand"]) == 1

    def test_closed_stdout_exits_141(self, monkeypatch, tmp_path):
        # `search ... | head -1` where the reader is gone before the first line
        class ClosedPipe:
            def __init__(self, fd):
                self.fd = fd

            def write(self, text):
                raise BrokenPipeError(32, "Broken pipe")

            def flush(self):
                pass

            def fileno(self):
                return self.fd

        with open(tmp_path / "stdout", "w") as sink:
            monkeypatch.setattr(sys, "stdout", ClosedPipe(sink.fileno()))
            assert main(["search", "--d", "5", "--k", "2"]) == 141
            # what is still buffered goes to devnull at exit
            assert os.path.samestat(os.fstat(sink.fileno()), os.stat(os.devnull))
