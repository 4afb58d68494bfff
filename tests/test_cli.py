"""CLI contract: subcommands, exit codes, determinism, report schema."""

import hashlib
import json

import pytest

from krall6.cli import main

REQUIRED_CASE_KEYS = {"name", "paper_item", "lhs", "rhs", "verdict", "witness"}
REQUIRED_REPORT_KEYS = {"suite", "params", "cases", "passed", "failed", "inconclusive"}


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def validate_report(report):
    assert set(report) == REQUIRED_REPORT_KEYS
    assert set(report["params"]) == {"A", "B"}
    counts = {"pass": 0, "fail": 0, "inconclusive": 0}
    for case in report["cases"]:
        assert set(case) == REQUIRED_CASE_KEYS
        assert case["verdict"] in counts
        assert isinstance(case["paper_item"], str) and case["paper_item"]
        assert case["witness"] is None or isinstance(case["witness"], str)
        counts[case["verdict"]] += 1
    assert counts["pass"] == report["passed"]
    assert counts["fail"] == report["failed"]
    assert counts["inconclusive"] == report["inconclusive"]
    names = [c["name"] for c in report["cases"]]
    assert names == sorted(names)


def test_run_single_suite_schema(capsys):
    code, out, _ = run_cli(capsys, "run", "eigen", "--A", "1", "--B", "2", "--nmax", "4")
    assert code == 0
    payload = json.loads(out)
    assert [r["suite"] for r in payload["reports"]] == ["eigen"]
    for report in payload["reports"]:
        validate_report(report)
    assert payload["summary"]["failed"] == 0


def test_suite_first_shorthand(capsys):
    code, out, _ = run_cli(capsys, "delta", "--A", "1", "--B", "1")
    assert code == 0
    assert json.loads(out)["reports"][0]["suite"] == "delta"


def test_reruns_byte_identical(capsys):
    args = ("run", "gkn", "errata", "--A", "3/2", "--B", "5/2", "--nmax", "3")
    code1, out1, _ = run_cli(capsys, *args)
    code2, out2, _ = run_cli(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2


def test_serial_matches_parallel(capsys):
    base = ("run", "eigen", "delta", "gkn", "--A", "1", "--B", "2", "--nmax", "3")
    _, out_par, _ = run_cli(capsys, *base)
    _, out_ser, _ = run_cli(capsys, *base, "--serial")
    assert out_par == out_ser


#: sha256 of `krall6 run all --A 1 --B 2 --nmax 8 --seed 1`.  A speed-up must
#: leave the report byte-identical; a correctness change that adds or alters
#: cases re-pins this digest and says why.
RUN_ALL_SEED_1_SHA256 = "fee3c00725de5b38a501c3334ed60c4fe4f850bfb34dba54054f063916995d1a"


def test_run_all_report_digest_is_pinned(capsys):
    code, out, _ = run_cli(capsys, "run", "all", "--A", "1", "--B", "2", "--nmax", "8", "--seed", "1")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == RUN_ALL_SEED_1_SHA256


def test_gram_csv_matrix(capsys):
    code, out, _ = run_cli(capsys, "gram", "--A", "1", "--B", "2", "--nmax", "2", "--format", "csv")
    assert code == 0
    rows = [line.split(",") for line in out.strip().splitlines()]
    assert len(rows) == 3 and all(len(r) == 3 for r in rows)
    assert rows[0][1] == "0" and rows[1][0] == "0"  # exact off-diagonal zeros
    assert rows[0][0] == "7/2"  # 1/A + 2 + 1/B at A=1, B=2


def test_csv_requires_matrix_suite(capsys):
    code, _, err = run_cli(capsys, "run", "green", "--format", "csv")
    assert code == 2
    assert "csv" in err


def test_negative_parameter_is_usage_error(capsys):
    code, _, err = run_cli(capsys, "run", "gram", "--A", "1", "--B", "-1")
    assert code == 2
    assert "B must be positive" in err


def test_unknown_suite_is_usage_error(capsys):
    code, _, err = run_cli(capsys, "run", "nonsense")
    assert code == 2
    assert "unknown suites" in err


def test_dump_poly(capsys):
    code, out, _ = run_cli(capsys, "dump", "poly", "K", "3", "--A", "1", "--B", "1")
    assert code == 0
    coeffs = out.strip().split(",")
    assert len(coeffs) == 4 and coeffs[-1] == "1"  # monic cubic
    code, out, _ = run_cli(capsys, "dump", "poly", "legendre", "2", "--A", "1", "--B", "1")
    assert code == 0


def test_dump_series(capsys):
    code, out, _ = run_cli(capsys, "dump", "series", "phi-hat-1", "+1", "--order", "14", "--A", "1", "--B", "1")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("endpoint +1; exponent 1; log-degree 1; order 14")
    assert any(line.startswith("(0, 1) 3") for line in lines)


def test_dump_matrix_operator(capsys):
    code, out, _ = run_cli(capsys, "dump", "matrix", "operator", "--nmax", "3", "--A", "1", "--B", "1")
    assert code == 0
    rows = [line.split(",") for line in out.strip().splitlines()]
    assert rows[1][1] == "48" and rows[2][2] == "432" and rows[3][3] == "2448"
    assert rows[0][1] == "0"


@pytest.mark.parametrize("which", ["gram", "operator"])
def test_dump_matrix_negative_nmax_is_usage_error(capsys, which):
    code, out, err = run_cli(capsys, "dump", "matrix", which, "--nmax", "-1")
    assert code == 2 and out == ""
    assert "nmax must be non-negative" in err


def test_dump_matrix_probe_and_brackets(capsys):
    code, out, _ = run_cli(capsys, "dump", "matrix", "probe", "--A", "1", "--B", "2")
    assert code == 0
    assert out.splitlines()[2] == "0,0,64,0"
    code, out, _ = run_cli(capsys, "dump", "matrix", "brackets", "--A", "1", "--B", "2")
    assert code == 0
    assert all(cell == "0" for row in out.strip().splitlines() for cell in row.split(","))


def test_out_file_and_timestamp_sidecar(tmp_path, capsys):
    target = tmp_path / "report.json"
    code, out, _ = run_cli(capsys, "run", "delta", "--out", str(target))
    assert code == 0 and out == ""
    payload = json.loads(target.read_text())
    assert "generated_at" not in target.read_text()
    sidecar = json.loads((tmp_path / "report.json.meta.json").read_text())
    assert "generated_at" in sidecar
    assert payload["summary"]["failed"] == 0


def test_dump_invalid_selector(capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli(capsys, "dump", "series", "phi-9", "+1")
    assert exc.value.code == 2
