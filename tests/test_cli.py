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


#: sha256 of `krall6 run all --A 1/3 --B 7/2 --nmax 8 --seed 3`: the same rule
#: at unequal, non-integer parameters (those of the endpoint-log workload).
RUN_ALL_THIRD_SEVEN_HALVES_SHA256 = "8300daccde96e925d47da3d7ced1cdee27836d31df843b69dd4bf8500ea038db"


def test_run_all_report_digest_is_pinned_at_unequal_parameters(capsys):
    code, out, _ = run_cli(capsys, "run", "all", "--A", "1/3", "--B", "7/2", "--nmax", "8", "--seed", "3")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == RUN_ALL_THIRD_SEVEN_HALVES_SHA256


#: The two cases `run all` reports as inconclusive at any (A, B): the
#: analytic completeness of the eigenpolynomials is out of scope, and the bare
#: logarithm probe diverges, so it lies outside the checkable class.
DOCUMENTED_INCONCLUSIVE = {
    ("gram", "completeness-analytic-claim"),
    ("concomitant", "log-probe-reduction:out-of-class-input"),
}


@pytest.mark.parametrize("a, b", [("1/3", "7/2"), ("5", "5"), ("1/100", "3"), ("2/7", "2/7")])
def test_run_all_parameter_sweep(capsys, a, b):
    code, out, _ = run_cli(capsys, "run", "all", "--A", a, "--B", b, "--nmax", "3")
    assert code == 0
    payload = json.loads(out)
    assert payload["summary"]["failed"] == 0
    inconclusive = {
        (report["suite"], case["name"])
        for report in payload["reports"]
        for case in report["cases"]
        if case["verdict"] == "inconclusive"
    }
    assert inconclusive == DOCUMENTED_INCONCLUSIVE
    assert payload["summary"]["inconclusive"] == len(DOCUMENTED_INCONCLUSIVE)


#: sha256 of dumps that reach further than `run all`: K_32 and all twelve
#: order-40 Frobenius series (six labels at both endpoints), at A=1/100, B=3.
#: A change to either solver must leave every one byte-identical.
DEEP_DUMP_SHA256 = {
    ("poly", "K", "32"): "7c28d9deb7bcbb5e5f2ec88f65b610c9f394e4bfdab3c77c54e183f122c04789",
    **{
        ("series", label, endpoint, "--order", "40"): digest
        for label, endpoint, digest in (
            ("phi-3", "+1", "79573e3a3a9471d4e8359870ba99220ece243f8108074695282acd1a53090fc4"),
            ("phi-3", "-1", "cf071d83d2414aa93aa1adc4ab870477f6eb68466b994c270be659a585c3589b"),
            ("phi-2", "+1", "677b2db9200ede4a5c8fec6cfc2833c96103623383358227359084275b0f3ad2"),
            ("phi-2", "-1", "23e2328360aa4804495fc8890a89d4501d0d89ee96c4135e7b91ca3db2882152"),
            ("phi-1", "+1", "091e1cde19a80711ce5ba049714384154210c78f525818c425caf857471bc72e"),
            ("phi-1", "-1", "842eba288c7b90b15758b661d16967b5aee7c970e5aee7ae264d8059a453e131"),
            ("phi-hat-1", "+1", "ddbc3980f0ac9b5a6323a93b72eca467c0af7a482ac2a916b5066e0597878014"),
            ("phi-hat-1", "-1", "69f3d38bfe05db339b804eb0c65ab779ff6ad742566dddc281773271ce3994a9"),
            ("phi-0", "+1", "0e83da3961640270684ef4838e66054ae4f76abb52ed4411dfcc7869e03a5198"),
            ("phi-0", "-1", "24ef4c54f7fe905f60700ccebff6c7e9e8ae72803141c54add85c36a8a431671"),
            ("phi-minus-1", "+1", "22e7f694053ed104f75ac74d8dd77c6d2e67e449f81fde57b1031be46e2eab50"),
            ("phi-minus-1", "-1", "a6adb96bdff3edcd54cc4077d88d1c55b42426be46198a2a8a52fa8bcc7fd636"),
        )
    },
}


@pytest.mark.parametrize("selector", sorted(DEEP_DUMP_SHA256))
def test_deep_dump_digests_are_pinned(capsys, selector):
    code, out, _ = run_cli(capsys, "dump", *selector, "--A", "1/100", "--B", "3")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == DEEP_DUMP_SHA256[selector]


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


@pytest.mark.parametrize("option", ["--A", "--B"])
@pytest.mark.parametrize("literal", ["abc", "0.5", "1/x", "1/2/3"])
def test_malformed_parameter_is_usage_error(capsys, option, literal):
    code, out, err = run_cli(capsys, "run", "eigen", option, literal)
    assert code == 2 and out == ""
    assert f"{option}:" in err and "p/q" in err


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
