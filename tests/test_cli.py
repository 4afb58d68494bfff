"""CLI contract: subcommands, exit codes, determinism, report schema."""

import hashlib
import json
import os
import shlex
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

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


def test_run_all_report_is_independent_of_the_hash_seed():
    """Two fresh interpreters with different PYTHONHASHSEEDs print the same report.

    The germ memos are keyed by value, so hash order must never reach the
    output; within one process the hash seed is fixed and cannot show this.
    """
    src = str(Path(__file__).resolve().parents[1] / "src")
    argv = [sys.executable, "-m", "krall6", "run", "all", "--A", "1/3", "--B", "7/2", "--nmax", "8", "--seed", "3"]
    outputs = []
    for hash_seed in ("1", "2"):
        env = {**os.environ, "PYTHONHASHSEED": hash_seed}
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        outputs.append(subprocess.run(argv, env=env, capture_output=True, check=True, timeout=300).stdout)
    assert outputs[0] == outputs[1]
    assert hashlib.sha256(outputs[0]).hexdigest() == RUN_ALL_THIRD_SEVEN_HALVES_SHA256


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


#: sha256 of dumps that reach further than `run all`: K_32, the degree-14
#: Legendre-type polynomial and all twelve order-40 Frobenius series (six
#: labels at both endpoints), at A=1/100, B=3, and four exact matrices (the
#: Gram matrix of K_0..K_12, the operator matrix of K_0..K_6, and the probe
#: and bracket matrices, whose entries are brackets of log-bearing and
#: piecewise functions).  A change to either solver or to the bracket limits
#: must leave every one byte-identical.
DEEP_DUMP_SHA256 = {
    ("poly", "K", "32"): "7c28d9deb7bcbb5e5f2ec88f65b610c9f394e4bfdab3c77c54e183f122c04789",
    ("poly", "legendre", "14"): "a523e8ec110fbd78aa12822619172c26ba5a135c83a48de6fdbc54784f438789",
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
    **{
        ("series", label, endpoint, "--order", "120"): digest
        for label, endpoint, digest in (
            ("phi-3", "+1", "359b2e855874357a2707226805bbcf1d3a2ce4e5a3ee9aee2e24040caeb1afc7"),
            ("phi-3", "-1", "f47c19caf0e700270554c09f6bfe5ee32ed757acfc2e0e6555d9c7c165703ef2"),
            ("phi-2", "+1", "b4a7af594dd1fe4acd2b412a6a6411f8405abc759b3460d723238f40578a2516"),
            ("phi-2", "-1", "c27e641c98dacd001f021d430ff17aa2569f288be7d884a957283b3b9dfb08f6"),
            ("phi-1", "+1", "9de993efd187a8c71718fa6c4fa71074f2df280368fb77f23f2eef4e4752a3f6"),
            ("phi-1", "-1", "acb67c12d5a63c83c760f33ea0abaf045fb3982162c411e12ceb3a2682b3507f"),
            ("phi-hat-1", "+1", "f9c80a4d931fbd5e0063dc47f7e00e0620cf0fc8fab98817c8f4f8fe7e415563"),
            ("phi-hat-1", "-1", "3e41503816f3a73546b4d679cc6e66fb44130c80b127a5b7f66746f0a581b048"),
            ("phi-0", "+1", "a1cadd86e95a3f9da5d5147bf961f55238bfd519b646546179eb6c68fc8e71e5"),
            ("phi-0", "-1", "66e07ff8021ffcabbac8eb610a1094d256484f3c968f5d705fb995fbfa52b881"),
            ("phi-minus-1", "+1", "d54d9be97d54ec7a211bd4ed7df5c6a32e31aa64c6e257d558f3ddd00f7268db"),
            ("phi-minus-1", "-1", "6265a67ab0c0d13c91689e70bc9ac2ea88421082f4fcc92e628a3964e839ad38"),
        )
    },
    ("matrix", "gram", "--nmax", "12"): "2f8f762cab2ff3f05b13cf5a241109032fc31d0d9179e23e6cb46008d89d421f",
    ("matrix", "operator", "--nmax", "6"): "88a97b9f5d2dbc4daa1ec1b776eb0b754caeacb32e661490723d147e3d4c18f5",
    ("matrix", "probe"): "eb86ee375b2d51d249b4c1bd6eb222727f488d2f0cccbc03bfea74d5474dcee2",
    ("matrix", "brackets"): "506351148090d688af818822486473480a012ee2c4e142312b7b4a8b99a56595",
}


# matrix pins last, so the earlier pins keep their parametrize ids
@pytest.mark.parametrize("selector", sorted(DEEP_DUMP_SHA256, key=lambda s: (s[0] == "matrix", s)))
def test_deep_dump_digests_are_pinned(capsys, selector):
    code, out, _ = run_cli(capsys, "dump", *selector, "--A", "1/100", "--B", "3")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == DEEP_DUMP_SHA256[selector]


#: sha256 of the order-200 phi-0 series at -1 at A = 1/10^6, B = 10^6/7 (902,899 bytes), whose
#: numerators and denominators run to thousands of bits: the solver's largest ints, byte for byte.
EXTREME_SERIES_SHA256 = "9a500169d2a0be902efb70c598bfa2e754d02396e8359235d29188a68c6a9c68"


def test_extreme_rational_series_dump_is_pinned(capsys):
    argv = ("dump", "series", "phi-0", "-1", "--order", "200", "--A", "1/1000000", "--B", "1000000/7")
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == EXTREME_SERIES_SHA256


#: sha256 of K_200 at A = 1/10^6, B = 10^6/7 (24,059 bytes): the centre-0 recurrence's largest ints, byte for byte.
EXTREME_K_SHA256 = "5507ab31714c4e62340c2f900e2595f0d909d26436a5b3f7361416400f7272bc"


def test_extreme_rational_eigenpolynomial_dump_is_pinned(capsys):
    code, out, _ = run_cli(capsys, "dump", "poly", "K", "200", "--A", "1/1000000", "--B", "1000000/7")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == EXTREME_K_SHA256


#: sha256 of `krall6 run concomitant delta gkn` at A = 1/10^6, B = 10^6/7, seed 5 (138,930 bytes,
#: 558 passed and 1 inconclusive): the germ route (RationalFn, LogGerm, endpoint limits) at extreme rationals.
GERM_ROUTE_EXTREME_SHA256 = "62ce8c581e6b10955859c736b71c7af48444042b5138a84d76680cfb1aa40f49"


def test_extreme_rational_germ_route_is_pinned(capsys):
    argv = ("run", "concomitant", "delta", "gkn", "--A", "1/1000000", "--B", "1000000/7", "--seed", "5")
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == GERM_ROUTE_EXTREME_SHA256


def test_gram_csv_matrix(capsys):
    code, out, _ = run_cli(capsys, "dump", "matrix", "gram", "--A", "1", "--B", "2", "--nmax", "2")
    assert code == 0
    rows = [line.split(",") for line in out.strip().splitlines()]
    assert len(rows) == 3 and all(len(r) == 3 for r in rows)
    assert rows[0][1] == "0" and rows[1][0] == "0"  # exact off-diagonal zeros
    assert rows[0][0] == "7/2"  # 1/A + 2 + 1/B at A=1, B=2


@pytest.mark.parametrize(
    "argv, message",
    [
        (("dump", "poly", "K", "-1"), "n must be non-negative"),
        (("dump", "poly", "legendre", "-1", "--A", "3/2"), "n must be non-negative"),
        (("dump", "series", "phi-0", "+1", "--order", "5"), "truncation order must be at least 12"),
        (("run", "eigen", "--A", "0"), "A must be positive"),
    ],
)
def test_library_range_error_is_usage_error(capsys, argv, message):
    # the CLI checks no range itself: the library's ValueError is the message
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert err == f"error: {message}\n"


def test_negative_parameter_is_usage_error(capsys):
    code, _, err = run_cli(capsys, "run", "gram", "--A", "1", "--B", "-1")
    assert code == 2
    assert "B must be positive" in err


@pytest.mark.parametrize("option", ["--A", "--B"])
@pytest.mark.parametrize("literal", ["abc", "0.5", "1/x", "1/2/3", "1_0"])
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


def test_dump_series_solves_one_label(capsys, monkeypatch):
    from krall6 import frobenius as fro
    from krall6.operator import KrallParams

    params = KrallParams(Fraction(1, 100), 3)
    expected = next(s for s in fro.solution_basis(1, 40, params) if s.label == "phi-minus-1")
    solved = []
    real = fro._solve_single

    def counting(local, label, order):
        solved.append(label)
        return real(local, label, order)

    monkeypatch.setattr(fro, "_solve_single", counting)
    code, out, _ = run_cli(capsys, "dump", "series", "phi-minus-1", "+1", "--order", "40", "--A", "1/100", "--B", "3")
    assert code == 0
    assert solved == ["phi-minus-1"]
    assert out == expected.format_series() + "\n"


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


def _readme_cli_commands():
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = text.split("\n## CLI\n", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    return [shlex.split(line.split("#", 1)[0]) for line in block.splitlines() if line.strip()]


def test_readme_cli_commands_succeed(capsys):
    commands = _readme_cli_commands()
    assert len(commands) >= 7 and all(argv[0] == "krall6" for argv in commands)
    for argv in commands:
        code, out, err = run_cli(capsys, *argv[1:])
        assert (code, err) == (0, ""), argv
        assert out


def test_out_file_and_timestamp_sidecar(tmp_path, capsys):
    target = tmp_path / "report.json"
    code, out, _ = run_cli(capsys, "run", "delta", "--out", str(target))
    assert code == 0 and out == ""
    payload = json.loads(target.read_text())
    assert "generated_at" not in target.read_text()
    sidecar = json.loads((tmp_path / "report.json.meta.json").read_text())
    assert "generated_at" in sidecar
    assert payload["summary"]["failed"] == 0


@pytest.mark.parametrize("command", [("run", "eigen", "--nmax", "2"), ("dump", "poly", "K", "3")])
@pytest.mark.parametrize("target", ["missing", "directory"])
def test_unwritable_out_path_is_usage_error(tmp_path, capsys, command, target):
    path = str(tmp_path / "no-such-dir" / "x.json") if target == "missing" else str(tmp_path) + "/"
    code, out, err = run_cli(capsys, *command, "--out", path)
    assert code == 2 and out == ""
    assert err.startswith(f"error: cannot write {path}: ")
    assert "Traceback" not in err


def test_dump_invalid_selector(capsys):
    code, out, err = run_cli(capsys, "dump", "series", "phi-9", "+1")
    assert code == 2 and out == ""
    assert "error: argument label: invalid choice: 'phi-9'" in err


@pytest.mark.parametrize(
    "argv, message",
    [
        (("run", "--nmax", "x"), "error: argument --nmax: invalid int value: 'x'"),
        (("run", "--bogus"), "error: unrecognized arguments: --bogus"),
    ],
)
def test_argparse_error_is_usage_error(capsys, argv, message):
    # an error argparse finds comes back from main as 2, like the library's
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith("usage: krall6 ") and err.endswith(message + "\n")


def test_dump_poly_legendre_ignores_B(capsys):
    code, out, err = run_cli(capsys, "dump", "poly", "legendre", "2", "--A", "3/2", "--B", "0")
    assert (code, err) == (0, "")
    assert run_cli(capsys, "dump", "poly", "legendre", "2", "--A", "3/2") == (0, out, "")


def test_dump_without_kind_is_usage_error(capsys):
    code, out, err = run_cli(capsys, "dump")
    assert code == 2 and out == ""
    assert err.startswith("usage: krall6 dump ")
    assert err.endswith("error: the following arguments are required: kind\n")


def test_no_command_is_usage_error(capsys):
    # `krall6` alone is a usage error on stderr, like any other, not help on stdout
    code, out, err = run_cli(capsys)
    assert code == 2 and out == ""
    assert err.startswith("usage: krall6 ")
    assert err.endswith("error: the following arguments are required: command\n")
