"""Command-line behavior: formats, exit codes, determinism."""

import csv
import json
import subprocess
import sys
import time
from pathlib import Path

import pytest

from welltempered import cli
from welltempered.cli import main


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_mold_show_golden_listing(capsys):
    code, out, _ = run(capsys, ["mold", "show", "--mold", "F", "--count", "12"])
    assert code == 0
    assert out == ("0, 1, 1.6180, 2, 2.3820, 2.6180, 2.8541, 3, 3.2361, "
                   "3.3820, 3.5279, 3.6180\n")


def test_mold_show_metric_listing(capsys):
    code, out, _ = run(capsys, ["mold", "show", "--mold", "L", "--count", "5"])
    assert code == 0
    assert out == "0, 1, 1.5850, 2, 2.3219\n"


def test_mold_show_perfect_granularity(capsys):
    code, out, _ = run(capsys, ["mold", "show", "--mold", "perfect",
                                "--granularity", "4", "--count", "6"])
    assert code == 0
    assert out == "0, 1, 1.25, 1.5, 1.75, 2\n"


def test_mold_show_exact_forms(capsys):
    code, out, _ = run(capsys, ["mold", "show", "--mold", "Q", "--count", "8",
                                "--exact"])
    assert code == 0
    assert out == "0, 1, 5/4, 3/2, 7/4, 2, 17/8, 9/4\n"


def test_mold_show_csv(capsys):
    code, out, _ = run(capsys, ["mold", "show", "--mold", "F", "--count", "3",
                                "--format", "csv"])
    assert code == 0
    assert out == "i,mu_i\n0,0\n1,1\n2,1.6180\n"


def test_mold_show_json_round_trips(capsys):
    code, out, _ = run(capsys, ["mold", "show", "--mold", "D", "--count", "4",
                                "--format", "json"])
    assert code == 0
    payload = json.loads(out)
    assert payload["mold"] == "D"
    assert payload["elements"] == ["0", "1", "1.1", "1.2"]
    assert json.dumps(payload, indent=2, sort_keys=True) + "\n" == out


def test_mold_show_usage_errors(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["mold", "show", "--mold", "perfect", "--count", "4"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["mold", "show", "--mold", "F", "--granularity", "3"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["mold", "show", "--mold", "X"])
    assert exc.value.code == 2
    capsys.readouterr()


def test_table_values(capsys):
    code, out, _ = run(capsys, ["table", "--m", "12", "--count", "5",
                                "--format", "csv"])
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "i,m_lambda_i,m_phi_i"
    assert lines[1] == "0,0.0000,0.0000"
    assert lines[3] == "2,19.0196,19.4164"
    assert lines[5] == "4,27.8631,28.5836"


def test_table_row_16_of_m18(capsys):
    code, out, _ = run(capsys, ["table", "--m", "18", "--count", "17",
                                "--format", "csv"])
    assert code == 0
    assert out.splitlines()[-1] == "16,73.5743,74.6262"


def test_table_warns_on_unlisted_multiplicity(capsys):
    code, out, err = run(capsys, ["table", "--m", "7", "--count", "3"])
    assert code == 0
    assert "note:" in err
    assert out.splitlines()[0] == "i m_lambda_i m_phi_i"
    assert len(out.splitlines()) == 4


def test_discretize_well_tempered(capsys):
    code, out, _ = run(capsys, ["discretize", "--mold", "F", "--m", "12",
                                "--alpha", "1"])
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == ("semigroup: {0, 12, 19, 24, 28, 31, 34, 36, 38, 40, "
                        "42, 43} and every n >= 45")
    assert lines[1] == "multiplicity: 12"
    assert lines[2] == "genus: 33"
    assert lines[3].startswith("verification: holds-on-prefix")
    assert lines[4] == "collapse: 55 at index 22"
    assert lines[5].startswith("even-filterable: holds-on-prefix")
    assert "s_2+s_2=s_8" in lines[5]
    assert "s_2+s_4=s_14" in lines[5]
    assert "s_2+s_6=s_20" in lines[5]


def test_discretize_closure_failure_is_reported(capsys):
    code, out, _ = run(capsys, ["discretize", "--mold", "Q", "--m", "19",
                                "--alpha", "1/2"])
    assert code == 0
    verification = [ln for ln in out.splitlines()
                    if ln.startswith("verification:")][0]
    assert "fails" in verification
    assert "24 + 29 = 53" in verification


def test_discretize_json(capsys):
    code, out, _ = run(capsys, ["discretize", "--mold", "L", "--m", "12",
                                "--alpha", "0.4", "--format", "json"])
    assert code == 0
    payload = json.loads(out)
    assert payload["conductor"] == 45
    assert payload["prefix"][:4] == [0, 12, 19, 24]
    assert payload["alpha"] == "2/5"
    assert payload["verification"]["verdict"] == "holds-on-prefix"
    assert json.dumps(payload, indent=2, sort_keys=True) + "\n" == out


# exact rationals whose numerator or denominator passes the interpreter's
# int-string digit limit; unbounded, 1e-10000000 runs for seconds or minutes
HOSTILE_RATIONALS = ("1e-5000", "1e-10000000", "1e10000000", "0.1e-4299",
                     "1/" + "9" * 5000, "9" * 4000 + "." + "1" * 4000, "x" * 3000, "\x01" * 40)


def assert_short_usage_error(capsys, label):
    # an echoed argument is cut to 40 characters, so no error line is long
    captured = capsys.readouterr()
    assert captured.out == "", label
    assert captured.err and max(map(len, captured.err.splitlines())) < 120, label


def test_discretize_alpha_validation(capsys):
    for alpha in ("3/2", "-0.1", "abc", "1/0", "1e", "1e1e1") + HOSTILE_RATIONALS:
        start = time.perf_counter()
        with pytest.raises(SystemExit) as exc:
            main(["discretize", "--mold", "F", "--m", "12", "--alpha", alpha])
        assert exc.value.code == 2, alpha[:20]
        assert time.perf_counter() - start < 1.0, alpha[:20]
        assert_short_usage_error(capsys, alpha[:20])
    # a short invalid argument is echoed whole, a long one cut with its length
    for alpha, shown in (("abc", "'abc'"),
                         ("1/" + "9" * 5000, f"'1/{'9' * 38}'... (5002 characters)"),
                         ("\x01" * 40, "'" + r"\x01" * 10 + "'... (40 characters)")):
        with pytest.raises(SystemExit):
            main(["discretize", "--mold", "F", "--m", "12", "--alpha", alpha])
        assert capsys.readouterr().err.endswith(f"error: invalid alpha {shown}\n")
    # the limit's edge, and an exponent the mantissa cancels, still parse
    for alpha in ("1e-4299", "1000e-4302", "4e-1", "25e-2", "7/8"):
        code, out, _ = run(capsys, ["discretize", "--mold", "F", "--m", "12", "--alpha", alpha])
        assert code == 0 and out, alpha[:20]


def test_search_unique_match(capsys):
    code, out, _ = run(capsys, ["search", "--m", "12"])
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "matches: 1"
    assert lines[2] == "  interval_L: (0.0496, 0.4053]"
    assert lines[3] == "  interval_F: (0.9149, 1.0000]"
    assert "42, 43} and every n >= 45" in lines[4]
    assert lines[5] == "  even-filterable: holds-on-prefix / holds-on-prefix"


def test_search_empty(capsys):
    code, out, _ = run(capsys, ["search", "--m", "11"])
    assert code == 0
    assert out == "matches: 0\n"


def test_search_json_round_trips(capsys):
    code, out, _ = run(capsys, ["search", "--m", "13", "--format", "json"])
    assert code == 0
    payload = json.loads(out)
    assert len(payload["matches"]) == 3
    assert [mt["conductor"] for mt in payload["matches"]] == [54, 54, 55]
    assert payload["matches"][0]["interval_L"]["ceiling_point"] is True
    assert json.dumps(payload, indent=2, sort_keys=True) + "\n" == out


def test_search_exact_endpoints(capsys):
    code, out, _ = run(capsys, ["search", "--m", "18", "--exact"])
    assert code == 0
    assert "  interval_L: (0, 36*log2(3)-57]" in out.splitlines()


def test_theorem_checks_pass(capsys):
    for which in ("4", "5", "6"):
        code, out, _ = run(capsys, ["theorem", "--which", which])
        assert code == 0, which
        assert out.splitlines()[-1] == "verdict: PASS"


def test_theorem_6_details(capsys):
    code, out, _ = run(capsys, ["theorem", "--which", "6", "--format", "json"])
    assert code == 0
    payload = json.loads(out)
    assert payload["conductor"] == 45
    assert payload["collapse"]["kappa"] == 55
    assert [st["satisfied"] for st in payload["trace"]] == [True, True, True]
    assert payload["verdict"] == "PASS"


def test_fractal_division_golden(capsys):
    code, out, _ = run(capsys, ["fractal-division", "--p", "golden",
                                "--depth", "2"])
    assert code == 0
    assert out == "0, 0.3820, 0.6180, 0.8541, 1\n"


def test_fractal_division_golden_exact(capsys):
    code, out, _ = run(capsys, ["fractal-division", "--p", "golden",
                                "--depth", "2", "--exact"])
    assert code == 0
    assert out == "0, 1-1*tau, 1*tau, -1+3*tau, 1\n"


def test_fractal_division_halving(capsys):
    code, out, _ = run(capsys, ["fractal-division", "--p", "1/2",
                                "--depth", "3"])
    assert code == 0
    assert out == ("0, 0.125, 0.25, 0.375, 0.5, 0.625, 0.75, 0.875, 1\n")


def test_fractal_division_depth_zero(capsys):
    code, out, _ = run(capsys, ["fractal-division", "--p", "0.3",
                                "--depth", "0"])
    assert code == 0
    assert out == "0, 1\n"


def test_fractal_division_validation(capsys):
    for argv in (["fractal-division", "--p", "golden", "--depth", "13"],
                 ["fractal-division", "--p", "0", "--depth", "2"],
                 ["fractal-division", "--p", "3/2", "--depth", "2"],
                 ["fractal-division", "--p", "oops", "--depth", "2"],
                 *(["fractal-division", "--p", p, "--depth", "1"] for p in HOSTILE_RATIONALS)):
        start = time.perf_counter()
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2, argv[2][:20]
        assert time.perf_counter() - start < 1.0, argv[2][:20]
        assert_short_usage_error(capsys, argv[2][:20])


@pytest.mark.parametrize("fmt", ("text", "csv", "json"))
def test_out_writes_identical_bytes(tmp_path, capsys, fmt):
    target = tmp_path / "listing.txt"
    argv = ["mold", "show", "--mold", "F", "--count", "8", "--format", fmt]
    code, out, _ = run(capsys, argv)
    assert code == 0
    code2 = main(argv + ["--out", str(target)])
    captured = capsys.readouterr()
    assert code2 == 0
    assert captured.out == ""
    assert target.read_text(encoding="utf-8") == out


def test_unwritable_out_is_a_usage_error(tmp_path, capsys):
    # exit 1 is theorem's FAIL, so a file that cannot be written exits 2, with no traceback
    for argv, target, reason in (
            (["theorem", "--which", "4"], tmp_path / "missing" / "x", "No such file or directory"),
            (["mold", "show", "--mold", "F"], tmp_path, "Is a directory")):
        code, out, err = run(capsys, argv + ["--out", str(target)])
        assert code == 2, argv
        assert out == ""
        assert err == f"welltempered: error: cannot write {target}: {reason}\n"


def test_reruns_are_byte_identical(capsys):
    for argv in (["search", "--m", "13", "--format", "json"],
                 ["table", "--m", "9", "--count", "20", "--format", "csv"],
                 ["theorem", "--which", "5"],
                 ["discretize", "--mold", "F", "--m", "12", "--alpha", "1",
                  "--format", "json"]):
        _, first, _ = run(capsys, argv)
        _, second, _ = run(capsys, argv)
        assert first == second, argv


def test_precision_flag(capsys):
    code, out, _ = run(capsys, ["mold", "show", "--mold", "F", "--count", "3",
                                "--precision", "6"])
    assert code == 0
    assert out == "0, 1, 1.618034\n"
    for places in ("13", "-1", "x"):
        with pytest.raises(SystemExit) as exc:
            main(["mold", "show", "--mold", "F", "--precision", places])
        assert exc.value.code == 2
    capsys.readouterr()


def test_display_flags_only_where_read(capsys):
    for argv in (["table", "--m", "12", "--count", "3", "--exact"],
                 ["theorem", "--which", "5", "--precision", "3"],
                 ["theorem", "--which", "6", "--exact"],
                 ["discretize", "--mold", "F", "--m", "12", "--alpha", "1",
                  "--precision", "3"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2, argv
    capsys.readouterr()


def test_theorem_6_failure_follows_format(capsys, monkeypatch):
    def fail():
        raise RuntimeError("constraint replay failed: second-element-forced")

    monkeypatch.setattr(cli, "h_uniqueness", fail)
    code, out, _ = run(capsys, ["theorem", "--which", "6"])
    assert code == 1
    assert out == ("theorem 6\n"
                   "error: constraint replay failed: second-element-forced\n"
                   "verdict: FAIL\n")
    code, out, _ = run(capsys, ["theorem", "--which", "6", "--format", "json"])
    assert code == 1
    assert json.loads(out) == {
        "which": 6, "verdict": "FAIL",
        "error": "constraint replay failed: second-element-forced"}
    code, out, _ = run(capsys, ["theorem", "--which", "6", "--format", "csv"])
    assert code == 1
    lines = out.splitlines()
    assert lines[0] == "field,value"
    assert lines[-1] == "verdict,FAIL"


def test_csv_quotes_a_field_with_a_comma(capsys, monkeypatch):
    def fail():
        raise RuntimeError("constraint replay failed: a, b")

    monkeypatch.setattr(cli, "h_uniqueness", fail)
    code, out, _ = run(capsys, ["theorem", "--which", "6", "--format", "csv"])
    assert code == 1
    rows = list(csv.reader(out.splitlines()))
    assert ["error", "constraint replay failed: a, b"] in rows


def test_integer_flags_are_bounded_at_parse_time(capsys):
    # without a bound, each of these runs for minutes
    for argv in (["search", "--m", "100000"],
                 ["discretize", "--mold", "L", "--m", "1000000", "--alpha", "1/2"],
                 ["table", "--m", "12", "--count", "3000000"],
                 ["mold", "show", "--mold", "L", "--count", "5000000"],
                 # writes 80 MB of digits
                 ["mold", "show", "--mold", "perfect", "--granularity", "1" + "0" * 4000,
                  "--count", "10000", "--exact"],
                 ["discretize", "--mold", "perfect", "--granularity", "1", "--m", "2",
                  "--alpha", "1/2"]):
        start = time.perf_counter()
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2, argv
        assert time.perf_counter() - start < 1.0, argv
        assert capsys.readouterr().out == ""
    for argv in (["table", "--m", "2000", "--count", "1"],
                 ["mold", "show", "--mold", "F", "--count", "10000"],
                 ["mold", "show", "--mold", "perfect", "--granularity", "10000"]):
        code, out, _ = run(capsys, argv)
        assert code == 0 and out, argv


def test_cold_import_skips_dataclasses_and_inspect():
    # every command starts a fresh interpreter; -S keeps site from loading
    # modules first, and only the modules the import adds count
    code = ("import sys; sys.path.insert(0, sys.argv[1]); before = set(sys.modules); "
            "import welltempered.cli; print(*sorted(set(sys.modules) - before))")
    src = str(Path(cli.__file__).resolve().parents[1])
    added = subprocess.run([sys.executable, "-S", "-c", code, src], capture_output=True,
                           text=True, check=True).stdout.split()
    assert "welltempered.cli" in added
    # json and csv are imported by the output format that needs them
    assert not {"dataclasses", "inspect", "typing", "json", "csv"} & set(added), added
