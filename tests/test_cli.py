import csv
import io
import json
import re

import pytest

from hankelmod2 import closedform, contfrac
from hankelmod2.cli import main
from hankelmod2.exactring import LaurentPoly


def run_cli(capsys, *args):
    code = main(list(args))
    out = capsys.readouterr()
    return code, out.out, out.err


def csv_values(text):
    rows = list(csv.DictReader(io.StringIO(text)))
    return [r["value"] for r in rows]


def test_table_D_prefix(capsys):
    code, out, _ = run_cli(capsys, "table", "--seq", "D", "--rule", "unit",
                           "--from", "0", "--to", "11")
    assert code == 0
    assert csv_values(out) == ["1", "1", "1", "-1", "-1", "-1", "1", "-1", "-1", "-1", "-1", "1"]


def test_table_generic_T(capsys):
    code, out, _ = run_cli(capsys, "table", "--seq", "T", "--rule", "generic",
                           "--from", "0", "--to", "3")
    assert code == 0
    assert csv_values(out) == ["x3/x1", "-x3/x1", "-x1*x7/x3^2", "x1*x7/x3^2"]


def test_table_shift3(capsys):
    code, out, _ = run_cli(capsys, "table", "--seq", "d", "--rule", "unit",
                           "--m", "3", "--from", "0", "--to", "11")
    assert code == 0
    assert csv_values(out) == ["1", "1", "0", "0", "-1", "1", "0", "0", "-1", "-1", "0", "0"]


def test_csv_and_json_emit_identical_values(capsys):
    args = ("table", "--seq", "d", "--rule", "generic", "--m", "3", "--from", "0", "--to", "12")
    code, out_csv, _ = run_cli(capsys, *args)
    assert code == 0
    code, out_json, _ = run_cli(capsys, *args, "--format", "json")
    assert code == 0
    records = json.loads(out_json)
    assert [r["value"] for r in records] == csv_values(out_csv)
    assert all(set(r) == {"n", "m", "rule", "method", "value"} for r in records)


def test_values_round_trip_as_polynomials(capsys):
    for args in (
        ("table", "--seq", "d", "--rule", "generic", "--from", "0", "--to", "20"),
        ("table", "--seq", "T", "--rule", "generic", "--from", "0", "--to", "20"),
        ("table", "--seq", "lambda", "--from", "0", "--to", "20"),
        ("table", "--seq", "T", "--rule", "powers", "--from", "0", "--to", "20"),
        ("table", "--seq", "D", "--rule", "unit", "--from", "0", "--to", "20"),
    ):
        code, out, _ = run_cli(capsys, *args)
        assert code == 0
        for value in csv_values(out):
            assert str(LaurentPoly.parse(value)) == value


def test_table_seq_module_sequences(capsys):
    code, out, _ = run_cli(capsys, "table", "--seq", "S", "--from", "0", "--to", "9")
    assert code == 0 and csv_values(out) == ["1", "1", "-1", "1", "1", "-1", "-1", "1", "1", "1"]
    code, out, _ = run_cli(capsys, "table", "--seq", "b", "--from", "2", "--to", "5")
    assert code == 0 and csv_values(out) == ["1", "2", "2", "3"]
    code, out, _ = run_cli(capsys, "table", "--seq", "mu", "--from", "11", "--to", "11")
    assert code == 0 and csv_values(out) == ["x3^3*x7*x15^7"]


def test_table_usage_errors(capsys):
    # grs without the shift has no x0 value
    assert run_cli(capsys, "table", "--seq", "d", "--rule", "grs", "--from", "0", "--to", "3")[0] == 2
    assert run_cli(capsys, "table", "--seq", "b", "--from", "0", "--to", "5")[0] == 2
    assert run_cli(capsys, "table", "--seq", "S", "--rule", "grs", "--from", "0", "--to", "3")[0] == 2
    assert run_cli(capsys, "table", "--seq", "s", "--m", "2", "--from", "0", "--to", "3")[0] == 2
    assert run_cli(capsys, "table", "--seq", "d", "--from", "4", "--to", "2")[0] == 2
    assert run_cli(capsys, "table", "--seq", "lambda", "--rule", "unit", "--from", "0", "--to", "3")[0] == 2
    assert run_cli(capsys, "table", "--seq", "d", "--m", "-1", "--from", "0", "--to", "3")[0] == 2


def test_internal_error_is_not_a_usage_error(monkeypatch):
    def broken(n, m):
        raise ValueError("internal failure")

    monkeypatch.setattr(closedform, "d_shift_int", broken)
    with pytest.raises(ValueError, match="internal failure"):
        main(["table", "--seq", "d", "--m", "3", "--from", "0", "--to", "3"])


def test_verify_suites_exit_zero(capsys):
    code, out, _ = run_cli(capsys, "verify", "--suite", "oracle", "--max-n", "12", "--max-m", "4")
    assert code == 0 and "ok oracle" in out
    code, out, _ = run_cli(capsys, "verify", "--suite", "cf", "--max-n", "64")
    assert code == 0 and "ok cf" in out
    code, out, _ = run_cli(capsys, "verify", "--suite", "methods", "--max-n", "512")
    assert code == 0
    code, out, _ = run_cli(capsys, "verify", "--suite", "conjecture", "--m", "4", "--max-n", "16")
    assert code == 0 and "conjecture-scan m=4" in out and "conforms" in out


def test_verify_cf_renders_a_failed_identity(capsys, monkeypatch):
    real = contfrac.identity_spec

    def wrong_target(which, order):
        spec, want = real(which, order)
        return spec, contfrac.target_series(order, alternating=which != "eq08")

    monkeypatch.setattr(contfrac, "identity_spec", wrong_target)
    code, out, _ = run_cli(capsys, "verify", "--suite", "cf", "--max-n", "4")
    assert code == 1
    assert "FAIL cf (3 checks):" in out
    assert "eq217 at order 4: got [1, 1, 0, 1], want [1, -1, 0, 1]" in out
    assert "eq08 at order 4: got [1, -1, 0, 1], want [1, 1, 0, 1]" in out


def test_verify_all_gate(capsys):
    code, out, _ = run_cli(capsys, "verify", "--suite", "all", "--max-n", "32", "--max-m", "8")
    assert code == 0
    for name in ("oracle", "methods", "reflect", "ldlt", "cf", "orthogonality", "parity"):
        assert f"ok {name}" in out
    assert "conjecture-scan" in out


def test_verify_degenerate_bound(capsys):
    assert run_cli(capsys, "verify", "--suite", "all", "--max-n", "0")[0] == 2
    assert run_cli(capsys, "verify", "--suite", "conjecture", "--m", "1")[0] == 2


def test_bench_closed_and_guards(capsys):
    code, out, _ = run_cli(capsys, "bench", "--n", "1000000", "--engine", "closed",
                           "--rule", "unit", "--m", "1")
    assert code == 0
    m = re.match(r"engine=closed rule=unit m=1 n=1000000 elapsed_ns=(\d+) value=(-?1)$",
                 out.strip())
    assert m, out
    assert run_cli(capsys, "bench", "--n", "33", "--engine", "cofactor",
                   "--rule", "generic", "--m", "0")[0] == 2
    assert run_cli(capsys, "bench", "--n", "4096", "--engine", "bareiss")[0] == 2
    assert run_cli(capsys, "bench", "--n", "8", "--engine", "bareiss",
                   "--rule", "generic")[0] == 2
    assert run_cli(capsys, "bench", "--n", "8", "--engine", "closed", "--m", "-1")[0] == 2
    assert run_cli(capsys, "bench", "--n", "8", "--engine", "bareiss",
                   "--rule", "grs", "--m", "0")[0] == 2


def test_bench_bareiss_matches_closed(capsys):
    code, out, _ = run_cli(capsys, "bench", "--n", "512", "--engine", "bareiss",
                           "--rule", "unit", "--m", "0")
    assert code == 0
    assert out.strip().endswith("value=1")  # d(512) = (-1)^C(512,2) = 1


def test_det_show(capsys):
    code, out, _ = run_cli(capsys, "det", "--n", "5", "--rule", "unit", "--m", "0", "--show")
    assert code == 0
    lines = out.splitlines()
    assert lines[0].split() == ["1", "1", "0", "1", "0"]
    assert lines[-1] == "det = 1"
    code, out, _ = run_cli(capsys, "det", "--n", "5", "--rule", "generic", "--m", "0")
    assert code == 0 and out.strip() == "det = x0*x3^2*x7^2"


def test_det_usage_errors(capsys):
    assert run_cli(capsys, "det", "--n", "-1")[0] == 2
    assert run_cli(capsys, "det", "--n", "3", "--rule", "grs", "--m", "0")[0] == 2
    assert run_cli(capsys, "det", "--n", "3", "--rule", "generic", "--engine", "bareiss")[0] == 2


def test_bad_flags_exit_two():
    with pytest.raises(SystemExit) as exc:
        main(["table", "--seq", "nope"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2
