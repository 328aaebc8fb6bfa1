import csv
import io
import json
import os
import re
import subprocess
import sys
from fractions import Fraction

import pytest

import hankelmod2
from hankelmod2 import closedform, contfrac
from hankelmod2 import seq as seqmod
from hankelmod2.cli import CHECK_SUITES, GUARDS, REGISTRY, RULE_CHOICES, SEQ_RULES, _build_parser, main
from hankelmod2.exactring import LaurentPoly
from hankelmod2.hankel import SequenceRule, build_matrix, det_oracle
from reference import parse_poly, poly_div, poly_pow


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
            assert str(parse_poly(value)) == value


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


def test_table_nonsquash_guard(capsys, monkeypatch):
    # b(n) caches every index up to n, so the guard must act before any row
    def never(n):
        raise AssertionError(f"nonsquash_b({n}) called")

    monkeypatch.setattr(seqmod, "nonsquash_b", never)
    cap = GUARDS["nonsquash"]
    for lo, hi in ((2, cap + 1), (10**8, 10**8)):
        for fmt in ("csv", "json"):
            code, out, err = run_cli(capsys, "table", "--seq", "b", "--from", str(lo),
                                     "--to", str(hi), "--format", fmt)
            assert (code, out) == (2, ""), (lo, hi, fmt)
            assert err.startswith("error: ")


def _oracle(rule, m, n):
    return det_oracle(build_matrix(SequenceRule(rule, m), n))


def _oracle_ratio(rule, m, n):
    """det(n) det(n+2) / det(n+1)^2 of the shift-m matrices."""
    a, b, c = (_oracle(rule, m, k) for k in (n, n + 1, n + 2))
    return Fraction(a * c, b * b) if isinstance(a, int) else poly_div(a * c, poly_pow(b, 2))


def _registry_reference(seq, rule, m, n, value):
    """(registry value, oracle-derived reference) in comparable form."""
    if seq in ("d", "D"):
        return value, _oracle(rule, m, n)
    if seq == "T":
        return value, _oracle_ratio(rule, 1, n)
    if seq == "t":
        return value, _oracle_ratio(rule, 0, n)
    if seq == "s":  # s_0 = T_0, s_n = T_{2n-1} + T_{2n}
        ts = [_oracle_ratio("unit", 1, k) for k in (2 * n - 1, 2 * n) if k >= 0]
        return value, sum(ts)
    if seq in ("lambda", "mu"):  # the unsigned generic monomial
        return value, str(_oracle("generic", int(seq == "mu"), n)).lstrip("-")
    if seq == "S":  # D(n+1) = D(n) S(n)
        return value, _oracle("unit", 1, n) * _oracle("unit", 1, n + 1)
    if seq == "r":
        return value, _oracle("grs", 1, n)
    if seq == "b":  # T_{n-2} = -(-1)^b(n)
        return -(-1) ** value, _oracle_ratio("unit", 1, n - 2)
    assert seq == "delta"  # D(n) = (-1)^delta(n)
    return (-1) ** value, _oracle("unit", 1, n)


@pytest.mark.parametrize("seq, rule", list(REGISTRY))
def test_registry_entry_against_oracle(seq, rule):
    entry = REGISTRY[(seq, rule)]
    shifts = {"d": range(entry.min_m, 5), "D": [1]}.get(seq, [0])
    for m in shifts:
        for n in range(entry.min_n, 13):
            got, want = _registry_reference(seq, rule, m, n, entry.value(n, m))
            assert str(got) == str(want), (seq, rule, m, n)


def table_cases():
    """(seq, rule, m, lo, hi, argv) for every registry pair, --seq d at shifts 0-4,
    over a window of small and of four-digit n."""
    for (seq, rule), entry in REGISTRY.items():
        shifts = {"d": range(entry.min_m, 5), "D": [1]}.get(seq, [0])
        for m in shifts:
            for lo, hi in ((2, 9), (1000, 1040)):
                argv = ["table", "--seq", seq, "--rule", rule, "--from", str(lo), "--to", str(hi)]
                yield seq, rule, m, lo, hi, argv + (["--m", str(m)] if seq == "d" else [])


def table_reference(fmt, seq, rule, m, lo, hi):
    """The table as a per-row dict through csv.DictWriter or json.dumps."""
    entry = REGISTRY[(seq, rule)]
    records = [{"n": n, "m": m, "rule": rule, "method": entry.method,
                "value": str(entry.value(n, m))} for n in range(lo, hi + 1)]
    if fmt == "json":
        return "[" + ", ".join(json.dumps(rec) for rec in records) + "]\n"
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=["n", "m", "rule", "method", "value"])
    writer.writeheader()
    writer.writerows(records)
    return buf.getvalue()


def test_table_prints_the_registry(capsys):
    for seq, rule, m, lo, hi, argv in table_cases():
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0, argv
        assert out == table_reference("csv", seq, rule, m, lo, hi), argv


def test_unregistered_pairs_exit_two_and_print_nothing(capsys):
    for seq, rules in SEQ_RULES.items():
        for rule in set(RULE_CHOICES) - set(rules):
            for fmt in ("csv", "json"):
                code, out, err = run_cli(capsys, "table", "--seq", seq, "--rule", rule,
                                         "--from", "2", "--to", "5", "--format", fmt)
                assert (code, out) == (2, ""), (seq, rule)
                assert err.startswith("error: ")


def test_table_streams_rows(capsys, monkeypatch):
    entry = REGISTRY["d", "unit"]

    def fails_at_3(n, m):
        if n == 3:
            raise ValueError("internal failure")
        return entry.value(n, m)

    monkeypatch.setitem(REGISTRY, ("d", "unit"), entry._replace(value=fails_at_3))
    for fmt, written in (("csv", "n,m,rule,method,value\r\n0,2,unit,closed,1\r\n"),
                         ("json", '[{"n": 0, "m": 2, "rule": "unit", "method": "closed", "value": "1"}, ')):
        with pytest.raises(ValueError):
            main(["table", "--seq", "d", "--m", "2", "--from", "0", "--to", "5", "--format", fmt])
        assert capsys.readouterr().out.startswith(written)


def test_table_json_matches_json_dump(capsys):
    for lo, hi in ((0, 0), (0, 40), (7, 9)):
        code, out, _ = run_cli(capsys, "table", "--seq", "d", "--rule", "generic", "--m", "3",
                               "--from", str(lo), "--to", str(hi), "--format", "json")
        assert code == 0
        assert out == json.dumps(json.loads(out)) + "\n"
        assert out == table_reference("json", "d", "generic", 3, lo, hi)
    for seq, rule, m, lo, hi, argv in table_cases():
        code, out, _ = run_cli(capsys, *argv, "--format", "json")
        assert code == 0, argv
        assert out == table_reference("json", seq, rule, m, lo, hi), argv


def test_lambda_mu_rows_are_the_profile_monomials(capsys):
    # n = 0 is the empty product; past 2^64 the variable index leaves the
    # fixed 64-name table
    for seq, m in (("lambda", 0), ("mu", 1)):
        for lo, hi in ((0, 300), (999_000, 999_100), ((1 << 64) - 60, (1 << 64) + 60)):
            want = [str(LaurentPoly.monomial(1, closedform.shift_profile(n, m))) for n in range(lo, hi + 1)]
            for fmt in ("csv", "json"):
                code, out, _ = run_cli(capsys, "table", "--seq", seq, "--from", str(lo), "--to", str(hi),
                                       "--format", fmt)
                assert code == 0
                if fmt == "csv":
                    rows = list(csv.DictReader(io.StringIO(out)))
                else:
                    rows = json.loads(out)
                assert [int(r["n"]) for r in rows] == list(range(lo, hi + 1)), (seq, lo, fmt)
                assert [r["value"] for r in rows] == want, (seq, lo, fmt)
    code, out, _ = run_cli(capsys, "table", "--seq", "lambda", "--from", "0", "--to", "1")
    assert out.splitlines()[1:] == ["0,0,generic,profile,1", "1,0,generic,profile,x0"]
    code, out, _ = run_cli(capsys, "table", "--seq", "mu", "--from", "11", "--to", "11", "--format", "json")
    assert json.loads(out)[0]["value"] == "x3^3*x7*x15^7"


def test_consecutive_commands_share_one_parser_and_no_arguments(capsys):
    commands = (
        ["table", "--seq", "d", "--rule", "generic", "--m", "3", "--from", "5", "--to", "7",
         "--format", "json"],
        ["table", "--seq", "D", "--from", "0", "--to", "3"],
        ["verify", "--suite", "reflect", "--max-n", "8"],
        ["table", "--seq", "d", "--from", "0", "--to", "3"],
        ["det", "--n", "3"],
    )
    for argv in commands:
        # each parse equals one by a newly built parser
        assert vars(_build_parser().parse_args(argv)) == vars(_build_parser.__wrapped__().parse_args(argv))
    outs = [run_cli(capsys, *argv) for argv in commands]
    assert _build_parser() is _build_parser()
    assert [code for code, _, _ in outs] == [0] * len(commands)
    assert outs[0][1] == table_reference("json", "d", "generic", 3, 5, 7)
    # --m 3 of the first command would make this a usage error
    assert outs[1][1] == table_reference("csv", "D", "unit", 1, 0, 3)
    assert outs[2][1] == "ok reflect (12 checks)\n"
    assert outs[3][1] == table_reference("csv", "d", "unit", 0, 0, 3)
    assert outs[4][1] == "det = -1\n"


def test_parser_is_not_built_at_import():
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(hankelmod2.__file__)))
    probe = ("import hankelmod2.cli as cli; a = cli._build_parser.cache_info().currsize; "
             "cli.main(['table', '--seq', 'S', '--to', '0']); print(a, cli._build_parser.cache_info().currsize)")
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.splitlines()[-1] == "0 1"


def test_internal_error_is_not_a_usage_error(monkeypatch):
    def broken(n, m):
        raise ValueError("internal failure")

    monkeypatch.setitem(REGISTRY, ("d", "unit"), REGISTRY["d", "unit"]._replace(value=broken))
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


def test_verify_reports_check_counts(capsys):
    code, out, _ = run_cli(capsys, "verify", "--suite", "ldlt", "--max-n", "5")
    assert code == 0 and out == "ok ldlt (10 checks)\n"
    # reflection starts at n = 4: nothing to check, so no "ok"
    code, out, _ = run_cli(capsys, "verify", "--suite", "reflect", "--max-n", "3")
    assert code == 0 and "ok" not in out
    assert out == "empty reflect (0 checks at --max-n 3 --max-m 8)\n"
    # every rule is checked against the oracle, grs from shift 1
    code, out, _ = run_cli(capsys, "verify", "--suite", "oracle", "--max-n", "4", "--max-m", "2")
    assert code == 0 and out == f"ok oracle ({4 * 3 * 5 + 2 * 5 + 5} checks)\n"


def test_verify_oracle_caps_come_from_the_guard_table(capsys, monkeypatch):
    # integer rules at every shift stop at the Bareiss cap, symbolic rules at
    # the cofactor guard, the Bareiss-against-cofactor check at its own cap
    monkeypatch.setitem(GUARDS, "verify_bareiss", 7)
    monkeypatch.setitem(GUARDS, "cofactor", 5)
    monkeypatch.setitem(GUARDS, "verify_cross", 3)
    code, out, _ = run_cli(capsys, "verify", "--suite", "oracle", "--max-n", "10", "--max-m", "2")
    unit, grs, symbolic, cross = 3 * 8, 2 * 8, 3 * 3 * 6, 4
    assert code == 0 and out == f"ok oracle ({unit + grs + symbolic + cross} checks)\n"


def test_verify_orthogonality_and_h_ratio_caps_come_from_the_guard_table(capsys, monkeypatch):
    monkeypatch.setitem(GUARDS, "orthogonality", 5)
    code, out, _ = run_cli(capsys, "verify", "--suite", "orthogonality", "--max-n", "10")
    assert code == 0 and out == f"ok orthogonality ({6 * 5 // 2 + 6} checks)\n"
    # the table's cap is the library's own index guard
    monkeypatch.undo()
    assert GUARDS["orthogonality"] == contfrac.MOMENT_CAP
    code, out, _ = run_cli(capsys, "verify", "--suite", "orthogonality", "--max-n", "30")
    cap = contfrac.MOMENT_CAP
    assert code == 0 and out == f"ok orthogonality ({(cap + 1) * cap // 2 + cap + 1} checks)\n"
    # three identities, eight depth-sufficiency trials, then n = 0..cap
    monkeypatch.setitem(GUARDS, "h_ratio", 3)
    code, out, _ = run_cli(capsys, "verify", "--suite", "cf", "--max-n", "10")
    assert code == 0 and out == f"ok cf ({3 + 8 + 4} checks)\n"


def test_verify_ldlt_cap_comes_from_the_guard_table(capsys, monkeypatch):
    # each n multiplies dense n x n factors, so a huge --max-n stops at the
    # guard: n = 1..64, two decompositions each
    code, out, _ = run_cli(capsys, "verify", "--suite", "ldlt", "--max-n", "1000000")
    assert code == 0 and out == "ok ldlt (128 checks)\n"
    monkeypatch.setitem(GUARDS, "ldlt", 3)
    code, out, _ = run_cli(capsys, "verify", "--suite", "ldlt", "--max-n", "10")
    assert code == 0 and out == "ok ldlt (6 checks)\n"


def test_verify_conjecture_checks_m2_and_counts(capsys):
    code, out, _ = run_cli(capsys, "verify", "--suite", "conjecture", "--m", "2", "--max-n", "8")
    assert code == 0
    assert out == "conjecture-scan m=2 max_n=8: conforms\nok conjecture (16 checks)\n"
    # without --m every shift 2..--max-m is scanned
    code, out, _ = run_cli(capsys, "verify", "--suite", "conjecture", "--max-n", "4", "--max-m", "5")
    assert code == 0
    assert [line.split()[1] for line in out.splitlines()[:-1]] == ["m=2", "m=3", "m=4", "m=5"]
    assert out.endswith(f"ok conjecture ({4 * 2 * 4} checks)\n")
    code, out, _ = run_cli(capsys, "verify", "--suite", "conjecture", "--max-n", "4", "--max-m", "1")
    assert code == 0 and out == "empty conjecture (0 checks at --max-n 4 --max-m 1)\n"


def test_verify_conjecture_fails_on_a_wrong_sign(capsys, monkeypatch):
    real = closedform.d_shift_int
    monkeypatch.setattr(closedform, "d_shift_int", lambda n, m: -real(n, m) if n == 16 else real(n, m))
    code, out, _ = run_cli(capsys, "verify", "--suite", "conjecture", "--m", "4", "--max-n", "4")
    assert code == 1
    assert out == ("conjecture-scan m=4 max_n=4: violates\n"
                   "FAIL conjecture (1 checks): out of 8\n"
                   "  d(16, 4): got -1, want 1\n")


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
    assert "conjecture-scan m=2 max_n=32: conforms" in out and "ok conjecture" in out


def test_verify_methods_checks_shifted_signs_and_ratio_monomials(capsys, monkeypatch):
    # per n: D twice, T three times, profile at m = 0..2, d_shift_int at m = 2, T and t
    code, out, _ = run_cli(capsys, "verify", "--suite", "methods", "--max-n", "8", "--max-m", "2")
    assert code == 0 and out == f"ok methods ({9 * 11} checks)\n"
    real_d, real_T = closedform.d_shift_int, closedform.generic_T
    monkeypatch.setattr(closedform, "d_shift_int",
                        lambda n, m: -real_d(n, m) if (n, m) == (4, 2) else real_d(n, m))
    monkeypatch.setattr(closedform, "generic_T", lambda n: -real_T(n) if n == 3 else real_T(n))
    code, out, _ = run_cli(capsys, "verify", "--suite", "methods", "--max-n", "8", "--max-m", "2")
    assert code == 1
    assert out.splitlines() == [
        f"FAIL methods (2 checks): out of {9 * 11}",
        f"  (n=3) generic T against the profile quotient: got {-real_T(3)}, want {real_T(3)}",
        "  (n=4, m=2) d_shift_int against the block fold: got -1, want 1",
    ]


def test_verify_methods_nonsquash_guard(capsys, monkeypatch):
    # the methods suite checks T_n against nonsquash_b(n + 2), which caches
    # every index up to its argument: the guard acts before any check
    def never(n):
        raise AssertionError(f"nonsquash_b({n}) called")

    monkeypatch.setattr(seqmod, "nonsquash_b", never)
    for suite in ("methods", "all"):
        code, out, err = run_cli(capsys, "verify", "--suite", suite,
                                 "--max-n", str(GUARDS["nonsquash"] - 1))
        assert (code, out) == (2, ""), suite
        assert err.startswith("error: ")


def test_verify_degenerate_bound(capsys):
    assert run_cli(capsys, "verify", "--suite", "all", "--max-n", "0")[0] == 2
    assert run_cli(capsys, "verify", "--suite", "conjecture", "--m", "1")[0] == 2


def test_verify_m_applies_only_to_the_conjecture_suite(capsys, monkeypatch):
    def must_not_run(max_n, max_m, rng):
        raise AssertionError("a suite ran after a usage error")

    for suite in CHECK_SUITES:
        monkeypatch.setitem(CHECK_SUITES, suite, must_not_run)
    for suite in ("methods", "oracle", "parity", "all"):
        code, out, err = run_cli(capsys, "verify", "--suite", suite, "--max-n", "8", "--m", "5")
        assert (code, out) == (2, ""), suite
        assert err.startswith("error: --m applies only to --suite conjecture")


def test_verify_cf_h_ratio_checks_stop_at_max_n(capsys, monkeypatch):
    orders = []

    def recording(rule, n):
        orders.append(n)
        return build_matrix(rule, n)

    monkeypatch.setattr("hankelmod2.cli.build_matrix", recording)
    # three identities, eight depth-sufficiency trials, then n = 0..1
    code, out, _ = run_cli(capsys, "verify", "--suite", "cf", "--max-n", "1")
    assert code == 0 and out == f"ok cf ({3 + 8 + 2} checks)\n"
    assert orders and max(orders) <= 3
    # above the guard the cap is GUARDS["h_ratio"], as before
    orders.clear()
    code, out, _ = run_cli(capsys, "verify", "--suite", "cf", "--max-n", "32")
    h = GUARDS["h_ratio"]
    assert code == 0 and out == f"ok cf ({3 + 8 + h + 1} checks)\n"
    assert max(orders) == h + 2


def test_bench_closed_and_guards(capsys):
    code, out, _ = run_cli(capsys, "bench", "--n", "1000000", "--engine", "closed",
                           "--rule", "unit", "--m", "1")
    assert code == 0
    m = re.match(r"engine=closed rule=unit m=1 n=1000000 elapsed_ns=(\d+) value=(-?1)$",
                 out.strip())
    assert m, out
    assert run_cli(capsys, "bench", "--n", "49", "--engine", "cofactor",
                   "--rule", "generic", "--m", "0")[0] == 2
    assert run_cli(capsys, "bench", "--n", "4096", "--engine", "bareiss")[0] == 2
    assert run_cli(capsys, "bench", "--n", "8", "--engine", "bareiss",
                   "--rule", "generic")[0] == 2
    assert run_cli(capsys, "bench", "--n", "8", "--engine", "closed", "--m", "-1")[0] == 2
    assert run_cli(capsys, "bench", "--n", "8", "--engine", "bareiss",
                   "--rule", "grs", "--m", "0")[0] == 2
    assert run_cli(capsys, "bench", "--n", str(GUARDS["closed"] + 1), "--engine", "closed")[0] == 2


def test_bench_closed_matches_table(capsys):
    for rule in RULE_CHOICES:
        for m in range(REGISTRY[("d", rule)].min_m, 4):
            for n in (0, 5, 13, 16, 61):
                code, out, _ = run_cli(capsys, "bench", "--n", str(n), "--engine", "closed",
                                       "--rule", rule, "--m", str(m))
                assert code == 0
                value = out.strip().rsplit("value=", 1)[1]
                code, out, _ = run_cli(capsys, "table", "--seq", "d", "--rule", rule, "--m", str(m),
                                       "--from", str(n), "--to", str(n))
                assert code == 0 and csv_values(out) == [value], (rule, m, n)


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
    # the bench guards: explicit engines, and "auto" resolved as det_oracle does
    assert run_cli(capsys, "det", "--n", "1200", "--engine", "cofactor")[0] == 2
    assert run_cli(capsys, "det", "--n", "2049", "--engine", "bareiss")[0] == 2
    assert run_cli(capsys, "det", "--n", "2049")[0] == 2
    assert run_cli(capsys, "det", "--n", "49", "--rule", "powers", "--m", "2")[0] == 2
    assert run_cli(capsys, "det", "--n", "48", "--rule", "powers", "--m", "2")[0] == 0
    assert run_cli(capsys, "det", "--n", "49", "--rule", "generic", "--m", "0")[0] == 2
    assert run_cli(capsys, "det", "--n", "48", "--rule", "generic", "--m", "0")[0] == 0
    code, out, _ = run_cli(capsys, "det", "--n", "2", "--rule", "grs", "--m", "2")
    assert code == 0 and out == "det = -1\n"


def test_bad_flags_exit_two():
    with pytest.raises(SystemExit) as exc:
        main(["table", "--seq", "nope"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2
