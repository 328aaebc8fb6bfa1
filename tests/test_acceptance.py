"""Acceptance criteria, one test per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to get one printed
pass/fail line per criterion; any assertion failure marks the criterion
failed.  Bounds and tolerances are pinned here (everything is exact, the
only tolerances are the stated wall-clock budgets).
"""

import math
import time

from hankelmod2.cli import run_suite
from hankelmod2.closedform import (
    D_sign,
    T_int,
    conjecture38_checks,
    conjecture_epsilon,
    d_shift_generic,
    d_shift_int,
    d_sign,
    generic_D,
    generic_d,
    ldlt_verify_plain,
    ldlt_verify_shifted,
    plain_diagonal,
    plain_lower_factor,
    shift_profile,
    shift_support,
)
from hankelmod2.contfrac import moment_orthogonality, orthopoly, verify_identity
from hankelmod2.exactring import LaurentPoly
from hankelmod2.hankel import SequenceRule, build_matrix, catalan_shift_parity, det_oracle
from hankelmod2.seq import nonsquash_b, paperfolding_s
from test_hankel import block_images, nimble_enumerate

P = LaurentPoly.parse


def _report(num, text):
    print(f"criterion {num:2d}: PASS - {text}")


def test_criterion_01_unshifted_sign_law():
    t0 = time.perf_counter()
    for n in range(513):
        mat = build_matrix(SequenceRule("unit", 0), n)
        assert det_oracle(mat, "bareiss") == d_sign(n), n
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0, f"took {elapsed:.1f} s"
    _report(1, f"Bareiss == (-1)^C(n,2) for n <= 512 in {elapsed:.1f} s")


def test_criterion_02_shifted_by_one_law():
    prefix = [1, 1, 1, -1, -1, -1, 1, -1, -1, -1, -1, 1]
    assert [D_sign(n) for n in range(12)] == prefix
    product = 1
    for n in range(513):
        det = det_oracle(build_matrix(SequenceRule("unit", 1), n))
        assert det == D_sign(n, "delta") == D_sign(n, "recurrence") == product, n
        product *= paperfolding_s(n)
    _report(2, "oracle == delta == recurrence == paperfolding product, n <= 512")


def test_criterion_03_symbolic_monomials():
    t0 = time.perf_counter()
    for n in range(33):
        assert det_oracle(build_matrix(SequenceRule("generic", 0), n)) == generic_d(n), n
        assert det_oracle(build_matrix(SequenceRule("generic", 1), n)) == generic_D(n), n
    assert generic_d(5) == P("x0*x3^2*x7^2")
    assert generic_d(11) == P("-x0*x3^2*x7^2*x15^6")
    assert generic_D(11) == P("x3^3*x7*x15^7")
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0, f"took {elapsed:.1f} s"
    _report(3, f"symbolic oracle == generic monomials for n <= 32 in {elapsed:.1f} s")


def test_criterion_04_shifted_determinants():
    for m in range(2, 9):
        for n in range(49):
            sym = det_oracle(build_matrix(SequenceRule("generic", m), n))
            assert sym == d_shift_generic(n, m), (n, m)
            unit = sym.eval({k: 1 for k in sym.variables()}) if not sym.is_zero() else 0
            value = d_shift_int(n, m)
            assert unit == value, (n, m)
            assert (value != 0) == shift_support(n, m), (n, m)
    assert [d_shift_int(n, 2) for n in range(7)] == [1, 0, -1, 0, 1, 0, -1]
    assert [str(d_shift_generic(n, 3)) for n in range(13)] == [
        "1", "x3", "0", "0", "-x3*x7^3", "x7^5", "0", "0",
        "-x7^5*x15^3", "-x3*x7^3*x15^5", "0", "0", "-x3*x15^11",
    ]
    assert [str(d_shift_generic(n, 5)) for n in range(12)] == [
        "1", "0", "0", "-x7^3", "0", "0", "0", "0",
        "-x7^3*x15^5", "0", "0", "-x15^11",
    ]
    _report(4, "oracle == d_shift_generic == d_shift_int, m <= 8, n <= 48; prefixes match")


def test_criterion_05_T_quadruple_agreement():
    prefix = [1, -1, -1, 1, -1, 1, -1, 1, 1, -1, 1, -1, -1, 1, -1, 1]
    assert [T_int(n) for n in range(16)] == prefix
    for n in range(10**4 + 1):
        t = T_int(n, "ratio")
        assert t == T_int(n, "recurrence"), n
        assert t == T_int(n, "structural"), n
        assert t == (-1) ** (nonsquash_b(n + 2) + 1), n
    _report(5, "ratio/recurrence/structural/non-squashing T agree to n = 10^4")


def test_criterion_06_continued_fractions():
    for which in ("eq217", "eq228", "eq08"):
        assert verify_identity(which, 64), which
    _report(6, "all three continued-fraction identities hold at order 64")


def test_criterion_07_decompositions():
    for n in range(1, 65):
        assert ldlt_verify_plain(n), n
        assert ldlt_verify_shifted(n), n
    assert plain_lower_factor(4) == [
        [1, 0, 0, 0],
        [1, 1, 0, 0],
        [0, -1, 1, 0],
        [1, 1, -1, 1],
    ]
    assert plain_diagonal(4) == [1, -1, 1, -1]
    _report(7, "LDL^t checks pass for n <= 64; the displayed n = 4 factors match")


def test_criterion_08_nimble_uniqueness():
    for n in range(10):
        for m in range(5):
            found = nimble_enumerate(n, m)
            det = det_oracle(build_matrix(SequenceRule("unit", m), n))
            assert len(found) <= 1, (n, m)
            solved = block_images(n, m)
            if det != 0:
                assert len(found) == 1, (n, m)
                assert found[0] == solved, (n, m)
                assert found[0][1] == det, (n, m)
            else:
                assert found == [] and solved is None, (n, m)
    _report(8, "exhaustive enumeration: unique nimble permutation iff det != 0")


def test_criterion_09_orthogonality():
    for i in range(21):
        for j in range(i + 1, 21):
            assert moment_orthogonality(i, j) == 0, (i, j)
    from hankelmod2.exactring import UniPoly

    assert orthopoly(2) == UniPoly([-1, 0, 1])
    assert orthopoly(4) == UniPoly([-1, 0, 1, 0, 1])
    assert orthopoly(7) == UniPoly([0] * 7 + [1])
    _report(9, "L(p_i p_j) = 0 for i < j <= 20; p2, p4, p7 as printed")


def test_criterion_10_parity_product():
    for m in range(1, 17):
        for n in range(257):
            parity = catalan_shift_parity(n, m)
            assert parity == (1 if shift_support(n, m) else 0), (n, m)
            assert parity == (1 if d_shift_int(n, m) != 0 else 0), (n, m)
    _report(10, "product parity == residue rule == shifted-determinant support")


def test_criterion_11_conjecture_scan():
    for m in range(3, 17):
        checks, violations = run_suite(conjecture38_checks(m, 64))
        assert checks == 128 and not violations, (m, violations)
    fitted = {m: conjecture_epsilon(m) for m in range(3, 17, 2)}
    _report(11, f"scans conform for m = 3..16; eps = {fitted}")


def test_criterion_12_performance(capsys):
    budget = 0.010  # 10 ms per closed-form call at n = 10^6
    timings = {}
    for name, fn in (
        ("D_sign", lambda: D_sign(10**6)),
        ("T_int", lambda: T_int(10**6)),
        ("generic_D profile", lambda: shift_profile(10**6, 1)),
    ):
        best = min(_timeit(fn) for _ in range(5))
        timings[name] = best
        assert best < budget, f"{name}: {best * 1e3:.3f} ms"

    closed = min(_timeit(lambda: d_sign(512)) for _ in range(5))
    mat = build_matrix(SequenceRule("unit", 0), 512)
    bareiss = _timeit(lambda: det_oracle(mat, "bareiss"))
    speedup = bareiss / max(closed, 1e-9)
    assert speedup >= 1e3, f"speedup only {speedup:.0f}x"

    # the bench command itself must demonstrate the gap
    import re

    from hankelmod2.cli import main as cli_main

    lines = {}
    for engine in ("closed", "bareiss"):
        assert cli_main(["bench", "--n", "512", "--engine", engine,
                         "--rule", "unit", "--m", "0"]) == 0
        lines[engine] = capsys.readouterr().out.strip()
        assert lines[engine].endswith("value=1"), lines[engine]
    elapsed = {
        engine: int(re.search(r"elapsed_ns=(\d+)", line).group(1))
        for engine, line in lines.items()
    }
    bench_ratio = elapsed["bareiss"] / max(elapsed["closed"], 1)
    assert bench_ratio >= 1e3, f"bench ratio only {bench_ratio:.0f}x"
    shown = ", ".join(f"{k} {v * 1e6:.1f} us" for k, v in timings.items())
    _report(12, f"{shown}; closed beats Bareiss at n = 512 by {speedup:.0f}x "
                f"(bench output: {bench_ratio:.0f}x)")


def _timeit(fn):
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0
