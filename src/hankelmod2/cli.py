"""Command line: sequence tables, verification suites, benchmarks, determinants.

Exit codes: 0 all checks passed, 1 an identity check failed, 2 usage error.
Arguments are checked before any work starts; an internal error is not a
usage error and surfaces as a traceback.
All output is exact (integers and canonical monomial strings, no floats).
"""

from __future__ import annotations

import argparse
import csv
import json
import random
import sys
import time
from fractions import Fraction

from . import closedform as cf
from . import contfrac
from . import seq as seqmod
from .hankel import (
    SequenceRule,
    build_matrix,
    catalan_shift_parity,
    det_oracle,
    ldlt_verify_plain,
    ldlt_verify_shifted,
    moment_orthogonality,
)

SEQ_CHOICES = ("d", "D", "T", "t", "s", "lambda", "mu", "S", "r", "b", "delta")
RULE_CHOICES = ("unit", "generic", "powers", "doubling", "grs")


class UsageError(Exception):
    pass


def _check_shift(rule: str, m: int) -> None:
    """Reject a shift that no determinant rule accepts, before any work."""
    if m < 0:
        raise UsageError("--m must be nonnegative")
    if rule == "grs" and m < 1:
        raise UsageError("the grs rule assigns no value to x0; it needs --m >= 1")


def _default_rule(seq: str) -> str:
    return "generic" if seq in ("lambda", "mu") else "unit"


def _table_record(seq: str, rule: str, m: int, n: int) -> tuple[int, str, str]:
    """(shift, method, value string) for one table cell."""
    if seq == "d" or seq == "D":
        shift = 1 if seq == "D" else m
        if rule == "unit":
            return shift, "closed", str(cf.d_shift_int(n, shift))
        if rule == "generic":
            if shift == 0:
                return shift, "profile", str(cf.generic_d(n))
            if shift == 1:
                return shift, "profile", str(cf.generic_D(n))
            return shift, "reduction", str(cf.d_shift_generic(n, shift))
        if rule in ("powers", "doubling"):
            if shift not in (0, 1):
                raise UsageError(f"rule {rule} supports shifts 0 and 1 only")
            return shift, "specialize", str(cf.specialize_det(rule, shift == 1, n))
        if rule == "grs":
            if shift != 1:
                raise UsageError("the grs rule assigns no value to x0; use --seq D")
            return shift, "specialize", str(cf.specialize_det("grs", True, n))
    if seq == "T":
        if rule == "unit":
            return 0, "ratio", str(cf.T_int(n))
        if rule == "generic":
            return 0, "ratio", str(cf.generic_T(n))
        if rule == "grs":
            return 0, "specialize", str(cf.specialize_poly(cf.generic_T(n), "grs").constant_value())
        return 0, "specialize", str(cf.specialize_poly(cf.generic_T(n), rule))
    if seq == "t":
        if rule == "unit":
            return 0, "favard", str(cf.favard_st(n)[1])
        if rule == "generic":
            return 0, "ratio", str(cf.generic_t(n))
        if rule == "grs":
            raise UsageError("the grs rule assigns no value to x0")
        return 0, "specialize", str(cf.specialize_poly(cf.generic_t(n), rule))
    if seq == "s":
        if rule != "unit":
            raise UsageError("--seq s is integer-valued; use --rule unit")
        return 0, "favard", str(cf.favard_st(n)[0])
    if seq == "lambda" or seq == "mu":
        if rule != "generic":
            raise UsageError(f"--seq {seq} describes the generic exponents; use --rule generic")
        prof = cf.lambda_profile(n) if seq == "lambda" else cf.mu_profile(n)
        return 0, "profile", str(prof.monomial())
    if rule != "unit":
        raise UsageError(f"--seq {seq} takes --rule unit only")
    if seq == "S":
        return 0, "recurrence", str(seqmod.paperfolding_s(n))
    if seq == "r":
        return 0, "recurrence", str(seqmod.grs_r(n))
    if seq == "b":
        return 0, "recurrence", str(seqmod.nonsquash_b(n))
    if seq == "delta":
        return 0, "digits", str(seqmod.delta_pairs(n))
    raise UsageError(f"unknown sequence {seq!r}")


def cmd_table(ns) -> int:
    rule = ns.rule or _default_rule(ns.seq)
    if ns.seq not in ("d", "D") and ns.m is not None:
        raise UsageError(f"--m does not apply to --seq {ns.seq}")
    if ns.seq == "D" and ns.m not in (None, 1):
        raise UsageError("--seq D is the shift-1 table; drop --m or use --seq d")
    m = ns.m if ns.m is not None else (1 if ns.seq == "D" else 0)
    if ns.seq in ("d", "D"):
        _check_shift(rule, m)
    if ns.frm < 0 or ns.to < ns.frm:
        raise UsageError("need 0 <= --from <= --to")
    if ns.seq == "b" and ns.frm < 2:
        raise UsageError("--seq b is defined for n >= 2")
    records = []
    for n in range(ns.frm, ns.to + 1):
        shift, method, value = _table_record(ns.seq, rule, m, n)
        records.append(
            {"n": n, "m": shift, "rule": rule, "method": method, "value": value}
        )
    if ns.format == "json":
        json.dump(records, sys.stdout)
        sys.stdout.write("\n")
    else:
        writer = csv.DictWriter(sys.stdout, fieldnames=["n", "m", "rule", "method", "value"])
        writer.writeheader()
        writer.writerows(records)
    return 0


# ---------------------------------------------------------------------------
# verify suites
# ---------------------------------------------------------------------------


def _suite_oracle(max_n: int, max_m: int, rng) -> list[str]:
    bad = []
    for n in range(min(max_n, 512) + 1):
        if det_oracle(build_matrix(SequenceRule("unit", 0), n)) != cf.d_sign(n):
            bad.append(f"(n={n}, m=0) bareiss != d_sign")
        if det_oracle(build_matrix(SequenceRule("unit", 1), n)) != cf.D_sign(n):
            bad.append(f"(n={n}, m=1) bareiss != D_sign")
    for n in range(min(max_n, 64) + 1):
        mat = build_matrix(SequenceRule("unit", 0), n)
        if det_oracle(mat, "bareiss") != det_oracle(mat, "cofactor"):
            bad.append(f"(n={n}) bareiss != cofactor on integers")
    for n in range(min(max_n, 32) + 1):
        if det_oracle(build_matrix(SequenceRule("generic", 0), n)) != cf.generic_d(n):
            bad.append(f"(n={n}, m=0) symbolic oracle != generic_d")
        if det_oracle(build_matrix(SequenceRule("generic", 1), n)) != cf.generic_D(n):
            bad.append(f"(n={n}, m=1) symbolic oracle != generic_D")
    for m in range(2, max_m + 1):
        for n in range(min(max_n, 48) + 1):
            if det_oracle(build_matrix(SequenceRule("generic", m), n)) != cf.d_shift_generic(n, m):
                bad.append(f"(n={n}, m={m}) symbolic oracle != d_shift_generic")
            if det_oracle(build_matrix(SequenceRule("unit", m), n)) != cf.d_shift_int(n, m):
                bad.append(f"(n={n}, m={m}) integer oracle != d_shift_int")
    return bad


def _suite_methods(max_n: int, max_m: int, rng) -> list[str]:
    bad = []
    product = 1
    for n in range(max_n + 1):
        d = cf.D_sign(n, "delta")
        if d != cf.D_sign(n, "recurrence"):
            bad.append(f"(n={n}) D recurrence, expected {d}")
        if d != product:  # running prod_{j<n} S(j)
            bad.append(f"(n={n}) D paperfolding-product, expected {d}, got {product}")
        product *= seqmod.paperfolding_s(n)
        t = cf.T_int(n, "ratio")
        for method in ("recurrence", "structural", "nonsquash"):
            got = cf.T_int(n, method)
            if got != t:
                bad.append(f"(n={n}) T {method}, expected {t}, got {got}")
    return bad


def _suite_reflect(max_n: int, max_m: int, rng) -> list[str]:
    bad = []
    k = 1
    while (1 << (k + 1)) <= max_n:
        for n in range(1 << k):
            if cf.D_sign((1 << k) + n) != (-1) ** n * cf.D_sign((1 << k) - 1 - n):
                bad.append(f"(k={k}, n={n}) fold reflection")
        k += 1
    k = 1
    while (1 << (k + 2)) <= max_n:
        for n in range(1 << (k + 1)):
            expect = -cf.D_sign(n) if n < (1 << k) else cf.D_sign(n)
            if cf.D_sign((1 << (k + 1)) + n) != expect:
                bad.append(f"(k={k}, n={n}) period-doubling reflection")
        k += 1
    k = 2
    while (1 << (k + 1)) <= max_n:
        for n in range(1 << k, (1 << (k + 1)) - 2):
            if cf.T_int(n) != cf.T_int((1 << (k + 1)) - 3 - n):
                bad.append(f"(k={k}, n={n}) T reflection")
        k += 1
    return bad


def _suite_ldlt(max_n: int, max_m: int, rng) -> list[str]:
    bad = []
    for n in range(1, max_n + 1):
        if not ldlt_verify_plain(n):
            bad.append(f"(n={n}) plain decomposition")
        if not ldlt_verify_shifted(n):
            bad.append(f"(n={n}) shifted decomposition")
    return bad


def _suite_cf(max_n: int, max_m: int, rng) -> list[str]:
    bad = []
    order = min(max_n, contfrac.MAX_ORDER)
    for which in contfrac.IDENTITIES:
        spec, want = contfrac.identity_spec(which, order)
        got = contfrac.cf_expand(spec, order)
        if got != want:
            # render both sides as exact rational coefficient lists
            bad.append(f"{which} at order {order}: got {got}, want {want}")
    # depth sufficiency on random +-1 coefficient sequences
    for trial in range(8):
        n = 24
        coeffs = [rng.choice((1, -1)) for _ in range(n + 1)]
        lo = contfrac.cf_expand(contfrac.CFSpec.s_fraction(coeffs[:n]), n)
        hi = contfrac.cf_expand(contfrac.CFSpec.s_fraction(coeffs), n)
        if lo != hi:
            bad.append(f"depth sufficiency (trial {trial})")
    # Favard t against Hankel determinant ratios of the base sequence
    for n in range(21):
        h = [det_oracle(build_matrix(SequenceRule("unit", 0), k)) for k in (n, n + 1, n + 2)]
        t = Fraction(h[0] * h[2], h[1] ** 2)
        if t != cf.favard_st(n)[1]:
            bad.append(f"(n={n}) H-ratio t = {t} != favard")
    return bad


def _suite_orthogonality(max_n: int, max_m: int, rng) -> list[str]:
    bad = []
    cap = min(max_n, 20)
    for i in range(cap + 1):
        for j in range(i + 1, cap + 1):
            if moment_orthogonality(i, j) != 0:
                bad.append(f"(i={i}, j={j}) nonzero moment")
    for n in range(cap + 1):
        expect = 1
        for k in range(n):
            expect *= cf.T_int(k)
        if moment_orthogonality(n, n) != expect:
            bad.append(f"(n={n}) diagonal moment != T-product")
    return bad


def _suite_parity(max_n: int, max_m: int, rng) -> list[str]:
    bad = []
    for m in range(1, max_m + 1):
        for n in range(max_n + 1):
            p = catalan_shift_parity(n, m)
            if p != (1 if cf.shift_support(n, m) else 0):
                bad.append(f"(n={n}, m={m}) parity != residue rule")
            if p != (1 if cf.d_shift_int(n, m) != 0 else 0):
                bad.append(f"(n={n}, m={m}) parity != d_shift support")
    return bad


CHECK_SUITES = {
    "oracle": _suite_oracle,
    "methods": _suite_methods,
    "reflect": _suite_reflect,
    "ldlt": _suite_ldlt,
    "cf": _suite_cf,
    "orthogonality": _suite_orthogonality,
    "parity": _suite_parity,
}


def cmd_verify(ns) -> int:
    if ns.max_n < 1:
        raise UsageError("--max-n must be at least 1")
    if ns.max_m < 1:
        raise UsageError("--max-m must be at least 1")
    if ns.m is not None and ns.m < 2:
        raise UsageError("the conjecture scan needs --m >= 2")
    rng = random.Random(ns.prop_seed)
    failures = 0
    if ns.suite == "all":
        names = list(CHECK_SUITES) + ["conjecture"]
    else:
        names = [ns.suite]
    for name in names:
        if name == "conjecture":
            shifts = [ns.m] if ns.m is not None else [m for m in range(3, ns.max_m + 1)]
            if not shifts:
                shifts = [3, 4]
            for m in shifts:
                report = cf.conjecture38_scan(m, ns.max_n)
                eps = "" if report.epsilon is None else f" eps={report.epsilon}"
                status = "conforms" if report.conforms else "violates"
                print(f"conjecture-scan m={m} max_n={report.max_n}: {status}{eps}")
                for v in report.violations:
                    print(f"  {v}")
            continue
        bad = CHECK_SUITES[name](ns.max_n, ns.max_m, rng)
        if bad:
            failures += len(bad)
            print(f"FAIL {name} ({len(bad)} checks):")
            for line in bad:
                print(f"  {line}")
        else:
            print(f"ok {name}")
    return 1 if failures else 0


# ---------------------------------------------------------------------------
# bench / det
# ---------------------------------------------------------------------------


def _closed_value(rule: str, m: int, n: int):
    if rule == "unit":
        return cf.d_shift_int(n, m)
    if rule == "generic":
        if m == 0:
            return cf.generic_d(n)
        if m == 1:
            return cf.generic_D(n)
        return cf.d_shift_generic(n, m)
    if rule in ("powers", "doubling"):
        if m not in (0, 1):
            raise UsageError(f"rule {rule} supports shifts 0 and 1 only")
        return cf.specialize_det(rule, m == 1, n)
    if rule == "grs":
        if m != 1:
            raise UsageError("the grs rule needs --m 1")
        return seqmod.grs_r(n)
    raise UsageError(f"unknown rule {rule!r}")


def _timed(fn, repeats: int = 3):
    best = None
    value = None
    for _ in range(repeats):
        t0 = time.perf_counter_ns()
        value = fn()
        dt = time.perf_counter_ns() - t0
        best = dt if best is None else min(best, dt)
    return value, best


def cmd_bench(ns) -> int:
    rule, m, n = ns.rule, ns.m, ns.n
    if n < 0:
        raise UsageError("--n must be nonnegative")
    _check_shift(rule, m)
    if ns.engine == "closed":
        if n > 10**9:
            raise UsageError("closed engine is guarded to n <= 10^9")
        value, elapsed = _timed(lambda: _closed_value(rule, m, n))
    elif ns.engine == "bareiss":
        if n > 2048:
            raise UsageError("bareiss engine is guarded to n <= 2048")
        sr = SequenceRule(rule, m)
        if sr.symbolic:
            raise UsageError("bareiss engine needs an integer rule (unit/grs)")
        value, elapsed = _timed(lambda: det_oracle(build_matrix(sr, n), "bareiss"))
    elif ns.engine == "cofactor":
        if n > 32:
            raise UsageError("cofactor engine is guarded to n <= 32")
        sr = SequenceRule(rule, m)
        value, elapsed = _timed(lambda: det_oracle(build_matrix(sr, n), "cofactor"))
    else:
        raise UsageError(f"unknown engine {ns.engine!r}")
    print(f"engine={ns.engine} rule={rule} m={m} n={n} elapsed_ns={elapsed} value={value}")
    return 0


def cmd_det(ns) -> int:
    if ns.n < 0:
        raise UsageError("--n must be nonnegative")
    _check_shift(ns.rule, ns.m)
    sr = SequenceRule(ns.rule, ns.m)
    if ns.engine == "bareiss" and sr.symbolic:
        raise UsageError("bareiss engine needs an integer rule (unit/grs)")
    mat = build_matrix(sr, ns.n)
    if ns.show:
        print(mat.render_grid())
    print(f"det = {det_oracle(mat, ns.engine)}")
    return 0


# ---------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hankelmod2",
        description="Exact Hankel determinants of the Catalan-mod-2 family",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("table", help="emit a sequence table as CSV or JSON")
    p.add_argument("--seq", required=True, choices=SEQ_CHOICES)
    p.add_argument("--rule", choices=RULE_CHOICES)
    p.add_argument("--m", type=int, default=None, help="shift (for --seq d)")
    p.add_argument("--from", dest="frm", type=int, default=0)
    p.add_argument("--to", type=int, default=15)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.set_defaults(func=cmd_table)

    p = sub.add_parser("verify", help="run identity verification suites")
    p.add_argument(
        "--suite",
        required=True,
        choices=tuple(CHECK_SUITES) + ("conjecture", "all"),
    )
    p.add_argument("--max-n", dest="max_n", type=int, default=64)
    p.add_argument("--max-m", dest="max_m", type=int, default=8)
    p.add_argument("--m", type=int, default=None, help="single shift for the conjecture scan")
    p.add_argument("--prop-seed", dest="prop_seed", type=int, default=1,
                   help="seed for the randomized property checks")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("bench", help="time one determinant evaluation")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--engine", required=True, choices=("closed", "bareiss", "cofactor"))
    p.add_argument("--rule", choices=RULE_CHOICES, default="unit")
    p.add_argument("--m", type=int, default=0)
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("det", help="print one matrix determinant (optionally the matrix)")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--rule", choices=RULE_CHOICES, default="unit")
    p.add_argument("--m", type=int, default=0)
    p.add_argument("--show", action="store_true", help="render the matrix grid")
    p.add_argument("--engine", choices=("auto", "bareiss", "cofactor"), default="auto")
    p.set_defaults(func=cmd_det)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    ns = parser.parse_args(argv)
    try:
        return ns.func(ns)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
