"""Command line: sequence tables, verification suites, benchmarks, determinants.

Exit codes: 0 all checks passed, 1 an identity check failed, 2 usage error.
Arguments are checked before any work starts; an internal error is not a
usage error and surfaces as a traceback.
All output is exact (integers and canonical monomial strings, no floats).
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import random
import sys
import time
from fractions import Fraction
from typing import Callable, NamedTuple

from . import closedform as cf
from . import contfrac
from . import seq as seqmod
from .hankel import SequenceRule, build_matrix, catalan_shift_parity, det_oracle
from .monomial import Monomial

# largest n each determinant engine takes, in `bench` and `det` alike; the
# largest --to of `table --seq b`, whose recurrence caches every index up to
# n (about 140 MiB at 10^6); the largest n `verify --suite oracle` checks
# an integer rule at, and Bareiss against cofactor at; the largest index of
# `verify --suite orthogonality` (the library's own moment guard); the
# largest n of the Hankel-ratio checks in `verify --suite cf`; and the
# largest n of `verify --suite ldlt`, whose dense n x n products cost n^3
# per check
GUARDS = {"closed": 10**9, "bareiss": 2048, "cofactor": 48, "nonsquash": 10**6,
          "verify_bareiss": 512, "verify_cross": 64, "orthogonality": contfrac.MOMENT_CAP,
          "h_ratio": 20, "ldlt": 64}


class UsageError(Exception):
    pass


class Evaluator(NamedTuple):
    """One registry entry: the table's method label and the exact value."""

    method: str
    value: Callable[[int, int], object]  # (n, m) -> an int or a Monomial
    min_m: int = 0
    min_n: int = 0
    guard: str | None = None  # GUARDS key bounding n, if any


def _specialized(rule: str, generic: Callable[[int, int], object]) -> Callable[[int, int], object]:
    """Substitution is a ring homomorphism: a rule's value is the generic
    monomial with the rule's values substituted in."""
    return lambda n, m: cf.specialize_poly(generic(n, m), rule)


# d(n, m) per rule; --seq d takes any shift, --seq D is the shift-1 table.
DETERMINANTS = {
    "unit": Evaluator("closed", cf.d_shift_int),
    "generic": Evaluator("profile", cf.d_shift_generic),
    "powers": Evaluator("specialize", _specialized("powers", cf.d_shift_generic)),
    "doubling": Evaluator("specialize", _specialized("doubling", cf.d_shift_generic)),
    # the grs rule assigns no value to x0, which only the shift-0 matrix has
    "grs": Evaluator("specialize", _specialized("grs", cf.d_shift_generic), min_m=1),
}
RULE_CHOICES = tuple(DETERMINANTS)

# Every (--seq, --rule) pair `table` accepts; the first rule of a sequence
# is its default.
REGISTRY: dict[tuple[str, str], Evaluator] = {
    **{(seq, rule): e for seq in ("d", "D") for rule, e in DETERMINANTS.items()},
    ("T", "unit"): Evaluator("ratio", lambda n, m: cf.T_int(n)),
    ("T", "generic"): Evaluator("ratio", lambda n, m: cf.generic_T(n)),
    **{("T", r): Evaluator("specialize", _specialized(r, lambda n, m: cf.generic_T(n)))
       for r in cf.SPECIAL_KINDS},
    ("t", "unit"): Evaluator("favard", lambda n, m: cf.favard_st(n)[1]),
    ("t", "generic"): Evaluator("ratio", lambda n, m: cf.generic_t(n)),
    # t_n is a ratio of unshifted determinants, so it carries x0: no grs entry
    **{("t", r): Evaluator("specialize", _specialized(r, lambda n, m: cf.generic_t(n)))
       for r in ("powers", "doubling")},
    ("s", "unit"): Evaluator("favard", lambda n, m: cf.favard_st(n)[0]),
    # the unsigned d(n, 0) and d(n, 1) monomials
    ("lambda", "generic"): Evaluator("profile", lambda n, m: cf.profile_monomial(n, 0)),
    ("mu", "generic"): Evaluator("profile", lambda n, m: cf.profile_monomial(n, 1)),
    ("S", "unit"): Evaluator("recurrence", lambda n, m: seqmod.paperfolding_s(n)),
    ("r", "unit"): Evaluator("recurrence", lambda n, m: seqmod.grs_r(n)),
    ("b", "unit"): Evaluator("recurrence", lambda n, m: seqmod.nonsquash_b(n), min_n=2,
                             guard="nonsquash"),
    ("delta", "unit"): Evaluator("digits", lambda n, m: seqmod.delta_pairs(n)),
}
SEQ_RULES = {seq: [r for s, r in REGISTRY if s == seq] for seq, _ in REGISTRY}


def _resolve(seq: str, rule: str, m: int) -> Evaluator:
    """The registry entry for (seq, rule) at shift m, checked before any work."""
    entry = REGISTRY.get((seq, rule))
    if entry is None:
        raise UsageError(f"--seq {seq} takes --rule {'/'.join(SEQ_RULES[seq])}")
    if m < 0:
        raise UsageError("--m must be nonnegative")
    if m < entry.min_m:
        raise UsageError(f"the {rule} rule assigns no value to x0; it needs --m >= {entry.min_m}")
    return entry


def cmd_table(ns) -> int:
    if ns.m is not None and ns.seq != "d" and (ns.seq, ns.m) != ("D", 1):
        raise UsageError(f"--m does not apply to --seq {ns.seq}; --seq D is the shift-1 table")
    m = 1 if ns.seq == "D" else ns.m or 0
    rule = ns.rule or SEQ_RULES[ns.seq][0]
    entry = _resolve(ns.seq, rule, m)
    if ns.frm < entry.min_n or ns.to < ns.frm:
        raise UsageError(f"need {entry.min_n} <= --from <= --to for --seq {ns.seq}")
    if entry.guard and ns.to > GUARDS[entry.guard]:
        raise UsageError(f"--seq {ns.seq} is guarded to --to <= {GUARDS[entry.guard]}")
    method, value, lo = entry.method, entry.value, ns.frm
    window = range(lo, ns.to + 1)
    # rows are written as they are computed; only n and the value vary, so
    # the fixed fields are formatted once per command
    out = sys.stdout
    if ns.format == "json":
        # the bytes of json.dumps of each row's {n, m, rule, method, value}
        quote = json.encoder.encode_basestring_ascii
        fixed = f', "m": {m}, "rule": {quote(rule)}, "method": {quote(method)}, "value": '
        out.write("[")
        out.writelines(f'{", " if n > lo else ""}{{"n": {n}{fixed}{quote(str(value(n, m)))}}}'
                       for n in window)
        out.write("]\n")
    else:
        writer = csv.writer(out)
        writer.writerow(("n", "m", "rule", "method", "value"))
        writer.writerows((n, m, rule, method, str(value(n, m))) for n in window)
    return 0


# ---------------------------------------------------------------------------
# verify suites
# ---------------------------------------------------------------------------


# A suite yields one (label, got, want) triple per check.


def _oracle_cap(sr: SequenceRule) -> int:
    """Largest n the oracle suite checks: symbolic rules up to the cofactor
    guard, integer rules at every shift up to the same Bareiss cap."""
    return GUARDS["cofactor"] if sr.symbolic else GUARDS["verify_bareiss"]


def _suite_oracle(max_n: int, max_m: int, rng):
    for rule, entry in DETERMINANTS.items():
        for m in range(entry.min_m, max_m + 1):
            sr = SequenceRule(rule, m)
            for n in range(min(max_n, _oracle_cap(sr)) + 1):
                label = f"(n={n}, m={m}) {rule} {entry.method} against the oracle"
                want = det_oracle(build_matrix(sr, n))
                if sr.symbolic:
                    # the oracle's polynomial meets the closed form's Monomial
                    # as one term; a sum of terms stays as it is, so it
                    # compares unequal and prints whole
                    term = Monomial.of(want)
                    want = want if term is None else term
                yield label, entry.value(n, m), want
    for n in range(min(max_n, GUARDS["verify_cross"]) + 1):
        mat = build_matrix(SequenceRule("unit", 0), n)
        yield f"(n={n}) bareiss against cofactor", det_oracle(mat, "bareiss"), det_oracle(mat, "cofactor")


def _suite_methods(max_n: int, max_m: int, rng):
    product = 1
    for n in range(max_n + 1):
        d = cf.D_sign(n, "delta")
        yield f"(n={n}) D recurrence", cf.D_sign(n, "recurrence"), d
        yield f"(n={n}) D paperfolding-product", product, d  # running prod_{j<n} S(j)
        product *= seqmod.paperfolding_s(n)
        t = cf.T_int(n, "ratio")
        for method in ("recurrence", "structural", "nonsquash"):
            yield f"(n={n}) T {method}", cf.T_int(n, method), t
        for m in range(max_m + 1):
            yield (f"(n={n}, m={m}) d profile against recurrence",
                   cf.d_shift_generic(n, m, "profile"), cf.d_shift_generic(n, m, "recurrence"))
        for m in range(2, max_m + 1):
            blocks = cf.nimble_blocks(n, m)
            yield (f"(n={n}, m={m}) d_shift_int against the block fold", cf.d_shift_int(n, m),
                   0 if blocks is None else cf.blocks_sign(blocks))
        for name, ratio, det in (("T", cf.generic_T, cf.generic_D), ("t", cf.generic_t, cf.generic_d)):
            yield (f"(n={n}) generic {name} against the profile quotient",
                   ratio(n), det(n) * det(n + 2) / det(n + 1) ** 2)


def _suite_reflect(max_n: int, max_m: int, rng):
    k = 1
    while (1 << (k + 1)) <= max_n:
        for n in range(1 << k):
            yield (f"(k={k}, n={n}) fold reflection",
                   cf.D_sign((1 << k) + n), (-1) ** n * cf.D_sign((1 << k) - 1 - n))
        k += 1
    k = 1
    while (1 << (k + 2)) <= max_n:
        for n in range(1 << (k + 1)):
            expect = -cf.D_sign(n) if n < (1 << k) else cf.D_sign(n)
            yield f"(k={k}, n={n}) period-doubling reflection", cf.D_sign((1 << (k + 1)) + n), expect
        k += 1
    k = 2
    while (1 << (k + 1)) <= max_n:
        for n in range(1 << k, (1 << (k + 1)) - 2):
            yield f"(k={k}, n={n}) T reflection", cf.T_int(n), cf.T_int((1 << (k + 1)) - 3 - n)
        k += 1


def _suite_ldlt(max_n: int, max_m: int, rng):
    for n in range(1, min(max_n, GUARDS["ldlt"]) + 1):
        yield f"(n={n}) plain decomposition", cf.ldlt_verify_plain(n), True
        yield f"(n={n}) shifted decomposition", cf.ldlt_verify_shifted(n), True


def _suite_cf(max_n: int, max_m: int, rng):
    order = min(max_n, contfrac.MAX_ORDER)
    # series are compared as lists, which a failure line prints as [c0, c1, ...]
    for which in contfrac.IDENTITIES:
        spec, want = contfrac.identity_spec(which, order)
        yield f"{which} at order {order}", list(contfrac.cf_expand(spec, order)), list(want)
    # depth sufficiency on random +-1 coefficient sequences
    for trial in range(8):
        n = 24
        coeffs = [rng.choice((1, -1)) for _ in range(n + 1)]
        lo = contfrac.cf_expand(contfrac.CFSpec.s_fraction(coeffs[:n]), n)
        hi = contfrac.cf_expand(contfrac.CFSpec.s_fraction(coeffs), n)
        yield f"depth sufficiency (trial {trial})", list(lo), list(hi)
    # Favard t against Hankel determinant ratios of the base sequence
    for n in range(min(max_n, GUARDS["h_ratio"]) + 1):
        h = [det_oracle(build_matrix(SequenceRule("unit", 0), k)) for k in (n, n + 1, n + 2)]
        yield f"(n={n}) H-ratio t against favard", Fraction(h[0] * h[2], h[1] ** 2), cf.favard_st(n)[1]


def _suite_orthogonality(max_n: int, max_m: int, rng):
    cap = min(max_n, GUARDS["orthogonality"])
    for i in range(cap + 1):
        for j in range(i + 1, cap + 1):
            yield f"(i={i}, j={j}) off-diagonal moment", contfrac.moment_orthogonality(i, j), 0
    for n in range(cap + 1):
        expect = 1
        for k in range(n):
            expect *= cf.T_int(k)
        yield (f"(n={n}) diagonal moment against the T-product",
               contfrac.moment_orthogonality(n, n), expect)


def _suite_parity(max_n: int, max_m: int, rng):
    for m in range(1, max_m + 1):
        for n in range(max_n + 1):
            p = catalan_shift_parity(n, m)
            yield f"(n={n}, m={m}) parity against the residue rule", p, int(cf.shift_support(n, m))
            yield f"(n={n}, m={m}) parity against the d_shift support", p, int(cf.d_shift_int(n, m) != 0)


def _suite_conjecture(max_n: int, max_m: int, rng, shifts=None):
    """The shifted-sign lemma at every shift 2..max_m (or at ``shifts``), with
    a conjecture-scan line after each shift's checks."""
    for m in range(2, max_m + 1) if shifts is None else shifts:
        conforms = True
        for label, got, want in cf.conjecture38_checks(m, max_n):
            conforms = conforms and got == want
            yield label, got, want
        eps = f" eps={cf.conjecture_epsilon(m)}" if m % 2 else ""
        print(f"conjecture-scan m={m} max_n={max_n}: {'conforms' if conforms else 'violates'}{eps}")


CHECK_SUITES = {
    "oracle": _suite_oracle,
    "methods": _suite_methods,
    "reflect": _suite_reflect,
    "ldlt": _suite_ldlt,
    "cf": _suite_cf,
    "orthogonality": _suite_orthogonality,
    "parity": _suite_parity,
    "conjecture": _suite_conjecture,
}


def run_suite(triples) -> tuple[int, list[str]]:
    """(checks run, failure lines) of one suite's (label, got, want) triples."""
    checks, bad = 0, []
    for label, got, want in triples:
        checks += 1
        if got != want:
            bad.append(f"{label}: got {got}, want {want}")
    return checks, bad


def cmd_verify(ns) -> int:
    if ns.max_n < 1:
        raise UsageError("--max-n must be at least 1")
    if ns.max_m < 1:
        raise UsageError("--max-m must be at least 1")
    if ns.m is not None and ns.suite != "conjecture":
        raise UsageError("--m applies only to --suite conjecture; the other suites take --max-m")
    if ns.m is not None and ns.m < 2:
        raise UsageError("the conjecture scan needs --m >= 2")
    # the methods suite checks T_n against nonsquash_b(n + 2), which caches
    # every index up to its argument
    if ns.suite in ("methods", "all") and ns.max_n + 2 > GUARDS["nonsquash"]:
        raise UsageError(f"--suite {ns.suite} is guarded to --max-n <= {GUARDS['nonsquash'] - 2}")
    rng = random.Random(ns.prop_seed)
    suites = dict(CHECK_SUITES)
    if ns.m is not None:
        suites["conjecture"] = functools.partial(_suite_conjecture, shifts=(ns.m,))
    failures = 0
    for name in suites if ns.suite == "all" else [ns.suite]:
        checks, bad = run_suite(suites[name](ns.max_n, ns.max_m, rng))
        if bad:
            failures += len(bad)
            print(f"FAIL {name} ({len(bad)} checks): out of {checks}")
            for line in bad:
                print(f"  {line}")
        elif checks:
            print(f"ok {name} ({checks} checks)")
        else:
            print(f"empty {name} (0 checks at --max-n {ns.max_n} --max-m {ns.max_m})")
    return 1 if failures else 0


# ---------------------------------------------------------------------------
# bench / det
# ---------------------------------------------------------------------------


def _det_request(ns) -> tuple[Evaluator, SequenceRule, str]:
    """Check a bench or det request against the registry and the guard
    table before any work: (closed form, matrix rule, engine)."""
    if ns.n < 0:
        raise UsageError("--n must be nonnegative")
    entry = _resolve("d", ns.rule, ns.m)
    sr = SequenceRule(ns.rule, ns.m)
    engine = sr.default_engine if ns.engine == "auto" else ns.engine
    if engine == "bareiss" and sr.symbolic:
        raise UsageError("bareiss engine needs an integer rule (unit/grs)")
    if ns.n > GUARDS[engine]:
        raise UsageError(f"{engine} engine is guarded to n <= {GUARDS[engine]}")
    return entry, sr, engine


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
    entry, sr, engine = _det_request(ns)
    if engine == "closed":
        value, elapsed = _timed(functools.partial(entry.value, ns.n, ns.m))
    else:
        value, elapsed = _timed(lambda: det_oracle(build_matrix(sr, ns.n), engine))
    print(f"engine={engine} rule={ns.rule} m={ns.m} n={ns.n} elapsed_ns={elapsed} value={value}")
    return 0


def cmd_det(ns) -> int:
    _, sr, engine = _det_request(ns)
    mat = build_matrix(sr, ns.n)
    if ns.show:
        print(mat.render_grid())
    print(f"det = {det_oracle(mat, engine)}")
    return 0


# ---------------------------------------------------------------------------


@functools.cache  # built on the first main call, not at import
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hankelmod2",
        description="Exact Hankel determinants of the Catalan-mod-2 family",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("table", help="emit a sequence table as CSV or JSON")
    p.add_argument("--seq", required=True, choices=tuple(SEQ_RULES))
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
        choices=tuple(CHECK_SUITES) + ("all",),
    )
    p.add_argument("--max-n", dest="max_n", type=int, default=64)
    p.add_argument("--max-m", dest="max_m", type=int, default=8)
    p.add_argument("--m", type=int, default=None,
                   help="single shift for --suite conjecture (no other suite takes it)")
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
