"""The four workloads: seeded inputs, one operation, and its output check.

Each workload turns a seed into an endless sequence of rounds; a round is a
fixed sequence of operation kinds with seeded inputs, and a run always
executes whole rounds, so the mix of kinds is the same in every run.
``run`` is the timed call into hankelmod2; ``check`` runs untimed, right
after it, and raises ``checks.CheckError`` on a wrong output.  Checks that need a second program
value (a cross-check between two program paths) get it through ``lib``
while tracing is off.
"""

from __future__ import annotations

import contextlib
import io

import checks as C
from calibrate import BIGINT_HEAVY


class Workload:
    name = ""
    # Calibration kernel pieces ({piece: runs}) that slow down as this
    # workload's operations do when the machine changes speed; see
    # calibrate.py.
    KERNEL: dict[str, int] = {}

    def rounds(self, rng):
        """Yield rounds (lists of operation specs) without end."""
        raise NotImplementedError

    def run(self, lib, spec):
        raise NotImplementedError

    def check(self, lib, spec, out) -> dict:
        """Raise CheckError on a wrong output; return per-op counters."""
        raise NotImplementedError


# ---------------------------------------------------------------------------
# huge_n: the closed-form panel at n of about 4096 bits
# ---------------------------------------------------------------------------


class HugeN(Workload):
    name = "huge_n"
    BITS = 4096
    COMPANION_BITS = 256  # d_shift_generic takes seconds at thousands of bits
    SHIFTS = (2, 3, 8, 64)
    SUPPORT = 64  # n = 0 mod 64 is on the residue support of every shift above
    KERNEL = BIGINT_HEAVY  # most of the panel is 4096-bit arithmetic

    def _draw(self, rng, bits: int, on_support: bool) -> int:
        n = rng.getrandbits(bits) | (1 << (bits - 1))
        return n - n % self.SUPPORT if on_support else n

    def rounds(self, rng):
        while True:
            yield [(self._draw(rng, self.BITS, on), self._draw(rng, self.COMPANION_BITS, on))
                   for on in (True, False)]

    def run(self, lib, spec):
        n, c = spec
        cf, seq = lib.closedform, lib.seq
        return {
            "d": cf.d_sign(n),
            "D_delta": cf.D_sign(n, "delta"),
            "D_recurrence": cf.D_sign(n, "recurrence"),
            "T_ratio": cf.T_int(n, "ratio"),
            "T_structural": cf.T_int(n, "structural"),
            "favard": cf.favard_st(n),
            "r": seq.grs_r(n),
            "s": seq.sign_s(n),
            "v": seq.sign_v(n),
            "gd_profile": cf.generic_d(n, "profile"),
            "gd_recurrence": cf.generic_d(n, "recurrence"),
            "gD_profile": cf.generic_D(n, "profile"),
            "gD_recurrence": cf.generic_D(n, "recurrence"),
            "gT": cf.generic_T(n),
            "grs": cf.specialize_det("grs", True, n),
            "shift_int": [cf.d_shift_int(n, m) for m in self.SHIFTS],
            "shift_generic": [cf.d_shift_generic(c, m) for m in self.SHIFTS],
        }

    def check(self, lib, spec, out):
        n, c = spec
        C.expect(out["d"] == C.d_ref(n), "d_sign")
        D = C.D_ref(n)
        C.expect(out["D_delta"] == D and out["D_recurrence"] == D, "D_sign")
        T = C.T_ref(n)
        C.expect(out["T_ratio"] == T and out["T_structural"] == T, "T_int")
        C.expect(tuple(out["favard"]) == C.favard_ref(n), "favard_st")
        C.expect(out["r"] == C.r_ref(n), "grs_r")
        C.expect(out["s"] == C.s_ref(n), "sign_s")
        C.expect(out["v"] == C.v_ref(n), "sign_v")
        # the recurrence forms must equal the profile forms, checked in full
        C.check_hankel_monomial(out["gd_profile"], n, 0, C.d_ref(n), "generic_d")
        C.check_hankel_monomial(out["gD_profile"], n, 1, D, "generic_D")
        C.expect(C.monomial_of(out["gd_profile"]) == C.monomial_of(out["gd_recurrence"]),
                 "generic_d profile != recurrence")
        C.expect(C.monomial_of(out["gD_profile"]) == C.monomial_of(out["gD_recurrence"]),
                 "generic_D profile != recurrence")
        C.check_T_monomial(out["gT"], n)
        C.expect(out["grs"] == C.r_ref(n), "grs specialization != r(n)")
        C.check_h_ratio(out["gd_profile"], lib.closedform.generic_d(n + 1, "recurrence"),
                        out["gD_profile"], n)
        for m, v in zip(self.SHIFTS, out["shift_int"]):
            C.expect((v != 0) == C.support_ref(n, m), f"d(n, {m}) breaks the residue rule")
            if v:
                C.expect(v == C.reversal_ref(n, m), f"d(n, {m}) = {v}")
        for m, v in zip(self.SHIFTS, out["shift_generic"]):
            if not C.support_ref(c, m):
                C.expect(str(v) == "0", f"generic d(c, {m}) off the residue support")
                continue
            C.check_hankel_monomial(v, c, m, lib.closedform.d_shift_int(c, m),
                                    f"generic d(c, {m})")
        return {}


# ---------------------------------------------------------------------------
# oracle_dets: one build_matrix + det_oracle query
# ---------------------------------------------------------------------------


class OracleDets(Workload):
    name = "oracle_dets"
    # Orders where one Bareiss query takes 2 to 40 ms: long enough that the
    # host's scheduling hiccups (a few ms) do not make up the tail.
    ORDERS = (512, 1024)
    SHIFTS = (0, 1, 2, 3, 4, 5, 6, 7, 8, 64)  # the grs rule needs m >= 1
    KERNEL = {"sparse_rows": 1}

    def rounds(self, rng):
        # every shift once per rule and round, so each run has the same share
        # of each shift (zero determinants are far more common at large m)
        while True:
            yield [(rule, m, rng.randint(*self.ORDERS))
                   for rule in ("unit", "grs") for m in self.SHIFTS if m or rule == "unit"]

    def run(self, lib, spec):
        rule, m, n = spec
        hk = lib.hankel
        return hk.det_oracle(hk.build_matrix(hk.SequenceRule(rule, m), n))

    def check(self, lib, spec, out):
        rule, m, n = spec
        C.check_det(rule, n, m, out)
        return {}


# ---------------------------------------------------------------------------
# cf_series: one cf_expand at a fixed order
# ---------------------------------------------------------------------------


class CfSeries(Workload):
    name = "cf_series"
    ORDER = 48
    KERNEL = {"fraction_sum": 2}

    def rounds(self, rng):
        # The identities cost 170 to 260 ms here and a random fraction about
        # 340 ms; with five random fractions a round, the median falls inside
        # the random ones instead of in the gap between the two groups.
        while True:
            yield [("eq217",), ("eq228",), ("eq08",)] + [
                ("random", tuple(rng.choice((1, -1)) for _ in range(self.ORDER))) for _ in range(5)
            ]

    def run(self, lib, spec):
        cfm, closed, seq = lib.contfrac, lib.closedform, lib.seq
        order, kind = self.ORDER, spec[0]
        if kind == "eq217":
            frac = cfm.CFSpec.s_fraction([closed.T_int(k) for k in range(order)])
        elif kind == "eq228":
            pairs = [closed.favard_st(k) for k in range((order + 1) // 2)]
            frac = cfm.CFSpec.j_fraction([s for s, _ in pairs], [t for _, t in pairs])
        elif kind == "eq08":
            frac = cfm.CFSpec.s_fraction([-seq.grs_r(k) * seq.grs_r(k + 2) for k in range(order)])
        else:
            frac = cfm.CFSpec.s_fraction(spec[1])
        series = cfm.cf_expand(frac, order)
        return list(getattr(series, "coeffs", series))

    def check(self, lib, spec, out):
        kind = spec[0]
        if kind == "random":
            want = C.s_fraction_series(list(spec[1]), self.ORDER)
        else:
            want = C.target_ref(self.ORDER, alternating=kind == "eq08")
        C.check_series(out, want, kind)
        return {}


# ---------------------------------------------------------------------------
# table_rows: one in-process `hankelmod2 table` command
# ---------------------------------------------------------------------------


class TableRows(Workload):
    name = "table_rows"
    MAX_OFFSET = 10**6
    KERNEL = {"text_format": 2}
    # (seq, rule, m, {format: window}); windows make each command cost about
    # the same (about 85 ms calibrated).
    KINDS = (
        ("D", "unit", 1, {"csv": 10800, "json": 6500}),
        ("d", "unit", 3, {"csv": 1420, "json": 1360}),
        ("d", "generic", 3, {"csv": 415, "json": 370}),
        ("T", "unit", 0, {"csv": 8200, "json": 5550}),
        ("mu", "generic", 0, {"csv": 2230, "json": 1950}),
    )

    def rounds(self, rng):
        while True:
            rnd = []
            for seq, rule, m, windows in self.KINDS:
                for fmt, width in windows.items():
                    lo = rng.randint(0, self.MAX_OFFSET - width)
                    rnd.append((seq, rule, m, fmt, lo, lo + width - 1))
            yield rnd

    def argv(self, spec) -> list[str]:
        seq, rule, m, fmt, lo, hi = spec
        argv = ["table", "--seq", seq, "--rule", rule]
        if seq == "d":
            argv += ["--m", str(m)]
        return argv + ["--from", str(lo), "--to", str(hi), "--format", fmt]

    def run(self, lib, spec):
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink):
            code = lib.cli.main(self.argv(spec))
        return code, sink.getvalue()

    def check(self, lib, spec, out):
        seq, rule, m, fmt, lo, hi = spec
        code, text = out
        C.expect(code == 0, f"exit code {code}")
        rows = C.check_table(text, fmt, seq, rule, m, lo, hi)
        return {"cli.rows_out": rows, "cli.bytes_out": len(text.encode())}


WORKLOADS = {w.name: w for w in (HugeN(), OracleDets(), CfSeries(), TableRows())}
