"""The benchmark's own tests: every checker rejects a corrupted output, and
the calibration scales a known interval as expected.

    python3 bench/selftest.py

Run from the root of a source checkout (the program is imported from src/).
"""

from __future__ import annotations

import random
import sys
import unittest
from fractions import Fraction
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import checks as C  # noqa: E402
from calibrate import Calibrator  # noqa: E402
from run import load_program  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

LIB = load_program()


def rejects(test, fn, *args):
    with test.assertRaises(C.CheckError):
        fn(*args)


class ReferenceFormulas(unittest.TestCase):
    """The checkers' own formulas agree with each other on small inputs."""

    def test_single_permutation_matches_dense_elimination(self):
        for rule in ("unit", "grs"):
            for m in range(0 if rule == "unit" else 1, 10):
                for n in range(0, 14):
                    mat = [[Fraction(0) if (k := C.power_index(i + j, m)) is None
                            else Fraction(1 if rule == "unit" else C.grs_value(k))
                            for j in range(n)] for i in range(n)]
                    self.assertEqual(C.dense_det(mat), C.expected_det(rule, n, m), (rule, n, m))

    def test_reversal_construction_matches_the_matching(self):
        for m in range(0, 10):
            for n in range(0, 70):
                self.assertEqual(C.reversal_ref(n, m), C.expected_det("unit", n, m), (n, m))
                self.assertEqual(C.reversal_ref(n, m) != 0, C.support_ref(n, m) or m < 2, (n, m))
        for n in range(0, 2000, 7):
            self.assertEqual(C.reversal_ref(n, 0), C.d_ref(n))
            self.assertEqual(C.reversal_ref(n, 1), C.D_ref(n))

    def test_lattice_paths_give_catalan_numbers(self):
        self.assertEqual(C.s_fraction_series([1] * 8, 8), [1, 1, 2, 5, 14, 42, 132, 429])

    def test_mu_table_has_the_hankel_degrees(self):
        for n in range(1, 300):
            exps = C.mu_ref(n)
            self.assertEqual(sum(exps.values()), n)
            self.assertEqual(sum(e * ((1 << k) - 1) for k, e in exps.items()), n * n)

    def test_monomial_text_round_trip(self):
        self.assertEqual(C.parse_monomial("-x0*x3^2/x7"), (-1, {0: 1, 2: 2, 3: -1}))
        rejects(self, C.parse_monomial, "x1 + x3")
        rejects(self, C.parse_monomial, "x2")


class HugeNCheck(unittest.TestCase):
    def setUp(self):
        self.w = WORKLOADS["huge_n"]
        rng = random.Random(7)
        self.spec = (rng.getrandbits(300) << 6, rng.getrandbits(40) << 6)
        self.out = self.w.run(LIB, self.spec)

    def corrupt(self, key, value):
        out = dict(self.out)
        out[key] = value
        rejects(self, self.w.check, LIB, self.spec, out)

    def test_accepts_program_output(self):
        self.w.check(LIB, self.spec, self.out)

    def test_flipped_signs(self):
        for key in ("d", "D_delta", "D_recurrence", "T_ratio", "T_structural", "r", "s", "v", "grs"):
            self.corrupt(key, -self.out[key])
        self.corrupt("gd_profile", -self.out["gd_profile"])
        self.corrupt("shift_int", [-v for v in self.out["shift_int"]])

    def test_wrong_exponent(self):
        LP = LIB.exactring.LaurentPoly
        self.corrupt("gD_recurrence", self.out["gD_recurrence"] * LP.variable(2))
        self.corrupt("gT", self.out["gT"] * LP.variable(1) / LP.variable(0))
        sg = list(self.out["shift_generic"])
        sg[0] = sg[0] * LP.variable(1)
        self.corrupt("shift_generic", sg)

    def test_wrong_favard(self):
        s, t = self.out["favard"]
        self.corrupt("favard", (s, -t))


class OracleCheck(unittest.TestCase):
    w = WORKLOADS["oracle_dets"]

    def test_flipped_and_wrong_values(self):
        for spec in (("unit", 0, 150), ("grs", 3, 130), ("unit", 5, 140), ("grs", 1, 200)):
            out = self.w.run(LIB, spec)
            self.w.check(LIB, spec, out)
            rejects(self, self.w.check, LIB, spec, -out if out else 1)
            rejects(self, self.w.check, LIB, spec, 2)


class CfCheck(unittest.TestCase):
    w = WORKLOADS["cf_series"]

    def test_wrong_coefficient(self):
        rng = random.Random(3)
        for spec in (("eq217",), ("eq228",), ("eq08",),
                     ("random", tuple(rng.choice((1, -1)) for _ in range(self.w.ORDER)))):
            out = self.w.run(LIB, spec)
            self.w.check(LIB, spec, out)
            bad = list(out)
            bad[11] += 1
            rejects(self, self.w.check, LIB, spec, bad)
            rejects(self, self.w.check, LIB, spec, out[:-1])


class TableCheck(unittest.TestCase):
    w = WORKLOADS["table_rows"]

    def test_dropped_row_and_wrong_value(self):
        for seq, rule, m, _ in self.w.KINDS:
            for fmt in ("csv", "json"):
                spec = (seq, rule, m, fmt, 4093, 4093 + 40)
                code, text = self.w.run(LIB, spec)
                self.w.check(LIB, spec, (code, text))
                if fmt == "csv":
                    lines = text.splitlines(keepends=True)
                    dropped = "".join(lines[:5] + lines[6:])
                else:
                    start = text.index("{", 10)
                    dropped = text[:start] + text[text.index("{", start + 1):]
                rejects(self, self.w.check, LIB, spec, (code, dropped))
                rejects(self, self.w.check, LIB, spec, (1, text))
        spec = ("D", "unit", 1, "csv", 100, 110)
        code, text = self.w.run(LIB, spec)
        flipped = text.replace(",closed,1\r\n", ",closed,-1\r\n", 1)
        self.assertNotEqual(flipped, text)
        rejects(self, self.w.check, LIB, spec, (code, flipped))


class Calibration(unittest.TestCase):
    def test_scales_by_nominal_over_measured(self):
        now = [0.0]
        cal = Calibrator(lambda: 0.004, 0.002, every_s=0.0, clock=lambda: now[0])
        cal.start()
        for raw in (0.010, 0.030):
            now[0] += raw
            cal.add(raw)
        cal.finish()
        self.assertEqual(cal.calibrated, [0.005, 0.015])
        self.assertAlmostEqual(cal.factor(), 0.5)

    def test_uses_the_kernel_samples_on_both_sides(self):
        samples = iter([0.001, 0.003, 0.002, 0.006])
        now = [0.0]
        cal = Calibrator(lambda: next(samples), 0.002, every_s=0.5, clock=lambda: now[0])
        cal.start()
        cal.add(0.010)  # no sample yet: too soon
        cal.add(0.010)
        now[0] = 1.0
        cal.tick()  # bracketed by 1 ms and 3 ms: mean 2 ms, factor 1
        cal.add(0.010)
        now[0] = 2.0
        cal.tick()  # bracketed by 3 ms and 2 ms: factor 0.8
        cal.tick()  # not stale: no sample
        cal.finish()
        self.assertEqual(cal.calibrated, [0.010, 0.010, 0.008])
        self.assertEqual(len(cal.kernel_samples), 3)


if __name__ == "__main__":
    unittest.main()
