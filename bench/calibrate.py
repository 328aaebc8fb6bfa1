"""Calibrated time: wall-clock intervals expressed in reference-machine seconds.

The 2-vCPU VM this benchmark was written on changes speed by up to 1.7x from
one tenth of a second to the next (a shared host), so raw wall-clock figures
of identical code move by about +-20 % between processes.  A fixed
pure-Python reference kernel runs between the operations; every interval is
scaled by (nominal kernel time / kernel time measured next to it), so the
figures stay in seconds of a reference machine while the drift cancels.

The drift does not hit all code alike: between the fast and the slow state
a tight bytecode loop slows down 1.72x, dict-heavy row operations 1.53x,
Fraction arithmetic 1.62x and 4096-bit division inside C only 1.10x.  So the
kernel is built from fixed pieces of each kind, and each workload names the
mix of pieces that slows down as its own operations do
(``Workload.KERNEL``).
"""

from __future__ import annotations

import time
from fractions import Fraction

_SEED = (1 << 2047) | 0x5DEECE66D
_BIG = (_SEED << 2048) | 0xC0FFEE12345
_ROWS = [{(i * 7 + j * 13) % 97: (i * j) % 89 + 1 for j in range(12)} for i in range(97)]


def interpreter_loop() -> int:
    """Small-int arithmetic, shifts and a dict in a tight bytecode loop."""
    x = _SEED
    acc = 0
    table: dict[int, int] = {}
    for i in range(3000):
        acc ^= (x >> (i & 1023)) & 0xFFFF
        table[i & 127] = table.get(i & 127, 0) + (acc & 7)
        if acc & 1:
            acc += i * 3
        else:
            acc >>= 1
    return acc + len(table)


def bigint_division() -> int:
    """Division and shifts of a 4096-bit number, done inside C."""
    acc = 0
    for k in range(0, 4000, 32):
        acc += (_BIG % (1 << (k + 1))) & 0xFF
        acc ^= (_BIG >> k) & 0xFF
    return acc


def sparse_rows() -> int:
    """Row operations on dict-of-column sparse rows, as in an elimination."""
    rows = [dict(r) for r in _ROWS]
    acc = 0
    for c in range(0, 97, 2):
        pivot = rows[c]
        pv = pivot.get(c, 1) or 1
        for r in rows[c + 1:c + 4]:
            f = r.get(c, 0)
            for j, w in pivot.items():
                r[j] = (r.get(j, 0) * pv - f * w) % 1000003
        acc += len(pivot)
    return acc


def text_format() -> int:
    """Number-to-text conversion and joining, as in writing table rows."""
    out = []
    for i in range(2000):
        out.append(",".join((str(i * 7919), "unit", "closed", str(-1 if i & 1 else 1))))
    return len("\n".join(out))


def fraction_sum() -> int:
    """Exact rational arithmetic with fractions.Fraction."""
    s = Fraction(0)
    for i in range(1, 160):
        s += Fraction(i % 5 - 2, i + 1) * Fraction(3, i + 2)
    return s.numerator


# Median time of each piece on the reference machine (2-vCPU Intel Xeon VM
# at 2.0 GHz, CPython 3.11), over 2000 runs in 10 processes.
PIECES = {
    "interpreter_loop": (interpreter_loop, 0.00179),
    "bigint_division": (bigint_division, 0.00114),
    "sparse_rows": (sparse_rows, 0.0026),
    "text_format": (text_format, 0.0013),
    "fraction_sum": (fraction_sum, 0.0015),
}

# Slows down as 4096-bit arithmetic and module imports do: barely.
BIGINT_HEAVY = {"bigint_division": 4, "interpreter_loop": 1}

# A kernel sample is taken before or after an operation once this much wall
# time has passed since the previous one; shorter operations in between
# share one factor.
SAMPLE_EVERY_S = 0.020


def make_kernel(mix: dict[str, int]):
    """The timing function of a kernel made of ``mix`` ({piece: runs}),
    and its nominal time."""
    runs = [PIECES[name][0] for name, count in mix.items() for _ in range(count)]

    def timed() -> float:
        t0 = time.perf_counter()
        for piece in runs:
            piece()
        return time.perf_counter() - t0

    return timed, sum(PIECES[name][1] * count for name, count in mix.items())


class Calibrator:
    """Turns raw intervals into calibrated ones using bracketing kernel runs.

    Call ``start()`` once, ``tick()`` right before each interval and
    ``add(raw)`` right after it, and ``finish()`` after the last;
    ``calibrated`` then holds one calibrated duration per ``add``, in order.
    A kernel sample is taken whenever the last one is ``every_s`` old, so a
    long interval gets its own samples just before and just after it, and
    short intervals in between share the mean of the two samples around them.
    """

    def __init__(self, kernel, nominal_s: float, every_s: float = SAMPLE_EVERY_S,
                 clock=time.perf_counter):
        self.nominal_s = nominal_s
        self.every_s = every_s
        self._kernel = kernel
        self._clock = clock
        self._prev: float | None = None
        self._last_sample_at = 0.0
        self._pending: list[float] = []
        self.calibrated: list[float] = []
        self.raw: list[float] = []
        self.kernel_samples: list[float] = []

    def _sample(self) -> None:
        k = self._kernel()
        self.kernel_samples.append(k)
        self._last_sample_at = self._clock()
        if self._pending:
            factor = self.nominal_s / ((self._prev + k) / 2)
            self.calibrated.extend(r * factor for r in self._pending)
            self._pending.clear()
        self._prev = k

    def start(self) -> None:
        self._sample()

    def tick(self) -> None:
        if self._prev is None:
            raise RuntimeError("Calibrator.start() was not called")
        if self._clock() - self._last_sample_at >= self.every_s:
            self._sample()

    def add(self, raw_s: float) -> None:
        self._pending.append(raw_s)
        self.raw.append(raw_s)
        self.tick()

    def finish(self) -> None:
        if self._pending:
            self._sample()

    def factor(self) -> float:
        """Overall calibrated/raw ratio of everything added so far."""
        raw = sum(self.raw[: len(self.calibrated)])
        return sum(self.calibrated) / raw if raw else 1.0
