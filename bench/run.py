"""Benchmark runner: one workload, one fresh process, one closed-loop caller.

    python3 bench/run.py --workload huge_n --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout; the program is imported from its
``src`` directory.  Set-up (importing hankelmod2 and building the seeded
inputs) is repeated SETUP_REPEATS times and its median reported.  Then
operations run back to back, in whole rounds, until --seconds of wall time
have passed; each output is checked right after its operation, outside the
timed interval.  All timings are calibrated (see calibrate.py).

The last line of standard output is one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
with the end-to-end metrics for --trace 0 and the per-layer metrics for
--trace 1.  Lines before it starting with "#" are informational.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import itertools
import json
import random
import resource
import statistics
import sys
import time
from pathlib import Path
from types import SimpleNamespace

from calibrate import BIGINT_HEAVY, Calibrator, make_kernel
from checks import CheckError
from tracing import Tracer
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = Path(__file__).resolve().parent / "out"
LAYERS = ("seq", "exactring", "hankel", "closedform", "contfrac", "cli")
SETUP_REPEATS = 11
MIN_SAMPLES = 40

PER_LAYER = (
    ("seq.calls", "count/op"), ("seq.self_ms", "ms/op"),
    ("closedform.calls", "count/op"), ("closedform.self_ms", "ms/op"),
    ("closedform.oracle_calls", "count/op"),
    ("exactring.calls", "count/op"), ("exactring.self_ms", "ms/op"),
    ("hankel.det_calls", "count/op"), ("hankel.det_order_sum", "count/op"),
    ("hankel.build_ms", "ms/op"), ("hankel.rows_ms", "ms/op"), ("hankel.elim_ms", "ms/op"),
    ("contfrac.calls", "count/op"), ("contfrac.self_ms", "ms/op"),
    ("cli.self_ms", "ms/op"), ("cli.rows_out", "rows/op"), ("cli.bytes_out", "bytes/op"),
)


def load_program() -> SimpleNamespace:
    """Import hankelmod2 afresh, so its module-level caches start empty."""
    for name in [m for m in sys.modules if m == "hankelmod2" or m.startswith("hankelmod2.")]:
        del sys.modules[name]
    pkg = importlib.import_module("hankelmod2")
    mods = {layer: importlib.import_module(f"hankelmod2.{layer}") for layer in LAYERS}
    return SimpleNamespace(package=pkg, **mods)


def set_up(workload, seed: int):
    """Median calibrated set-up time, the program, and the rounds.

    Set-up builds the first round of inputs; later rounds are drawn from
    the same seeded generator between operations, outside timed intervals.
    Importing (unmarshalling and running module bodies) hardly changes speed
    with the machine's state, so it is calibrated with the big-integer kernel.
    """
    kernel, nominal_s = make_kernel(BIGINT_HEAVY)
    times = []
    for _ in range(SETUP_REPEATS):
        gc.collect()  # the previous copy of the program is garbage now
        k0 = kernel()
        t0 = time.perf_counter()
        lib = load_program()
        gen = workload.rounds(random.Random(seed))
        rounds = itertools.chain([next(gen)], gen)
        dt = time.perf_counter() - t0
        k1 = kernel()
        times.append(dt * nominal_s / ((k0 + k1) / 2))
    return statistics.median(times), lib, rounds


def tail_index(n: int) -> int:
    """Index (ascending) of the highest latency with ten samples beyond it."""
    return max(n - 11, 0)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")

    if not (SRC / "hankelmod2" / "__init__.py").is_file():
        print(f"error: no hankelmod2 sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    workload = WORKLOADS[args.workload]

    setup_s, lib, rounds = set_up(workload, args.seed)
    if not Path(lib.package.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"error: hankelmod2 was imported from {lib.package.__file__}", file=sys.stderr)
        return 2

    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install({layer: getattr(lib, layer) for layer in LAYERS}, [lib.package])

    cal = Calibrator(*make_kernel(workload.KERNEL))
    counters: dict[str, float] = {}
    attempted = failed = wrong = 0
    problems: list[str] = []
    clock = time.perf_counter
    cal.start()
    deadline = clock() + args.seconds
    done_rounds = 0
    for rnd in rounds:
        if done_rounds and clock() >= deadline:
            break
        for spec in rnd:
            attempted += 1
            cal.tick()
            if tracer:
                tracer.enabled = True
            t0 = clock()
            try:
                out = workload.run(lib, spec)
            except Exception as exc:  # an operation the program could not do
                failed += 1
                problems.append(f"failed {spec!r:.120}: {exc!r}")
                continue
            finally:
                dt = clock() - t0
                if tracer:
                    tracer.enabled = False
                    tracer.fold()
            cal.add(dt)
            try:
                for key, value in workload.check(lib, spec, out).items():
                    counters[key] = counters.get(key, 0) + value
            except CheckError as exc:
                wrong += 1
                problems.append(f"wrong {spec!r:.120}: {exc}")
        done_rounds += 1
    cal.finish()
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    for line in problems[:10]:
        print(f"# {line}", file=sys.stderr)
    lat = sorted(cal.calibrated)
    n = len(lat)
    if n == 0:
        print("error: no operation completed", file=sys.stderr)
        return 1
    if n < MIN_SAMPLES:
        print(f"# warning: only {n} operations; the tail is not a real tail", file=sys.stderr)
    ti = tail_index(n)
    raw = sorted(cal.raw)
    print(f"# workload={workload.name} seed={args.seed} trace={args.trace} rounds={done_rounds} "
          f"samples={n} tail=p{100 * (ti + 1) / n:.2f} kernel_median_ms="
          f"{statistics.median(cal.kernel_samples) * 1e3:.4f}")
    print(f"# raw: op_p50_ms={statistics.median(raw) * 1e3:.4f} op_tail_ms={raw[ti] * 1e3:.4f} "
          f"ops_per_s={n / sum(raw):.4f}")

    if tracer:
        scale = cal.factor()
        per_op = {}
        for name, unit in PER_LAYER:
            total = tracer.totals.get(name, 0) + counters.get(name, 0)
            if name.endswith("_ms"):
                total *= scale
            per_op[name] = {"value": total / n, "unit": unit}
        OUT_DIR.mkdir(exist_ok=True)
        tracer.write(OUT_DIR / f"trace-{workload.name}-seed{args.seed}.jsonl")
        print(f"# traced: ops_per_s={n / sum(lat):.4f} op_p50_ms={statistics.median(lat) * 1e3:.4f}")
        metrics = per_op
    else:
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "ops_per_s": {"value": n / sum(lat), "unit": "ops/s"},
            "op_p50_ms": {"value": statistics.median(lat) * 1e3, "unit": "ms"},
            "op_tail_ms": {"value": lat[ti] * 1e3, "unit": "ms"},
            "peak_rss_mib": {"value": peak_rss_mib, "unit": "MiB"},
        }
    print(json.dumps({"correct": wrong == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
