"""proxilift benchmark runner.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  The library is imported from
``src/`` of that checkout; without it the command fails before measuring.

--trace 0 (end to end): report as set-up time the median of IMPORT_PROBES
imports of numpy and the library, each in a fresh interpreter, after one
discarded warm-up probe, plus the median of SETUP_ROUNDS runs of the
workload's input generation and certification in this process; then run
the workload's closed loop until the library has been busy for S seconds,
at least MIN_OPS operations have completed and the workload's schedule has
finished a period.  Every output is checked right after its operation,
outside the timed region; comparisons with the reference LP run after the
loop.

--trace 1 (per layer): run a fixed, seed-determined list of operations twice,
first untraced and then with every public function of the six modules
wrapped in spans; report per-function calls and self time, per-module self
time, exact counts and the tracing overhead, and write the spans to
perfbench/traces/<workload>.csv (replacing the previous run's file).

The last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics.  The exit code is 0 only when every operation returned
and passed its checks, 1 otherwise, 2 (with no result line) when the
sources or BENCHMARK.json are missing, and 3 (with no result line) when the
loop reached LOOP_WALL_CAP_S before its regular end, so that a program too
slow for a full run cannot report a shorter run with another mix of
operations.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter

# One caller on one thread: numpy's BLAS is held to a single thread before
# numpy is imported, here and in the import probes, which inherit the
# environment.  Starting its thread pool took about 70 ms, a third of
# numpy's import time on a 2-core machine.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

IMPORT_PROBES = 7
SETUP_ROUNDS = 3
MIN_OPS = 101  # at least ten samples beyond the 90th percentile
LOOP_WALL_CAP_S = 110.0  # keeps a run under the 180 s limit if the program slows

IMPORT_PROBE = (
    "import sys, time\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "t0 = time.perf_counter()\n"
    "import numpy, proxilift, proxilift.cli_reports\n"
    "print(time.perf_counter() - t0)\n"
)


def _import_seconds() -> float:
    """Cold import time of numpy and the library, in a fresh interpreter
    (an import in this process would be served from sys.modules)."""
    probe = subprocess.run([sys.executable, "-c", IMPORT_PROBE, SRC], capture_output=True,
                           text=True, check=True, timeout=60)
    return float(probe.stdout)


def _fail(msg: str) -> int:
    print(f"error: {msg}", file=sys.stderr)
    return 2


class Pass:
    def __init__(self):
        self.latencies: list[float] = []
        self.payloads: list = []  # kept for the reference checks after the loop
        self.failures: dict[int, str] = {}
        self.labels: Counter = Counter()
        self.keys: set = set()
        self.reused = 0
        self.capped = False  # stopped by LOOP_WALL_CAP_S, before the regular end

    @property
    def count(self) -> int:
        return len(self.latencies)

    @property
    def busy(self) -> float:
        return math.fsum(self.latencies)


def _checked(fn, *args):
    try:
        return fn(*args)
    except Exception as exc:  # a check that cannot complete is a failed check
        return f"check raised {type(exc).__name__}: {exc}"


def run_pass(wl, state, *, fixed_n=None, seconds=0.0, min_ops=0, tracer=None) -> Pass:
    """The closed loop: one caller, each operation starts when the previous
    one has returned.  Only the library call is timed; its output is checked
    right after, outside the timed region."""
    res = Pass()
    wall0 = time.perf_counter()
    busy = 0.0
    i = 0
    while True:
        if fixed_n is not None:
            if i >= fixed_n:
                break
        elif busy >= seconds and i >= min_ops and (i - wl.prefix) % wl.period == 0:
            break
        elif time.perf_counter() - wall0 > LOOP_WALL_CAP_S:
            res.capped = True
            break
        op = wl.make_op(state, i)
        key = wl.reuse_key(op)
        res.reused += key in res.keys
        res.keys.add(key)
        if tracer is not None:
            tracer.op = i
        t0 = time.perf_counter()
        try:
            out = wl.run_op(state, op)
            err = None
        except Exception as exc:  # an operation failure is measured, not fatal
            out, err = None, f"{type(exc).__name__}: {exc}"
        dt = time.perf_counter() - t0
        if tracer is not None:
            tracer.op = -1
        busy += dt
        res.latencies.append(dt)
        if err is None:
            res.labels[wl.label(out)] += 1
            err = _checked(wl.check, state, op, out, i)
        if err is None:
            payload = wl.reference_payload(state, op, out, i)
            if payload is not None:
                res.payloads.append((i, payload))
        else:
            res.failures[i] = err
        i += 1
    return res


def check_references(res: Pass, wl, state) -> None:
    for i, payload in res.payloads:
        msg = _checked(wl.check_reference, state, payload)
        if msg is not None:
            res.failures[i] = msg


def _percentile_ms(values, q: float) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1] * 1e3


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="proxilift benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "proxilift", "__init__.py")):
        return _fail(f"no proxilift sources under {SRC}; run from a source checkout")
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
            spec = json.load(fh)
    except (OSError, ValueError) as exc:
        return _fail(f"cannot read BENCHMARK.json: {exc}")

    sys.path.insert(0, SRC)
    import proxilift
    if not os.path.abspath(proxilift.__file__).startswith(SRC + os.sep):
        return _fail(f"proxilift imported from {proxilift.__file__}, not from {SRC}")

    sys.path.insert(0, HERE)
    import tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        return _fail(f"unknown workload {args.workload!r}; "
                     f"choose from {sorted(workloads.WORKLOADS)}")
    wl = workloads.WORKLOADS[args.workload]()
    workdir = os.path.join(HERE, f".work-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        _import_seconds()  # warm-up: the first import after a while reads a cold file cache
        import_times = [_import_seconds() for _ in range(IMPORT_PROBES)]
        setup_times = []
        for _ in range(SETUP_ROUNDS):
            t0 = time.perf_counter()
            state = wl.setup(args.seed, workdir)
            setup_times.append(time.perf_counter() - t0)
        setup_s = statistics.median(import_times) + statistics.median(setup_times)

        info: dict = {}
        if args.trace:
            n_ops = wl.prefix + wl.period * max(1, round(wl.trace_rate * args.seconds / wl.period))
            plain = run_pass(wl, state, fixed_n=n_ops)
            tracer = tracing.Tracer()
            tracer.install()
            try:
                traced = run_pass(wl, state, fixed_n=n_ops, tracer=tracer)
            finally:
                tracer.uninstall()
            passes = [plain, traced]
            values = tracer.aggregate()
            values["bench.untraced_ops_s"] = plain.count / plain.busy
            values["bench.traced_ops_s"] = traced.count / traced.busy
            values["bench.trace_overhead_pct"] = 100.0 * (traced.busy / plain.busy - 1.0)
            span_file = os.path.join(HERE, "traces", f"{wl.name}.csv")
            info["spans_written"] = f"{tracer.write(span_file)} to {os.path.relpath(span_file, ROOT)}"
            wanted = spec["per_layer"]
        else:
            main_pass = run_pass(wl, state, seconds=args.seconds, min_ops=MIN_OPS)
            if main_pass.capped:
                print(f"error: the loop hit its {LOOP_WALL_CAP_S:g} s wall-clock cap after "
                      f"{main_pass.count} operations, before {MIN_OPS} operations or the end "
                      f"of a period; the run is invalid", file=sys.stderr)
                return 3
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            passes = [main_pass]
            values = {
                "throughput_ops_s": main_pass.count / main_pass.busy,
                "latency_p50_ms": _percentile_ms(main_pass.latencies, 50),
                "latency_p90_ms": _percentile_ms(main_pass.latencies, 90),
                "setup_s": setup_s,
                "peak_rss_mb": peak_rss_mb,
            }
            wanted = spec["end_to_end"]
        for p in passes:
            check_references(p, wl, state)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(p.count for p in passes)
    failed = sum(len(p.failures) for p in passes)
    last = passes[-1]
    info["samples"] = last.count
    info["error_rate"] = failed / attempted
    if wl.name == "analyze-corpus":
        info["inconclusive_rate"] = last.labels["INCONCLUSIVE"] / last.count
    info["reused_subspace_share"] = last.reused / last.count

    metrics = {}
    for m in wanted:
        if m["name"] not in values:
            return _fail(f"workload did not produce metric {m['name']}")
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}

    print(f"# {wl.name} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    for name, m in metrics.items():
        print(f"{name:58s} {m['value']:>16.6g} {m['unit']}")
    for name, value in info.items():
        print(f"# {name}: {value}")
    for p in passes:
        for i, msg in sorted(p.failures.items())[:10]:
            print(f"# FAILED op {i}: {msg}", file=sys.stderr)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
