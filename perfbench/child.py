"""One workload in a fresh process: set up, then time operations.

Started by run.py, never by hand. Set-up is the interpreter start,
``import solvhull``, input generation, the workload's prebuild and one
untimed cold operation; the line ``READY`` on stdout marks its end.
After it the process times the reference kernel (see reference.py), so
that run.py can scale the set-up time, and with ``--setup-only`` prints
that time as one JSON line and exits. Otherwise it runs the operations
in a closed loop over whole input cycles until ``--seconds`` have passed
and prints one JSON line with the raw samples.

With ``--trace 1`` untraced and traced cycles alternate until the time
has passed, so the tracing overhead compares operations that ran under
the same machine conditions.
"""

import argparse
import ctypes
import glob
import json
import os
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench"
# The reference kernel runs at a checkpoint when this long has passed
# since it last ran, REFERENCE_RUNS times in a row, so it costs under a
# tenth of the timed loop.
REFERENCE_EVERY_S = 1.0
REFERENCE_RUNS = 3


def reference_now():
    # Imported here, not at the top, so that numpy's import stays inside
    # the timed ``import solvhull``.
    from reference import reference_ms

    return statistics.median(reference_ms() for _ in range(REFERENCE_RUNS))


class Stopwatch:
    """Times one operation at a time; checkpoints inside it do nothing."""

    def start(self):
        self._start = time.perf_counter()

    def checkpoint(self):
        pass

    def stop(self):
        return (time.perf_counter() - self._start) * 1e3


class ReferenceClock(Stopwatch):
    """Times operations and the reference kernel between their stretches.

    A checkpoint falls before every operation and between the steps of
    one (workloads call it); there the kernel runs if it is due, with the
    operation's clock stopped. An operation is thus cut into stretches,
    and ``references`` gives each operation the kernel time that scales
    its wall time as the sum of its stretches, each scaled by the mean of
    the kernel times measured just before and just after it.
    """

    def __init__(self):
        self._refs = [reference_now()]
        self._last_ref = time.perf_counter()
        self._ops = []

    def _stretch_end(self):
        now = time.perf_counter()
        self._stretches.append((now - self._mark, len(self._refs) - 1))

    def _reference_due(self):
        return time.perf_counter() - self._last_ref >= REFERENCE_EVERY_S

    def _reference(self):
        self._refs.append(reference_now())
        self._last_ref = time.perf_counter()

    def start(self):
        if self._reference_due():
            self._reference()
        self._stretches = []
        self._mark = time.perf_counter()

    def checkpoint(self):
        if self._reference_due():
            self._stretch_end()
            self._reference()
            self._mark = time.perf_counter()

    def stop(self):
        self._stretch_end()
        self._ops.append(self._stretches)
        return sum(seconds for seconds, _ in self._stretches) * 1e3

    def references(self):
        """Per timed operation, the kernel ms that scales its wall time."""
        self._reference()
        refs = self._refs
        return [
            sum(t for t, _ in stretches)
            / sum(t * 2 / (refs[i] + refs[i + 1]) for t, i in stretches)
            for stretches in self._ops
        ]


def attempt(workload, key, tracer=None, clock=None):
    """Run and check one operation: (key, ms, status, reason).

    status is "ok", "raised" or "wrong"; only the operation itself is
    timed, not the check.
    """
    clock = clock or Stopwatch()
    clock.start()
    try:
        if tracer is None:
            out = workload.run(key, clock.checkpoint)
        else:
            with tracer.operation(key):
                out = workload.run(key, clock.checkpoint)
    except Exception as err:
        # A raising operation is a failed operation, not a crash of the run.
        return key, clock.stop(), "raised", f"{type(err).__name__}: {err}"
    ms = clock.stop()
    reason = workload.check(key, out)
    return key, ms, ("ok" if reason is None else "wrong"), reason


def run_cycle(workload, tracer=None):
    return [attempt(workload, key, tracer) for key in workload.cycle]


def measure(workload, seconds):
    """Closed loop over whole cycles until the time has passed.

    A sample is an ``attempt`` followed by the reference kernel time
    that scales its wall time.
    """
    clock = ReferenceClock()
    attempts = []
    start = time.perf_counter()
    while True:
        attempts += [attempt(workload, key, clock=clock) for key in workload.cycle]
        if time.perf_counter() - start >= seconds:
            break
    return [(*a, ref_ms) for a, ref_ms in zip(attempts, clock.references())]


def measure_traced(workload, seconds, tracer):
    """Alternate untraced and traced cycles; return both sample lists."""
    untraced, traced = [], []
    start = time.perf_counter()
    while time.perf_counter() - start < seconds:
        untraced += run_cycle(workload)
        tracer.install()
        try:
            traced += run_cycle(workload, tracer)
        finally:
            tracer.uninstall()
    return untraced, traced


def blas_threads():
    """Thread count OpenBLAS reports in this process, or None."""
    import numpy

    libdir = Path(numpy.__file__).parent.parent / "numpy.libs"
    for lib in glob.glob(str(libdir / "libscipy_openblas*.so")):
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment():
    import numpy
    import scipy

    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "blas_threads": blas_threads(),
    }


def main(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    start = time.perf_counter()
    import solvhull

    import_ms = (time.perf_counter() - start) * 1e3
    source = (ROOT / "src").resolve()
    if source not in Path(solvhull.__file__).resolve().parents:
        print(f"solvhull was imported from {solvhull.__file__}, not from {source}",
              file=sys.stderr)
        return 2

    from tracing import Tracer
    from workloads import WORKLOADS, Library

    workload = WORKLOADS[args.workload](Library(), args.seed)
    cold = attempt(workload, workload.cycle[0])
    print("READY", flush=True)
    setup_ref_ms = reference_now()
    if args.setup_only:
        print(json.dumps({"setup_reference_ms": setup_ref_ms}), flush=True)
        return 0

    result = {"import_ms": import_ms, "cold": cold, "env": environment(),
              "setup_reference_ms": setup_ref_ms}
    if args.trace:
        tracer = Tracer()
        result["untraced"], result["traced"] = measure_traced(workload, args.seconds, tracer)
        result["operations"] = tracer.operation_summaries()
        result["untraced_functions"] = tracer.missing
        spans = OUT / f"spans-{args.workload}-seed{args.seed}.jsonl"
        tracer.write(spans)
        result["spans_file"] = str(spans.relative_to(ROOT))
    else:
        result["timed"] = measure(workload, args.seconds)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
