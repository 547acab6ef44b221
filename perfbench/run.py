"""solvhull benchmark: one workload per invocation, in fresh child processes.

Run from the repository root:

    python3 perfbench/run.py --workload corpus-build --seed 0 --seconds 20 --trace 0

Workloads (see workloads.py for why each exists): builtins-verify,
corpus-build, filiform-build, filiform-eval. Every workload is a
single-client closed loop through the library's public entry points.

--trace 0 is the timed run. It launches one warm-up process that is
discarded, then set-up-only processes, then the measuring process; set-up
time is the median over the measuring process and the set-up-only ones.
It reports the end-to-end metrics named in BENCHMARK.json. Their wall
times are scaled by a reference kernel timed next to them, which takes
out the host's drift in speed (see reference.py); the unscaled figures
are printed beside them.

--trace 1 is the traced run: one process alternates untraced cycles with
cycles traced by spans around each layer's public functions, and reports
the per-layer metrics named in BENCHMARK.json, including the tracing
overhead (traced minus untraced op_p50_ms). Call counts and sizes must
repeat exactly for the same input within the run and across traced runs
of the same code and seed; any difference is printed as drift and makes
the run incorrect.

Child processes run with the BLAS thread count pinned to 1. Human
readable lines come first on stdout; the last line is one JSON object
with the keys correct, attempted, failed and metrics. Raw results, and
the spans of a traced run, are written under .perfbench/.
"""

import argparse
import hashlib
import json
import math
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from reference import NOMINAL_MS, scaled
from stats import tail_percentile

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench"
SETUP_LAUNCHES = 3
TIME_LIMIT_S = 170.0
PINNED = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


class ChildFailed(RuntimeError):
    pass


def child_env():
    env = dict(os.environ)
    for var in PINNED:
        env[var] = "1"
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    return env


def launch(args, setup_only, deadline):
    """Start one child; return (set-up seconds, its parsed last line)."""
    cmd = [
        sys.executable, str(HERE / "child.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
    ]
    if setup_only:
        cmd.append("--setup-only")
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT, env=child_env())
    timer = threading.Timer(max(1.0, deadline - start), proc.kill)
    timer.start()
    try:
        ready = proc.stdout.readline()
        setup_s = time.perf_counter() - start
        rest = proc.stdout.read()
        code = proc.wait()
    finally:
        timer.cancel()
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        proc.stdout.close()
    if ready.strip() != "READY" or code != 0 or not rest.strip():
        raise ChildFailed(f"{args.workload} child exited with code {code} before finishing")
    return setup_s, json.loads(rest.strip().splitlines()[-1])


def source_digest():
    h = hashlib.sha256()
    files = sorted((ROOT / "src").rglob("*.py")) + sorted(HERE.glob("*.py"))
    for path in files:
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def git_commit():
    if not (ROOT / ".git").exists():
        return None
    done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                          text=True, timeout=30)
    return done.stdout.strip() or None


def latencies(samples, scale=False):
    """Operation times in ms; a failed operation misses every latency limit.

    With ``scale`` each time is scaled by the reference kernel time
    stored with its sample.
    """
    return [
        (scaled(s[1], s[4]) if scale else s[1]) if s[2] == "ok" else math.inf
        for s in samples
    ]


def p50(samples, scale=False):
    return statistics.median(latencies(samples, scale))


def ops_per_s(samples, scale=False):
    """Successful operations per second of timed wall time.

    Failed operations spend time but do not count.
    """
    ok = sum(s[2] == "ok" for s in samples)
    busy_ms = sum(scaled(s[1], s[4]) if scale else s[1] for s in samples)
    return ok * 1e3 / busy_ms


def setup_seconds(setups, scale=False):
    """Median set-up time over the launches, each (seconds, kernel ms)."""
    return statistics.median(
        scaled(seconds, ref_ms) if scale else seconds for seconds, ref_ms in setups
    )


def end_to_end(result, setups):
    samples = result["timed"]
    ok = sum(s[2] == "ok" for s in samples)
    return {
        "op_p50_ms": p50(samples, scale=True),
        "ops_per_s": ops_per_s(samples, scale=True),
        "ok_ratio": ok / len(samples),
        "setup_s": setup_seconds(setups, scale=True),
        "peak_rss_mb": result["peak_rss_mb"],
    }


def per_layer(result, names):
    ops = result["operations"]
    metrics = {
        "import_ms": result["import_ms"],
        "trace.overhead_ms": p50(result["traced"]) - p50(result["untraced"]),
    }
    for name in names:
        if name in metrics:
            continue
        field = "counts" if name.startswith("size.") or name.endswith("_calls") else "layers_ms"
        metrics[name] = sum(op[field].get(name, 0) for op in ops) / len(ops)
    return metrics


def count_drift(workload, seed, operations, digest):
    """Inputs whose call counts or sizes differ between two traced runs.

    Compares repeats of an input within this run, and this run against
    the last traced run of the same workload, seed and source digest.
    """
    per_key = {}
    drift = []
    for op in operations:
        key = json.dumps(op["key"])
        if per_key.setdefault(key, op["counts"]) != op["counts"]:
            drift.append(f"input {key}: counts differ between repeats in this run")
    record = OUT / f"counts-{workload}-seed{seed}.json"
    known = {}
    if record.exists():
        previous = json.loads(record.read_text())
        if previous["source_digest"] == digest:
            known = previous["counts"]
    for key, counts in per_key.items():
        if key in known and known[key] != counts:
            drift.append(f"input {key}: counts differ from the previous traced run")
    record.write_text(json.dumps({"source_digest": digest, "counts": {**known, **per_key}}))
    return drift


def failure_lines(samples):
    seen = {}
    for key, _, status, reason, *_ in samples:
        if status != "ok":
            seen.setdefault((status, json.dumps(key), reason), 0)
            seen[(status, json.dumps(key), reason)] += 1
    return [f"  {status} x{n}: input {key}: {reason}" for (status, key, reason), n in seen.items()]


def main(argv=None):
    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "solvhull" / "__init__.py").is_file() or not spec_path.is_file():
        print(f"perfbench: no solvhull sources or BENCHMARK.json under {ROOT}", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    OUT.mkdir(exist_ok=True)
    deadline = time.perf_counter() + TIME_LIMIT_S

    try:
        if args.trace:
            _, result = launch(args, False, deadline)
            setups = []
        else:
            launch(args, True, deadline)  # warm-up: fills file and bytecode caches
            setups = []
            for _ in range(SETUP_LAUNCHES - 1):
                setup_s, line = launch(args, True, deadline)
                setups.append((setup_s, line["setup_reference_ms"]))
            setup_s, result = launch(args, False, deadline)
            setups.append((setup_s, result["setup_reference_ms"]))
    except ChildFailed as err:
        print(f"perfbench: {err}", file=sys.stderr)
        return 1

    digest = source_digest()
    env = {**result["env"], "commit": git_commit(), "source_digest": digest,
           "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
           "trace": args.trace, "pinned": {var: "1" for var in PINNED}}
    samples = result["traced"] + result["untraced"] if args.trace else result["timed"]
    cold_ok = result["cold"][2] != "wrong"
    wrong = sum(s[2] == "wrong" for s in samples)
    failed = sum(s[2] != "ok" for s in samples)
    drift = []
    if args.trace:
        values = per_layer(result, [m["name"] for m in wanted])
        drift = count_drift(args.workload, args.seed, result["operations"], digest)
    else:
        values = end_to_end(result, setups)
    correct = cold_ok and wrong == 0 and not drift

    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    print("env: " + " ".join(f"{k}={v}" for k, v in env.items() if k != "pinned"))
    for m in wanted:
        print(f"{m['name']} = {values[m['name']]:.6g} {m['unit']}")
    print(f"fail_ratio = {failed / len(samples):.6g} ({failed} of {len(samples)} operations)")
    extra = {"fail_ratio": failed / len(samples)}
    if args.trace:
        print(f"tracing overhead: traced op_p50_ms {p50(result['traced']):.6g} "
              f"- untraced {p50(result['untraced']):.6g}")
        for name in result["untraced_functions"]:
            print(f"not traced (absent): {name}")
        for line in drift:
            print(f"count drift: {line}")
        print(f"spans written to {result['spans_file']}")
    else:
        tail = tail_percentile(latencies(samples, scale=True))
        if tail is None:
            print(f"op_tail_ms omitted: {len(samples)} samples, fewer than ten beyond the median")
        else:
            pct, value, beyond = tail
            print(f"op_tail_ms = {value:.6g} ms (p{pct:g}, {len(samples)} samples, {beyond} beyond;"
                  " a failed operation counts as missing every limit)")
            extra["op_tail_ms"] = {"value": value, "percentile": pct, "samples": len(samples)}
        print("setup_s launches, scaled: "
              + ", ".join(f"{scaled(s, r):.3f}" for s, r in setups)
              + " (one warm-up launch discarded)")
        refs = [s[4] for s in samples]
        raw = {"op_p50_ms": p50(samples), "ops_per_s": ops_per_s(samples),
               "setup_s": setup_seconds(setups)}
        print("unscaled wall time: " + " ".join(f"{k} = {v:.6g}" for k, v in raw.items())
              + f"; reference kernel median {statistics.median(refs):.4g} ms"
              f" over {len(refs)} runs, nominal {NOMINAL_MS:g} ms")
        extra["unscaled"] = raw
    for line in failure_lines([result["cold"]] + samples):
        print(line)

    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    line = {"correct": correct, "attempted": len(samples), "failed": failed, "metrics": metrics}
    stored = {**line, "env": env, "extra": extra, "drift": drift, "setups_s": setups,
              "samples": samples}
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(stored, indent=1))
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
