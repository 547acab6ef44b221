"""Run-to-run spread of the end-to-end metrics, against their bounds.

    python3 perfbench/spread.py --workload filiform-eval --runs 10 [--first-seed 1]

Runs the benchmark once per seed, one run after another, and prints for
each end-to-end metric its median, its quartile spread (third minus
first quartile, as a share of the median) and that spread as a share
of the metric's bound in BENCHMARK.json. A steady benchmark keeps every
spread except setup_s below a third of its bound.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from stats import quartile_spread

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    values = {m["name"]: [] for m in spec["end_to_end"]}
    for seed in range(args.first_seed, args.first_seed + args.runs):
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
               "--seed", str(seed), "--seconds", str(spec["run_seconds"]), "--trace", "0"]
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=200)
        if done.returncode != 0:
            print(f"seed {seed}: exit {done.returncode}\n{done.stderr}", file=sys.stderr)
            return 1
        line = json.loads(done.stdout.strip().splitlines()[-1])
        print(f"seed {seed}: correct={line['correct']} failed={line['failed']}/{line['attempted']} "
              + " ".join(f"{k}={v['value']:.5g}" for k, v in line["metrics"].items()), flush=True)
        for name in values:
            values[name].append(line["metrics"][name]["value"])
    for m in spec["end_to_end"]:
        xs = values[m["name"]]
        spread = quartile_spread(xs)
        print(f"{m['name']}: median {statistics.median(xs):.5g} {m['unit']}, "
              f"spread {spread:.4f} = {spread / m['bound']:.2f} of bound {m['bound']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
