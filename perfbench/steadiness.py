"""Run the benchmark over several seeds and report each metric's median and spread.

    python3 perfbench/steadiness.py --workloads sweep-pitch,recognize --seeds 1-10

Spread is the distance between the first and third quartile of the runs'
values as a share of their median. Each end-to-end metric's spread is
printed beside a third of its bound from BENCHMARK.json, the level a steady
benchmark stays under. Runs are made one at a time.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from vmbench.stats import relative_iqr  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent


def parse_seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(command, workload, seed, seconds, log=None) -> dict:
    argv = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if done.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {done.returncode}:\n{done.stderr[-2000:]}")
    if log:
        with open(log, "a") as fh:
            fh.write(done.stdout)
    return json.loads(done.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", required=True, help="comma-separated")
    parser.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    parser.add_argument("--log", help="append every run's stdout (record and result) here")
    args = parser.parse_args(argv)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    steady = True
    for workload in args.workloads.split(","):
        values: dict[str, list[float]] = {}
        for seed in parse_seeds(args.seeds):
            result = run_once(bench["command"], workload, seed, bench["run_seconds"], args.log)
            if not result["correct"] or result["failed"]:
                print(f"{workload} seed {seed}: incorrect or failed ops: {result}")
                steady = False
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
            print(f"{workload} seed {seed}: " + " ".join(
                f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()), flush=True)
        for name, series in values.items():
            spread = relative_iqr(series)
            limit = bounds[name] / 3
            mark = "ok" if spread < limit else "WIDE"
            steady &= spread < bounds[name]
            print(f"  {workload:12s} {name:12s} median {statistics.median(series):10.4f}  "
                  f"spread {spread:.4f}  (bound/3 {limit:.4f}) {mark}")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
