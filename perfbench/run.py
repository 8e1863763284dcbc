"""voicemask benchmark: one seeded workload through ``voicemask.cli.main``.

Run from the repository root:

    python3 perfbench/run.py --workload sweep-pitch --seed 1 --seconds 10 --trace 0

With ``--trace 0`` the last stdout line carries the end-to-end metrics; with
``--trace 1`` it carries per-layer calls and self time from a traced run.
The line before it is the run record: environment, digests, sample counts.
See perfbench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import os

# Pin BLAS and OpenMP pools before numpy is imported: with default threads a
# pitch sweep burns twice the CPU for no gain in wall time on two cores.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench_out"


def import_program() -> None:
    """Import voicemask from this checkout's src/, never from an installed copy."""
    src = ROOT / "src"
    if not (src / "voicemask" / "cli.py").is_file():
        sys.exit(f"error: no voicemask sources under {src}")
    sys.path.insert(0, str(src))
    import voicemask.cli

    if Path(voicemask.cli.__file__).resolve().parent.parent != src:
        sys.exit(f"error: imported voicemask from {voicemask.cli.__file__}, not {src}")


def git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() or None


def environment() -> dict:
    import numpy
    import scipy

    from vmbench.checks import sha256_files

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version", "openblas configuration")}
    except (KeyError, TypeError, ValueError):
        blas = None
    sources = sorted((ROOT / "src" / "voicemask").glob("*.py"))
    return {
        "cpu_count": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "git_commit": git_commit(),
        "src_sha256": sha256_files(sources),
        "machine": platform.machine(),
    }


def parse_args(argv=None):
    from vmbench.plan import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True, help="seeds the request plan and corpus")
    parser.add_argument(
        "--holdout-seed", type=int, default=None,
        help="seed the synthetic corpus from this instead of --seed, to check a claim "
        "on speakers never used while the change was written",
    )
    parser.add_argument("--seconds", type=float, required=True, help="time budget of the rounds")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    import_program()
    from vmbench import runner
    from vmbench.stats import TooFewSamples

    corpus_seed = args.seed if args.holdout_seed is None else args.holdout_seed
    OUT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"work-{args.workload}-", dir=OUT))
    try:
        workload = runner.Workload(args.workload, args.seed, corpus_seed, work)
        if args.trace:
            outcome = runner.trace(workload)
            spans_path = OUT / f"spans-{args.workload}-seed{args.seed}.jsonl"
            outcome.recorder.write_jsonl(spans_path)
            outcome.record["spans_file"] = str(spans_path.relative_to(ROOT))
        else:
            outcome = runner.measure(workload, args.seconds)
    except (runner.CellLatencyUnavailable, TooFewSamples) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "corpus_seed": corpus_seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": environment(),
        **outcome.record,
    }
    print(json.dumps({"record": record}))
    print(json.dumps({
        "correct": outcome.correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": outcome.metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
