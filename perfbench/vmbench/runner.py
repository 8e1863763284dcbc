"""Set-up, timed rounds and metrics for the four workloads.

Every op goes through ``voicemask.cli.main`` in this process, with stdout
captured. A round is a fixed unit of work: one sweep for the sweep
workloads, one pass over the seeded request list for ``deidentify`` and
``recognize``. Rounds repeat while the next one is predicted to end within
the time budget, at least MIN_ROUNDS times, and until the run holds enough
latency samples for a p90.
Set-up runs in child processes and never counts in a timed metric.
An untraced run scales every timing to a nominal machine speed, read by a
reference kernel while it runs (``speed.py``); the raw times go in the record.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import voicemask.cli as cli
from voicemask.errors import VoicemaskError
from voicemask.experiment import load_sweep

from . import checks, plan, spans, speed, stats

SETUP_REPEATS = 3
MIN_ROUNDS = 3
SRC = str(Path(cli.__file__).resolve().parent.parent)
MIN_OPS = stats.min_samples(0.9)


class CellLatencyUnavailable(RuntimeError):
    """A sweep succeeded without one apply/identify_speaker pair per cell in this process."""


def run_cli(argv) -> tuple[int, str]:
    """Exit code and stdout of one in-process ``voicemask`` command."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        try:
            code = cli.main([str(a) for a in argv])
        except SystemExit as exc:  # argparse flag misuse
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception:  # an op that crashes is a failed op, not a failed run
            traceback.print_exc(file=sys.stderr)
            code = -1
    return code, out.getvalue()


def run_child(argv, timeout: float = 170.0) -> int:
    """Exit code of ``python3 -m voicemask.cli`` run to completion in a child process.

    The wait blocks until the child ends; a timer kills it after ``timeout``
    seconds. (``subprocess.run(timeout=...)`` would instead poll every 50 ms,
    rounding each set-up time up to that grain.)
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    with subprocess.Popen(
        [sys.executable, "-m", "voicemask.cli", *map(str, argv)],
        env=env, stdout=subprocess.DEVNULL,
    ) as child:
        killer = threading.Timer(timeout, child.kill)
        killer.start()
        try:
            return child.wait()
        finally:
            killer.cancel()


def cpu_seconds() -> float:
    """User + system time of this process and its waited-for children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def peak_rss_mb(who=resource.RUSAGE_SELF) -> float:
    """Peak resident set in MB (Linux reports KiB)."""
    return resource.getrusage(who).ru_maxrss / 1024.0


@dataclass
class Round:
    wall: float
    cpu: float
    ops: int
    failed: int
    latencies_ms: list[float]
    op_times: list[float]  # each latency's midpoint on the probe clock
    op_digests: list[str]
    problems: list[str]
    gender_accuracy: float | None = None
    marks: tuple[int, int] = (0, 0)  # the round's span of SpeedProbe samples

    @property
    def digest(self) -> str:
        return hashlib.sha256("\n".join(self.op_digests).encode()).hexdigest()


class Workload:
    """One workload's corpus, requests and checks, from its two seeds."""

    def __init__(self, name: str, seed: int, corpus_seed: int, work: Path):
        self.name, self.seed, self.corpus_seed, self.work = name, seed, corpus_seed, work
        self.speakers, self.utts = plan.CORPUS[name]
        self.files = plan.probe_files(name)
        self.corpus: Path | None = None
        # Entered (sampling) only by measure(); otherwise its clock is perf_counter.
        self.probe = speed.SpeedProbe()
        if name == "deidentify":
            self.requests = plan.deidentify_requests(seed)
        elif name == "recognize":
            self.requests = plan.recognize_requests(seed)
        else:
            self.requests = None

    # --- set-up ----------------------------------------------------------

    def setup(self, dest: Path, in_process: bool = False) -> str:
        """Synthesise (and for recognize, enroll) into dest; returns the corpus digest.

        Untraced set-up runs each command as ``python3 -m voicemask.cli`` in a
        child process, as a user would, so its time includes interpreter start
        and imports and its memory stays out of this process's peak. The
        traced run sets up in-process so that its spans are seen.
        """
        commands = [["synth", "--seed", self.corpus_seed, "--speakers", self.speakers,
                     "--utts", self.utts, "--out", dest]]
        if self.name == "recognize":
            commands.append(["enroll", "--manifest", dest / "manifest.csv",
                             "--models", dest / "models.txt"])
        for argv in commands:
            code = run_cli(argv)[0] if in_process else run_child(argv)
            if code != 0:
                raise RuntimeError(f"set-up command {argv[0]} failed with exit code {code}")
        self.corpus = dest
        return checks.sha256_files(sorted(p for p in dest.iterdir() if p.is_file()))

    # --- rounds ----------------------------------------------------------

    def run_round(self, recorder: spans.Recorder | None = None) -> Round:
        out = self.work / "out"
        shutil.rmtree(out, ignore_errors=True)
        out.mkdir(parents=True)
        lo = self.probe.mark()
        if self.requests is None:
            result = self._sweep_round(out, recorder)
        else:
            result = self._request_round(out, recorder)
        result.marks = (lo, self.probe.mark())
        return result

    def _cpu(self) -> float:
        """CPU seconds of this process and its children, less the speed probe's."""
        return cpu_seconds() - self.probe.cpu_spent

    def _sweep_round(self, out: Path, recorder) -> Round:
        algos = plan.SWEEP_ALGOS[self.name]
        degrees = plan.SWEEP_DEGREES
        argv = ["sweep", "--manifest", self.corpus / "manifest.csv", "--algos", ",".join(algos),
                "--degrees", f"{degrees[0]}..{degrees[-1]}", "--out", out]
        # Untraced, only the two names that bound a cell are spanned, for its latency.
        traced = recorder is not None
        if not traced:
            recorder = spans.Recorder(clock=self.probe.clock)
        tracer = contextlib.nullcontext() if traced else spans.Tracer(
            recorder, only=(spans.CELL_START, spans.CELL_END))
        recorder.request = "sweep"
        with tracer:
            cpu0, t0 = self._cpu(), self.probe.clock()
            code, stdout = run_cli(argv)
            wall, cpu = self.probe.clock() - t0, self._cpu() - cpu0
        rows = None
        if code == 0:
            try:
                rows = load_sweep(out / "sweep.csv").rows
            except (OSError, VoicemaskError):
                rows = None
        genders = [f.gender for f in self.files]
        failed, problems = checks.check_sweep(rows, algos, degrees, genders)
        if code != 0:
            problems.insert(0, f"sweep exit code {code}")
        ops = len(genders) * len(algos) * len(degrees)
        csv_bytes = (out / "sweep.csv").read_bytes() if rows is not None else b""
        digest = hashlib.sha256(csv_bytes + stdout.encode()).hexdigest()
        cells = [] if traced else spans.cell_intervals(recorder.spans)
        latencies = [(end - start) * 1e3 for start, end in cells]
        if not traced and code == 0 and not failed and len(latencies) != ops:
            raise CellLatencyUnavailable(
                f"the sweep ran {len(latencies)} DegreeSchedule.apply -> identify_speaker "
                f"pairs in this process for {ops} cells (cells in worker processes, or not "
                "one apply per cell?), so op_p50_ms/op_p90_ms of a sweep cannot be measured; "
                "see perfbench/README.md")
        return Round(wall, cpu, ops, failed, latencies, [(start + end) / 2 for start, end in cells],
                     [digest], problems)

    def _request_round(self, out: Path, recorder) -> Round:
        results = []
        latencies, op_times = [], []
        clock = self.probe.clock
        cpu0, t0 = self._cpu(), clock()
        for i, req in enumerate(self.requests):
            if recorder:
                recorder.request = i
            in_path = self.corpus / req.file.name
            if isinstance(req, plan.Transform):
                argv = req.argv(in_path, out / f"{i:03d}.wav")
            else:
                argv = req.argv(in_path, self.corpus / "models.txt")
            start = clock()
            results.append(run_cli(argv))
            end = clock()
            latencies.append((end - start) * 1e3)
            op_times.append((start + end) / 2)
        wall, cpu = clock() - t0, self._cpu() - cpu0

        failed, problems, digests, genders = 0, [], [], []
        for i, (req, (code, stdout)) in enumerate(zip(self.requests, results)):
            problem = None
            payload = stdout.encode()
            if code != 0:
                problem = f"request {i}: exit code {code}"
            elif isinstance(req, plan.Transform):
                out_path = out / f"{i:03d}.wav"
                problem = checks.check_transform_output(self.corpus / req.file.name, out_path)
                if problem is None:
                    payload += out_path.read_bytes()
            elif req.command == "gender":
                genders.append((f"request {i}: gender {req.file.name}",
                                checks.top_label(stdout), req.file.gender))
            else:
                label, want = checks.top_label(stdout), req.file.speaker
                if label != want:
                    problem = f"request {i}: identify {req.file.name} gave {label}, want {want}"
            if problem:
                failed += 1
                problems.append(problem)
            digests.append(hashlib.sha256(payload).hexdigest())
        accuracy = None
        if genders:
            gender_failed, gender_problems, accuracy = checks.check_genders(genders)
            failed += gender_failed
            problems += gender_problems
        return Round(wall, cpu, len(self.requests), failed, latencies, op_times, digests, problems,
                     accuracy)


def _divergence(first: Round, others: dict[str, Round]) -> tuple[int, list[str]]:
    """Ops whose output differs from the same op in ``first``, with the reasons."""
    count, problems = 0, []
    for label, other in others.items():
        for i, (a, b) in enumerate(zip(first.op_digests, other.op_digests)):
            if a != b:
                count += 1
                problems.append(f"{label} op {i}: output differs from the first round")
    return count, problems


@dataclass
class Outcome:
    correct: bool
    attempted: int
    failed: int
    metrics: dict
    record: dict
    recorder: spans.Recorder | None = None


def _metric(value, unit):
    return {"value": value, "unit": unit}


def measure(workload: Workload, seconds: float) -> Outcome:
    """Untraced run: repeated set-up and timed rounds; end-to-end metrics.

    The timed rounds are split into one window after each set-up. Window k
    starts a round while it is predicted to end within (k + 1) /
    SETUP_REPEATS of ``seconds`` of round time, so that short rounds span
    the whole run. The first window runs at least one round, and the run
    ends with at least MIN_ROUNDS rounds and MIN_OPS ops, so a round longer
    than the budget (a pitch sweep) runs MIN_ROUNDS times.

    Every timing is scaled to nominal machine speed by the speed factor of
    its own set-up or round (``speed.SpeedProbe.factor``), and each op's
    latency by the factor of the samples nearest to it, because the speed
    changes within a second.
    """
    setups, setup_digests = [], []  # (raw seconds, first mark, last mark)
    rounds: list[Round] = []
    timed = 0.0
    with workload.probe as probe:
        for i in range(SETUP_REPEATS):
            previous = workload.corpus
            lo, start = probe.mark(), time.perf_counter()
            setup_digests.append(workload.setup(workload.work / f"corpus{i}"))
            # The set-up child runs beside the probe, so its time is not paused.
            setups.append((time.perf_counter() - start, lo, probe.mark()))
            if previous is not None:
                shutil.rmtree(previous)
            share = seconds * (i + 1) / SETUP_REPEATS
            while not rounds or timed + rounds[-1].wall <= share:
                rounds.append(workload.run_round())
                timed += rounds[-1].wall
        while len(rounds) < MIN_ROUNDS or sum(r.ops for r in rounds) < MIN_OPS:
            rounds.append(workload.run_round())
    rss = peak_rss_mb()

    diverged, problems = _divergence(
        rounds[0], {f"round {k}": r for k, r in enumerate(rounds[1:], start=1)})
    problems = [p for r in rounds for p in r.problems] + problems
    failed = sum(r.failed for r in rounds) + diverged
    if len(set(setup_digests)) != 1:
        problems.append("set-up repeats produced different corpora")
    attempted = sum(r.ops for r in rounds)
    factors = [probe.factor(*r.marks) for r in rounds]
    walls = [r.wall * f for r, f in zip(rounds, factors)]
    latencies = [x * probe.factor_at(t) for r in rounds for x, t in zip(r.latencies_ms, r.op_times)]
    raw_latencies = [x for r in rounds for x in r.latencies_ms]

    metrics = {
        "setup_s": _metric(statistics.median(t * probe.factor(lo, hi) for t, lo, hi in setups), "s"),
        "wall_s": _metric(statistics.mean(walls), "s"),
        "ops_per_s": _metric(attempted / sum(walls), "op/s"),
        "op_p50_ms": _metric(stats.percentile(latencies, 0.5), "ms"),
        "op_p90_ms": _metric(stats.percentile(latencies, 0.9), "ms"),
        "cpu_s": _metric(statistics.mean(r.cpu * f for r, f in zip(rounds, factors)), "s"),
        "peak_rss_mb": _metric(rss, "MB"),
    }
    record = {
        "rounds": len(rounds),
        "speed_samples": len(probe.samples),
        "speed_kernel_mean_ms": statistics.fmean(probe.samples) * 1e3,
        "round_speed_factor": factors,
        "raw": {
            "setup_repeat_s": [t for t, _, _ in setups],
            "round_wall_s": [r.wall for r in rounds],
            "round_cpu_s": [r.cpu for r in rounds],
            "op_p50_ms": stats.percentile(raw_latencies, 0.5),
            "op_p90_ms": stats.percentile(raw_latencies, 0.9),
        },
        "latency_samples": len(latencies),
        "setup_child_peak_rss_mb": peak_rss_mb(resource.RUSAGE_CHILDREN),
        "fail_ratio": failed / attempted,
        "corpus_sha256": setup_digests[-1],
        "output_sha256": rounds[0].digest,
        "gender_accuracy": rounds[0].gender_accuracy,
        "problems": problems[:20],
    }
    correct = failed == 0 and not problems
    return Outcome(correct, attempted, failed, metrics, record)


def trace(workload: Workload) -> Outcome:
    """Traced run: a traced set-up and round between two untraced rounds; per-layer metrics.

    The untraced rounds bracket the traced one so that a drift in machine
    speed during the run shifts both sides of ``trace.overhead_s`` alike.
    """
    plain_corpus = workload.setup(workload.work / "corpus-untraced")
    before = workload.run_round()

    recorder = spans.Recorder()
    with spans.Tracer(recorder):
        recorder.request = "setup"
        traced_corpus = workload.setup(workload.work / "corpus-traced", in_process=True)
        traced = workload.run_round(recorder)
    recorder.request = None
    after = workload.run_round()

    rounds = (before, traced, after)
    diverged, problems = _divergence(before, {"traced": traced, "second untraced": after})
    problems = [p for r in rounds for p in r.problems] + problems
    if traced_corpus != plain_corpus:
        problems.append("traced set-up produced a different corpus")
    failed = sum(r.failed for r in rounds) + diverged
    attempted = sum(r.ops for r in rounds)

    totals = spans.layer_totals(recorder.spans)
    metrics = {}
    for name in spans.SPAN_NAMES:
        calls, own = totals[name]
        metrics[f"{name}.calls"] = _metric(calls, "count")
        metrics[f"{name}.self_s"] = _metric(own, "s")
    transformed = len(workload.files) if workload.requests is None else sum(
        isinstance(r, plan.Transform) for r in workload.requests)
    stft_calls = totals["signal_core.stft"][0]
    distances = totals["speaker_id.sphericity_distance"][0]
    metrics["experiment.transformed_inputs"] = _metric(transformed, "count")
    metrics["experiment.analyses_per_input"] = _metric(
        stft_calls / transformed if transformed else 0.0, "ratio")
    metrics["trace.ops"] = _metric(traced.ops, "count")
    metrics["speaker_id.distances_per_request"] = _metric(distances / traced.ops, "ratio")
    metrics["trace.overhead_s"] = _metric(traced.wall - (before.wall + after.wall) / 2, "s")
    metrics["trace.unattributed_s"] = _metric(spans.unattributed(recorder.spans), "s")

    record = {
        "untraced_wall_s": [before.wall, after.wall],
        "traced_wall_s": traced.wall,
        "spans": len(recorder.spans),
        "fail_ratio": failed / attempted,
        "corpus_sha256": plain_corpus,
        "output_sha256": before.digest,
        "traced_output_sha256": traced.digest,
        "problems": problems[:20],
    }
    correct = failed == 0 and not problems
    return Outcome(correct, attempted, failed, metrics, record, recorder)
