"""Work on two or more cores: the warp's row split and the corpus's render pool.

The warp resampler hands half of its rows to a helper thread
(``signal_core._split_rows``) when the process may run on two or more CPUs,
and ``synth_corpus`` renders utterances on a thread pool of one worker per
usable CPU. Each test forces the CPU count it needs by patching
``signal_core._usable_cpus``, so the threaded path runs even on a one-CPU
machine and the serial split on any; one test pins a fresh interpreter to
one CPU instead, so the real affinity read runs too.
"""

import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

import voicemask.corpus as corpus
import voicemask.signal_core as signal_core
from voicemask import AudioBuffer, WarpSpec, analyse_warp, synth_corpus, warp_analysed
from voicemask.errors import IoFailure
from voicemask.signal_core import _split_rows

from helpers import SR, make_vowel


def use_cpus(monkeypatch, n):
    monkeypatch.setattr(signal_core, "_usable_cpus", lambda: n)


def calls_of(n):
    """(rows, thread) of every call _split_rows makes for range(n)."""
    calls = []
    _split_rows(lambda rows: calls.append((rows, threading.current_thread())), n)
    return calls


class TestSplitRows:
    @pytest.mark.parametrize("n", [0, 1, 2, 3, 8, 183, 184])
    @pytest.mark.parametrize("cpus", [1, 2, 16])
    def test_rows_cover_the_range_once(self, monkeypatch, n, cpus):
        use_cpus(monkeypatch, cpus)
        calls = calls_of(n)
        covered = [i for rows, _ in calls for i in range(n)[rows]]
        assert sorted(covered) == list(range(n))
        assert all(rows.step is None for rows, _ in calls)

    @pytest.mark.parametrize("n", [2, 3, 184])
    def test_two_cpus_run_the_first_half_on_a_helper_thread(self, monkeypatch, n):
        use_cpus(monkeypatch, 2)
        (first, helper), (second, caller) = sorted(calls_of(n), key=lambda c: c[0].start)
        assert first == slice(0, n // 2) and second == slice(n // 2, n)
        assert caller is threading.current_thread() and helper is not caller

    @pytest.mark.parametrize("n", [0, 1, 184])
    def test_one_cpu_or_one_row_is_one_call_in_the_caller(self, monkeypatch, n):
        use_cpus(monkeypatch, 1 if n > 1 else 2)
        assert calls_of(n) == [(slice(0, n), threading.current_thread())]

    # row 0 is in the helper thread's half, row 9 in the caller's
    @pytest.mark.parametrize("failing_row", [0, 9])
    @pytest.mark.parametrize("cpus", [1, 2])
    def test_an_exception_in_either_half_reaches_the_caller(self, monkeypatch, failing_row, cpus):
        class HalfFailed(Exception):
            pass

        def fn(rows):
            if failing_row in range(10)[rows]:
                raise HalfFailed(f"rows {rows.start}:{rows.stop}")

        use_cpus(monkeypatch, cpus)
        threads = threading.active_count()
        with pytest.raises(HalfFailed):
            _split_rows(fn, 10)
        assert threading.active_count() == threads

    def test_the_helper_is_joined_before_the_call_returns(self, monkeypatch):
        use_cpus(monkeypatch, 2)
        finished = []

        def fn(rows):
            if rows.start == 0:
                threading.Event().wait(0.05)
            finished.append(rows.start)

        _split_rows(fn, 4)
        assert sorted(finished) == [0, 2]

    def test_cpu_count_without_affinity_falls_back_to_the_machine(self, monkeypatch):
        monkeypatch.delattr(signal_core.os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(signal_core.os, "cpu_count", lambda: None)
        assert signal_core._usable_cpus() == 1
        monkeypatch.setattr(signal_core.os, "cpu_count", lambda: 3)
        assert signal_core._usable_cpus() == 3


def threaded_and_serial(monkeypatch, run):
    """``run()`` with the helper thread forced on, then forced off."""
    use_cpus(monkeypatch, 2)
    threaded = run()
    use_cpus(monkeypatch, 1)
    return threaded, run()


# one spec per family, away from each family's identity
FAMILY_SPECS = [
    WarpSpec("symmetric", 1.2),
    WarpSpec("asymmetric", 1.2),  # flat at pi: the top bin reads pi / alpha
    WarpSpec("quadratic", -1.3),
    WarpSpec("power", 0.8),
    WarpSpec("bilinear", 0.15),
]


class TestThreadedEqualsSerial:
    @pytest.mark.parametrize("seconds,n_frames", [(0.05, 1), (0.3, 15), (0.5, 28)])
    @pytest.mark.parametrize("spec", FAMILY_SPECS, ids=lambda s: s.family)
    def test_warp_analysed_bytes(self, monkeypatch, seconds, n_frames, spec):
        rng = np.random.default_rng(n_frames)
        noise = AudioBuffer(0.2 * rng.standard_normal(int(SR * seconds)), SR)
        for buf in (make_vowel(f0=150.0, seconds=seconds), noise):
            analysis = analyse_warp(buf)
            assert analysis.phase.shape[0] == n_frames
            threaded, serial = threaded_and_serial(
                monkeypatch, lambda: warp_analysed(analysis, spec).samples.tobytes()
            )
            assert threaded == serial

    def test_synth_corpus_wav_bytes(self, monkeypatch, tmp_path):
        def run():
            out = tmp_path / f"run{len(list(tmp_path.iterdir()))}"
            synth_corpus(3, 2, 2, out)
            return {p.name: p.read_bytes() for p in out.iterdir()}

        threaded, serial = threaded_and_serial(monkeypatch, run)
        assert len(threaded) == 5
        assert threaded == serial


def corpus_files(out):
    return {p.name: p.read_bytes() for p in sorted(out.iterdir())}


class TestSynthPool:
    """``synth_corpus`` draws and writes on the calling thread and renders on a pool."""

    @pytest.mark.parametrize("seed,speakers,utts", [(3, 2, 2), (7, 4, 2)])
    def test_bytes_do_not_depend_on_the_cpu_count(self, monkeypatch, tmp_path, seed, speakers,
                                                  utts):
        runs = []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # hand the interpreter between threads often
        try:
            for cpus in (1, 2, 16):  # 16: more workers than cores, and than utterances
                use_cpus(monkeypatch, cpus)
                synth_corpus(seed, speakers, utts, tmp_path / f"cpus{cpus}")
                runs.append(corpus_files(tmp_path / f"cpus{cpus}"))
        finally:
            sys.setswitchinterval(interval)
        assert len(runs[0]) == speakers * utts + 1
        assert runs[1] == runs[0] and runs[2] == runs[0]

    @pytest.mark.parametrize("cpus", [1, 2, 16])
    def test_every_write_is_on_the_calling_thread_in_manifest_order(self, monkeypatch, tmp_path,
                                                                    cpus):
        writes, renders = [], []
        real_write, real_render = signal_core.write_wav, corpus._render_utterance

        def write_wav(path, buf):
            writes.append((threading.current_thread(), path))
            real_write(path, buf)

        def render(*args, **draws):
            renders.append(threading.current_thread())
            return real_render(*args, **draws)

        monkeypatch.setattr(signal_core, "write_wav", write_wav)
        monkeypatch.setattr(corpus, "_render_utterance", render)
        use_cpus(monkeypatch, cpus)
        manifest = synth_corpus(7, 4, 2, tmp_path)
        caller = threading.current_thread()
        assert writes == [(caller, e.path) for e in manifest.entries]
        # every render on a pool worker, one CPU included
        assert all(t is not caller for t in renders) and len(renders) == 8

    @pytest.mark.parametrize("cpus", [1, 2, 16])
    def test_at_most_two_utterances_per_worker_are_drawn_and_not_written(self, monkeypatch,
                                                                        tmp_path, cpus):
        drawn, written, in_flight = [], [], []
        real_draw, real_write = corpus._draw_utterance, signal_core.write_wav

        def draw(*args):
            drawn.append(real_draw(*args))
            in_flight.append(len(drawn) - len(written))
            return drawn[-1]

        def write_wav(path, buf):
            written.append(path)
            real_write(path, buf)

        monkeypatch.setattr(corpus, "_draw_utterance", draw)
        monkeypatch.setattr(signal_core, "write_wav", write_wav)
        use_cpus(monkeypatch, cpus)
        synth_corpus(7, 4, 2, tmp_path)
        assert max(in_flight) == min(2 * cpus, 8)

    @pytest.mark.parametrize("cpus", [2, 16])
    def test_a_failed_write_stops_the_pool_as_it_stops_the_serial_loop(self, monkeypatch,
                                                                       tmp_path, cpus):
        real_write = signal_core.write_wav

        def run(cpus, out):
            calls = []

            def write_wav(path, buf):
                calls.append(path)
                if len(calls) == 3:
                    raise IoFailure(f"cannot write {path.name}: disk full")
                real_write(path, buf)

            monkeypatch.setattr(signal_core, "write_wav", write_wav)
            use_cpus(monkeypatch, cpus)
            threads = threading.active_count()
            with pytest.raises(IoFailure) as failed:
                synth_corpus(7, 4, 2, out)
            assert threading.active_count() == threads
            return str(failed.value), corpus_files(out)

        pooled = run(cpus, tmp_path / "pooled")
        serial = run(1, tmp_path / "serial")  # a one-worker pool
        assert pooled == serial
        assert pooled[0] == "cannot write spk01_u00.wav: disk full"
        assert sorted(pooled[1]) == ["spk00_u00.wav", "spk00_u01.wav"]


# Pins this interpreter to its first argv[1] usable CPUs, writes a corpus to
# argv[2] and prints the CPU count synth_corpus sized its pool by.
PIN_AND_SYNTH = """
import os, sys
os.sched_setaffinity(0, sorted(os.sched_getaffinity(0))[: int(sys.argv[1])])
from voicemask import signal_core
from voicemask.cli import main
code = main(["synth", "--seed", "3", "--speakers", "2", "--utts", "2", "--out", sys.argv[2]])
print(signal_core._usable_cpus())
sys.exit(code)
"""


@pytest.mark.skipif(
    not hasattr(os, "sched_setaffinity") or len(os.sched_getaffinity(0)) < 2,
    reason="needs os.sched_setaffinity and two usable CPUs",
)
def test_a_process_pinned_to_one_cpu_writes_the_bytes_of_a_two_cpu_one(tmp_path):
    src = str(Path(corpus.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    runs = []
    for cpus in (1, 2):
        out = tmp_path / f"cpus{cpus}"
        result = subprocess.run(
            [sys.executable, "-c", PIN_AND_SYNTH, str(cpus), str(out)],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout == f"{cpus}\n"
        runs.append(corpus_files(out))
    assert len(runs[0]) == 5
    assert runs[0] == runs[1]
