"""The two-core row split: ``signal_core._split_rows`` and the kernels using it.

The warp resampler and the synthetic-corpus renderer hand half of their rows
to a helper thread when the process may run on two or more CPUs. Each test
forces the path it needs by patching the helper's CPU count, so the
threaded path runs even on a one-CPU machine and the serial path on any.
"""

import threading

import numpy as np
import pytest

import voicemask.signal_core as signal_core
from voicemask import AudioBuffer, WarpSpec, analyse_warp, synth_corpus, warp_analysed
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
