"""Bytes of ``extract_cepstra`` against the frozen whole-utterance form.

The library windows and transforms ``_FEATURE_BLOCK`` frames at a time, so
the cases put the frame count on both sides of one and several blocks, at
the sample rates whose frames need 256- to 2048-point transforms. Its
working arrays are kept per thread between calls, so further cases mix
rates and lengths in one thread, and run several threads at once.
"""

import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from voicemask import AudioBuffer, extract_cepstra, speaker_id
from voicemask.errors import TooShort
from voicemask.speaker_id import _FEATURE_BLOCK as B
from voicemask.speaker_id import _SCRATCH_BYTES

import cepstra_reference
from helpers import traced_peak

RATES = [8000, 16000, 22050, 44100]


def framing(fs):
    """Samples per 25 ms feature frame and per 10 ms hop at rate fs."""
    return int(round(25.0 * fs / 1000.0)), int(round(10.0 * fs / 1000.0))


def random_buffer(fs, n_frames):
    """Noise of n_frames feature frames at rate fs, plus a partial hop no frame reaches."""
    frame, hop = framing(fs)
    rng = np.random.default_rng([fs, n_frames])
    n = frame + (n_frames - 1) * hop + int(rng.integers(hop))
    return AudioBuffer(rng.standard_normal(n), fs)


def kept_bytes():
    """Bytes of working arrays the calling thread keeps between extract_cepstra calls."""
    return sum(a.nbytes for a in getattr(speaker_id._scratch, "arrays", ()))


def in_a_new_thread(fn):
    """fn's result, run in a thread that has featurised nothing yet."""
    with ThreadPoolExecutor(1) as pool:
        return pool.submit(fn).result()


@pytest.mark.parametrize("n_frames", [1, B - 1, B, B + 1, 3 * B + 5])
@pytest.mark.parametrize("fs", RATES)
def test_equals_whole_utterance_extraction(fs, n_frames):
    buf = random_buffer(fs, n_frames)
    got = extract_cepstra(buf)
    assert got.shape == (n_frames, 12)
    assert got.tobytes() == cepstra_reference.extract_cepstra(buf).tobytes()


@pytest.mark.parametrize("fs", RATES)
def test_one_sample_short_of_a_frame_is_too_short(fs):
    frame, _ = framing(fs)
    buf = AudioBuffer(np.ones(frame - 1), fs)
    with pytest.raises(TooShort) as want:
        cepstra_reference.extract_cepstra(buf)
    with pytest.raises(TooShort, match=f"^{want.value}$"):
        extract_cepstra(buf)


def test_memory_stays_below_a_whole_utterance_stack():
    # 3 s at 16 kHz is 298 frames; their zero-padded stack alone is 1.2 MB.
    buf = AudioBuffer(np.random.default_rng(5).standard_normal(48000), 16000)
    assert traced_peak(extract_cepstra, buf) <= 2.2e6


def test_interleaved_rates_and_lengths_give_the_reference_bytes():
    # One thread, so each call reuses arrays a call of another shape sized.
    # 298 frames is 3 s at 16 kHz.
    cases = [(fs, n) for n in (1, B - 1, B, B + 1, 298) for fs in RATES]
    cases += cases[::-1] + cases[::3]
    for fs, n_frames in cases:
        buf = random_buffer(fs, n_frames)
        got = extract_cepstra(buf)
        assert got.shape == (n_frames, 12)
        assert got.tobytes() == cepstra_reference.extract_cepstra(buf).tobytes(), (fs, n_frames)
        assert kept_bytes() <= _SCRATCH_BYTES


def test_threads_at_once_give_their_reference_bytes():
    # More threads than cores, switching often: a thread that used
    # another's arrays would get another buffer's bytes.
    shapes = [(16000, 298), (22050, B + 1), (8000, B), (44100, B - 1)]
    bufs = [random_buffer(fs, n) for fs, n in shapes]
    want = [cepstra_reference.extract_cepstra(buf).tobytes() for buf in bufs]
    start = threading.Barrier(len(bufs))
    got = [[] for _ in bufs]

    def featurise(i):
        start.wait()
        for _ in range(20):
            got[i].append(extract_cepstra(bufs[i]).tobytes())

    workers = [threading.Thread(target=featurise, args=(i,)) for i in range(len(bufs))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(worker.is_alive() for worker in workers)
    assert got == [[w] * 20 for w in want]


def test_a_repeat_call_traces_less_than_the_first():
    # The first call in a thread allocates the three arrays it keeps (1.52
    # MB for 3 s at 16 kHz); a repeat reuses them.
    buf = random_buffer(16000, 298)
    extract_cepstra(buf)  # fills the filterbank and window caches
    first, repeat = in_a_new_thread(
        lambda: [traced_peak(extract_cepstra, buf, warm=False) for _ in range(2)]
    )
    assert repeat <= first - 1.5e6


def test_a_buffer_past_the_bound_keeps_at_most_the_bound():
    small, long = random_buffer(16000, 298), AudioBuffer(np.ones(_SCRATCH_BYTES // 8), 16000)

    def featurise_both():
        extract_cepstra(small)
        kept = kept_bytes()
        got = extract_cepstra(long)
        return kept, kept_bytes(), got

    kept_small, kept_after_long, got = in_a_new_thread(featurise_both)
    assert 0 < kept_small == kept_after_long <= _SCRATCH_BYTES
    assert got.tobytes() == cepstra_reference.extract_cepstra(long).tobytes()
