"""Bytes of ``extract_cepstra`` against the frozen whole-utterance form.

The library windows and transforms ``_FEATURE_BLOCK`` frames at a time, so
the cases put the frame count on both sides of one and several blocks, at
the sample rates whose frames need 256- to 2048-point transforms.
"""

import tracemalloc

import numpy as np
import pytest

from voicemask import AudioBuffer, extract_cepstra
from voicemask.errors import TooShort
from voicemask.speaker_id import _FEATURE_BLOCK as B

import cepstra_reference

RATES = [8000, 16000, 22050, 44100]


def framing(fs):
    """Samples per 25 ms feature frame and per 10 ms hop at rate fs."""
    return int(round(25.0 * fs / 1000.0)), int(round(10.0 * fs / 1000.0))


@pytest.mark.parametrize("n_frames", [1, B - 1, B, B + 1, 3 * B + 5])
@pytest.mark.parametrize("fs", RATES)
def test_equals_whole_utterance_extraction(fs, n_frames):
    frame, hop = framing(fs)
    rng = np.random.default_rng([fs, n_frames])
    # A partial hop of trailing samples that no frame reaches.
    n = frame + (n_frames - 1) * hop + int(rng.integers(hop))
    buf = AudioBuffer(rng.standard_normal(n), fs)
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
    extract_cepstra(buf)  # fills the filterbank cache
    tracemalloc.start()
    try:
        extract_cepstra(buf)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.2e6
