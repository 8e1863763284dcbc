"""Frozen whole-utterance cepstral feature extraction, kept as a test oracle.

This is the straightforward form of ``speaker_id.extract_cepstra``: it
windows every frame of the utterance at once and lets ``rfft`` zero-pad the
whole stack to ``n_fft``. The library windows and transforms a block of
frames at a time into one zero-padded buffer; ``test_cepstra_oracle.py``
requires bit-equal features, and the same errors, from both.
"""

import numpy as np
import scipy.fft

from voicemask.errors import TooShort
from voicemask.speaker_id import _mel_filterbank


def extract_cepstra(buf):
    fs = buf.sample_rate
    frame = int(round(25.0 * fs / 1000.0))
    hop = int(round(10.0 * fs / 1000.0))
    x = buf.samples
    if x.size < frame:
        raise TooShort(f"need at least {frame} samples, got {x.size}")

    emphasized = np.concatenate([x[:1], x[1:] - 0.97 * x[:-1]])
    frames = np.lib.stride_tricks.sliding_window_view(emphasized, frame)[::hop]
    window = 0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(frame) / frame)

    n_fft = 1 << (frame - 1).bit_length()
    spectrum = np.abs(np.fft.rfft(frames * window, n=n_fft, axis=1))
    energies = spectrum @ _mel_filterbank(24, n_fft, fs).T
    log_energies = np.log(np.maximum(energies, 1e-10))
    cepstra = scipy.fft.dct(log_energies, type=2, norm="ortho", axis=1)
    return cepstra[:, 1:13]
