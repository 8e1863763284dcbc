"""Shared synthesis and measurement helpers for the test suite."""

import tracemalloc

import numpy as np

from voicemask import AudioBuffer, PitchAnalysis, StftConfig, stft
from voicemask.phase_vocoder import _plan

SR = 16000


def make_tone(freq, seconds=3.0, sr=SR, amp=0.3):
    t = np.arange(int(seconds * sr)) / sr
    return AudioBuffer(amp * np.sin(2.0 * np.pi * freq * t), sr)


def make_vowel(f0=120.0, seconds=3.0, sr=SR, amp=0.3):
    """Stationary vowel-like signal: harmonics shaped by three resonances."""
    formants = ((730.0, 90.0, 1.0), (1090.0, 120.0, 0.7), (2440.0, 170.0, 0.4))
    t = np.arange(int(seconds * sr)) / sr
    x = np.zeros_like(t)
    for k in range(1, int(7600.0 / f0) + 1):
        f = k * f0
        gain = sum(g / np.sqrt(1.0 + ((f - fc) / (bw / 2.0)) ** 2) for fc, bw, g in formants)
        gain /= np.sqrt(1.0 + (f / 900.0) ** 2)
        x += gain * np.cos(2.0 * np.pi * f * t + 1.7 * k * k)
    return AudioBuffer(amp * x / np.max(np.abs(x)), sr)


def pitch_analysis(frames, partitions, inst_freq, cfg):
    """A PitchAnalysis of given frames, partitions (None where peak-free) and inst_freq rows."""
    frames = np.array(frames, dtype=np.complex128)
    inst_freq = np.array(inst_freq, dtype=np.float64)
    regions = np.concatenate([p for p in partitions if p is not None] + [np.empty((0, 3), np.intp)])
    offsets = np.cumsum([0] + [0 if p is None else len(p) for p in partitions])
    n_samples = (len(frames) - 1) * cfg.hop + cfg.frame_len
    return PitchAnalysis(frames, inst_freq, regions, offsets, cfg, SR, n_samples)


def frame_partitions(analysis):
    """Frame t's rows regions[offsets[t]:offsets[t + 1]] of an analysis, or None if peak-free."""
    bounds = analysis.offsets.tolist()
    return [analysis.regions[a:b] if b > a else None for a, b in zip(bounds[:-1], bounds[1:])]


def planned_tracks(analysis, spec):
    """Each frame's planned track angles by destination bin.

    Of equal destinations in a frame the last peak's angle is kept, as a
    dict built in peak order keeps it. The loose variant plans no angles,
    so each of its frames gets None.
    """
    angles, shifts, _, _ = _plan(spec, analysis)
    assert (angles is None) == (spec.variant == "loose")
    if angles is None:
        return [None] * len(analysis.frames)
    dests = analysis.regions[:, 0] + shifts
    bounds = analysis.offsets.tolist()
    return [
        {int(d): float(a) for d, a in zip(dests[lo:hi], angles[lo:hi])}
        for lo, hi in zip(bounds[:-1], bounds[1:])
    ]


def traced_peak(fn, *args, warm=True):
    """Peak traced memory of one call of fn(*args), the output included.

    With warm, fn is called once untraced first, to fill its caches.
    """
    if warm:
        fn(*args)
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def interior_snr_db(reference, produced, margin=1024):
    """SNR over the interior, excluding `margin` samples at each edge."""
    n = min(len(reference), len(produced))
    ref = np.asarray(reference)[margin : n - margin]
    err = ref - np.asarray(produced)[margin : n - margin]
    return 10.0 * np.log10(np.sum(ref**2) / np.sum(err**2))


def dominant_freq(samples, sr=SR):
    """Frequency of the largest full-signal FFT magnitude peak."""
    spectrum = np.abs(np.fft.rfft(samples))
    return float(np.argmax(spectrum)) * sr / len(samples)


def band_log_distortion(reference, produced, sr=SR, n_bands=30, fmin=100.0, fmax=5000.0):
    """Mean |dB| difference of band-averaged power spectra.

    Bands are log-spaced; power spectra are time-averaged over STFT frames.
    Independent measurement path: the comparison never reuses the transform
    under test.
    """

    def band_powers(samples):
        sg = stft(AudioBuffer(samples, sr), StftConfig())
        power = np.mean(np.abs(sg.frames) ** 2, axis=0)
        freqs = np.arange(sg.n_bins) * sr / sg.config.frame_len
        edges = np.geomspace(fmin, fmax, n_bands + 1)
        return np.array(
            [power[(freqs >= lo) & (freqs < hi)].mean() for lo, hi in zip(edges, edges[1:])]
        )

    p_ref = band_powers(np.asarray(reference))
    p_out = band_powers(np.asarray(produced))
    return float(np.mean(np.abs(10.0 * np.log10(p_ref / p_out))))
