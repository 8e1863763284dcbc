"""Frozen whole-utterance synthetic renderer, kept as a test oracle.

This is the straightforward form of ``corpus._render_utterance``: it
builds every harmonic's flutter track, with the spectral-tilt factor, for
the whole utterance as one (n_harm, n_samples) matrix, then slices it per
segment. The library builds each segment's tracks and harmonic grid in
buffers of that segment's size; the tests in ``test_synth_oracle.py``
require byte-equal samples and the same random draws from both.
"""

import numpy as np

from voicemask.corpus import (
    _AM_WOBBLE,
    _CROSSFADE_S,
    _MAX_HARMONIC_HZ,
    _NOISE_AM,
    _NOISE_CORNER_HZ,
    _NOISE_LEVEL,
    _SEGMENTS_PER_UTT,
    _SOURCE_TILT_HZ,
    _SYNTH_RATE,
    _SYNTH_SECONDS,
    _TILT_RATE_HZ,
    _highband_noise,
    _resonance_envelope,
    _smooth_noise,
)


def render_utterance(
    rng, f0: float, profiles, gender: str, noise_gain: float, emphasis, wobble: float,
    flutter: float, tilt_wobble: float,
) -> np.ndarray:
    fs = _SYNTH_RATE
    total = int(_SYNTH_SECONDS * fs)
    fade = int(_CROSSFADE_S * fs)

    # Segment plan: cycle the vowel profiles in fixed order; the speaker's
    # per-profile emphasis tilts the dwell times, small jitter per utterance.
    order = [profiles[i % len(profiles)] for i in range(_SEGMENTS_PER_UTT)]
    weights = np.array([emphasis[i % len(profiles)] for i in range(_SEGMENTS_PER_UTT)])
    weights = weights * (1.0 + 0.04 * rng.standard_normal(_SEGMENTS_PER_UTT))
    bounds = np.round(np.cumsum(weights) / weights.sum() * total).astype(int)
    starts = np.concatenate([[0], bounds[:-1]])

    f0_track = f0 * (1.0 + wobble * _smooth_noise(rng, total, 18.0, fs))
    phase = 2.0 * np.pi * np.cumsum(f0_track) / fs

    n_harm = int(_MAX_HARMONIC_HZ / (f0 * (1.0 + 2.0 * wobble)))
    harmonic_phases = rng.uniform(0.0, 2.0 * np.pi, n_harm)
    k = np.arange(1, n_harm + 1)

    # slow independent gain flutter per harmonic
    n_ctrl = max(2, int(np.ceil(_SYNTH_SECONDS * 7.0)) + 1)
    coarse = rng.standard_normal((n_harm, n_ctrl))
    t_pos = np.linspace(0.0, n_ctrl - 1.0, total)
    left = np.minimum(t_pos.astype(np.intp), n_ctrl - 2)
    frac = t_pos - left
    flutter_tracks = 1.0 + flutter * (
        coarse[:, left] * (1.0 - frac) + coarse[:, left + 1] * frac
    )

    # slow spectral-tilt wobble: smooth, band-correlated level variation
    if tilt_wobble > 0.0:
        slope = tilt_wobble * _smooth_noise(rng, total, _TILT_RATE_HZ, fs)
        log_freq = np.log(k * f0 / 1000.0)
        flutter_tracks *= np.exp(np.outer(log_freq, slope))

    voiced = np.zeros(total)
    window_cache = {}
    for seg, (start, end) in enumerate(zip(starts, bounds)):
        lo = max(0, start - fade // 2)
        hi = min(total, end + fade // 2)
        formants = order[seg]
        amps = _resonance_envelope(k * f0, formants, _SOURCE_TILT_HZ[gender])
        chunk = np.cos(np.outer(k, phase[lo:hi]) + harmonic_phases[:, None])
        segment = np.einsum("k,kl,kl->l", amps, flutter_tracks[:, lo:hi], chunk)
        length = hi - lo
        if length not in window_cache:
            ramp = np.ones(length)
            edge = np.minimum(fade, length // 2)
            if edge > 0:
                shape = 0.5 - 0.5 * np.cos(np.pi * np.arange(edge) / edge)
                ramp[:edge] = shape
                ramp[length - edge :] = shape[::-1]
            window_cache[length] = ramp
        voiced[lo:hi] += segment * window_cache[length]

    voiced *= 1.0 + _AM_WOBBLE[gender] * _smooth_noise(rng, total, 8.0, fs)
    rms = np.sqrt(np.mean(voiced**2))
    noise = _highband_noise(rng, total, _NOISE_CORNER_HZ[gender], fs)
    noise *= 1.0 + _NOISE_AM[gender] * _smooth_noise(rng, total, 6.0, fs)
    signal = voiced + noise * _NOISE_LEVEL[gender] * noise_gain * rms
    return signal * (0.35 / np.max(np.abs(signal)))
