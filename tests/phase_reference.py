"""Frozen per-frame phase propagator, kept as a test oracle.

This is the straightforward form of ``phase_vocoder.PhasePropagator``: it
filters translated bins with a mask, gathers them by region, sorts the new
tracks and takes the synthesis phase of every frame. The library's
propagator computes the same frames with fewer array operations; the
property tests in ``test_propagation_oracle.py`` require byte-equal
output and track angles from both.
"""

import numpy as np

TRACK_MATCH_TOLERANCE = 4


def princarg(phase):
    return phase - 2.0 * np.pi * np.ceil((phase - np.pi) / (2.0 * np.pi))


def bin_frequencies(n_bins):
    return np.pi * np.arange(n_bins) / (n_bins - 1)


def instantaneous_freq(phase, prev_phase, hop):
    omega = bin_frequencies(phase.shape[-1])
    return omega + princarg(phase - prev_phase - hop * omega) / hop


def bin_translation(partition, ratio, n):
    shifts = np.floor((ratio - 1.0) * partition[:, 0] + 0.5).astype(np.intp)
    lengths = partition[:, 2] - partition[:, 1] + 1
    bin_region = np.repeat(np.arange(partition.shape[0]), lengths)
    src = np.arange(n)
    dst = src + shifts[bin_region]
    keep = (dst >= 0) & (dst < n)
    return src[keep], dst[keep], bin_region[keep], shifts


def scatter(values, dst, n):
    out = np.zeros(n, dtype=np.complex128)
    np.add.at(out, dst, values)
    return out


def shift_coefficients(frame, partition, ratio):
    bins = np.asarray(frame, dtype=np.complex128)
    src, dst, _, _ = bin_translation(np.asarray(partition, dtype=np.intp), ratio, bins.size)
    return scatter(bins[src], dst, bins.size)


class ReferencePropagator:
    """Same constructor, ``advance`` and ``track_angles`` as PhasePropagator."""

    def __init__(self, spec, cfg):
        self.spec = spec
        self.hop = cfg.hop
        self.omega = bin_frequencies(cfg.n_bins)
        self._prev_analysis_phase = None
        self._synth_phase = None
        self._track_dests = np.empty(0, dtype=np.intp)
        self._track_angles = np.empty(0)

    @property
    def track_angles(self):
        return {int(d): float(a) for d, a in zip(self._track_dests, self._track_angles)}

    def _match_tracks(self, dests):
        matched = np.full(dests.size, np.nan)
        if self._track_dests.size == 0:
            return matched
        idx = np.searchsorted(self._track_dests, dests)
        left = np.clip(idx - 1, 0, self._track_dests.size - 1)
        right = np.clip(idx, 0, self._track_dests.size - 1)
        d_left = np.abs(self._track_dests[left] - dests)
        d_right = np.abs(self._track_dests[right] - dests)
        use_left = d_left <= d_right  # ties resolve to the lower bin
        chosen = np.where(use_left, left, right)
        dist = np.where(use_left, d_left, d_right)
        ok = dist <= TRACK_MATCH_TOLERANCE
        matched[ok] = self._track_angles[chosen[ok]]
        return matched

    def _store_tracks(self, dests, angles):
        order = np.argsort(dests, kind="stable")
        dests, angles = dests[order], angles[order]
        if dests.size > 1:  # collapse duplicate destinations, keeping the last
            keep = np.concatenate([dests[1:] != dests[:-1], [True]])
            dests, angles = dests[keep], angles[keep]
        self._track_dests, self._track_angles = dests, angles

    def advance(self, frame, partition, inst_freq=None):
        frame = np.asarray(frame, dtype=np.complex128)
        if inst_freq is None:
            phase = np.angle(frame)
            if self._prev_analysis_phase is not None:
                inst_freq = instantaneous_freq(phase, self._prev_analysis_phase, self.hop)
            self._prev_analysis_phase = phase
        ratio = self.spec.ratio
        n = frame.size

        if partition is None:
            if self._synth_phase is None:
                self._synth_phase = np.angle(frame)
                return frame
            theta = self._synth_phase + self.hop * ratio * self.omega
            out = np.abs(frame) * np.exp(1j * theta)
            self._store_tracks(np.empty(0, dtype=np.intp), np.empty(0))
            self._synth_phase = theta
            return out

        partition = np.asarray(partition, dtype=np.intp)
        src, dst, bin_region, shifts = bin_translation(partition, ratio, n)
        peaks = partition[:, 0]
        dests = peaks + shifts

        if self._synth_phase is None:
            out = scatter(frame[src], dst, n)
            self._store_tracks(dests, np.zeros(dests.size))
            self._synth_phase = np.angle(out)
        elif self.spec.variant == "identity-locked":
            prev_angles = self._match_tracks(dests)
            increments = self.hop * (ratio - 1.0) * inst_freq[peaks]
            angles = np.where(np.isnan(prev_angles), 0.0, prev_angles + increments)
            out = scatter(frame[src] * np.exp(1j * angles)[bin_region], dst, n)
            self._store_tracks(dests, angles)
            self._synth_phase = np.angle(out)
        else:
            shifted = scatter(frame[src], dst, n)
            target = inst_freq.copy()
            target[dst] = inst_freq[src]  # region order: later regions win collisions
            theta = self._synth_phase + self.hop * ratio * target
            out = np.abs(shifted) * np.exp(1j * theta)
            self._store_tracks(np.empty(0, dtype=np.intp), np.empty(0))
            self._synth_phase = theta
        return out
