"""Pitch-scale modification in the STFT domain.

Each frame is processed in four stages: spectral peak detection, partition
into regions of influence, integer-bin translation of every region by a
peak-proportional shift, and phase propagation across frames. Two propagation
variants are provided: ``identity-locked`` rotates each region rigidly by an
accumulated per-track angle, ``loose`` re-accumulates every bin's phase
independently.

Peaks, regions and instantaneous frequencies depend on the analysis spectrum
alone, not on the ratio, so ``analyse_pitch`` computes them once per buffer
and ``shift_analysed`` turns that analysis into a shifted buffer at any ratio.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import EmptyPeakSet
from .signal_core import (
    AudioBuffer,
    Spectrogram,
    StftConfig,
    bin_frequencies,
    resynthesize,
    stft,
)

__all__ = [
    "VARIANTS",
    "PitchShiftSpec",
    "PitchAnalysis",
    "detect_peaks",
    "regions_of_influence",
    "shift_coefficients",
    "PhasePropagator",
    "analyse_pitch",
    "shift_analysed",
    "pitch_shift",
    "princarg",
]

VARIANTS = ("identity-locked", "loose")

_TRACK_MATCH_TOLERANCE = 4  # bins, destination-space distance for track continuity


@dataclass(frozen=True)
class PitchShiftSpec:
    """Pitch ratio (output/input), phase-propagation variant, peak neighborhood."""

    ratio: float
    variant: str = "identity-locked"
    neighbor_span: int = 2

    def __post_init__(self):
        if not 0.25 <= self.ratio <= 4.0:
            raise ValueError(f"ratio must be in [0.25, 4.0], got {self.ratio}")
        if self.variant not in VARIANTS:
            raise ValueError(f"variant must be one of {VARIANTS}, got {self.variant!r}")
        if self.neighbor_span not in (2, 4):
            raise ValueError(f"neighbor_span must be 2 or 4, got {self.neighbor_span}")
        object.__setattr__(self, "ratio", float(self.ratio))


def princarg(phase):
    """Wrap phase to the principal range (-pi, pi]."""
    return phase - 2.0 * np.pi * np.ceil((phase - np.pi) / (2.0 * np.pi))


def detect_peaks(frame: np.ndarray, neighbor_span: int = 2) -> np.ndarray:
    """Indices of bins whose magnitude strictly exceeds all neighbors in span.

    Only interior bins with a complete neighborhood qualify; the result is a
    strictly increasing int array (possibly empty).
    """
    if neighbor_span not in (2, 4):
        raise ValueError(f"neighbor_span must be 2 or 4, got {neighbor_span}")
    mag = np.abs(np.asarray(frame))
    n = mag.size
    half = neighbor_span // 2
    if n < 2 * half + 1:
        return np.empty(0, dtype=np.intp)
    core = mag[half : n - half]
    is_peak = np.ones(n - 2 * half, dtype=bool)
    for off in range(1, half + 1):
        is_peak &= core > mag[half - off : n - half - off]
        is_peak &= core > mag[half + off : n - half + off]
    return np.flatnonzero(is_peak) + half


def regions_of_influence(frame: np.ndarray, peaks: np.ndarray) -> np.ndarray:
    """Partition all bins into contiguous regions, one per peak.

    The boundary between consecutive peaks sits at the lowest-magnitude bin
    strictly between them (ties to the lower index) and closes the left
    region. Returns an int array of (peak, lo, hi) rows covering every bin.
    """
    peaks = np.asarray(peaks, dtype=np.intp)
    if peaks.size == 0:
        raise EmptyPeakSet("cannot partition a frame with no peaks")
    mag = np.abs(np.asarray(frame))
    n = mag.size
    regions = np.empty((peaks.size, 3), dtype=np.intp)
    regions[:, 0] = peaks
    if peaks.size > 1:
        # Lowest-magnitude bin strictly between consecutive peaks, first
        # occurrence on ties. Interleaved reduceat bounds give the per-gap
        # minima; the segments between gaps are computed and discarded.
        starts = peaks[:-1] + 1
        ends = peaks[1:]
        lens = ends - starts
        bounds = np.empty(2 * starts.size, dtype=np.intp)
        bounds[0::2] = starts
        bounds[1::2] = ends
        gap_min = np.minimum.reduceat(mag, bounds)[0::2]
        seg = np.repeat(np.arange(lens.size), lens)
        offsets = np.arange(lens.sum()) - np.repeat(np.cumsum(lens) - lens, lens)
        positions = np.repeat(starts, lens) + offsets
        hit = np.flatnonzero(mag[positions] == gap_min[seg])
        first = np.searchsorted(seg[hit], np.arange(lens.size))
        boundaries = positions[hit[first]]
        regions[:-1, 2] = boundaries
        regions[1:, 1] = boundaries + 1
    regions[0, 1] = 0
    regions[-1, 2] = n - 1
    return regions


def _instantaneous_freq(phase: np.ndarray, prev_phase: np.ndarray, hop: int) -> np.ndarray:
    """Per-bin frequency from the phase advance over one hop (frames along the last axis)."""
    omega = bin_frequencies(phase.shape[-1])
    return omega + princarg(phase - prev_phase - hop * omega) / hop


def _bin_translation(partition: np.ndarray, ratio: float, n: int):
    """Per-bin source/destination index arrays for a region translation."""
    # round-half-up keeps shifts deterministic at exact .5 boundaries
    shifts = np.floor((ratio - 1.0) * partition[:, 0] + 0.5).astype(np.intp)
    lengths = partition[:, 2] - partition[:, 1] + 1
    bin_region = np.repeat(np.arange(partition.shape[0]), lengths)
    src = np.arange(n)
    dst = src + shifts[bin_region]
    keep = (dst >= 0) & (dst < n)
    return src[keep], dst[keep], bin_region[keep], shifts


def _scatter(values: np.ndarray, dst: np.ndarray, n: int) -> np.ndarray:
    """Sum translated bin values into an n-bin frame; colliding regions add up."""
    out = np.zeros(n, dtype=np.complex128)
    np.add.at(out, dst, values)
    return out


def shift_coefficients(frame: np.ndarray, partition: np.ndarray, ratio: float) -> np.ndarray:
    """Translate each region by round((ratio-1) * peak) bins.

    Translated bins falling outside the spectrum are discarded; regions
    landing on the same destination bin have their complex values summed.
    """
    bins = np.asarray(frame, dtype=np.complex128)
    src, dst, _, _ = _bin_translation(np.asarray(partition, dtype=np.intp), ratio, bins.size)
    return _scatter(bins[src], dst, bins.size)


class PhasePropagator:
    """Per-utterance phase state; call advance() once per frame in time order.

    Tracks are keyed by destination peak bin and matched frame-to-frame by
    nearest destination-bin distance within a 4-bin tolerance (ties to the
    lower bin); unmatched new peaks start from the analysis phase of the
    current frame.
    """

    def __init__(self, spec: PitchShiftSpec, cfg: StftConfig):
        self.spec = spec
        self.hop = cfg.hop
        self.omega = bin_frequencies(cfg.n_bins)
        self._prev_analysis_phase = None
        self._synth_phase = None
        self._track_dests = np.empty(0, dtype=np.intp)
        self._track_angles = np.empty(0)

    @property
    def track_angles(self) -> dict[int, float]:
        """Accumulated rotation angle per live track, keyed by destination bin."""
        return {int(d): float(a) for d, a in zip(self._track_dests, self._track_angles)}

    def _match_tracks(self, dests: np.ndarray):
        """Previous-track angle for each destination, NaN where unmatched."""
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
        ok = dist <= _TRACK_MATCH_TOLERANCE
        matched[ok] = self._track_angles[chosen[ok]]
        return matched

    def _store_tracks(self, dests: np.ndarray, angles: np.ndarray) -> None:
        order = np.argsort(dests, kind="stable")
        dests, angles = dests[order], angles[order]
        if dests.size > 1:  # collapse duplicate destinations, keeping the last
            keep = np.concatenate([dests[1:] != dests[:-1], [True]])
            dests, angles = dests[keep], angles[keep]
        self._track_dests, self._track_angles = dests, angles

    def advance(
        self, frame: np.ndarray, partition: np.ndarray | None, inst_freq: np.ndarray | None = None
    ) -> np.ndarray:
        """Produce the synthesis frame for one analysis frame.

        ``partition`` is None for unvoiced (peak-free) frames, which pass
        through unshifted with phases advanced by hop * ratio * omega.
        ``inst_freq`` is the frame's per-bin instantaneous frequency, as a
        PitchAnalysis holds it; when None it is measured from the phase
        advance since the previous frame. Give it for every frame or none.
        """
        frame = np.asarray(frame, dtype=np.complex128)
        if inst_freq is None:
            phase = np.angle(frame)
            if self._prev_analysis_phase is not None:
                inst_freq = _instantaneous_freq(phase, self._prev_analysis_phase, self.hop)
            self._prev_analysis_phase = phase
        ratio = self.spec.ratio
        n = frame.size

        # On the first frame, synthesis phases equal analysis phases.
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
        src, dst, bin_region, shifts = _bin_translation(partition, ratio, n)
        peaks = partition[:, 0]
        dests = peaks + shifts

        if self._synth_phase is None:
            out = _scatter(frame[src], dst, n)
            self._store_tracks(dests, np.zeros(dests.size))
            self._synth_phase = np.angle(out)
        elif self.spec.variant == "identity-locked":
            prev_angles = self._match_tracks(dests)
            increments = self.hop * (ratio - 1.0) * inst_freq[peaks]
            angles = np.where(np.isnan(prev_angles), 0.0, prev_angles + increments)
            out = _scatter(frame[src] * np.exp(1j * angles)[bin_region], dst, n)
            self._store_tracks(dests, angles)
            self._synth_phase = np.angle(out)
        else:
            shifted = _scatter(frame[src], dst, n)
            target = inst_freq.copy()
            target[dst] = inst_freq[src]  # region order: later regions win collisions
            theta = self._synth_phase + self.hop * ratio * target
            out = np.abs(shifted) * np.exp(1j * theta)
            self._store_tracks(np.empty(0, dtype=np.intp), np.empty(0))
            self._synth_phase = theta
        return out


@dataclass(frozen=True)
class PitchAnalysis:
    """Ratio-independent analysis of one buffer, shared by its pitch shifts.

    ``frames`` are the STFT frames. Row t of ``inst_freq`` is the per-bin
    instantaneous frequency of frame t, measured from the phase advance
    since frame t-1; row 0 has no predecessor and holds the bin centres.
    ``partitions`` holds each frame's regions of influence, or None for a
    peak-free frame, found with ``neighbor_span``. All arrays are read-only.
    """

    frames: np.ndarray
    inst_freq: np.ndarray
    partitions: tuple
    neighbor_span: int
    config: StftConfig
    sample_rate: int
    n_samples: int

    def __post_init__(self):
        for array in (self.frames, self.inst_freq, *self.partitions):
            if array is not None:
                array.setflags(write=False)


def analyse_pitch(
    buf: AudioBuffer, cfg: StftConfig = StftConfig(), neighbor_span: int = 2
) -> PitchAnalysis:
    """Analyse a buffer once for pitch shifting at any ratio."""
    frames = stft(buf, cfg).frames
    partitions = []
    for mag in np.abs(frames):
        peaks = detect_peaks(mag, neighbor_span)
        partitions.append(regions_of_influence(mag, peaks) if peaks.size else None)
    phase = np.angle(frames)
    inst_freq = np.empty_like(phase)
    inst_freq[0] = bin_frequencies(cfg.n_bins)
    inst_freq[1:] = _instantaneous_freq(phase[1:], phase[:-1], cfg.hop)
    return PitchAnalysis(
        frames, inst_freq, tuple(partitions), neighbor_span, cfg, buf.sample_rate, len(buf)
    )


def shift_analysed(analysis: PitchAnalysis, spec: PitchShiftSpec) -> AudioBuffer:
    """Shift the pitch of an analysed buffer by spec.ratio; duration is preserved."""
    if spec.neighbor_span != analysis.neighbor_span:
        raise ValueError(
            f"analysis found peaks with neighbor_span {analysis.neighbor_span}, "
            f"spec asks for {spec.neighbor_span}"
        )
    prop = PhasePropagator(spec, analysis.config)
    out_frames = np.empty_like(analysis.frames)
    for t, partition in enumerate(analysis.partitions):
        out_frames[t] = prop.advance(analysis.frames[t], partition, analysis.inst_freq[t])
    spectrogram = Spectrogram(out_frames, analysis.config, analysis.sample_rate)
    return resynthesize(spectrogram, analysis.n_samples)


def pitch_shift(buf: AudioBuffer, spec: PitchShiftSpec, cfg: StftConfig = StftConfig()) -> AudioBuffer:
    """Shift the pitch of a buffer by spec.ratio; duration is preserved."""
    return shift_analysed(analyse_pitch(buf, cfg, spec.neighbor_span), spec)
