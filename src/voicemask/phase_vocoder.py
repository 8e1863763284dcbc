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


def _work_span(ratio: float, n: int) -> tuple[int, int]:
    """Offset and length of a work frame that holds every translated bin.

    Region shifts are monotone in the peak bin, so no region moves further
    than one peaking at the top bin n-1: bins land in [-offset, length-offset).
    """
    edge = int(np.floor((ratio - 1.0) * (n - 1) + 0.5))
    return max(0, -edge), n + abs(edge)


def _bin_translation(partition: np.ndarray, ratio: float, slots: np.ndarray):
    """Region shifts, region lengths and every bin's slot in the work frame."""
    # round-half-up keeps shifts deterministic at exact .5 boundaries
    shifts = np.floor((ratio - 1.0) * partition[:, 0] + 0.5).astype(np.intp)
    lengths = partition[:, 2] - partition[:, 1] + 1
    return shifts, lengths, slots + np.repeat(shifts, lengths)


def _scatter(values: np.ndarray, targets: np.ndarray, offset: int, size: int) -> np.ndarray:
    """Sum translated bin values into a work frame and return its spectrum part.

    Colliding regions add up in region order; bins beyond the spectrum land in
    the margins of the work frame and are dropped with them.
    """
    work = np.zeros(size, dtype=np.complex128)
    np.add.at(work, targets, values)
    return work[offset : offset + values.size]


def shift_coefficients(frame: np.ndarray, partition: np.ndarray, ratio: float) -> np.ndarray:
    """Translate each region by round((ratio-1) * peak) bins.

    Translated bins falling outside the spectrum are discarded; regions
    landing on the same destination bin have their complex values summed.
    """
    bins = np.asarray(frame, dtype=np.complex128)
    offset, size = _work_span(ratio, bins.size)
    slots = np.arange(bins.size) + offset
    _, _, targets = _bin_translation(np.asarray(partition, dtype=np.intp), ratio, slots)
    return _scatter(bins, targets, offset, size)


# Live track destinations are kept between two sentinels, so a nearest-track
# search never runs off either end; a sentinel is never within tolerance.
_FAR = 1 << 40
_BELOW, _ABOVE, _NO_ANGLE = np.array([-_FAR]), np.array([_FAR]), np.array([np.nan])
_NO_TRACKS = np.array([-_FAR, _FAR]), np.array([np.nan, np.nan])


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
        self._offset, self._work_size = _work_span(spec.ratio, cfg.n_bins)
        self._slots = np.arange(cfg.n_bins) + self._offset
        self._peak_step = self.hop * (spec.ratio - 1.0)
        self._bin_step = self.hop * spec.ratio
        self._free_advance = self._bin_step * self.omega
        self._prev_analysis_phase = None
        self._started = False
        # Synthesis phases of the last frame, or None while they are still to
        # be taken from _synth_frame, the last scattered output; only a later
        # peak-free or loose frame reads them.
        self._synth_phase = None
        self._synth_frame = None
        self._set_tracks(*_NO_TRACKS)

    @property
    def track_angles(self) -> dict[int, float]:
        """Accumulated rotation angle per live track, keyed by destination bin."""
        dests, angles = self._known_dests[1:-1], self._known_angles[1:-1]
        return {int(d): float(a) for d, a in zip(dests, angles)}

    def _match_tracks(self, dests: np.ndarray):
        """Previous-track angle for each destination, NaN where unmatched."""
        # Track i is nearest (ties to the lower bin) to every d with
        # sum[i-1] < 2d <= sum[i], where sum[i] adds tracks i and i+1.
        nearest = self._pair_sums.searchsorted(dests + dests)
        dist = np.abs(self._known_dests[nearest] - dests)
        return np.where(dist <= _TRACK_MATCH_TOLERANCE, self._known_angles[nearest], np.nan)

    def _set_tracks(self, known_dests: np.ndarray, known_angles: np.ndarray) -> None:
        self._known_dests, self._known_angles = known_dests, known_angles
        self._pair_sums = known_dests[:-1] + known_dests[1:]

    def _store_tracks(self, dests: np.ndarray, angles: np.ndarray) -> None:
        # dests come in peak order and are already sorted (see README)
        known = np.concatenate((_BELOW, dests, _ABOVE))
        last = known[1:-1] != known[2:]
        if np.count_nonzero(last) < last.size:  # duplicates: keep the last of each
            dests, angles = dests[last], angles[last]
            known = np.concatenate((_BELOW, dests, _ABOVE))
        self._set_tracks(known, np.concatenate((_NO_ANGLE, angles, _NO_ANGLE)))

    def _last_synth_phase(self) -> np.ndarray:
        if self._synth_phase is None:
            self._synth_phase = np.angle(self._synth_frame)
        return self._synth_phase

    def _defer_phase(self, out: np.ndarray) -> np.ndarray:
        """Keep a scattered output to take its phases from later; return a copy."""
        self._synth_phase, self._synth_frame = None, out
        return out.copy()

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
        started, self._started = self._started, True

        # On the first frame, synthesis phases equal analysis phases.
        if partition is None:
            if not started:
                self._synth_phase = np.angle(frame)
                return frame
            theta = self._last_synth_phase() + self._free_advance
            self._set_tracks(*_NO_TRACKS)
            self._synth_phase = theta
            return np.abs(frame) * np.exp(1j * theta)

        partition = np.asarray(partition, dtype=np.intp)
        shifts, lengths, targets = _bin_translation(partition, self.spec.ratio, self._slots)
        peaks = partition[:, 0]
        dests = peaks + shifts
        offset, size = self._offset, self._work_size

        if not started:
            self._store_tracks(dests, np.zeros(dests.size))
            return self._defer_phase(_scatter(frame, targets, offset, size))
        if self.spec.variant == "identity-locked":
            prev_angles = self._match_tracks(dests)
            increments = self._peak_step * inst_freq[peaks]
            angles = np.where(np.isnan(prev_angles), 0.0, prev_angles + increments)
            rotation = np.repeat(np.exp(1j * angles), lengths)
            self._store_tracks(dests, angles)
            return self._defer_phase(_scatter(frame * rotation, targets, offset, size))
        shifted = _scatter(frame, targets, offset, size)
        target = np.empty(size)
        spectrum = target[offset : offset + frame.size]
        spectrum[:] = inst_freq
        target[targets] = inst_freq  # region order: later regions win collisions
        theta = self._last_synth_phase() + self._bin_step * spectrum
        self._set_tracks(*_NO_TRACKS)
        self._synth_phase = theta
        return np.abs(shifted) * np.exp(1j * theta)


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
