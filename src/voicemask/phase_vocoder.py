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
``analyse_pitch`` finds the peaks and regions of all frames in one pass over
the frame stack; ``detect_peaks`` and ``regions_of_influence`` are its
one-frame case. ``_plan`` plans all frames of a shift at once; a
``PhasePropagator`` renders that plan and returns one synthesis frame per
``advance()``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import EmptyPeakSet, InvalidConfig, InvalidPeakSet
from .signal_core import (
    AudioBuffer,
    Spectrogram,
    StftConfig,
    _check_length,
    bin_frequencies,
    istft,
    stft,
)

__all__ = [
    "VARIANTS",
    "PitchShiftSpec",
    "PitchAnalysis",
    "detect_peaks",
    "regions_of_influence",
    "PhasePropagator",
    "analyse_pitch",
    "shift_analysed",
    "pitch_shift",
]

VARIANTS = ("identity-locked", "loose")

_TRACK_MATCH_TOLERANCE = 4  # bins, destination-space distance for track continuity


@dataclass(frozen=True)
class PitchShiftSpec:
    """Pitch ratio (output/input) and phase-propagation variant."""

    ratio: float
    variant: str = "identity-locked"

    def __post_init__(self):
        if not 0.25 <= self.ratio <= 4.0:
            raise InvalidConfig(f"ratio must be in [0.25, 4.0], got {self.ratio}")
        if self.variant not in VARIANTS:
            raise InvalidConfig(f"variant must be one of {VARIANTS}, got {self.variant!r}")
        object.__setattr__(self, "ratio", float(self.ratio))


def _peak_mask(mag: np.ndarray, neighbor_span: int) -> np.ndarray:
    """Mask of the bins whose magnitude strictly exceeds all neighbors in span.

    Works along the last axis, so every row of a frame stack is its own
    spectrum. Only interior bins with a complete neighborhood qualify.
    """
    if neighbor_span not in (2, 4):
        raise InvalidConfig(f"neighbor_span must be 2 or 4, got {neighbor_span}")
    n = mag.shape[-1]
    half = neighbor_span // 2
    is_peak = np.zeros(mag.shape, dtype=bool)
    if n >= 2 * half + 1:
        core = mag[..., half : n - half]
        inner = is_peak[..., half : n - half]
        inner[...] = True
        for off in range(1, half + 1):
            inner &= core > mag[..., half - off : n - half - off]
            inner &= core > mag[..., half + off : n - half + off]
    return is_peak


def _ranks(keys: np.ndarray, values: np.ndarray) -> np.ndarray:
    """``np.searchsorted(values, keys)`` of ascending keys, by one merge.

    Both arrays ascend, so a stable sort of keys-then-values merges two runs
    in one linear pass (numpy's stable sort is a timsort). A key lands after
    every value below it and before every equal one: its place in the merge
    less its index is its rank.
    """
    merged = np.concatenate((keys, values)).argsort(kind="stable")
    ranks = np.flatnonzero(merged < keys.size)
    ranks -= np.arange(keys.size)
    return ranks


def _partition(mag: np.ndarray, is_peak: np.ndarray) -> np.ndarray:
    """Regions of influence of the marked peaks of every row, in one pass.

    ``mag`` and ``is_peak`` are (n_frames, n_bins). Returns the (peak, lo, hi)
    rows frame after frame, each frame's in peak order and covering all its
    bins. Only two peaks of one row bound a gap, so no region crosses a frame.
    """
    n = mag.shape[1]
    peak_at = np.flatnonzero(is_peak)
    regions = np.empty((peak_at.size, 3), dtype=peak_at.dtype)
    peak, lo, hi = regions.T  # column views, filled in place
    np.remainder(peak_at, n, out=peak)
    lo.fill(0)
    hi.fill(n - 1)
    # A gap's first lowest bin is no larger than its neighbors inside the gap.
    mid = mag[:, 1:-1]
    candidate = np.zeros_like(is_peak)
    candidate[:, 1:-1] = (
        ((mid <= mag[:, :-2]) | is_peak[:, :-2]) & ((mid <= mag[:, 2:]) | is_peak[:, 2:])
    ) & ~is_peak[:, 1:-1]
    at = np.flatnonzero(candidate)
    closing = _ranks(at, peak_at)  # the peak that ends each candidate's gap
    row = peak_at // n
    in_gap = np.concatenate(([False], row[1:] == row[:-1], [False]))[closing]
    at, closing = at[in_gap], closing[in_gap]
    # Candidates come grouped by gap and in bin order: the boundary is the
    # first one that holds its group's lowest value, or the lone candidate.
    starts = np.flatnonzero(np.diff(closing, prepend=-1))
    if starts.size == at.size:
        bounds, right = at % n, closing
    else:
        values = mag.reshape(-1)[at]
        lowest = np.repeat(np.minimum.reduceat(values, starts), np.diff(starts, append=at.size))
        bounds = np.minimum.reduceat(np.where(values == lowest, at, mag.size), starts) % n
        right = closing[starts]
    hi[right - 1] = bounds
    lo[right] = bounds + 1
    return regions


def detect_peaks(frame: np.ndarray, neighbor_span: int = 2) -> np.ndarray:
    """Indices of bins whose magnitude strictly exceeds all neighbors in span.

    Only interior bins with a complete neighborhood qualify; the result is a
    strictly increasing int array (possibly empty).
    """
    return np.flatnonzero(_peak_mask(np.abs(np.asarray(frame)), neighbor_span))


def regions_of_influence(frame: np.ndarray, peaks: np.ndarray) -> np.ndarray:
    """Partition all bins into contiguous regions, one per peak.

    ``peaks`` must be bins of the frame, strictly increasing with at least
    one bin between neighbors (InvalidPeakSet otherwise). The boundary
    between consecutive peaks sits at the lowest-magnitude bin strictly
    between them (ties to the lower index) and closes the left region.
    Returns an int array of (peak, lo, hi) rows covering every bin.
    """
    peaks = np.asarray(peaks, dtype=np.intp)
    if peaks.size == 0:
        raise EmptyPeakSet("cannot partition a frame with no peaks")
    mag = np.abs(np.asarray(frame))
    if peaks.ndim != 1 or peaks[0] < 0 or peaks[-1] >= mag.size or np.any(np.diff(peaks) < 2):
        raise InvalidPeakSet(
            f"peaks must be increasing bins of 0..{mag.size - 1} with a bin between "
            f"neighbors, got {peaks.tolist()}"
        )
    is_peak = np.zeros(mag.size, dtype=bool)
    is_peak[peaks] = True
    return _partition(mag[None], is_peak[None])


def _translation(ratio: float, n: int) -> tuple[np.ndarray, int, int]:
    """Shift of a region peaking at each of n bins, and the work frame it needs.

    A region peaking at bin p moves by round((ratio - 1) * p) bins. The work
    frame holds every translated bin: shifts are monotone in the peak bin, so
    no region moves further than one peaking at the top bin n-1, and bins
    land in [-offset, size - offset). Returns (shifts, offset, size).
    """
    # round-half-up keeps shifts deterministic at exact .5 boundaries
    shifts = np.floor((ratio - 1.0) * np.arange(n) + 0.5).astype(np.intp)
    edge = int(shifts[-1])
    return shifts, max(0, -edge), n + abs(edge)


# Far-off sentinels bound the tracks, so a nearest-track search never runs
# off either end; a sentinel is never within tolerance.
_FAR = 1 << 60
# Frames rendered at once: a block's complex values (32 x 513 x 16 bytes for
# the default frame) stay in cache; larger blocks spill it and run slower.
_BLOCK_FRAMES = 32


def _match(peak_frame: np.ndarray, dests: np.ndarray, size: int) -> np.ndarray:
    """Row of each peak's nearest kept track in the previous frame, -1 if none.

    ``peak_frame`` and ``dests`` give each peak's frame and destination
    bin in [0, size), ascending within a frame. Of equal destinations in
    a frame only the last peak's track is kept. Frame t's destinations
    are keyed t * stride + dest, so the keys ascend (see README) and
    keys of two frames lie further apart than the tolerance: one merge
    serves all frames.
    """
    stride = size + _TRACK_MATCH_TOLERANCE + 1
    keys = peak_frame * stride
    keys += dests
    kept = np.flatnonzero(np.append(keys[:-1] != keys[1:], keys.size > 0))
    # The tracks as keys of the next frame, bounded by the sentinels.
    known = np.empty(kept.size + 2, dtype=np.intp)
    known[0], known[-1] = -_FAR, _FAR
    np.add(keys[kept], stride, out=known[1:-1])
    # Track i is nearest (ties to the lower bin) to every q with
    # half[i-1] < q <= half[i], where half[i] = floor((track i + track i+1) / 2).
    half = known[:-1] + known[1:]
    half >>= 1
    nearest = _ranks(keys, half)
    del half
    far = known.take(nearest)
    far -= keys
    far = np.abs(far, out=far) > _TRACK_MATCH_TOLERANCE
    del keys, known
    sources = np.take(np.concatenate(([0], kept, [0])), nearest, out=nearest)
    sources[far] = -1
    return sources


def _plan(spec: PitchShiftSpec, analysis: PitchAnalysis):
    """Everything of a shift that does not depend on the running phases.

    Returns (angles, shifts, offset, size): one entry per peak of the
    analysis, frame after frame, of its track's accumulated rotation angle
    (identity locking; None for the loose variant, which renders without
    them) and of its region's shift, and the work frame of ``_translation``.
    Tracks are keyed by destination peak bin and matched frame-to-frame by
    ``_match``; a peak's angle is its source's plus the rotation over the
    hop. That recurrence is the only dependency between frames, so it runs
    first, one gather and add per frame. A new track (source -1) reads the
    trailing 0.0 and adds 0.0, so it starts from the analysis phase.
    """
    shift_of, offset, size = _translation(spec.ratio, analysis.config.n_bins)
    peaks = analysis.regions[:, 0]
    shifts = shift_of[peaks]
    if spec.variant == "loose":
        return None, shifts, offset, size
    sources = _match(analysis.peak_frame, peaks + shifts, size)
    increments = analysis.config.hop * (spec.ratio - 1.0) * analysis.peak_freq
    increments[sources < 0] = 0.0
    angles = np.zeros(sources.size + 1)
    bounds = analysis.offsets.tolist()
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        if hi > lo:
            np.add(angles.take(sources[lo:hi]), increments[lo:hi], out=angles[lo:hi])
    return angles, shifts, offset, size


class PhasePropagator:
    """The synthesis frames of one shift; call advance() once per frame.

    ``_plan`` plans the shift and ``_render_blocks`` renders it
    ``_BLOCK_FRAMES`` frames at a time; ``advance`` hands out its frames.
    """

    def __init__(self, spec: PitchShiftSpec, analysis: PitchAnalysis):
        self._n_frames = len(analysis.frames)
        # The generator holds no reference to self: a cycle would keep the
        # plan and the last block alive after the propagator is dropped.
        self._frames = _render_blocks(spec, analysis, *_plan(spec, analysis))

    def advance(self) -> np.ndarray:
        """Produce the synthesis frame of the next analysis frame.

        Peak-free frames pass through unshifted with phases advanced by
        hop * ratio * omega. The frame is a row of the rendered block, not a
        copy; the propagator never reads it again.
        """
        frame = next(self._frames, None)
        if frame is None:
            raise InvalidConfig(f"all {self._n_frames} frames already rendered")
        return frame


def _render_blocks(spec, analysis, angles, shifts, offset, size):
    """Yield the synthesis frames of a planned analysis, _BLOCK_FRAMES at a time.

    Each block rotates (identity locking) by the plan's track ``angles`` and
    scatters by its region ``shifts`` all its voiced frames' regions at once,
    into work rows of ``size`` bins that hold the spectrum at ``offset``; its
    peak-free frames follow in order. Each bin's rotation and shift are
    gathered through the analysis' ``bin_region``. The phases carried into
    the next block are taken before any of its rows is handed out, so the
    caller may edit them. Every complex product keeps the one-frame operand
    order (frame x rotation, magnitude x exp): numpy's multiply is not
    commutative to the last bit, and its temporary elision swaps the
    operands of arrays above 256 KiB (README).
    """
    a, locked = analysis, spec.variant == "identity-locked"
    n, n_frames = a.config.n_bins, len(a.frames)
    slots = np.arange(n) + offset
    bin_step = a.config.hop * spec.ratio
    free_advance = bin_step * bin_frequencies(n)
    rotations = np.exp(1j * angles) if locked else None  # one per peak
    carried = None  # synthesis phases of the last frame of the last block
    bins = 0  # the voiced bins of earlier blocks, a prefix of a.bin_region
    for start in range(0, n_frames, _BLOCK_FRAMES):
        stop = min(start + _BLOCK_FRAMES, n_frames)
        frames = a.frames[start:stop]
        peak_free = np.diff(a.offsets[start : stop + 1]) == 0
        voiced = np.flatnonzero(~peak_free)
        work = np.zeros((stop - start, size), dtype=np.complex128)
        rows = work[:, offset : offset + n]
        region = a.bin_region[bins : bins + voiced.size * n]
        bins += region.size
        # A fully voiced block is read in place, not gathered.
        values = (frames if voiced.size == len(frames) else frames[voiced]).reshape(-1)
        if locked:
            # Frame 0's tracks have angle 0; a rotation by exactly 1 changes
            # at most the sign of a zero, which the sum into +0 drops.
            rotated = rotations.take(region)
            values = np.multiply(values, rotated, out=rotated)
            del rotated
        # Each bin goes to row * size + slot + its region's shift; bins beyond
        # the spectrum land in the margins of their work row, and colliding
        # regions add up in region order.
        targets = shifts.take(region).reshape(voiced.size, n)
        targets += slots
        targets += (voiced * size)[:, None]
        targets = targets.reshape(-1)
        np.add.at(work.reshape(-1), targets, values)
        del values
        # Frame 0's synthesis phases are those of its output: the analysis
        # phases, or (voiced) those of its unrotated scatter.
        first = int(start == 0)
        if first and peak_free[0]:
            rows[0] = frames[0]
        if locked:
            # A peak-free frame advances the previous frame's phases, taken
            # from its output unless it was peak-free too.
            phase, at = carried, -1
            for i in np.flatnonzero(peak_free[first:]) + first:
                if at != i - 1:
                    phase = np.angle(rows[i - 1])
                phase = phase + free_advance
                np.multiply(np.abs(frames[i]), np.exp(1j * phase), out=rows[i])
                at = i
            carried = phase if at == len(rows) - 1 else np.angle(rows[-1])
        elif len(rows) > first:
            # Loose: every frame after frame 0 advances the previous phases
            # by hop * ratio times its target frequencies.
            target = np.empty((stop - start, size))
            theta = target[:, offset : offset + n]
            theta[...] = a.inst_freq[start:stop]
            # Region order: later regions win collisions.
            target.reshape(-1)[targets] = a.inst_freq[start + voiced].reshape(-1)
            theta *= bin_step
            theta[peak_free] = free_advance
            theta = theta[first:]
            theta[0] += np.angle(rows[0]) if first else carried
            np.cumsum(theta, axis=0, out=theta)
            magnitude = np.abs(rows[first:])
            magnitude[peak_free[first:]] = np.abs(frames[first:][peak_free[first:]])
            rotation = np.multiply(1j, theta)
            np.exp(rotation, out=rotation)
            np.multiply(magnitude, rotation, out=rows[first:])
            carried = theta[-1].copy()
            del target, theta, magnitude, rotation
        yield from rows
        del work, rows, targets  # let the block go before the next is allocated


@dataclass(frozen=True)
class PitchAnalysis:
    """Ratio-independent analysis of one buffer, shared by its pitch shifts.

    ``frames`` are the STFT frames. Row t of ``inst_freq`` is the per-bin
    instantaneous frequency of frame t, measured from the phase advance
    since frame t-1; row 0 has no predecessor and holds the bin centres.
    ``regions`` holds every frame's regions of influence as (peak, lo, hi)
    rows, frame t's at rows ``offsets[t]:offsets[t + 1]``. Derived from
    these: ``peak_frame``, the frame of each region, ``peak_freq``, the
    instantaneous frequency at each region's peak, and ``bin_region``, the
    row of ``regions`` that owns each bin, voiced frame after voiced frame.
    All arrays are read-only. Arrays that are not one such analysis,
    regions that do not tile each voiced frame around their peaks, or an
    ``n_samples`` that _check_length refuses, are InvalidConfig.
    """

    frames: np.ndarray
    inst_freq: np.ndarray
    regions: np.ndarray
    offsets: np.ndarray
    config: StftConfig
    sample_rate: int
    n_samples: int
    peak_frame: np.ndarray = field(init=False, repr=False, compare=False)
    peak_freq: np.ndarray = field(init=False, repr=False, compare=False)
    bin_region: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        frames, regions, offsets, n = self.frames, self.regions, self.offsets, self.config.n_bins
        if not (
            frames.shape == self.inst_freq.shape == (offsets.size - 1, n) and offsets.size > 1
            and offsets.shape == (offsets.size,) and regions.shape[1:] == (3,)
            and frames.dtype.kind == "c" and offsets.dtype.kind == regions.dtype.kind == "i"
            and offsets[0] == 0 and offsets[-1] == len(regions)
            and np.all(offsets[:-1] <= offsets[1:])
        ):
            raise InvalidConfig(f"arrays must describe one analysis of {n}-bin frames")
        _check_length(self.n_samples)
        peak, lo, hi = regions.T
        counts = np.diff(offsets)
        starts, ends = offsets[:-1][counts > 0], offsets[1:][counts > 0] - 1
        # A voiced frame's first region starts at bin 0, each other one bin after the last.
        follows = np.roll(hi + 1, 1)
        follows[starts] = 0
        tiled = np.array_equal(lo, follows) and np.all(hi[ends] == n - 1)
        if not (tiled and np.all((lo <= peak) & (peak <= hi) & (hi < n))):
            raise InvalidConfig("each voiced frame's regions must cover its bins in order")
        frame_of = np.repeat(np.arange(len(frames)), counts)
        object.__setattr__(self, "peak_frame", frame_of)
        object.__setattr__(self, "peak_freq", self.inst_freq[frame_of, peak])
        # One repeat per analysis: every pitch cell of the buffer gathers
        # through it instead of repeating its rotations and shifts.
        object.__setattr__(self, "bin_region", np.repeat(np.arange(peak.size), hi - lo + 1))
        derived = (frame_of, self.peak_freq, self.bin_region)
        for array in (frames, self.inst_freq, regions, offsets, *derived):
            array.setflags(write=False)


def _instantaneous_frequency(phase: np.ndarray, hop: int) -> np.ndarray:
    """Per-bin instantaneous frequency of each frame of a phase stack.

    Row 0 holds the bin centres omega. Row t is omega + princarg(phase[t] -
    phase[t-1] - hop * omega) / hop, written into its own row step by step
    in that order of operations, so the bytes are those of the one
    expression without its temporaries. ``phase`` is overwritten: once
    read, its first rows hold the whole turns that princarg takes off.
    """
    omega = bin_frequencies(phase.shape[1])
    inst_freq = np.empty_like(phase)
    inst_freq[0] = omega
    deviation = np.subtract(phase[1:], phase[:-1], out=inst_freq[1:])
    deviation -= hop * omega
    turns = np.subtract(deviation, np.pi, out=phase[:-1])
    turns /= 2.0 * np.pi
    np.ceil(turns, out=turns)
    turns *= 2.0 * np.pi
    deviation -= turns
    deviation /= hop
    deviation += omega
    return inst_freq


def analyse_pitch(
    buf: AudioBuffer, cfg: StftConfig = StftConfig(), neighbor_span: int = 2
) -> PitchAnalysis:
    """Analyse a buffer once for pitch shifting at any ratio, peaks as detect_peaks finds them."""
    frames = stft(buf, cfg).frames
    # The magnitudes and phases share one allocation the size of the frames.
    # Freed together, it is a block the shift's output frames fit in; as two
    # arrays it left them to fault in fresh memory, about 5,700 more minor
    # faults in a 16-request deidentify round (README).
    mag, phase = np.empty((2,) + frames.shape)
    np.abs(frames, out=mag)
    is_peak = _peak_mask(mag, neighbor_span)
    regions = _partition(mag, is_peak)
    offsets = np.concatenate(([0], np.cumsum(is_peak.sum(axis=1))))
    np.arctan2(frames.imag, frames.real, out=phase)  # np.angle(frames)
    inst_freq = _instantaneous_frequency(phase, cfg.hop)
    return PitchAnalysis(frames, inst_freq, regions, offsets, cfg, buf.sample_rate, len(buf))


def shift_analysed(analysis: PitchAnalysis, spec: PitchShiftSpec) -> AudioBuffer:
    """Shift the pitch of an analysed buffer by spec.ratio; duration is preserved.

    The whole buffer is planned at once; advance() then runs once per frame.
    """
    prop = PhasePropagator(spec, analysis)
    out_frames = np.empty_like(analysis.frames)
    for t in range(len(out_frames)):
        out_frames[t] = prop.advance()
    del prop  # its plan and last block are not needed to resynthesize
    spectrogram = Spectrogram(out_frames, analysis.config, analysis.sample_rate)
    return istft(spectrogram, analysis.n_samples)


def pitch_shift(buf: AudioBuffer, spec: PitchShiftSpec, cfg: StftConfig = StftConfig()) -> AudioBuffer:
    """Shift the pitch of a buffer by spec.ratio; duration is preserved.

    Peaks are found over the default neighbourhood; for 4 neighbours use
    ``shift_analysed(analyse_pitch(buf, cfg, 4), spec)``.
    """
    return shift_analysed(analyse_pitch(buf, cfg), spec)
