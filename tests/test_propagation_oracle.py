"""Property tests for the pitch and warp transforms.

``PhasePropagator.advance``, frame by frame over a given analysis, the
track angles ``_plan`` plans for each frame, and ``shift_analysed`` must
reproduce byte for byte the frames and track angles of the straightforward
propagator frozen in ``phase_reference.py``, which takes one frame at a
time and can measure the instantaneous frequency itself; and every
transform maps a finite buffer to a finite buffer of the same length and
sample rate, or raises NonFiniteSignal for samples too large to transform.
"""

import gc
import warnings
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from voicemask import (
    AudioBuffer,
    PhasePropagator,
    PitchShiftSpec,
    Spectrogram,
    StftConfig,
    analyse_pitch,
    detect_peaks,
    istft,
    regions_of_influence,
    shift_analysed,
)
from voicemask.errors import NonFiniteSignal
from voicemask.phase_vocoder import _BLOCK_FRAMES, _match, _ranks, _translation
from voicemask.vtln import FAMILIES, WarpSpec, vtln_transform

import phase_reference
from helpers import SR, frame_partitions, make_vowel, pitch_analysis, planned_tracks

# 33 bins make shifts off both ends and colliding regions common; 513 is the
# toolkit's default frame.
CONFIGS = (StftConfig(frame_len=64, hop=16), StftConfig())
RATIOS = st.one_of(st.sampled_from([0.25, 4.0, 1.0, 0.5, 2.0]), st.floats(0.25, 4.0))


@st.composite
def frame_sequences(draw):
    """Frames of one utterance, each with its partition (None if peak-free)."""
    cfg = draw(st.sampled_from(CONFIGS))
    span = draw(st.sampled_from([2, 4]))
    voiced = draw(st.lists(st.booleans(), min_size=1, max_size=10))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = cfg.n_bins
    frames, partitions, inst_freqs = [], [], []
    for is_voiced in voiced:
        frame = rng.random(n) * np.exp(2j * np.pi * rng.random(n))
        peaks = detect_peaks(frame, span) if is_voiced else np.empty(0, dtype=np.intp)
        frames.append(frame)
        partitions.append(regions_of_influence(frame, peaks) if peaks.size else None)
        inst_freqs.append(rng.uniform(-np.pi, 2.0 * np.pi, n))
    return cfg, span, frames, partitions, inst_freqs


def angle_bytes(tracks):
    return list(tracks), np.array(list(tracks.values())).tobytes()


def assert_frame_matches(got, want, planned, reference):
    """One advance() frame and its planned track angles (identity locking) equal the reference's."""
    assert got.tobytes() == want.tobytes()
    if planned is not None:
        assert angle_bytes(planned) == angle_bytes(reference.track_angles)


class TestPropagatorOracle:
    @settings(max_examples=400, deadline=None)
    @given(
        sequence=frame_sequences(),
        ratio=RATIOS,
        variant=st.sampled_from(["identity-locked", "loose"]),
        give_inst_freq=st.booleans(),
    )
    def test_advance_matches_reference_bytes(self, sequence, ratio, variant, give_inst_freq):
        cfg, span, frames, partitions, inst_freqs = sequence
        if not give_inst_freq:
            # Measured up front, as analyse_pitch does: row 0 holds the bin
            # centres. The reference measures it frame by frame instead.
            phase = np.angle(frames)
            inst_freqs = [phase_reference.bin_frequencies(cfg.n_bins)] + [
                phase_reference.instantaneous_freq(phase[t], phase[t - 1], cfg.hop)
                for t in range(1, len(frames))
            ]
        spec = PitchShiftSpec(ratio, variant)
        analysis = pitch_analysis(frames, partitions, inst_freqs, cfg)
        prop = PhasePropagator(spec, analysis)
        tracks = planned_tracks(analysis, spec)
        reference = phase_reference.ReferencePropagator(spec, cfg)
        for t, (frame, partition, inst_freq) in enumerate(zip(frames, partitions, inst_freqs)):
            want = reference.advance(frame, partition, inst_freq if give_inst_freq else None)
            assert_frame_matches(prop.advance(), want, tracks[t], reference)

    @pytest.mark.parametrize("variant", ["identity-locked", "loose"])
    @pytest.mark.parametrize("cell", ["3 frames", "across a block boundary"])
    def test_returned_frame_is_not_the_propagator_state(self, cell, variant):
        # Editing a returned frame must not change the frames after it: not in
        # its block, and not through the phases its block carries into the
        # next (frames B and B + 1 are peak-free).
        cfg = CONFIGS[0]
        if cell == "3 frames":
            rng = np.random.default_rng(2)
            frames = [rng.random(cfg.n_bins) + 0j for _ in range(3)]
            partition = regions_of_influence(frames[0], detect_peaks(frames[0]))
            inst_freq = np.zeros((3, cfg.n_bins))
            analysis = pitch_analysis(frames, [partition, None, None], inst_freq, cfg)
        else:
            analysis = random_cell(cfg, 40, (B, B + 1), seed=40)
        spec = PitchShiftSpec(1.5, variant)
        clean, edited = (PhasePropagator(spec, analysis) for _ in range(2))
        for _ in analysis.frames:
            frame = edited.advance()
            assert frame.tobytes() == clean.advance().tobytes()
            frame[:] = 0.0

    @pytest.mark.parametrize("variant", ["identity-locked", "loose"])
    def test_dropped_propagator_is_freed_at_once(self, variant):
        # No reference cycle, so shift_analysed's del frees the plan and the
        # last block before it resynthesizes, without the cycle collector.
        analysis = random_cell(CONFIGS[0], 40, (B, B + 1), seed=40)
        gc.disable()
        try:
            prop = PhasePropagator(PitchShiftSpec(1.5, variant), analysis)
            for _ in analysis.frames:
                prop.advance()
            freed = weakref.ref(prop)
            del prop
            assert freed() is None
        finally:
            gc.enable()


@st.composite
def buffers_with_silences(draw):
    """A buffer whose voiced stretches sit between leading, inner and trailing silence."""
    cfg = draw(st.sampled_from(CONFIGS))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    quiet = st.integers(0, 3 * cfg.frame_len)
    lengths = [draw(quiet), draw(st.integers(1, 4 * cfg.frame_len)), draw(quiet),
               draw(st.integers(0, 4 * cfg.frame_len)), draw(quiet)]
    parts = []
    for k, length in enumerate(lengths):
        if k % 2:  # voiced: a few partials over noise
            t = np.arange(length)
            freqs = rng.uniform(0.01, 3.0, rng.integers(1, 6))
            tone = np.sin(np.outer(t, freqs) + rng.uniform(0, 2 * np.pi, freqs.size)).sum(axis=1)
            parts.append(tone + 0.1 * rng.standard_normal(length))
        else:
            parts.append(np.zeros(length))
    return cfg, AudioBuffer(np.concatenate(parts), 16000)


class TestPlannedPathOracle:
    @settings(max_examples=150, deadline=None)
    @given(
        case=buffers_with_silences(),
        span=st.sampled_from([2, 4]),
        ratio=RATIOS,
        variant=st.sampled_from(["identity-locked", "loose"]),
        measure=st.booleans(),
    )
    def test_shift_analysed_matches_reference_bytes(self, case, span, ratio, variant, measure):
        # With measure, the reference takes the instantaneous frequency from
        # consecutive phases itself rather than from the analysis.
        cfg, buf = case
        analysis = analyse_pitch(buf, cfg, span)
        spec = PitchShiftSpec(ratio, variant)
        reference = phase_reference.ReferencePropagator(spec, cfg)
        frames = np.array([
            reference.advance(frame, partition, None if measure else inst_freq)
            for frame, partition, inst_freq in zip(
                analysis.frames, frame_partitions(analysis), analysis.inst_freq
            )
        ])
        want = istft(Spectrogram(frames, cfg, buf.sample_rate), len(buf))
        assert shift_analysed(analysis, spec).samples.tobytes() == want.samples.tobytes()


def assert_matches_reference(analysis, spec):
    """Every advance() frame, its planned angles and shift_analysed equal the reference's bytes."""
    prop = PhasePropagator(spec, analysis)
    tracks = planned_tracks(analysis, spec)
    reference = phase_reference.ReferencePropagator(spec, analysis.config)
    frames = []
    for t, (frame, partition, inst_freq) in enumerate(zip(
        analysis.frames, frame_partitions(analysis), analysis.inst_freq
    )):
        frames.append(reference.advance(frame, partition, inst_freq))
        assert_frame_matches(prop.advance(), frames[-1], tracks[t], reference)
    spectrogram = Spectrogram(np.array(frames), analysis.config, analysis.sample_rate)
    want = istft(spectrogram, analysis.n_samples)
    assert shift_analysed(analysis, spec).samples.tobytes() == want.samples.tobytes()


B = _BLOCK_FRAMES
# Peak-free frames: none, frame 0, the frames about the first block boundary,
# a run across it, and every frame. Frames past a cell's end are dropped.
PEAK_FREE_LAYOUTS = {
    "voiced": (),
    "frame 0": (0,),
    "boundary frames": (B - 1, B, B + 1),
    "run across boundary": tuple(range(B - 3, B + 3)),
    "all": None,
}


def random_cell(cfg, n_frames, peak_free, seed):
    """An analysis of random frames, peak-free at the given frames (all if None)."""
    rng = np.random.default_rng(seed)
    n = cfg.n_bins
    frames = rng.random((n_frames, n)) * np.exp(2j * np.pi * rng.random((n_frames, n)))
    partitions = [
        None
        if peak_free is None or t in peak_free
        else regions_of_influence(frame, detect_peaks(frame))
        for t, frame in enumerate(frames)
    ]
    inst_freq = rng.uniform(-np.pi, 2.0 * np.pi, (n_frames, n))
    return pitch_analysis(frames, partitions, inst_freq, cfg)


class TestBlockBoundaries:
    """advance renders blocks of _BLOCK_FRAMES frames; no boundary may show in the bytes."""

    @pytest.mark.parametrize("ratio", [0.25, 0.84, 1.0, 1.19, 4.0])
    @pytest.mark.parametrize("variant", ["identity-locked", "loose"])
    @pytest.mark.parametrize("layout", list(PEAK_FREE_LAYOUTS))
    @pytest.mark.parametrize("n_frames", [1, B - 1, B, B + 1, 3 * B + 5])
    @pytest.mark.parametrize("cfg", CONFIGS, ids=["33 bins", "513 bins"])
    def test_random_cells_match_reference_bytes(self, cfg, n_frames, layout, variant, ratio):
        # A 513-bin block of B frames holds more than 256 KiB of complex values,
        # where numpy's temporary elision would swap a product's operands.
        analysis = random_cell(cfg, n_frames, PEAK_FREE_LAYOUTS[layout], seed=n_frames)
        assert_matches_reference(analysis, PitchShiftSpec(ratio, variant))

    @pytest.mark.parametrize("variant", ["identity-locked", "loose"])
    def test_three_second_vowel_matches_reference_bytes(self, variant):
        # Silence around the second boundary leaves those frames peak-free.
        cfg = StftConfig()
        samples = make_vowel(seconds=3.0).samples.copy()
        samples[(2 * B - 2) * cfg.hop : (2 * B + 2) * cfg.hop + cfg.frame_len] = 0.0
        analysis = analyse_pitch(AudioBuffer(samples, SR), cfg)
        assert len(analysis.frames) > 5 * B
        peak_free = [t for t, p in enumerate(frame_partitions(analysis)) if p is None]
        assert peak_free == list(range(2 * B - 2, 2 * B + 3))
        assert_matches_reference(analysis, PitchShiftSpec(1.19, variant))


@st.composite
def transforms(draw):
    """A pitch shift or a warp, with any parameter its spec accepts."""
    family = draw(st.sampled_from(("pitch",) + FAMILIES))
    if family == "pitch":
        spec = PitchShiftSpec(draw(RATIOS), draw(st.sampled_from(["identity-locked", "loose"])))
        span = draw(st.sampled_from([2, 4]))
        return spec, lambda buf: shift_analysed(analyse_pitch(buf, StftConfig(), span), spec)
    if family == "quadratic":
        alpha = draw(st.floats(-np.pi, np.pi, exclude_min=True, exclude_max=True))
    elif family == "bilinear":
        alpha = draw(st.floats(-1.0, 1.0, exclude_min=True, exclude_max=True))
    else:
        alpha = draw(st.floats(float(np.finfo(np.float64).tiny), allow_infinity=False))
    spec = WarpSpec(family, alpha)
    return spec, lambda buf: vtln_transform(buf, spec)


class TestTransformsStayFinite:
    @settings(max_examples=150, deadline=None)
    @given(
        transform=transforms(),
        samples=hnp.arrays(
            np.float64,
            st.integers(0, 2600),
            elements=st.floats(allow_nan=False, allow_infinity=False),
        ),
        sample_rate=st.integers(1, 192000),
    )
    def test_finite_in_finite_out(self, transform, samples, sample_rate):
        # Any finite sample: the transforms either work or, for samples too
        # large to transform, raise NonFiniteSignal; they never warn.
        _, apply = transform
        buf = AudioBuffer(samples, sample_rate)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            try:
                out = apply(buf)
            except NonFiniteSignal:
                # Every sample read_wav can return (finite float32) lies below 2**128.
                assert np.abs(samples).max() >= 2.0**128
                return
        assert len(out) == len(buf)
        assert out.sample_rate == buf.sample_rate
        assert np.all(np.isfinite(out.samples))



def brute_force_sources(peak_frame, dests):
    """Each peak's track row in the previous frame by an exhaustive search, -1 if none.

    A frame's tracks are its distinct destinations, each the row of the
    last peak that has it; a peak continues the nearest track within the
    tolerance, ties to the lower bin.
    """
    sources, tracks = [], {}  # tracks[t]: destination -> row, for frame t
    for row, (t, dest) in enumerate(zip(peak_frame.tolist(), dests.tolist())):
        previous = tracks.get(t - 1, {})
        near = min(previous, key=lambda d: (abs(d - dest), d), default=None)
        ok = near is not None and abs(near - dest) <= phase_reference.TRACK_MATCH_TOLERANCE
        sources.append(previous[near] if ok else -1)
        tracks.setdefault(t, {})[dest] = row
    return sources


@st.composite
def ascending_keys(draw):
    """(peak_frame, dests, size): each frame's destinations ascend in [0, size)."""
    size = draw(st.integers(1, 40))
    per_frame = draw(st.lists(st.lists(st.integers(0, size - 1), max_size=12), min_size=1,
                              max_size=8))
    dests = [sorted(frame) for frame in per_frame]
    peak_frame = np.repeat(np.arange(len(dests)), [len(d) for d in dests])
    return peak_frame, np.array(sum(dests, []), dtype=np.intp), size


# Peaks per frame (None if peak-free) in 33 bins, and the sources _match must
# give, row by row.
MATCH_CASES = {
    # Peaks 10 and 12 both land on bin 3: frame 2 continues the second one.
    "r < 1, equal destinations": (0.25, [[10, 12], [10, 12], [10]], [-1, -1, 1, 1, 3]),
    "halfway between two tracks": (1.0, [[10, 16], [13]], [-1, -1, 0]),
    "4 and 5 bins from a track": (1.0, [[10, 30], [14, 25]], [-1, -1, 0, -1]),
    "tracks next to the sentinels": (1.0, [[2, 30], [0, 32], [16]], [-1, -1, 0, 1, -1]),
    "peak-free frames between": (1.0, [[10, 20], None, None, [10, 20], [11]], [-1] * 4 + [2]),
    "one frame": (1.2, [[5, 20]], [-1, -1]),
}


class TestTrackMatch:
    """_match ranks keys by one merge; it must pick the tracks an exhaustive search picks."""

    @settings(max_examples=400, deadline=None)
    @given(case=ascending_keys())
    def test_matches_brute_force(self, case):
        peak_frame, dests, size = case
        sources = _match(peak_frame, dests, size)
        assert sources.dtype == np.intp
        assert sources.tolist() == brute_force_sources(peak_frame, dests)

    @settings(max_examples=400, deadline=None)
    @given(
        keys=st.lists(st.integers(-50, 50)).map(sorted),
        values=st.lists(st.integers(-50, 50)).map(sorted),
    )
    def test_ranks_are_searchsorted(self, keys, values):
        keys, values = np.array(keys, dtype=np.intp), np.array(values, dtype=np.intp)
        assert _ranks(keys, values).tolist() == np.searchsorted(values, keys).tolist()

    @pytest.mark.parametrize("variant", ["identity-locked", "loose"])
    @pytest.mark.parametrize("case", list(MATCH_CASES))
    def test_targeted_cases(self, case, variant):
        ratio, peaks, want = MATCH_CASES[case]
        cfg = CONFIGS[0]
        rng = np.random.default_rng(7)
        shape = (len(peaks), cfg.n_bins)
        frames = rng.random(shape) * np.exp(2j * np.pi * rng.random(shape))
        partitions = [
            None if p is None else regions_of_influence(frame, p) for frame, p in zip(frames, peaks)
        ]
        inst_freq = rng.uniform(-np.pi, 2.0 * np.pi, shape)
        analysis = pitch_analysis(frames, partitions, inst_freq, cfg)
        shifts, _, size = _translation(ratio, cfg.n_bins)
        dests = analysis.regions[:, 0] + shifts[analysis.regions[:, 0]]
        assert brute_force_sources(analysis.peak_frame, dests) == want
        assert _match(analysis.peak_frame, dests, size).tolist() == want
        assert_matches_reference(analysis, PitchShiftSpec(ratio, variant))
