import dataclasses

import numpy as np
import pytest

from voicemask import (
    AudioBuffer,
    PhasePropagator,
    PitchShiftSpec,
    analyse_pitch,
    analyse_warp,
    pitch_shift,
    read_wav,
    shift_analysed,
    stft,
    synth_corpus,
)
from voicemask.errors import InvalidConfig, VoicemaskError
from voicemask.phase_vocoder import VARIANTS, _instantaneous_frequency, _partition, _peak_mask
from voicemask.signal_core import FRAME_LEN, HOP, N_BINS

import peak_reference
import phase_reference
from helpers import (
    SR,
    band_log_distortion,
    dominant_freq,
    frame_partitions,
    interior_snr_db,
    make_tone,
    make_vowel,
    pitch_analysis,
    planned_tracks,
    traced_peak,
)


def brute_force_peaks(mag):
    return [i for i in range(1, len(mag) - 1) if mag[i - 1] < mag[i] > mag[i + 1]]


def brute_force_regions(mag, peaks):
    rows, lo = [], 0
    for i, peak in enumerate(peaks):
        if i < len(peaks) - 1:
            gap = range(peaks[i] + 1, peaks[i + 1])
            boundary = min(gap, key=lambda j: (mag[j], j))
            rows.append([peak, lo, boundary])
            lo = boundary + 1
        else:
            rows.append([peak, lo, len(mag) - 1])
    return rows


def peaks_of(mag):
    """The bins analyse_pitch takes as peaks in one frame of magnitudes."""
    return np.flatnonzero(_peak_mask(np.asarray(mag, dtype=float)[None]))


def regions_of(mag, peaks):
    """The (peak, lo, hi) rows analyse_pitch gives the given peaks of one frame."""
    mag = np.asarray(mag, dtype=float)[None]
    is_peak = np.zeros(mag.shape, dtype=bool)
    is_peak[0, peaks] = True
    return _partition(mag, is_peak)


class TestPeaks:
    def test_reference_example(self):
        assert list(peaks_of([0, 1, 3, 1, 0, 2, 5, 2, 0])) == [2, 6]

    def test_monotone_ramp_has_no_peaks(self):
        assert peaks_of(np.arange(16)).size == 0

    def test_all_equal_has_no_peaks(self):
        assert peaks_of(np.ones(16)).size == 0

    @pytest.mark.parametrize(
        "mag,want",
        [([5.0], []), ([5.0, 0.0], []), ([0.0, 5.0, 0.0], [1]), ([5, 0, 5, 0, 5], [2])],
        ids=["1 bin", "2 bins", "3 bins", "edge bins"],
    )
    def test_only_interior_bins_qualify(self, mag, want):
        assert list(peaks_of(mag)) == want

    def test_matches_brute_force(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            mag = rng.random(rng.integers(5, 120))
            assert list(peaks_of(mag)) == brute_force_peaks(mag)


class TestRegionsOfInfluence:
    def test_reference_example(self):
        mag = [0, 1, 3, 1, 0, 2, 5, 2, 0]
        assert regions_of(mag, peaks_of(mag)).tolist() == [[2, 0, 4], [6, 5, 8]]

    def test_single_peak_covers_everything(self):
        assert regions_of([0, 1, 5, 1, 0, 0], [2]).tolist() == [[2, 0, 5]]

    def test_tie_breaks_to_lower_index(self):
        partition = regions_of([0.0, 5.0, 1.0, 1.0, 1.0, 5.0, 0.0], [1, 5])
        assert partition.tolist() == [[1, 0, 2], [5, 3, 6]]

    def test_peaks_at_both_ends_accepted(self):
        assert regions_of(np.ones(9), [0, 8]).tolist() == [[0, 0, 1], [8, 2, 8]]

    def test_matches_brute_force(self):
        rng = np.random.default_rng(8)
        for _ in range(100):
            mag = rng.random(rng.integers(9, 150))
            peaks = peaks_of(mag)
            if peaks.size == 0:
                continue
            assert regions_of(mag, peaks).tolist() == brute_force_regions(mag, list(peaks))

    def test_partition_tiles_spectrum(self):
        mag = np.random.default_rng(9).random(513)
        partition = regions_of(mag, peaks_of(mag))
        assert partition[0, 1] == 0 and partition[-1, 2] == 512
        assert np.all(partition[1:, 1] == partition[:-1, 2] + 1)
        assert np.all((partition[:, 0] >= partition[:, 1]) & (partition[:, 0] <= partition[:, 2]))


def shift_one_frame(frame, partition, ratio, variant):
    """Frame 0 of a one-frame analysis through PhasePropagator: its regions shifted, unrotated."""
    analysis = pitch_analysis([frame], [partition], np.zeros((1, len(frame))))
    return PhasePropagator(PitchShiftSpec(ratio, variant), analysis).advance()


class TestShiftCoefficients:
    """Each region of a frame moves by round((ratio - 1) * peak) bins."""

    def test_ratio_one_is_identity(self):
        rng = np.random.default_rng(10)
        frame = rng.standard_normal(513) + 1j * rng.standard_normal(513)
        partition = regions_of(np.abs(frame), peaks_of(np.abs(frame)))
        for variant in VARIANTS:
            np.testing.assert_array_equal(shift_one_frame(frame, partition, 1.0, variant), frame)

    def test_single_region_translates_by_half_peak(self):
        frame = np.zeros(513, dtype=complex)
        frame[95:106] = np.arange(11) + 1j
        partition = np.array([[100, 0, 512]])
        for variant in VARIANTS:
            out = shift_one_frame(frame, partition, 1.5, variant)  # round(0.5 * 100) = +50
            np.testing.assert_array_equal(out[145:156], frame[95:106])
            assert np.count_nonzero(out) == 11

    def test_out_of_range_bins_discarded(self):
        frame = np.ones(513, dtype=complex)
        partition = np.array([[400, 0, 512]])
        for variant in VARIANTS:
            out = shift_one_frame(frame, partition, 1.5, variant)  # shift +200
            assert np.all(out[:200] == 0)
            assert np.all(out[200:] == 1)

    def test_collisions_sum(self):
        frame = np.ones(513, dtype=complex)
        partition = np.array([[20, 0, 31], [40, 32, 512]])  # shifts -10 and -20 at ratio 0.5
        for variant in VARIANTS:
            out = shift_one_frame(frame, partition, 0.5, variant)
            assert out[12] == 2.0  # bins 22 and 32 both land on 12


class TestPhasePropagation:
    def test_first_frame_keeps_analysis_phases(self):
        analysis = analyse_pitch(make_vowel(seconds=0.5))
        out = PhasePropagator(PitchShiftSpec(1.25), analysis).advance()
        frame, partition = analysis.frames[0], frame_partitions(analysis)[0]
        want = phase_reference.shift_coefficients(frame, partition, 1.25)
        np.testing.assert_allclose(out, want, atol=1e-12)

    def test_ratio_one_output_equals_analysis(self):
        analysis = analyse_pitch(make_vowel(seconds=0.5))
        for variant in ("identity-locked", "loose"):
            prop = PhasePropagator(PitchShiftSpec(1.0, variant=variant), analysis)
            for frame in analysis.frames:
                out = prop.advance()
                np.testing.assert_allclose(
                    np.abs(out) * np.exp(1j * np.angle(out)),
                    np.abs(frame) * np.exp(1j * np.angle(frame)),
                    atol=1e-9,
                )

    def test_rotation_increment_for_bin_exact_sine(self):
        # Steady-state rotation per frame must be HOP * (ratio - 1) * omega_c.
        k = 40
        omega_c = 2.0 * np.pi * k / FRAME_LEN
        ratio = 1.5
        analysis = analyse_pitch(make_tone(k * SR / FRAME_LEN, seconds=0.5))
        assert all(p is not None for p in frame_partitions(analysis))
        dest = k + int(np.floor((ratio - 1.0) * k + 0.5))
        angles = [tracks[dest] for tracks in planned_tracks(analysis, PitchShiftSpec(ratio))]
        increments = np.diff(angles[1:])  # first frame seeds the track at zero
        expected = HOP * (ratio - 1.0) * omega_c
        np.testing.assert_allclose(increments, expected, atol=1e-6)


class TestPitchShift:
    @pytest.mark.parametrize("variant", ["identity-locked", "loose"])
    def test_sine_shift_examples(self, variant):
        tone = make_tone(440.0)
        out = pitch_shift(tone, PitchShiftSpec(1.5, variant=variant))
        assert abs(dominant_freq(out.samples) - 660.0) <= 5.0

    @pytest.mark.parametrize("variant", ["identity-locked", "loose"])
    def test_identity_ratio_snr(self, variant):
        tone = make_tone(440.0)
        out = pitch_shift(tone, PitchShiftSpec(1.0, variant=variant))
        assert interior_snr_db(tone.samples, out.samples) >= 40.0

    def test_round_trip_restores_frequency_and_envelope(self):
        vowel = make_vowel()
        up = pitch_shift(vowel, PitchShiftSpec(1.5))
        down = pitch_shift(up, PitchShiftSpec(1.0 / 1.5))
        f_in = dominant_freq(vowel.samples)
        f_out = dominant_freq(down.samples)
        assert abs(f_out - f_in) / f_in <= 0.01
        assert band_log_distortion(vowel.samples, down.samples) <= 2.0

    def test_duration_preserved(self):
        vowel = make_vowel(seconds=1.7)
        for ratio in (0.5, 0.9, 1.3, 2.0):
            assert len(pitch_shift(vowel, PitchShiftSpec(ratio))) == len(vowel)

    def test_energy_bounded(self):
        vowel = make_vowel()
        rms_in = np.sqrt(np.mean(vowel.samples**2))
        for ratio in (0.5, 0.75, 1.25, 2.0):
            out = pitch_shift(vowel, PitchShiftSpec(ratio))
            rms_out = np.sqrt(np.mean(out.samples**2))
            assert 0.25 <= rms_out / rms_in <= 4.0

    def test_silence_maps_to_silence(self):
        silence = AudioBuffer(np.zeros(3 * SR), SR)
        out = pitch_shift(silence, PitchShiftSpec(1.5))
        assert np.all(out.samples == 0)

    def test_deterministic(self):
        vowel = make_vowel(seconds=1.0)
        a = pitch_shift(vowel, PitchShiftSpec(1.3))
        b = pitch_shift(vowel, PitchShiftSpec(1.3))
        assert np.array_equal(a.samples, b.samples)

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            PitchShiftSpec(5.0)
        with pytest.raises(ValueError):
            PitchShiftSpec(1.0, variant="rigid")
        with pytest.raises(TypeError):  # peaks always compare two neighbours
            PitchShiftSpec(1.0, neighbor_span=4)


def voiced_with_gap():
    """Vowel, silence, vowel: covers first, voiced and peak-free frames."""
    vowel = make_vowel(seconds=0.5).samples
    return AudioBuffer(np.concatenate([vowel, np.zeros(4000), vowel[::-1]]), SR)


ANALYSIS_RATIOS = (1.0, 2.0 ** (13 / 24), 2.0 ** (-13 / 24), 2.0 ** (25 / 24), 2.0 ** (-25 / 24))


ANALYSIS_SOURCES = [
    "voiced with gap", "noise", "tone", "one frame", "silence", "built: gaps", "built: none",
]


def analysis_from(source):
    """An analysis of a real buffer, or one built from random frames."""
    rng = np.random.default_rng(4)
    frames = rng.random((5, N_BINS)) * np.exp(2j * np.pi * rng.random((5, N_BINS)))
    partitions = peak_reference.partitions(frames, 2)
    return {
        "voiced with gap": lambda: analyse_pitch(voiced_with_gap()),
        "noise": lambda: analyse_pitch(AudioBuffer(rng.standard_normal(4800), SR)),
        "tone": lambda: analyse_pitch(make_tone(440.0, seconds=0.3)),
        "one frame": lambda: analyse_pitch(make_tone(440.0, seconds=0.01)),
        "silence": lambda: analyse_pitch(AudioBuffer(np.zeros(4000), SR)),
        "built: gaps": lambda: pitch_analysis(
            frames, [partitions[0], None, partitions[2], None, partitions[4]],
            np.zeros(frames.shape),
        ),
        "built: none": lambda: pitch_analysis(frames, [None] * 5, np.zeros(frames.shape)),
    }[source]()


class TestAnalyseOnce:
    @pytest.mark.parametrize("variant", ["identity-locked", "loose"])
    def test_reused_analysis_equals_fresh_pitch_shift(self, variant):
        buf = voiced_with_gap()
        analysis = analyse_pitch(buf)
        frames, inst_freq = analysis.frames.copy(), analysis.inst_freq.copy()
        partitions = [None if p is None else p.copy() for p in frame_partitions(analysis)]
        assert any(p is None for p in partitions) and any(p is not None for p in partitions)
        order = np.random.default_rng(5).permutation(len(ANALYSIS_RATIOS))
        for ratio in np.array(ANALYSIS_RATIOS)[order]:
            spec = PitchShiftSpec(ratio, variant=variant)
            reused = shift_analysed(analysis, spec)
            assert reused.samples.tobytes() == pitch_shift(buf, spec).samples.tobytes()
        assert np.array_equal(analysis.frames, frames)
        assert np.array_equal(analysis.inst_freq, inst_freq)
        for got, want in zip(frame_partitions(analysis), partitions):
            assert (got is None and want is None) or np.array_equal(got, want)
        assert not analysis.frames.flags.writeable
        assert not analysis.inst_freq.flags.writeable
        with pytest.raises(ValueError):
            analysis.frames[0, 0] = 0.0

    def test_flat_regions_describe_every_frame(self):
        analysis = analyse_pitch(voiced_with_gap())
        offsets = analysis.offsets.tolist()
        assert len(offsets) == len(analysis.frames) + 1
        assert any(a == b for a, b in zip(offsets, offsets[1:]))  # a peak-free frame
        for t, (a, b) in enumerate(zip(offsets, offsets[1:])):
            peaks = analysis.regions[a:b, 0]
            assert np.array_equal(analysis.peak_freq[a:b], analysis.inst_freq[t, peaks])
        arrays = (analysis.regions, analysis.offsets, analysis.peak_freq)
        for array in (*arrays, analysis.bin_region):
            assert not array.flags.writeable

    @pytest.mark.parametrize("source", ANALYSIS_SOURCES)
    def test_bin_region_is_each_bins_region(self, source):
        # The per-bin table _render_blocks gathers through, against the
        # np.repeat form that tests/phase_reference.py builds per frame.
        analysis = analysis_from(source)
        lengths = analysis.regions[:, 2] - analysis.regions[:, 1] + 1
        want = np.repeat(np.arange(len(analysis.regions)), lengths)
        assert analysis.bin_region.dtype == np.intp
        assert analysis.bin_region.tobytes() == want.tobytes()
        # Voiced frame after voiced frame, n_bins entries each: the rows of
        # frame t are offsets[t] plus the one-frame form of its partition.
        table = analysis.bin_region.reshape(-1, N_BINS)
        voiced = [(t, p) for t, p in enumerate(frame_partitions(analysis)) if p is not None]
        assert len(table) == len(voiced)
        for row, (t, p) in zip(table, voiced):
            one_frame = np.repeat(np.arange(len(p)), p[:, 2] - p[:, 1] + 1)
            assert row.tobytes() == (analysis.offsets[t] + one_frame).tobytes()

    @pytest.mark.parametrize("source", ANALYSIS_SOURCES)
    def test_peak_frame_is_each_regions_frame(self, source):
        # The frame index each pitch cell keys its track search with.
        analysis = analysis_from(source)
        want = [t for t, p in enumerate(frame_partitions(analysis)) if p is not None for _ in p]
        assert analysis.peak_frame.dtype == np.intp
        assert analysis.peak_frame.tolist() == want
        assert len(analysis.peak_frame) == len(analysis.regions)
        assert not analysis.peak_frame.flags.writeable

    @pytest.mark.parametrize("variant", ["identity-locked", "loose"])
    def test_advance_runs_once_per_frame(self, monkeypatch, variant):
        calls = []
        advance = PhasePropagator.advance

        def counted(self):
            calls.append(self)
            return advance(self)

        monkeypatch.setattr(PhasePropagator, "advance", counted)
        analysis = analyse_pitch(voiced_with_gap())
        shift_analysed(analysis, PitchShiftSpec(0.8, variant=variant))
        assert len(calls) == analysis.frames.shape[0]


@pytest.fixture(scope="module")
def corpus_buffer(tmp_path_factory):
    """A 3 s synthetic-corpus utterance."""
    manifest = synth_corpus(3, 2, 2, tmp_path_factory.mktemp("corpus"))
    return read_wav(manifest.entries[0].path)


@pytest.fixture(scope="module")
def corpus_analysis(corpus_buffer):
    """The analysis of a 3 s synthetic-corpus utterance: 184 frames, 22,333 regions."""
    analysis = analyse_pitch(corpus_buffer)
    assert analysis.frames.shape == (184, 513) and len(analysis.regions) == 22333
    return analysis


def frozen_inst_freq(frames, hop):
    """analyse_pitch's instantaneous frequency as the one expression it once was."""
    phase, omega = np.angle(frames), phase_reference.bin_frequencies(frames.shape[1])
    inst_freq = np.empty_like(phase)
    inst_freq[0] = omega
    inst_freq[1:] = omega + phase_reference.princarg(phase[1:] - phase[:-1] - hop * omega) / hop
    return inst_freq


def boundary_frames():
    """Frames of angle 0, pi or -pi at the bins where hop * omega is 0, pi, 2 pi or 4 pi.

    With 1024-sample frames and a 256-sample hop, bins 0, 2, 4 and 8 advance
    by those exact multiples of pi, so their phase steps put princarg's
    argument exactly on a ceil boundary, an odd multiple of pi.
    """
    rng = np.random.default_rng(11)
    frames = rng.standard_normal((6, N_BINS)) + 1j * rng.standard_normal((6, N_BINS))
    angles = np.array([0.0, np.pi, -np.pi])
    for k in (0, 2, 4, 8):
        values = angles[rng.integers(0, 3, 6)]
        # -1 - 0j has angle -pi: arctan2(-0.0, -1.0).
        negative = np.where(values > 0, -1.0 + 0j, complex(-1.0, -0.0))
        frames[:, k] = np.where(values == 0.0, 1.0, negative)
    return frames, HOP


class TestInstantaneousFrequency:
    """inst_freq is built in place; it must keep the bytes of the one expression."""

    @pytest.mark.parametrize(
        "shape,hop", [((1, 513), 256), ((2, 33), 16), ((40, 513), 256), ((9, 129), 100)]
    )
    def test_random_frame_stacks(self, shape, hop):
        rng = np.random.default_rng(list(shape) + [hop])
        frames = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        got = _instantaneous_frequency(np.angle(frames), hop)
        assert got.tobytes() == frozen_inst_freq(frames, hop).tobytes()

    def test_steps_on_the_ceil_boundary(self):
        frames, hop = boundary_frames()
        phase, omega = np.angle(frames), phase_reference.bin_frequencies(frames.shape[1])
        turns = (phase[1:] - phase[:-1] - hop * omega - np.pi) / (2.0 * np.pi)
        assert np.any(turns[:, :9] == np.ceil(turns[:, :9]))  # the boundary is reached
        got = _instantaneous_frequency(phase, hop)
        assert got.tobytes() == frozen_inst_freq(frames, hop).tobytes()

    def test_analysis_of_buffers(self):
        rng = np.random.default_rng(12)
        for buf in (voiced_with_gap(), AudioBuffer(rng.standard_normal(6000), SR),
                    make_tone(440.0, seconds=0.01)):
            want = frozen_inst_freq(stft(buf), HOP)
            assert analyse_pitch(buf).inst_freq.tobytes() == want.tobytes()


class TestMemory:
    @pytest.mark.parametrize("ratio", [0.5, 1.19, 2.06])
    @pytest.mark.parametrize("variant", VARIANTS)
    def test_one_shift_stays_below_its_bound(self, corpus_analysis, variant, ratio):
        # The traced peak, output included, is 3.13-3.50 MB over these six
        # cells; a whole-cell bin-level plan would add about 4 MB. The bound
        # leaves about 11% of margin over the largest.
        # The first call fills istft's divisor cache.
        assert traced_peak(shift_analysed, corpus_analysis, PitchShiftSpec(ratio, variant)) <= 3.9e6

    def test_one_pitch_analysis_stays_below_its_bound(self, corpus_buffer):
        # 6.06 MB traced, 6.66 MB while the instantaneous frequency was one
        # expression; the bound leaves about 9% of margin.
        assert traced_peak(analyse_pitch, corpus_buffer) <= 6.6e6

    def test_one_warp_analysis_stays_below_its_bound(self, corpus_buffer):
        # 3.93 MB traced, 6.10 MB with np.unwrap; about 12% of margin.
        assert traced_peak(analyse_warp, corpus_buffer) <= 4.4e6


def set_entry(name, index, value):
    """An edit of an analysis that sets one entry of its regions or offsets."""

    def edit(analysis):
        array = getattr(analysis, name).copy()
        array[index] = value
        return {name: array}

    return edit


# Regions are rows 0-1 (frame 0) and 2-4 (frame 2); offsets are [0, 2, 2, 5].
ANALYSIS_EDITS = {
    "top bins uncovered": set_entry("regions", (1, 2), 20),
    "gap between regions": set_entry("regions", (3, 1), 9),
    "overlapping regions": set_entry("regions", (3, 1), 7),
    "first region not at bin 0": set_entry("regions", (2, 1), 1),
    "region past the top bin": set_entry("regions", (4, 2), 513),
    "peak outside its region": set_entry("regions", (0, 0), 11),
    "offsets not from 0": set_entry("offsets", 0, 1),
    "offsets decreasing": set_entry("offsets", 2, 1),
    "frame boundary moved": set_entry("offsets", 1, 3),
    "offsets short of the regions": set_entry("offsets", 3, 4),
    "offsets past the regions": set_entry("offsets", 3, 6),
    "one offset too few": lambda a: {"offsets": a.offsets[[0, 1, 3]]},
    "regions of two columns": lambda a: {"regions": a.regions[:, :2]},
    "float regions": lambda a: {"regions": a.regions.astype(float)},
    "float offsets": lambda a: {"offsets": a.offsets.astype(float)},
    "inst_freq of another shape": lambda a: {"inst_freq": a.inst_freq[:2]},
    "real frames": lambda a: {"frames": a.frames.real},
    "frames of another size": lambda a: {
        "frames": a.frames[:, :-1], "inst_freq": a.inst_freq[:, :-1],
    },
    "no frames": lambda a: {
        "frames": a.frames[:0], "inst_freq": a.inst_freq[:0], "regions": a.regions[:0],
        "offsets": a.offsets[:1],
    },
    # istft refused the first three only after the whole shift; True passed as one sample.
    "negative length": lambda a: {"n_samples": -10},
    "float length": lambda a: {"n_samples": 2.5},
    "text length": lambda a: {"n_samples": "7"},
    "bool length": lambda a: {"n_samples": True},
    # Only istft refused these, after the whole shift had been rendered.
    "fractional rate": lambda a: {"sample_rate": 16000.5},
    "text rate": lambda a: {"sample_rate": "x"},
    "bool rate": lambda a: {"sample_rate": True},
    "zero rate": lambda a: {"sample_rate": 0},
}


class TestErrorContract:
    """Bad arguments raise InvalidConfig, a toolkit error that is also a ValueError."""

    @pytest.mark.parametrize(
        "call",
        [
            lambda: PitchShiftSpec(5.0),
            lambda: PitchShiftSpec(1.0, variant="rigid"),
            # Not a real number: each raised a bare TypeError, and True was taken as 1.0.
            lambda: PitchShiftSpec("x"),
            lambda: PitchShiftSpec(None),
            lambda: PitchShiftSpec(1j),
            lambda: PitchShiftSpec(True),
        ],
        ids=["ratio", "variant", "text ratio", "None ratio", "complex ratio", "True ratio"],
    )
    def test_bad_arguments_are_invalid_config(self, call):
        with pytest.raises(InvalidConfig) as caught:
            call()
        assert isinstance(caught.value, VoicemaskError) and isinstance(caught.value, ValueError)

    @pytest.mark.parametrize("edit", list(ANALYSIS_EDITS))
    def test_arrays_that_are_not_one_analysis_are_invalid_config(self, edit):
        # Frames 0 and 2 are voiced, frame 1 is peak-free.
        partitions = [
            np.array([[5, 0, 10], [20, 11, 512]]),
            None,
            np.array([[3, 0, 7], [16, 8, 24], [28, 25, 512]]),
        ]
        analysis = pitch_analysis(np.ones((3, N_BINS)), partitions, np.zeros((3, N_BINS)))
        with pytest.raises(InvalidConfig):
            dataclasses.replace(analysis, **ANALYSIS_EDITS[edit](analysis))

    def test_a_numpy_integer_rate_is_kept_as_an_int(self):
        analysis = analyse_pitch(make_vowel(seconds=0.1))
        analysis = dataclasses.replace(analysis, sample_rate=np.int64(SR))
        assert type(analysis.sample_rate) is int and analysis.sample_rate == SR

    @pytest.mark.parametrize("variant", ["identity-locked", "loose"])
    def test_advance_past_the_last_frame_is_invalid_config(self, variant):
        analysis = analyse_pitch(make_vowel(seconds=2048 / SR))
        assert len(analysis.frames) == 5
        prop = PhasePropagator(PitchShiftSpec(1.2, variant=variant), analysis)
        for _ in range(5):
            prop.advance()
        with pytest.raises(InvalidConfig, match="all 5 frames already rendered"):
            prop.advance()
