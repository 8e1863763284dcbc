import numpy as np
import pytest

from voicemask import (
    AudioBuffer,
    PhasePropagator,
    PitchShiftSpec,
    Spectrogram,
    StftConfig,
    analyse_pitch,
    detect_peaks,
    pitch_shift,
    regions_of_influence,
    resynthesize,
    shift_analysed,
    shift_coefficients,
    stft,
)
from voicemask.errors import EmptyPeakSet
from voicemask.phase_vocoder import princarg

from helpers import SR, band_log_distortion, dominant_freq, interior_snr_db, make_tone, make_vowel


def brute_force_peaks(mag, span):
    half = span // 2
    return [
        i
        for i in range(half, len(mag) - half)
        if all(mag[i] > mag[i + o] and mag[i] > mag[i - o] for o in range(1, half + 1))
    ]


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


class TestPrincarg:
    def test_principal_range(self):
        x = np.linspace(-20.0, 20.0, 4001)
        wrapped = princarg(x)
        assert np.all(wrapped > -np.pi) and np.all(wrapped <= np.pi)
        np.testing.assert_allclose(np.exp(1j * wrapped), np.exp(1j * x), atol=1e-12)


class TestDetectPeaks:
    def test_reference_example(self):
        frame = np.array([0, 1, 3, 1, 0, 2, 5, 2, 0], dtype=complex)
        assert list(detect_peaks(frame, 2)) == [2, 6]

    def test_monotone_ramp_has_no_peaks(self):
        assert detect_peaks(np.arange(16, dtype=complex), 2).size == 0

    def test_all_equal_has_no_peaks(self):
        assert detect_peaks(np.ones(16, dtype=complex), 2).size == 0

    def test_span_four_needs_wider_margin(self):
        frame = np.array([0, 5, 0, 0, 0, 0], dtype=complex)
        assert detect_peaks(frame, 2).size == 1
        assert detect_peaks(frame, 4).size == 0  # bin 1 lacks two left neighbors

    @pytest.mark.parametrize("span", [2, 4])
    def test_matches_brute_force(self, span):
        rng = np.random.default_rng(7)
        for _ in range(100):
            mag = rng.random(rng.integers(5, 120))
            assert list(detect_peaks(mag.astype(complex), span)) == brute_force_peaks(mag, span)

    def test_invalid_span(self):
        with pytest.raises(ValueError):
            detect_peaks(np.ones(8, dtype=complex), 3)


class TestRegionsOfInfluence:
    def test_reference_example(self):
        frame = np.array([0, 1, 3, 1, 0, 2, 5, 2, 0], dtype=complex)
        partition = regions_of_influence(frame, detect_peaks(frame, 2))
        assert partition.tolist() == [[2, 0, 4], [6, 5, 8]]

    def test_single_peak_covers_everything(self):
        frame = np.array([0, 1, 5, 1, 0, 0], dtype=complex)
        assert regions_of_influence(frame, np.array([2])).tolist() == [[2, 0, 5]]

    def test_tie_breaks_to_lower_index(self):
        mag = np.array([0.0, 5.0, 1.0, 1.0, 1.0, 5.0, 0.0])
        partition = regions_of_influence(mag.astype(complex), np.array([1, 5]))
        assert partition.tolist() == [[1, 0, 2], [5, 3, 6]]

    def test_empty_peaks_rejected(self):
        with pytest.raises(EmptyPeakSet):
            regions_of_influence(np.ones(8, dtype=complex), np.array([], dtype=int))

    def test_matches_brute_force(self):
        rng = np.random.default_rng(8)
        for _ in range(100):
            mag = rng.random(rng.integers(9, 150))
            peaks = detect_peaks(mag.astype(complex), 2)
            if peaks.size == 0:
                continue
            got = regions_of_influence(mag.astype(complex), peaks).tolist()
            assert got == brute_force_regions(mag, list(peaks))

    def test_partition_tiles_spectrum(self):
        rng = np.random.default_rng(9)
        mag = rng.random(513)
        peaks = detect_peaks(mag.astype(complex), 2)
        partition = regions_of_influence(mag.astype(complex), peaks)
        assert partition[0, 1] == 0 and partition[-1, 2] == 512
        assert np.all(partition[1:, 1] == partition[:-1, 2] + 1)
        assert np.all((partition[:, 0] >= partition[:, 1]) & (partition[:, 0] <= partition[:, 2]))


class TestShiftCoefficients:
    def test_ratio_one_is_identity(self):
        rng = np.random.default_rng(10)
        frame = rng.standard_normal(513) + 1j * rng.standard_normal(513)
        partition = regions_of_influence(frame, detect_peaks(frame, 2))
        np.testing.assert_array_equal(shift_coefficients(frame, partition, 1.0), frame)

    def test_single_region_translates_by_half_peak(self):
        frame = np.zeros(513, dtype=complex)
        frame[95:106] = np.arange(11) + 1j
        partition = np.array([[100, 0, 512]])
        out = shift_coefficients(frame, partition, 1.5)  # round(0.5 * 100) = +50
        np.testing.assert_array_equal(out[145:156], frame[95:106])
        assert np.count_nonzero(out) == 11

    def test_out_of_range_bins_discarded(self):
        frame = np.ones(513, dtype=complex)
        partition = np.array([[400, 0, 512]])
        out = shift_coefficients(frame, partition, 1.5)  # shift +200
        assert np.all(out[:200] == 0)
        assert np.all(out[200:] == 1)

    def test_collisions_sum(self):
        frame = np.ones(64, dtype=complex)
        partition = np.array([[20, 0, 31], [40, 32, 63]])  # shifts -10 and -20 at ratio 0.5
        out = shift_coefficients(frame, partition, 0.5)
        assert out[12] == 2.0  # bins 22 and 32 both land on 12


class TestPhasePropagation:
    def test_first_frame_keeps_analysis_phases(self):
        cfg = StftConfig()
        sg = stft(make_vowel(seconds=0.5), cfg)
        prop = PhasePropagator(PitchShiftSpec(1.25), cfg)
        frame = sg.frames[0]
        partition = regions_of_influence(frame, detect_peaks(frame, 2))
        out = prop.advance(frame, partition)
        np.testing.assert_allclose(out, shift_coefficients(frame, partition, 1.25), atol=1e-12)

    def test_ratio_one_output_equals_analysis(self):
        cfg = StftConfig()
        sg = stft(make_vowel(seconds=0.5), cfg)
        for variant in ("identity-locked", "loose"):
            prop = PhasePropagator(PitchShiftSpec(1.0, variant=variant), cfg)
            for frame in sg.frames:
                peaks = detect_peaks(frame, 2)
                partition = regions_of_influence(frame, peaks) if peaks.size else None
                out = prop.advance(frame, partition)
                np.testing.assert_allclose(
                    np.abs(out) * np.exp(1j * np.angle(out)),
                    np.abs(frame) * np.exp(1j * np.angle(frame)),
                    atol=1e-9,
                )

    def test_rotation_increment_for_bin_exact_sine(self):
        # Steady-state rotation per frame must be hop * (ratio - 1) * omega_c.
        cfg = StftConfig()
        k = 40
        omega_c = 2.0 * np.pi * k / cfg.frame_len
        ratio = 1.5
        sg = stft(make_tone(k * SR / cfg.frame_len, seconds=0.5), cfg)
        prop = PhasePropagator(PitchShiftSpec(ratio), cfg)
        angles = []
        for frame in sg.frames:
            partition = regions_of_influence(frame, detect_peaks(frame, 2))
            prop.advance(frame, partition)
            dest = k + int(np.floor((ratio - 1.0) * k + 0.5))
            angles.append(prop.track_angles[dest])
        increments = np.diff(angles[1:])  # first frame seeds the track at zero
        expected = cfg.hop * (ratio - 1.0) * omega_c
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
        with pytest.raises(ValueError):
            PitchShiftSpec(1.0, neighbor_span=3)


def voiced_with_gap():
    """Vowel, silence, vowel: covers first, voiced and peak-free frames."""
    vowel = make_vowel(seconds=0.5).samples
    return AudioBuffer(np.concatenate([vowel, np.zeros(4000), vowel[::-1]]), SR)


ANALYSIS_RATIOS = (1.0, 2.0 ** (13 / 24), 2.0 ** (-13 / 24), 2.0 ** (25 / 24), 2.0 ** (-25 / 24))


class TestAnalyseOnce:
    @pytest.mark.parametrize("variant", ["identity-locked", "loose"])
    def test_reused_analysis_equals_fresh_pitch_shift(self, variant):
        buf = voiced_with_gap()
        analysis = analyse_pitch(buf)
        frames, inst_freq = analysis.frames.copy(), analysis.inst_freq.copy()
        partitions = [None if p is None else p.copy() for p in analysis.partitions]
        assert any(p is None for p in partitions) and any(p is not None for p in partitions)
        order = np.random.default_rng(5).permutation(len(ANALYSIS_RATIOS))
        for ratio in np.array(ANALYSIS_RATIOS)[order]:
            spec = PitchShiftSpec(ratio, variant=variant)
            reused = shift_analysed(analysis, spec)
            assert reused.samples.tobytes() == pitch_shift(buf, spec).samples.tobytes()
        assert np.array_equal(analysis.frames, frames)
        assert np.array_equal(analysis.inst_freq, inst_freq)
        for got, want in zip(analysis.partitions, partitions):
            assert (got is None and want is None) or np.array_equal(got, want)
        assert not analysis.frames.flags.writeable
        assert not analysis.inst_freq.flags.writeable
        assert not any(p.flags.writeable for p in analysis.partitions if p is not None)
        with pytest.raises(ValueError):
            analysis.frames[0, 0] = 0.0

    @pytest.mark.parametrize("variant", ["identity-locked", "loose"])
    def test_analysed_path_equals_per_frame_advance(self, variant):
        # advance() without inst_freq measures it from consecutive phases;
        # the analysis precomputes it, and both must give the same bytes.
        buf = voiced_with_gap()
        cfg = StftConfig()
        spec = PitchShiftSpec(1.3, variant=variant)
        sg = stft(buf, cfg)
        prop = PhasePropagator(spec, cfg)
        out = np.empty_like(sg.frames)
        for t, frame in enumerate(sg.frames):
            peaks = detect_peaks(frame, 2)
            out[t] = prop.advance(frame, regions_of_influence(frame, peaks) if peaks.size else None)
        expected = resynthesize(Spectrogram(out, cfg, SR), len(buf))
        assert pitch_shift(buf, spec, cfg).samples.tobytes() == expected.samples.tobytes()

    def test_neighbor_span_must_match(self):
        analysis = analyse_pitch(make_vowel(seconds=0.3), neighbor_span=4)
        assert analysis.neighbor_span == 4
        with pytest.raises(ValueError):
            shift_analysed(analysis, PitchShiftSpec(1.2))
