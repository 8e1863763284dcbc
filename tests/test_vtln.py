import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import voicemask.vtln as vtln
from voicemask import (
    AudioBuffer,
    DegreeSchedule,
    StftConfig,
    WarpAnalysis,
    WarpSpec,
    analyse_warp,
    invert_warp,
    istft,
    read_wav,
    stft,
    synth_corpus,
    vtln_transform,
    warp_analysed,
    warp_value,
)
from voicemask.errors import InvalidAlpha, InvalidConfig, NotInvertible, VoicemaskError

from helpers import SR, dominant_freq, interior_snr_db, make_tone, make_vowel

IDENTITY_SPECS = [
    WarpSpec("symmetric", 1.0),
    WarpSpec("asymmetric", 1.0),
    WarpSpec("power", 1.0),
    WarpSpec("quadratic", 0.0),
    WarpSpec("bilinear", 0.0),
]

VALID_SPECS = [
    WarpSpec("symmetric", 0.7),
    WarpSpec("symmetric", 1.4),
    WarpSpec("asymmetric", 0.8),
    WarpSpec("asymmetric", 1.1),
    WarpSpec("power", 0.6),
    WarpSpec("power", 1.7),
    WarpSpec("quadratic", 1.4),
    WarpSpec("quadratic", -0.9),
    WarpSpec("quadratic", 3.1),
    WarpSpec("quadratic", -3.1),
    WarpSpec("quadratic", 0.0),
    WarpSpec("bilinear", 0.4),
    WarpSpec("bilinear", -0.3),
]

GRID = np.linspace(0.0, np.pi, 1000)


class TestWarpSpecValidation:
    @pytest.mark.parametrize(
        "family,alpha",
        [
            ("symmetric", 0.0),
            ("asymmetric", -0.5),
            ("power", 0.0),
            ("quadratic", np.pi),
            ("quadratic", -4.0),
            ("bilinear", 1.0),
            ("bilinear", -1.2),
            ("symmetric", np.inf),
            ("power", np.nan),
            ("asymmetric", 5e-324),  # subnormal: pi / alpha overflows
        ],
    )
    def test_out_of_range_alpha(self, family, alpha):
        with pytest.raises(InvalidAlpha):
            WarpSpec(family, alpha)

    def test_unknown_family(self):
        with pytest.raises(InvalidAlpha):
            WarpSpec("mel", 1.0)

    @pytest.mark.parametrize("call", [warp_value, invert_warp])
    def test_frequency_outside_zero_to_pi_is_invalid_config(self, call):
        with pytest.raises(InvalidConfig) as caught:
            call(WarpSpec("power", 0.6), np.array([0.5, 4.0]))
        assert isinstance(caught.value, VoicemaskError) and isinstance(caught.value, ValueError)


class TestHandValues:
    """Frozen expected values, each computed independently of warp_value."""

    def test_power(self):
        assert warp_value(WarpSpec("power", 0.6), np.pi / 2) == pytest.approx(
            np.pi * 0.5**0.6, abs=1e-12
        )

    def test_quadratic(self):
        expected = np.pi / 2 + 1.4 * (0.5 - 0.25)
        assert warp_value(WarpSpec("quadratic", 1.4), np.pi / 2) == pytest.approx(
            expected, abs=1e-12
        )
        assert expected == pytest.approx(1.9208, abs=1e-4)

    def test_bilinear(self):
        z = np.exp(1j * np.pi / 2)
        expected = np.angle((z - 0.4) / (1.0 - 0.4 * z))
        got = warp_value(WarpSpec("bilinear", 0.4), np.pi / 2)
        assert got == pytest.approx(expected, abs=1e-12)
        assert got == pytest.approx(np.arctan2(0.84, -0.8), abs=1e-12)
        assert got == pytest.approx(2.3318, abs=1e-4)

    def test_symmetric_breakpoint(self):
        spec = WarpSpec("symmetric", 1.4)
        omega0 = 7.0 * np.pi / (8.0 * 1.4)
        assert omega0 == pytest.approx(0.625 * np.pi, abs=1e-12)
        assert warp_value(spec, 1.0) == pytest.approx(1.4, abs=1e-12)

    def test_identity_parameters(self):
        for spec in IDENTITY_SPECS:
            np.testing.assert_allclose(warp_value(spec, GRID), GRID, atol=1e-12)

    def test_endpoints_exact(self):
        for spec in IDENTITY_SPECS + VALID_SPECS:
            assert warp_value(spec, 0.0) == 0.0
            assert warp_value(spec, np.pi) == np.pi


class TestWarpProperties:
    @pytest.mark.parametrize("spec", VALID_SPECS, ids=str)
    def test_monotone_and_in_range(self, spec):
        g = warp_value(spec, GRID)
        assert np.all(np.diff(g) >= 0.0)
        assert g.min() >= 0.0 and g.max() <= np.pi

    @pytest.mark.parametrize("spec", VALID_SPECS, ids=str)
    def test_inverse_round_trip(self, spec):
        g = warp_value(spec, GRID)
        back = invert_warp(spec, g)
        assert np.max(np.abs(back - GRID)) < 1e-9

    def test_bilinear_negated_alpha_is_inverse(self):
        forward = WarpSpec("bilinear", 0.4)
        backward = WarpSpec("bilinear", -0.4)
        np.testing.assert_allclose(
            warp_value(backward, warp_value(forward, GRID)), GRID, atol=1e-9
        )
        np.testing.assert_allclose(
            invert_warp(forward, GRID), warp_value(backward, GRID), atol=1e-9
        )

    def test_identity_parameter_inverse(self):
        np.testing.assert_allclose(invert_warp(WarpSpec("power", 1.0), GRID), GRID, atol=1e-12)

    @settings(max_examples=200, deadline=None)
    @given(
        alpha=st.floats(0.3, 2.5),
        omega=st.floats(0.0, np.pi),
        family=st.sampled_from(["symmetric", "asymmetric", "power"]),
    )
    def test_linear_family_range_property(self, alpha, omega, family):
        value = warp_value(WarpSpec(family, alpha), omega)
        assert 0.0 <= value <= np.pi

    @settings(max_examples=200, deadline=None)
    @given(alpha=st.floats(-0.95, 0.95), omega=st.floats(0.0, np.pi))
    def test_bilinear_range_property(self, alpha, omega):
        value = warp_value(WarpSpec("bilinear", alpha), omega)
        assert 0.0 <= value <= np.pi


class TestAsymmetricClamp:
    def test_clamped_region_flat_at_pi(self):
        spec = WarpSpec("asymmetric", 1.3)
        omega = np.linspace(np.pi / 1.3 + 1e-6, np.pi, 50)
        np.testing.assert_array_equal(np.asarray(warp_value(spec, omega)), np.pi)

    def test_invert_rejects_flat_region(self):
        with pytest.raises(NotInvertible):
            invert_warp(WarpSpec("asymmetric", 1.3), np.pi)

    def test_invert_below_clamp_still_works(self):
        spec = WarpSpec("asymmetric", 1.3)
        assert invert_warp(spec, 1.0) == pytest.approx(1.0 / 1.3, abs=1e-12)


class TestWarpSpectrum:
    """Warping of the analysed spectrum, seen through warp_analysed's output."""

    def test_identity_parameter_preserves_frame(self):
        buf = AudioBuffer(np.random.default_rng(0).standard_normal(SR // 2), SR)
        analysis = analyse_warp(buf)
        plain = istft(stft(buf), len(buf)).samples
        for spec in IDENTITY_SPECS:
            np.testing.assert_allclose(warp_analysed(analysis, spec).samples, plain, atol=1e-9)

    def test_peak_moves_to_warped_position(self):
        spec = WarpSpec("bilinear", 0.3)
        n = 513
        peak_bin = 120
        out = warp_analysed(analyse_warp(make_tone(peak_bin * SR / 1024, seconds=0.5)), spec)
        level = np.abs(stft(out).frames).mean(axis=0)
        expected_bin = warp_value(spec, np.pi * peak_bin / (n - 1)) / np.pi * (n - 1)
        # Resynthesis keeps the input's phase advance, which smears the
        # re-analysed peak by about a bin.
        assert abs(np.argmax(level) - expected_bin) <= 2.0

    def test_zero_frame(self):
        out = vtln_transform(AudioBuffer(np.zeros(SR // 4), SR), WarpSpec("quadratic", 0.5))
        assert np.all(out.samples == 0)

    def test_bin_count_preserved(self):
        cfg = StftConfig(frame_len=512, hop=128)
        buf = make_tone(700.0, seconds=0.25)
        out = vtln_transform(buf, WarpSpec("power", 0.8), cfg)
        assert len(out) == len(buf)
        shape = analyse_warp(buf, cfg).magnitude.shape
        assert shape[1] == 257
        assert stft(out, cfg).frames.shape == shape


class TestVtlnTransform:
    def test_identity_parameter_snr(self):
        tone = make_tone(1000.0)
        out = vtln_transform(tone, WarpSpec("bilinear", 0.0))
        assert len(out) == len(tone)
        assert out.sample_rate == tone.sample_rate
        assert interior_snr_db(tone.samples, out.samples) >= 40.0

    def test_tone_frequency_mapping(self):
        # Expected output frequency evaluated numerically, independent of warp_value.
        alpha = -0.1
        tone = make_tone(1000.0)
        out = vtln_transform(tone, WarpSpec("bilinear", alpha))
        z = np.exp(1j * np.pi * 1000.0 / (SR / 2))
        expected = np.angle((z - alpha) / (1.0 - alpha * z)) * (SR / 2) / np.pi
        tolerance = SR / 1024  # one analysis bin
        assert abs(dominant_freq(out.samples) - expected) <= tolerance

    def test_strong_quadratic_on_noise_stays_bounded(self):
        rng = np.random.default_rng(11)
        noise = AudioBuffer(0.2 * rng.standard_normal(3 * SR), SR)
        out = vtln_transform(noise, WarpSpec("quadratic", 0.057 * 25))
        assert np.all(np.isfinite(out.samples))
        ratio = np.sqrt(np.mean(out.samples**2) / np.mean(noise.samples**2))
        assert 0.25 <= ratio <= 4.0


ANALYSIS_SPECS = [
    WarpSpec("symmetric", 0.8),
    WarpSpec("symmetric", 1.0),
    WarpSpec("symmetric", 1.2),
    WarpSpec("asymmetric", 0.9),
    WarpSpec("asymmetric", 1.1),
    WarpSpec("quadratic", -1.0),
    WarpSpec("quadratic", 0.0),
    WarpSpec("quadratic", 0.57),
    WarpSpec("power", 0.8),
    WarpSpec("power", 1.25),
    WarpSpec("bilinear", -0.1),
    WarpSpec("bilinear", 0.0),
    WarpSpec("bilinear", 0.16),
]


class TestAnalyseOnce:
    def test_reused_analysis_equals_fresh_vtln_transform(self):
        buf = make_vowel(seconds=0.7)
        analysis = analyse_warp(buf)
        magnitude, phase = analysis.magnitude.copy(), analysis.phase.copy()
        for i in np.random.default_rng(9).permutation(len(ANALYSIS_SPECS)):
            spec = ANALYSIS_SPECS[i]
            reused = warp_analysed(analysis, spec)
            assert reused.samples.tobytes() == vtln_transform(buf, spec).samples.tobytes()
        assert np.array_equal(analysis.magnitude, magnitude)
        assert np.array_equal(analysis.phase, phase)
        assert not analysis.magnitude.flags.writeable
        assert not analysis.phase.flags.writeable
        with pytest.raises(ValueError):
            analysis.phase[0, 0] = 0.0


def straightforward_resample(mag, phase, pos):
    """The interpolation ``_resample_frames`` computes in place, as one expression."""
    idx = np.clip(pos.astype(np.intp), 0, mag.shape[-1] - 2)
    frac = pos - idx
    out_mag = (1.0 - frac) * mag[..., idx] + frac * mag[..., idx + 1]
    out_phase = (1.0 - frac) * phase[..., idx] + frac * phase[..., idx + 1]
    return out_mag * np.exp(1j * out_phase)


class TestResampleFrames:
    SWEEP_SPECS = [
        WarpSpec(algo, DegreeSchedule(algo).parameter(degree, gender))
        for algo in ("quadratic", "bilinear")
        for gender in ("M", "F")
        for degree in range(26)
    ]

    @pytest.mark.parametrize("seed", [3, 4])
    def test_bytes_equal_straightforward_form(self, seed):
        # 0.5 s, 0.3 s and 0.05 s give 28, 15 and 1 frames: the two halves
        # _resample_frames splits the frames into are equal, unequal, or
        # one of them is empty.
        rng = np.random.default_rng(seed)
        bufs = []
        for seconds, n_frames in ((0.5, 28), (0.3, 15), (0.05, 1)):
            noise = AudioBuffer(0.2 * rng.standard_normal(int(SR * seconds)), SR)
            bufs += [make_vowel(f0=100.0 + 60.0 * seed, seconds=seconds), noise]
            assert analyse_warp(noise).phase.shape[0] == n_frames
        for buf in bufs:
            analysis = analyse_warp(buf)
            for spec in ANALYSIS_SPECS + self.SWEEP_SPECS:
                pos = vtln._source_positions(spec, analysis.config.n_bins)
                got = vtln._resample_frames(analysis.magnitude, analysis.phase, pos)
                want = straightforward_resample(analysis.magnitude, analysis.phase, pos)
                assert got.dtype == np.complex128
                assert got.tobytes() == want.tobytes(), spec


# Steps a row may take: exact multiples of pi (so steps of exactly +pi and
# -pi, and multiples of 2 pi, arise between neighbours) mixed with any finite
# phase.
PHASE_VALUES = st.one_of(
    st.sampled_from([k * np.pi for k in range(-4, 5)]),
    st.floats(-40.0, 40.0, allow_nan=False, allow_infinity=False),
)


@st.composite
def phase_stacks(draw):
    n_frames = draw(st.integers(1, 3))
    n_bins = draw(st.sampled_from([1, 2, 3, 9, 513]))
    values = draw(st.lists(PHASE_VALUES, min_size=n_frames * n_bins, max_size=n_frames * n_bins))
    return np.array(values, dtype=np.float64).reshape(n_frames, n_bins)


# One frame with steps of exactly +pi, -pi, +2 pi and -2 pi, and two of
# about 3 pi and -4 pi.
EXACT_STEPS = np.array(
    [[0.0, np.pi, 0.0, -np.pi, np.pi, -np.pi, 0.0, 2 * np.pi, 0.0, 3 * np.pi, -np.pi]]
)


class TestUnwrapRows:
    """vtln._unwrap_rows corrects only the steps that wrap; it must give np.unwrap's bytes."""

    def test_exact_steps_occur(self):
        steps = np.diff(EXACT_STEPS, axis=1)
        for step in (np.pi, -np.pi, 2 * np.pi, -2 * np.pi):
            assert np.any(steps == step)

    @settings(max_examples=400, deadline=None)
    @given(phase=phase_stacks())
    @example(phase=EXACT_STEPS)
    @example(phase=np.vstack([EXACT_STEPS, -EXACT_STEPS, EXACT_STEPS[:, ::-1]]))
    @example(phase=np.array([[np.pi], [-np.pi]]))
    @example(phase=np.array([[-np.pi, np.pi]]))
    def test_bytes_equal_np_unwrap(self, phase):
        want = np.unwrap(phase, axis=1)
        got = vtln._unwrap_rows(phase.copy())
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()

    def test_corpus_analysis_phase_equals_np_unwrap(self, tmp_path):
        manifest = synth_corpus(3, 2, 2, tmp_path)
        for entry in manifest.entries[:2]:
            buf = read_wav(entry.path)
            want = np.unwrap(np.angle(stft(buf).frames), axis=1)
            assert analyse_warp(buf).phase.tobytes() == want.tobytes()


def real_frames(n_frames, n_bins=513):
    return np.ones((n_frames, n_bins))


class TestWarpAnalysisChecks:
    """A WarpAnalysis must be one analysis of config.n_bins-bin frames."""

    CASES = {
        "phase with fewer bins": lambda: (real_frames(3), real_frames(3, 400)),
        "both with 400 bins": lambda: (real_frames(3, 400), real_frames(3, 400)),
        "one-dimensional": lambda: (np.ones(513), np.ones(513)),
        "different frame counts": lambda: (real_frames(3), real_frames(2)),
        "no frames": lambda: (real_frames(0), real_frames(0)),
        "complex phase": lambda: (real_frames(3), real_frames(3).astype(complex)),
    }

    @pytest.mark.parametrize("case", list(CASES))
    def test_refused(self, case):
        magnitude, phase = self.CASES[case]()
        with pytest.raises(InvalidConfig):
            WarpAnalysis(magnitude, phase, StftConfig(), SR, 1024)

    @pytest.mark.parametrize("n_samples", [-10, 2.5, "7", True])
    def test_a_length_that_is_not_a_count_is_refused(self, n_samples):
        # istft refused the first three only after the whole warp; True passed as one sample.
        with pytest.raises(InvalidConfig, match="n_samples"):
            WarpAnalysis(real_frames(3), real_frames(3), StftConfig(), SR, n_samples)

    def test_one_analysis_is_accepted(self):
        analysis = WarpAnalysis(real_frames(3), real_frames(3), StftConfig(), SR, 1024)
        assert len(warp_analysed(analysis, WarpSpec("quadratic", 0.5))) == 1024
