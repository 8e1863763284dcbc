import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from voicemask import (
    AudioBuffer,
    StftConfig,
    WarpSpec,
    analyse_warp,
    invert_warp,
    stft,
    vtln_transform,
    warp_analysed,
    warp_spectrum,
    warp_value,
)
from voicemask.errors import InvalidAlpha, NotInvertible

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
    def test_identity_parameter_preserves_frame(self):
        rng = np.random.default_rng(0)
        frame = rng.standard_normal(513) + 1j * rng.standard_normal(513)
        for spec in IDENTITY_SPECS:
            out = warp_spectrum(frame, spec)
            np.testing.assert_allclose(out, frame, atol=1e-9)

    def test_peak_moves_to_warped_position(self):
        spec = WarpSpec("bilinear", 0.3)
        n = 513
        frame = np.zeros(n, dtype=complex)
        peak_bin = 120
        frame[peak_bin - 2 : peak_bin + 3] = [0.2, 0.7, 1.0, 0.7, 0.2]
        out = warp_spectrum(frame, spec)
        expected_bin = warp_value(spec, np.pi * peak_bin / (n - 1)) / np.pi * (n - 1)
        assert abs(np.argmax(np.abs(out)) - expected_bin) <= 1.0

    def test_zero_frame(self):
        out = warp_spectrum(np.zeros(513, dtype=complex), WarpSpec("quadratic", 0.5))
        assert np.all(out == 0)

    def test_bin_count_preserved(self):
        frame = np.ones(257, dtype=complex)
        assert warp_spectrum(frame, WarpSpec("power", 0.8)).shape == (257,)


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

    def test_batch_path_matches_public_per_frame_op(self):
        from voicemask.vtln import _resample_frames, _source_positions

        tone = make_tone(800.0, seconds=0.5)
        spec = WarpSpec("quadratic", 0.8)
        sg = stft(tone, StftConfig())
        pos = _source_positions(spec, sg.n_bins)
        batch = _resample_frames(np.abs(sg.frames), np.unwrap(np.angle(sg.frames), axis=1), pos)
        per_frame = np.array([warp_spectrum(f, spec) for f in sg.frames])
        np.testing.assert_allclose(batch, per_frame, atol=1e-12)


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
