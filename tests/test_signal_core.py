import struct
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from voicemask import AudioBuffer, Spectrogram, StftConfig, istft, read_wav, stft, write_wav
from voicemask.errors import (
    InvalidConfig,
    IoFailure,
    MalformedWav,
    UnsupportedEncoding,
    VoicemaskError,
)
from voicemask.signal_core import cola_deviation

from helpers import SR, interior_snr_db, make_tone


def wav_bytes(fmt_tag, channels, rate, bits, payload):
    header = b"RIFF" + struct.pack("<I", 36 + len(payload)) + b"WAVE"
    header += b"fmt " + struct.pack(
        "<IHHIIHH", 16, fmt_tag, channels, rate, rate * channels * bits // 8, channels * bits // 8, bits
    )
    return header + b"data" + struct.pack("<I", len(payload)) + payload


PCM_GUID = bytes.fromhex("0100000000001000800000aa00389b71")
FLOAT_GUID = bytes.fromhex("0300000000001000800000aa00389b71")


def extensible_wav_bytes(channels, rate, bits, payload, guid, cb_size=22):
    """A WAVE_FORMAT_EXTENSIBLE file: the 16-byte fmt, cbSize and a 22-byte extension."""
    block = channels * bits // 8
    fmt = struct.pack("<HHIIHH", 0xFFFE, channels, rate, rate * block, block, bits)
    fmt += struct.pack("<HHI", cb_size, bits, 0x3) + guid
    header = b"RIFF" + struct.pack("<I", 4 + 8 + len(fmt) + 8 + len(payload)) + b"WAVE"
    header += b"fmt " + struct.pack("<I", len(fmt)) + fmt
    return header + b"data" + struct.pack("<I", len(payload)) + payload


class TestAudioBuffer:
    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            AudioBuffer(np.array([0.0, np.nan]), SR)

    def test_rejects_bad_rate(self):
        with pytest.raises(ValueError):
            AudioBuffer(np.zeros(4), 0)

    def test_samples_are_read_only(self):
        buf = AudioBuffer(np.zeros(4), SR)
        with pytest.raises(ValueError):
            buf.samples[0] = 1.0

    def test_empty_allowed(self):
        assert len(AudioBuffer(np.zeros(0), SR)) == 0


class TestStftConfig:
    def test_defaults_satisfy_cola(self):
        assert cola_deviation(StftConfig()) < 1e-6

    @pytest.mark.parametrize("frame_len,hop", [(1000, 256), (1024, 0), (1024, 2048)])
    def test_invalid_geometry(self, frame_len, hop):
        with pytest.raises(InvalidConfig):
            StftConfig(frame_len=frame_len, hop=hop)

    def test_unknown_window(self):
        with pytest.raises(InvalidConfig):
            StftConfig(window="kaiser")


class TestReadWav:
    def test_16bit_scaling(self, tmp_path):
        payload = struct.pack("<3h", 0, 16384, -16384)
        path = tmp_path / "a.wav"
        path.write_bytes(wav_bytes(1, 1, SR, 16, payload))
        buf = read_wav(path)
        assert buf.sample_rate == SR
        np.testing.assert_array_equal(buf.samples, [0.0, 0.5, -0.5])

    def test_stereo_average(self, tmp_path):
        payload = struct.pack("<2f", 1.0, 0.0)
        path = tmp_path / "st.wav"
        path.write_bytes(wav_bytes(3, 2, SR, 32, payload))
        np.testing.assert_allclose(read_wav(path).samples, [0.5])

    def test_empty_data_chunk(self, tmp_path):
        path = tmp_path / "empty.wav"
        path.write_bytes(wav_bytes(1, 1, SR, 16, b""))
        assert len(read_wav(path)) == 0

    def test_24bit(self, tmp_path):
        payload = bytes([0x00, 0x00, 0x80, 0xFF, 0xFF, 0x7F])  # min, max codes
        path = tmp_path / "b.wav"
        path.write_bytes(wav_bytes(1, 1, SR, 24, payload))
        np.testing.assert_allclose(read_wav(path).samples, [-1.0, 8388607 / 8388608])

    def test_8bit(self, tmp_path):
        path = tmp_path / "c.wav"
        path.write_bytes(wav_bytes(1, 1, 8000, 8, bytes([0, 128, 255])))
        np.testing.assert_allclose(read_wav(path).samples, [-1.0, 0.0, 127 / 128])

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.wav"
        path.write_bytes(b"RIFX" + b"\x00" * 40)
        with pytest.raises(MalformedWav):
            read_wav(path)

    def test_truncated_data(self, tmp_path):
        good = wav_bytes(1, 1, SR, 16, struct.pack("<4h", 1, 2, 3, 4))
        path = tmp_path / "trunc.wav"
        path.write_bytes(good[:-5])
        with pytest.raises(MalformedWav):
            read_wav(path)

    def test_compressed_rejected(self, tmp_path):
        path = tmp_path / "ulaw.wav"
        path.write_bytes(wav_bytes(7, 1, 8000, 8, bytes(8)))
        with pytest.raises(UnsupportedEncoding):
            read_wav(path)

    def test_missing_file_is_io_failure(self, tmp_path):
        with pytest.raises(IoFailure):
            read_wav(tmp_path / "none.wav")

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_float_samples_rejected(self, tmp_path, bad):
        path = tmp_path / "nan.wav"
        path.write_bytes(wav_bytes(3, 1, SR, 32, struct.pack("<3f", 0.5, bad, 0.0)))
        with pytest.raises(MalformedWav):
            read_wav(path)


    def test_signalling_nan_rejected_without_warning(self, tmp_path):
        path = tmp_path / "snan.wav"
        payload = struct.pack("<3I", 0x3F000000, 0x7FA00000, 0)  # 0.5, sNaN, 0.0
        path.write_bytes(wav_bytes(3, 1, SR, 32, payload))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(MalformedWav):
                read_wav(path)


class TestExtensibleWav:
    def test_24bit_stereo_pcm_decodes_like_tag_1(self, tmp_path):
        payload = bytes([0x00, 0x00, 0x80, 0xFF, 0xFF, 0x7F, 0x00, 0x00, 0x40, 0x00, 0x00, 0x00])
        plain, extensible = tmp_path / "plain.wav", tmp_path / "ext.wav"
        plain.write_bytes(wav_bytes(1, 2, SR, 24, payload))
        extensible.write_bytes(extensible_wav_bytes(2, SR, 24, payload, PCM_GUID))
        got = read_wav(extensible)
        assert got.samples.tobytes() == read_wav(plain).samples.tobytes()
        np.testing.assert_allclose(got.samples, [(-1.0 + 8388607 / 8388608) / 2, 0.25])
        assert got.sample_rate == SR

    def test_float32_decodes_like_tag_3(self, tmp_path):
        payload = struct.pack("<4f", 0.5, -0.25, 1.0, 0.0)
        plain, extensible = tmp_path / "plain.wav", tmp_path / "ext.wav"
        plain.write_bytes(wav_bytes(3, 1, SR, 32, payload))
        extensible.write_bytes(extensible_wav_bytes(1, SR, 32, payload, FLOAT_GUID))
        got = read_wav(extensible)
        assert got.samples.tobytes() == read_wav(plain).samples.tobytes()
        np.testing.assert_array_equal(got.samples, [0.5, -0.25, 1.0, 0.0])

    @pytest.mark.parametrize(
        "guid",
        [
            bytes.fromhex("0700000000001000800000aa00389b71"),  # mu-law
            bytes.fromhex("0100000000001000800000aa00389b72"),  # PCM code, foreign GUID tail
        ],
    )
    def test_other_subformat_rejected(self, tmp_path, guid):
        path = tmp_path / "ext.wav"
        path.write_bytes(extensible_wav_bytes(1, SR, 16, bytes(8), guid))
        with pytest.raises(UnsupportedEncoding):
            read_wav(path)

    def test_short_extension_is_malformed(self, tmp_path):
        path = tmp_path / "ext.wav"
        path.write_bytes(extensible_wav_bytes(1, SR, 16, bytes(8), PCM_GUID, cb_size=10))
        with pytest.raises(MalformedWav):
            read_wav(path)


# A valid two-channel float WAV for the mutation fuzzer: 44 header bytes, 16 frames.
# Samples of odd binary exponent (+-1.0, +-0.3) turn into +-inf or NaN when their
# top byte becomes 0x7F or 0xFF.
_VALID_FLOAT_WAV = wav_bytes(
    3, 2, SR, 32, struct.pack("<32f", *[-1.0, -0.6, -0.3, 0.0, 0.1, 0.3, 0.6, 1.0] * 4)
)
# Byte values worth trying first, as fuzzers do: sign, exponent and range edges.
_BYTE_VALUES = st.one_of(st.sampled_from([0x00, 0x01, 0x7F, 0x80, 0xFF]), st.integers(0, 255))


class TestReadWavFuzz:
    """Whatever a file holds, read_wav returns a buffer or raises a VoicemaskError."""

    @staticmethod
    def read_only_fails_as_voicemask_error(tmp_path_factory, data: bytes):
        path = tmp_path_factory.getbasetemp() / "fuzz.wav"
        path.write_bytes(data)
        try:
            read_wav(path)
        except VoicemaskError:
            pass

    @settings(max_examples=300, deadline=None)
    @given(
        data=st.one_of(
            st.binary(max_size=96),
            st.binary(max_size=96).map(lambda tail: b"RIFF\x00\x00\x00\x00WAVE" + tail),
        )
    )
    def test_arbitrary_bytes(self, tmp_path_factory, data):
        self.read_only_fails_as_voicemask_error(tmp_path_factory, data)

    @settings(max_examples=300, deadline=None)
    @given(
        edits=st.lists(
            st.tuples(st.integers(0, len(_VALID_FLOAT_WAV) - 1), _BYTE_VALUES),
            min_size=1,
            max_size=4,
        ),
        keep=st.one_of(st.none(), st.integers(0, len(_VALID_FLOAT_WAV) - 1)),  # None: no cut
    )
    def test_mutated_valid_wav(self, tmp_path_factory, edits, keep):
        data = bytearray(_VALID_FLOAT_WAV)
        for index, value in edits:
            data[index] = value
        self.read_only_fails_as_voicemask_error(tmp_path_factory, bytes(data[:keep]))


class TestWriteWav:
    def test_round_trip_quantization(self, tmp_path):
        path = tmp_path / "rt.wav"
        original = np.array([0.25, -0.25, 0.1234567, -0.9999])
        write_wav(path, AudioBuffer(original, SR))
        back = read_wav(path)
        assert np.max(np.abs(back.samples - original)) <= 2.0**-15

    def test_clipping(self, tmp_path):
        path = tmp_path / "clip.wav"
        write_wav(path, AudioBuffer(np.array([1.7]), SR))
        assert read_wav(path).samples[0] == 32767 / 32768

    def test_empty(self, tmp_path):
        path = tmp_path / "empty.wav"
        write_wav(path, AudioBuffer(np.zeros(0), SR))
        assert len(read_wav(path)) == 0

    def test_deterministic_bytes(self, tmp_path):
        buf = make_tone(440, seconds=0.1)
        write_wav(tmp_path / "a.wav", buf)
        write_wav(tmp_path / "b.wav", buf)
        assert (tmp_path / "a.wav").read_bytes() == (tmp_path / "b.wav").read_bytes()


class TestStft:
    def test_zero_signal_frame_count(self):
        sg = stft(AudioBuffer(np.zeros(4096), SR))
        assert sg.n_frames == 13
        assert sg.n_bins == 513
        assert np.all(sg.frames == 0)

    @pytest.mark.parametrize("length", [1024, 1025, 2048, 5000])
    def test_frame_count_formula(self, length):
        sg = stft(AudioBuffer(np.zeros(length), SR))
        assert sg.n_frames == (length - 1024) // 256 + 1

    def test_short_signal_zero_padded(self):
        sg = stft(AudioBuffer(np.ones(100), SR))
        assert sg.n_frames == 1

    def test_impulse_matches_analytic_dft(self):
        # Windowed impulse at sample n0: bin k must equal w[n0] * exp(-2i pi k n0 / N).
        n0 = 37
        x = np.zeros(1024)
        x[n0] = 1.0
        cfg = StftConfig()
        sg = stft(AudioBuffer(x, SR), cfg)
        w = cfg.window_samples()
        k = np.arange(cfg.n_bins)
        expected = w[n0] * np.exp(-2j * np.pi * k * n0 / cfg.frame_len)
        np.testing.assert_allclose(sg.frames[0], expected, atol=1e-12)

    def test_bin_exact_sine_peaks_at_its_bin(self):
        k = 32
        freq = k * SR / 1024
        sg = stft(make_tone(freq, seconds=0.5))
        assert np.argmax(np.abs(sg.frames[2])) == k

    def test_real_signal_edge_bins_are_real(self):
        rng = np.random.default_rng(3)
        sg = stft(AudioBuffer(rng.standard_normal(4096), SR))
        assert np.max(np.abs(sg.frames[:, 0].imag)) < 1e-9
        assert np.max(np.abs(sg.frames[:, -1].imag)) < 1e-9

    def test_linearity(self):
        rng = np.random.default_rng(4)
        x = rng.standard_normal(4096)
        y = rng.standard_normal(4096)
        a, b = 0.7, -1.3
        combined = stft(AudioBuffer(a * x + b * y, SR)).frames
        separate = a * stft(AudioBuffer(x, SR)).frames + b * stft(AudioBuffer(y, SR)).frames
        np.testing.assert_allclose(combined, separate, atol=1e-9 * np.abs(separate).max())

    def test_windowed_frame_parseval(self):
        rng = np.random.default_rng(5)
        x = rng.standard_normal(1024)
        cfg = StftConfig()
        frame = cfg.window_samples() * x
        spectrum = stft(AudioBuffer(x, SR), cfg).frames[0]
        time_energy = np.sum(frame**2)
        mags = np.abs(spectrum) ** 2
        spec_energy = (mags[0] + 2.0 * np.sum(mags[1:-1]) + mags[-1]) / cfg.frame_len
        assert abs(time_energy - spec_energy) / time_energy < 1e-6


class TestIstft:
    def test_round_trip_snr(self):
        rng = np.random.default_rng(6)
        x = rng.standard_normal(3 * SR)
        buf = AudioBuffer(x, SR)
        back = istft(stft(buf))
        assert interior_snr_db(x, back.samples) >= 60.0

    def test_zero_spectrogram(self):
        sg = Spectrogram(np.zeros((5, 513), dtype=complex), StftConfig(), SR)
        assert np.all(istft(sg).samples == 0)

    def test_single_frame_windowed_sine(self):
        # One frame resynthesizes to the sine wherever the squared window is
        # well conditioned (the normalizer floors near the frame edges).
        tone = make_tone(500.0, seconds=1024 / SR)
        sg = stft(tone)
        single = Spectrogram(sg.frames[:1], sg.config, SR)
        out = istft(single).samples
        w_sq = StftConfig().window_samples() ** 2
        usable = w_sq > 0.01 * w_sq.max()
        np.testing.assert_allclose(out[usable], tone.samples[usable], atol=1e-9)

    def test_preserves_sample_rate(self):
        buf = make_tone(440, seconds=0.5, sr=8000)
        assert istft(stft(buf)).sample_rate == 8000
