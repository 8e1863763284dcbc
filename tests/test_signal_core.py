import dataclasses
import struct
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from voicemask import (
    AudioBuffer,
    SpeakerModel,
    SweepResult,
    SweepRow,
    analyse_pitch,
    analyse_warp,
    emit_report,
    istft,
    read_wav,
    save_models,
    stft,
    synth_corpus,
    write_wav,
)
from voicemask.errors import (
    InvalidConfig,
    IoFailure,
    MalformedWav,
    NonFiniteSignal,
    UnsupportedEncoding,
    VoicemaskError,
)
from voicemask.signal_core import _BLOCK_FRAMES as B
from voicemask.signal_core import (
    FRAME_LEN,
    HOP,
    N_BINS,
    _overlap_divisor,
    _window_samples,
    read_text,
)

from helpers import SR, interior_snr_db, make_tone, traced_peak


def frame_by_frame(spec):
    """istft's output at its natural length, from the plain loop that adds frame t at t * HOP."""
    n, hop = FRAME_LEN, HOP
    w = _window_samples(n)
    frames = np.fft.irfft(spec, n=n, axis=1) * w
    acc = np.zeros((len(spec) - 1) * hop + n)
    norm = np.zeros_like(acc)
    for t, frame in enumerate(frames):
        acc[t * hop : t * hop + n] += frame
        norm[t * hop : t * hop + n] += w * w
    return acc / np.maximum(norm, 1e-2 * norm.max())


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

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_samples_are_non_finite_signal(self, bad):
        with pytest.raises(NonFiniteSignal) as caught:
            AudioBuffer(np.array([0.0, bad]), SR)
        assert isinstance(caught.value, VoicemaskError) and isinstance(caught.value, ValueError)

    def test_rejects_bad_rate(self):
        with pytest.raises(ValueError):
            AudioBuffer(np.zeros(4), 0)

    def test_samples_are_read_only(self):
        buf = AudioBuffer(np.zeros(4), SR)
        with pytest.raises(ValueError):
            buf.samples[0] = 1.0

    def test_empty_allowed(self):
        assert len(AudioBuffer(np.zeros(0), SR)) == 0

    @pytest.mark.parametrize(
        "call",
        [
            lambda: AudioBuffer(np.zeros((2, 4)), SR),
            lambda: AudioBuffer(np.zeros(4), 0),
            lambda: istft(np.zeros(N_BINS, dtype=complex), SR, FRAME_LEN),
            lambda: istft(np.zeros((0, N_BINS), dtype=complex), SR, FRAME_LEN),
            lambda: istft(np.zeros((1, 33), dtype=complex), SR, FRAME_LEN),
            lambda: istft(np.zeros((1, N_BINS), dtype=complex), 0, FRAME_LEN),
        ],
        ids=["samples not 1-D", "bad rate", "frames not 2-D", "no frames", "33 bins", "istft rate"],
    )
    def test_bad_shapes_and_rates_are_invalid_config(self, call):
        with pytest.raises(InvalidConfig) as caught:
            call()
        assert isinstance(caught.value, VoicemaskError) and isinstance(caught.value, ValueError)

    @pytest.mark.parametrize(
        "rate",
        [16000.9, 16000.0, np.float64(16000.0), True, np.True_, "16000", "abc", None, 0, -1],
        ids=[
            "16000.9", "16000.0", "np.float64", "True", "np.True_", "str 16000", "abc", "None", "0", "-1"
        ],
    )
    def test_a_rate_that_is_not_a_count_is_invalid_config(self, rate):
        # int() once turned 16000.9 into 16000, True into 1 Hz and "16000"
        # into 16000, and raised a bare ValueError or TypeError for the rest.
        with pytest.raises(InvalidConfig, match="^sample_rate must be an integer >= 1, got "):
            AudioBuffer(np.zeros(4), rate)
        with pytest.raises(InvalidConfig, match="^sample_rate must be an integer >= 1, got "):
            istft(np.zeros((1, N_BINS), dtype=complex), rate, FRAME_LEN)

    @pytest.mark.parametrize("rate", [np.int16(8000), np.int64(16000), np.uint32(44100)])
    def test_a_numpy_integer_rate_is_kept_as_an_int(self, rate):
        buf = AudioBuffer(np.zeros(4), rate)
        assert buf.sample_rate == rate and type(buf.sample_rate) is int

    def test_the_callers_array_is_copied(self):
        samples = np.arange(4.0)
        buf = AudioBuffer(samples, SR)
        samples[0] = 9.0
        assert buf.samples.tolist() == [0.0, 1.0, 2.0, 3.0]
        assert samples.flags.writeable


class TestGeometry:
    def test_geometry_satisfies_cola(self):
        # Away from the first and last frame, istft's divisor (the overlapped
        # squared window) is flat.
        divisor = _overlap_divisor(40)
        steady = divisor[FRAME_LEN:-FRAME_LEN]
        assert np.ptp(steady) / steady.mean() < 1e-6

    def test_window_is_built_once_and_shared_read_only(self):
        w = _window_samples(FRAME_LEN)
        assert w.tobytes() == (0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(1024) / 1024)).tobytes()
        assert w is _window_samples(FRAME_LEN)
        with pytest.raises(ValueError):
            w[0] = 0.25


class TestReadWav:
    def test_16bit_scaling(self, tmp_path):
        payload = struct.pack("<3h", 0, 16384, -16384)
        path = tmp_path / "a.wav"
        path.write_bytes(wav_bytes(1, 1, SR, 16, payload))
        buf = read_wav(path)
        assert buf.sample_rate == SR
        np.testing.assert_array_equal(buf.samples, [0.0, 0.5, -0.5])

    @pytest.mark.parametrize(
        "fmt_tag,channels,bits,dtype,decode",
        [
            (1, 1, 8, np.uint8, lambda raw: (raw.astype(np.float64) - 128.0) / 128.0),
            (1, 1, 16, "<i2", lambda raw: raw.astype(np.float64) / 32768.0),
            (1, 2, 16, "<i2", lambda raw: (raw.astype(np.float64) / 32768.0).reshape(-1, 2).mean(1)),
            (3, 1, 32, "<f4", lambda raw: raw.astype(np.float64)),
        ],
        ids=["8-bit", "16-bit", "16-bit stereo", "float"],
    )
    def test_decodes_the_bytes_of_the_plain_formulas(
        self, tmp_path, fmt_tag, channels, bits, dtype, decode
    ):
        rng = np.random.default_rng(bits)
        if fmt_tag == 3:
            raw = rng.uniform(-1.0, 1.0, 1000).astype(dtype)
        else:
            info = np.iinfo(dtype)
            raw = rng.integers(info.min, info.max, 1000, endpoint=True).astype(dtype)
        path = tmp_path / "r.wav"
        path.write_bytes(wav_bytes(fmt_tag, channels, SR, bits, raw.tobytes()))
        assert read_wav(path).samples.tobytes() == decode(raw).tobytes()

    def test_samples_are_read_only(self, tmp_path):
        path = tmp_path / "ro.wav"
        path.write_bytes(wav_bytes(1, 1, SR, 16, struct.pack("<3h", 0, 1, 2)))
        with pytest.raises(ValueError):
            read_wav(path).samples[0] = 1.0

    def test_a_3s_file_traces_little_more_than_its_output(self, tmp_path):
        # The 16-bit samples are widened once into the buffer's array. While
        # they are, the file's bytes (a quarter of the output) are held, so
        # the peak is 1.26x the 384 kB output; it was 2.63x when the chunk
        # slice, astype, the division and AudioBuffer's copy each made one.
        path = tmp_path / "3s.wav"
        write_wav(path, make_tone(220.0))
        buf = read_wav(path)
        assert buf.samples.nbytes == 384000
        assert traced_peak(read_wav, path) <= 1.3 * buf.samples.nbytes

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

    def test_rate_past_the_header_is_refused_before_writing(self, tmp_path):
        # The header stores the byte rate, 2 * 3e9, in 32 bits.
        path = tmp_path / "fast.wav"
        with pytest.raises(UnsupportedEncoding, match="sample rate 3000000000 Hz"):
            write_wav(path, AudioBuffer(np.zeros(10), 3_000_000_000))
        assert not path.exists()

    def test_largest_rate_that_fits_round_trips(self, tmp_path):
        path = tmp_path / "edge.wav"
        write_wav(path, AudioBuffer(np.zeros(10), 2**31 - 1))
        assert read_wav(path).sample_rate == 2**31 - 1


class TestPathWithANulByte:
    """The system refuses a path holding a NUL byte; every reader and writer says IoFailure."""

    @pytest.mark.parametrize(
        "call",
        [
            read_wav,
            read_text,
            lambda path: write_wav(path, AudioBuffer(np.zeros(4), SR)),
            lambda path: save_models(path, [SpeakerModel("spk00", "M", np.eye(2), 10)]),
            lambda path: emit_report(SweepResult((SweepRow("voc", "M", 0, 1.0, 1.0, 1),)), path),
            lambda path: synth_corpus(1, 2, 2, path),
        ],
        ids=["read_wav", "read_text", "write_wav", "save_models", "emit_report", "synth_corpus"],
    )
    def test_is_io_failure(self, tmp_path, call):
        with pytest.raises(IoFailure, match="embedded null byte"):
            call(tmp_path / "a\0b")
        assert list(tmp_path.iterdir()) == []

class TestStft:
    def test_zero_signal_frame_count(self):
        frames = stft(AudioBuffer(np.zeros(4096), SR))
        assert frames.shape == (13, 513) and frames.dtype == np.complex128
        assert np.all(frames == 0)

    @pytest.mark.parametrize("length", [1024, 1025, 2048, 5000])
    def test_frame_count_formula(self, length):
        frames = stft(AudioBuffer(np.zeros(length), SR))
        assert len(frames) == (length - 1024) // 256 + 1

    def test_short_signal_zero_padded(self):
        assert len(stft(AudioBuffer(np.ones(100), SR))) == 1

    def test_samples_too_large_to_transform(self):
        # Up to max_float / (4 * FRAME_LEN**2) the spectrum, and any inverse
        # of a modified one, stays finite; above it stft raises.
        limit = np.finfo(np.float64).max / (4.0 * FRAME_LEN**2)
        x = np.full(3 * FRAME_LEN, limit)
        assert np.all(np.isfinite(stft(AudioBuffer(x, SR))))
        x[-1] = -np.nextafter(limit, np.inf)
        with pytest.raises(NonFiniteSignal) as caught:
            stft(AudioBuffer(x, SR))
        assert isinstance(caught.value, ValueError)

    def test_overflowing_spectrum_is_non_finite_signal(self):
        # Samples of 1.7e308 used to overflow the FFT to inf.
        with pytest.raises(NonFiniteSignal):
            stft(AudioBuffer(np.full(4096, 1.7e308), SR))

    def test_impulse_matches_analytic_dft(self):
        # Windowed impulse at sample n0: bin k must equal w[n0] * exp(-2i pi k n0 / N).
        n0 = 37
        x = np.zeros(1024)
        x[n0] = 1.0
        frames = stft(AudioBuffer(x, SR))
        w = _window_samples(FRAME_LEN)
        k = np.arange(N_BINS)
        expected = w[n0] * np.exp(-2j * np.pi * k * n0 / FRAME_LEN)
        np.testing.assert_allclose(frames[0], expected, atol=1e-12)

    def test_bin_exact_sine_peaks_at_its_bin(self):
        k = 32
        freq = k * SR / 1024
        frames = stft(make_tone(freq, seconds=0.5))
        assert np.argmax(np.abs(frames[2])) == k

    def test_real_signal_edge_bins_are_real(self):
        rng = np.random.default_rng(3)
        frames = stft(AudioBuffer(rng.standard_normal(4096), SR))
        assert np.max(np.abs(frames[:, 0].imag)) < 1e-9
        assert np.max(np.abs(frames[:, -1].imag)) < 1e-9

    def test_linearity(self):
        rng = np.random.default_rng(4)
        x = rng.standard_normal(4096)
        y = rng.standard_normal(4096)
        a, b = 0.7, -1.3
        combined = stft(AudioBuffer(a * x + b * y, SR))
        separate = a * stft(AudioBuffer(x, SR)) + b * stft(AudioBuffer(y, SR))
        np.testing.assert_allclose(combined, separate, atol=1e-9 * np.abs(separate).max())

    def test_windowed_frame_parseval(self):
        rng = np.random.default_rng(5)
        x = rng.standard_normal(1024)
        frame = _window_samples(FRAME_LEN) * x
        spectrum = stft(AudioBuffer(x, SR))[0]
        time_energy = np.sum(frame**2)
        mags = np.abs(spectrum) ** 2
        spec_energy = (mags[0] + 2.0 * np.sum(mags[1:-1]) + mags[-1]) / FRAME_LEN
        assert abs(time_energy - spec_energy) / time_energy < 1e-6


def gathered_stft(x):
    """The STFT with its frames gathered by a 2-D fancy index, as stft once built them."""
    n, hop = FRAME_LEN, HOP
    if x.size < n:
        x = np.concatenate([x, np.zeros(n - x.size)])
    offsets = hop * np.arange((x.size - n) // hop + 1)
    frames = x[offsets[:, None] + np.arange(n)[None, :]] * _window_samples(n)
    return np.fft.rfft(frames, axis=1)


class TestStftFraming:
    """stft frames through a strided view; it must give the gathered frames' exact bits."""

    # Shorter than a frame, and one sample either side of each of the first
    # twelve frame counts, where the last partial hop is dropped.
    @pytest.mark.parametrize("length", [
        1, 10, 255, 256, 257, 1023, 1024, 1025, 1279, 1280, 1281,
        *(FRAME_LEN + k * HOP + d for k in range(2, 12) for d in (-1, 0, 1)),
        5001, 16000, 48000,
    ])
    def test_byte_equal_to_gathered_frames(self, length):
        x = np.random.default_rng(length).standard_normal(length)
        got = stft(AudioBuffer(x, SR))
        want = gathered_stft(x)
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("length", [10, 1024, 1281, 5001])
    @pytest.mark.parametrize("scale", [1e-310, 1e-150, 1e150, 1e301])
    def test_byte_equal_at_extreme_amplitudes(self, scale, length):
        # From subnormal samples to just under the largest stft transforms.
        x = np.random.default_rng(length).uniform(-1.0, 1.0, length) * scale
        got = stft(AudioBuffer(x, SR))
        assert np.isfinite(got).all()
        assert got.tobytes() == gathered_stft(x).tobytes()

    def test_on_a_tone(self):
        buf = make_tone(440.0)
        assert stft(buf).tobytes() == gathered_stft(buf.samples).tobytes()


class TestIstft:
    def test_output_is_read_only(self):
        out = istft(stft(make_tone(440.0, seconds=0.25)), SR, 4000)
        with pytest.raises(ValueError):
            out.samples[0] = 1.0

    def test_round_trip_snr(self):
        rng = np.random.default_rng(6)
        x = rng.standard_normal(3 * SR)
        buf = AudioBuffer(x, SR)
        back = istft(stft(buf), SR, len(buf))
        assert interior_snr_db(x, back.samples) >= 60.0

    def test_zero_spectrogram(self):
        assert np.all(istft(np.zeros((5, 513), dtype=complex), SR, 2048).samples == 0)

    def test_single_frame_windowed_sine(self):
        # One frame resynthesizes to the sine wherever the squared window is
        # well conditioned (the normalizer floors near the frame edges).
        tone = make_tone(500.0, seconds=1024 / SR)
        out = istft(stft(tone)[:1], SR, FRAME_LEN).samples
        w_sq = _window_samples(FRAME_LEN) ** 2
        usable = w_sq > 0.01 * w_sq.max()
        np.testing.assert_allclose(out[usable], tone.samples[usable], atol=1e-9)

    def test_preserves_sample_rate(self):
        buf = make_tone(440, seconds=0.5, sr=8000)
        assert istft(stft(buf), 8000, len(buf)).sample_rate == 8000

    @pytest.mark.parametrize("n_frames", [
        1, 2, 3, 4, 5, 6, 7, 8, B - 1, B, B + 1, 2 * B - 1, 2 * B, 2 * B + 1, 2 * B + 3, 3 * B,
    ])
    def test_equals_frame_by_frame_overlap_add(self, n_frames):
        # Bytes of the plain loop that adds frame t at sample t * HOP; frame
        # counts below FRAME_LEN / HOP leave output rows that not every
        # hop-wide piece reaches, and counts around B a partial last block.
        rng = np.random.default_rng(n_frames)
        frames = stft(AudioBuffer(rng.standard_normal((n_frames - 1) * HOP + FRAME_LEN), SR))
        assert len(frames) == n_frames
        spec = frames * np.exp(2j * np.pi * rng.random(frames.shape))
        want = frame_by_frame(spec)
        # Trimmed (a numpy integer too), at, and zero-padded past the natural length.
        for n_samples in (want.size // 2, np.int64(want.size - 1), want.size, want.size + HOP + 1):
            padded = np.concatenate([want, np.zeros(HOP + 1)])[:n_samples]
            assert istft(spec, SR, n_samples).samples.tobytes() == padded.tobytes()

    @pytest.mark.parametrize("n_frames", [1, B - 1, B, B + 1, 2 * B + 3])
    @pytest.mark.parametrize(
        "layout", ["Fortran order", "strided view", "read-only", "complex64", "nested lists"]
    )
    def test_any_array_layout_gives_the_frame_by_frame_bytes(self, layout, n_frames):
        # Blocks are sliced from whatever array the caller passes; the bytes
        # are those of its complex128 values.
        rng = np.random.default_rng(n_frames)
        shape = (2 * n_frames, N_BINS)
        stack = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        spec = stack[:n_frames]
        if layout == "Fortran order":
            spec = np.asfortranarray(spec)
        elif layout == "strided view":
            spec = stack[::2]
        elif layout == "read-only":
            spec.setflags(write=False)
        elif layout == "complex64":
            spec = spec.astype(np.complex64)
        want = frame_by_frame(np.array(spec, dtype=np.complex128))
        if layout == "nested lists":
            spec = spec.tolist()
        assert istft(spec, SR, want.size).samples.tobytes() == want.tobytes()

    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.sampled_from([1, 63, 64, 65, 184]),
                # The natural length plus this (-1100 asks for none).
                st.sampled_from([-1100, -1, 0, 1, 25]),
            ),
            min_size=2,
            max_size=8,
        )
    )
    def test_cached_divisor_keeps_the_frame_by_frame_bytes(self, calls):
        # A divisor served for the wrong frame count or length would show
        # in the bytes.
        for i, (n_frames, extra) in enumerate(calls):
            rng = np.random.default_rng([i, n_frames])
            shape = (n_frames, N_BINS)
            spec = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
            n_samples = max(0, (n_frames - 1) * HOP + FRAME_LEN + extra)
            want = np.concatenate([frame_by_frame(spec), np.zeros(n_samples)])[:n_samples]
            assert istft(spec, SR, n_samples).samples.tobytes() == want.tobytes()

    @pytest.mark.parametrize("n_samples", [-5, -1, 2.5, 4096.0, "4096", True])
    def test_a_length_that_is_not_a_count_is_invalid_config(self, n_samples):
        # A negative length once counted back from the end, a float failed
        # as a bare TypeError, and True passed as a 1-sample output.
        spec = stft(make_tone(440.0, seconds=4096 / SR))
        with pytest.raises(InvalidConfig, match="n_samples"):
            istft(spec, SR, n_samples)

    @pytest.mark.parametrize("transform", ["pitch", "warp"])
    def test_an_analysis_with_a_negative_length_is_invalid_config(self, transform):
        # Refused when built, not after the whole shift or warp is rendered.
        analyse = analyse_pitch if transform == "pitch" else analyse_warp
        analysis = analyse(make_tone(440.0, seconds=4096 / SR))
        with pytest.raises(InvalidConfig, match="n_samples"):
            dataclasses.replace(analysis, n_samples=-10)

    def test_cached_divisor_is_read_only_and_bounded(self):
        size = _overlap_divisor.cache_info().maxsize
        assert size is not None and size <= 4
        divisor = _overlap_divisor(184)
        assert not divisor.flags.writeable
        assert _overlap_divisor(184) is divisor
        for n_frames in range(1, 3 * size):
            _overlap_divisor(n_frames)
        assert _overlap_divisor.cache_info().currsize == size

    def test_memory_stays_below_a_whole_cell_stack(self):
        # A 184-frame cell's whole inverse-FFT stack alone is 1.5 MB. Blocks
        # and the cached divisor keep the peak, output included, at 1.44 MB;
        # the bound leaves about 10% of margin.
        spec = stft(AudioBuffer(np.random.default_rng(3).standard_normal(3 * SR), SR))
        assert len(spec) == 184
        assert traced_peak(istft, spec, SR, 3 * SR) <= 1.6e6
