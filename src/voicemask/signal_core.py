"""Audio container, WAV and text file input, and STFT analysis/resynthesis.

Spectral frames are 1-D complex arrays holding the non-negative-frequency
half spectrum; bin k of an ``n``-bin frame sits at normalized angular
frequency ``pi * k / (n - 1)``.
"""

from __future__ import annotations

import functools
import os
import struct
import threading
from dataclasses import dataclass
from numbers import Integral
from pathlib import Path

import numpy as np

from .errors import (
    InvalidConfig,
    IoFailure,
    MalformedWav,
    NonFiniteSignal,
    ParseError,
    UnsupportedEncoding,
)

__all__ = [
    "AudioBuffer",
    "StftConfig",
    "Spectrogram",
    "bin_frequencies",
    "read_text",
    "read_wav",
    "write_wav",
    "stft",
    "istft",
]


@dataclass(frozen=True)
class AudioBuffer:
    """Mono sampled signal.

    Samples are float64 with nominal range [-1, 1]; the array is made
    read-only so buffers can be shared across threads without copying.
    """

    samples: np.ndarray
    sample_rate: int

    def __post_init__(self):
        self._settle(np.asarray(self.samples, dtype=np.float64).copy(), self.sample_rate)

    @classmethod
    def _adopt(cls, samples: np.ndarray, sample_rate) -> AudioBuffer:
        """A buffer holding samples, a float64 array its caller made and drops, without a copy."""
        buf = object.__new__(cls)
        buf._settle(samples, sample_rate)
        return buf

    def _settle(self, samples: np.ndarray, sample_rate) -> None:
        """Check samples and sample_rate, make samples read-only and set both fields."""
        if samples.ndim != 1:
            raise InvalidConfig("samples must be one-dimensional")
        # min and max carry any nan or inf through, with no array of flags.
        if samples.size and not (np.isfinite(samples.min()) and np.isfinite(samples.max())):
            raise NonFiniteSignal("samples must be finite")
        rate = _checked_rate(sample_rate)
        samples.setflags(write=False)
        object.__setattr__(self, "samples", samples)
        object.__setattr__(self, "sample_rate", rate)

    def __len__(self):
        return self.samples.size


@functools.lru_cache(maxsize=8)
def _window_samples(n: int) -> np.ndarray:
    """The periodic Hann window of n samples, built once and read-only.

    Periodic windows: the COLA property holds for hop = n / 2^k.
    """
    w = 0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(n) / n)
    w.setflags(write=False)
    return w


@dataclass(frozen=True)
class StftConfig:
    """Frame length (power of two) and hop; the analysis window is Hann."""

    frame_len: int = 1024
    hop: int = 256

    def __post_init__(self):
        if self.frame_len < 2 or self.frame_len & (self.frame_len - 1):
            raise InvalidConfig(f"frame_len must be a power of two, got {self.frame_len}")
        if not 0 < self.hop <= self.frame_len:
            raise InvalidConfig(f"hop must satisfy 0 < hop <= frame_len, got {self.hop}")

    @property
    def n_bins(self) -> int:
        return self.frame_len // 2 + 1

    def window_samples(self) -> np.ndarray:
        """The analysis window: one shared read-only array per frame_len."""
        return _window_samples(self.frame_len)


@dataclass(frozen=True)
class Spectrogram:
    """Time-ordered spectral frames: complex array of shape (n_frames, n_bins), n_frames >= 1."""

    frames: np.ndarray
    config: StftConfig
    sample_rate: int

    def __post_init__(self):
        frames = np.asarray(self.frames, dtype=np.complex128)
        if frames.ndim != 2 or not frames.shape[0]:
            raise InvalidConfig("frames must be a 2-D array of one or more frames")
        if frames.shape[1] != self.config.n_bins:
            raise InvalidConfig(
                f"frames have {frames.shape[1]} bins, config implies {self.config.n_bins}"
            )
        object.__setattr__(self, "frames", frames)
        object.__setattr__(self, "sample_rate", _checked_rate(self.sample_rate))

    @property
    def n_frames(self) -> int:
        return self.frames.shape[0]

    @property
    def n_bins(self) -> int:
        return self.frames.shape[1]


def _is_integer(value) -> bool:
    """Whether value is an int or a numpy integer; a bool is neither here."""
    return isinstance(value, Integral) and not isinstance(value, bool)


def _checked_rate(sample_rate) -> int:
    """sample_rate as an int; InvalidConfig unless it is an integer >= 1 (a bool is not)."""
    if not _is_integer(sample_rate) or sample_rate < 1:
        raise InvalidConfig(f"sample_rate must be an integer >= 1, got {sample_rate!r}")
    return int(sample_rate)


def _check_length(n_samples) -> None:
    """InvalidConfig unless n_samples, an output length, is an integer >= 0 (a bool is not)."""
    if not _is_integer(n_samples) or n_samples < 0:
        raise InvalidConfig(f"n_samples must be an integer >= 0, got {n_samples!r}")


def bin_frequencies(n_bins: int) -> np.ndarray:
    """Normalized angular frequency of every bin: pi * k / (n_bins - 1)."""
    return np.pi * np.arange(n_bins) / (n_bins - 1)


# --- two-core row split ----------------------------------------------------


def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask, else the machine's count."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _split_rows(fn, n: int) -> None:
    """Call ``fn(rows)`` with slices that together cover ``range(n)`` once.

    With two or more usable CPUs and two or more rows, a helper thread runs
    the first half while the caller runs the second; otherwise ``fn`` gets
    the whole range in the caller. numpy releases the GIL inside its ufunc
    loops, so two halves of one elementwise kernel run side by side with
    the bytes of one call. The helper is joined before this returns, and an
    exception from it is re-raised here, so no thread outlives the call.
    """
    half = n // 2
    if half == 0 or _usable_cpus() < 2:
        fn(slice(0, n))
        return
    errors = []

    def first_half():
        try:
            fn(slice(0, half))
        except BaseException as exc:  # handed to the caller below
            errors.append(exc)

    helper = threading.Thread(target=first_half)
    helper.start()
    try:
        fn(slice(half, n))
    finally:
        helper.join()
    if errors:
        raise errors[0]


# --- file I/O --------------------------------------------------------------


def read_text(path) -> str:
    """The contents of a UTF-8 text file, newlines untranslated.

    An unreadable path is IoFailure and bytes that are not UTF-8 are ParseError.
    """
    try:
        data = Path(path).read_bytes()
    except (OSError, ValueError) as exc:  # ValueError: a NUL byte in the path
        raise IoFailure(f"cannot read {path}: {exc}") from exc
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not UTF-8 at byte {exc.start}: {exc.reason}") from None


_FMT_PCM = 1
_FMT_IEEE_FLOAT = 3
_FMT_EXTENSIBLE = 0xFFFE
_U32_MAX = 0xFFFFFFFF  # largest value of a WAV header's rate and size fields
# A WAVE_FORMAT_EXTENSIBLE SubFormat GUID is a plain format tag (2 bytes,
# little-endian) followed by these 14 bytes.
_SUBFORMAT_GUID_TAIL = bytes.fromhex("000000001000800000aa00389b71")


def _extensible_format_tag(path, fmt_body: bytes) -> int:
    """The PCM or float format tag named by an extensible fmt chunk's SubFormat."""
    if len(fmt_body) < 40 or struct.unpack_from("<H", fmt_body, 16)[0] < 22:
        raise MalformedWav(f"{path}: extensible fmt chunk truncated")
    guid = fmt_body[24:40]
    (tag,) = struct.unpack_from("<H", guid)
    if guid[2:] != _SUBFORMAT_GUID_TAIL or tag not in (_FMT_PCM, _FMT_IEEE_FLOAT):
        raise UnsupportedEncoding(f"{path}: extensible subformat {guid.hex()}")
    return tag


def read_wav(path) -> AudioBuffer:
    """Read a PCM WAV file (8/16/24-bit integer or 32-bit float, any channel count).

    WAVE_FORMAT_EXTENSIBLE files whose SubFormat is PCM or float decode the
    same way. Multi-channel audio is averaged to mono; integer samples are
    scaled to [-1, 1). Every failure, including an unreadable path, is a
    VoicemaskError.
    """
    try:
        data = Path(path).read_bytes()
    except (OSError, ValueError) as exc:  # ValueError: a NUL byte in the path
        raise IoFailure(f"cannot read {path}: {exc}") from exc
    if len(data) < 12 or data[0:4] != b"RIFF" or data[8:12] != b"WAVE":
        raise MalformedWav(f"{path}: not a RIFF/WAVE file")

    fmt = fmt_body = None
    payload = None
    pos = 12
    view = memoryview(data)  # chunk bodies are sliced without copying them
    while pos + 8 <= len(data):
        chunk_id = data[pos : pos + 4]
        (chunk_size,) = struct.unpack_from("<I", data, pos + 4)
        body = view[pos + 8 : pos + 8 + chunk_size]
        if chunk_id == b"fmt ":
            if len(body) < 16:
                raise MalformedWav(f"{path}: fmt chunk truncated")
            fmt, fmt_body = struct.unpack_from("<HHIIHH", body, 0), bytes(body)
        elif chunk_id == b"data":
            if len(body) < chunk_size:
                raise MalformedWav(f"{path}: data chunk truncated")
            payload = body
        pos += 8 + chunk_size + (chunk_size & 1)

    if fmt is None or payload is None:
        raise MalformedWav(f"{path}: missing fmt or data chunk")
    format_tag, channels, rate, _, _, bits = fmt
    if channels < 1 or rate < 1:
        raise MalformedWav(f"{path}: invalid channel count or sample rate")
    if format_tag == _FMT_EXTENSIBLE:
        format_tag = _extensible_format_tag(path, fmt_body)

    # Samples are widened once, into the array the buffer keeps, and scaled in
    # place: a ufunc with a cast would add a buffer, and AudioBuffer a copy.
    if format_tag == _FMT_PCM and bits == 8:
        samples = np.frombuffer(payload, dtype=np.uint8).astype(np.float64)
        samples -= 128.0
        samples /= 128.0
    elif format_tag == _FMT_PCM and bits == 16:
        samples = np.frombuffer(payload[: len(payload) // 2 * 2], dtype="<i2").astype(np.float64)
        samples /= 32768.0
    elif format_tag == _FMT_PCM and bits == 24:
        raw = np.frombuffer(payload[: len(payload) // 3 * 3], dtype=np.uint8)
        raw = raw.reshape(-1, 3).astype(np.int32)
        value = raw[:, 0] | (raw[:, 1] << 8) | (raw[:, 2] << 16)
        value -= (value & 0x800000) << 1  # sign extension
        samples = value.astype(np.float64)
        samples /= 8388608.0
    elif format_tag == _FMT_IEEE_FLOAT and bits == 32:
        pcm = np.frombuffer(payload[: len(payload) // 4 * 4], dtype="<f4")
        if not np.all(np.isfinite(pcm)):  # checked before widening: a signalling NaN warns
            raise MalformedWav(f"{path}: float samples must be finite")
        samples = pcm.astype(np.float64)
    else:
        raise UnsupportedEncoding(f"{path}: format tag {format_tag} with {bits} bits")

    if channels > 1:
        samples = samples[: samples.size // channels * channels]
        samples = samples.reshape(-1, channels).mean(axis=1)
    return AudioBuffer._adopt(samples, rate)


def write_wav(path, buf: AudioBuffer) -> None:
    """Write a 16-bit PCM mono WAV; samples are clipped to [-1, 1) first.

    The header holds the byte rate (2 × sample rate) and the RIFF sizes in
    32 bits, so a rate of 2**31 Hz or more, or data past 4 GiB, raises
    UnsupportedEncoding before the file is opened.
    """
    if buf.sample_rate * 2 > _U32_MAX:
        raise UnsupportedEncoding(
            f"{path}: sample rate {buf.sample_rate} Hz overflows the header's 32-bit byte rate"
        )
    if 36 + buf.samples.size * 2 > _U32_MAX:
        raise UnsupportedEncoding(f"{path}: {buf.samples.size} samples do not fit a WAV file")
    clipped = np.clip(buf.samples, -1.0, 32767.0 / 32768.0)
    pcm = np.round(clipped * 32768.0).astype("<i2")
    body = pcm.tobytes()
    header = b"RIFF" + struct.pack("<I", 36 + len(body)) + b"WAVE"
    header += b"fmt " + struct.pack(
        "<IHHIIHH", 16, _FMT_PCM, 1, buf.sample_rate, buf.sample_rate * 2, 2, 16
    )
    header += b"data" + struct.pack("<I", len(body))
    try:
        Path(path).write_bytes(header + body)
    except (OSError, ValueError) as exc:  # ValueError: a NUL byte in the path
        raise IoFailure(f"cannot write {path}: {exc}") from exc


# --- STFT / inverse STFT ---------------------------------------------------


def stft(buf: AudioBuffer, cfg: StftConfig = StftConfig()) -> Spectrogram:
    """Analyze a buffer into windowed half-spectrum frames.

    Frame t covers samples [t*hop, t*hop + frame_len); a buffer shorter than
    one frame is zero-padded to a single frame. Samples above
    max_float / (4 * frame_len**2), about 4e301 for 1024-sample frames, raise
    NonFiniteSignal: their spectrum, or a transform's inverse of it, would
    overflow.
    """
    x = buf.samples
    n, hop = cfg.frame_len, cfg.hop
    # A bin sums n samples and the inverse FFT of a modified frame up to all
    # its bins, so sums stay below n**2 times the largest sample; the 4
    # leaves room for magnitudes and complex products.
    peak = max(x.max(), -x.min()) if x.size else 0.0
    if peak > np.finfo(np.float64).max / (4.0 * n * n):
        raise NonFiniteSignal(f"samples up to {peak:.3g} would overflow a {n}-sample transform")
    if x.size < n:
        x = np.concatenate([x, np.zeros(n - x.size)])
    frames = np.lib.stride_tricks.sliding_window_view(x, n)[::hop] * cfg.window_samples()
    return Spectrogram(np.fft.rfft(frames, axis=1), cfg, buf.sample_rate)


# Frames inverse-transformed at once. A block's stack (64 x 1024 x 8 bytes
# for the default frame) is small enough for the allocator to reuse its
# memory; a whole-cell stack was unmapped after every cell and faulted back
# in for the next one.
_BLOCK_FRAMES = 64


@functools.lru_cache(maxsize=2)
def _overlap_plan(cfg: StftConfig, n_frames: int):
    """What istft of n_frames frames needs besides the frames: (pieces, divisor).

    A piece is (k, the frame columns of hop-wide block k, their width), k
    downwards. The divisor is the window sum floored at 1% of its peak,
    read-only. Every cell of one file has its frame count, so a sweep
    builds this once per file; the last two are kept.
    """
    pieces = []
    for k in reversed(range(-(-cfg.frame_len // cfg.hop))):
        cols = slice(k * cfg.hop, min((k + 1) * cfg.hop, cfg.frame_len))
        pieces.append((k, cols, cols.stop - cols.start))
    norm = np.zeros((n_frames + len(pieces) - 1, cfg.hop))
    w = cfg.window_samples()
    w_sq = w * w
    for k, cols, width in pieces:
        norm[k : k + n_frames, :width] += w_sq[cols]
    # The floor keeps division exact wherever the window sum is well
    # conditioned and stops modified (non-COLA) frame content from being
    # amplified at the outermost samples.
    norm = norm.reshape(-1)[: (n_frames - 1) * cfg.hop + cfg.frame_len]
    np.maximum(norm, 1e-2 * norm.max(), out=norm)
    norm.setflags(write=False)
    return tuple(pieces), norm


def istft(spec: Spectrogram, n_samples: int | None = None) -> AudioBuffer:
    """Weighted overlap-add resynthesis with window-sum normalization.

    The natural output length is (n_frames - 1) * hop + frame_len;
    ``n_samples``, when given, trims it or pads it with zeros. Reconstruction
    is reliable on the interior, away from frame_len samples at each edge.
    Frames are inverse-transformed and windowed _BLOCK_FRAMES at a time, and
    each block is overlap-added before the next is transformed. An
    ``n_samples`` other than None that _check_length refuses is InvalidConfig.
    """
    cfg = spec.config
    w = cfg.window_samples()
    n_frames, hop = spec.n_frames, cfg.hop
    out_len = (n_frames - 1) * hop + cfg.frame_len
    if n_samples is None:
        n_samples = out_len
    _check_length(n_samples)
    # Overlap-add in hop-wide blocks: block k of frame t lands in row t + k.
    # Frame blocks run in order and k runs downwards within each, so every
    # sample adds its frames in ascending order.
    pieces, divisor = _overlap_plan(cfg, n_frames)
    n_rows = n_frames + len(pieces) - 1
    # No frame reaches past out_len, so the flat buffer is the output with
    # its zero tail already in place.
    flat = np.zeros(max(n_rows * hop, n_samples))
    acc = flat[: n_rows * hop].reshape(n_rows, hop)
    for start in range(0, n_frames, _BLOCK_FRAMES):
        frames = np.fft.irfft(spec.frames[start : start + _BLOCK_FRAMES], n=cfg.frame_len, axis=1)
        frames *= w  # in place: no second stack at the memory peak
        for k, cols, width in pieces:
            acc[start + k : start + k + len(frames), :width] += frames[:, cols]
    kept = min(out_len, n_samples)
    flat[:kept] /= divisor[:kept]
    return AudioBuffer._adopt(flat[:n_samples], spec.sample_rate)
