"""Cepstral features, covariance speaker models, and sphericity scoring.

A speaker is modeled by the covariance of mel-cepstral coefficients c1..cP;
models are compared with the arithmetic-harmonic sphericity measure

    mu(A, B) = log(tr(A B^-1) * tr(B A^-1)) - 2 log(P)

which is zero exactly when A is a positive scalar multiple of B, and grows
with the eigenvalue spread of A B^-1. Lower is more similar.
"""

from __future__ import annotations

import re
import threading
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path

import numpy as np
import scipy.fft
import scipy.linalg

from .errors import (
    DimensionMismatch,
    EmptyEnrollment,
    InvalidConfig,
    InvalidModel,
    InvariantViolation,
    IoFailure,
    MissingGender,
    NotPositiveDefinite,
    ParseError,
    TooFewFrames,
    TooShort,
)
from .signal_core import AudioBuffer, _is_integer, _window_samples, read_text

__all__ = [
    "SpeakerModel",
    "extract_cepstra",
    "covariance_model",
    "sphericity_distance",
    "identify_speaker",
    "train_gender_models",
    "classify_gender",
    "save_models",
    "load_models",
]

# Feature settings: cepstra c1..c12 from 24 mel bands, in 25 ms frames every
# 10 ms, after pre-emphasis of 0.97.
_ORDER = 12
_N_MEL = 24
_FRAME_MS = 25.0
_HOP_MS = 10.0
_PREEMPHASIS = 0.97
_ENERGY_FLOOR = 1e-10
_REGULARIZATION = 1e-6
# Feature frames windowed and transformed at once.
_FEATURE_BLOCK = 128
# Bytes of working arrays one thread keeps between extract_cepstra calls (see
# _scratch_arrays). 4 MiB holds an 11 s utterance at 16 kHz; a call that
# needs more allocates its own and keeps none.
_SCRATCH_BYTES = 4 << 20
_scratch = threading.local()
# The LAPACK routines behind scipy's cho_factor/cho_solve, called directly
# with the flags those wrappers pass, so every bit matches theirs.
_POTRF, _POTRS = scipy.linalg.get_lapack_funcs(("potrf", "potrs"), (np.empty((0, 0)),))


@dataclass(frozen=True)
class SpeakerModel:
    """Label, gender, and a positive-definite cepstral covariance matrix."""

    label: str
    gender: str
    C: np.ndarray
    n_frames: int

    def __post_init__(self):
        C = np.asarray(self.C, dtype=np.float64).copy()
        if C.ndim != 2 or C.shape[0] != C.shape[1] or not C.size:
            raise DimensionMismatch(f"covariance must be square and non-empty, got {C.shape}")
        scale = np.max(np.abs(C))
        if not scale < np.inf:  # NaN fails too
            raise InvalidModel("covariance must be finite")
        if np.max(np.abs(C - C.T)) > 1e-10 * max(1.0, scale):
            raise InvalidModel("covariance must be symmetric")
        if self.gender not in ("M", "F", "U"):
            raise InvalidModel(f"gender must be M, F, or U, got {self.gender!r}")
        if not _is_integer(self.n_frames) or self.n_frames < 0:
            raise InvalidModel(f"n_frames must be an integer >= 0, got {self.n_frames!r}")
        C.setflags(write=False)
        object.__setattr__(self, "C", C)

    @property
    def order(self) -> int:
        return self.C.shape[0]


def _hz_to_mel(hz):
    return 2595.0 * np.log10(1.0 + hz / 700.0)


def _mel_to_hz(mel):
    return 700.0 * (10.0 ** (mel / 2595.0) - 1.0)


@lru_cache(maxsize=8)
def _mel_filterbank(n_mel: int, n_fft: int, sample_rate: int) -> np.ndarray:
    """Triangular filters on a mel-spaced grid, rows summing over fft bins."""
    edges = _mel_to_hz(np.linspace(0.0, _hz_to_mel(sample_rate / 2.0), n_mel + 2))
    freqs = np.arange(n_fft // 2 + 1) * sample_rate / n_fft
    fb = np.zeros((n_mel, freqs.size))
    for j in range(n_mel):
        left, center, right = edges[j], edges[j + 1], edges[j + 2]
        rising = (freqs - left) / (center - left)
        falling = (right - freqs) / (right - center)
        fb[j] = np.maximum(0.0, np.minimum(rising, falling))
    return fb


def _feature_framing(buf: AudioBuffer) -> tuple[int, int]:
    """The feature frame and hop of a buffer, in samples, if it can be featurised.

    A sample rate too low for a one-sample frame and hop is InvalidConfig; a
    buffer shorter than one frame is TooShort.
    """
    fs = buf.sample_rate
    frame = int(round(_FRAME_MS * fs / 1000.0))
    hop = int(round(_HOP_MS * fs / 1000.0))
    if min(frame, hop) < 1:
        raise InvalidConfig(f"{fs} Hz gives {frame}-sample frames and {hop}-sample hops")
    if len(buf) < frame:
        raise TooShort(f"need at least {frame} samples, got {len(buf)}")
    return frame, hop


def _check_frames(n: int, p: int) -> None:
    """TooFewFrames unless n feature frames are enough for a p x p covariance model."""
    if n < p + 1:
        raise TooFewFrames(f"need at least {p + 1} frames, got {n}")


def _check_probe(buf: AudioBuffer) -> None:
    """Raise what modelling buf's features as a probe would, without computing them."""
    frame, hop = _feature_framing(buf)
    _check_frames((len(buf) - frame) // hop + 1, _ORDER)


def _scratch_arrays(*sizes: int) -> list[np.ndarray]:
    """Flat float64 arrays of at least the given sizes, this thread's own.

    Arrays that fit in _SCRATCH_BYTES together are kept for the thread's
    next call, so their pages stay mapped: memory freed after a call went
    back to the system and was faulted in again by the next one. They hold
    nothing from one call to the next. Larger requests are fresh arrays,
    and the thread keeps what it kept before.
    """
    if 8 * sum(sizes) > _SCRATCH_BYTES:
        return [np.empty(n) for n in sizes]
    kept = getattr(_scratch, "arrays", None)
    if kept is None or any(a.size < n for a, n in zip(kept, sizes)):
        kept = _scratch.arrays = [np.empty(n) for n in sizes]
    return kept


def extract_cepstra(buf: AudioBuffer) -> np.ndarray:
    """Mel-cepstral coefficients c1..c12 per frame, shape (n_frames, 12).

    Pipeline: pre-emphasis, Hann-windowed frames, magnitude spectrum, mel
    filterbank, log energies floored at 1e-10, orthonormal DCT-II with c0
    dropped. A buffer that _feature_framing refuses raises its error.
    """
    frame, hop = _feature_framing(buf)
    fs, x = buf.sample_rate, buf.samples
    n_fft = 1 << (frame - 1).bit_length()
    n_frames = (x.size - frame) // hop + 1
    n_rows, n_bins = min(_FEATURE_BLOCK, n_frames), n_fft // 2 + 1
    emphasized, padded, spectrum = _scratch_arrays(x.size, n_rows * n_fft, n_frames * n_bins)

    # Pre-emphasis: x[0], then x[1:] - _PREEMPHASIS * x[:-1], computed in place.
    emphasized = emphasized[: x.size]
    emphasized[0] = x[0]
    rest = emphasized[1:]
    np.subtract(x[1:], np.multiply(x[:-1], _PREEMPHASIS, out=rest), out=rest)
    frames = np.lib.stride_tricks.sliding_window_view(emphasized, frame)[::hop]
    window = _window_samples(frame)

    # Windowed frames go _FEATURE_BLOCK at a time into one zero-padded
    # buffer; only the magnitude spectrum is kept whole, for one matmul.
    padded = padded[: n_rows * n_fft].reshape(n_rows, n_fft)
    padded[:, frame:] = 0.0
    spectrum = spectrum[: n_frames * n_bins].reshape(n_frames, n_bins)
    for start in range(0, n_frames, _FEATURE_BLOCK):
        block = frames[start : start + _FEATURE_BLOCK]
        np.multiply(block, window, out=padded[: len(block), :frame])
        np.abs(np.fft.rfft(padded[: len(block)], axis=1), out=spectrum[start : start + len(block)])
    energies = spectrum @ _mel_filterbank(_N_MEL, n_fft, fs).T
    log_energies = np.log(np.maximum(energies, _ENERGY_FLOOR))
    cepstra = scipy.fft.dct(log_energies, type=2, norm="ortho", axis=1)
    return cepstra[:, 1 : _ORDER + 1]


def covariance_model(feats: np.ndarray, label: str, gender: str = "U") -> SpeakerModel:
    """Sample covariance (divisor n-1) about the mean, lightly regularized.

    The regularizer adds 1e-6 * (trace/P) * I; a zero-variance input falls
    back to an absolute 1e-6 * I so the result is always positive definite.
    """
    feats = np.asarray(feats, dtype=np.float64)
    if feats.ndim != 2:
        raise DimensionMismatch("feature sequence must be 2-D")
    n, p = feats.shape
    _check_frames(n, p)
    centered = feats - feats.mean(axis=0)
    C = centered.T @ centered / (n - 1)
    C = 0.5 * (C + C.T)
    scale = np.trace(C) / p
    if scale <= 0.0:
        scale = 1.0
    C += _REGULARIZATION * scale * np.eye(p)
    return SpeakerModel(label=label, gender=gender, C=C, n_frames=n)


def _cholesky(c: np.ndarray) -> np.ndarray:
    """Lower Cholesky factor of c, upper triangle left as cho_factor leaves it."""
    factor, info = _POTRF(c, lower=1, clean=0)
    if info > 0:
        raise NotPositiveDefinite(f"{info}-th leading minor of the array is not positive definite")
    return factor


def _sphericity(a: np.ndarray, b: np.ndarray, fa=None) -> float:
    """mu(a, b), reusing fa, the lower Cholesky factor of a, when given."""
    if a.shape != b.shape or a.ndim != 2 or a.shape[0] != a.shape[1] or not a.size:
        raise DimensionMismatch(f"incompatible covariance shapes {a.shape} and {b.shape}")
    if fa is None:
        fa = _cholesky(a)
    tr_ab = np.trace(_POTRS(_cholesky(b), a, lower=1)[0])
    tr_ba = np.trace(_POTRS(fa, b, lower=1)[0])
    product = tr_ab * tr_ba
    # A nearly singular matrix can factor and still round this below zero.
    if product <= 0.0:
        raise NotPositiveDefinite(f"trace product {float(product):.6g} is not positive")
    return float(np.log(product) - 2.0 * np.log(a.shape[0]))


def sphericity_distance(c_test: np.ndarray, c_ref: np.ndarray) -> float:
    """Arithmetic-harmonic sphericity between two SPD matrices; lower is closer."""
    return _sphericity(np.asarray(c_test, dtype=np.float64), np.asarray(c_ref, dtype=np.float64))


def identify_speaker(test: SpeakerModel, enrolled) -> list[tuple[str, float]]:
    """Rank enrolled models by ascending sphericity distance to the test model.

    The probe is factored once per call. Ties break lexicographically by
    label; the top entry is the decision.
    """
    enrolled = list(enrolled)
    if not enrolled:
        raise EmptyEnrollment("no enrolled models")
    factor = _cholesky(test.C)
    scored = [(model.label, _sphericity(test.C, model.C, factor)) for model in enrolled]
    return sorted(scored, key=lambda item: (item[1], item[0]))


def train_gender_models(corpus) -> tuple[SpeakerModel, SpeakerModel]:
    """Pool feature frames per gender into one covariance model each.

    ``corpus`` yields (feature_sequence, gender) pairs with gender M or F.
    """
    pools: dict[str, list[np.ndarray]] = {"M": [], "F": []}
    for feats, gender in corpus:
        if gender not in pools:
            raise InvalidModel(f"gender must be M or F, got {gender!r}")
        pools[gender].append(np.asarray(feats, dtype=np.float64))
    for gender, sequences in pools.items():
        if not sequences:
            raise MissingGender(f"no training sequences for gender {gender}")
    male = covariance_model(np.vstack(pools["M"]), label="M", gender="M")
    female = covariance_model(np.vstack(pools["F"]), label="F", gender="F")
    return male, female


def classify_gender(
    test: SpeakerModel, male: SpeakerModel, female: SpeakerModel
) -> tuple[str, float]:
    """Nearer of the two gender models; exact ties resolve to M."""
    factor = _cholesky(test.C)
    mu_m = _sphericity(test.C, male.C, factor)
    mu_f = _sphericity(test.C, female.C, factor)
    gender = "M" if mu_m <= mu_f else "F"
    return gender, abs(mu_m - mu_f)


# --- model store -------------------------------------------------------------

_HEADER_RE = re.compile(
    r"^SPKMODEL v1 P=(\d+) label=(.*) gender=([MFU]) frames=(\d+)$"
)


def save_models(path, models) -> None:
    """Write models to the textual store; numbers round-trip exactly.

    A label holding a line break (anything ``str.splitlines`` splits on) or a
    lone surrogate (which UTF-8 cannot encode) cannot be stored, and no two
    models may share a label, since readers find a model by its label. Each
    raises InvariantViolation before anything is written. A store that
    cannot be written is IoFailure.
    """
    blocks = []
    labels = set()
    for model in models:
        if "".join(model.label.splitlines()) != model.label:
            raise InvariantViolation(f"model label {model.label!r} contains a line break")
        if any("\ud800" <= ch <= "\udfff" for ch in model.label):
            raise InvariantViolation(f"model label {model.label!r} holds a lone surrogate")
        if model.label in labels:
            raise InvariantViolation(f"two models are labelled {model.label!r}")
        labels.add(model.label)
        lines = [
            f"SPKMODEL v1 P={model.order} label={model.label} "
            f"gender={model.gender} frames={model.n_frames}"
        ]
        for row in model.C:
            lines.append(" ".join(repr(float(v)) for v in row))
        blocks.append("\n".join(lines))
    try:
        Path(path).write_text("\n\n".join(blocks) + "\n", encoding="utf-8")
    except (OSError, ValueError) as exc:  # ValueError: a NUL byte in the path
        raise IoFailure(f"cannot write {path}: {exc}") from exc


def _raise_first_bad_row(lines, first, p) -> None:
    """Raise the ParseError of the first bad row of the matrix at lines[first]."""
    for j in range(first, first + p):
        try:
            row = [float(v) for v in lines[j].split()]
        except (ValueError, IndexError) as exc:
            raise ParseError(f"bad matrix row: {exc}", line=j + 1) from exc
        if len(row) != p:
            raise ParseError(f"expected {p} values, got {len(row)}", line=j + 1)


def load_models(path) -> list[SpeakerModel]:
    """Read back a model store written by save_models."""
    models = []
    lines = read_text(path).splitlines()
    i = 0
    while i < len(lines):
        if not lines[i].strip():
            i += 1
            continue
        match = _HEADER_RE.match(lines[i])
        if match is None:
            raise ParseError(f"bad model header {lines[i]!r}", line=i + 1)
        try:  # int() refuses digit strings longer than 4300
            p, n_frames = int(match.group(1)), int(match.group(4))
        except ValueError as exc:
            raise ParseError(str(exc), line=i + 1) from None
        tokens = []
        for line in lines[i + 1 : i + 1 + p]:
            row = line.split()
            if len(row) != p:
                break
            tokens += row
        try:  # one float() per token; a short block fails the reshape
            C = np.array(tokens, dtype=np.float64).reshape(p, p)
        except ValueError:
            _raise_first_bad_row(lines, i + 1, p)
        try:
            model = SpeakerModel(match.group(2), match.group(3), C, n_frames)
        except (InvalidModel, DimensionMismatch) as exc:  # bad values, or P=0
            raise ParseError(str(exc), line=i + 1) from None
        models.append(model)
        i += 1 + p
    return models
