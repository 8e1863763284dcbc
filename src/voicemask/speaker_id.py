"""Cepstral features, covariance speaker models, and sphericity scoring.

A speaker is modeled by the covariance of mel-cepstral coefficients c1..cP;
models are compared with the arithmetic-harmonic sphericity measure

    mu(A, B) = log(tr(A B^-1) * tr(B A^-1)) - 2 log(P)

which is zero exactly when A is a positive scalar multiple of B, and grows
with the eigenvalue spread of A B^-1. Lower is more similar.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path

import numpy as np
import scipy.fft
import scipy.linalg

from .errors import (
    DimensionMismatch,
    EmptyEnrollment,
    InvariantViolation,
    MissingGender,
    NotPositiveDefinite,
    ParseError,
    TooFewFrames,
    TooShort,
)
from .signal_core import AudioBuffer, read_text

__all__ = [
    "FeatureConfig",
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

_ENERGY_FLOOR = 1e-10
_REGULARIZATION = 1e-6


@dataclass(frozen=True)
class FeatureConfig:
    """Cepstral order and framing parameters for feature extraction."""

    order: int = 12
    frame_ms: float = 25.0
    hop_ms: float = 10.0
    preemphasis: float = 0.97
    n_mel: int = 24

    def __post_init__(self):
        if self.order < 2:
            raise ValueError(f"order must be >= 2, got {self.order}")
        if self.frame_ms <= 0 or self.hop_ms <= 0 or self.n_mel < self.order:
            raise ValueError("invalid framing or filterbank parameters")


@dataclass(frozen=True)
class SpeakerModel:
    """Label, gender, and a positive-definite cepstral covariance matrix."""

    label: str
    gender: str
    C: np.ndarray
    n_frames: int

    def __post_init__(self):
        C = np.asarray(self.C, dtype=np.float64).copy()
        if C.ndim != 2 or C.shape[0] != C.shape[1]:
            raise DimensionMismatch(f"covariance must be square, got {C.shape}")
        scale = np.max(np.abs(C))
        if not scale < np.inf:  # NaN fails too
            raise ValueError("covariance must be finite")
        if np.max(np.abs(C - C.T)) > 1e-10 * max(1.0, scale):
            raise ValueError("covariance must be symmetric")
        if self.gender not in ("M", "F", "U"):
            raise ValueError(f"gender must be M, F, or U, got {self.gender!r}")
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


def extract_cepstra(buf: AudioBuffer, cfg: FeatureConfig = FeatureConfig()) -> np.ndarray:
    """Mel-cepstral coefficients c1..c_order per frame, shape (n_frames, order).

    Pipeline: pre-emphasis, Hann-windowed frames, magnitude spectrum, mel
    filterbank, log energies floored at 1e-10, orthonormal DCT-II with c0
    dropped.
    """
    fs = buf.sample_rate
    frame = int(round(cfg.frame_ms * fs / 1000.0))
    hop = int(round(cfg.hop_ms * fs / 1000.0))
    x = buf.samples
    if x.size < frame:
        raise TooShort(f"need at least {frame} samples, got {x.size}")

    emphasized = np.concatenate([x[:1], x[1:] - cfg.preemphasis * x[:-1]])
    n_frames = (x.size - frame) // hop + 1
    offsets = hop * np.arange(n_frames)
    frames = emphasized[offsets[:, None] + np.arange(frame)[None, :]]
    window = 0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(frame) / frame)

    n_fft = 1 << (frame - 1).bit_length()
    spectrum = np.abs(np.fft.rfft(frames * window, n=n_fft, axis=1))
    energies = spectrum @ _mel_filterbank(cfg.n_mel, n_fft, fs).T
    log_energies = np.log(np.maximum(energies, _ENERGY_FLOOR))
    cepstra = scipy.fft.dct(log_energies, type=2, norm="ortho", axis=1)
    return cepstra[:, 1 : cfg.order + 1]


def covariance_model(feats: np.ndarray, label: str, gender: str = "U") -> SpeakerModel:
    """Sample covariance (divisor n-1) about the mean, lightly regularized.

    The regularizer adds 1e-6 * (trace/P) * I; a zero-variance input falls
    back to an absolute 1e-6 * I so the result is always positive definite.
    """
    feats = np.asarray(feats, dtype=np.float64)
    if feats.ndim != 2:
        raise DimensionMismatch("feature sequence must be 2-D")
    n, p = feats.shape
    if n < p + 1:
        raise TooFewFrames(f"need at least {p + 1} frames, got {n}")
    centered = feats - feats.mean(axis=0)
    C = centered.T @ centered / (n - 1)
    C = 0.5 * (C + C.T)
    scale = np.trace(C) / p
    if scale <= 0.0:
        scale = 1.0
    C += _REGULARIZATION * scale * np.eye(p)
    return SpeakerModel(label=label, gender=gender, C=C, n_frames=n)


def sphericity_distance(c_test: np.ndarray, c_ref: np.ndarray) -> float:
    """Arithmetic-harmonic sphericity between two SPD matrices; lower is closer."""
    a = np.asarray(c_test, dtype=np.float64)
    b = np.asarray(c_ref, dtype=np.float64)
    if a.shape != b.shape or a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionMismatch(f"incompatible covariance shapes {a.shape} and {b.shape}")
    p = a.shape[0]
    try:
        fa = scipy.linalg.cho_factor(a, lower=True, check_finite=False)
        fb = scipy.linalg.cho_factor(b, lower=True, check_finite=False)
    except scipy.linalg.LinAlgError as exc:
        raise NotPositiveDefinite(str(exc)) from exc
    tr_ab = np.trace(scipy.linalg.cho_solve(fb, a, check_finite=False))
    tr_ba = np.trace(scipy.linalg.cho_solve(fa, b, check_finite=False))
    return float(np.log(tr_ab * tr_ba) - 2.0 * np.log(p))


def identify_speaker(test: SpeakerModel, enrolled) -> list[tuple[str, float]]:
    """Rank enrolled models by ascending sphericity distance to the test model.

    Ties break lexicographically by label; the top entry is the decision.
    """
    enrolled = list(enrolled)
    if not enrolled:
        raise EmptyEnrollment("no enrolled models")
    scored = [(model.label, sphericity_distance(test.C, model.C)) for model in enrolled]
    return sorted(scored, key=lambda item: (item[1], item[0]))


def train_gender_models(corpus) -> tuple[SpeakerModel, SpeakerModel]:
    """Pool feature frames per gender into one covariance model each.

    ``corpus`` yields (feature_sequence, gender) pairs with gender M or F.
    """
    pools: dict[str, list[np.ndarray]] = {"M": [], "F": []}
    for feats, gender in corpus:
        if gender not in pools:
            raise ValueError(f"gender must be M or F, got {gender!r}")
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
    mu_m = sphericity_distance(test.C, male.C)
    mu_f = sphericity_distance(test.C, female.C)
    gender = "M" if mu_m <= mu_f else "F"
    return gender, abs(mu_m - mu_f)


# --- model store -------------------------------------------------------------

_HEADER_RE = re.compile(
    r"^SPKMODEL v1 P=(\d+) label=(.*) gender=([MFU]) frames=(\d+)$"
)


def save_models(path, models) -> None:
    """Write models to the textual store; numbers round-trip exactly.

    A label holding a line break (anything ``str.splitlines`` splits on)
    cannot be stored; it raises InvariantViolation before anything is written.
    """
    blocks = []
    for model in models:
        if "".join(model.label.splitlines()) != model.label:
            raise InvariantViolation(f"model label {model.label!r} contains a line break")
        lines = [
            f"SPKMODEL v1 P={model.order} label={model.label} "
            f"gender={model.gender} frames={model.n_frames}"
        ]
        for row in model.C:
            lines.append(" ".join(repr(float(v)) for v in row))
        blocks.append("\n".join(lines))
    Path(path).write_text("\n\n".join(blocks) + "\n", encoding="utf-8")


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
        rows = []
        for j in range(p):
            try:
                row = [float(v) for v in lines[i + 1 + j].split()]
            except (ValueError, IndexError) as exc:
                raise ParseError(f"bad matrix row: {exc}", line=i + 2 + j) from exc
            if len(row) != p:
                raise ParseError(f"expected {p} values, got {len(row)}", line=i + 2 + j)
            rows.append(row)
        try:
            model = SpeakerModel(match.group(2), match.group(3), np.array(rows), n_frames)
        except ValueError as exc:  # a matrix that is not finite or not symmetric
            raise ParseError(str(exc), line=i + 1) from None
        models.append(model)
        i += 1 + p
    return models
