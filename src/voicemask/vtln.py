"""Spectral frequency warping: five parametric warp families plus resynthesis.

All warps are monotone maps of normalized frequency [0, pi] onto itself that
fix both endpoints. The linear families (symmetric, asymmetric, power) are
identities at alpha = 1; quadratic and bilinear at alpha = 0.

The magnitude and unwrapped phase a warp resamples do not depend on the warp,
so ``analyse_warp`` computes them once per buffer and ``warp_analysed``
resamples and resynthesizes them for any warp.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidAlpha, InvalidConfig, NotInvertible
from .signal_core import (
    AudioBuffer,
    Spectrogram,
    StftConfig,
    _check_length,
    _split_rows,
    bin_frequencies,
    istft,
    stft,
)

__all__ = [
    "FAMILIES",
    "WarpSpec",
    "WarpAnalysis",
    "warp_value",
    "invert_warp",
    "analyse_warp",
    "warp_analysed",
    "vtln_transform",
]

FAMILIES = ("symmetric", "asymmetric", "quadratic", "power", "bilinear")

_BREAK = 7.0 * np.pi / 8.0
_MIN_POSITIVE_ALPHA = float(np.finfo(np.float64).tiny)


@dataclass(frozen=True)
class WarpSpec:
    """Warping family plus its strength parameter alpha."""

    family: str
    alpha: float

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise InvalidAlpha(f"unknown warp family {self.family!r}")
        a = float(self.alpha)
        if not np.isfinite(a):
            raise InvalidAlpha(f"alpha must be finite, got {a}")
        if self.family in ("symmetric", "asymmetric", "power"):
            # a subnormal alpha would overflow pi / alpha in the inverse
            if not a >= _MIN_POSITIVE_ALPHA:
                raise InvalidAlpha(f"{self.family} warp requires a normal alpha > 0, got {a}")
        elif self.family == "quadratic":
            if not abs(a) < np.pi:
                raise InvalidAlpha(f"quadratic warp requires |alpha| < pi, got {a}")
        else:  # bilinear
            if not abs(a) < 1.0:
                raise InvalidAlpha(f"bilinear warp requires |alpha| < 1, got {a}")
        object.__setattr__(self, "alpha", a)


def _check_range(omega: np.ndarray, name: str) -> None:
    if omega.size and (omega.min() < -1e-12 or omega.max() > np.pi + 1e-12):
        raise InvalidConfig(f"{name} must lie in [0, pi]")


def _break_frequency(spec: WarpSpec) -> float:
    if spec.family == "symmetric" and spec.alpha > 1.0:
        return _BREAK / spec.alpha
    return _BREAK


def _piecewise_linear(omega, alpha, omega0):
    low = alpha * omega
    high = alpha * omega0 + (np.pi - alpha * omega0) / (np.pi - omega0) * (omega - omega0)
    return np.where(omega <= omega0, low, high)


def warp_value(spec: WarpSpec, omega):
    """Warped position of ``omega``; accepts scalars or arrays.

    Results are clamped to [0, pi] (the asymmetric family overshoots pi for
    alpha > 8/7) and the endpoints 0 and pi are mapped exactly.
    """
    w = np.asarray(omega, dtype=np.float64)
    _check_range(w, "omega")
    if spec.family in ("symmetric", "asymmetric"):
        g = _piecewise_linear(w, spec.alpha, _break_frequency(spec))
    elif spec.family == "quadratic":
        u = w / np.pi
        g = w + spec.alpha * (u - u * u)
    elif spec.family == "power":
        g = np.pi * (w / np.pi) ** spec.alpha
    else:  # bilinear: principal argument of (z - a) / (1 - a z) on the unit circle
        z = np.exp(1j * w)
        g = np.angle((z - spec.alpha) / (1.0 - spec.alpha * z))
    g = np.clip(g, 0.0, np.pi)
    g = np.where(w == 0.0, 0.0, np.where(w == np.pi, np.pi, g))
    return float(g) if np.isscalar(omega) else g


def invert_warp(spec: WarpSpec, omega_out):
    """Preimage of ``omega_out`` under warp_value, accurate to 1e-9.

    Power and bilinear invert analytically (the bilinear inverse is the same
    family with -alpha), the piecewise-linear families by branch algebra, and
    quadratic by the stable root of g = b w - c w^2.
    """
    g = np.asarray(omega_out, dtype=np.float64)
    _check_range(g, "omega_out")
    if spec.family in ("symmetric", "asymmetric"):
        omega0 = _break_frequency(spec)
        knee = spec.alpha * omega0
        if knee >= np.pi:  # asymmetric, alpha >= 8/7: [pi/alpha, pi] all map to pi
            if np.any(g == np.pi):
                raise NotInvertible("warp is flat at pi; preimage is not unique")
            w = g / spec.alpha
        else:
            high = omega0 + (g - knee) * (np.pi - omega0) / (np.pi - knee)
            w = np.where(g <= knee, g / spec.alpha, high)
    elif spec.family == "quadratic":
        # b = 1 + alpha/pi, c = alpha/pi^2; this form of the root stays exact as c -> 0.
        # The discriminant is >= (1 - |alpha|/pi)^2 on [0, pi]; the floor only absorbs rounding.
        b = 1.0 + spec.alpha / np.pi
        c = spec.alpha / np.pi**2
        w = 2.0 * g / (b + np.sqrt(np.maximum(b * b - 4.0 * c * g, 0.0)))
    elif spec.family == "power":
        w = np.pi * (g / np.pi) ** (1.0 / spec.alpha)
    else:
        inverse = WarpSpec("bilinear", -spec.alpha)
        w = np.asarray(warp_value(inverse, g))
    w = np.clip(w, 0.0, np.pi)
    w = np.where(g == 0.0, 0.0, np.where(g == np.pi, np.pi, w))
    return float(w) if np.isscalar(omega_out) else w


def _source_positions(spec: WarpSpec, n_bins: int) -> np.ndarray:
    """Fractional input-bin position feeding each output bin.

    Where the warp is flat at pi (asymmetric, alpha >= 8/7), the top bin
    reads pi / alpha, the lowest preimage of pi.
    """
    omega = bin_frequencies(n_bins)
    if spec.family == "asymmetric" and spec.alpha * _BREAK >= np.pi:
        src = np.append(invert_warp(spec, omega[:-1]), np.pi / spec.alpha)
    else:
        src = invert_warp(spec, omega)
    return (src / np.pi) * (n_bins - 1)


def _resample_frames(mag: np.ndarray, phase: np.ndarray, pos: np.ndarray) -> np.ndarray:
    """Linear interpolation of each frame's magnitude and unwrapped phase at ``pos``.

    Computed in place; the bytes equal ``mag * np.exp(1j * phase)`` of the
    interpolated parts, which ``test_vtln.py`` checks. Every step is
    elementwise per frame, so each half of the frames is interpolated and
    evaluated on its own core (``signal_core._split_rows``).
    """
    idx = np.clip(pos.astype(np.intp), 0, mag.shape[-1] - 2)
    idx_up = idx + 1
    frac = pos - idx
    rest = 1.0 - frac
    out = np.empty(phase.shape, dtype=np.complex128)
    # The work arrays are made here, in the calling thread: made in the
    # helper thread, they came from a second malloc arena and raised a warp
    # sweep's peak RSS by 1-2.6 MB. mode="clip" lets take write straight
    # into them (idx is in range, so nothing is clipped).
    lower, upper = np.empty((2,) + phase.shape)

    def lerp(values, rows):
        low = np.take(values[rows], idx, axis=-1, out=lower[rows], mode="clip")
        low *= rest
        high = np.take(values[rows], idx_up, axis=-1, out=upper[rows], mode="clip")
        high *= frac
        low += high
        return low

    def resample(rows):
        rotation = np.multiply(1j, lerp(phase, rows), out=out[rows])
        np.exp(rotation, out=rotation)
        rotation *= lerp(mag, rows)

    _split_rows(resample, len(out))
    return out


@dataclass(frozen=True)
class WarpAnalysis:
    """Warp-independent analysis of one buffer, shared by its warps.

    ``magnitude`` and ``phase`` (unwrapped along frequency) are the STFT
    frames' polar parts, both read-only. Arrays that are not one analysis,
    or an ``n_samples`` that _check_length refuses, are InvalidConfig.
    """

    magnitude: np.ndarray
    phase: np.ndarray
    config: StftConfig
    sample_rate: int
    n_samples: int

    def __post_init__(self):
        mag, phase, n = self.magnitude, self.phase, self.config.n_bins
        if not (
            mag.shape == phase.shape and mag.ndim == 2 and mag.shape[0] > 0
            and mag.shape[1] == n and mag.dtype.kind == phase.dtype.kind == "f"
        ):
            raise InvalidConfig(f"magnitude and phase must be real arrays of {n}-bin frames")
        _check_length(self.n_samples)
        mag.setflags(write=False)
        phase.setflags(write=False)


def _unwrap_rows(phase: np.ndarray) -> np.ndarray:
    """``np.unwrap(phase, axis=1)`` of finite phases, in place and byte for byte.

    numpy's correction of a step ``dd`` is 0 for ``|dd| < pi``, so only the
    steps that wrap are corrected, by numpy's own expressions; the others add
    an exact 0 to the same running sum. Only a NaN step, which finite phases
    never make, is treated differently.
    """
    dd = np.diff(phase, axis=1)
    wraps = np.flatnonzero((dd >= np.pi) | (dd <= -np.pi))
    steps = dd.reshape(-1).take(wraps)
    mod = np.add(steps, np.pi)
    np.mod(mod, 2.0 * np.pi, out=mod)
    mod -= np.pi
    # A step of exactly +pi keeps its sign, as in np.unwrap.
    mod[(mod == -np.pi) & (steps > 0)] = np.pi
    mod -= steps
    correction = dd  # the steps are taken: dd becomes the zero array
    correction.fill(0.0)
    correction.reshape(-1)[wraps] = mod
    np.cumsum(correction, axis=1, out=correction)
    phase[:, 1:] += correction
    return phase


def analyse_warp(buf: AudioBuffer, cfg: StftConfig = StftConfig()) -> WarpAnalysis:
    """Analyse a buffer once for warping with any family and alpha."""
    frames = stft(buf, cfg).frames
    phase = _unwrap_rows(np.angle(frames))
    return WarpAnalysis(np.abs(frames), phase, cfg, buf.sample_rate, len(buf))


def warp_analysed(analysis: WarpAnalysis, spec: WarpSpec) -> AudioBuffer:
    """Warp every frame of an analysed buffer and resynthesize at its length."""
    pos = _source_positions(spec, analysis.config.n_bins)
    warped = _resample_frames(analysis.magnitude, analysis.phase, pos)
    spectrogram = Spectrogram(warped, analysis.config, analysis.sample_rate)
    return istft(spectrogram, analysis.n_samples)


def vtln_transform(buf: AudioBuffer, spec: WarpSpec, cfg: StftConfig = StftConfig()) -> AudioBuffer:
    """Warp every frame of the buffer's spectrogram and resynthesize.

    Output sample count and rate equal the input's.
    """
    return warp_analysed(analyse_warp(buf, cfg), spec)
