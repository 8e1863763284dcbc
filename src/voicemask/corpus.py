"""Corpus manifests, degree schedules, and the deterministic synthetic corpus.

A manifest lists a corpus's WAV files with speaker, gender and partition; a
degree schedule maps a sweep degree to one transform's parameter; and
``synth_corpus`` writes a seeded source-filter corpus with its manifest.
None of this needs the speaker-recognition stack, so the commands that only
transform or synthesise audio load this module and not ``experiment``.
"""

from __future__ import annotations

import csv
import io
from collections import deque
from dataclasses import dataclass
from functools import partial
from pathlib import Path

import numpy as np

from . import signal_core
from .errors import InvalidConfig, InvariantViolation, IoFailure, ParseError, VoicemaskError
from .phase_vocoder import PitchAnalysis, PitchShiftSpec, analyse_pitch, shift_analysed
from .signal_core import AudioBuffer, read_text
from .vtln import WarpAnalysis, WarpSpec, analyse_warp, warp_analysed

__all__ = [
    "ALGORITHMS",
    "PITCH_ALGORITHMS",
    "MAX_DEGREE",
    "ManifestEntry",
    "CorpusManifest",
    "DegreeSchedule",
    "load_manifest",
    "synth_corpus",
]

PITCH_ALGORITHMS = ("voc", "vocf")  # the rest of ALGORITHMS are spectral warps
ALGORITHMS = PITCH_ALGORITHMS + ("quadratic", "bilinear")
MAX_DEGREE = 25  # degrees run 0..MAX_DEGREE; 0 is the identity

_MANIFEST_HEADER = ["path", "speaker_id", "gender", "partition"]


def _read_csv(path, header: list[str], if_empty: VoicemaskError) -> list[tuple[int, list[str]]]:
    """Data rows of a UTF-8 CSV file under ``header``, each with its 1-based line number."""
    reader = csv.reader(io.StringIO(read_text(path), newline=""))
    try:
        rows = [(reader.line_num, row) for row in reader]
    except csv.Error as exc:
        raise ParseError(str(exc), line=reader.line_num) from None
    if not rows:
        raise if_empty
    if rows[0][1] != header:
        raise ParseError(f"expected header {','.join(header)}", line=1)
    return rows[1:]


# --- manifest ----------------------------------------------------------------


@dataclass(frozen=True)
class ManifestEntry:
    path: Path
    speaker_id: str
    gender: str
    partition: str


@dataclass(frozen=True)
class CorpusManifest:
    """Ordered corpus entries; every speaker has one gender, and train and test material."""

    entries: tuple[ManifestEntry, ...]

    def __post_init__(self):
        entries = tuple(self.entries)
        seen = set()
        genders: dict[str, str] = {}
        partitions: dict[str, set[str]] = {}
        for e in entries:
            if e.path in seen:
                raise InvariantViolation(f"duplicate path {e.path}")
            seen.add(e.path)
            if genders.setdefault(e.speaker_id, e.gender) != e.gender:
                raise InvariantViolation(f"speaker {e.speaker_id} is listed under two genders")
            partitions.setdefault(e.speaker_id, set()).add(e.partition)
        for speaker, parts in partitions.items():
            if "train" not in parts:
                raise InvariantViolation(f"speaker {speaker} has no train entry")
            if "test" not in parts:
                raise InvariantViolation(f"speaker {speaker} has no test entry")
        object.__setattr__(self, "entries", entries)

    def train_entries(self):
        return [e for e in self.entries if e.partition == "train"]

    def test_entries(self):
        return [e for e in self.entries if e.partition == "test"]

    def speakers(self):
        return sorted({e.speaker_id for e in self.entries})


def load_manifest(path) -> CorpusManifest:
    """Parse a manifest CSV; relative paths resolve against the CSV's directory."""
    path = Path(path)
    base = path.parent
    entries = []
    for line, row in _read_csv(path, _MANIFEST_HEADER, ParseError("empty manifest", line=1)):
        if len(row) != 4:
            raise ParseError(f"expected 4 fields, got {len(row)}", line=line)
        file_path, speaker_id, gender, partition = (v.strip() for v in row)
        if gender not in ("M", "F"):
            raise ParseError(f"gender must be M or F, got {gender!r}", line=line)
        if partition not in ("train", "test"):
            raise ParseError(f"partition must be train or test, got {partition!r}", line=line)
        resolved = Path(file_path)
        if not resolved.is_absolute():
            resolved = base / resolved
        entries.append(ManifestEntry(resolved, speaker_id, gender, partition))
    return CorpusManifest(tuple(entries))


# --- degree schedules ----------------------------------------------------------

_QUADRATIC_STEP = {"F": 0.057, "M": -0.029}
_BILINEAR_STEP = {"F": 0.0065, "M": -0.0043}


@dataclass(frozen=True)
class DegreeSchedule:
    """Maps (degree, gender) to a transform parameter for one algorithm.

    Pitch directions are gender-independent (voc shifts up, vocf down); the
    warp families move female voices up and male voices down, in
    gender-specific step sizes. Degree 0 is the identity for every algorithm.
    """

    algorithm: str

    def __post_init__(self):
        if self.algorithm not in ALGORITHMS:
            raise InvalidConfig(f"algorithm must be one of {ALGORITHMS}, got {self.algorithm!r}")

    @property
    def family(self) -> str:
        """``pitch`` or ``warp``; schedules of one family share an analysis."""
        return "pitch" if self.algorithm in PITCH_ALGORITHMS else "warp"

    def parameter(self, degree: int, gender: str | None = None) -> float:
        if not 0 <= degree <= MAX_DEGREE:
            raise InvalidConfig(f"degree must be in 0..{MAX_DEGREE}, got {degree}")
        if self.algorithm == "voc":
            return 2.0 ** (degree / 24.0)
        if self.algorithm == "vocf":
            return 2.0 ** (-degree / 24.0)
        if gender not in ("M", "F"):
            raise InvalidConfig(f"{self.algorithm} schedule needs gender M or F, got {gender!r}")
        step = _QUADRATIC_STEP if self.algorithm == "quadratic" else _BILINEAR_STEP
        return step[gender] * degree

    def analyse(self, buf: AudioBuffer) -> PitchAnalysis | WarpAnalysis:
        """The degree-independent analysis of ``buf`` that apply() modifies."""
        return analyse_pitch(buf) if self.family == "pitch" else analyse_warp(buf)

    def apply(
        self, analysis: PitchAnalysis | WarpAnalysis, degree: int, gender: str | None = None
    ) -> AudioBuffer:
        """Modify and resynthesize an analysis from analyse() at one degree."""
        param = self.parameter(degree, gender)
        if self.family == "pitch":
            return shift_analysed(analysis, PitchShiftSpec(ratio=param))
        return warp_analysed(analysis, WarpSpec(self.algorithm, param))


# --- synthetic corpus ----------------------------------------------------------

_SYNTH_RATE = 16000
_SYNTH_SECONDS = 3.0
_SEGMENTS_PER_UTT = 6
_CROSSFADE_S = 0.030
_MAX_HARMONIC_HZ = 7600.0

# Vowel-like resonator targets (Hz) shared by all speakers; female voices use
# the same shapes scaled up.
_BASE_PROFILES = (
    (730.0, 1090.0, 2440.0),
    (270.0, 2290.0, 3010.0),
    (300.0, 870.0, 2240.0),
    (530.0, 1840.0, 2480.0),
)
_RESONANCE_BW = (90.0, 120.0, 170.0)
_RESONANCE_GAIN = (1.0, 0.7, 0.4)
_FEMALE_FORMANT_SCALE = 1.18
_MALE_F0_RANGE = (100.0, 140.0)
_FEMALE_F0_RANGE = (190.0, 240.0)
# The two genders differ in where their frame-to-frame variability lives.
# Males are bright and steady: narrow vowel trajectories plus high-band
# aspiration noise with slow amplitude wander. Females are dark and wide:
# broad vowel trajectories, strong roll-off, and only a faint steady floor.
# This keeps both recognizers near-perfect on clean voices while letting
# strongly up-moved spectra read as male and strongly down-moved as female.
_PROFILE_SPREAD = {"M": 0.30, "F": 1.0}
_NOISE_LEVEL = {"M": 0.075, "F": 0.025}
_NOISE_AM = {"M": 0.45, "F": 0.0}
_NOISE_CORNER_HZ = {"M": 3600.0, "F": 2400.0}
_F0_WOBBLE = {"M": 0.008, "F": 0.010}
_AM_WOBBLE = {"M": 0.04, "F": 0.12}
_SOURCE_TILT_HZ = {"M": 1100.0, "F": 650.0}
_SPEAKER_FORMANT_JITTER = {"M": 0.09, "F": 0.16}
_SPEAKER_DURATION_JITTER = 0.50
_SPEAKER_NOISE_JITTER = {"M": 0.30, "F": 0.20}
_SPEAKER_WOBBLE_JITTER = 0.6
# Per-harmonic slow gain flutter: a mid-band variance floor that rides on
# the harmonic structure, so it moves away with it under warps.
_HARMONIC_FLUTTER = {"M": 0.05, "F": 0.04}
_SPEAKER_FLUTTER_JITTER = 0.5
# Male voices carry a slow spectral-tilt wobble. Resynthesis of slightly
# warped spectra adds smooth band-correlated level flicker (a low-order
# cepstral artifact); the tilt wobble gives the male pool a matching
# low-order variance floor without loosening its mid-order structure,
# which real warps must still break.
_TILT_WOBBLE = {"M": 0.30, "F": 0.10}
_SPEAKER_TILT_JITTER = 0.3
_TILT_RATE_HZ = 3.0
_SPEAKER_SCALE_JITTER = {"M": 0.05, "F": 0.10}
_UTTERANCE_FORMANT_JITTER = 0.006


def _smooth_noise(rng, n_samples: int, control_hz: float, fs: int) -> np.ndarray:
    """Band-limited unit-variance noise via linear interpolation of a coarse grid."""
    n_ctrl = max(2, int(np.ceil(n_samples / fs * control_hz)) + 1)
    coarse = rng.standard_normal(n_ctrl)
    t = np.linspace(0.0, n_ctrl - 1.0, n_samples)
    return np.interp(t, np.arange(n_ctrl), coarse)


def _resonance_envelope(freqs: np.ndarray, formants, tilt_hz: float) -> np.ndarray:
    """Parallel resonator magnitude response with a gentle source roll-off."""
    total = np.zeros_like(freqs)
    for (f, bw), gain in zip(formants, _RESONANCE_GAIN):
        total += gain / np.sqrt(1.0 + ((freqs - f) / (bw / 2.0)) ** 2)
    tilt = 1.0 / (1.0 + (freqs / tilt_hz) ** 2)
    return (total + 0.003) * tilt


def _highband_noise(rng, n_samples: int, corner_hz: float, fs: int) -> np.ndarray:
    """Unit-RMS noise concentrated above the corner frequency."""
    white = rng.standard_normal(n_samples)
    spectrum = np.fft.rfft(white)
    freqs = np.fft.rfftfreq(n_samples, 1.0 / fs)
    ratio = (freqs / corner_hz) ** 2
    spectrum *= ratio / (1.0 + ratio)
    shaped = np.fft.irfft(spectrum, n=n_samples)
    return shaped / np.sqrt(np.mean(shaped**2))


_FLUTTER_POINTS = max(2, int(np.ceil(_SYNTH_SECONDS * 7.0)) + 1)  # per-harmonic gain controls


def _flutter_grid():
    """Read-only (left, frac, 1 - frac, ctrl_start) for the flutter interpolation.

    Each sample's control interval and its place in it, and each interval's
    first sample. Only the utterance length sets them, so a corpus builds
    them once and every render reads them.
    """
    n_ctrl = _FLUTTER_POINTS
    t_pos = np.linspace(0.0, n_ctrl - 1.0, int(_SYNTH_SECONDS * _SYNTH_RATE))
    left = np.minimum(t_pos.astype(np.intp), n_ctrl - 2)
    frac = t_pos - left
    grid = (left, frac, 1.0 - frac, np.searchsorted(left, np.arange(n_ctrl)))
    for array in grid:
        array.flags.writeable = False
    return grid


def _draw_utterance(
    rng, grid, f0: float, profiles, gender: str, noise_gain: float, emphasis, wobble: float,
    flutter: float, tilt_wobble: float,
):
    """One utterance's renderer with its random draws bound, drawn in the stream's order.

    Calling the result renders the samples; it touches no generator, so any
    thread may call it.
    """
    fs = _SYNTH_RATE
    total = int(_SYNTH_SECONDS * fs)
    n_harm = int(_MAX_HARMONIC_HZ / (f0 * (1.0 + 2.0 * wobble)))
    # Arguments are evaluated left to right, which is the draw order.
    return partial(
        _render_utterance, grid, f0, profiles, gender, noise_gain, emphasis, wobble, flutter,
        tilt_wobble,
        weight_jitter=rng.standard_normal(_SEGMENTS_PER_UTT),
        f0_noise=_smooth_noise(rng, total, 18.0, fs),
        harmonic_phases=rng.uniform(0.0, 2.0 * np.pi, n_harm),
        flutter_coarse=rng.standard_normal((n_harm, _FLUTTER_POINTS)),
        slope_noise=_smooth_noise(rng, total, _TILT_RATE_HZ, fs),
        am_noise=_smooth_noise(rng, total, 8.0, fs),
        noise=_highband_noise(rng, total, _NOISE_CORNER_HZ[gender], fs),
        noise_am=_smooth_noise(rng, total, 6.0, fs),
    )


def _render_utterance(
    grid, f0: float, profiles, gender: str, noise_gain: float, emphasis, wobble: float,
    flutter: float, tilt_wobble: float, *, weight_jitter, f0_noise, harmonic_phases,
    flutter_coarse, slope_noise, am_noise, noise, noise_am,
) -> np.ndarray:
    fs = _SYNTH_RATE
    total = int(_SYNTH_SECONDS * fs)
    fade = int(_CROSSFADE_S * fs)

    # Segment plan: cycle the vowel profiles in fixed order; the speaker's
    # per-profile emphasis tilts the dwell times, small jitter per utterance.
    order = [profiles[i % len(profiles)] for i in range(_SEGMENTS_PER_UTT)]
    weights = np.array([emphasis[i % len(profiles)] for i in range(_SEGMENTS_PER_UTT)])
    weights = weights * (1.0 + 0.04 * weight_jitter)
    bounds = np.round(np.cumsum(weights) / weights.sum() * total).astype(int)
    starts = np.concatenate([[0], bounds[:-1]])

    f0_track = f0 * (1.0 + wobble * f0_noise)
    phase = 2.0 * np.pi * np.cumsum(f0_track) / fs

    n_harm = len(harmonic_phases)
    k = np.arange(1, n_harm + 1)
    left, frac, rest, ctrl_start = grid  # slow independent gain flutter per harmonic

    # slow spectral-tilt wobble: smooth, band-correlated level variation
    slope = tilt_wobble * slope_noise
    log_freq = np.log(k * f0 / 1000.0)

    # Each segment's flutter tracks, tilt factor and harmonic grid are built
    # in place, in buffers of that segment's size, one flutter control
    # interval at a time: whole-utterance (n_harm, total) grids fall out of
    # cache. Every element gets the operations of the whole-grid form in the
    # same order, and einsum's operand order fixes its products and its sum
    # over k, so the samples keep their bits (tests/test_synth_oracle.py).
    voiced = np.zeros(total)
    for seg, (start, end) in enumerate(zip(starts, bounds)):
        lo = max(0, start - fade // 2)
        hi = min(total, end + fade // 2)
        length = hi - lo
        formants = order[seg]
        amps = _resonance_envelope(k * f0, formants, _SOURCE_TILT_HZ[gender])
        tracks = np.empty((n_harm, length))
        chunk = np.empty((n_harm, length))
        for j in range(left[lo], left[hi - 1] + 1):
            a, b = max(ctrl_start[j], lo), min(ctrl_start[j + 1], hi)
            np.multiply(flutter_coarse[:, j, None], rest[a:b], out=tracks[:, a - lo : b - lo])
            np.multiply(flutter_coarse[:, j + 1, None], frac[a:b], out=chunk[:, a - lo : b - lo])
        tracks += chunk
        tracks *= flutter
        tracks += 1.0
        np.multiply(log_freq[:, None], slope[lo:hi], out=chunk)
        tracks *= np.exp(chunk, out=chunk)
        np.multiply(k[:, None], phase[lo:hi], out=chunk)
        chunk += harmonic_phases[:, None]
        np.cos(chunk, out=chunk)
        segment = np.einsum("k,kl,kl->l", amps, tracks, chunk)
        ramp = np.ones(length)
        edge = np.minimum(fade, length // 2)
        if edge > 0:
            shape = 0.5 - 0.5 * np.cos(np.pi * np.arange(edge) / edge)
            ramp[:edge] = shape
            ramp[length - edge :] = shape[::-1]
        voiced[lo:hi] += segment * ramp

    voiced *= 1.0 + _AM_WOBBLE[gender] * am_noise
    rms = np.sqrt(np.mean(voiced**2))
    noise = noise * (1.0 + _NOISE_AM[gender] * noise_am)
    signal = voiced + noise * _NOISE_LEVEL[gender] * noise_gain * rms
    return signal * (0.35 / np.max(np.abs(signal)))


def _draw_corpus(rng, grid, n_speakers: int, utterances_per_speaker: int, out_dir: Path):
    """Each utterance's manifest entry and bound renderer, in manifest order, from one stream."""
    mean_profile = np.mean(_BASE_PROFILES, axis=0)
    for i in range(n_speakers):
        gender = "M" if i % 2 == 0 else "F"
        speaker = f"spk{i:02d}"
        lo, hi = _MALE_F0_RANGE if gender == "M" else _FEMALE_F0_RANGE
        f0 = rng.uniform(lo, hi)
        scale = 1.0 if gender == "M" else _FEMALE_FORMANT_SCALE
        scale *= 1.0 + _SPEAKER_SCALE_JITTER[gender] * rng.standard_normal()
        noise_gain = 1.0 + _SPEAKER_NOISE_JITTER[gender] * rng.uniform(-1.0, 1.0)
        wobble = _F0_WOBBLE[gender] * (1.0 + _SPEAKER_WOBBLE_JITTER * rng.uniform(-1.0, 1.0))
        flutter = _HARMONIC_FLUTTER[gender] * (
            1.0 + _SPEAKER_FLUTTER_JITTER * rng.uniform(-1.0, 1.0)
        )
        tilt_wobble = _TILT_WOBBLE[gender] * (
            1.0 + _SPEAKER_TILT_JITTER * rng.uniform(-1.0, 1.0)
        )
        emphasis = 1.0 + _SPEAKER_DURATION_JITTER * rng.uniform(-1.0, 1.0, len(_BASE_PROFILES))
        spread = _PROFILE_SPREAD[gender]
        profiles = []
        for base in _BASE_PROFILES:
            narrowed = mean_profile + spread * (np.asarray(base) - mean_profile)
            jitter = 1.0 + _SPEAKER_FORMANT_JITTER[gender] * rng.standard_normal(len(base))
            profiles.append(
                tuple((f * scale * j, bw) for f, bw, j in zip(narrowed, _RESONANCE_BW, jitter))
            )
        for u in range(utterances_per_speaker):
            utt_profiles = [
                tuple(
                    (f * (1.0 + _UTTERANCE_FORMANT_JITTER * rng.standard_normal()), bw)
                    for f, bw in prof
                )
                for prof in profiles
            ]
            render = _draw_utterance(
                rng, grid, f0, utt_profiles, gender, noise_gain, emphasis, wobble, flutter,
                tilt_wobble,
            )
            path = out_dir / f"{speaker}_u{u:02d}.wav"
            yield ManifestEntry(path, speaker, gender, "train" if u == 0 else "test"), render


def synth_corpus(seed: int, n_speakers: int, utterances_per_speaker: int, out_dir) -> CorpusManifest:
    """Generate a deterministic source-filter corpus and its manifest.

    Speakers alternate male/female; each gets a fixed fundamental drawn from
    its gender's range, per-speaker formant offsets, and small per-utterance
    jitter. Utterance 0 is the train partition, the rest are test. A
    directory or file that cannot be written is IoFailure.

    The calling thread draws every random number, from one stream, and
    writes every file, in manifest order. A pool of one thread per usable
    CPU renders the drawn utterances, with at most two per worker drawn and
    not yet written. The bytes do not depend on the CPU count.
    """
    if seed < 0:  # numpy's seeding refuses it with a plain ValueError
        raise InvalidConfig(f"seed must be non-negative, got {seed}")
    if n_speakers % 2 != 0:
        raise InvalidConfig(f"n_speakers must be even, got {n_speakers}")
    if n_speakers < 2:
        raise InvalidConfig(f"need at least 2 speakers, got {n_speakers}")
    if utterances_per_speaker < 2:
        raise InvalidConfig(f"need at least 2 utterances per speaker, got {utterances_per_speaker}")
    out_dir = Path(out_dir)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except (OSError, ValueError) as exc:  # ValueError: a NUL byte in the path
        raise IoFailure(f"cannot write {out_dir}: {exc}") from exc
    from concurrent.futures import ThreadPoolExecutor

    rng = np.random.default_rng(seed)
    total = n_speakers * utterances_per_speaker
    workers = min(signal_core._usable_cpus(), total)
    entries = []
    pending = deque()  # (path, future samples): drawn but not yet written
    pool = ThreadPoolExecutor(workers)
    try:
        draws = _draw_corpus(rng, _flutter_grid(), n_speakers, utterances_per_speaker, out_dir)
        for entry, render in draws:
            entries.append(entry)
            pending.append((entry.path, pool.submit(render)))
            # Write one when the window is full, and every one left after the last draw.
            while pending and (len(pending) == 2 * workers or len(entries) == total):
                path, samples = pending.popleft()
                # Through the module: perfbench's --trace spans rebind write_wav in
                # the modules it knows, and this one is not among them. The spans
                # are not thread-safe, so every write stays on this thread.
                signal_core.write_wav(path, AudioBuffer(samples.result(), _SYNTH_RATE))
    finally:
        # On an error, drop the renders not yet started and join the rest.
        pool.shutdown(cancel_futures=True)

    manifest = out_dir / "manifest.csv"
    try:
        with open(manifest, "w", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(_MANIFEST_HEADER)
            for e in entries:
                writer.writerow([e.path.name, e.speaker_id, e.gender, e.partition])
    except OSError as exc:
        raise IoFailure(f"cannot write {manifest}: {exc}") from exc
    return CorpusManifest(tuple(entries))


