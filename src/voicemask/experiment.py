"""Corpus management, degree sweeps, crossover extraction, and MOS aggregation.

A sweep enrolls covariance models on unmodified training audio, then applies
each algorithm at every modification degree to the test files and records
gender-classification and top-1 identification success rates per
(algorithm, gender, degree).
"""

from __future__ import annotations

import csv
import io
import logging
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import (
    EmptyInput,
    InvariantViolation,
    NoCrossover,
    ParseError,
    VoicemaskError,
)
from .phase_vocoder import PitchAnalysis, PitchShiftSpec, analyse_pitch, shift_analysed
from .signal_core import AudioBuffer, read_text, read_wav, write_wav
from .speaker_id import (
    SpeakerModel,
    classify_gender,
    covariance_model,
    extract_cepstra,
    identify_speaker,
    train_gender_models,
)
from .vtln import WarpAnalysis, WarpSpec, analyse_warp, warp_analysed

__all__ = [
    "ALGORITHMS",
    "PITCH_ALGORITHMS",
    "MAX_DEGREE",
    "ManifestEntry",
    "CorpusManifest",
    "DegreeSchedule",
    "SweepRow",
    "SweepResult",
    "MosTable",
    "load_manifest",
    "synth_corpus",
    "enroll",
    "run_degree_sweep",
    "find_crossover",
    "aggregate_mos",
    "emit_report",
    "load_sweep",
]

log = logging.getLogger(__name__)

PITCH_ALGORITHMS = ("voc", "vocf")  # the rest of ALGORITHMS are spectral warps
ALGORITHMS = PITCH_ALGORITHMS + ("quadratic", "bilinear")
MAX_DEGREE = 25  # degrees run 0..MAX_DEGREE; 0 is the identity

_MANIFEST_HEADER = ["path", "speaker_id", "gender", "partition"]
_SWEEP_HEADER = [
    "algorithm",
    "gender",
    "degree",
    "gender_success_rate",
    "identification_rate",
    "n_files",
]
_RATINGS_HEADER = ["listener_id", "file_id", "algorithm", "degree", "rating"]


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
    """Ordered corpus entries; every speaker has train and test material."""

    entries: tuple[ManifestEntry, ...]

    def __post_init__(self):
        entries = tuple(self.entries)
        seen = set()
        for e in entries:
            if e.path in seen:
                raise InvariantViolation(f"duplicate path {e.path}")
            seen.add(e.path)
        partitions: dict[str, set[str]] = {}
        for e in entries:
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
            raise ValueError(f"algorithm must be one of {ALGORITHMS}, got {self.algorithm!r}")

    @property
    def family(self) -> str:
        """``pitch`` or ``warp``; schedules of one family share an analysis."""
        return "pitch" if self.algorithm in PITCH_ALGORITHMS else "warp"

    def parameter(self, degree: int, gender: str | None = None) -> float:
        if not 0 <= degree <= MAX_DEGREE:
            raise ValueError(f"degree must be in 0..{MAX_DEGREE}, got {degree}")
        if self.algorithm == "voc":
            return 2.0 ** (degree / 24.0)
        if self.algorithm == "vocf":
            return 2.0 ** (-degree / 24.0)
        if gender not in ("M", "F"):
            raise ValueError(f"{self.algorithm} schedule needs gender M or F, got {gender!r}")
        step = _QUADRATIC_STEP if self.algorithm == "quadratic" else _BILINEAR_STEP
        return step[gender] * degree

    def analyse(self, buf: AudioBuffer) -> PitchAnalysis | WarpAnalysis:
        """The degree-independent analysis of ``buf`` that apply() modifies."""
        return analyse_pitch(buf) if self.family == "pitch" else analyse_warp(buf)

    def apply(
        self,
        analysis: PitchAnalysis | WarpAnalysis,
        degree: int,
        gender: str | None = None,
        variant: str = "identity-locked",
    ) -> AudioBuffer:
        """Modify and resynthesize an analysis from analyse() at one degree."""
        param = self.parameter(degree, gender)
        if self.family == "pitch":
            return shift_analysed(analysis, PitchShiftSpec(ratio=param, variant=variant))
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


def _render_utterance(
    rng, f0: float, profiles, gender: str, noise_gain: float, emphasis, wobble: float,
    flutter: float, tilt_wobble: float,
) -> np.ndarray:
    fs = _SYNTH_RATE
    total = int(_SYNTH_SECONDS * fs)
    fade = int(_CROSSFADE_S * fs)

    # Segment plan: cycle the vowel profiles in fixed order; the speaker's
    # per-profile emphasis tilts the dwell times, small jitter per utterance.
    order = [profiles[i % len(profiles)] for i in range(_SEGMENTS_PER_UTT)]
    weights = np.array([emphasis[i % len(profiles)] for i in range(_SEGMENTS_PER_UTT)])
    weights = weights * (1.0 + 0.04 * rng.standard_normal(_SEGMENTS_PER_UTT))
    bounds = np.round(np.cumsum(weights) / weights.sum() * total).astype(int)
    starts = np.concatenate([[0], bounds[:-1]])

    f0_track = f0 * (1.0 + wobble * _smooth_noise(rng, total, 18.0, fs))
    phase = 2.0 * np.pi * np.cumsum(f0_track) / fs

    n_harm = int(_MAX_HARMONIC_HZ / (f0 * (1.0 + 2.0 * wobble)))
    harmonic_phases = rng.uniform(0.0, 2.0 * np.pi, n_harm)
    k = np.arange(1, n_harm + 1)

    # slow independent gain flutter per harmonic
    n_ctrl = max(2, int(np.ceil(_SYNTH_SECONDS * 7.0)) + 1)
    coarse = rng.standard_normal((n_harm, n_ctrl))
    t_pos = np.linspace(0.0, n_ctrl - 1.0, total)
    left = np.minimum(t_pos.astype(np.intp), n_ctrl - 2)
    frac = t_pos - left
    flutter_tracks = 1.0 + flutter * (
        coarse[:, left] * (1.0 - frac) + coarse[:, left + 1] * frac
    )

    # slow spectral-tilt wobble: smooth, band-correlated level variation
    if tilt_wobble > 0.0:
        slope = tilt_wobble * _smooth_noise(rng, total, _TILT_RATE_HZ, fs)
        log_freq = np.log(k * f0 / 1000.0)
        flutter_tracks *= np.exp(np.outer(log_freq, slope))

    voiced = np.zeros(total)
    window_cache = {}
    for seg, (start, end) in enumerate(zip(starts, bounds)):
        lo = max(0, start - fade // 2)
        hi = min(total, end + fade // 2)
        formants = order[seg]
        amps = _resonance_envelope(k * f0, formants, _SOURCE_TILT_HZ[gender])
        chunk = np.cos(np.outer(k, phase[lo:hi]) + harmonic_phases[:, None])
        segment = np.einsum("k,kl,kl->l", amps, flutter_tracks[:, lo:hi], chunk)
        length = hi - lo
        if length not in window_cache:
            ramp = np.ones(length)
            edge = np.minimum(fade, length // 2)
            if edge > 0:
                shape = 0.5 - 0.5 * np.cos(np.pi * np.arange(edge) / edge)
                ramp[:edge] = shape
                ramp[length - edge :] = shape[::-1]
            window_cache[length] = ramp
        voiced[lo:hi] += segment * window_cache[length]

    voiced *= 1.0 + _AM_WOBBLE[gender] * _smooth_noise(rng, total, 8.0, fs)
    rms = np.sqrt(np.mean(voiced**2))
    noise = _highband_noise(rng, total, _NOISE_CORNER_HZ[gender], fs)
    noise *= 1.0 + _NOISE_AM[gender] * _smooth_noise(rng, total, 6.0, fs)
    signal = voiced + noise * _NOISE_LEVEL[gender] * noise_gain * rms
    return signal * (0.35 / np.max(np.abs(signal)))


def synth_corpus(seed: int, n_speakers: int, utterances_per_speaker: int, out_dir) -> CorpusManifest:
    """Generate a deterministic source-filter corpus and its manifest.

    Speakers alternate male/female; each gets a fixed fundamental drawn from
    its gender's range, per-speaker formant offsets, and small per-utterance
    jitter. Utterance 0 is the train partition, the rest are test.
    """
    if n_speakers % 2 != 0:
        raise ValueError(f"n_speakers must be even, got {n_speakers}")
    if utterances_per_speaker < 2:
        raise ValueError(f"need at least 2 utterances per speaker, got {utterances_per_speaker}")
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(seed)
    entries = []
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
            samples = _render_utterance(
                rng, f0, utt_profiles, gender, noise_gain, emphasis, wobble, flutter,
                tilt_wobble,
            )
            name = f"{speaker}_u{u:02d}.wav"
            write_wav(out_dir / name, AudioBuffer(samples, _SYNTH_RATE))
            partition = "train" if u == 0 else "test"
            entries.append(ManifestEntry(out_dir / name, speaker, gender, partition))

    with open(out_dir / "manifest.csv", "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(_MANIFEST_HEADER)
        for e in entries:
            writer.writerow([e.path.name, e.speaker_id, e.gender, e.partition])
    return CorpusManifest(tuple(entries))


# --- sweep ---------------------------------------------------------------------


@dataclass(frozen=True)
class SweepRow:
    algorithm: str
    gender: str
    degree: int
    gender_success_rate: float
    identification_rate: float
    n_files: int


@dataclass(frozen=True)
class SweepResult:
    """One row per (algorithm, gender, degree), sorted."""

    rows: tuple[SweepRow, ...]

    def curve(self, algorithm: str, metric: str = "identification", gender: str | None = None):
        """Rate-vs-degree curve, pooled over genders (n-weighted) unless one is given."""
        if metric not in ("identification", "gender"):
            raise ValueError(f"metric must be identification or gender, got {metric!r}")
        per_degree: dict[int, list[SweepRow]] = {}
        for row in self.rows:
            if row.algorithm == algorithm and (gender is None or row.gender == gender):
                per_degree.setdefault(row.degree, []).append(row)
        curve = []
        for degree in sorted(per_degree):
            rows = per_degree[degree]
            n = sum(r.n_files for r in rows)
            if metric == "identification":
                hits = sum(r.identification_rate * r.n_files for r in rows)
            else:
                hits = sum(r.gender_success_rate * r.n_files for r in rows)
            curve.append((degree, hits / n))
        return curve


def enroll(manifest: CorpusManifest) -> tuple[list[SpeakerModel], SpeakerModel, SpeakerModel]:
    """Speaker models sorted by label, plus the male and female gender models.

    Models are built on the unmodified train audio. A train file that cannot
    be read or featurised is logged once and left out; a speaker left with no
    usable train material is logged and not enrolled. If a whole gender
    loses its train material, MissingGender propagates.
    """
    per_speaker: dict[str, list[np.ndarray]] = {}
    genders: dict[str, str] = {}
    pooled = []
    for entry in manifest.train_entries():
        try:
            feats = extract_cepstra(read_wav(entry.path))
        except VoicemaskError as exc:
            log.warning("skipping %s: %s", entry.path, exc)
            continue
        per_speaker.setdefault(entry.speaker_id, []).append(feats)
        genders[entry.speaker_id] = entry.gender
        pooled.append((feats, entry.gender))
    speakers = []
    for spk in sorted(per_speaker):
        try:
            speakers.append(
                covariance_model(np.vstack(per_speaker[spk]), label=spk, gender=genders[spk])
            )
        except VoicemaskError as exc:
            log.warning("not enrolling %s: %s", spk, exc)
    male, female = train_gender_models(pooled)
    return speakers, male, female


def run_degree_sweep(
    corpus: CorpusManifest, algorithms=ALGORITHMS, degrees=tuple(range(26))
) -> SweepResult:
    """Run the full modification sweep over a corpus.

    Models are enrolled on unmodified train audio only (see enroll). Each
    test file is read and analysed once per transform family, then modified
    at every (algorithm, degree) cell. A file that cannot be read or
    analysed, or whose speaker is not enrolled, is logged once and left out
    of every cell; a per-cell transform or modeling failure is logged and
    excluded from that cell's n_files. The aggregation is order-independent.
    """
    algorithms = tuple(algorithms)
    degrees = tuple(int(d) for d in degrees)
    for algo in algorithms:
        if algo not in ALGORITHMS:
            raise ValueError(f"unknown algorithm {algo!r}")
    enrolled, male, female = enroll(corpus)
    labels = {model.label for model in enrolled}
    schedules = [DegreeSchedule(algo) for algo in algorithms]
    analysers = {schedule.family: schedule for schedule in schedules}

    counts: dict[tuple[str, str, int], list[int]] = {}
    for entry in corpus.test_entries():
        if entry.speaker_id not in labels:
            log.warning("skipping %s: speaker %s is not enrolled", entry.path, entry.speaker_id)
            continue
        try:
            buf = read_wav(entry.path)
            analyses = {family: s.analyse(buf) for family, s in analysers.items()}
        except VoicemaskError as exc:
            log.warning("skipping %s: %s", entry.path, exc)
            continue
        for schedule in schedules:
            algo = schedule.algorithm
            for degree in degrees:
                try:
                    modified = schedule.apply(analyses[schedule.family], degree, entry.gender)
                    feats = extract_cepstra(modified)
                    test_model = covariance_model(feats, label="probe")
                    decided, _ = classify_gender(test_model, male, female)
                    top_label = identify_speaker(test_model, enrolled)[0][0]
                except VoicemaskError as exc:
                    log.warning("skipping %s / %s / degree %d: %s", entry.path, algo, degree, exc)
                    continue
                cell = counts.setdefault((algo, entry.gender, degree), [0, 0, 0])
                cell[0] += decided == entry.gender
                cell[1] += top_label == entry.speaker_id
                cell[2] += 1
        del analyses  # free this file's analyses before the next file's are built

    rows = [
        SweepRow(algo, gender, degree, hits_g / n, hits_i / n, n)
        for (algo, gender, degree), (hits_g, hits_i, n) in sorted(counts.items())
        if n > 0
    ]
    return SweepResult(tuple(rows))


def find_crossover(curve, level: float = 0.5) -> float:
    """First linearly-interpolated degree where the rate crosses the level.

    A curve that starts below the level returns its first degree; one that
    never falls below it raises NoCrossover.
    """
    points = [(float(d), float(r)) for d, r in curve]
    if not points:
        raise ValueError("curve is empty")
    degrees = [d for d, _ in points]
    if any(b <= a for a, b in zip(degrees, degrees[1:])):
        raise ValueError("degrees must be strictly increasing")
    if points[0][1] < level:
        return points[0][0]
    for (d0, r0), (d1, r1) in zip(points, points[1:]):
        if r1 < level:
            return d0 + (d1 - d0) * (r0 - level) / (r0 - r1)
    raise NoCrossover(f"rate never falls below {level}")


# --- MOS -----------------------------------------------------------------------


@dataclass(frozen=True)
class MosTable:
    """Mean opinion score and rating count per algorithm, sorted by algorithm."""

    scores: tuple[tuple[str, float, int], ...]

    def __post_init__(self):
        for algo, mean, count in self.scores:
            if not 1.0 <= mean <= 5.0:
                raise InvariantViolation(f"mean for {algo} outside [1, 5]: {mean}")
            if count <= 0:
                raise InvariantViolation(f"count for {algo} must be positive")

    def mean(self, algorithm: str) -> float:
        for algo, mean, _ in self.scores:
            if algo == algorithm:
                return mean
        raise KeyError(algorithm)


def aggregate_mos(ratings_path) -> MosTable:
    """Arithmetic mean of 1..5 intelligibility ratings per algorithm."""
    sums: dict[str, int] = {}
    counts: dict[str, int] = {}
    for line, row in _read_csv(ratings_path, _RATINGS_HEADER, EmptyInput("ratings file is empty")):
        if len(row) != 5:
            raise ParseError(f"expected 5 fields, got {len(row)}", line=line)
        algo = row[2].strip()
        try:
            rating = int(row[4])
        except ValueError:
            raise ParseError(f"rating must be an integer, got {row[4]!r}", line=line) from None
        if not 1 <= rating <= 5:
            raise ParseError(f"rating must be in 1..5, got {rating}", line=line)
        sums[algo] = sums.get(algo, 0) + rating
        counts[algo] = counts.get(algo, 0) + 1
    if not counts:
        raise EmptyInput("ratings file has no data rows")
    scores = tuple((algo, sums[algo] / counts[algo], counts[algo]) for algo in sorted(counts))
    return MosTable(scores)


# --- report --------------------------------------------------------------------


def emit_report(result: SweepResult, out_dir) -> None:
    """Write sweep.csv (authoritative) plus one SVG chart per algorithm."""
    if not result.rows:
        raise ValueError("empty sweep result")
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    with open(out_dir / "sweep.csv", "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(_SWEEP_HEADER)
        for row in result.rows:
            writer.writerow(
                [
                    row.algorithm,
                    row.gender,
                    row.degree,
                    f"{row.gender_success_rate:.6f}",
                    f"{row.identification_rate:.6f}",
                    row.n_files,
                ]
            )
    for algo in sorted({r.algorithm for r in result.rows}):
        (out_dir / f"sweep_{algo}.svg").write_text(_render_chart(result, algo))


def load_sweep(path) -> SweepResult:
    """Read back a sweep.csv written by emit_report."""
    rows = []
    for line, row in _read_csv(path, _SWEEP_HEADER, EmptyInput("sweep file is empty")):
        if len(row) != 6:
            raise ParseError(f"expected 6 fields, got {len(row)}", line=line)
        try:
            rows.append(
                SweepRow(row[0], row[1], int(row[2]), float(row[3]), float(row[4]), int(row[5]))
            )
        except ValueError as exc:
            raise ParseError(str(exc), line=line) from None
    return SweepResult(tuple(rows))


_CHART_SERIES = (
    ("M", "gender", "#1f77b4", "gender success (M)"),
    ("F", "gender", "#d62728", "gender success (F)"),
    ("M", "identification", "#2ca02c", "identification (M)"),
    ("F", "identification", "#9467bd", "identification (F)"),
)


def _render_chart(result: SweepResult, algorithm: str) -> str:
    width, height = 640, 400
    left, right, top, bottom = 60, 20, 40, 40
    plot_w, plot_h = width - left - right, height - top - bottom
    degrees = sorted({r.degree for r in result.rows if r.algorithm == algorithm})
    d_lo, d_hi = degrees[0], degrees[-1]
    span = max(d_hi - d_lo, 1)

    def x(d):
        return left + (d - d_lo) / span * plot_w

    def y(rate):
        return top + (1.0 - rate) * plot_h

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<text x="{width / 2:.0f}" y="24" text-anchor="middle" font-size="16">{algorithm}</text>',
        f'<line x1="{left}" y1="{y(0):.1f}" x2="{width - right}" y2="{y(0):.1f}" stroke="black"/>',
        f'<line x1="{left}" y1="{y(0):.1f}" x2="{left}" y2="{top}" stroke="black"/>',
    ]
    for level in (0.0, 0.5, 1.0):
        parts.append(
            f'<text x="{left - 8}" y="{y(level) + 4:.1f}" text-anchor="end" font-size="11">'
            f"{level:.1f}</text>"
        )
        if level > 0:
            parts.append(
                f'<line x1="{left}" y1="{y(level):.1f}" x2="{width - right}" y2="{y(level):.1f}" '
                f'stroke="#cccccc" stroke-dasharray="4 4"/>'
            )
    for d in degrees:
        parts.append(
            f'<text x="{x(d):.1f}" y="{height - bottom + 16}" text-anchor="middle" '
            f'font-size="10">{d}</text>'
        )
    legend_y = top
    for gender, metric, color, label in _CHART_SERIES:
        curve = result.curve(algorithm, metric, gender)
        if not curve:
            continue
        pts = " ".join(f"{x(d):.1f},{y(r):.1f}" for d, r in curve)
        parts.append(f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="1.5"/>')
        parts.append(
            f'<rect x="{width - right - 170}" y="{legend_y}" width="12" height="3" fill="{color}"/>'
            f'<text x="{width - right - 152}" y="{legend_y + 5}" font-size="10">{label}</text>'
        )
        legend_y += 14
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
