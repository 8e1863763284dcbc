"""Degree sweeps, crossover extraction, MOS aggregation, and sweep reports.

A sweep enrolls covariance models on unmodified training audio, then applies
each algorithm at every modification degree to the test files and records
gender-classification and top-1 identification success rates per
(algorithm, gender, degree). Manifests, degree schedules and the synthetic
corpus live in ``corpus``.
"""

from __future__ import annotations

import csv
import logging
import operator
from collections.abc import Iterable
from dataclasses import dataclass
from numbers import Integral
from pathlib import Path

import numpy as np

# load_manifest and synth_corpus are unused here: perfbench's tracer spans them on this module.
from .corpus import (
    ALGORITHMS,
    MAX_DEGREE,
    CorpusManifest,
    DegreeSchedule,
    ManifestEntry,
    _read_csv,
    load_manifest,
    synth_corpus,
)
from .errors import (
    EmptyInput,
    InvalidConfig,
    InvariantViolation,
    IoFailure,
    NoCrossover,
    ParseError,
    VoicemaskError,
)
from .signal_core import read_wav
from .speaker_id import (
    SpeakerModel,
    _check_probe,
    classify_gender,
    covariance_model,
    extract_cepstra,
    identify_speaker,
    train_gender_models,
)

__all__ = [
    "SweepRow",
    "SweepResult",
    "MosTable",
    "enroll",
    "run_degree_sweep",
    "find_crossover",
    "aggregate_mos",
    "emit_report",
    "load_sweep",
]

log = logging.getLogger(__name__)

_SWEEP_HEADER = [
    "algorithm",
    "gender",
    "degree",
    "gender_success_rate",
    "identification_rate",
    "n_files",
]
_RATINGS_HEADER = ["listener_id", "file_id", "algorithm", "degree", "rating"]


# --- sweep ---------------------------------------------------------------------


@dataclass(frozen=True)
class SweepRow:
    """One sweep cell; a row emit_report cannot write is InvalidConfig.

    Such a row names an unknown algorithm or gender, a degree that is not an
    integer in 0..MAX_DEGREE, a rate that is not a float or int in [0, 1]
    (nan included), or an n_files that is not an integer in 1..2**53 (past
    which counts are not exact floats, and curve's weighted sums could
    overflow). A bool is none of these: emit_report would write it as True.
    """

    algorithm: str
    gender: str
    degree: int
    gender_success_rate: float
    identification_rate: float
    n_files: int

    def __post_init__(self):
        algo, gender, degree = self.algorithm, self.gender, self.degree
        if algo not in ALGORITHMS or gender not in ("M", "F") or not _within(
            degree, Integral, 0, MAX_DEGREE
        ):
            raise InvalidConfig(f"no sweep cell is {algo!r}, {gender!r}, {degree}")
        rates = (self.gender_success_rate, self.identification_rate)
        # float or int: a Fraction would pass as a number, then fail in emit_report's formats.
        if not all(_within(rate, (float, int), 0.0, 1.0) for rate in rates):
            raise InvalidConfig(f"rates must be in [0, 1], got {rates[0]} and {rates[1]}")
        if not _within(self.n_files, Integral, 1, 2**53):
            raise InvalidConfig(f"n_files must be in 1..2**53, got {self.n_files}")


def _within(value, kind, lo, hi) -> bool:
    return isinstance(value, kind) and not isinstance(value, bool) and lo <= value <= hi


@dataclass(frozen=True)
class SweepResult:
    """Sweep rows, at most one per (algorithm, gender, degree); a repeated cell is InvalidConfig."""

    rows: tuple[SweepRow, ...]

    def __post_init__(self):
        cells = set()
        for row in self.rows:
            cell = (row.algorithm, row.gender, row.degree)
            if cell in cells:
                raise InvalidConfig(f"a second row for {','.join(map(str, cell))}")
            cells.add(cell)

    def curve(self, algorithm: str, metric: str = "identification", gender: str | None = None):
        """Rate-vs-degree curve, pooled over genders (n-weighted) unless one is given."""
        if metric not in ("identification", "gender"):
            raise InvalidConfig(f"metric must be identification or gender, got {metric!r}")
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


def _sweep_file(entry: ManifestEntry, schedules, degrees, models):
    """One test file's cells: ``(hits, skips)``. Logs nothing and keeps no state.

    ``models`` is what enroll returns. ``hits`` maps each completed cell's
    (algorithm, gender, degree) to (gender hits, identification hits, 1);
    ``skips`` holds the warning texts in the order they arose.
    """
    enrolled, male, female = models
    if entry.speaker_id not in {model.label for model in enrolled}:
        return {}, [f"skipping {entry.path}: speaker {entry.speaker_id} is not enrolled"]
    analysers = {schedule.family: schedule.analyse for schedule in schedules}
    try:
        buf = read_wav(entry.path)
        _check_probe(buf)  # transforms keep the rate and length
        analyses = {family: analyse(buf) for family, analyse in analysers.items()}
    except VoicemaskError as exc:
        return {}, [f"skipping {entry.path}: {exc}"]
    hits, skips = {}, []
    for schedule in schedules:
        algo = schedule.algorithm
        for degree in degrees:
            try:
                modified = schedule.apply(analyses[schedule.family], degree, entry.gender)
                test_model = covariance_model(extract_cepstra(modified), label="probe")
                decided, _ = classify_gender(test_model, male, female)
                top_label = identify_speaker(test_model, enrolled)[0][0]
            except VoicemaskError as exc:
                skips.append(f"skipping {entry.path} / {algo} / degree {degree}: {exc}")
                continue
            hits[algo, entry.gender, degree] = (
                int(decided == entry.gender), int(top_label == entry.speaker_id), 1
            )
    return hits, skips


def _sweep_algorithms(algorithms) -> tuple[str, ...]:
    """A sweep's algorithms as distinct names from ALGORITHMS, else InvalidConfig.

    A lone string is not a collection of names. ``voicemask sweep`` reports
    the same text as a usage error.
    """
    if isinstance(algorithms, str) or not isinstance(algorithms, Iterable):
        raise InvalidConfig(f"algorithms must be a collection of names, got {algorithms!r}")
    names = tuple(algorithms)
    if not names:
        raise InvalidConfig(f"a sweep names no algorithm; choose from {','.join(ALGORITHMS)}")
    for i, name in enumerate(names):
        if not isinstance(name, str) or name not in ALGORITHMS:
            raise InvalidConfig(f"unknown algorithm {name!r}; choose from {','.join(ALGORITHMS)}")
        if name in names[:i]:
            raise InvalidConfig(f"a sweep names {name!r} twice")
    return names


def run_degree_sweep(
    corpus: CorpusManifest, algorithms=ALGORITHMS, degrees=tuple(range(26))
) -> SweepResult:
    """Run the full modification sweep over a corpus.

    Models are enrolled on unmodified train audio only (see enroll). Each
    test file is read and analysed once per transform family, then modified
    at every (algorithm, degree) cell (see _sweep_file); the files' skips are
    logged in manifest order and their hits summed by cell. A file that
    cannot be read or analysed, that has too few feature frames for a probe
    model, or whose speaker is not enrolled, is left out of every cell; a
    per-cell transform or modeling failure is excluded from that cell's
    n_files. The aggregation is order-independent. Algorithms that
    _sweep_algorithms refuses, no degree, a repeated degree, one that is not
    an integer or one outside 0..MAX_DEGREE raise InvalidConfig before any
    audio is read.
    """
    schedules = [DegreeSchedule(algo) for algo in _sweep_algorithms(algorithms)]
    try:
        degrees = tuple(map(operator.index, degrees))
    except TypeError as exc:
        raise InvalidConfig(f"degrees must be integers: {exc}") from None
    if not degrees or len(set(degrees)) < len(degrees):
        raise InvalidConfig(f"a sweep needs one or more distinct degrees, got {degrees}")
    for degree in degrees:
        if not 0 <= degree <= MAX_DEGREE:
            raise InvalidConfig(f"degree must be in 0..{MAX_DEGREE}, got {degree}")
    models = enroll(corpus)
    counts: dict[tuple[str, str, int], list[int]] = {}
    for entry in corpus.test_entries():
        hits, skips = _sweep_file(entry, schedules, degrees, models)
        for message in skips:
            log.warning("%s", message)
        for key, cell in hits.items():
            counts[key] = [a + b for a, b in zip(counts.get(key, (0, 0, 0)), cell)]
    rows = [
        SweepRow(algo, gender, degree, hits_g / n, hits_i / n, n)
        for (algo, gender, degree), (hits_g, hits_i, n) in sorted(counts.items())
    ]
    return SweepResult(tuple(rows))


def find_crossover(curve) -> float:
    """First linearly-interpolated degree where the rate falls below 0.5, the 50% point.

    A curve that starts below 0.5 returns its first degree; one that never
    falls below it raises NoCrossover.
    """
    points = [(float(d), float(r)) for d, r in curve]
    if not points:
        raise InvalidConfig("curve is empty")
    degrees = [d for d, _ in points]
    if any(b <= a for a, b in zip(degrees, degrees[1:])):
        raise InvalidConfig("degrees must be strictly increasing")
    if points[0][1] < 0.5:
        return points[0][0]
    for (d0, r0), (d1, r1) in zip(points, points[1:]):
        if r1 < 0.5:
            return d0 + (d1 - d0) * (r0 - 0.5) / (r0 - r1)
    raise NoCrossover("rate never falls below 0.5")


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
    """Write sweep.csv (authoritative) plus one SVG chart per algorithm.

    A directory or file that cannot be written is IoFailure.
    """
    if not result.rows:
        raise InvalidConfig("empty sweep result")
    out_dir = Path(out_dir)
    charts = {a: _render_chart(result, a) for a in sorted({r.algorithm for r in result.rows})}
    try:
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
        for algo, chart in charts.items():
            (out_dir / f"sweep_{algo}.svg").write_text(chart)
    except (OSError, ValueError) as exc:  # ValueError: a NUL byte in the path
        raise IoFailure(f"cannot write {out_dir}: {exc}") from exc


def load_sweep(path) -> SweepResult:
    """Read back a sweep.csv written by emit_report; a row it cannot have written is ParseError.

    SweepRow states which rows those are.
    """
    cells = {}  # (algorithm, gender, degree) -> its one row
    for line, row in _read_csv(path, _SWEEP_HEADER, EmptyInput("sweep file is empty")):
        if len(row) != 6:
            raise ParseError(f"expected 6 fields, got {len(row)}", line=line)
        try:
            parsed = SweepRow(
                row[0], row[1], int(row[2]), float(row[3]), float(row[4]), int(row[5])
            )
        except ValueError as exc:  # InvalidConfig is a ValueError too
            raise ParseError(str(exc), line=line) from None
        cell = (parsed.algorithm, parsed.gender, parsed.degree)
        if cells.setdefault(cell, parsed) is not parsed:
            raise ParseError(f"a second row for {','.join(map(str, cell))}", line=line)
    return SweepResult(tuple(cells.values()))


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
