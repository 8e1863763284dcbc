"""Output checks run after each round, outside its timed region.

The checks read outputs with the standard library or with the program's own
documented readers (``load_sweep``); none of them calls a spanned function,
so they never add spans to a traced run.
"""

from __future__ import annotations

import hashlib
import wave
from pathlib import Path


def sha256_files(paths) -> str:
    digest = hashlib.sha256()
    for path in paths:
        digest.update(Path(path).name.encode() + b"\0")
        digest.update(Path(path).read_bytes())
    return digest.hexdigest()


def check_sweep(rows, algos, degrees, genders_per_file) -> tuple[int, list[str]]:
    """Failed ops of one sweep, judged from its rows.

    ``rows`` are the SweepRow records read back from sweep.csv, or None when
    the file is missing or unreadable (every op fails). An op is one
    (file, algorithm, degree) cell. Every (algorithm, gender, degree) row must
    exist with ``n_files`` equal to that gender's test-file count, and degree 0
    must identify every file.
    """
    expected = {g: genders_per_file.count(g) for g in ("M", "F")}
    attempted = len(genders_per_file) * len(algos) * len(degrees)
    if rows is None:
        return attempted, ["sweep.csv missing or unreadable"]
    by_cell = {(r.algorithm, r.gender, r.degree): r for r in rows}
    failed, problems = 0, []
    for algo in algos:
        for gender, n in expected.items():
            if n == 0:
                continue
            for degree in degrees:
                row = by_cell.pop((algo, gender, degree), None)
                if row is None:
                    failed += n
                    problems.append(f"{algo}/{gender}/{degree}: row missing")
                    continue
                if row.n_files != n:
                    failed += n if row.n_files > n else n - row.n_files
                    problems.append(f"{algo}/{gender}/{degree}: n_files {row.n_files} != {n}")
                if degree == 0 and row.identification_rate != 1.0:
                    failed += round((1.0 - row.identification_rate) * min(row.n_files, n))
                    problems.append(
                        f"{algo}/{gender}/0: identification {row.identification_rate} != 1"
                    )
    if by_cell:
        problems.append(f"unexpected rows: {sorted(by_cell)[:3]}")
    return failed, problems


def wav_shape(path) -> tuple[int, int, int, int]:
    """(frames, rate, channels, bytes per sample) of a PCM WAV, read with the standard library."""
    with wave.open(str(path), "rb") as fh:
        return fh.getnframes(), fh.getframerate(), fh.getnchannels(), fh.getsampwidth()


def check_transform_output(in_path, out_path) -> str | None:
    """None if the output WAV reads back with the input's length and rate.

    Both files are 16-bit PCM mono, whose samples are finite by construction;
    a file the standard reader cannot parse fails.
    """
    try:
        want = wav_shape(in_path)
        got = wav_shape(out_path)
    except (OSError, EOFError, wave.Error) as exc:
        return f"{Path(out_path).name}: unreadable ({exc})"
    if got != want:
        return f"{Path(out_path).name}: (frames, rate, channels, width) {got} != {want}"
    return None


# Share of ``gender`` answers per round that must match the true gender. The
# recognizer is near-perfect on clean synthetic voices, not perfect: seed 1
# puts one of 40 female files on the male side.
GENDER_FLOOR = 0.95


def check_genders(answers, floor: float = GENDER_FLOOR) -> tuple[int, list[str], float]:
    """Failed ops among a round's ``gender`` answers, and the share answered right.

    ``answers`` are (op label, answer, true gender). An answer other than M
    or F always fails. A wrong gender fails only when the share of right
    answers is below ``floor``; then every wrong answer fails.
    """
    failed, problems, wrong = 0, [], []
    for label, answer, truth in answers:
        if answer not in ("M", "F"):
            failed += 1
            problems.append(f"{label}: answer {answer!r} is not M or F")
        elif answer != truth:
            wrong.append(f"{label}: {answer}, true gender {truth}")
    accuracy = 1.0 - (failed + len(wrong)) / len(answers)
    if wrong and accuracy < floor:
        failed += len(wrong)
        problems += [f"{w} (gender accuracy {accuracy:.3f} < {floor})" for w in wrong]
    return failed, problems, accuracy


def top_label(stdout: str) -> str | None:
    """First token of the first stdout line: the decision of identify or gender."""
    fields = stdout.split("\n", 1)[0].split()
    return fields[0] if fields else None
