"""Frozen two-matrix sphericity scoring and row-by-row model-store parser, kept as a test oracle.

This is the straightforward form of ``speaker_id``'s scoring and store
parse: ``sphericity_distance`` Cholesky-factors both matrices through
scipy's ``cho_factor``/``cho_solve`` on every call, identification and
gender classification call it once per reference, and ``load_models``
converts the store one row at a time. The library factors the probe once
per call through LAPACK directly and converts each model's block at once;
the property tests in ``test_scoring_oracle.py`` require bit-equal scores,
rankings, decisions and matrices, and the same errors, from both.
"""

import re

import numpy as np
import scipy.linalg

from voicemask import SpeakerModel
from voicemask.errors import DimensionMismatch, NotPositiveDefinite, ParseError
from voicemask.signal_core import read_text


def sphericity_distance(c_test, c_ref):
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


def identify_speaker(test, enrolled):
    scored = [(model.label, sphericity_distance(test.C, model.C)) for model in enrolled]
    return sorted(scored, key=lambda item: (item[1], item[0]))


def classify_gender(test, male, female):
    mu_m = sphericity_distance(test.C, male.C)
    mu_f = sphericity_distance(test.C, female.C)
    gender = "M" if mu_m <= mu_f else "F"
    return gender, abs(mu_m - mu_f)


_HEADER_RE = re.compile(r"^SPKMODEL v1 P=(\d+) label=(.*) gender=([MFU]) frames=(\d+)$")


def load_models(path):
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
        try:
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
        except ValueError as exc:
            raise ParseError(str(exc), line=i + 1) from None
        models.append(model)
        i += 1 + p
    return models
