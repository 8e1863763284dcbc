"""Property tests for sphericity scoring and the model-store parser.

``identify_speaker`` and ``classify_gender`` factor the probe once per call
and every reference inline, through LAPACK directly; ``sphericity_distance``
is their two-matrix case. ``load_models`` converts each model's block of
tokens at once. All four must agree bit for bit, and raise the same errors
with the same messages and line numbers, as the straightforward forms
frozen in ``scoring_reference.py``. The one sanctioned difference: where a
nearly singular matrix factors but its trace product rounds to zero or
below, the reference's log warns and the library raises NotPositiveDefinite.
"""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from voicemask import (
    SpeakerModel,
    classify_gender,
    identify_speaker,
    load_models,
    sphericity_distance,
)
from voicemask.errors import NotPositiveDefinite, ParseError

import scoring_reference

SCALES = st.sampled_from([1e-3, 0.5, 1.0, 3.7, 1e3])


@st.composite
def matrices(draw, p):
    """A symmetric p x p matrix, mostly SPD, sometimes indefinite or singular."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["spd", "spd", "spd", "indefinite", "singular"]))
    a = rng.standard_normal((p, p - 1 if kind == "singular" else p))
    m = a @ a.T
    m = 0.5 * (m + m.T)
    if kind == "spd":
        m += draw(st.sampled_from([1e-6, 1e-2, 1.0])) * np.eye(p)
    elif kind == "indefinite":
        m -= np.trace(m) / p * np.eye(p)
    return draw(SCALES) * m


@st.composite
def model_sets(draw, min_refs, max_refs):
    """A probe and references of one order, with scalar multiples and exact ties."""
    p = draw(st.integers(2, 16))
    probe = draw(matrices(p))
    refs = []
    for _ in range(draw(st.integers(min_refs, max_refs))):
        kind = draw(st.sampled_from(["fresh", "fresh", "multiple", "copy"]))
        if kind == "fresh" or not refs and kind == "copy":
            refs.append(draw(matrices(p)))
        else:
            base = draw(st.sampled_from([probe, *refs]))
            refs.append(base.copy() if kind == "copy" else draw(SCALES) * base)
    labels = draw(st.permutations(["a", "b", "c", "d", "e", "f", "g", "h"]))
    models = [SpeakerModel(label, "U", m, 100) for label, m in zip(labels, refs)]
    return SpeakerModel("probe", "U", probe, 100), models


def bits(value):
    """A result with every float as its exact bits."""
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, (list, tuple)):
        return [bits(item) for item in value]
    return value


def outcome(fn, *args):
    """What a call returns, in exact bits, or the type and message of its error.

    Warnings are errors on both sides: a nearly singular matrix can factor
    and still give a negative trace product, whose log warns.
    """
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            return bits(fn(*args))
        except Exception as exc:
            return type(exc), str(exc)


def assert_agrees(fn, ref_fn, *args):
    """fn's outcome is ref_fn's, except that the reference's log warning is NotPositiveDefinite."""
    got, want = outcome(fn, *args), outcome(ref_fn, *args)
    if isinstance(want, tuple) and want[0] is RuntimeWarning:
        assert got[0] is NotPositiveDefinite and got[1].startswith("trace product "), got
    else:
        assert got == want


class TestScoringMatchesReference:
    @settings(max_examples=200, deadline=None)
    @given(models=model_sets(1, 1))
    def test_sphericity_distance_bit_equal(self, models):
        probe, (ref,) = models
        assert_agrees(sphericity_distance, scoring_reference.sphericity_distance, probe.C, ref.C)

    @settings(max_examples=200, deadline=None)
    @given(models=model_sets(1, 8))
    def test_identify_speaker_scores_and_ranking_bit_equal(self, models):
        probe, refs = models
        assert_agrees(identify_speaker, scoring_reference.identify_speaker, probe, refs)

    @settings(max_examples=200, deadline=None)
    @given(models=model_sets(2, 2))
    def test_classify_gender_decision_and_margin_bit_equal(self, models):
        probe, (male, female) = models
        assert_agrees(classify_gender, scoring_reference.classify_gender, probe, male, female)

    def test_nonpositive_trace_product_raises(self):
        # A rank-8 9x9 matrix against a multiple of itself factors, but its
        # trace product sometimes rounds to zero or below (about 1 seed in
        # 250), where the reference's log warns.
        warned = 0
        for seed in range(2000):
            a = np.random.default_rng(seed).standard_normal((9, 8))
            m = a @ a.T
            want = outcome(scoring_reference.sphericity_distance, m, 3.7 * m)
            warned += isinstance(want, tuple) and want[0] is RuntimeWarning
            assert_agrees(sphericity_distance, scoring_reference.sphericity_distance, m, 3.7 * m)
        assert warned > 0


# Number spellings float() accepts, and some it refuses.
GOOD_TOKENS = ["1_0", "١٢", "+1.5", ".5", "1.", "-0", "1e-400", "0.1e1_0", "１２"]
BAD_TOKENS = ["x", "0x1p3", "--1", "1__0", "nan(1)", "1e", "SPKMODEL"]
TOKENS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.sampled_from(GOOD_TOKENS + ["inf", "nan"]),
)


@st.composite
def store_lines(draw):
    """A valid store as lines, each matrix row a token list, and the rows' line indices."""
    lines, rows = [], []
    for k in range(draw(st.integers(1, 3))):
        p = draw(st.integers(1, 5))
        if k:
            lines.append("")
        label = draw(st.text("abc =", max_size=4))
        gender = draw(st.sampled_from("MFU"))
        frames = draw(st.integers(0, 999))
        lines.append(f"SPKMODEL v1 P={p} label={label} gender={gender} frames={frames}")
        upper = {(r, c): draw(TOKENS) for r in range(p) for c in range(r, p)}
        for r in range(p):
            rows.append(len(lines))
            lines.append([upper[min(r, c), max(r, c)] for c in range(p)])
    return lines, rows


@st.composite
def stores(draw):
    """Store text, valid or with up to three corruptions of its matrix rows."""
    lines, rows = draw(store_lines())
    for _ in range(draw(st.integers(0, 3))):
        at = draw(st.sampled_from(rows))
        row = lines[at]
        if row is None:
            continue
        kind = draw(
            st.sampled_from(["bad token", "short row", "long row", "missing row", "asymmetric"])
        )
        if kind == "bad token" and row:
            row[draw(st.integers(0, len(row) - 1))] = draw(st.sampled_from(BAD_TOKENS))
        elif kind == "short row" and row:
            row.pop()
        elif kind == "long row":
            row.append("1.0")
        elif kind == "missing row":
            lines[at] = None
        elif len(row) > 1:
            col = draw(st.integers(0, len(row) - 1))
            row[col] = "8.5" if row[col] == "7.25" else "7.25"
    text = [" ".join(line) if isinstance(line, list) else line for line in lines]
    return "\n".join(line for line in text if line is not None) + "\n"


def load_outcome(fn, path):
    try:
        models = fn(path)
    except ParseError as exc:
        return ParseError, str(exc), exc.line
    return [(m.label, m.gender, m.n_frames, m.C.shape, m.C.tobytes()) for m in models]


class TestStoreParseMatchesReference:
    @settings(max_examples=250, deadline=None)
    @given(text=stores())
    def test_same_matrices_or_same_parse_error(self, tmp_path_factory, text):
        path = tmp_path_factory.getbasetemp() / "oracle_store.txt"
        path.write_text(text, encoding="utf-8")
        assert load_outcome(load_models, path) == load_outcome(scoring_reference.load_models, path)

    @pytest.mark.parametrize(
        "rows, line",
        [
            (["1 0 0", "0 x 0", "0 0 y"], 3),  # the first of two bad tokens
            (["1 0 0", "0 1", "0 0 y"], 3),  # a short row before a bad token
            (["1 0 0", "0 x", "0 0 1"], 3),  # a bad token in a short row
            (["1 0 0", "0 1 0"], 4),  # the last row is missing
        ],
    )
    def test_error_names_the_first_bad_line(self, tmp_path, rows, line):
        path = tmp_path / "store.txt"
        path.write_text("\n".join(["SPKMODEL v1 P=3 label=a gender=M frames=9"] + rows) + "\n")
        with pytest.raises(ParseError) as caught:
            load_models(path)
        assert caught.value.line == line
        assert load_outcome(load_models, path) == load_outcome(scoring_reference.load_models, path)
