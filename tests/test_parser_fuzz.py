"""The four text parsers fail only as VoicemaskError, whatever a file holds.

So do the values a caller builds by hand: sweep rows and pitch analyses.
"""

import csv
import dataclasses

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from voicemask import (
    ALGORITHMS,
    PitchShiftSpec,
    SweepResult,
    SweepRow,
    aggregate_mos,
    emit_report,
    find_crossover,
    load_manifest,
    load_models,
    load_sweep,
    shift_analysed,
)
from voicemask.errors import InvalidConfig, IoFailure, ParseError, VoicemaskError
from voicemask.phase_vocoder import VARIANTS
from voicemask.signal_core import N_BINS

import peak_reference
from helpers import pitch_analysis


# One valid file per parser, the seed of the mutation fuzzer.
VALID = {
    load_manifest: (
        b"path,speaker_id,gender,partition\n"
        b"a.wav,s0,M,train\nb.wav,s0,M,test\nc.wav,s1,F,train\nd.wav,s1,F,test\n"
    ),
    aggregate_mos: b"listener_id,file_id,algorithm,degree,rating\nl1,f1,voc,7,4\nl2,f2,vocf,3,2\n",
    load_sweep: (
        b"algorithm,gender,degree,gender_success_rate,identification_rate,n_files\n"
        b"voc,M,0,1.000000,0.950000,20\nvoc,F,0,0.900000,0.850000,20\n"
    ),
    load_models: b"SPKMODEL v1 P=2 label=spk00 gender=M frames=120\n2.0 0.5\n0.5 1.0\n",
}
PARSERS = list(VALID)
PARSER_IDS = [parser.__name__ for parser in PARSERS]
_BYTE_VALUES = st.one_of(
    st.sampled_from(list(b"\x00\xff\n\r\",=. -eE9")), st.integers(0, 255)
)


def parse_only_fails_as_voicemask_error(tmp_path_factory, parser, data: bytes):
    path = tmp_path_factory.getbasetemp() / "fuzz.txt"
    path.write_bytes(data)
    try:
        parser(path)
    except VoicemaskError:
        pass


@pytest.mark.parametrize("parser", PARSERS, ids=PARSER_IDS)
class TestParserInputs:
    def test_valid_seed_parses(self, tmp_path, parser):
        path = tmp_path / "valid.txt"
        path.write_bytes(VALID[parser])
        parser(path)

    def test_missing_path_is_io_failure(self, tmp_path, parser):
        with pytest.raises(IoFailure):
            parser(tmp_path / "absent.csv")

    def test_directory_is_io_failure(self, tmp_path, parser):
        with pytest.raises(IoFailure):
            parser(tmp_path)

    def test_nul_byte_in_the_path_is_io_failure(self, tmp_path, parser):
        with pytest.raises(IoFailure, match="embedded null byte"):
            parser(tmp_path / "a\0b")

    def test_non_utf8_byte_is_parse_error(self, tmp_path, parser):
        path = tmp_path / "latin1.txt"
        path.write_bytes(VALID[parser][:20] + b"\xff" + VALID[parser][20:])
        with pytest.raises(ParseError):
            parser(path)

    @settings(max_examples=150, deadline=None)
    @given(data=st.binary(max_size=200))
    def test_arbitrary_bytes(self, tmp_path_factory, parser, data):
        parse_only_fails_as_voicemask_error(tmp_path_factory, parser, data)

    @settings(max_examples=150, deadline=None)
    @given(
        edits=st.lists(st.tuples(st.integers(0, 10**6), _BYTE_VALUES), min_size=1, max_size=4),
        keep=st.one_of(st.none(), st.integers(0, 10**6)),  # None: no cut
    )
    def test_mutated_valid_file(self, tmp_path_factory, parser, edits, keep):
        data = bytearray(VALID[parser])
        for index, value in edits:
            data[index % len(data)] = value
        parse_only_fails_as_voicemask_error(tmp_path_factory, parser, bytes(data[:keep]))


class TestModelStoreValues:
    @pytest.mark.parametrize(
        "rows", [["1.0 0.5", "0.25 1.0"], ["1.0 inf", "inf 1.0"], ["nan 0.0", "0.0 1.0"]]
    )
    def test_matrix_a_model_rejects_is_parse_error(self, tmp_path, rows):
        path = tmp_path / "store.txt"
        path.write_text("\n".join(["SPKMODEL v1 P=2 label=a gender=M frames=9"] + rows) + "\n")
        with pytest.raises(ParseError):
            load_models(path)

    def test_overlong_count_is_parse_error(self, tmp_path):
        path = tmp_path / "store.txt"
        path.write_text(f"SPKMODEL v1 P={'9' * 5000} label=a gender=M frames=9\n")
        with pytest.raises(ParseError):
            load_models(path)


SWEEP_HEADER = "algorithm,gender,degree,gender_success_rate,identification_rate,n_files"
_TEXT = st.text(st.characters(codec="utf-8"), max_size=6)
_RATE = st.floats(0, 1)
# Rows emit_report could write, but for an n_files that may be past 2**53.
_PLAUSIBLE_ROW = st.tuples(
    st.sampled_from(ALGORITHMS), st.sampled_from(("M", "F")), st.integers(0, 25), _RATE, _RATE,
    st.one_of(st.integers(1, 40), st.integers(1, 2**53), st.integers(2**53, 10**400)),
)
_WILD_ROW = st.tuples(
    st.one_of(st.sampled_from(ALGORITHMS + ("mcadams", "v\x00c", "../x", "<b>")), _TEXT),
    st.one_of(st.sampled_from(("M", "F", "U", "")), _TEXT),
    st.one_of(st.integers(-3, 30), st.integers(-(10**400), 10**400)).map(str),
    st.one_of(st.floats(), st.sampled_from(("nan", "-inf", "1e400", "1.000000")), _TEXT),
    st.one_of(st.floats(0, 1), st.floats()),
    st.one_of(st.integers(-3, 40), st.integers(2**52, 10**400)).map(str),
)

# A value of any type a caller might pass as a SweepRow field.
_ANY_VALUE = st.one_of(
    st.sampled_from(("mcadams", "v\x00c", "U")), _TEXT, st.none(), st.booleans(),
    st.integers(-3, 30), st.integers(2**52, 10**400), st.floats(), st.fractions(0, 1),
)
# SweepRow fields emit_report could write, but for one replaced by any value.
_ONE_WILD_FIELD = st.tuples(_PLAUSIBLE_ROW, st.integers(0, 5), _ANY_VALUE).map(
    lambda drawn: drawn[0][: drawn[1]] + (drawn[2],) + drawn[0][drawn[1] + 1 :]
)


def only_voicemask_error(call, *args):
    try:
        return call(*args)
    except VoicemaskError:
        return None


def report_only_fails_as_voicemask_error(result, out_dir):
    """curve, find_crossover and emit_report on result fail only as VoicemaskError."""
    for algo in {row.algorithm for row in result.rows}:
        for metric in ("identification", "gender"):
            for gender in (None, "M", "F"):
                curve = only_voicemask_error(result.curve, algo, metric, gender)
                only_voicemask_error(find_crossover, curve or [])
    only_voicemask_error(emit_report, result, out_dir)


class TestSweepValues:
    @pytest.mark.parametrize(
        "row",
        [
            "voc,F,5,0.5,0.5,0",
            "voc,F,5,0.5,0.5,-2",
            f"voc,F,5,0.5,0.5,{2**53 + 1}",
            "voc,F,5,nan,0.5,3",
            "voc,F,5,0.5,inf,3",
            "voc,F,5,1.000001,0.5,3",
            "voc,F,5,0.5,-0.1,3",
            "voc,F,26,0.5,0.5,3",
            "voc,F,-1,0.5,0.5,3",
            "voc,U,5,0.5,0.5,3",
            "v\x00c,F,5,0.5,0.5,3",
        ],
    )
    def test_a_row_emit_report_never_writes_is_parse_error(self, tmp_path, row):
        path = tmp_path / "sweep.csv"
        path.write_text("\n".join([SWEEP_HEADER, "voc,M,5,0.5,0.5,3", row]) + "\n")
        with pytest.raises(ParseError) as err:
            load_sweep(path)
        assert err.value.line == 3
        # A library caller's row is refused by the same check.
        algo, gender, degree, g_rate, i_rate, n_files = row.split(",")
        with pytest.raises(InvalidConfig):
            SweepRow(algo, gender, int(degree), float(g_rate), float(i_rate), int(n_files))

    @settings(max_examples=150, deadline=None)
    @given(
        rows=st.lists(_PLAUSIBLE_ROW, min_size=1, max_size=6),
        wild=st.lists(_WILD_ROW, max_size=2),  # most files that hold one are refused
    )
    def test_what_load_sweep_accepts_reports_without_a_stray_error(
        self, tmp_path_factory, rows, wild
    ):
        # curve, find_crossover and emit_report on an accepted file fail only as VoicemaskError.
        rows = rows + wild
        base = tmp_path_factory.getbasetemp()
        with open(base / "sweep_fuzz.csv", "w", newline="", encoding="utf-8") as fh:
            csv.writer(fh, lineterminator="\n").writerows([SWEEP_HEADER.split(",")] + rows)
        result = only_voicemask_error(load_sweep, base / "sweep_fuzz.csv")
        if result is not None:
            report_only_fails_as_voicemask_error(result, base / "sweep_fuzz_report")

    @settings(max_examples=150, deadline=None)
    @given(fields=st.lists(st.one_of(_PLAUSIBLE_ROW, _ONE_WILD_FIELD), min_size=1, max_size=8))
    def test_any_row_that_constructs_reports_without_a_stray_error(self, tmp_path_factory, fields):
        rows = [only_voicemask_error(SweepRow, *values) for values in fields]
        # The drawn rows may repeat a cell, which SweepResult refuses.
        result = only_voicemask_error(SweepResult, tuple(row for row in rows if row is not None))
        if result is not None:
            report_only_fails_as_voicemask_error(result, tmp_path_factory.getbasetemp() / "rows")


_ANY_INDEX_VALUE = st.one_of(
    st.integers(-2, 35), st.integers(N_BINS - 3, N_BINS + 2), st.integers(-(2**63), 2**63 - 1)
)


@st.composite
def perturbed_analyses(draw):
    """Real partitions of random frames, then one region entry or one offset set.

    Returns (frames, partitions, inst_freq, offset_edit); offset_edit is
    (index, value), or None when a (peak, lo, hi) entry was set instead.
    """
    voiced = draw(st.lists(st.booleans(), min_size=1, max_size=6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    shape = (len(voiced), N_BINS)
    frames = rng.random(shape) * np.exp(2j * np.pi * rng.random(shape))
    partitions = [
        partition if is_voiced else None
        for partition, is_voiced in zip(peak_reference.partitions(frames, 2), voiced)
    ]
    inst_freq = rng.uniform(-np.pi, 2.0 * np.pi, shape)
    value = draw(_ANY_INDEX_VALUE)
    at = [(t, row) for t, p in enumerate(partitions) if p is not None for row in range(len(p))]
    if at and draw(st.booleans()):
        t, row = draw(st.sampled_from(at))
        partitions[t][row, draw(st.integers(0, 2))] = value
        return frames, partitions, inst_freq, None
    return frames, partitions, inst_freq, (draw(st.integers(0, len(voiced))), value)


class TestPitchAnalysisValues:
    @settings(max_examples=300, deadline=None)
    @given(case=perturbed_analyses(), ratio=st.sampled_from([0.25, 0.8, 1.2, 4.0]))
    # Regions that leave bins 21..512 of a voiced frame uncovered once failed
    # in shift_analysed with numpy's broadcast ValueError.
    @example(
        case=(
            np.ones((3, N_BINS), dtype=complex),
            [np.array([[5, 0, 10], [20, 11, 20]]), None, None],
            np.zeros((3, N_BINS)),
            None,
        ),
        ratio=1.2,
    )
    def test_analysis_is_refused_or_shifts_without_a_stray_error(self, case, ratio):
        # Refused at construction with InvalidConfig, or shifted in both
        # variants failing only as VoicemaskError.
        frames, partitions, inst_freq, offset_edit = case
        try:
            analysis = pitch_analysis(frames, partitions, inst_freq)
            if offset_edit is not None:
                offsets = analysis.offsets.copy()
                offsets[offset_edit[0]] = offset_edit[1]
                analysis = dataclasses.replace(analysis, offsets=offsets)
        except InvalidConfig:
            return
        for variant in VARIANTS:
            only_voicemask_error(shift_analysed, analysis, PitchShiftSpec(ratio, variant))
