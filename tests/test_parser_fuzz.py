"""The four text parsers fail only as VoicemaskError, whatever a file holds."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from voicemask import aggregate_mos, load_manifest, load_models, load_sweep
from voicemask.errors import IoFailure, ParseError, VoicemaskError


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
