"""Every command line exits 0, 1 or 2, whatever its flags and input files.

Hypothesis draws, for each subcommand, which flags to pass and their values
(valid, out of range, unparseable), and input paths that are missing,
empty, a directory, a text file, a truncated WAV, a WAV whose header holds
an out-of-range field or a valid file. A bad input must end as exit code 1
with an ``error:`` line and a flag misuse as exit code 2; any other
exception escapes ``main`` and fails the test.
"""

import io
import struct
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from voicemask import SpeakerModel, save_models, write_wav
from voicemask.cli import main

from helpers import make_tone

# tone.wav with one header field out of range.
BAD_HEADERS = ("rate_3e9_header.wav", "no_channels_header.wav", "pcm12_header.wav",
               "foreign_guid_header.wav")
# Input files, made afresh for every example, so a command that writes over
# one cannot change the next example's inputs.
INPUTS = ("missing", "empty", "directory", "text", "truncated.wav",
          "tone.wav", "models.txt", "manifest.csv", "ratings.csv") + BAD_HEADERS
OUTPUTS = ("new", "directory", "text", "under_a_file")


def make_inputs(root: Path) -> None:
    (root / "empty").write_bytes(b"")
    (root / "directory").mkdir()
    (root / "text").write_text("path,speaker_id\nnot,a,valid\nfile\n")
    write_wav(root / "tone.wav", make_tone(220.0, seconds=0.3))
    (root / "truncated.wav").write_bytes((root / "tone.wav").read_bytes()[:100])
    write_bad_headers(root, (root / "tone.wav").read_bytes())
    save_models(root / "models.txt", [
        SpeakerModel(label, gender, np.eye(12) * (i + 1), 100)
        for i, (label, gender) in enumerate([("spk00", "M"), ("M", "M"), ("F", "F")])
    ])
    (root / "manifest.csv").write_text(
        "path,speaker_id,gender,partition\n"
        + "".join(f"tone.wav,s{i},{g},{part}\n" for i, g in enumerate("MF")
                  for part in ("train", "test"))
    )
    (root / "ratings.csv").write_text(
        "listener_id,file_id,algorithm,degree,rating\nl1,f1,voc,7,4\n"
    )


def write_bad_headers(root: Path, wav: bytes) -> None:
    """BAD_HEADERS, from the bytes of a 16-bit mono WAV with a 16-byte fmt chunk."""
    rate_field, channels_field, bits_field = 24, 22, 34  # offsets in the file

    def patched(offset, fmt, value):
        data = bytearray(wav)
        struct.pack_into(fmt, data, offset, value)
        return bytes(data)

    (root / "rate_3e9_header.wav").write_bytes(patched(rate_field, "<I", 3_000_000_000))
    (root / "no_channels_header.wav").write_bytes(patched(channels_field, "<H", 0))
    (root / "pcm12_header.wav").write_bytes(patched(bits_field, "<H", 12))
    # WAVE_FORMAT_EXTENSIBLE whose SubFormat GUID is not PCM's or float's.
    (rate,) = struct.unpack_from("<I", wav, rate_field)
    fmt = struct.pack("<HHIIHHHHI", 0xFFFE, 1, rate, 2 * rate, 2, 16, 22, 16, 4)
    fmt += bytes(range(16))
    data = wav[36:]  # the data chunk, header included
    (root / "foreign_guid_header.wav").write_bytes(
        b"RIFF" + struct.pack("<I", 4 + 8 + len(fmt) + len(data)) + b"WAVE"
        + b"fmt " + struct.pack("<I", len(fmt)) + fmt + data
    )


def output_path(root: Path, kind: str) -> Path:
    return {
        "new": root / "new_out",
        "directory": root / "directory",
        "text": root / "text",
        "under_a_file": root / "text" / "out",
    }[kind]


def flag(name, values):
    return values.map(lambda value: [name, value])


INTS = st.sampled_from(["-1", "0", "1", "13", "25", "26", "10000"])
FLOATS = st.sampled_from(["nan", "inf", "-inf", "0", "-1", "1e-300", "1e308", "0.3", "1.5"])
IN = st.sampled_from(INPUTS).map(lambda kind: ("in", kind))
OUT = st.sampled_from(OUTPUTS).map(lambda kind: ("out", kind))


def valid_or_any(kind):
    """Half the time the valid input the flag takes, so its handler runs to the end."""
    return st.one_of(st.just(("in", kind)), IN)


WAV = valid_or_any("tone.wav")
MODELS = valid_or_any("models.txt")
MANIFEST = valid_or_any("manifest.csv")

# Per subcommand, each strategy draws one flag and a value it parses.
FLAGS = {
    "transform": [
        flag("--algo", st.sampled_from(["voc", "vocf", "quadratic", "bilinear"])),
        st.one_of(flag("--degree", INTS), flag("--ratio", FLOATS), flag("--alpha", FLOATS)),
        flag("--gender", st.sampled_from(["M", "F"])),
        flag("--variant", st.sampled_from(["identity-locked", "loose"])),
        flag("--in", WAV),
        flag("--out", OUT),
    ],
    "enroll": [flag("--manifest", MANIFEST), flag("--models", OUT)],
    "identify": [flag("--models", MODELS), flag("--in", WAV)],
    "gender": [flag("--models", MODELS), flag("--in", WAV)],
    "sweep": [
        flag("--manifest", MANIFEST),
        flag("--algos", st.sampled_from(["voc", "voc,bilinear", "vocf,quadratic", ""])),
        flag("--degrees", st.sampled_from(["0..0", "24..25", "3..1", "0..26"])),
        flag("--out", OUT),
    ],
    # Small corpora only: a valid synth writes its corpus.
    "synth": [
        flag("--seed", INTS),
        flag("--speakers", st.sampled_from(["-1", "0", "1", "2"])),
        flag("--utts", st.sampled_from(["-1", "0", "1", "2"])),
        flag("--out", OUT),
    ],
    "mos": [flag("--ratings", valid_or_any("ratings.csv"))],
}


@st.composite
def command_lines(draw, command):
    """An argv for ``command``: now and then a flag left out or its value garbled."""
    argv = [command]
    for pair in FLAGS[command]:
        name, value = draw(pair)
        fate = draw(st.integers(0, 19))
        if fate == 0:
            continue
        garbled = fate == 1 and not isinstance(value, tuple)  # any text is a path
        argv += [name, "x" if garbled else value]
    extra = draw(st.sampled_from([None] * 8 + ["--help", "--bogus"]))
    if extra:
        argv.insert(draw(st.integers(1, len(argv))), extra)
    return argv


def resolve(value, root: Path) -> str:
    """A drawn flag value, with ("in" | "out", kind) pairs made into paths under root."""
    if not isinstance(value, tuple):
        return value
    direction, kind = value
    return str(root / kind if direction == "in" else output_path(root, kind))


def run(argv, root: Path):
    argv = [resolve(value, root) for value in argv]
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, err.getvalue()


@pytest.mark.parametrize("command", list(FLAGS))
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_exit_code_is_0_1_or_2(command, data):
    argv = data.draw(command_lines(command))
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        make_inputs(root)
        code, err = run(argv, root)
    assert code in (0, 1, 2), (argv, code, err)
    assert "Traceback" not in err
    if code == 1:
        assert err.startswith("error: ") or "\nerror: " in err, err


# Valid flags for every handler that reads a WAV, so each bad header reaches
# the reader, the transform and, for transform, the writer. Drawn flags get
# that far in only a few examples of a hundred.
WAV_COMMANDS = [
    ["transform", "--algo", "voc", "--degree", "13"],
    ["transform", "--algo", "vocf", "--ratio", "1.5", "--variant", "loose"],
    ["transform", "--algo", "quadratic", "--alpha", "0.3"],
    ["transform", "--algo", "bilinear", "--degree", "5", "--gender", "F"],
    ["identify", "--models", ("in", "models.txt")],
    ["gender", "--models", ("in", "models.txt")],
]


@pytest.mark.parametrize("header", BAD_HEADERS)
@pytest.mark.parametrize(
    "argv", WAV_COMMANDS, ids=lambda argv: argv[2] if argv[1] == "--algo" else argv[0]
)
def test_a_bad_wav_header_is_one_error_line(argv, header):
    out = ["--out", ("out", "new")] if argv[0] == "transform" else []
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        make_inputs(root)
        code, err = run(argv + ["--in", ("in", header)] + out, root)
        assert not output_path(root, "new").exists()
    assert code == 1, err
    assert err.startswith("error: ") and err.count("\n") == 1, err
