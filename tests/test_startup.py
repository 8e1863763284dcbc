"""Start-up: the commands that only transform or synthesise audio do not import scipy.

Only speaker scoring needs scipy (the cepstral DCT and LAPACK), so the CLI
and the package load ``experiment`` and ``speaker_id`` where they are used.
Each command here runs in a fresh interpreter, with scipy made unimportable
or not, and the guarded run must exit 0 and write the bytes of the
unguarded one.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import voicemask
from voicemask import write_wav

from helpers import make_vowel

SRC = str(Path(voicemask.__file__).resolve().parent.parent)
BLOCK_SCIPY = "import sys; sys.modules['scipy'] = None; "


def python(code, *argv, block_scipy):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    prefix = BLOCK_SCIPY if block_scipy else ""
    return subprocess.run(
        [sys.executable, "-c", prefix + code, *map(str, argv)],
        env=env, capture_output=True, text=True, timeout=120,
    )


def voicemask_cli(*argv, block_scipy):
    code = "import sys; from voicemask.cli import main; sys.exit(main(sys.argv[1:]))"
    return python(code, *argv, block_scipy=block_scipy)


def tree_bytes(root):
    return {p.relative_to(root): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


@pytest.fixture(scope="module")
def vowel_wav(tmp_path_factory):
    path = tmp_path_factory.mktemp("startup") / "vowel.wav"
    write_wav(path, make_vowel(seconds=1.0))
    return path


class TestCommandsWithoutScipy:
    def test_synth(self, tmp_path):
        outputs = {}
        for block in (True, False):
            out = tmp_path / f"block_{block}"
            result = voicemask_cli(
                "synth", "--seed", 3, "--speakers", 2, "--utts", 2, "--out", out,
                block_scipy=block,
            )
            assert result.returncode == 0, result.stderr
            outputs[block] = tree_bytes(out)
        assert len(outputs[True]) == 5
        assert outputs[True] == outputs[False]

    @pytest.mark.parametrize(
        "algo_args", [("--algo", "voc"), ("--algo", "quadratic", "--gender", "F")]
    )
    def test_transform_by_degree(self, tmp_path, vowel_wav, algo_args):
        outputs = {}
        for block in (True, False):
            out = tmp_path / f"block_{block}.wav"
            result = voicemask_cli(
                "transform", *algo_args, "--degree", 10, "--in", vowel_wav, "--out", out,
                block_scipy=block,
            )
            assert result.returncode == 0, result.stderr
            outputs[block] = out.read_bytes()
        assert outputs[True] == outputs[False]

    def test_help(self):
        guarded = voicemask_cli("--help", block_scipy=True)
        assert guarded.returncode == 0, guarded.stderr
        assert guarded.stdout == voicemask_cli("--help", block_scipy=False).stdout

    def test_identify_needs_scipy(self, tmp_path, vowel_wav):
        # The guard bites: a scoring command cannot run without scipy.
        result = voicemask_cli(
            "identify", "--models", tmp_path / "models.txt", "--in", vowel_wav,
            block_scipy=True,
        )
        assert result.returncode != 0
        assert "scipy" in result.stderr


class TestImports:
    def test_package_and_cli_load_no_scipy(self):
        result = python(
            "import sys, voicemask, voicemask.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))",
            block_scipy=False,
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout == "[]\n"

    def test_experiment_loads_scipy_at_import(self):
        # A sweep's first timed round must not pay the scipy import.
        result = python(
            "import sys, voicemask.experiment; print('scipy.linalg' in sys.modules)",
            block_scipy=False,
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout == "True\n"

    def test_every_public_name_resolves(self):
        import voicemask.experiment as experiment
        import voicemask.speaker_id as speaker_id

        for name in voicemask.__all__:
            assert getattr(voicemask, name) is not None
        assert voicemask.run_degree_sweep is experiment.run_degree_sweep
        assert voicemask.identify_speaker is speaker_id.identify_speaker
        assert experiment.synth_corpus is voicemask.synth_corpus
        with pytest.raises(AttributeError):
            voicemask.no_such_name
