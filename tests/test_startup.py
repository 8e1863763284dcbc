"""Start-up: what ``import voicemask`` and the ``voicemask`` program load.

Only speaker scoring needs scipy (the cepstral DCT and LAPACK), so the CLI
and the package load ``experiment`` and ``speaker_id`` where they are used.
Each command here runs in a fresh interpreter, with scipy made unimportable
or not, and the guarded run must exit 0 and write the bytes of the
unguarded one. The package itself loads no numpy, which lets the program
hold BLAS to one thread before numpy starts it.
"""

import importlib
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


SUBMODULES = (
    "cli", "corpus", "errors", "experiment", "phase_vocoder", "signal_core", "speaker_id", "vtln",
)
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# Prints the BLAS thread settings in force when numpy is first imported.
WATCH_NUMPY_IMPORT = f"""
import os, sys
class Watch:
    def find_spec(self, name, path=None, target=None):
        if name == "numpy":
            print([os.environ.get(var) for var in {BLAS_VARS!r}])
sys.meta_path.insert(0, Watch())
"""


def python(code, *argv, block_scipy, environ=None):
    """Run code in a fresh interpreter; ``environ`` sets variables, or unsets those given None."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    for var, value in (environ or {}).items():
        if value is None:
            env.pop(var, None)
        else:
            env[var] = value
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

    @pytest.mark.parametrize(
        "algo_args", [("--algo", "voc"), ("--algo", "quadratic", "--gender", "F")]
    )
    def test_cli_and_transform_load_no_thread_pool(self, tmp_path, vowel_wav, algo_args):
        # synth_corpus imports concurrent.futures (about 1.7 ms) when it runs, and no sooner.
        code = (
            "import sys; from voicemask.cli import main; "
            "print('concurrent.futures' in sys.modules); code = main(sys.argv[1:]); "
            "print('concurrent.futures' in sys.modules); sys.exit(code)"
        )
        result = python(
            code, "transform", *algo_args, "--degree", 10, "--in", vowel_wav,
            "--out", tmp_path / "out.wav", block_scipy=False,
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout == "False\nFalse\n"

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

        assert voicemask.__all__ == sorted(voicemask.__all__)
        modules = [importlib.import_module(f"voicemask.{name}") for name in SUBMODULES]
        for name in voicemask.__all__:
            value = getattr(voicemask, name)
            home = getattr(value, "__module__", None)
            if home is not None:  # a class or function: the module that defines it
                assert home.startswith("voicemask.") and getattr(sys.modules[home], name) is value
            holders = [module for module in modules if name in vars(module)]
            assert holders and all(vars(module)[name] is value for module in holders), name
        assert voicemask.run_degree_sweep is experiment.run_degree_sweep
        assert voicemask.identify_speaker is speaker_id.identify_speaker
        assert experiment.synth_corpus is voicemask.synth_corpus
        with pytest.raises(AttributeError):
            voicemask.no_such_name

    @pytest.mark.parametrize("module", list(voicemask._EXPORTS))
    def test_each_export_is_in_its_home_modules_all(self, module):
        # A name removed from one list and not the other would show here.
        home = importlib.import_module(f"voicemask.{module}")
        if hasattr(home, "__all__"):
            assert set(voicemask._EXPORTS[module]) <= set(home.__all__)

    def test_package_loads_no_numpy(self):
        result = python(
            "import sys, voicemask; print(voicemask.__version__, 'numpy' in sys.modules)",
            block_scipy=False,
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout == "0.1.0 False\n"

    def test_submodules_resolve_without_an_import(self):
        code = (
            "import sys, voicemask; print(all(getattr(voicemask, m) is "
            f"sys.modules['voicemask.' + m] for m in {SUBMODULES!r}))"
        )
        result = python(code, block_scipy=False)
        assert result.returncode == 0, result.stderr
        assert result.stdout == "True\n"

    def test_a_name_rebound_in_its_home_module_is_read_from_there(self, monkeypatch):
        # Nothing is cached in the package: once a patch (or a tracer's span
        # wrapper) is undone, the package hands out the original again.
        import voicemask.speaker_id as speaker_id

        original, stand_in = speaker_id.identify_speaker, object()
        monkeypatch.setattr(speaker_id, "identify_speaker", stand_in)
        assert voicemask.identify_speaker is stand_in
        monkeypatch.undo()
        assert voicemask.identify_speaker is original


class TestBlasThreads:
    """The program holds BLAS to one thread unless told otherwise; the library does not."""

    @pytest.mark.parametrize(
        "module, environ, seen",
        [
            ("voicemask.cli", {}, ["1", "1", "1"]),
            ("voicemask.cli", {"OPENBLAS_NUM_THREADS": "2"}, ["2", "1", "1"]),
            ("voicemask.signal_core", {}, [None, None, None]),
        ],
        ids=["program default", "program, caller's value", "library"],
    )
    def test_settings_when_numpy_first_loads(self, module, environ, seen):
        environ = {**dict.fromkeys(BLAS_VARS), **environ}
        result = python(
            WATCH_NUMPY_IMPORT + f"import {module}", block_scipy=False, environ=environ
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout == f"{seen}\n"
