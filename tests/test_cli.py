import io
import logging
import os
import struct
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import pytest

import voicemask
import voicemask.cli as cli

from voicemask import (
    AudioBuffer,
    PitchShiftSpec,
    SpeakerModel,
    enroll,
    load_manifest,
    load_models,
    pitch_shift,
    read_wav,
    save_models,
    synth_corpus,
    write_wav,
)
from voicemask.cli import main
from voicemask.errors import InvariantViolation, NotPositiveDefinite

from helpers import SR, dominant_freq, make_tone


@pytest.fixture(scope="module")
def corpus_dir(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli_corpus")
    synth_corpus(11, 4, 2, path)
    return path


@pytest.fixture()
def tone_wav(tmp_path):
    path = tmp_path / "tone.wav"
    write_wav(path, make_tone(440.0))
    return path


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture()
def under_a_file(tmp_path):
    """A path whose parent is a regular file, so nothing can be written there."""
    blocker = tmp_path / "blocker"
    blocker.write_text("not a directory")
    return blocker / "out"


def assert_cannot_write(code, out, err, path):
    assert code == 1 and out == ""
    assert err.startswith(f"error: cannot write {path}")
    assert err.count("\n") == 1
    assert "Traceback" not in err


class TestTransform:
    def test_degree_maps_to_pitch_ratio(self, capsys, tone_wav, tmp_path):
        out = tmp_path / "out.wav"
        code, _, _ = run(
            capsys, "transform", "--algo", "voc", "--degree", "13",
            "--in", str(tone_wav), "--out", str(out),
        )
        assert code == 0
        measured = dominant_freq(read_wav(out).samples)
        assert abs(measured - 440.0 * 2 ** (13 / 24)) <= SR / 1024

    def test_warp_degree_requires_gender(self, tone_wav, tmp_path):
        with pytest.raises(SystemExit) as exit_info:
            main(
                ["transform", "--algo", "bilinear", "--degree", "25",
                 "--in", str(tone_wav), "--out", str(tmp_path / "o.wav")]
            )
        assert exit_info.value.code == 2

    def test_bilinear_degree_25_female(self, capsys, tone_wav, tmp_path):
        out = tmp_path / "out.wav"
        code, _, _ = run(
            capsys, "transform", "--algo", "bilinear", "--degree", "25", "--gender", "F",
            "--in", str(tone_wav), "--out", str(out),
        )
        assert code == 0
        # alpha = 0.0065 * 25 = 0.1625, evaluated independently. Tolerance covers
        # the resynthesis phase-consistency grid (2 pi / hop, about 62 Hz) while
        # still ruling out every other degree/gender/ratio wiring: the nearest
        # wrong mapping (alpha = -0.1075) lands 255 Hz away.
        alpha = 0.1625
        z = np.exp(1j * np.pi * 440.0 / (SR / 2))
        expected = np.angle((z - alpha) / (1 - alpha * z)) * (SR / 2) / np.pi
        assert abs(dominant_freq(read_wav(out).samples) - expected) <= SR / 256 / 2 + SR / 1024

    @pytest.mark.parametrize("degree", ["-1", "26"])
    def test_degree_outside_range_is_usage_error(self, capsys, tone_wav, tmp_path, degree):
        with pytest.raises(SystemExit) as exit_info:
            main(
                ["transform", "--algo", "voc", "--degree", degree,
                 "--in", str(tone_wav), "--out", str(tmp_path / "o.wav")]
            )
        assert exit_info.value.code == 2
        assert "--degree must be in 0..25" in capsys.readouterr().err
        assert not (tmp_path / "o.wav").exists()

    @pytest.mark.parametrize("degree", ["0", "25"])
    def test_degree_range_ends_are_accepted(self, capsys, tone_wav, tmp_path, degree):
        code, _, _ = run(
            capsys, "transform", "--algo", "vocf", "--degree", degree,
            "--in", str(tone_wav), "--out", str(tmp_path / "o.wav"),
        )
        assert code == 0

    def test_alpha_invalid_for_vocoder(self, tone_wav, tmp_path):
        with pytest.raises(SystemExit) as exit_info:
            main(
                ["transform", "--algo", "voc", "--alpha", "0.3",
                 "--in", str(tone_wav), "--out", str(tmp_path / "o.wav")]
            )
        assert exit_info.value.code == 2

    def test_exactly_one_selector_required(self, tone_wav, tmp_path):
        with pytest.raises(SystemExit) as exit_info:
            main(
                ["transform", "--algo", "voc", "--degree", "3", "--ratio", "1.5",
                 "--in", str(tone_wav), "--out", str(tmp_path / "o.wav")]
            )
        assert exit_info.value.code == 2

    def test_ratio_escape_hatch(self, capsys, tone_wav, tmp_path):
        out = tmp_path / "out.wav"
        code, _, _ = run(
            capsys, "transform", "--algo", "vocf", "--ratio", "0.75",
            "--in", str(tone_wav), "--out", str(out),
        )
        assert code == 0
        assert abs(dominant_freq(read_wav(out).samples) - 330.0) <= SR / 1024

    def test_asymmetric_alpha_flat_at_pi(self, capsys, tone_wav, tmp_path):
        # alpha >= 8/7 maps [pi/alpha, pi] onto pi; the transform still runs.
        out = tmp_path / "out.wav"
        code, _, err = run(
            capsys, "transform", "--algo", "asymmetric", "--alpha", "1.2",
            "--in", str(tone_wav), "--out", str(out),
        )
        assert code == 0, err
        written, source = read_wav(out), read_wav(tone_wav)
        assert len(written) == len(source)
        assert written.sample_rate == source.sample_rate

    def test_missing_input_file_is_runtime_error(self, capsys, tmp_path):
        code, _, err = run(
            capsys, "transform", "--algo", "voc", "--degree", "1",
            "--in", str(tmp_path / "none.wav"), "--out", str(tmp_path / "o.wav"),
        )
        assert code == 1
        assert "error" in err

    @pytest.mark.parametrize(
        "algo,extra,selector,value",
        [
            ("voc", [], "--ratio", lambda d: 2.0 ** (d / 24.0)),
            ("vocf", ["--variant", "loose"], "--ratio", lambda d: 2.0 ** (-d / 24.0)),
            ("quadratic", ["--gender", "F"], "--alpha", lambda d: 0.057 * d),
            ("quadratic", ["--gender", "M"], "--alpha", lambda d: -0.029 * d),
            ("bilinear", ["--gender", "F"], "--alpha", lambda d: 0.0065 * d),
            ("bilinear", ["--gender", "M"], "--alpha", lambda d: -0.0043 * d),
        ],
    )
    def test_degree_writes_the_bytes_of_its_scheduled_parameter(
        self, capsys, tone_wav, tmp_path, algo, extra, selector, value
    ):
        for degree in (7, 25):
            by_degree, by_value = tmp_path / "degree.wav", tmp_path / "value.wav"
            common = ["transform", "--algo", algo, *extra, "--in", str(tone_wav)]
            code_d, _, _ = run(capsys, *common, "--degree", str(degree), "--out", str(by_degree))
            code_v, _, _ = run(capsys, *common, selector, repr(value(degree)),
                               "--out", str(by_value))
            assert code_d == code_v == 0
            assert by_degree.read_bytes() == by_value.read_bytes()

    @pytest.mark.parametrize("variant", ["identity-locked", "loose"])
    def test_variant_reaches_pitch_shift(self, capsys, tone_wav, tmp_path, variant):
        out, want = tmp_path / "out.wav", tmp_path / "want.wav"
        code, _, _ = run(capsys, "transform", "--algo", "voc", "--ratio", "1.3",
                         "--variant", variant, "--in", str(tone_wav), "--out", str(out))
        assert code == 0
        write_wav(want, pitch_shift(read_wav(tone_wav), PitchShiftSpec(1.3, variant=variant)))
        assert out.read_bytes() == want.read_bytes()

    def test_rate_past_the_wav_header_is_runtime_error(self, capsys, tone_wav, tmp_path):
        # read_wav takes the rate; write_wav's header would hold 2 * 3e9 in 32 bits.
        data = bytearray(tone_wav.read_bytes())
        struct.pack_into("<I", data, 24, 3_000_000_000)
        fast, out = tmp_path / "fast.wav", tmp_path / "o.wav"
        fast.write_bytes(data)
        code, stdout, err = run(
            capsys, "transform", "--algo", "quadratic", "--alpha", "0.3",
            "--in", str(fast), "--out", str(out),
        )
        assert code == 1 and stdout == ""
        assert err == (
            f"error: {out}: sample rate 3000000000 Hz overflows the header's 32-bit byte rate\n"
        )
        assert not out.exists()

    def test_unknown_flag_rejected(self, tone_wav, tmp_path):
        with pytest.raises(SystemExit) as exit_info:
            main(["transform", "--algo", "voc", "--degree", "1", "--loudness", "3",
                  "--in", str(tone_wav), "--out", str(tmp_path / "o.wav")])
        assert exit_info.value.code == 2


class TestEnrollIdentifyGender:
    def test_enroll_writes_speakers_plus_gender_models(self, capsys, corpus_dir, tmp_path):
        store = tmp_path / "models.txt"
        code, _, _ = run(
            capsys, "enroll", "--manifest", str(corpus_dir / "manifest.csv"),
            "--models", str(store),
        )
        assert code == 0
        models = load_models(store)
        assert len(models) == 4 + 2
        labels = [m.label for m in models]
        assert "M" in labels and "F" in labels

    def test_enroll_is_deterministic(self, capsys, corpus_dir, tmp_path):
        a, b = tmp_path / "a.txt", tmp_path / "b.txt"
        run(capsys, "enroll", "--manifest", str(corpus_dir / "manifest.csv"), "--models", str(a))
        run(capsys, "enroll", "--manifest", str(corpus_dir / "manifest.csv"), "--models", str(b))
        assert a.read_bytes() == b.read_bytes()

    def test_enroll_writes_the_store_of_the_library_enrollment(self, capsys, corpus_dir, tmp_path):
        cli_store, lib_store = tmp_path / "cli.txt", tmp_path / "lib.txt"
        run(capsys, "enroll", "--manifest", str(corpus_dir / "manifest.csv"),
            "--models", str(cli_store))
        speakers, male, female = enroll(load_manifest(corpus_dir / "manifest.csv"))
        save_models(lib_store, speakers + [male, female])
        assert cli_store.read_bytes() == lib_store.read_bytes()

    def test_enroll_skips_an_unreadable_train_file(self, capsys, caplog, tmp_path):
        manifest = synth_corpus(11, 4, 2, tmp_path / "corpus")
        bad = manifest.train_entries()[2].path
        bad.write_bytes(b"junk")
        store = tmp_path / "models.txt"
        with caplog.at_level(logging.WARNING, logger="voicemask.experiment"):
            code, _, _ = run(capsys, "enroll", "--manifest",
                             str(tmp_path / "corpus" / "manifest.csv"), "--models", str(store))
        assert code == 0
        assert [m.label for m in load_models(store)] == ["spk00", "spk01", "spk03", "M", "F"]
        assert [r.getMessage() for r in caplog.records] == [
            f"skipping {bad}: {bad}: not a RIFF/WAVE file"
        ]

    def test_enroll_models_under_a_file_is_io_failure(self, capsys, corpus_dir, under_a_file):
        code, out, err = run(capsys, "enroll", "--manifest", str(corpus_dir / "manifest.csv"),
                             "--models", str(under_a_file))
        assert_cannot_write(code, out, err, under_a_file)

    def test_enroll_without_train_audio_for_a_gender_is_runtime_error(self, capsys, tmp_path):
        manifest = synth_corpus(11, 4, 2, tmp_path / "corpus")
        for entry in manifest.train_entries():
            if entry.gender == "F":
                entry.path.write_bytes(b"junk")
        store = tmp_path / "models.txt"
        code, _, err = run(capsys, "enroll", "--manifest",
                           str(tmp_path / "corpus" / "manifest.csv"), "--models", str(store))
        assert code == 1
        assert "gender F" in err
        assert not store.exists()

    @pytest.mark.parametrize("command,out", [("enroll", "--models"), ("sweep", "--out")])
    def test_a_speaker_under_two_genders_is_runtime_error(self, capsys, tmp_path, command, out):
        # enroll modelled s0 as male, and the sweep counted its test file under F.
        manifest = tmp_path / "manifest.csv"
        manifest.write_text(
            "path,speaker_id,gender,partition\na.wav,s0,M,train\nb.wav,s0,F,test\n"
        )
        code, stdout, err = run(capsys, command, "--manifest", str(manifest),
                                out, str(tmp_path / "r"))
        assert code == 1 and stdout == ""
        assert err == "error: speaker s0 is listed under two genders\n"
        assert list(tmp_path.iterdir()) == [manifest]

    @staticmethod
    def relabelled_manifest(corpus_dir, tmp_path, speaker, label):
        """The corpus manifest with one speaker id replaced by ``label``."""
        header, *rows = (corpus_dir / "manifest.csv").read_text().splitlines()
        rows = [f"{corpus_dir}/{row}".replace(f",{speaker},", f",{label},") for row in rows]
        manifest = tmp_path / "manifest.csv"
        manifest.write_text("\n".join([header] + rows) + "\n")
        return manifest

    @pytest.mark.parametrize("speaker,label", [("spk01", "M"), ("spk00", "F")])
    def test_enroll_refuses_a_speaker_labelled_as_a_gender(self, capsys, corpus_dir, tmp_path,
                                                           speaker, label):
        # In the store, a speaker labelled M or F would pass for a gender model.
        manifest = self.relabelled_manifest(corpus_dir, tmp_path, speaker, label)
        store = tmp_path / "models.txt"
        code, out, err = run(capsys, "enroll", "--manifest", str(manifest), "--models", str(store))
        assert code == 1 and out == ""
        assert err == f"error: speaker id {label!r} is reserved for a gender model\n"
        assert not store.exists()

    @pytest.mark.parametrize("speaker,label", [("spk01", "M"), ("spk00", "F")])
    def test_library_store_refuses_a_speaker_labelled_as_a_gender(self, corpus_dir, tmp_path,
                                                                  speaker, label):
        manifest = self.relabelled_manifest(corpus_dir, tmp_path, speaker, label)
        speakers, male, female = enroll(load_manifest(manifest))
        store = tmp_path / "models.txt"
        with pytest.raises(InvariantViolation, match=f"two models are labelled {label!r}"):
            save_models(store, speakers + [male, female])
        assert not store.exists()

    @pytest.mark.parametrize("command,labels,message", [
        ("identify", ("M", "F"), "model store has no speaker models"),
        ("gender", ("spk00", "M"), "model store lacks a gender model"),
    ])
    def test_store_without_the_models_a_command_needs(self, capsys, corpus_dir, tmp_path,
                                                      command, labels, message):
        store = tmp_path / "store.txt"
        save_models(store, [SpeakerModel(label, "M", np.eye(12), 100) for label in labels])
        code, out, err = run(
            capsys, command, "--models", str(store), "--in", str(corpus_dir / "spk00_u01.wav")
        )
        assert code == 1 and out == ""
        assert err == f"error: {message}\n"

    def test_identify_training_utterance_ranks_self_first(self, capsys, corpus_dir, tmp_path):
        store = tmp_path / "models.txt"
        run(capsys, "enroll", "--manifest", str(corpus_dir / "manifest.csv"), "--models", str(store))
        code, out, _ = run(
            capsys, "identify", "--models", str(store), "--in", str(corpus_dir / "spk01_u01.wav")
        )
        assert code == 0
        lines = out.strip().split("\n")
        assert len(lines) == 4
        first_label, first_score = lines[0].split()
        assert first_label == "spk01"
        scores = [float(line.split()[1]) for line in lines]
        assert scores == sorted(scores)

    def test_gender_outputs(self, capsys, corpus_dir, tmp_path):
        store = tmp_path / "models.txt"
        run(capsys, "enroll", "--manifest", str(corpus_dir / "manifest.csv"), "--models", str(store))
        code, out, _ = run(
            capsys, "gender", "--models", str(store), "--in", str(corpus_dir / "spk00_u01.wav")
        )
        assert code == 0
        decided, margin = out.split()
        assert decided == "M"
        float(margin)
        code, out, _ = run(
            capsys, "gender", "--models", str(store), "--in", str(corpus_dir / "spk01_u01.wav")
        )
        assert code == 0
        assert out.split()[0] == "F"

    def test_missing_store_is_runtime_error(self, capsys, tmp_path, corpus_dir):
        code, _, err = run(
            capsys, "identify", "--models", str(tmp_path / "none.txt"),
            "--in", str(corpus_dir / "spk00_u01.wav"),
        )
        assert code == 1

    def test_store_without_gender_models(self, capsys, corpus_dir, tmp_path):
        from voicemask import covariance_model, save_models

        store = tmp_path / "only_speakers.txt"
        rng = np.random.default_rng(0)
        save_models(store, [covariance_model(rng.standard_normal((40, 12)), "solo")])
        code, _, err = run(
            capsys, "gender", "--models", str(store), "--in", str(corpus_dir / "spk00_u01.wav")
        )
        assert code == 1
        assert "gender" in err

    @pytest.mark.parametrize("command", ["identify", "gender"])
    def test_store_with_indefinite_matrix_is_runtime_error(self, capsys, corpus_dir, tmp_path,
                                                           command):
        store = tmp_path / "indefinite.txt"
        indefinite = np.diag([1.0] * 11 + [-1.0])  # symmetric, so the store takes it
        save_models(store, [SpeakerModel(label, label, indefinite, 100) for label in ("M", "F")]
                    + [SpeakerModel("spk00", "U", indefinite, 100)])
        code, out, err = run(
            capsys, command, "--models", str(store), "--in", str(corpus_dir / "spk00_u01.wav")
        )
        assert code == 1 and out == ""
        assert err == "error: 12-th leading minor of the array is not positive definite\n"

    @pytest.mark.parametrize("command", ["identify", "gender"])
    def test_trace_product_below_zero_is_runtime_error(self, capsys, corpus_dir, tmp_path,
                                                       monkeypatch, command):
        # An audio probe carries covariance_model's ridge, and against it no
        # store matrix that factors was seen to round the trace product to
        # zero or below. A singular probe against a multiple of itself does,
        # for about 1 seed in 200, so the probe here is patched in.
        import voicemask.speaker_id as speaker_id

        for seed in range(2000):
            a = np.random.default_rng(seed).standard_normal((12, 11))
            singular = a @ a.T
            try:
                speaker_id.sphericity_distance(singular, 3.7 * singular)
            except NotPositiveDefinite as exc:
                if str(exc).startswith("trace product "):
                    break
        else:
            pytest.fail("no singular matrix rounded its trace product below zero")
        store = tmp_path / "multiples.txt"
        save_models(store, [SpeakerModel(label, gender, 3.7 * singular, 100)
                            for label, gender in (("spk00", "M"), ("M", "M"), ("F", "F"))])
        monkeypatch.setattr(speaker_id, "covariance_model",
                            lambda feats, label: SpeakerModel(label, "U", singular, len(feats)))
        code, out, err = run(
            capsys, command, "--models", str(store), "--in", str(corpus_dir / "spk00_u01.wav")
        )
        assert code == 1 and out == ""
        assert err.startswith("error: trace product ") and err.endswith(" is not positive\n")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("command", ["identify", "gender"])
    def test_store_of_another_order_is_runtime_error(self, capsys, corpus_dir, tmp_path, command):
        store = tmp_path / "order2.txt"
        save_models(store, [SpeakerModel(label, gender, np.eye(2), 100)
                            for label, gender in (("spk00", "M"), ("M", "M"), ("F", "F"))])
        code, out, err = run(
            capsys, command, "--models", str(store), "--in", str(corpus_dir / "spk00_u01.wav")
        )
        assert code == 1 and out == ""
        assert err == "error: incompatible covariance shapes (12, 12) and (2, 2)\n"

    @pytest.mark.parametrize("rate", [20, 50])
    @pytest.mark.parametrize("command", ["identify", "gender"])
    def test_audio_too_low_in_rate_to_frame_is_runtime_error(self, capsys, tmp_path, command, rate):
        # The 10 ms hop rounds to 0 samples at 50 Hz and below.
        store, wav = tmp_path / "store.txt", tmp_path / "low.wav"
        save_models(store, [SpeakerModel(label, gender, np.eye(12), 100)
                            for label, gender in (("spk00", "M"), ("M", "M"), ("F", "F"))])
        write_wav(wav, AudioBuffer(np.sin(np.arange(3 * rate)), rate))
        code, out, err = run(capsys, command, "--models", str(store), "--in", str(wav))
        assert code == 1 and out == ""
        assert err.startswith(f"error: {rate} Hz gives ") and err.count("\n") == 1


class TestSynthAndMos:
    def test_synth_deterministic_dirs(self, capsys, tmp_path):
        code_a, _, _ = run(capsys, "synth", "--seed", "5", "--speakers", "2", "--utts", "2",
                           "--out", str(tmp_path / "a"))
        code_b, _, _ = run(capsys, "synth", "--seed", "5", "--speakers", "2", "--utts", "2",
                           "--out", str(tmp_path / "b"))
        assert code_a == code_b == 0
        for wav in sorted((tmp_path / "a").iterdir()):
            assert wav.read_bytes() == (tmp_path / "b" / wav.name).read_bytes()

    def test_synth_odd_speakers_runtime_error(self, capsys, tmp_path):
        code, _, _ = run(capsys, "synth", "--seed", "5", "--speakers", "3", "--utts", "2",
                         "--out", str(tmp_path / "x"))
        assert code == 1

    @pytest.mark.parametrize("speakers,utts,reason", [
        ("3", "2", "n_speakers must be even, got 3"),
        ("0", "2", "need at least 2 speakers, got 0"),
        ("-2", "2", "need at least 2 speakers, got -2"),
        ("2", "1", "need at least 2 utterances per speaker, got 1"),
    ])
    def test_synth_bad_sizes_print_one_error_line(self, capsys, tmp_path, speakers, utts, reason):
        out_dir = tmp_path / "x"
        code, out, err = run(capsys, "synth", "--seed", "5", "--speakers", speakers,
                             "--utts", utts, "--out", str(out_dir))
        assert code == 1 and out == ""
        assert err == f"error: {reason}\n"
        assert not out_dir.exists()

    def test_synth_out_under_a_file_is_io_failure(self, capsys, under_a_file):
        code, out, err = run(capsys, "synth", "--seed", "5", "--speakers", "2", "--utts", "2",
                             "--out", str(under_a_file))
        assert_cannot_write(code, out, err, under_a_file)

    def test_mos_fixture(self, capsys, tmp_path):
        rows = ["listener_id,file_id,algorithm,degree,rating"]
        ratings = [4, 4, 4, 4, 4, 4, 4, 3, 3, 3]  # sums to 37
        rows += [f"l{i},f{i},voc,7,{r}" for i, r in enumerate(ratings)]
        path = tmp_path / "r.csv"
        path.write_text("\n".join(rows) + "\n")
        code, out, _ = run(capsys, "mos", "--ratings", str(path))
        assert code == 0
        assert out.strip() == "voc 3.7000 10"

    def test_mos_empty_is_runtime_error(self, capsys, tmp_path):
        path = tmp_path / "r.csv"
        path.write_text("")
        code, _, _ = run(capsys, "mos", "--ratings", str(path))
        assert code == 1


class TestMainErrorPath:
    @pytest.mark.parametrize("error", [ValueError, OSError])
    def test_an_error_outside_the_toolkit_is_not_swallowed(self, monkeypatch, tmp_path, error):
        # Only VoicemaskError is a bad input; anything else is a bug and
        # keeps its traceback.
        import voicemask.cli as cli

        def broken(parser, args):
            raise error("not a bad input")

        monkeypatch.setitem(cli._COMMANDS, "mos", broken)
        with pytest.raises(error, match="not a bad input"):
            main(["mos", "--ratings", str(tmp_path / "r.csv")])


class TestParserReuse:
    def test_one_parser_serves_every_call(self, capsys, tmp_path):
        cli._build_parser.cache_clear()
        assert main(["mos", "--ratings", str(tmp_path / "none.csv")]) == 1
        for argv in (["mos"], ["--help"]):
            with pytest.raises(SystemExit):
                main(argv)
        assert cli._build_parser.cache_info().misses == 1
        assert cli._build_parser.cache_info().hits == 2

    def test_calls_in_one_process_print_what_fresh_processes_print(
        self, capsys, monkeypatch, corpus_dir, tmp_path
    ):
        monkeypatch.setenv("COLUMNS", "80")  # the help text's width, on both sides
        store, wav = str(tmp_path / "models.txt"), str(corpus_dir / "spk00_u01.wav")
        manifest = str(corpus_dir / "manifest.csv")
        assert main(["enroll", "--manifest", manifest, "--models", store]) == 0
        commands = [
            ["transform", "--algo", "voc", "--in", wav, "--out", "{out}"],  # no selector: exit 2
            ["--help"],
            ["mos", "--ratings", str(tmp_path / "none.csv")],  # exit 1
            ["transform", "--algo", "vocf", "--degree", "7", "--in", wav, "--out", "{out}"],
            ["identify", "--models", store, "--in", wav],
            ["gender", "--models", store, "--in", wav],
            ["sweep", "--help"],
            ["gender", "--models", store],  # no --in: exit 2
        ]
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(Path(voicemask.__file__).parents[1]), env.get("PYTHONPATH")])
        )
        capsys.readouterr()
        for i, argv in enumerate(commands):
            here, fresh = tmp_path / f"here{i}.wav", tmp_path / f"fresh{i}.wav"
            try:
                code = main([a.format(out=here) for a in argv])
            except SystemExit as exc:
                code = exc.code
            captured = capsys.readouterr()
            done = subprocess.run(
                [sys.executable, "-m", "voicemask.cli", *[a.format(out=fresh) for a in argv]],
                env=env, capture_output=True, text=True, timeout=120,
            )
            assert (code, captured.out, captured.err) == (
                done.returncode, done.stdout, done.stderr
            ), argv
            assert here.exists() == fresh.exists()
            if here.exists():
                assert here.read_bytes() == fresh.read_bytes()


class TestWarningStream:
    def test_each_call_warns_on_the_stderr_it_runs_under(self, tmp_path):
        ratings = tmp_path / "ratings.csv"
        ratings.write_text("listener_id,file_id,algorithm,degree,rating\nl0,f0,voc,7,4\n")
        manifest = synth_corpus(11, 4, 2, tmp_path / "corpus")
        missing = manifest.train_entries()[2].path
        missing.unlink()
        first, second = io.StringIO(), io.StringIO()
        with redirect_stdout(io.StringIO()):
            with redirect_stderr(first):
                assert main(["mos", "--ratings", str(ratings)]) == 0
            with redirect_stderr(second):
                assert main(["enroll", "--manifest", str(tmp_path / "corpus" / "manifest.csv"),
                             "--models", str(tmp_path / "models.txt")]) == 0
        assert first.getvalue() == ""
        warning = second.getvalue()
        assert warning.startswith(f"skipping {missing}: cannot read {missing}")
        assert warning.count("\n") == 1

class TestSweepFlags:
    @pytest.mark.parametrize(
        "algos,message",
        [
            (",", "a sweep names no algorithm; choose from voc,vocf,quadratic,bilinear"),
            (" , ", "a sweep names no algorithm; choose from voc,vocf,quadratic,bilinear"),
            ("", "a sweep names no algorithm; choose from voc,vocf,quadratic,bilinear"),
            ("voc,vocf,voc", "a sweep names 'voc' twice"),
            ("voc,gmm", "unknown algorithm 'gmm'; choose from voc,vocf,quadratic,bilinear"),
        ],
    )
    def test_bad_algos_are_usage_errors_before_reading_audio(self, capsys, caplog, tmp_path,
                                                             algos, message):
        # None of these files exists: enrolling first would log each as skipped.
        manifest = tmp_path / "m.csv"
        manifest.write_text(
            "path,speaker_id,gender,partition\n"
            "a.wav,s0,M,train\nb.wav,s0,M,test\nc.wav,s1,F,train\nd.wav,s1,F,test\n"
        )
        with caplog.at_level(logging.WARNING, logger="voicemask.experiment"):
            with pytest.raises(SystemExit) as exit_info:
                main(["sweep", "--manifest", str(manifest), "--algos", algos,
                      "--out", str(tmp_path / "r")])
        assert exit_info.value.code == 2
        assert capsys.readouterr().err.endswith(f"error: {message}\n")
        assert caplog.records == []
        assert not (tmp_path / "r").exists()


@pytest.mark.slow
class TestSweepCommand:
    def test_degree_zero_sweep_prints_dashes(self, capsys, corpus_dir, tmp_path):
        out_dir = tmp_path / "report"
        code, out, _ = run(
            capsys, "sweep", "--manifest", str(corpus_dir / "manifest.csv"),
            "--algos", "voc,bilinear", "--degrees", "0..0", "--out", str(out_dir),
        )
        assert code == 0
        lines = out.strip().split("\n")
        assert len(lines) == 2 * 3  # per algorithm: M, F, id
        for line in lines:
            algo, label, value = line.split()
            assert algo in ("voc", "bilinear")
            assert label in ("M", "F", "id")
            assert value == "-"
        csv_text = (out_dir / "sweep.csv").read_text()
        assert len(csv_text.strip().split("\n")) == 1 + 2 * 2  # header + algos x genders

    def test_a_gender_without_a_completed_cell_prints_dashes(self, capsys, tmp_path):
        manifest = synth_corpus(2, 4, 2, tmp_path / "corpus")
        for entry in manifest.test_entries():
            if entry.gender == "M":
                entry.path.write_bytes(b"junk")
        out_dir = tmp_path / "report"
        code, out, err = run(
            capsys, "sweep", "--manifest", str(tmp_path / "corpus" / "manifest.csv"),
            "--algos", "voc,quadratic", "--degrees", "0..2", "--out", str(out_dir),
        )
        assert code == 0, err
        assert err.count("\n") == 2 and "error" not in err
        lines = [line.split() for line in out.strip().split("\n")]
        assert [line[:2] for line in lines] == [
            [algo, label] for algo in ("voc", "quadratic") for label in ("M", "F", "id")
        ]
        assert [line[2] for line in lines if line[1] == "M"] == ["-", "-"]
        assert sorted(p.name for p in out_dir.iterdir()) == [
            "sweep.csv", "sweep_quadratic.svg", "sweep_voc.svg"
        ]

    def test_sweep_out_under_a_file_is_io_failure(self, capsys, corpus_dir, under_a_file):
        code, out, err = run(
            capsys, "sweep", "--manifest", str(corpus_dir / "manifest.csv"),
            "--algos", "voc", "--degrees", "0..0", "--out", str(under_a_file),
        )
        assert_cannot_write(code, out, err, under_a_file)

    def test_bad_degree_spec_is_usage_error(self, corpus_dir, tmp_path):
        with pytest.raises(SystemExit) as exit_info:
            main(["sweep", "--manifest", str(corpus_dir / "manifest.csv"),
                  "--degrees", "five", "--out", str(tmp_path / "r")])
        assert exit_info.value.code == 2

    def test_unknown_algo_is_usage_error(self, corpus_dir, tmp_path):
        with pytest.raises(SystemExit) as exit_info:
            main(["sweep", "--manifest", str(corpus_dir / "manifest.csv"),
                  "--algos", "voc,gmm", "--out", str(tmp_path / "r")])
        assert exit_info.value.code == 2
