import logging

import numpy as np
import pytest

from voicemask import (
    PitchShiftSpec,
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
