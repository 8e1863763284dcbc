import logging
import os
from pathlib import Path

import numpy as np
import pytest

import voicemask.experiment as experiment
import voicemask.phase_vocoder as phase_vocoder
import voicemask.vtln as vtln
from voicemask import (
    ALGORITHMS,
    AudioBuffer,
    CorpusManifest,
    DegreeSchedule,
    PitchShiftSpec,
    WarpSpec,
    ManifestEntry,
    MosTable,
    SweepResult,
    SweepRow,
    aggregate_mos,
    emit_report,
    find_crossover,
    load_manifest,
    load_sweep,
    pitch_shift,
    run_degree_sweep,
    synth_corpus,
    vtln_transform,
    write_wav,
)
from voicemask.errors import (
    EmptyInput,
    InvalidConfig,
    InvariantViolation,
    NoCrossover,
    NotPositiveDefinite,
    ParseError,
)

from helpers import SR, make_vowel


def write_manifest(path, rows):
    lines = ["path,speaker_id,gender,partition"] + rows
    path.write_text("\n".join(lines) + "\n")


class TestManifest:
    def test_basic_load(self, tmp_path):
        write_manifest(
            tmp_path / "m.csv",
            [
                "a.wav,s0,M,train",
                "b.wav,s0,M,test",
                "c.wav,s1,F,train",
                "d.wav,s1,F,test",
            ],
        )
        manifest = load_manifest(tmp_path / "m.csv")
        assert len(manifest.entries) == 4
        assert manifest.speakers() == ["s0", "s1"]
        assert manifest.entries[0].path == tmp_path / "a.wav"

    def test_bad_gender_reports_line(self, tmp_path):
        write_manifest(
            tmp_path / "m.csv",
            ["a.wav,s0,M,train", "b.wav,s0,X,test"],
        )
        with pytest.raises(ParseError) as err:
            load_manifest(tmp_path / "m.csv")
        assert err.value.line == 3

    def test_bad_partition_reports_line(self, tmp_path):
        write_manifest(tmp_path / "m.csv", ["a.wav,s0,M,dev"])
        with pytest.raises(ParseError) as err:
            load_manifest(tmp_path / "m.csv")
        assert err.value.line == 2

    def test_a_speaker_under_two_genders_is_invariant_violation(self, tmp_path):
        # enroll modelled s0 as male, and the sweep counted its test file under F.
        write_manifest(
            tmp_path / "m.csv",
            ["a.wav,s0,M,train", "b.wav,s0,F,test", "c.wav,s1,F,train", "d.wav,s1,F,test"],
        )
        with pytest.raises(InvariantViolation, match="^speaker s0 is listed under two genders$"):
            load_manifest(tmp_path / "m.csv")

    def test_missing_test_entry_names_speaker(self, tmp_path):
        write_manifest(
            tmp_path / "m.csv",
            ["a.wav,s0,M,train", "b.wav,s1,F,train", "c.wav,s1,F,test"],
        )
        with pytest.raises(InvariantViolation, match="s0"):
            load_manifest(tmp_path / "m.csv")

    def test_duplicate_paths_rejected(self, tmp_path):
        entries = (
            ManifestEntry(tmp_path / "a.wav", "s0", "M", "train"),
            ManifestEntry(tmp_path / "a.wav", "s0", "M", "test"),
        )
        with pytest.raises(InvariantViolation):
            CorpusManifest(entries)

    def test_bad_header(self, tmp_path):
        (tmp_path / "m.csv").write_text("file,speaker,sex,split\n")
        with pytest.raises(ParseError) as err:
            load_manifest(tmp_path / "m.csv")
        assert err.value.line == 1


class TestDegreeSchedule:
    def test_degree_zero_is_identity_parameter(self):
        assert DegreeSchedule("voc").parameter(0) == 1.0
        assert DegreeSchedule("vocf").parameter(0) == 1.0
        assert DegreeSchedule("quadratic").parameter(0, "F") == 0.0
        assert DegreeSchedule("bilinear").parameter(0, "M") == 0.0

    def test_pitch_ratios(self):
        assert DegreeSchedule("voc").parameter(13) == pytest.approx(2.0 ** (13 / 24))
        assert DegreeSchedule("vocf").parameter(24) == pytest.approx(0.5)

    def test_warp_steps(self):
        assert DegreeSchedule("quadratic").parameter(10, "F") == pytest.approx(0.57)
        assert DegreeSchedule("quadratic").parameter(10, "M") == pytest.approx(-0.29)
        assert DegreeSchedule("bilinear").parameter(25, "F") == pytest.approx(0.1625)
        assert DegreeSchedule("bilinear").parameter(25, "M") == pytest.approx(-0.1075)

    @pytest.mark.parametrize("degree", ["3", 1.5, 2.0, True, False, None])
    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_a_degree_that_is_not_an_integer_is_invalid_config(self, algorithm, degree):
        # "3" raised a bare TypeError; 1.5 and True gave a parameter.
        with pytest.raises(InvalidConfig, match="degree"):
            DegreeSchedule(algorithm).parameter(degree, "M")

    def test_a_numpy_integer_degree_is_a_degree(self):
        schedule = DegreeSchedule("voc")
        assert schedule.parameter(np.int64(13)) == schedule.parameter(13)

    def test_warp_needs_gender(self):
        with pytest.raises(ValueError):
            DegreeSchedule("bilinear").parameter(5)

    def test_degree_range_checked(self):
        with pytest.raises(ValueError):
            DegreeSchedule("voc").parameter(26)

    def test_unknown_algorithm(self):
        with pytest.raises(ValueError):
            DegreeSchedule("mcadams")

    def test_families(self):
        assert [DegreeSchedule(a).family for a in ALGORITHMS] == ["pitch", "pitch", "warp", "warp"]

    def test_one_analysis_serves_every_degree(self):
        buf = make_vowel(seconds=0.5)
        degrees = np.random.default_rng(3).permutation(26)[:6]
        for algo in ALGORITHMS:
            schedule = DegreeSchedule(algo)
            analysis = schedule.analyse(buf)
            for degree in degrees:
                got = schedule.apply(analysis, int(degree), "F").samples
                param = schedule.parameter(int(degree), "F")
                if schedule.family == "pitch":
                    want = pitch_shift(buf, PitchShiftSpec(param))
                else:
                    want = vtln_transform(buf, WarpSpec(algo, param))
                assert got.tobytes() == want.samples.tobytes()


class TestSynthCorpus:
    def test_counts_and_partitions(self, tmp_path):
        manifest = synth_corpus(3, 4, 3, tmp_path)
        assert len(manifest.entries) == 12
        assert len(manifest.train_entries()) == 4
        assert len(manifest.test_entries()) == 8
        genders = {e.speaker_id: e.gender for e in manifest.entries}
        assert sorted(genders.values()) == ["F", "F", "M", "M"]

    def test_deterministic(self, tmp_path):
        a_dir, b_dir = tmp_path / "a", tmp_path / "b"
        synth_corpus(9, 2, 2, a_dir)
        synth_corpus(9, 2, 2, b_dir)
        for wav in sorted(a_dir.glob("*.wav")):
            assert wav.read_bytes() == (b_dir / wav.name).read_bytes()
        assert (a_dir / "manifest.csv").read_text() == (b_dir / "manifest.csv").read_text()

    def test_different_seeds_differ(self, tmp_path):
        synth_corpus(1, 2, 2, tmp_path / "a")
        synth_corpus(2, 2, 2, tmp_path / "b")
        name = "spk00_u00.wav"
        assert (tmp_path / "a" / name).read_bytes() != (tmp_path / "b" / name).read_bytes()

    def test_odd_speakers_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            synth_corpus(1, 3, 2, tmp_path)

    def test_single_utterance_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            synth_corpus(1, 2, 1, tmp_path)

    @pytest.mark.parametrize("n_speakers,utts", [(3, 2), (2, 1), (0, 0)])
    def test_bad_sizes_are_invalid_config(self, tmp_path, n_speakers, utts):
        with pytest.raises(InvalidConfig):
            synth_corpus(1, n_speakers, utts, tmp_path / "x")
        assert not (tmp_path / "x").exists()

    def test_negative_seed_is_invalid_config(self, tmp_path):
        with pytest.raises(InvalidConfig, match="seed must be non-negative, got -1"):
            synth_corpus(-1, 2, 2, tmp_path / "x")
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize(
        "sizes,name",
        [
            ((1.5, 2, 2), "seed"),
            ((True, 2, 2), "seed"),
            ((1, 2.0, 2), "n_speakers"),
            ((1, 2, 2.5), "utterances_per_speaker"),
        ],
    )
    def test_sizes_that_are_not_integers_are_invalid_config(self, tmp_path, sizes, name):
        # A float once raised a bare TypeError after the directory was made,
        # and True was taken as seed 1.
        with pytest.raises(InvalidConfig, match=f"^{name} must be an integer, got "):
            synth_corpus(*sizes, tmp_path / "x")
        assert not (tmp_path / "x").exists()

    def test_manifest_round_trip(self, tmp_path):
        manifest = synth_corpus(5, 2, 2, tmp_path)
        loaded = load_manifest(tmp_path / "manifest.csv")
        assert [e.path for e in loaded.entries] == [e.path for e in manifest.entries]


class TestFindCrossover:
    def test_hand_interpolation(self):
        curve = [(0, 1.0), (10, 0.8), (20, 0.3)]
        assert find_crossover(curve) == pytest.approx(16.0)

    def test_never_crossing(self):
        with pytest.raises(NoCrossover):
            find_crossover([(0, 1.0), (10, 0.9), (20, 0.51)])

    def test_starts_below_returns_first_degree(self):
        assert find_crossover([(0, 0.4), (10, 0.2)]) == 0.0

    def test_first_crossing_wins(self):
        curve = [(0, 1.0), (5, 0.4), (10, 0.9), (15, 0.1)]
        assert find_crossover(curve) == pytest.approx(0 + 5 * (1.0 - 0.5) / (1.0 - 0.4))

    def test_rejects_unsorted_degrees(self):
        with pytest.raises(ValueError):
            find_crossover([(0, 1.0), (0, 0.4)])

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            find_crossover([])

    @pytest.mark.parametrize(
        "curve",
        [
            [("a", 1.0)],
            [(0, 1.0, 2)],
            [None],
            [(0, np.nan), (1, 0.3)],
            [(0, 1.0), (np.inf, 0.2)],
            [(np.nan, 1.0), (1, 0.3)],
            [(0, 2.0), (1, 0.3)],
            [(0, 1.0), (1, -0.1)],
        ],
        ids=[
            "text degree", "triple", "not a pair", "nan rate", "infinite degree", "nan degree",
            "rate above 1", "rate below 0",
        ],
    )
    def test_a_curve_that_is_not_degree_rate_pairs_is_invalid_config(self, curve):
        # A text degree raised a bare ValueError, a nan rate gave nan, an infinite degree inf.
        with pytest.raises(InvalidConfig):
            find_crossover(curve)


class TestAggregateMos:
    HEADER = "listener_id,file_id,algorithm,degree,rating"

    def test_hand_mean(self, tmp_path):
        path = tmp_path / "r.csv"
        rows = ["l1,f1,voc,7,4", "l2,f1,voc,7,3", "l3,f2,voc,13,4"]
        path.write_text("\n".join([self.HEADER] + rows) + "\n")
        table = aggregate_mos(path)
        assert table.scores == (("voc", pytest.approx(11 / 3), 3),)
        assert round(table.mean("voc"), 4) == 3.6667

    def test_reference_fixture_means(self, tmp_path):
        # 10 ratings per algorithm summing to 37/33/34/30.
        sums = {"voc": 37, "vocf": 33, "quadratic": 34, "bilinear": 30}
        rows = []
        for algo, total in sums.items():
            base, extra = divmod(total, 10)
            ratings = [base + 1] * extra + [base] * (10 - extra)
            rows += [f"l{i},f{i},{algo},7,{r}" for i, r in enumerate(ratings)]
        path = tmp_path / "r.csv"
        path.write_text("\n".join([self.HEADER] + rows) + "\n")
        table = aggregate_mos(path)
        assert table.mean("voc") == pytest.approx(3.7)
        assert table.mean("vocf") == pytest.approx(3.3)
        assert table.mean("quadratic") == pytest.approx(3.4)
        assert table.mean("bilinear") == pytest.approx(3.0)

    def test_out_of_range_rating_reports_line(self, tmp_path):
        path = tmp_path / "r.csv"
        path.write_text("\n".join([self.HEADER, "l1,f1,voc,7,6"]) + "\n")
        with pytest.raises(ParseError) as err:
            aggregate_mos(path)
        assert err.value.line == 2

    def test_non_integer_rating(self, tmp_path):
        path = tmp_path / "r.csv"
        path.write_text("\n".join([self.HEADER, "l1,f1,voc,7,ok"]) + "\n")
        with pytest.raises(ParseError):
            aggregate_mos(path)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "r.csv"
        path.write_text("")
        with pytest.raises(EmptyInput):
            aggregate_mos(path)

    def test_header_only(self, tmp_path):
        path = tmp_path / "r.csv"
        path.write_text(self.HEADER + "\n")
        with pytest.raises(EmptyInput):
            aggregate_mos(path)

    def test_table_validates_range(self):
        with pytest.raises(InvariantViolation):
            MosTable((("voc", 5.4, 3),))


def tiny_result():
    rows = []
    for algo in ("voc", "bilinear"):
        for gender in ("M", "F"):
            for degree, g_rate, i_rate in [(0, 1.0, 1.0), (10, 0.8, 0.4), (20, 0.2, 0.0)]:
                rows.append(SweepRow(algo, gender, degree, g_rate, i_rate, 5))
    return SweepResult(tuple(sorted(rows, key=lambda r: (r.algorithm, r.gender, r.degree))))


class TestReport:
    def test_csv_shape_and_round_trip(self, tmp_path):
        result = tiny_result()
        emit_report(result, tmp_path)
        text = (tmp_path / "sweep.csv").read_text()
        lines = text.strip().split("\n")
        assert lines[0] == "algorithm,gender,degree,gender_success_rate,identification_rate,n_files"
        assert len(lines) == 1 + len(result.rows)
        assert lines[1].split(",")[3] == "1.000000"
        loaded = load_sweep(tmp_path / "sweep.csv")
        assert loaded == result

    def test_a_repeated_cell_is_parse_error(self, tmp_path):
        # Two rows of one (algorithm, gender, degree) once loaded, and curve
        # pooled them as if they were one cell.
        rows = ["algorithm,gender,degree,gender_success_rate,identification_rate,n_files",
                "voc,M,0,1.0,1.0,3", "voc,M,0,0.0,0.0,3"]
        (tmp_path / "sweep.csv").write_text("\n".join(rows) + "\n")
        with pytest.raises(ParseError, match="voc,M,0") as err:
            load_sweep(tmp_path / "sweep.csv")
        assert err.value.line == 3

    def test_a_result_with_a_repeated_cell_is_invalid_config(self):
        # curve pooled the two rows into 0.5, and emit_report wrote a
        # sweep.csv that load_sweep refuses.
        rows = (SweepRow("voc", "M", 0, 1.0, 1.0, 3), SweepRow("voc", "M", 0, 0.0, 0.0, 3))
        with pytest.raises(InvalidConfig, match="^a second row for voc,M,0$"):
            SweepResult(rows)

    @pytest.mark.parametrize(
        "fields",
        [
            ("voc", "M", True, 1.0, 1.0, 1),
            ("voc", "M", False, 1.0, 1.0, 1),
            ("voc", "M", 0, 1.0, 1.0, True),
            ("voc", "M", 0, True, 1.0, 1),
            ("voc", "M", 0, 1.0, False, 1),
        ],
        ids=["degree True", "degree False", "n_files True", "gender rate True", "id rate False"],
    )
    def test_a_bool_field_is_invalid_config(self, fields):
        # bool is Integral: emit_report wrote voc,M,True,... and load_sweep refused it.
        with pytest.raises(InvalidConfig):
            SweepRow(*fields)

    def test_re_emission_byte_identical(self, tmp_path):
        result = tiny_result()
        emit_report(result, tmp_path / "a")
        emit_report(result, tmp_path / "b")
        assert (tmp_path / "a" / "sweep.csv").read_bytes() == (tmp_path / "b" / "sweep.csv").read_bytes()
        assert (tmp_path / "a" / "sweep_voc.svg").read_bytes() == (tmp_path / "b" / "sweep_voc.svg").read_bytes()

    def test_svg_per_algorithm(self, tmp_path):
        emit_report(tiny_result(), tmp_path)
        assert (tmp_path / "sweep_voc.svg").exists()
        assert (tmp_path / "sweep_bilinear.svg").exists()
        svg = (tmp_path / "sweep_voc.svg").read_text()
        assert svg.startswith("<svg")
        assert "polyline" in svg

    def test_extreme_rates_inside_viewbox(self, tmp_path):
        import re

        emit_report(tiny_result(), tmp_path)
        svg = (tmp_path / "sweep_voc.svg").read_text()
        # all polyline coordinates must stay inside the 640x400 viewbox
        for match in re.finditer(r'points="([^"]+)"', svg):
            for pair in match.group(1).split():
                x, y = map(float, pair.split(","))
                assert 0 <= x <= 640 and 0 <= y <= 400

    def test_empty_result_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            emit_report(SweepResult(()), tmp_path)


class TestCurve:
    def test_pooled_weights_by_file_count(self):
        rows = (
            SweepRow("voc", "F", 0, 1.0, 1.0, 30),
            SweepRow("voc", "M", 0, 0.5, 0.0, 10),
        )
        result = SweepResult(rows)
        assert result.curve("voc", "gender") == [(0, pytest.approx(0.875))]
        assert result.curve("voc", "identification") == [(0, pytest.approx(0.75))]

    def test_gender_filter(self):
        result = tiny_result()
        assert result.curve("voc", "gender", "M") == [(0, 1.0), (10, 0.8), (20, 0.2)]

    def test_unknown_metric(self):
        with pytest.raises(ValueError):
            tiny_result().curve("voc", "accuracy")


@pytest.mark.slow
class TestSmallSweep:
    def test_degree_zero_and_shape(self, tmp_path):
        manifest = synth_corpus(11, 4, 2, tmp_path)
        result = run_degree_sweep(manifest, algorithms=("voc", "bilinear"), degrees=(0, 25))
        assert len(result.rows) == 2 * 2 * 2
        for row in result.rows:
            assert row.n_files == 2
            if row.degree == 0:
                assert row.identification_rate == 1.0

    def test_order_independent(self, tmp_path):
        manifest = synth_corpus(11, 4, 2, tmp_path)
        reversed_manifest = CorpusManifest(tuple(reversed(manifest.entries)))
        a = run_degree_sweep(manifest, algorithms=("vocf",), degrees=(0, 10))
        b = run_degree_sweep(reversed_manifest, algorithms=("vocf",), degrees=(0, 10))
        assert a == b


class TestSweepContract:
    """The sweep analyses each test file once per family and runs every cell here."""

    def test_analysis_once_per_file_and_family_cells_in_process(self, tmp_path, monkeypatch):
        manifest = synth_corpus(11, 2, 2, tmp_path)
        degrees = (0, 7, 25)
        stft_calls = {"phase_vocoder": 0, "vtln": 0}
        events = []

        for name, module in (("phase_vocoder", phase_vocoder), ("vtln", vtln)):
            def counted(buf, _stft=module.stft, _name=name):
                stft_calls[_name] += 1
                return _stft(buf)

            monkeypatch.setattr(module, "stft", counted)

        original_apply = DegreeSchedule.apply

        def apply(self, *args, **kwargs):
            events.append(("apply", os.getpid()))
            return original_apply(self, *args, **kwargs)

        original_identify = experiment.identify_speaker

        def identify(*args, **kwargs):
            events.append(("identify", os.getpid()))
            return original_identify(*args, **kwargs)

        monkeypatch.setattr(DegreeSchedule, "apply", apply)
        monkeypatch.setattr(experiment, "identify_speaker", identify)

        result = run_degree_sweep(manifest, degrees=degrees)
        n_files = len(manifest.test_entries())
        n_cells = n_files * len(ALGORITHMS) * len(degrees)
        assert sum(row.n_files for row in result.rows) == n_cells
        assert stft_calls == {"phase_vocoder": n_files, "vtln": n_files}
        assert events == [("apply", os.getpid()), ("identify", os.getpid())] * n_cells

    def test_unreadable_files_are_left_out_of_their_cells(self, tmp_path, caplog):
        manifest = synth_corpus(11, 6, 2, tmp_path)
        males = [e for e in manifest.test_entries() if e.gender == "M"]
        males[0].path.write_bytes(b"RIFF\x10\x00\x00\x00WAVEjunk")
        males[1].path.unlink()
        with caplog.at_level(logging.WARNING, logger="voicemask.experiment"):
            result = run_degree_sweep(manifest, algorithms=("voc", "quadratic"), degrees=(0, 10))
        assert len(result.rows) == 2 * 2 * 2
        for row in result.rows:
            assert row.n_files == (1 if row.gender == "M" else 3)
        skipped = [r.getMessage() for r in caplog.records]
        assert len(skipped) == 2
        assert str(males[0].path) in skipped[0] and str(males[1].path) in skipped[1]

    @staticmethod
    def sweep_without_a_file(manifest, buf, monkeypatch, caplog):
        """Sweep with a male test file replaced by buf, which no cell counts; returns its entry."""
        bad = [e for e in manifest.test_entries() if e.gender == "M"][0]
        write_wav(bad.path, buf)
        transformed = []
        original_apply = DegreeSchedule.apply

        def apply(self, analysis, *args, **kwargs):
            transformed.append(analysis.n_samples)
            return original_apply(self, analysis, *args, **kwargs)

        monkeypatch.setattr(DegreeSchedule, "apply", apply)
        with caplog.at_level(logging.WARNING, logger="voicemask.experiment"):
            result = run_degree_sweep(manifest, algorithms=("voc", "quadratic"), degrees=(0, 10))
        assert len(result.rows) == 2 * 2 * 2
        for row in result.rows:
            assert row.n_files == (2 if row.gender == "M" else 3)
        # Every other test file is transformed once per cell, the bad one never.
        assert len(transformed) == 5 * 2 * 2 and len(buf) not in transformed
        return bad

    @pytest.mark.parametrize("rate", [20, 50])
    def test_a_file_too_low_in_rate_to_frame_is_left_out_of_every_cell(
        self, tmp_path, monkeypatch, caplog, rate
    ):
        manifest = synth_corpus(11, 6, 2, tmp_path)
        buf = AudioBuffer(np.sin(np.arange(3 * rate)), rate)
        low = self.sweep_without_a_file(manifest, buf, monkeypatch, caplog)
        frames = {20: 0, 50: 1}[rate]  # 25 ms frames and 10 ms hops, rounded half to even
        assert [r.getMessage() for r in caplog.records] == [
            f"skipping {low.path}: {rate} Hz gives {frames}-sample frames and 0-sample hops"
        ]

    def test_a_file_shorter_than_a_feature_frame_is_left_out_of_every_cell(
        self, tmp_path, monkeypatch, caplog
    ):
        # A 25 ms feature frame is 400 samples at 16 kHz.
        manifest = synth_corpus(11, 6, 2, tmp_path)
        buf = AudioBuffer(np.sin(np.arange(399) / 10.0), SR)
        short = self.sweep_without_a_file(manifest, buf, monkeypatch, caplog)
        assert [r.getMessage() for r in caplog.records] == [
            f"skipping {short.path}: need at least 400 samples, got 399"
        ]

    def test_a_file_too_short_for_a_probe_model_is_left_out_of_every_cell(
        self, tmp_path, monkeypatch, caplog
    ):
        # 2,000 samples at 16 kHz are 11 feature frames; a 12-coefficient
        # probe model needs 13. Each cell was transformed, then refused.
        manifest = synth_corpus(11, 6, 2, tmp_path)
        buf = AudioBuffer(np.sin(np.arange(2000) / 10.0), SR)
        short = self.sweep_without_a_file(manifest, buf, monkeypatch, caplog)
        assert [r.getMessage() for r in caplog.records] == [
            f"skipping {short.path}: need at least 13 frames, got 11"
        ]

    def test_a_manifest_path_with_a_nul_byte_is_skipped_with_its_reason(self, tmp_path, caplog):
        synth_corpus(11, 6, 2, tmp_path)
        manifest_csv = tmp_path / "manifest.csv"
        text = manifest_csv.read_text()
        victim = next(line for line in text.splitlines() if line.endswith(",F,test"))
        manifest_csv.write_text(text.replace(victim, "a\0b.wav" + victim[victim.index(","):]))
        manifest = load_manifest(manifest_csv)
        with caplog.at_level(logging.WARNING, logger="voicemask.experiment"):
            result = run_degree_sweep(manifest, algorithms=("voc", "quadratic"), degrees=(0, 10))
        for row in result.rows:
            assert row.n_files == (2 if row.gender == "F" else 3)
        nul_path = tmp_path / "a\0b.wav"
        assert [r.getMessage() for r in caplog.records] == [
            f"skipping {nul_path}: cannot read {nul_path}: embedded null byte"
        ]

    def test_a_bad_train_file_leaves_out_only_its_speaker(self, tmp_path, caplog):
        manifest = synth_corpus(11, 6, 2, tmp_path)
        bad = manifest.train_entries()[0]
        bad.path.write_bytes(b"\x00" * 8)
        orphans = [e.path for e in manifest.test_entries() if e.speaker_id == bad.speaker_id]
        with caplog.at_level(logging.WARNING, logger="voicemask.experiment"):
            result = run_degree_sweep(manifest, algorithms=("voc", "quadratic"), degrees=(0, 10))
        assert len(result.rows) == 2 * 2 * 2
        for row in result.rows:
            assert row.n_files == (3 - len(orphans) if row.gender == bad.gender else 3)
        skipped = [r.getMessage() for r in caplog.records]
        assert len(skipped) == 1 + len(orphans)
        assert skipped[0].startswith(f"skipping {bad.path}: ")
        for message, path in zip(skipped[1:], orphans):
            assert message == f"skipping {path}: speaker {bad.speaker_id} is not enrolled"


@pytest.fixture(scope="module")
def enrolled_corpus(tmp_path_factory):
    """A 4-speaker corpus and what enroll returns for it."""
    manifest = synth_corpus(11, 4, 2, tmp_path_factory.mktemp("unit_corpus"))
    return manifest, experiment.enroll(manifest)


class TestSweepFile:
    """The per-file unit: one test file's integer hits per cell and its skip texts."""

    SCHEDULES = (DegreeSchedule("voc"), DegreeSchedule("quadratic"))
    DEGREES = (0, 10)

    def sweep_file(self, entry, models):
        return experiment._sweep_file(entry, self.SCHEDULES, self.DEGREES, models)

    def test_a_good_file_counts_every_cell_once(self, enrolled_corpus, caplog):
        manifest, models = enrolled_corpus
        entry = manifest.test_entries()[0]
        with caplog.at_level(logging.DEBUG):
            hits, skips = self.sweep_file(entry, models)
        assert caplog.records == []
        assert skips == []
        assert list(hits) == [
            (algo, entry.gender, degree) for algo in ("voc", "quadratic") for degree in self.DEGREES
        ]
        for cell in hits.values():
            assert [type(count) for count in cell] == [int, int, int]
            assert cell[0] in (0, 1) and cell[1] in (0, 1) and cell[2] == 1
        assert hits["voc", entry.gender, 0] == (1, 1, 1)

    def test_an_unreadable_file_has_no_cell_and_one_skip(self, enrolled_corpus, tmp_path, caplog):
        manifest, models = enrolled_corpus
        entry = manifest.test_entries()[1]
        junk = tmp_path / "junk.wav"
        junk.write_bytes(b"RIFF\x10\x00\x00\x00WAVEjunk")
        with caplog.at_level(logging.DEBUG):
            hits, skips = self.sweep_file(ManifestEntry(junk, entry.speaker_id, "F", "test"), models)
        assert caplog.records == []
        assert hits == {}
        assert len(skips) == 1 and skips[0].startswith(f"skipping {junk}: ")

    def test_a_file_with_just_enough_frames_for_a_probe_is_swept(self, enrolled_corpus, tmp_path):
        # 2,320 samples at 16 kHz are 13 feature frames, one per cepstrum and one more.
        manifest, models = enrolled_corpus
        entry = manifest.test_entries()[0]
        path = tmp_path / "short.wav"
        write_wav(path, AudioBuffer(np.random.default_rng(3).standard_normal(2320) * 0.1, SR))
        hits, skips = self.sweep_file(ManifestEntry(path, entry.speaker_id, "M", "test"), models)
        assert skips == []
        assert len(hits) == len(self.SCHEDULES) * len(self.DEGREES)

    def test_an_unenrolled_speaker_is_skipped_before_reading(self, enrolled_corpus, caplog):
        _, models = enrolled_corpus
        absent = Path("no/such/file.wav")
        with caplog.at_level(logging.DEBUG):
            hits, skips = self.sweep_file(ManifestEntry(absent, "spk99", "M", "test"), models)
        assert caplog.records == []
        assert (hits, skips) == ({}, [f"skipping {absent}: speaker spk99 is not enrolled"])

    def test_failing_cells_are_skipped_in_cell_order(self, enrolled_corpus, monkeypatch, caplog):
        manifest, models = enrolled_corpus
        entry = manifest.test_entries()[2]
        calls = []
        original = experiment.covariance_model

        def fails_at_degree_10(*args, **kwargs):
            calls.append(None)
            if len(calls) % 2 == 0:  # cells run voc 0, voc 10, quadratic 0, quadratic 10
                raise NotPositiveDefinite("boom")
            return original(*args, **kwargs)

        monkeypatch.setattr(experiment, "covariance_model", fails_at_degree_10)
        with caplog.at_level(logging.DEBUG):
            hits, skips = self.sweep_file(entry, models)
        assert caplog.records == []
        assert list(hits) == [("voc", entry.gender, 0), ("quadratic", entry.gender, 0)]
        assert skips == [
            f"skipping {entry.path} / voc / degree 10: boom",
            f"skipping {entry.path} / quadratic / degree 10: boom",
        ]

    def test_summed_over_the_test_files_it_gives_the_sweep(self, tmp_path, caplog):
        manifest = synth_corpus(11, 4, 2, tmp_path)
        manifest.test_entries()[1].path.write_bytes(b"\x00" * 8)
        with caplog.at_level(logging.WARNING, logger="voicemask.experiment"):
            result = run_degree_sweep(manifest, ("voc", "quadratic"), self.DEGREES)
        counts, skips = {}, []
        models = experiment.enroll(manifest)
        for entry in manifest.test_entries():
            hits, file_skips = self.sweep_file(entry, models)
            skips += file_skips
            for key, cell in hits.items():
                counts[key] = [a + b for a, b in zip(counts.get(key, (0, 0, 0)), cell)]
        assert result.rows == tuple(
            SweepRow(*key, g / n, i / n, n) for key, (g, i, n) in sorted(counts.items())
        )
        assert [r.getMessage() for r in caplog.records] == skips
        assert len(skips) == 1


class TestErrorContract:
    """Bad arguments raise InvalidConfig, a toolkit error that is also a ValueError."""

    @pytest.mark.parametrize(
        "call",
        [
            lambda: DegreeSchedule("mcadams"),
            lambda: DegreeSchedule("voc").parameter(-1),
            lambda: DegreeSchedule("quadratic").parameter(3, "U"),
            lambda: tiny_result().curve("voc", "accuracy"),
            lambda: run_degree_sweep(CorpusManifest(()), algorithms=("mcadams",)),
            lambda: find_crossover([]),
            lambda: find_crossover([(5, 1.0), (0, 0.4)]),
        ],
    )
    def test_bad_arguments_are_invalid_config(self, call):
        with pytest.raises(InvalidConfig):
            call()

    def test_empty_report_is_invalid_config(self, tmp_path):
        with pytest.raises(InvalidConfig):
            emit_report(SweepResult(()), tmp_path)

    @pytest.fixture()
    def unread_manifest(self, tmp_path):
        """A manifest of WAVs that do not exist: enrolling it would log each as skipped."""
        write_manifest(
            tmp_path / "m.csv",
            ["a.wav,s0,M,train", "b.wav,s0,M,test", "c.wav,s1,F,train", "d.wav,s1,F,test"],
        )
        return load_manifest(tmp_path / "m.csv")

    def test_sweep_refuses_an_unknown_algorithm_before_reading_audio(self, unread_manifest,
                                                                     caplog):
        with caplog.at_level(logging.WARNING, logger="voicemask.experiment"):
            with pytest.raises(InvalidConfig, match="'mcadams'"):
                run_degree_sweep(unread_manifest, algorithms=("mcadams",))
        assert caplog.records == []

    @pytest.mark.parametrize(
        "algorithms,degrees,match",
        [
            ((), (0,), "names no algorithm"),
            (("voc",), (), "one or more distinct degrees"),
            # Repeated, an algorithm or degree would count every file twice in its cells.
            (("voc", "voc"), (0, 1), "names 'voc' twice"),
            (("voc",), (1, 1), r"distinct degrees, got \(1, 1\)"),
            # Not a collection of names: each raised a bare TypeError, and a
            # string was swept character by character, refused as 'v'.
            (5, (0,), "collection of names, got 5$"),
            ("voc", (0,), "collection of names, got 'voc'$"),
            (("voc", ["x"]), (0,), r"unknown algorithm \['x'\]"),
            # A degree that is not an integer: 2.7 was swept as degree 2, and
            # True as degree 1, which DegreeSchedule.parameter refuses.
            (("voc",), ("x",), r"degree must be an integer in 0\.\.25, got 'x'$"),
            (("voc",), (2.7,), r"degree must be an integer in 0\.\.25, got 2\.7$"),
            (("voc",), (True, 2), r"degree must be an integer in 0\.\.25, got True$"),
            (("voc",), 5, "degrees must be a collection of degrees, got 5$"),
        ],
    )
    def test_sweep_refuses_bad_algorithms_or_degrees_before_reading_audio(
        self, unread_manifest, caplog, algorithms, degrees, match
    ):
        with caplog.at_level(logging.WARNING, logger="voicemask.experiment"):
            with pytest.raises(InvalidConfig, match=match):
                run_degree_sweep(unread_manifest, algorithms=algorithms, degrees=degrees)
        assert caplog.records == []

    def test_sweep_takes_a_numpy_integer_degree(self, tmp_path):
        manifest = synth_corpus(11, 2, 2, tmp_path)
        result = run_degree_sweep(manifest, algorithms=("voc",), degrees=(np.int64(3),))
        assert [(row.degree, type(row.degree)) for row in result.rows] == [(3, int), (3, int)]

    @pytest.mark.parametrize("degree", [-1, 26])
    def test_sweep_checks_degrees_before_any_cell(self, tmp_path, caplog, degree):
        # Checked up front: a bad degree raised inside a cell would be caught
        # as a toolkit error and skipped, leaving a sweep without its cells.
        manifest = synth_corpus(11, 2, 2, tmp_path)
        with caplog.at_level(logging.WARNING, logger="voicemask.experiment"):
            with pytest.raises(InvalidConfig, match=f"got {degree}$"):
                run_degree_sweep(manifest, algorithms=("voc",), degrees=(0, degree))
        assert caplog.records == []


class TestEnroll:
    def test_speakers_sorted_whatever_the_manifest_order(self, tmp_path):
        manifest = synth_corpus(11, 4, 2, tmp_path)
        speakers, male, female = experiment.enroll(
            CorpusManifest(tuple(reversed(manifest.entries)))
        )
        assert [m.label for m in speakers] == ["spk00", "spk01", "spk02", "spk03"]
        assert [m.gender for m in speakers] == ["M", "F", "M", "F"]
        assert (male.label, female.label) == ("M", "F")

    def test_a_speaker_too_short_to_model_is_not_enrolled(self, tmp_path, caplog):
        manifest = synth_corpus(11, 4, 2, tmp_path)
        short = manifest.train_entries()[1]
        write_wav(short.path, make_vowel(seconds=0.05))  # 50 ms: 3 cepstral frames, 13 needed
        with caplog.at_level(logging.WARNING, logger="voicemask.experiment"):
            speakers, _, _ = experiment.enroll(manifest)
        assert [m.label for m in speakers] == ["spk00", "spk02", "spk03"]
        assert [r.getMessage().split(":")[0] for r in caplog.records] == [
            f"not enrolling {short.speaker_id}"
        ]
