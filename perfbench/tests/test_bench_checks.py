import numpy as np
import pytest

from voicemask import AudioBuffer, SweepResult, SweepRow, emit_report, load_sweep, write_wav
from vmbench.checks import check_genders, check_sweep, check_transform_output, top_label

ALGOS = ("voc", "vocf")
DEGREES = tuple(range(26))
GENDERS = ["M", "M", "F", "F"]


def full_rows():
    return [
        SweepRow(algo, gender, degree, 1.0, 1.0 if degree == 0 else 0.5, 2)
        for algo in ALGOS
        for gender in ("F", "M")
        for degree in DEGREES
    ]


@pytest.fixture()
def sweep_csv(tmp_path):
    emit_report(SweepResult(tuple(full_rows())), tmp_path)
    return tmp_path / "sweep.csv"


class TestCheckSweep:
    def test_complete_sweep_passes(self, sweep_csv):
        failed, problems = check_sweep(load_sweep(sweep_csv).rows, ALGOS, DEGREES, GENDERS)
        assert (failed, problems) == (0, [])

    def test_missing_cell_is_rejected(self, sweep_csv):
        lines = sweep_csv.read_text().splitlines(keepends=True)
        dropped = [line for line in lines if not line.startswith("vocf,M,13,")]
        assert len(dropped) == len(lines) - 1
        sweep_csv.write_text("".join(dropped))
        failed, problems = check_sweep(load_sweep(sweep_csv).rows, ALGOS, DEGREES, GENDERS)
        assert failed == 2
        assert problems == ["vocf/M/13: row missing"]

    def test_skipped_file_in_a_cell_is_a_failed_op(self):
        rows = full_rows()
        rows[5] = SweepRow("voc", "F", 5, 1.0, 0.5, 1)
        failed, problems = check_sweep(rows, ALGOS, DEGREES, GENDERS)
        assert failed == 1 and "n_files 1 != 2" in problems[0]

    def test_degree_zero_must_identify_every_file(self):
        rows = full_rows()
        rows[0] = SweepRow("voc", "F", 0, 1.0, 0.5, 2)
        failed, problems = check_sweep(rows, ALGOS, DEGREES, GENDERS)
        assert failed == 1 and "identification" in problems[0]

    def test_unreadable_sweep_fails_every_op(self):
        failed, _ = check_sweep(None, ALGOS, DEGREES, GENDERS)
        assert failed == len(GENDERS) * len(ALGOS) * len(DEGREES)


class TestTransformOutput:
    def test_same_length_and_rate_passes(self, tmp_path):
        samples = 0.1 * np.sin(np.arange(4000) * 0.1)
        write_wav(tmp_path / "in.wav", AudioBuffer(samples, 16000))
        write_wav(tmp_path / "out.wav", AudioBuffer(-samples, 16000))
        assert check_transform_output(tmp_path / "in.wav", tmp_path / "out.wav") is None

    def test_wrong_length_rate_or_missing_file_fails(self, tmp_path):
        samples = np.zeros(4000)
        write_wav(tmp_path / "in.wav", AudioBuffer(samples, 16000))
        write_wav(tmp_path / "short.wav", AudioBuffer(samples[:-1], 16000))
        write_wav(tmp_path / "rate.wav", AudioBuffer(samples, 8000))
        for name in ("short.wav", "rate.wav", "missing.wav"):
            assert check_transform_output(tmp_path / "in.wav", tmp_path / name) is not None


def test_top_label():
    assert top_label("spk03 0.5\nspk01 2.0\n") == "spk03"
    assert top_label("F 0.120000\n") == "F"
    assert top_label("") is None


class TestGenders:
    def answers(self, wrong: int, total: int = 40):
        return [(f"request {i}", "F" if i < wrong else "M", "M") for i in range(total)]

    def test_misgendered_answers_within_the_floor_pass(self):
        failed, problems, accuracy = check_genders(self.answers(2), floor=0.95)
        assert (failed, problems, accuracy) == (0, [], 0.95)

    def test_below_the_floor_every_wrong_answer_fails(self):
        failed, problems, accuracy = check_genders(self.answers(3), floor=0.95)
        assert failed == 3 and len(problems) == 3 and accuracy == pytest.approx(0.925)

    def test_an_answer_that_is_not_a_gender_always_fails(self):
        answers = self.answers(0)
        answers[0] = ("request 0", None, "M")
        failed, problems, _ = check_genders(answers, floor=0.95)
        assert failed == 1 and "not M or F" in problems[0]
