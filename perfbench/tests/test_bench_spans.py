import numpy as np
import pytest

import voicemask.experiment as experiment
import voicemask.phase_vocoder as phase_vocoder
import voicemask.signal_core as signal_core
from vmbench.spans import (
    CELL_END,
    CELL_START,
    Recorder,
    Tracer,
    cell_intervals,
    layer_totals,
    self_times,
    unattributed,
)


class FakeClock:
    def __init__(self, times):
        self.times = iter(times)

    def __call__(self):
        return next(self.times)


def run_nested(recorder):
    """root(0..10) -> a(1..4) -> b(2..3); root -> c(5..9)."""
    b = recorder.wrap("b", lambda: None)
    a = recorder.wrap("a", lambda: b())
    c = recorder.wrap("c", lambda: None)

    def body():
        a()
        c()

    recorder.wrap("root", body)()


class TestSelfTime:
    def test_nested_spans(self):
        recorder = Recorder(clock=FakeClock([0, 1, 2, 3, 4, 5, 9, 10]))
        run_nested(recorder)
        names = [s[0] for s in recorder.spans]
        assert names == ["root", "a", "b", "c"]
        assert [s[3] for s in recorder.spans] == [-1, 0, 1, 0]
        own = dict(zip(names, self_times(recorder.spans)))
        assert own == {"root": 10 - 3 - 4, "a": 3 - 1, "b": 1, "c": 4}
        assert unattributed(recorder.spans) == 3

    def test_self_times_sum_to_root_duration(self):
        recorder = Recorder(clock=FakeClock([0, 1, 2, 3, 4, 5, 9, 10]))
        run_nested(recorder)
        assert sum(self_times(recorder.spans)) == 10

    def test_overlapping_children_are_counted_once(self):
        spans = [
            ["root", 0.0, 10.0, -1, None],
            ["x", 1.0, 6.0, 0, None],
            ["y", 4.0, 8.0, 0, None],
            ["z", 9.0, 12.0, 0, None],  # clipped to the parent's end
        ]
        assert self_times(spans)[0] == pytest.approx(10.0 - 7.0 - 1.0)

    def test_span_closes_when_the_call_raises(self):
        recorder = Recorder(clock=FakeClock([0, 2]))

        def boom():
            raise ValueError("x")

        with pytest.raises(ValueError):
            recorder.wrap("boom", boom)()
        assert recorder.spans == [["boom", 0, 2, -1, None]]


class TestTracer:
    def test_wraps_where_callers_bind_and_restores(self):
        original_stft = signal_core.stft
        original_advance = phase_vocoder.PhasePropagator.advance
        recorder = Recorder()
        buf = signal_core.AudioBuffer(np.sin(np.arange(4096) * 0.3), 16000)
        spec = phase_vocoder.PitchShiftSpec(ratio=1.2)
        with Tracer(recorder):
            assert phase_vocoder.stft is not original_stft
            recorder.request = 7
            phase_vocoder.pitch_shift(buf, spec)
        assert signal_core.stft is original_stft
        assert phase_vocoder.stft is original_stft
        assert phase_vocoder.PhasePropagator.advance is original_advance

        totals = layer_totals(recorder.spans)
        n_frames = (4096 - 1024) // 256 + 1
        assert totals["phase_vocoder.pitch_shift"][0] == 1
        assert totals["signal_core.stft"][0] == 1
        assert totals["signal_core.istft"][0] == 1
        assert totals["phase_vocoder.PhasePropagator.advance"][0] == n_frames
        assert totals["speaker_id.extract_cepstra"] == (0, 0.0)
        root = recorder.spans[0]
        assert root[0] == "phase_vocoder.pitch_shift" and root[3] == -1
        assert all(span[3] == 0 and span[4] == 7 for span in recorder.spans[1:])

    def test_traced_output_equals_untraced(self):
        buf = signal_core.AudioBuffer(np.sin(np.arange(4096) * 0.3), 16000)
        spec = phase_vocoder.PitchShiftSpec(ratio=0.8, variant="loose")
        plain = phase_vocoder.pitch_shift(buf, spec).samples
        with Tracer(Recorder()):
            traced = phase_vocoder.pitch_shift(buf, spec).samples
        assert np.array_equal(plain, traced)

    def test_only_wraps_the_named_functions(self):
        original_stft = signal_core.stft
        original_apply = experiment.DegreeSchedule.apply
        with Tracer(Recorder(), only=(CELL_START, CELL_END)):
            assert phase_vocoder.stft is original_stft
            assert experiment.DegreeSchedule.apply is not original_apply
        assert experiment.DegreeSchedule.apply is original_apply
        with pytest.raises(LookupError):
            Tracer(Recorder(), only=("signal_core.nope",))


def test_cell_latency_runs_from_transform_entry_to_identification_exit():
    spans = [
        ["experiment.run_degree_sweep", 0.0, 20.0, -1, None],
        [CELL_START, 1.0, 4.0, 0, None],
        ["speaker_id.extract_cepstra", 4.0, 5.0, 0, None],
        [CELL_END, 5.0, 6.5, 0, None],
        [CELL_START, 7.0, 9.0, 0, None],  # a skipped cell: no identification follows
        [CELL_START, 10.0, 11.0, 0, None],
        [CELL_END, 11.0, 12.0, 0, None],
    ]
    assert [end - start for start, end in cell_intervals(spans)] == [5.5, 2.0]
