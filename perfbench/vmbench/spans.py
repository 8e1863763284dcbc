"""In-memory spans around the public functions of each voicemask layer.

The traced run rebinds each spanned function wherever a voicemask module
holds it (``voicemask.phase_vocoder.stft``, ``voicemask.speaker_id.
sphericity_distance``, ...) and each spanned method on its class, so calls
across a module boundary and calls inside the defining module are both seen.
Nothing under ``src/`` changes; ``Tracer.restore`` puts the originals back.

Only calls made in this process are seen: a worker process started by the
program runs unwrapped code, so its time shows as self time of the span
that waited for it.
"""

from __future__ import annotations

import functools
import importlib
import json
import time

# Layer -> spanned public names. "Class.method" entries are patched on the class.
LAYERS = {
    "cli": ("main",),
    "experiment": (
        "run_degree_sweep",
        "DegreeSchedule.apply",
        "load_manifest",
        "emit_report",
        "synth_corpus",
    ),
    "phase_vocoder": ("pitch_shift", "PhasePropagator.advance"),
    "vtln": ("vtln_transform", "invert_warp"),
    "signal_core": ("read_wav", "write_wav", "stft", "istft"),
    "speaker_id": (
        "extract_cepstra",
        "covariance_model",
        "sphericity_distance",
        "identify_speaker",
        "classify_gender",
        "load_models",
        "save_models",
    ),
}

SPAN_NAMES = tuple(f"{layer}.{name}" for layer, names in LAYERS.items() for name in names)


class Recorder:
    """Spans as [name, start, end, parent index, request id]; parent -1 is a root."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[list] = []
        self.request = None
        self._open: list[int] = []

    def wrap(self, name: str, fn):
        spans, opened, clock = self.spans, self._open, self.clock

        @functools.wraps(fn)
        def spanned(*args, **kwargs):
            index = len(spans)
            spans.append([name, clock(), None, opened[-1] if opened else -1, self.request])
            opened.append(index)
            try:
                return fn(*args, **kwargs)
            finally:
                opened.pop()
                spans[index][2] = clock()

        return spanned

    def write_jsonl(self, path) -> None:
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


class Tracer:
    """Rebinds spanned names (all of SPAN_NAMES by default) to Recorder wrappers until restore()."""

    def __init__(self, recorder: Recorder, only=SPAN_NAMES):
        self.recorder = recorder
        self._undo: list[tuple[object, str, object]] = []
        modules = [importlib.import_module("voicemask")]
        modules += [importlib.import_module(f"voicemask.{layer}") for layer in LAYERS]
        unknown = set(only) - set(SPAN_NAMES)
        if unknown:
            raise LookupError(f"not spanned names: {sorted(unknown)}")
        try:
            for layer, names in LAYERS.items():
                home = importlib.import_module(f"voicemask.{layer}")
                for name in names:
                    if f"{layer}.{name}" in only:
                        self._patch(home, modules, name, f"{layer}.{name}")
        except BaseException:
            self.restore()
            raise

    def _set(self, owner, attr, value) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def _patch(self, home, modules, name: str, span_name: str) -> None:
        if "." in name:
            cls_name, method = name.split(".")
            cls = getattr(home, cls_name)
            self._set(cls, method, self.recorder.wrap(span_name, cls.__dict__[method]))
            return
        original = getattr(home, name)
        wrapper = self.recorder.wrap(span_name, original)
        bound = 0
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._set(module, attr, wrapper)
                    bound += 1
        if not bound:
            raise LookupError(f"{span_name} is bound nowhere")

    def restore(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.restore()
        return False


def _covered(intervals, lo: float, hi: float) -> float:
    """Length of the union of intervals clipped to [lo, hi]."""
    total = 0.0
    reach = lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of it covered by its child spans."""
    children: dict[int, list[tuple[float, float]]] = {}
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    return [
        (end - start) - _covered(children.get(i, ()), start, end)
        for i, (_, start, end, _, _) in enumerate(spans)
    ]


def layer_totals(spans) -> dict[str, tuple[int, float]]:
    """(calls, self seconds) for every spanned name, zero for names never called."""
    totals = {name: [0, 0.0] for name in SPAN_NAMES}
    for span, own in zip(spans, self_times(spans)):
        entry = totals.setdefault(span[0], [0, 0.0])
        entry[0] += 1
        entry[1] += own
    return {name: (calls, own) for name, (calls, own) in totals.items()}


CELL_START = "experiment.DegreeSchedule.apply"
CELL_END = "speaker_id.identify_speaker"


def cell_intervals(spans) -> list[tuple[float, float]]:
    """(start, end) of each sweep cell, from its transform entry to its identification exit.

    A cell of ``run_degree_sweep`` starts with ``DegreeSchedule.apply`` and
    ends with ``identify_speaker``; spans of other names are ignored.
    """
    latencies, start = [], None
    for name, begin, end, _, _ in spans:
        if name == CELL_START:
            start = begin
        elif name == CELL_END and start is not None:
            latencies.append((start, end))
            start = None
    return latencies


def unattributed(spans) -> float:
    """Root-span time not covered by any child span."""
    return sum(own for span, own in zip(spans, self_times(spans)) if span[3] < 0)
