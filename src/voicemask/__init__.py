"""Voice de-identification toolkit.

Pitch-shifting and spectral-warping voice transforms, covariance-based
speaker and gender recognition, and an experiment harness that sweeps
modification degrees and reports recognition curves.

Every public name and submodule loads on first access (PEP 562), so
``import voicemask`` imports neither numpy nor scipy. Each access reads the
name from its home module, so a name rebound there is seen here too.
"""

import importlib

# Public names by home module: the module that defines each one.
_EXPORTS = {
    "corpus": (
        "ALGORITHMS", "CorpusManifest", "DegreeSchedule", "ManifestEntry", "load_manifest",
        "synth_corpus",
    ),
    "errors": ("VoicemaskError",),
    "experiment": (
        "MosTable", "SweepResult", "SweepRow", "aggregate_mos", "emit_report", "enroll",
        "find_crossover", "load_sweep", "run_degree_sweep",
    ),
    "phase_vocoder": (
        "PhasePropagator", "PitchAnalysis", "PitchShiftSpec", "analyse_pitch", "pitch_shift",
        "shift_analysed",
    ),
    "signal_core": (
        "AudioBuffer", "istft", "read_wav", "stft", "write_wav",
    ),
    "speaker_id": (
        "SpeakerModel", "classify_gender", "covariance_model", "extract_cepstra",
        "identify_speaker", "load_models", "save_models", "sphericity_distance",
        "train_gender_models",
    ),
    "vtln": (
        "FAMILIES", "WarpAnalysis", "WarpSpec", "analyse_warp", "invert_warp", "vtln_transform",
        "warp_analysed", "warp_value",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
_SUBMODULES = (*_EXPORTS, "cli")


def __getattr__(name):
    # Nothing is cached in this namespace: a cached value would outlive a
    # rebinding of the name in its home module.
    if name in _HOME:
        return getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
    if name in _SUBMODULES:
        return importlib.import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__version__ = "0.1.0"

__all__ = sorted(_HOME)
