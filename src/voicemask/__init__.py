"""Voice de-identification toolkit.

Pitch-shifting and spectral-warping voice transforms, covariance-based
speaker and gender recognition, and an experiment harness that sweeps
modification degrees and reports recognition curves.
"""

import importlib

from .corpus import (
    ALGORITHMS,
    CorpusManifest,
    DegreeSchedule,
    ManifestEntry,
    load_manifest,
    synth_corpus,
)
from .errors import VoicemaskError
from .phase_vocoder import (
    PhasePropagator,
    PitchAnalysis,
    PitchShiftSpec,
    analyse_pitch,
    detect_peaks,
    pitch_shift,
    regions_of_influence,
    shift_analysed,
    shift_coefficients,
)
from .signal_core import (
    AudioBuffer,
    Spectrogram,
    StftConfig,
    istft,
    read_wav,
    resynthesize,
    stft,
    write_wav,
)
from .vtln import (
    FAMILIES,
    WarpAnalysis,
    WarpSpec,
    analyse_warp,
    invert_warp,
    vtln_transform,
    warp_analysed,
    warp_value,
)

# Names of the modules that import scipy, loaded on first access (PEP 562) so
# that importing the package, or a transform-only command, does not load scipy.
_LAZY = {
    **dict.fromkeys(
        ("MosTable", "SweepResult", "SweepRow", "aggregate_mos", "emit_report", "enroll",
         "find_crossover", "load_sweep", "run_degree_sweep"),
        "experiment",
    ),
    **dict.fromkeys(
        ("FeatureConfig", "SpeakerModel", "classify_gender", "covariance_model",
         "extract_cepstra", "identify_speaker", "load_models", "save_models",
         "sphericity_distance", "train_gender_models"),
        "speaker_id",
    ),
}


def __getattr__(name):
    if name in ("experiment", "speaker_id"):
        value = importlib.import_module(f".{name}", __name__)
    elif name in _LAZY:
        value = getattr(importlib.import_module(f".{_LAZY[name]}", __name__), name)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


__version__ = "0.1.0"

__all__ = [
    "ALGORITHMS",
    "AudioBuffer",
    "CorpusManifest",
    "DegreeSchedule",
    "FAMILIES",
    "FeatureConfig",
    "ManifestEntry",
    "MosTable",
    "PhasePropagator",
    "PitchAnalysis",
    "PitchShiftSpec",
    "SpeakerModel",
    "Spectrogram",
    "StftConfig",
    "SweepResult",
    "SweepRow",
    "VoicemaskError",
    "WarpAnalysis",
    "WarpSpec",
    "aggregate_mos",
    "analyse_pitch",
    "analyse_warp",
    "classify_gender",
    "covariance_model",
    "detect_peaks",
    "emit_report",
    "enroll",
    "extract_cepstra",
    "find_crossover",
    "identify_speaker",
    "invert_warp",
    "istft",
    "load_manifest",
    "load_models",
    "load_sweep",
    "pitch_shift",
    "read_wav",
    "regions_of_influence",
    "resynthesize",
    "run_degree_sweep",
    "save_models",
    "shift_analysed",
    "shift_coefficients",
    "sphericity_distance",
    "stft",
    "synth_corpus",
    "train_gender_models",
    "vtln_transform",
    "warp_analysed",
    "warp_value",
    "write_wav",
]
