"""Seeded workload inputs: corpus sizes and request lists.

Everything a run feeds the program comes from here and depends only on the
seeds, so one seed gives the same corpus and the same requests on every
commit. The corpus itself is synthesised by the program (``voicemask synth``)
from the corpus seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

WORKLOADS = ("sweep-pitch", "sweep-warp", "deidentify", "recognize")

SWEEP_ALGOS = {"sweep-pitch": ("voc", "vocf"), "sweep-warp": ("quadratic", "bilinear")}
SWEEP_DEGREES = tuple(range(26))

# (speakers, utterances per speaker). Utterance 0 of each speaker is enrolled,
# the rest are test files.
CORPUS = {
    # 4 test files (2 M, 2 F): enough for a 2-worker file pool to split.
    "sweep-pitch": (4, 2),
    "sweep-warp": (4, 2),
    # 16 test files, so one round's requests each use a different file.
    "deidentify": (8, 3),
    # 40 enrolled speakers, twice the acceptance corpus.
    "recognize": (40, 2),
}

PITCH_ALGOS = ("voc", "vocf")
WARP_ALGOS = ("quadratic", "bilinear")
PITCH_VARIANTS = ("identity-locked", "loose")


@dataclass(frozen=True)
class CorpusFile:
    name: str
    speaker: str
    gender: str


@dataclass(frozen=True)
class Transform:
    """One ``voicemask transform --degree`` request."""

    file: CorpusFile
    algorithm: str
    degree: int
    variant: str | None  # None for warps

    def argv(self, in_path, out_path) -> list[str]:
        argv = ["transform", "--algo", self.algorithm, "--degree", str(self.degree)]
        if self.variant is None:
            argv += ["--gender", self.file.gender]
        else:
            argv += ["--variant", self.variant]
        return argv + ["--in", str(in_path), "--out", str(out_path)]


@dataclass(frozen=True)
class Recognition:
    """One ``voicemask identify`` or ``voicemask gender`` request."""

    file: CorpusFile
    command: str

    def argv(self, in_path, models_path) -> list[str]:
        return [self.command, "--models", str(models_path), "--in", str(in_path)]


def probe_files(workload: str) -> list[CorpusFile]:
    """The test partition ``voicemask synth`` writes for this workload's corpus."""
    speakers, utts = CORPUS[workload]
    return [
        CorpusFile(f"spk{i:02d}_u{u:02d}.wav", f"spk{i:02d}", "M" if i % 2 == 0 else "F")
        for i in range(speakers)
        for u in range(1, utts)
    ]


def deidentify_requests(seed: int) -> list[Transform]:
    """One request per test file in seeded order: three pitch requests per warp.

    Pitch requests alternate identity-locked and loose propagation and cycle
    through voc/vocf, warps alternate quadratic/bilinear, and the degrees are
    an even spread over 1..25 in seeded order. A seed changes which file
    meets which request and degree, not the mix.
    """
    rng = random.Random(f"deidentify/{seed}")
    files = probe_files("deidentify")
    rng.shuffle(files)
    degrees = [1 + 24 * i // (len(files) - 1) for i in range(len(files))]
    rng.shuffle(degrees)
    requests = []
    for i, (file, degree) in enumerate(zip(files, degrees)):
        block, slot = divmod(i, 4)
        if slot == 3:
            requests.append(Transform(file, WARP_ALGOS[block % 2], degree, None))
        else:
            j = 3 * block + slot  # index among pitch requests
            algorithm = PITCH_ALGOS[j // 2 % 2]
            requests.append(Transform(file, algorithm, degree, PITCH_VARIANTS[j % 2]))
    return requests


def recognize_requests(seed: int) -> list[Recognition]:
    """Every test file once under each command, alternating identify and gender."""
    rng = random.Random(f"recognize/{seed}")
    files = probe_files("recognize")
    rng.shuffle(files)
    commands = ("identify", "gender")
    return [
        Recognition(file, commands[(i + turn) % 2])
        for turn in range(2)
        for i, file in enumerate(files)
    ]
