"""Command-line front end: transforms, enrollment, recognition, sweeps, MOS.

Parseable results go to stdout, diagnostics to stderr. Exit codes: 0 success,
1 runtime error, 2 flag misuse.

The commands that score speakers import ``experiment`` and ``speaker_id``
(and with them scipy) in their handlers, so ``transform``, ``synth`` and
``--help`` start without loading scipy.

The program holds BLAS and OpenMP to one thread unless the caller's
environment says otherwise: an idle BLAS worker spins on the core that
``signal_core._split_rows`` runs its helper thread on. The setting must be
in place before numpy loads, which ``import voicemask`` does not do.
"""

from __future__ import annotations

import argparse
import functools
import logging
import os
import sys

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

from .corpus import (
    ALGORITHMS,
    MAX_DEGREE,
    PITCH_ALGORITHMS,
    DegreeSchedule,
    load_manifest,
    synth_corpus,
)
from .errors import (
    EmptyEnrollment,
    InvalidConfig,
    InvariantViolation,
    MissingGender,
    NoCrossover,
    VoicemaskError,
)
from .phase_vocoder import VARIANTS, PitchShiftSpec, pitch_shift
from .signal_core import read_wav, write_wav
from .vtln import FAMILIES, WarpSpec, vtln_transform

_TRANSFORM_ALGOS = PITCH_ALGORITHMS + FAMILIES


class _StderrHandler(logging.StreamHandler):
    """Writes each record to ``sys.stderr`` as it is then, not as it was at set-up."""

    stream = property(lambda self: sys.stderr, lambda self, stream: None)


_WARNINGS = _StderrHandler()


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The program's parser, built on first call; parsing leaves it unchanged, so calls share it."""
    parser = argparse.ArgumentParser(prog="voicemask", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("transform", help="apply one voice modification to a WAV file")
    p.add_argument("--algo", required=True, choices=_TRANSFORM_ALGOS)
    p.add_argument("--degree", type=int)
    p.add_argument("--ratio", type=float)
    p.add_argument("--alpha", type=float)
    p.add_argument("--gender", choices=("M", "F"))
    p.add_argument("--variant", choices=VARIANTS, default="identity-locked")
    p.add_argument("--in", dest="in_path", required=True, metavar="PATH")
    p.add_argument("--out", dest="out_path", required=True, metavar="PATH")

    p = sub.add_parser("enroll", help="build speaker and gender models from a manifest")
    p.add_argument("--manifest", required=True)
    p.add_argument("--models", required=True)

    p = sub.add_parser("identify", help="rank enrolled speakers for a WAV file")
    p.add_argument("--models", required=True)
    p.add_argument("--in", dest="in_path", required=True, metavar="PATH")

    p = sub.add_parser("gender", help="classify a WAV file as M or F")
    p.add_argument("--models", required=True)
    p.add_argument("--in", dest="in_path", required=True, metavar="PATH")

    p = sub.add_parser("sweep", help="run the degree sweep and emit reports")
    p.add_argument("--manifest", required=True)
    p.add_argument("--algos", default=",".join(ALGORITHMS), help="comma-separated subset")
    p.add_argument("--degrees", default=f"0..{MAX_DEGREE}", help="inclusive range, e.g. 0..25")
    p.add_argument("--out", dest="out_dir", required=True, metavar="DIR")

    p = sub.add_parser("synth", help="generate the deterministic synthetic corpus")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--speakers", type=int, required=True)
    p.add_argument("--utts", type=int, required=True)
    p.add_argument("--out", dest="out_dir", required=True, metavar="DIR")

    p = sub.add_parser("mos", help="aggregate listening-test ratings")
    p.add_argument("--ratings", required=True)
    return parser


def _cmd_transform(parser, args) -> int:
    selectors = [v is not None for v in (args.degree, args.ratio, args.alpha)]
    if sum(selectors) != 1:
        parser.error("exactly one of --degree / --ratio / --alpha is required")
    is_pitch = args.algo in PITCH_ALGORITHMS
    if args.ratio is not None and not is_pitch:
        parser.error(f"--ratio is only valid for {'/'.join(PITCH_ALGORITHMS)}")
    if args.alpha is not None and is_pitch:
        parser.error("--alpha is not valid for pitch algorithms")
    if args.degree is not None and args.algo not in ALGORITHMS:
        parser.error(f"--degree is only valid for {'/'.join(ALGORITHMS)}")
    if args.degree is not None and not is_pitch and args.gender is None:
        parser.error("--gender is required with --degree for warp algorithms")
    if args.degree is not None and not 0 <= args.degree <= MAX_DEGREE:
        parser.error(f"--degree must be in 0..{MAX_DEGREE}, got {args.degree}")

    buf = read_wav(args.in_path)
    param = args.ratio if is_pitch else args.alpha
    if args.degree is not None:
        param = DegreeSchedule(args.algo).parameter(args.degree, args.gender)
    if is_pitch:
        out = pitch_shift(buf, PitchShiftSpec(ratio=param, variant=args.variant))
    else:
        out = vtln_transform(buf, WarpSpec(args.algo, param))
    write_wav(args.out_path, out)
    return 0


def _cmd_enroll(parser, args) -> int:
    from .experiment import enroll
    from .speaker_id import save_models

    manifest = load_manifest(args.manifest)
    reserved = sorted({"M", "F"}.intersection(manifest.speakers()))
    if reserved:
        raise InvariantViolation(f"speaker id {reserved[0]!r} is reserved for a gender model")
    speakers, male, female = enroll(manifest)
    save_models(args.models, speakers + [male, female])
    return 0


def _split_models(models):
    speakers = [m for m in models if m.label not in ("M", "F")]
    male = next((m for m in models if m.label == "M"), None)
    female = next((m for m in models if m.label == "F"), None)
    return speakers, male, female


def _cmd_identify(parser, args) -> int:
    from .speaker_id import covariance_model, extract_cepstra, identify_speaker, load_models

    speakers, _, _ = _split_models(load_models(args.models))
    if not speakers:
        raise EmptyEnrollment("model store has no speaker models")
    test = covariance_model(extract_cepstra(read_wav(args.in_path)), label="probe")
    for label, score in identify_speaker(test, speakers):
        print(f"{label} {score:.6f}")
    return 0


def _cmd_gender(parser, args) -> int:
    from .speaker_id import classify_gender, covariance_model, extract_cepstra, load_models

    _, male, female = _split_models(load_models(args.models))
    if male is None or female is None:
        raise MissingGender("model store lacks a gender model")
    test = covariance_model(extract_cepstra(read_wav(args.in_path)), label="probe")
    decided, margin = classify_gender(test, male, female)
    print(f"{decided} {margin:.6f}")
    return 0


def _parse_degrees(parser, text: str):
    try:
        lo_text, hi_text = text.split("..", 1)
        lo, hi = int(lo_text), int(hi_text)
    except ValueError:
        parser.error(f"--degrees must look like A..B, got {text!r}")
    if not 0 <= lo <= hi <= MAX_DEGREE:
        parser.error(f"--degrees must satisfy 0 <= A <= B <= {MAX_DEGREE}, got {text!r}")
    return tuple(range(lo, hi + 1))


def _format_crossover(curve) -> str:
    from .experiment import find_crossover

    try:
        return f"{find_crossover(curve):.1f}" if curve else "-"
    except NoCrossover:
        return "-"


def _cmd_sweep(parser, args) -> int:
    from .experiment import _sweep_algorithms, emit_report, run_degree_sweep

    try:
        algos = _sweep_algorithms(a.strip() for a in args.algos.split(",") if a.strip())
    except InvalidConfig as exc:
        parser.error(str(exc))
    degrees = _parse_degrees(parser, args.degrees)
    manifest = load_manifest(args.manifest)
    result = run_degree_sweep(manifest, algos, degrees)
    emit_report(result, args.out_dir)
    for algo in algos:
        for gender in ("M", "F"):
            print(f"{algo} {gender} {_format_crossover(result.curve(algo, 'gender', gender))}")
        print(f"{algo} id {_format_crossover(result.curve(algo, 'identification'))}")
    return 0


def _cmd_synth(parser, args) -> int:
    synth_corpus(args.seed, args.speakers, args.utts, args.out_dir)
    return 0


def _cmd_mos(parser, args) -> int:
    from .experiment import aggregate_mos

    table = aggregate_mos(args.ratings)
    for algo, mean, count in table.scores:
        print(f"{algo} {mean:.4f} {count}")
    return 0


_COMMANDS = {
    "transform": _cmd_transform,
    "enroll": _cmd_enroll,
    "identify": _cmd_identify,
    "gender": _cmd_gender,
    "sweep": _cmd_sweep,
    "synth": _cmd_synth,
    "mos": _cmd_mos,
}


def main(argv=None) -> int:
    logging.getLogger("voicemask").addHandler(_WARNINGS)  # once: a second add is a no-op
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](parser, args)
    except VoicemaskError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
