"""End-to-end acceptance suite.

Each test covers one release criterion at its stated tolerance and prints a
single pass/fail line (run with ``pytest -s tests/test_acceptance.py`` to see
the lines as they complete). The sweep criterion builds the seeded synthetic
corpus once per session and takes a few minutes; its check also runs, fast, on
hand-built curves.
"""

import struct
import time
from typing import NamedTuple

import numpy as np
import pytest
from scipy.stats import spearmanr

from voicemask import (
    ALGORITHMS,
    AudioBuffer,
    PitchShiftSpec,
    SpeakerModel,
    SweepResult,
    SweepRow,
    WarpSpec,
    aggregate_mos,
    covariance_model,
    emit_report,
    find_crossover,
    istft,
    load_models,
    load_sweep,
    pitch_shift,
    read_wav,
    run_degree_sweep,
    save_models,
    sphericity_distance,
    stft,
    synth_corpus,
    warp_value,
    write_wav,
)
from voicemask.errors import NoCrossover

from helpers import SR, band_log_distortion, dominant_freq, interior_snr_db, make_tone, make_vowel

SWEEP_SEED = 7
SWEEP_SPEAKERS = 20
SWEEP_UTTERANCES = 4


def report(name, failures, detail=""):
    status = "PASS" if not failures else f"FAIL ({'; '.join(failures)})"
    print(f"\n[acceptance] {name}: {status} {detail}", flush=True)
    assert not failures, f"{name}: {failures}"


@pytest.fixture(scope="session")
def sweep_result(tmp_path_factory):
    corpus_dir = tmp_path_factory.mktemp("acceptance_corpus")
    manifest = synth_corpus(SWEEP_SEED, SWEEP_SPEAKERS, SWEEP_UTTERANCES, corpus_dir)
    started = time.monotonic()
    result = run_degree_sweep(manifest)
    return result, time.monotonic() - started


class TestCriterion1WarpFunctions:
    def test_warp_function_suite(self):
        started = time.monotonic()
        failures = []
        grid = np.linspace(0.0, np.pi, 1000)
        parameter_grids = {
            "symmetric": np.linspace(0.4, 2.2, 10),
            "asymmetric": np.linspace(0.4, 2.2, 10),
            "power": np.linspace(0.3, 2.5, 10),
            "quadratic": np.linspace(-2.9, 2.9, 11),
            "bilinear": np.linspace(-0.9, 0.9, 11),
        }
        for family, alphas in parameter_grids.items():
            for alpha in alphas:
                spec = WarpSpec(family, float(alpha))
                g = np.asarray(warp_value(spec, grid))
                if warp_value(spec, 0.0) != 0.0 or warp_value(spec, np.pi) != np.pi:
                    failures.append(f"{spec} endpoints")
                if np.any(np.diff(g) < 0.0):
                    failures.append(f"{spec} not monotone")
                if g.min() < 0.0 or g.max() > np.pi:
                    failures.append(f"{spec} out of range")
        for spec in (
            WarpSpec("symmetric", 1.0),
            WarpSpec("asymmetric", 1.0),
            WarpSpec("power", 1.0),
            WarpSpec("quadratic", 0.0),
            WarpSpec("bilinear", 0.0),
        ):
            if np.max(np.abs(np.asarray(warp_value(spec, grid)) - grid)) > 1e-9:
                failures.append(f"{spec} not identity")

        z = np.exp(1j * np.pi / 2)
        hand_values = [
            (WarpSpec("power", 0.6), np.pi / 2, np.pi * 0.5**0.6),
            (WarpSpec("quadratic", 1.4), np.pi / 2, np.pi / 2 + 1.4 * (0.5 - 0.25)),
            (WarpSpec("bilinear", 0.4), np.pi / 2, np.angle((z - 0.4) / (1 - 0.4 * z))),
            (WarpSpec("symmetric", 1.4), 1.0, 1.4),
            (WarpSpec("asymmetric", 1.1), 0.5, 0.55),
            (WarpSpec("power", 1.0), 1.2345, 1.2345),
        ]
        for spec, omega, expected in hand_values:
            if abs(warp_value(spec, omega) - expected) > 1e-6:
                failures.append(f"{spec} hand value at {omega}")

        elapsed = time.monotonic() - started
        if elapsed >= 5.0:
            failures.append(f"runtime {elapsed:.1f}s >= 5s")
        report("criterion 1 (warp functions)", failures, f"[{elapsed:.1f}s]")


class TestCriterion2Sphericity:
    def test_sphericity_suite(self):
        started = time.monotonic()
        failures = []
        rng = np.random.default_rng(2024)

        def random_spd(p):
            a = rng.standard_normal((p, p))
            return a @ a.T + p * np.eye(p)

        for p in (2, 12):
            c = random_spd(p)
            if abs(sphericity_distance(c, c)) > 1e-10:
                failures.append(f"self distance P={p}")
        for _ in range(500):
            for p in (2, 12):
                a, b = random_spd(p), random_spd(p)
                if sphericity_distance(a, b) < -1e-10:
                    failures.append(f"negative value P={p}")
                    break
        for _ in range(100):
            a, b = random_spd(5), random_spd(5)
            base = sphericity_distance(a, b)
            if abs(sphericity_distance(3.7 * a, 0.2 * b) - base) > 1e-9:
                failures.append("scale invariance")
                break
            t = rng.standard_normal((5, 5)) + 5 * np.eye(5)
            congruent = sphericity_distance(t @ a @ t.T, t @ b @ t.T)
            if abs(congruent - base) > 1e-6 * max(1.0, abs(base)):
                failures.append("congruence invariance")
                break
        hand = sphericity_distance(np.diag([1.0, 4.0]), np.eye(2))
        if abs(hand - np.log(1.5625)) > 1e-9:
            failures.append("hand value")

        elapsed = time.monotonic() - started
        if elapsed >= 10.0:
            failures.append(f"runtime {elapsed:.1f}s >= 10s")
        report("criterion 2 (sphericity)", failures, f"[{elapsed:.1f}s]")


class TestCriterion3PitchAccuracy:
    def test_pitch_shift_suite(self):
        started = time.monotonic()
        failures = []
        for freq in (220.0, 440.0, 1000.0):
            tone = make_tone(freq)
            for ratio in (0.75, 1.25, 1.5):
                for variant in ("identity-locked", "loose"):
                    out = pitch_shift(tone, PitchShiftSpec(ratio, variant=variant))
                    target = ratio * freq
                    tolerance = max(SR / 1024, 0.01 * target)
                    measured = dominant_freq(out.samples)
                    if abs(measured - target) > tolerance:
                        failures.append(
                            f"{freq}Hz x{ratio} {variant}: {measured:.1f} vs {target:.1f}"
                        )
            for variant in ("identity-locked", "loose"):
                identity = pitch_shift(tone, PitchShiftSpec(1.0, variant=variant))
                if interior_snr_db(tone.samples, identity.samples) < 40.0:
                    failures.append(f"{freq}Hz identity SNR {variant}")

        vowel = make_vowel()
        up = pitch_shift(vowel, PitchShiftSpec(1.5))
        down = pitch_shift(up, PitchShiftSpec(1.0 / 1.5))
        f_in, f_out = dominant_freq(vowel.samples), dominant_freq(down.samples)
        if abs(f_out - f_in) / f_in > 0.01:
            failures.append(f"round-trip frequency {f_out:.1f} vs {f_in:.1f}")
        distortion = band_log_distortion(vowel.samples, down.samples)
        if distortion > 2.0:
            failures.append(f"round-trip distortion {distortion:.2f} dB")

        elapsed = time.monotonic() - started
        if elapsed >= 30.0:
            failures.append(f"runtime {elapsed:.1f}s >= 30s")
        report("criterion 3 (pitch accuracy)", failures, f"[{elapsed:.1f}s]")


class TestCriterion4SignalRoundTrip:
    def test_stft_round_trip(self):
        started = time.monotonic()
        failures = []
        rng = np.random.default_rng(99)
        for trial in range(10):
            x = rng.standard_normal(3 * SR) * rng.uniform(0.05, 0.5)
            back = istft(stft(AudioBuffer(x, SR)), SR, len(x))
            snr = interior_snr_db(x, back.samples)
            if snr < 60.0:
                failures.append(f"trial {trial}: SNR {snr:.1f} dB")
        elapsed = time.monotonic() - started
        if elapsed >= 10.0:
            failures.append(f"runtime {elapsed:.1f}s >= 10s")
        report("criterion 4 (analysis round trip)", failures, f"[{elapsed:.1f}s]")


class Fall(NamedTuple):
    """Where one identification curve reaches chance and how it behaves around that."""

    end: int  # last degree of the trend window
    rho: float  # Spearman rho of rate against degree over degrees first..end
    floor_from: int  # first degree held to the floor bound
    floor_max: float  # highest rate from floor_from onward


def fall_to_chance(id_curve, n_speakers):
    """Trend window and floor of an identification curve over N enrolled speakers.

    The window runs from the first degree through the first degree whose rate is
    at or below chance, 1/N; a curve that never gets there keeps every degree.
    The floor starts at the window's end, or at degree 20 if that comes first.
    """
    chance = 1.0 / n_speakers
    # Rates are hit counts over file counts, pooled in floating point, so a rate
    # of exactly 1/N may come out an ulp above it.
    end_index = next(
        (i for i, (_, rate) in enumerate(id_curve) if rate <= chance + 1e-9),
        len(id_curve) - 1,
    )
    window = id_curve[: end_index + 1]
    end = window[-1][0]
    rho = spearmanr([d for d, _ in window], [r for _, r in window]).statistic
    floor_from = min(end, 20)
    floor_max = max(r for d, r in id_curve if d >= floor_from)
    return Fall(end, float(rho), floor_from, floor_max)


def criterion5_failures(result, n_speakers):
    """Criterion 5 on a degree sweep over N enrolled speakers; [] when it holds.

    For each algorithm: degrees 0..25 are all present; at degree 0 identification
    is 1.0 and gender success at least 0.9; identification falls to chance with
    Spearman rho <= -0.8 and then stays at or below 15% (see fall_to_chance); and
    its 50% crossover comes before that of either gender.
    """
    failures = []
    for algo in ALGORITHMS:
        id_curve = result.curve(algo, "identification")
        gender_curve = result.curve(algo, "gender")
        degrees = [d for d, _ in id_curve]
        if degrees != list(range(26)):
            failures.append(f"{algo}: missing degrees")
            continue
        if id_curve[0][1] != 1.0:
            failures.append(f"{algo}: degree-0 identification {id_curve[0][1]}")
        if gender_curve[0][1] < 0.9:
            failures.append(f"{algo}: degree-0 gender {gender_curve[0][1]}")
        # The trend is read only up to chance level. Past it the rate is noise
        # around 1/N, and its rank order says nothing about the transform. Keep
        # the voc curve of the seed-7 sweep up to degree 8, where it reaches
        # chance, and draw its 17 later points from Binomial(60, 1/20)/60: rho
        # <= -0.8 then holds in under 1% of 2,000 draws (mean rho -0.62). A 1%
        # floor passes about 17% of the time, and even a floor of exactly 0
        # gives only rho -0.849. Over all degrees the bound would ask the
        # recognizer to do worse than chance. The floor bound below, applied
        # from the same degree, is what checks that the curve stays down.
        fall = fall_to_chance(id_curve, n_speakers)
        if not fall.rho <= -0.8:
            failures.append(f"{algo}: spearman {fall.rho:.3f} over degrees 0..{fall.end}")
        if fall.floor_max > 0.15:
            failures.append(
                f"{algo}: identification above 15% at degree>={fall.floor_from}: "
                f"{fall.floor_max}"
            )
        gender_crossovers = []
        for gender in ("M", "F"):
            try:
                gender_crossovers.append(find_crossover(result.curve(algo, "gender", gender)))
            except NoCrossover:
                pass
        if not gender_crossovers:
            failures.append(f"{algo}: gender success never falls below 0.5")
            continue
        try:
            id_crossover = find_crossover(id_curve)
        except NoCrossover:
            failures.append(f"{algo}: identification never falls below 0.5")
            continue
        if not id_crossover < min(gender_crossovers):
            failures.append(
                f"{algo}: id crossover {id_crossover:.1f} not below "
                f"gender crossover {min(gender_crossovers):.1f}"
            )
    return failures


def hand_sweep(id_rates):
    """A SweepResult giving every algorithm and gender these identification rates.

    Gender success holds at 1.0 to degree 15 and then drops to 0.2, so the
    crossover order holds whenever identification falls below 0.5 earlier.
    """
    return SweepResult(
        tuple(
            SweepRow(algo, gender, degree, 1.0 if degree <= 15 else 0.2, rate, 30)
            for algo in sorted(ALGORITHMS)
            for gender in ("F", "M")
            for degree, rate in enumerate(id_rates)
        )
    )


class TestCriterion5Check:
    """criterion5_failures on hand-built curves over 20 speakers (chance 0.05)."""

    FALL = [1.0, 1.0, 0.85, 0.67, 0.42, 0.22, 0.12, 0.08, 0.0]

    def test_fall_then_chance_floor_passes(self):
        floor = [0.1, 0.0, 0.05] * 5 + [0.1, 0.0]
        result = hand_sweep(self.FALL + floor)
        assert criterion5_failures(result, 20) == []
        fall = fall_to_chance(result.curve("voc"), 20)
        assert (fall.end, fall.floor_from, fall.floor_max) == (8, 8, 0.1)
        assert round(fall.rho, 3) == -0.996

    def test_wobble_before_chance_fails_on_rho(self):
        wobble = [1.0, 0.3, 0.95, 0.35, 0.9, 0.4, 0.85, 0.45, 0.8, 0.0]
        failures = criterion5_failures(hand_sweep(wobble + [0.0] * 16), 20)
        assert failures == [f"{algo}: spearman -0.394 over degrees 0..9" for algo in ALGORITHMS]

    def test_rebound_after_chance_fails_on_floor(self):
        floor = [0.0] * 17
        floor[12 - 9] = 0.3  # FALL ends at degree 8, so floor[0] is degree 9
        failures = criterion5_failures(hand_sweep(self.FALL + floor), 20)
        assert failures == [
            f"{algo}: identification above 15% at degree>=8: 0.3" for algo in ALGORITHMS
        ]

    def test_curve_above_chance_keeps_full_range_rho(self):
        # Down to 0.1 by degree 5, then above chance at every degree.
        result = hand_sweep([1.0, 0.8, 0.6, 0.4, 0.2, 0.1] + [0.14, 0.06] * 10)
        assert fall_to_chance(result.curve("voc"), 20).end == 25
        failures = criterion5_failures(result, 20)
        assert failures == [f"{algo}: spearman -0.543 over degrees 0..25" for algo in ALGORITHMS]


@pytest.mark.slow
class TestCriterion5Sweep:
    def test_sweep_properties(self, sweep_result):
        result, elapsed = sweep_result
        failures = criterion5_failures(result, SWEEP_SPEAKERS)
        if elapsed >= 600.0:
            failures.append(f"runtime {elapsed:.0f}s >= 600s")
        falls = []
        for algo in ALGORITHMS:
            id_curve = result.curve(algo, "identification")
            if id_curve:
                fall = fall_to_chance(id_curve, SWEEP_SPEAKERS)
                falls.append(
                    f"{algo} 0..{fall.end} rho {fall.rho:.3f} floor max {fall.floor_max:.3f}"
                )
        report(
            "criterion 5 (degree sweep)", failures, f"[{elapsed:.0f}s sweep; {'; '.join(falls)}]"
        )


class TestCriterion6MosFixture:
    def test_reference_means_reproduced(self, tmp_path):
        failures = []
        sums = {"voc": 37, "vocf": 33, "quadratic": 34, "bilinear": 30}
        rows = ["listener_id,file_id,algorithm,degree,rating"]
        for algo, total in sums.items():
            base, extra = divmod(total, 10)
            ratings = [base + 1] * extra + [base] * (10 - extra)
            rows += [f"l{i:02d},f{i:02d},{algo},7,{r}" for i, r in enumerate(ratings)]
        path = tmp_path / "ratings.csv"
        path.write_text("\n".join(rows) + "\n")
        table = aggregate_mos(path)
        for algo, expected in (("voc", 3.7), ("vocf", 3.3), ("quadratic", 3.4), ("bilinear", 3.0)):
            got = table.mean(algo)
            if round(got, 10) != round(expected, 10):
                failures.append(f"{algo}: {got} vs {expected}")
        report("criterion 6 (MOS aggregation)", failures)


class TestCriterion7FormatRoundTrips:
    def test_store_csv_and_wav(self, tmp_path):
        failures = []
        rng = np.random.default_rng(7)

        def random_spd(p):
            a = rng.standard_normal((p, p))
            return a @ a.T + p * np.eye(p)

        models = [
            SpeakerModel(label=f"spk{i:02d}", gender="MF"[i % 2], C=random_spd(12), n_frames=100 + i)
            for i in range(5)
        ]
        save_models(tmp_path / "models.txt", models)
        loaded = load_models(tmp_path / "models.txt")
        for original, back in zip(models, loaded):
            if np.max(np.abs(original.C - back.C)) > 1e-12:
                failures.append(f"model {original.label} drifted")

        rows = tuple(
            SweepRow(algo, gender, degree, 1.0 / (degree + 1), 0.5 / (degree + 1), 30)
            for algo in ("voc", "bilinear")
            for gender in ("M", "F")
            for degree in range(3)
        )
        result = SweepResult(tuple(sorted(rows, key=lambda r: (r.algorithm, r.gender, r.degree))))
        emit_report(result, tmp_path / "a")
        re_read = load_sweep(tmp_path / "a" / "sweep.csv")
        emit_report(re_read, tmp_path / "b")
        if (tmp_path / "a" / "sweep.csv").read_bytes() != (tmp_path / "b" / "sweep.csv").read_bytes():
            failures.append("sweep CSV not byte-identical after re-read")

        wav_path = tmp_path / "rt.wav"
        signal = rng.uniform(-1.0, 32767 / 32768, 4096)
        write_wav(wav_path, AudioBuffer(signal, SR))
        back = read_wav(wav_path)
        if np.max(np.abs(back.samples - signal)) > 2.0**-15:
            failures.append("WAV round trip beyond quantization step")
        report("criterion 7 (format round trips)", failures)
