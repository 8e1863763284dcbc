"""Oracle tests for the synthetic-corpus renderer.

``corpus._render_utterance`` builds each segment's flutter tracks and
harmonic grid in buffers of that segment's size. It must give byte-equal
samples, and leave the generator in the same state, as the whole-utterance
renderer frozen in ``synth_reference.py``; and ``synth_corpus`` must write
the same WAV bytes with either renderer.
"""

import numpy as np
import pytest

import voicemask.corpus as corpus
from voicemask import synth_corpus

import synth_reference

F0_RANGES = {"M": corpus._MALE_F0_RANGE, "F": corpus._FEMALE_F0_RANGE}
# (seed, gender, f0, jitter): jitter pins the speaker's flutter, tilt and
# f0-wobble draws to one end of their range (-1 or +1), or draws it (None).
CASES = [
    (1, "M", 100.0, -1.0),
    (2, "M", 100.0, 1.0),
    (3, "M", 140.0, -1.0),
    (4, "M", 140.0, 1.0),
    (5, "F", 190.0, -1.0),
    (6, "F", 190.0, 1.0),
    (7, "F", 240.0, -1.0),
    (8, "F", 240.0, 1.0),
    (9, "M", None, None),
    (10, "F", None, None),
    (11, "M", None, None),
    (12, "F", None, None),
    (13, "M", 60.0, 1.0),
    (14, "F", 400.0, -1.0),
]


def speaker_draw(seed, gender, f0, jitter):
    """Renderer arguments for one utterance, drawn the way synth_corpus draws them."""
    rng = np.random.default_rng(seed)
    if f0 is None:
        f0 = rng.uniform(*F0_RANGES[gender])

    def spread(base, width):
        u = rng.uniform(-1.0, 1.0) if jitter is None else jitter
        return base * (1.0 + width * u)

    wobble = spread(corpus._F0_WOBBLE[gender], corpus._SPEAKER_WOBBLE_JITTER)
    flutter = spread(corpus._HARMONIC_FLUTTER[gender], corpus._SPEAKER_FLUTTER_JITTER)
    tilt_wobble = spread(corpus._TILT_WOBBLE[gender], corpus._SPEAKER_TILT_JITTER)
    noise_gain = 1.0 + corpus._SPEAKER_NOISE_JITTER[gender] * rng.uniform(-1.0, 1.0)
    emphasis = 1.0 + corpus._SPEAKER_DURATION_JITTER * rng.uniform(
        -1.0, 1.0, len(corpus._BASE_PROFILES)
    )
    profiles = [
        tuple((f * (1.0 + 0.1 * rng.standard_normal()), bw)
              for f, bw in zip(base, corpus._RESONANCE_BW))
        for base in corpus._BASE_PROFILES
    ]
    args = (f0, profiles, gender, noise_gain, emphasis, wobble, flutter, tilt_wobble)
    return rng, args


def assert_same_samples(new, ref):
    assert new.dtype == ref.dtype == np.float64 and new.shape == ref.shape
    if new.tobytes() != ref.tobytes():
        i = int(np.flatnonzero(new.view(np.int64) != ref.view(np.int64))[0])
        pytest.fail(f"sample {i}: {float.hex(new[i])} != {float.hex(ref[i])}")


def render_both(seed, args):
    """Both renderers on one argument set, each with a generator seeded alike."""
    rng_new = np.random.default_rng([seed, 1])
    rng_ref = np.random.default_rng([seed, 1])
    new = corpus._draw_utterance(rng_new, corpus._flutter_grid(), *args)()
    ref = synth_reference.render_utterance(rng_ref, *args)
    assert rng_new.bit_generator.state == rng_ref.bit_generator.state
    return new, ref


class TestRendererOracle:
    @pytest.mark.parametrize("seed,gender,f0,jitter", CASES)
    def test_samples_are_byte_equal(self, seed, gender, f0, jitter):
        _, args = speaker_draw(seed, gender, f0, jitter)
        assert_same_samples(*render_both(seed, args))

    def test_corpus_wav_bytes_are_equal(self, tmp_path, monkeypatch):
        synth_corpus(7, 4, 2, tmp_path / "new")
        calls = []

        def reference(rng, grid, *args):
            calls.append(args)
            samples = synth_reference.render_utterance(rng, *args)
            return lambda: samples

        # synth_corpus looks the draw up in its own module; a patch that
        # missed it would compare the library with itself.
        monkeypatch.setattr(corpus, "_draw_utterance", reference)
        synth_corpus(7, 4, 2, tmp_path / "ref")
        assert len(calls) == 8
        names = sorted(p.name for p in (tmp_path / "new").iterdir())
        assert names == sorted(p.name for p in (tmp_path / "ref").iterdir())
        assert len(names) == 9
        for name in names:
            assert (tmp_path / "new" / name).read_bytes() == (tmp_path / "ref" / name).read_bytes()
