import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from voicemask import (
    AudioBuffer,
    SpeakerModel,
    classify_gender,
    covariance_model,
    extract_cepstra,
    identify_speaker,
    load_models,
    save_models,
    sphericity_distance,
    train_gender_models,
)
from voicemask.errors import (
    DimensionMismatch,
    EmptyEnrollment,
    InvalidConfig,
    InvalidModel,
    InvariantViolation,
    MissingGender,
    NotPositiveDefinite,
    ParseError,
    TooFewFrames,
    TooShort,
    VoicemaskError,
)

from helpers import SR, make_vowel


def random_spd(rng, p, scale=1.0):
    a = rng.standard_normal((p, p))
    return scale * (a @ a.T + p * np.eye(p))


class TestExtractCepstra:
    def test_frame_count_one_second(self):
        feats = extract_cepstra(AudioBuffer(np.random.default_rng(0).standard_normal(SR), SR))
        assert feats.shape == (98, 12)

    def test_silence_gives_zero_coefficients(self):
        feats = extract_cepstra(AudioBuffer(np.zeros(SR), SR))
        assert np.max(np.abs(feats)) == 0.0

    def test_deterministic(self):
        buf = make_vowel(seconds=0.5)
        np.testing.assert_array_equal(extract_cepstra(buf), extract_cepstra(buf))

    def test_too_short(self):
        with pytest.raises(TooShort):
            extract_cepstra(AudioBuffer(np.zeros(100), SR))

    @pytest.mark.parametrize("rate", [20, 50])
    def test_rate_too_low_to_frame_is_invalid_config(self, rate):
        # The 10 ms hop rounds to 0 samples at 50 Hz and below, the 25 ms frame at 20 Hz.
        with pytest.raises(InvalidConfig, match=f"^{rate} Hz gives "):
            extract_cepstra(AudioBuffer(np.ones(10 * rate), rate))

    def test_lowest_rate_with_a_one_sample_hop_is_framed(self):
        assert extract_cepstra(AudioBuffer(np.ones(500), 51)).shape == (500, 12)


class TestCovarianceModel:
    def test_hand_computed_covariance(self):
        feats = np.array([[0.0, 0.0], [2.0, 0.0], [0.0, 2.0], [2.0, 2.0]])
        model = covariance_model(feats, "s")
        expected = np.diag([4.0 / 3.0, 4.0 / 3.0])
        np.testing.assert_allclose(model.C, expected, atol=1e-5)
        assert model.n_frames == 4

    def test_degenerate_input_still_positive_definite(self):
        feats = np.tile([1.0, 2.0, 3.0], (10, 1))
        model = covariance_model(feats, "s")
        assert np.all(np.linalg.eigvalsh(model.C) > 0)
        np.testing.assert_allclose(model.C, model.C[0, 0] * np.eye(3))

    def test_frame_order_invariant(self):
        rng = np.random.default_rng(1)
        feats = rng.standard_normal((50, 4))
        shuffled = feats[rng.permutation(50)]
        np.testing.assert_allclose(
            covariance_model(feats, "a").C, covariance_model(shuffled, "a").C, atol=1e-12
        )

    def test_too_few_frames(self):
        with pytest.raises(TooFewFrames):
            covariance_model(np.zeros((12, 12)), "s")

    def test_model_matrix_read_only(self):
        model = covariance_model(np.random.default_rng(2).standard_normal((30, 3)), "s")
        with pytest.raises(ValueError):
            model.C[0, 0] = 1.0


class TestSphericityDistance:
    def test_self_distance_zero(self):
        rng = np.random.default_rng(3)
        for p in (2, 5, 12):
            c = random_spd(rng, p)
            assert abs(sphericity_distance(c, c)) < 1e-10

    def test_hand_value(self):
        mu = sphericity_distance(np.diag([1.0, 4.0]), np.eye(2))
        assert mu == pytest.approx(np.log(1.5625), abs=1e-9)
        assert mu == pytest.approx(0.44629, abs=1e-5)

    def test_scalar_multiple_gives_zero(self):
        rng = np.random.default_rng(4)
        c = random_spd(rng, 6)
        assert abs(sphericity_distance(3.7 * c, c)) < 1e-9

    @settings(max_examples=250, deadline=None)
    @given(seed=st.integers(0, 2**31 - 1), p=st.sampled_from([2, 12]))
    def test_non_negative(self, seed, p):
        rng = np.random.default_rng(seed)
        a, b = random_spd(rng, p), random_spd(rng, p)
        assert sphericity_distance(a, b) >= -1e-10

    @settings(max_examples=100, deadline=None)
    @given(
        seed=st.integers(0, 2**31 - 1),
        a_scale=st.floats(0.01, 100.0),
        b_scale=st.floats(0.01, 100.0),
    )
    def test_scale_invariance(self, seed, a_scale, b_scale):
        rng = np.random.default_rng(seed)
        a, b = random_spd(rng, 5), random_spd(rng, 5)
        base = sphericity_distance(a, b)
        assert sphericity_distance(a_scale * a, b_scale * b) == pytest.approx(base, abs=1e-9)

    def test_congruence_invariance(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            a, b = random_spd(rng, 6), random_spd(rng, 6)
            t = rng.standard_normal((6, 6)) + 6 * np.eye(6)
            base = sphericity_distance(a, b)
            mapped = sphericity_distance(t @ a @ t.T, t @ b @ t.T)
            assert mapped == pytest.approx(base, abs=1e-6 * max(1.0, abs(base)))

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            sphericity_distance(np.eye(3), np.eye(4))

    def test_not_positive_definite(self):
        bad = np.diag([1.0, -1.0])
        message = "2-th leading minor of the array is not positive definite"
        with pytest.raises(NotPositiveDefinite, match=message):
            sphericity_distance(bad, np.eye(2))
        with pytest.raises(NotPositiveDefinite, match="^1-th leading minor"):
            sphericity_distance(np.eye(2), -np.eye(2))

    def test_empty_matrices_rejected(self):
        with pytest.raises(DimensionMismatch):
            sphericity_distance(np.empty((0, 0)), np.empty((0, 0)))


def model_of(matrix, label, gender="U"):
    return SpeakerModel(label=label, gender=gender, C=np.asarray(matrix, float), n_frames=100)


class TestSpeakerModelErrors:
    @pytest.mark.parametrize(
        "matrix",
        [[[1.0, np.nan], [np.nan, 1.0]], [[1.0, np.inf], [np.inf, 1.0]], [[1.0, 0.5], [0.25, 1.0]]],
        ids=["nan", "inf", "asymmetric"],
    )
    def test_bad_covariance(self, matrix):
        with pytest.raises(InvalidModel) as caught:
            model_of(matrix, "s")
        assert isinstance(caught.value, VoicemaskError) and isinstance(caught.value, ValueError)

    def test_bad_gender(self):
        with pytest.raises(InvalidModel) as caught:
            model_of(np.eye(2), "s", "X")
        assert isinstance(caught.value, ValueError)

    @pytest.mark.parametrize("n_frames", [-5, True, False, 2.5, "7", None])
    def test_a_frame_count_that_is_not_a_count_is_refused(self, n_frames):
        # save_models wrote frames=-5 or frames=True, which load_models refuses.
        with pytest.raises(InvalidModel, match="n_frames"):
            SpeakerModel(label="s", gender="M", C=np.eye(2), n_frames=n_frames)

    @pytest.mark.parametrize("n_frames", [0, 7, np.int64(7)], ids=["0", "7", "numpy 7"])
    def test_a_frame_count_round_trips(self, tmp_path, n_frames):
        model = SpeakerModel(label="s", gender="M", C=np.eye(2), n_frames=n_frames)
        save_models(tmp_path / "m.txt", [model])
        (back,) = load_models(tmp_path / "m.txt")
        assert back.n_frames == n_frames and np.array_equal(back.C, model.C)

    @pytest.mark.parametrize("shape", [(0, 0), (2, 3), (4,)])
    def test_empty_or_non_square_covariance(self, shape):
        with pytest.raises(DimensionMismatch):
            model_of(np.ones(shape), "s")


class TestIdentifySpeaker:
    def test_self_match_ranks_first_with_zero(self):
        rng = np.random.default_rng(6)
        models = [model_of(random_spd(rng, 4), f"s{i}") for i in range(5)]
        ranking = identify_speaker(models[2], models)
        assert ranking[0] == ("s2", pytest.approx(0.0, abs=1e-10))

    def test_hand_ranking(self):
        enrolled = [model_of(np.eye(2), "a"), model_of(np.diag([1.0, 4.0]), "b")]
        ranking = identify_speaker(model_of(np.diag([1.0, 4.0]), "probe"), enrolled)
        assert [label for label, _ in ranking] == ["b", "a"]
        assert ranking[1][1] == pytest.approx(np.log(1.5625), abs=1e-9)

    def test_tie_breaks_lexicographically(self):
        enrolled = [model_of(np.eye(3), "zeta"), model_of(np.eye(3), "alpha")]
        ranking = identify_speaker(model_of(2.0 * np.eye(3), "probe"), enrolled)
        assert [label for label, _ in ranking] == ["alpha", "zeta"]

    def test_empty_enrollment(self):
        with pytest.raises(EmptyEnrollment):
            identify_speaker(model_of(np.eye(2), "p"), [])

    def test_scaling_probe_preserves_ranking(self):
        rng = np.random.default_rng(7)
        enrolled = [model_of(random_spd(rng, 5), f"s{i}") for i in range(6)]
        probe = random_spd(rng, 5)
        base = [label for label, _ in identify_speaker(model_of(probe, "p"), enrolled)]
        scaled = [label for label, _ in identify_speaker(model_of(9.0 * probe, "p"), enrolled)]
        assert base == scaled


class TestGenderModels:
    def test_pooling_counts(self):
        rng = np.random.default_rng(8)
        corpus = [
            (rng.standard_normal((40, 3)), "M"),
            (rng.standard_normal((30, 3)), "F"),
            (rng.standard_normal((20, 3)), "F"),
        ]
        male, female = train_gender_models(corpus)
        assert male.n_frames == 40
        assert female.n_frames == 50
        assert (male.gender, female.gender) == ("M", "F")

    def test_duplicating_sequences_keeps_model_up_to_scale(self):
        # With the n-1 divisor, duplication rescales the covariance by
        # exactly 2(n-1)/(2n-1); every score is scale-invariant, so the
        # duplicated model is indistinguishable: sphericity distance is zero.
        rng = np.random.default_rng(9)
        m = rng.standard_normal((60, 3))
        f = rng.standard_normal((50, 3))
        male_once, _ = train_gender_models([(m, "M"), (f, "F")])
        male_twice, _ = train_gender_models([(m, "M"), (m, "M"), (f, "F")])
        n = 60
        factor = 2.0 * (n - 1) / (2 * n - 1)
        np.testing.assert_allclose(male_twice.C, factor * male_once.C, atol=1e-12)
        assert abs(sphericity_distance(male_once.C, male_twice.C)) < 1e-9

    def test_unknown_gender_label(self):
        rng = np.random.default_rng(0)
        corpus = [(rng.standard_normal((40, 3)), "M"), (rng.standard_normal((40, 3)), "X")]
        with pytest.raises(InvalidModel) as caught:
            train_gender_models(corpus)
        assert isinstance(caught.value, ValueError)

    def test_missing_gender(self):
        with pytest.raises(MissingGender):
            train_gender_models([(np.zeros((40, 3)) + np.random.default_rng(0).standard_normal((40, 3)), "M")])

    def test_classify_self_and_scaled(self):
        rng = np.random.default_rng(10)
        male = model_of(random_spd(rng, 4), "M", "M")
        female = model_of(random_spd(rng, 4), "F", "F")
        assert classify_gender(male, male, female)[0] == "M"
        assert classify_gender(female, male, female)[0] == "F"
        scaled = model_of(5.0 * male.C, "probe")
        assert classify_gender(scaled, male, female)[0] == "M"

    def test_exact_tie_resolves_male(self):
        shared = model_of(np.eye(3), "X")
        male = model_of(np.eye(3), "M", "M")
        female = model_of(np.eye(3), "F", "F")
        gender, margin = classify_gender(shared, male, female)
        assert gender == "M"
        assert margin == 0.0


class TestModelStore:
    def test_round_trip_exact(self, tmp_path):
        rng = np.random.default_rng(11)
        models = [
            model_of(random_spd(rng, 12), "spk00", "M"),
            model_of(random_spd(rng, 12), "spk01", "F"),
            model_of(random_spd(rng, 3), "pool M", "M"),
        ]
        path = tmp_path / "models.txt"
        save_models(path, models)
        loaded = load_models(path)
        assert [m.label for m in loaded] == ["spk00", "spk01", "pool M"]
        for original, back in zip(models, loaded):
            assert np.max(np.abs(original.C - back.C)) <= 1e-12
            assert back.n_frames == original.n_frames
            assert back.gender == original.gender

    def test_store_is_deterministic(self, tmp_path):
        models = [model_of(np.eye(4) * np.pi, "s", "U")]
        save_models(tmp_path / "a.txt", models)
        save_models(tmp_path / "b.txt", models)
        assert (tmp_path / "a.txt").read_bytes() == (tmp_path / "b.txt").read_bytes()

    def test_zero_order_store_is_a_toolkit_error(self, tmp_path):
        path = tmp_path / "p0.txt"
        path.write_text(
            "SPKMODEL v1 P=1 label=a gender=M frames=9\n2.0\n\n"
            "SPKMODEL v1 P=0 label=b gender=F frames=9\n"
        )
        with pytest.raises(ParseError, match="non-empty") as caught:
            load_models(path)
        assert caught.value.line == 4

    def test_asymmetric_store_names_the_header_line(self, tmp_path):
        path = tmp_path / "asym.txt"
        path.write_text(
            "SPKMODEL v1 P=1 label=a gender=M frames=9\n2.0\n\n"
            "SPKMODEL v1 P=2 label=b gender=F frames=9\n1.0 0.5\n0.25 1.0\n"
        )
        with pytest.raises(ParseError, match="symmetric") as caught:
            load_models(path)
        assert caught.value.line == 4

    def test_corrupt_header_rejected(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("SPKMODEL v2 nope\n")
        from voicemask.errors import ParseError

        with pytest.raises(ParseError):
            load_models(path)

    # Every line boundary str.splitlines knows; the store is read back line by line.
    LINE_BREAKS = "\n\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"

    @pytest.mark.parametrize("brk", list(LINE_BREAKS) + ["\r\n"], ids=repr)
    def test_label_with_line_break_refused_before_writing(self, tmp_path, brk):
        path = tmp_path / "models.txt"
        models = [model_of(np.eye(3), "spk00", "M"), model_of(np.eye(3), f"spk{brk}01", "F")]
        with pytest.raises(InvariantViolation):
            save_models(path, models)
        assert not path.exists()

    @pytest.mark.parametrize("label", ["\ud800", "spk\udfff01"], ids=repr)
    def test_label_with_lone_surrogate_refused_before_writing(self, tmp_path, label):
        # The store is UTF-8, which cannot encode a surrogate code point.
        path = tmp_path / "models.txt"
        with pytest.raises(InvariantViolation, match="lone surrogate"):
            save_models(path, [model_of(np.eye(3), "spk00", "M"), model_of(np.eye(3), label)])
        assert not path.exists()

    @settings(max_examples=200, deadline=None)
    @given(
        labels=st.lists(
            st.text(st.one_of(st.sampled_from(LINE_BREAKS), st.characters()), max_size=10),
            min_size=1,
            max_size=3,
        )
    )
    def test_every_other_label_round_trips(self, tmp_path_factory, labels):
        path = tmp_path_factory.getbasetemp() / "labels.txt"
        path.unlink(missing_ok=True)
        models = [model_of(np.eye(3) * (i + 1), label) for i, label in enumerate(labels)]
        if (any(ch in self.LINE_BREAKS or "\ud800" <= ch <= "\udfff"
                for label in labels for ch in label)
                or len(set(labels)) < len(labels)):
            with pytest.raises(InvariantViolation):
                save_models(path, models)
            assert not path.exists()
        else:
            save_models(path, models)
            assert [m.label for m in load_models(path)] == labels
