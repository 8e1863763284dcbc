from collections import Counter

from vmbench.plan import (
    CORPUS,
    Transform,
    deidentify_requests,
    probe_files,
    recognize_requests,
)


class TestSeededRequests:
    def test_one_seed_gives_identical_request_lists(self):
        assert deidentify_requests(5) == deidentify_requests(5)
        assert recognize_requests(5) == recognize_requests(5)

    def test_other_seed_gives_other_requests(self):
        assert deidentify_requests(5) != deidentify_requests(6)
        assert recognize_requests(5) != recognize_requests(6)

    def test_deidentify_mix(self):
        requests = deidentify_requests(3)
        assert len({r.file for r in requests}) == len(requests) == len(probe_files("deidentify"))
        pitch = [r for r in requests if r.variant is not None]
        warps = [r for r in requests if r.variant is None]
        assert len(pitch) == 3 * len(warps)
        assert [r.variant for r in pitch[:4]] == ["identity-locked", "loose"] * 2
        mix = Counter((r.algorithm, r.variant) for r in requests)
        each_pitch, each_warp = len(pitch) // 4, len(warps) // 2
        assert mix == {
            ("voc", "identity-locked"): each_pitch, ("voc", "loose"): each_pitch,
            ("vocf", "identity-locked"): each_pitch, ("vocf", "loose"): each_pitch,
            ("quadratic", None): each_warp, ("bilinear", None): each_warp,
        }

    def test_deidentify_degrees_spread_evenly_whatever_the_seed(self):
        spread = sorted(r.degree for r in deidentify_requests(3))
        assert spread == sorted(r.degree for r in deidentify_requests(4))
        assert spread[0] == 1 and spread[-1] == 25

    def test_warp_requests_carry_the_file_gender(self):
        request = next(r for r in deidentify_requests(3) if r.variant is None)
        argv = request.argv("in.wav", "out.wav")
        assert argv[argv.index("--gender") + 1] == request.file.gender
        assert "--variant" not in argv

    def test_recognize_alternates_and_covers_every_file_under_both_commands(self):
        requests = recognize_requests(2)
        commands = [r.command for r in requests]
        assert sum(a != b for a, b in zip(commands, commands[1:])) >= len(commands) - 2
        per_file = Counter((r.file.name, r.command) for r in requests)
        assert set(per_file.values()) == {1}
        assert len(per_file) == 2 * CORPUS["recognize"][0]


class TestProbeFiles:
    def test_matches_synth_layout(self):
        files = probe_files("deidentify")
        speakers, utts = CORPUS["deidentify"]
        assert len(files) == speakers * (utts - 1)
        assert files[0].name == "spk00_u01.wav" and files[0].gender == "M"
        assert Counter(f.gender for f in files) == {"M": len(files) // 2, "F": len(files) // 2}

    def test_sweeps_have_at_least_four_test_files(self):
        assert len(probe_files("sweep-pitch")) >= 4
        assert isinstance(deidentify_requests(0)[0], Transform)
