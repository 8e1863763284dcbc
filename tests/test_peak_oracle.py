"""Property tests for the one-pass peak and region finder.

``analyse_pitch`` finds every frame's peaks and regions of influence in one
pass over the frame stack: ``_peak_mask`` marks the peaks and ``_partition``
bounds their regions. Both take any bin count, and together they must agree
byte for byte with the per-frame loop frozen in ``peak_reference.py``, with
no region exactly where a frame has no peak.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from voicemask import phase_vocoder

import peak_reference

# A few magnitude levels make ties and plateaus common; the four unit phases
# keep every magnitude exact, so a tie in the draw is a tie in np.abs.
LEVELS = st.sampled_from([0.0, 1.0, 2.0, 3.0])
UNITS = np.array([1.0, 1j, -1.0, -1j])


@st.composite
def stacks(draw, bin_counts, max_frames=12):
    """A complex (n_frames, n_bins) stack with small-integer magnitudes.

    Some frames are all zeros or one constant level.
    """
    n_frames = draw(st.integers(1, max_frames))
    n_bins = draw(st.sampled_from(bin_counts))
    mags = draw(hnp.arrays(np.float64, (n_frames, n_bins), elements=LEVELS))
    kind = st.sampled_from(["levels", "levels", "zero", "constant"])
    for row, row_kind in enumerate(draw(st.lists(kind, min_size=n_frames, max_size=n_frames))):
        if row_kind == "zero":
            mags[row] = 0.0
        elif row_kind == "constant":
            mags[row] = draw(LEVELS)
    phases = draw(hnp.arrays(np.intp, mags.shape, elements=st.integers(0, 3)))
    return mags * UNITS[phases]


@st.composite
def peak_sets(draw, n_bins):
    """A strictly increasing peak set with at least one bin between neighbors."""
    first = draw(st.integers(0, n_bins - 1))
    steps = draw(st.lists(st.integers(2, 12), max_size=n_bins // 2))
    return np.array([p for p in np.cumsum([first, *steps]) if p < n_bins])


def assert_same(got, want):
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


class TestAnalysePitchMatchesPerFrameLoop:
    @settings(max_examples=300, deadline=None)
    @given(frames=stacks((5, 9, 17, 33)))
    def test_partitions_byte_equal(self, frames):
        # The stack pass of analyse_pitch: frame t's regions are the rows
        # after those of the peaks of frames 0..t-1.
        mag = np.abs(frames)
        is_peak = phase_vocoder._peak_mask(mag)
        regions = phase_vocoder._partition(mag, is_peak)
        bounds = np.cumsum([0, *is_peak.sum(axis=1)])
        assert bounds[-1] == len(regions)
        want = peak_reference.partitions(frames, 2)
        for t, expected in enumerate(want):
            got = regions[bounds[t] : bounds[t + 1]]
            if expected is None:
                assert got.size == 0
            else:
                assert_same(got, expected)


class TestOneFrameCase:
    @settings(max_examples=300, deadline=None)
    @given(frames=stacks(range(1, 65), max_frames=1))
    def test_peaks_byte_equal(self, frames):
        # Frames of 1 and 2 bins have no interior bin, so no peak.
        mag = np.abs(frames)
        want = peak_reference.detect_peaks(mag[0], 2)
        assert_same(np.flatnonzero(phase_vocoder._peak_mask(mag)), want)

    @settings(max_examples=300, deadline=None)
    @given(data=st.data(), frames=stacks(range(5, 65), max_frames=1))
    def test_regions_of_any_peak_set_byte_equal(self, data, frames):
        mag = np.abs(frames)
        peaks = data.draw(peak_sets(mag.shape[1]))
        is_peak = np.zeros(mag.shape, dtype=bool)
        is_peak[0, peaks] = True
        want = peak_reference.regions_of_influence(mag[0], peaks)
        assert_same(phase_vocoder._partition(mag, is_peak), want)


# Marked peaks per row of a 17-bin stack: each gap closes at the next peak of
# its row, found by ranking the gap's candidates among all the stack's peaks.
CLOSING_LAYOUTS = {
    "one peak": [[8]],
    "two peaks": [[3, 12]],
    "many peaks": [[0, 2, 5, 9, 11, 16]],
    "rows of 1, 2 and many peaks": [[8], [], [3, 12], [0, 2, 5, 9, 11, 16], [], [16], [0]],
}


class TestClosingPeaks:
    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("layout", list(CLOSING_LAYOUTS))
    def test_partition_of_marked_rows_byte_equal(self, layout, seed):
        # Magnitudes of four levels make ties inside gaps common.
        rows = CLOSING_LAYOUTS[layout]
        mag = np.random.default_rng(seed).integers(0, 4, (len(rows), 17)).astype(float)
        is_peak = np.zeros(mag.shape, dtype=bool)
        for t, peaks in enumerate(rows):
            is_peak[t, peaks] = True
        want = [peak_reference.regions_of_influence(m, p) for m, p in zip(mag, rows) if p]
        assert_same(phase_vocoder._partition(mag, is_peak), np.concatenate(want))
