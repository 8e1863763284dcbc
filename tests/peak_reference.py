"""Frozen per-frame peak and region finder, kept as a test oracle.

This is the frame-by-frame form of the peak and region-of-influence steps:
``detect_peaks`` compares each bin with its neighbors, and
``regions_of_influence`` finds each gap's lowest bin with a segmented
``reduceat``. The library finds every frame's peaks and regions in one pass
over the frame stack; ``test_peak_oracle.py`` requires byte-equal
partitions from both.
"""

import numpy as np


def detect_peaks(mag, neighbor_span):
    n = mag.size
    half = neighbor_span // 2
    if n < 2 * half + 1:
        return np.empty(0, dtype=np.intp)
    core = mag[half : n - half]
    is_peak = np.ones(n - 2 * half, dtype=bool)
    for off in range(1, half + 1):
        is_peak &= core > mag[half - off : n - half - off]
        is_peak &= core > mag[half + off : n - half + off]
    return np.flatnonzero(is_peak) + half


def regions_of_influence(mag, peaks):
    peaks = np.asarray(peaks, dtype=np.intp)
    n = mag.size
    regions = np.empty((peaks.size, 3), dtype=np.intp)
    regions[:, 0] = peaks
    if peaks.size > 1:
        starts = peaks[:-1] + 1
        ends = peaks[1:]
        lens = ends - starts
        bounds = np.empty(2 * starts.size, dtype=np.intp)
        bounds[0::2] = starts
        bounds[1::2] = ends
        gap_min = np.minimum.reduceat(mag, bounds)[0::2]
        seg = np.repeat(np.arange(lens.size), lens)
        offsets = np.arange(lens.sum()) - np.repeat(np.cumsum(lens) - lens, lens)
        positions = np.repeat(starts, lens) + offsets
        hit = np.flatnonzero(mag[positions] == gap_min[seg])
        first = np.searchsorted(seg[hit], np.arange(lens.size))
        boundaries = positions[hit[first]]
        regions[:-1, 2] = boundaries
        regions[1:, 1] = boundaries + 1
    regions[0, 1] = 0
    regions[-1, 2] = n - 1
    return regions


def partitions(frames, neighbor_span):
    """Each frame's (peak, lo, hi) rows, or None where it has no peak."""
    out = []
    for mag in np.abs(frames):
        peaks = detect_peaks(mag, neighbor_span)
        out.append(regions_of_influence(mag, peaks) if peaks.size else None)
    return out
