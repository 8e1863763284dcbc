import pytest

from vmbench.stats import (
    MIN_BEYOND,
    TooFewSamples,
    min_samples,
    percentile,
    relative_iqr,
    samples_beyond,
)


class TestPercentileRule:
    def test_p90_needs_one_hundred_samples(self):
        assert min_samples(0.9) == 100
        assert samples_beyond(100, 0.9) == MIN_BEYOND
        assert samples_beyond(99, 0.9) < MIN_BEYOND

    def test_refuses_p90_with_too_few_samples_beyond(self):
        with pytest.raises(TooFewSamples):
            percentile(range(99), 0.9)

    def test_nearest_rank_values(self):
        samples = list(range(1, 101))  # 1..100
        assert percentile(samples, 0.9) == 90
        assert percentile(samples, 0.5) == 50
        assert percentile(reversed(samples), 0.9) == 90

    def test_p50_needs_twenty_samples(self):
        assert min_samples(0.5) == 20
        with pytest.raises(TooFewSamples):
            percentile(range(19), 0.5)

    def test_relative_iqr(self):
        assert relative_iqr([10.0] * 10) == 0.0
        assert relative_iqr([1.0, 2.0, 3.0, 4.0, 5.0]) == pytest.approx((4.5 - 1.5) / 3.0)
