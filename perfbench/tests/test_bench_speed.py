import signal
import time

import pytest

from vmbench.speed import MIN_SAMPLES, NOMINAL_S, SpeedProbe, reference_kernel


def test_clock_stops_while_the_kernel_runs():
    probe = SpeedProbe(kernel=lambda: time.sleep(0.05))
    t0 = probe.clock()
    probe._tick()
    assert probe.clock() - t0 < 0.04
    assert probe.paused >= 0.05
    assert len(probe.samples) == 1


def test_factor_is_nominal_over_the_mean_kernel_time():
    probe = SpeedProbe()
    probe.samples = [NOMINAL_S * 2] * MIN_SAMPLES + [NOMINAL_S / 2] * MIN_SAMPLES
    assert probe.factor(0, MIN_SAMPLES) == pytest.approx(0.5)
    assert probe.factor(MIN_SAMPLES, 2 * MIN_SAMPLES) == pytest.approx(2.0)
    assert probe.factor(0, 2 * MIN_SAMPLES) == pytest.approx(NOMINAL_S / (1.25 * NOMINAL_S))


def test_a_short_span_is_widened_to_min_samples_around_it():
    probe = SpeedProbe()
    assert MIN_SAMPLES == 12
    probe.samples = [1.0] * 10 + [2.0] * 4 + [1.0] * 10
    # 4 samples of 2.0 widen by 4 on each side: 8 of 1.0 and 4 of 2.0.
    assert probe.factor(10, 14) == pytest.approx(NOMINAL_S / (16.0 / 12))
    # At the start the span can only grow to the right, to samples[0:12].
    assert probe.factor(0, 0) == pytest.approx(NOMINAL_S / (14.0 / 12))
    assert probe.factor(0, 10) == probe.factor(0, 0)


def test_factor_at_reads_the_samples_nearest_in_time():
    probe = SpeedProbe()
    probe.times = [float(t) for t in range(40)]
    probe.samples = [1.0] * 20 + [2.0] * 20
    assert probe.factor_at(5.5) == pytest.approx(NOMINAL_S / 1.0)
    assert probe.factor_at(34.5) == pytest.approx(NOMINAL_S / 2.0)
    # Straddling the change: 6 samples on each side.
    assert probe.factor_at(19.5) == pytest.approx(NOMINAL_S / 1.5)


def test_too_few_samples_is_an_error():
    probe = SpeedProbe()
    probe.samples = [1.0] * (MIN_SAMPLES - 1)
    with pytest.raises(RuntimeError):
        probe.factor(0, 1)


def test_entered_probe_samples_on_a_timer_and_restores_the_handler():
    before = signal.getsignal(signal.SIGALRM)
    probe = SpeedProbe(rate_hz=50)
    with probe:
        deadline = time.perf_counter() + 0.3
        while time.perf_counter() < deadline and len(probe.samples) < 5:
            sum(range(1000))
    assert len(probe.samples) >= 5
    assert probe.cpu_spent == pytest.approx(sum(probe.samples))
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert signal.getsignal(signal.SIGALRM) is before


def test_reference_kernel_is_deterministic():
    assert reference_kernel() == reference_kernel()
