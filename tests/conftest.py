"""Suite-wide checks for the tests in this directory."""

import threading

import pytest


@pytest.fixture(autouse=True)
def no_thread_outlives_the_test():
    """Fail a test that leaves a thread running which it did not find.

    Library calls that use threads (``signal_core._split_rows``'s helper,
    ``synth_corpus``'s render pool) join them before they return, so a
    process can fork after any call without copying a half-finished thread.
    """
    before = set(threading.enumerate())
    yield
    left = [t.name for t in threading.enumerate() if t not in before and t.is_alive()]
    assert not left, f"threads still alive after the test: {left}"
