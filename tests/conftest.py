"""Every test runs under a wall-clock budget, so a hang fails the one test
that hangs, by name, instead of stalling the suite.

The budget is a `SIGALRM` `setitimer`.  A test that sets a timer of its
own (`test_properties._exit_code` does, per example) restores this one's
remaining time when it is done.  The slowest test takes about 4 s.
"""
import signal

import pytest

TEST_SECONDS = 60


@pytest.fixture(autouse=True)
def time_budget(request):
    def expired(signum, frame):
        raise AssertionError(
            f"{request.node.nodeid} still running after {TEST_SECONDS} s")

    handler = signal.signal(signal.SIGALRM, expired)
    signal.setitimer(signal.ITIMER_REAL, TEST_SECONDS)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, handler)
