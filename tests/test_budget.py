"""The wall-clock budget conftest.py gives every test."""
import signal

import pytest

from conftest import TEST_SECONDS


def test_every_test_runs_under_its_budget(request):
    left, interval = signal.getitimer(signal.ITIMER_REAL)
    assert 0 < left <= TEST_SECONDS and interval == 0
    expired = signal.getsignal(signal.SIGALRM)
    with pytest.raises(AssertionError) as failure:
        expired(signal.SIGALRM, None)
    assert str(failure.value) == (f"{request.node.nodeid} still running "
                                  f"after {TEST_SECONDS} s")
