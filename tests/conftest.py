"""Fixtures for the tests that fork: a bounded wait and a fork counter."""

import os
import signal

import pytest

DEADLINE_S = 60


@pytest.fixture
def deadline():
    """Fail a test that runs longer than DEADLINE_S (main thread only)."""
    def expire(_signum, _frame):
        raise TimeoutError(f"test ran over {DEADLINE_S} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, DEADLINE_S)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


@pytest.fixture
def forks(monkeypatch):
    """Counts the os.fork calls made in this process."""
    calls = []
    real_fork = os.fork

    def counted():
        calls.append(None)
        return real_fork()

    monkeypatch.setattr(os, "fork", counted)
    return calls
