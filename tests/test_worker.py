"""``worker.shared``: the results in order whoever does the work, a fork
only where the worker has an item among the first two, and no child or
descriptor left on any way out.

Every wait is bounded by the ``deadline`` fixture's timer (``conftest``).
"""

import os
import sys
from itertools import islice

import pytest

from aristotle_orbits import worker
from aristotle_orbits.worker import shared

LINUX = sys.platform.startswith("linux")
LOST = "the worker ended before its last result"
SPLITS = {"odd": lambda index: index % 2,
          "all-but-the-first": lambda index: index > 0,
          "the-first": lambda index: index == 0,
          "none": lambda index: False}


def _cpus(monkeypatch, count: int):
    monkeypatch.setattr(os, "sched_getaffinity",
                        lambda _pid: set(range(count)), raising=False)


def _work(item: int) -> tuple:
    """The item, a value made from it, and the process that made it."""
    return item, f"{item * item}", os.getpid()


def _no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _open_fds() -> int:
    return len(os.listdir("/proc/self/fd"))


@pytest.mark.parametrize("count", [0, 1, 2, 3, 1000])
@pytest.mark.parametrize("split", SPLITS.values(), ids=SPLITS.keys())
@pytest.mark.parametrize("cpus", [1, 2])
def test_results_come_back_in_order(monkeypatch, deadline, forks, cpus,
                                    split, count):
    _cpus(monkeypatch, cpus)
    with shared(iter(range(count)), _work, split, LOST) as results:
        got = list(results)
    assert [(item, text) for item, text, _pid in got] == [
        (item, f"{item * item}") for item in range(count)]
    # a worker only with a second CPU and an item of its own among the
    # first two; then it did exactly the items it was given
    forked = cpus == 2 and any(map(split, range(min(count, 2))))
    assert len(forks) == forked
    if forked:
        assert [pid != os.getpid() for _item, _text, pid in got] == [
            bool(split(index)) for index in range(count)]
    else:
        assert {pid for _item, _text, pid in got} <= {os.getpid()}
    _no_child_left()


@pytest.mark.parametrize("theirs, count", [
    (lambda index: index >= 2, 10),  # the worker's items come later
    (lambda index: index % 2, 1),  # there is no second item
])
def test_no_fork_without_a_worker_item_among_the_first_two(
        monkeypatch, deadline, forks, theirs, count):
    _cpus(monkeypatch, 2)
    with shared(iter(range(count)), _work, theirs, LOST) as results:
        got = list(results)
    assert forks == []
    assert [item for item, _text, _pid in got] == list(range(count))
    assert {pid for _item, _text, pid in got} == {os.getpid()}


def test_no_fork_beside_another_thread(monkeypatch, deadline, forks):
    _cpus(monkeypatch, 2)
    monkeypatch.setattr(worker.threading, "active_count", lambda: 2)
    with shared(iter(range(10)), _work, SPLITS["odd"], LOST) as results:
        assert len(list(results)) == 10
    assert forks == []


def _dies(*_args):
    os._exit(3)


def _dies_mid_frame(write_end, *_args):
    os.write(write_end, (1000).to_bytes(4, "little") + b"\x00")
    os._exit(3)


def _raises(item: int) -> tuple:
    if item == 5:
        raise RuntimeError("the work broke")
    return _work(item)


@pytest.mark.skipif(not LINUX, reason="counts /proc/self/fd")
@pytest.mark.parametrize("death", [_dies, _dies_mid_frame])
def test_a_dead_worker_is_child_process_error_and_is_reaped(
        monkeypatch, deadline, forks, death):
    _cpus(monkeypatch, 2)
    monkeypatch.setattr(worker, "_serve", death)
    before = _open_fds()
    got = []
    with pytest.raises(ChildProcessError, match=f"^{LOST}$"):
        with shared(iter(range(10)), _work, SPLITS["odd"], LOST) as results:
            got.extend(results)
    # this process's first item came back; the worker's first never did
    assert [item for item, _text, _pid in got] == [0]
    assert len(forks) == 1
    _no_child_left()
    assert _open_fds() == before


@pytest.mark.skipif(not LINUX, reason="counts /proc/self/fd")
def test_work_that_raises_in_the_worker_is_child_process_error(
        monkeypatch, capfd, deadline, forks):
    _cpus(monkeypatch, 2)
    before = _open_fds()
    got = []
    with pytest.raises(ChildProcessError, match=f"^{LOST}$"):
        with shared(iter(range(10)), _raises, SPLITS["odd"], LOST) as results:
            got.extend(results)
    assert [item for item, _text, _pid in got] == [0, 1, 2, 3, 4]
    # the worker reported what it raised on its own standard error
    assert "RuntimeError: the work broke" in capfd.readouterr().err
    _no_child_left()
    assert _open_fds() == before


@pytest.mark.skipif(not LINUX, reason="counts /proc/self/fd")
@pytest.mark.parametrize("cpus", [1, 2])
def test_a_consumer_that_stops_early_leaves_no_child_and_no_fd(
        monkeypatch, deadline, forks, cpus):
    _cpus(monkeypatch, cpus)
    before = _open_fds()
    with shared(iter(range(100000)), _work, SPLITS["odd"], LOST) as results:
        assert [item for item, _text, _pid in islice(results, 3)] == [0, 1, 2]
    with pytest.raises(KeyError):
        with shared(iter(range(100000)), _work, SPLITS["odd"], LOST) as rest:
            next(rest)
            raise KeyError("the consumer broke")
    assert len(forks) == 2 * (cpus - 1)
    _no_child_left()
    assert _open_fds() == before
