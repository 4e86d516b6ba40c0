"""One forked worker beside this process, sharing the work of a sequence.

``cli`` renders every trajectory's odd chunks in one (an exact chunk is
made only by the process that renders it) and labels the odd chunks of
``classify``'s and ``invariants``' points, and ``verify`` runs three of
its four float RK4 runs in one, all through ``shared``, where
``second_core`` holds.  It is forked, not spawned: a new interpreter
costs more to start than the work it would take.
"""

from __future__ import annotations

import marshal
import os
import sys
import threading
from contextlib import contextmanager
from itertools import chain, islice
from typing import Callable, Iterator


def second_core() -> bool:
    """Whether a forked worker can run beside this process: ``os.fork``
    exists, the process may run on two CPUs or more, and it has no other
    thread (a fork copies only the calling thread)."""
    return (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")
            and len(os.sched_getaffinity(0)) > 1
            and threading.active_count() == 1)


@contextmanager
def shared(items: Iterator, work: Callable, theirs: Callable[[int], bool],
           lost: str):
    """Yields an iterator of ``work(item)`` for each of ``items``, in order.

    Where ``second_core`` holds and the first two items include one that
    ``theirs(index)`` gives away, a worker forked here continues through
    ``items`` (the fork copies the iterator) and sends back the result of
    each item it takes, as one marshal frame (``_serve``); this process
    does the work of the others as the results are read.  A worker that
    ends before its last frame is ``ChildProcessError(lost)``.  On the way
    out the pipe is closed, which ends a worker still writing, and the
    worker is reaped.
    """
    head = list(islice(items, 2)) if second_core() else []
    items = chain(head, items)
    if not any(map(theirs, range(len(head)))):
        yield map(work, items)
        return
    read_end, write_end = os.pipe()
    pid = os.fork()
    if not pid:  # the worker; it never returns
        code = 2
        try:
            os.close(read_end)
            _serve(write_end, items, work, theirs)
            code = 0
        except (BrokenPipeError, KeyboardInterrupt):
            pass  # the reader stopped reading, or was interrupted too
        except BaseException:
            sys.excepthook(*sys.exc_info())
        finally:
            os._exit(code)
    os.close(write_end)
    try:
        with open(read_end, "rb") as pipe:
            yield (_read_frame(pipe, lost) if theirs(index) else work(item)
                   for index, item in enumerate(items))
    finally:
        os.waitpid(pid, 0)


def _serve(write_end: int, items: Iterator, work: Callable,
           theirs: Callable[[int], bool]):
    """The worker's loop: a frame on ``write_end`` for each item that
    ``theirs`` gives it, ``marshal.dumps(work(item))`` after its 4-byte
    little-endian length."""
    with open(write_end, "wb") as pipe:
        for index, item in enumerate(items):
            if theirs(index):
                data = marshal.dumps(work(item))
                pipe.write(len(data).to_bytes(4, "little") + data)
                pipe.flush()


def _read_frame(pipe, lost: str):
    """The value of the next frame; ``ChildProcessError(lost)`` where the
    pipe ends before it."""
    head = pipe.read(4)
    size = int.from_bytes(head, "little")
    data = pipe.read(size)
    if len(head) == 4 and len(data) == size:
        return marshal.loads(data)
    raise ChildProcessError(lost)
