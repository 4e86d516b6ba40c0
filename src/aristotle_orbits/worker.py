"""One forked worker beside this process, and the frames it sends back.

``cli`` renders a float trajectory's odd chunks in one and ``verify``
runs three of its float RK4 runs in one, where ``second_core`` holds.  It
is forked, not spawned: a new interpreter costs more to start than the
work it would take.
"""

from __future__ import annotations

import os
import sys
import threading
from contextlib import contextmanager
from typing import Callable


def second_core() -> bool:
    """Whether a forked worker can run beside this process: ``os.fork``
    exists, the process may run on two CPUs or more, and it has no other
    thread (a fork copies only the calling thread)."""
    return (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")
            and len(os.sched_getaffinity(0)) > 1
            and threading.active_count() == 1)


@contextmanager
def forked(work: Callable, *args):
    """A forked worker running ``work(write_end, *args)``; yields the binary
    pipe its frames arrive on.  On the way out the pipe is closed, which
    ends a worker still writing, and the worker is reaped.  The worker
    ends by ``os._exit``, with status 0 once ``work`` returns."""
    read_end, write_end = os.pipe()
    pid = os.fork()
    if not pid:  # the worker; it never returns
        code = 2
        try:
            os.close(read_end)
            work(write_end, *args)
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
            yield pipe
    finally:
        os.waitpid(pid, 0)


def write_frame(pipe, data: bytes):
    """``data`` as a frame: a 4-byte little-endian length, then the bytes."""
    pipe.write(len(data).to_bytes(4, "little"))
    pipe.write(data)
    pipe.flush()


def read_frame(pipe, lost: str) -> bytes:
    """The bytes of the next frame; ``ChildProcessError(lost)`` where the
    pipe ends before it."""
    head = pipe.read(4)
    size = int.from_bytes(head, "little")
    data = pipe.read(size)
    if len(head) == 4 and len(data) == size:
        return data
    raise ChildProcessError(lost)
