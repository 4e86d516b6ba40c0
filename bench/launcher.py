"""Starts the benchmark's child processes and reports their rusage.

The benchmark runs this script as a helper; it is not run by hand.  On
Linux, a child's peak RSS as ``os.wait4`` reports it includes the peak
RSS of the process that spawned it, because exec records the high-water
mark of the address space it replaces.  The benchmark process grows
while it checks outputs, so children are spawned from this small process
instead, and their reported peak is their own.

Protocol: one JSON request per input line, ``{"argv", "stdout",
"stderr", "timeout_s"}``; one JSON reply per output line, ``{"code",
"wall_s", "cpu_s", "rss_kib"}``.  Exits at the end of its input.
"""

import json
import os
import subprocess
import sys
import threading
from time import perf_counter


def run(request: dict) -> dict:
    with open(request["stdout"], "wb") as out, \
            open(request["stderr"], "wb") as err:
        begin = perf_counter()
        proc = subprocess.Popen(request["argv"], stdout=out, stderr=err)
        watchdog = threading.Timer(request["timeout_s"], proc.kill)
        watchdog.start()
        try:
            _pid, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
        wall = perf_counter() - begin
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {"code": proc.returncode, "wall_s": wall,
            "cpu_s": usage.ru_utime + usage.ru_stime,
            "rss_kib": usage.ru_maxrss}


def main():
    for line in sys.stdin:
        print(json.dumps(run(json.loads(line))), flush=True)


if __name__ == "__main__":
    main()
