"""Starts the benchmark's ops from a process too small to lend them its memory peak.

Linux carries the parent's peak resident set into a child's ``ru_maxrss``
across ``exec``, so an op started by ``run.py`` — which has simulated the
inputs in-process — would report the harness's peak, not its own.  This
helper imports nothing heavy (~10 MB), so the ``ru_maxrss`` it reads back is
the op's.  It also times the op, as close to spawn and exit as can be had.

Protocol: one JSON request per line on stdin, ``{"argv", "stdout", "timeout"}``;
one JSON reply per line on stdout, ``{"wall", "cpu", "peak_rss_mb", "returncode",
"exited"}`` (``exited`` is the epoch time of the exit, to set against the
modification time of what the op wrote).  Ends when stdin closes.
"""

import json
import os
import signal
import subprocess
import sys
import threading
import time


def _kill_group(pid: int) -> None:
    try:
        os.killpg(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def run(argv: list, stdout: str, timeout: float) -> dict:
    with open(stdout, "wb") as sink:
        started = time.perf_counter()
        # Its own session, so a timeout can take the pool workers down too.
        proc = subprocess.Popen(argv, stdout=sink, start_new_session=True)
        killer = threading.Timer(timeout, _kill_group, (proc.pid,))
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        wall, exited = time.perf_counter() - started, time.time()
    proc.returncode = os.waitstatus_to_exitcode(status)  # reaped above, not by Popen
    return {"wall": wall, "cpu": usage.ru_utime + usage.ru_stime,
            "peak_rss_mb": usage.ru_maxrss / 1024.0, "returncode": proc.returncode,
            "exited": exited}


if __name__ == "__main__":
    for line in sys.stdin:
        print(json.dumps(run(**json.loads(line))), flush=True)
