"""The traffic counter: log the first call of every code object under a root.

``run.py`` installs this file as ``usercustomize`` (through ``PYTHONUSERBASE``,
which survives the ``PYTHONPATH`` override of ``bench/run.py``), so every
interpreter of a traced command loads it before the command's first line.
One line per code object, ``file:qualname``, appended with ``O_APPEND``: a
forked pool worker inherits the descriptor and the seen-set, a spawned one
starts its own, and every thread gets the hook from ``threading.setprofile``.
"""

import os
import sys
import threading

_LOG = os.environ.get("REPRO_TRAFFIC_LOG")
_ROOT = os.environ.get("REPRO_TRAFFIC_ROOT", "")

if _LOG:
    _fd = os.open(_LOG, os.O_WRONLY | os.O_APPEND | os.O_CREAT, 0o644)
    _seen = set()

    def _hook(frame, event, arg):
        if event != "call":
            return
        code = frame.f_code
        if code in _seen:
            return
        _seen.add(code)
        if code.co_filename.startswith(_ROOT):
            os.write(_fd, f"{code.co_filename}:{code.co_qualname}\n".encode())

    threading.setprofile(_hook)
    sys.setprofile(_hook)
