"""The traffic counter: log the first call of every code object under a root,
and the first execution of each of its lines.

``run.py`` installs this file as ``usercustomize`` (through ``PYTHONUSERBASE``,
which survives the ``PYTHONPATH`` override of ``bench/run.py``), so every
interpreter of a traced command loads it before the command's first line.
One line per code object, ``file:qualname``, appended with ``O_APPEND``: a
forked pool worker inherits the descriptor and the seen-set, a spawned one
starts its own, and every thread gets the hook from ``threading.setprofile``.

With ``REPRO_TRAFFIC_LINES`` set, a ``sys.settrace`` / ``threading.settrace``
hook also logs each executed line once, ``file:lineno`` with the file
relative to the root.  A code object is traced until every line its
``co_lines()`` names has run, and not after, so the cost falls on the code
that still has lines to see.
"""

import os
import sys
import threading

_LOG = os.environ.get("REPRO_TRAFFIC_LOG")
_LINES = os.environ.get("REPRO_TRAFFIC_LINES")
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

if _LINES:
    _lines_fd = os.open(_LINES, os.O_WRONLY | os.O_APPEND | os.O_CREAT, 0o644)
    _done = set()  # code objects outside the root, or with every line seen
    _todo = {}  # code object -> its lines not yet seen

    def _line(frame, event, arg):
        if event != "line":
            return _line
        code = frame.f_code
        todo = _todo.get(code)
        if todo is None:  # finished in another frame of the same code
            return None
        lineno = frame.f_lineno
        if lineno in todo:
            todo.discard(lineno)
            os.write(_lines_fd, f"{code.co_filename[len(_ROOT):]}:{lineno}\n".encode())
            if not todo:
                _todo.pop(code, None)  # two threads may finish one code object
                _done.add(code)
                return None
        return _line

    def _call(frame, event, arg):
        code = frame.f_code
        if code in _done:
            return None
        if code not in _todo:
            if not code.co_filename.startswith(_ROOT):
                _done.add(code)
                return None
            # The ``def`` line only runs its RESUME, which raises no line event.
            lines = {line for _, _, line in code.co_lines() if line is not None}
            lines.discard(code.co_firstlineno)
            if not lines:
                _done.add(code)
                return None
            _todo[code] = lines
        return _line

    threading.settrace(_call)
    sys.settrace(_call)
