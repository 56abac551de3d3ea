"""Line tracer for ``tools/reach.py``: imported by every interpreter that
has this directory on ``PYTHONPATH``.

Records ``(file, line)`` of every line executed in a frame whose code lives
under ``$TRACE_ROOT`` (a function's ``def`` line is its call event) and
writes them to ``$TRACE_OUT/hits-<pid>.tsv`` when the process exits; the
``(file, first line)`` of every code object called there (its first
decorator's line, or its ``def`` line) goes to ``calls-<pid>.tsv``.
"""

import atexit
import os
import sys
import threading

_ROOT, _OUT = os.environ["TRACE_ROOT"], os.environ["TRACE_OUT"]
_hits, _calls = set(), set()


def _line(frame, event, arg):
    if event == "line":
        _hits.add((frame.f_code.co_filename, frame.f_lineno))
    return _line


def _call(frame, event, arg):
    code = frame.f_code
    if code.co_filename.startswith(_ROOT):
        _hits.add((code.co_filename, frame.f_lineno))
        _calls.add((code.co_filename, code.co_firstlineno))
        return _line


def _dump(*_):
    for kind, rows in (("hits", _hits), ("calls", _calls)):
        with open(os.path.join(_OUT, f"{kind}-{os.getpid()}.tsv"), "w") as f:
            f.writelines(f"{name}\t{line}\n" for name, line in rows)


sys.settrace(_call)
threading.settrace(_call)
atexit.register(_dump)
# Forked children leave by os._exit, which runs no atexit hook.
import multiprocessing.util as _mpu  # noqa: E402

_exit = _mpu._exit_function
_mpu._exit_function = lambda *a, **k: (_dump(), _exit(*a, **k))[1]
