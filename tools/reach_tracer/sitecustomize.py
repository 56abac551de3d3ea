"""Line tracer for ``tools/reach.py``: imported by every interpreter that
has this directory on ``PYTHONPATH``.

Records ``(file, line)`` of every line executed in a frame whose code lives
under ``$TRACE_ROOT`` (a function's ``def`` line is its call event) and
writes them to ``$TRACE_OUT/hits-<pid>.tsv`` when the process exits.
"""

import atexit
import os
import sys
import threading

_ROOT, _OUT = os.environ["TRACE_ROOT"], os.environ["TRACE_OUT"]
_hits = set()


def _line(frame, event, arg):
    if event == "line":
        _hits.add((frame.f_code.co_filename, frame.f_lineno))
    return _line


def _call(frame, event, arg):
    if frame.f_code.co_filename.startswith(_ROOT):
        _hits.add((frame.f_code.co_filename, frame.f_lineno))
        return _line


def _dump(*_):
    with open(os.path.join(_OUT, f"hits-{os.getpid()}.tsv"), "w") as f:
        f.writelines(f"{name}\t{line}\n" for name, line in _hits)


sys.settrace(_call)
threading.settrace(_call)
atexit.register(_dump)
# Forked children leave by os._exit, which runs no atexit hook.
import multiprocessing.util as _mpu  # noqa: E402

_exit = _mpu._exit_function
_mpu._exit_function = lambda *a, **k: (_dump(), _exit(*a, **k))[1]
