"""Call and line tracer for ``tools/reach.py``: imported by every interpreter
that has this directory on ``PYTHONPATH``.

Records ``(file, line)`` of every line executed in a frame whose code lives
under ``$TRACE_ROOT`` (a function's ``def`` line is its call event) and
writes them to ``$TRACE_OUT/hits-<pid>.tsv`` when the process exits; the
``(file, first line)`` of every code object called there (its first
decorator's line, or its ``def`` line) goes to ``calls-<pid>.tsv``.

``$TRACE_OUT/trace.json``, when present, holds ``{"lines": bool, "knobs":
{file: {key: [parameter, ...]}}}``.  Without lines only calls are traced,
and ``hits`` holds the call lines.  ``knobs`` lists the defaulted
parameters to watch; ``key`` is a function's first line, or a dataclass's
qualified name for the ``__init__`` the dataclass generates.
Each distinct value a call binds to a watched parameter goes to
``knobs-<pid>.tsv`` as ``file, key, parameter, value``: the ``repr`` of a
setting (``None``, a bool, an int, a float, a str, or a tuple of these;
numpy scalars as their Python value), ``<type name>`` of any other value.
"""

import atexit
import json
import os
import sys
import threading

_ROOT, _OUT = os.environ["TRACE_ROOT"], os.environ["TRACE_OUT"]
_settings = {"lines": True, "knobs": {}}
if os.path.exists(os.path.join(_OUT, "trace.json")):
    with open(os.path.join(_OUT, "trace.json")) as f:
        _settings.update(json.load(f))
_LINES = _settings["lines"]
_hits, _calls, _knobs = set(), set(), set()
_watch = {
    (_file, int(_key) if _key.isdigit() else _key): tuple(_names)
    for _file, _keys in _settings["knobs"].items()
    for _key, _names in _keys.items()
}
#: code object -> (file, key, watched parameters), or None when it binds none.
_bindings = {}


def _setting(value):
    """``repr`` of ``value`` when it is a setting, else ``None``."""
    if getattr(value, "shape", None) == () and hasattr(value, "item"):
        value = value.item()  # a numpy scalar
    if value is None or isinstance(value, (bool, int, float, str)):
        return repr(value)
    if type(value) is tuple:
        items = [_setting(item) for item in value]
        if None not in items:
            return "(" + ", ".join(items) + ("," if len(items) == 1 else "") + ")"
    return None


def _generated_init(frame, code):
    """``(module file, class qualname)`` of the dataclass whose generated
    ``__init__`` is ``code``, or ``None``."""
    if code.co_name != "__init__" or not code.co_argcount:
        return None
    for cls in type(frame.f_locals[code.co_varnames[0]]).__mro__:
        if getattr(cls.__dict__.get("__init__"), "__code__", None) is code:
            module = sys.modules.get(cls.__module__)
            return getattr(module, "__file__", None) or "", cls.__qualname__
    return None


def _binding(frame, code):
    if code.co_filename.startswith(_ROOT):
        where = (code.co_filename, code.co_firstlineno)
    elif code.co_filename == "<string>":
        where = _generated_init(frame, code)
    else:
        where = None
    names = _watch.get(where)
    return (*where, names) if names else None


def _record(frame, code):
    if code not in _bindings:
        _bindings[code] = _binding(frame, code)
    binding = _bindings[code]
    if binding is not None:
        file, key, names = binding
        bound = frame.f_locals
        for name in names:
            if name in bound:
                value = bound[name]
                shown = _setting(value) or f"<{type(value).__qualname__}>"
                _knobs.add((file, key, name, shown))


def _line(frame, event, arg):
    if event == "line":
        _hits.add((frame.f_code.co_filename, frame.f_lineno))
    return _line


def _call(frame, event, arg):
    code = frame.f_code
    if _watch:
        _record(frame, code)
    if code.co_filename.startswith(_ROOT):
        _hits.add((code.co_filename, frame.f_lineno))
        _calls.add((code.co_filename, code.co_firstlineno))
        return _line if _LINES else None


def _dump(*_):
    for kind, rows in (("hits", _hits), ("calls", _calls), ("knobs", _knobs)):
        with open(os.path.join(_OUT, f"{kind}-{os.getpid()}.tsv"), "w") as f:
            f.writelines("\t".join(map(str, row)) + "\n" for row in rows)


sys.settrace(_call)
threading.settrace(_call)
atexit.register(_dump)
# Forked children leave by os._exit, which runs no atexit hook.
import multiprocessing.util as _mpu  # noqa: E402

_exit = _mpu._exit_function
_mpu._exit_function = lambda *a, **k: (_dump(), _exit(*a, **k))[1]
