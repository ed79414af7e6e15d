"""List the lines of src/eqcheck that no tier-1 test runs.

Run it from the repository root:

    PYTHONPATH=src python tests/trace_lines.py

It installs a ``sys.settrace`` hook before anything imports ``eqcheck``
(module-level lines run at import), runs the whole tier-1 suite in this
process (the count means nothing over a part of it), and then prints each
executable line of ``src/eqcheck/**/*.py`` that never ran, as
``path:line: source``, followed by the count. It uses only the standard
library. The exit status is pytest's. Tracing makes the suite about three
times slower, so a wall-clock budget in the acceptance tests may fail
under it where the untraced suite passes.
"""

import os
import sys
import types

ROOT = os.path.dirname(os.path.dirname(os.path.realpath(__file__)))
PACKAGE = os.path.join(ROOT, "src", "eqcheck")


def _code_lines(code):
    return {line for _, _, line in code.co_lines() if line}


def executable_lines(path):
    """Every line number that some code object compiled from path runs."""
    with open(path, encoding="utf-8") as handle:
        stack = [compile(handle.read(), path, "exec")]
    lines = set()
    while stack:
        code = stack.pop()
        lines |= _code_lines(code)
        stack.extend(c for c in code.co_consts
                     if isinstance(c, types.CodeType))
    return lines


def package_files():
    for folder, folders, files in os.walk(PACKAGE):
        folders.sort()
        for name in sorted(files):
            if name.endswith(".py"):
                yield os.path.join(folder, name)


def start_trace():
    """Install the trace; return {real path: its reached lines}, filled for
    the files of the package as the traced code runs."""
    reached = {}
    files = {}     # co_filename -> its reached lines, or None outside
    # id(code) -> (code, its line tracer, or None once every line ran);
    # holding code keeps its id from being reused
    tracers = {}

    def line_tracer(code, lines):
        left = _code_lines(code)

        def trace_line(frame, event, arg):
            if event == "line":
                line = frame.f_lineno
                if line in left:
                    lines.add(line)
                    left.discard(line)
                    if not left:  # code is done: stop tracing it
                        frame.f_trace_lines = False
                        tracers[id(code)] = (code, None)
            return trace_line
        return trace_line

    def trace_call(frame, event, arg):
        code = frame.f_code
        entry = tracers.get(id(code))
        if entry is None:
            name = code.co_filename
            if name not in files:
                real = os.path.realpath(name)
                files[name] = (reached.setdefault(real, set())
                               if real.startswith(PACKAGE + os.sep) else None)
            lines = files[name]
            entry = tracers[id(code)] = (
                code, None if lines is None else line_tracer(code, lines))
        return entry[1]

    sys.settrace(trace_call)
    return reached


def main():
    reached = start_trace()
    try:
        import pytest
        status = pytest.main(["-q", "--continue-on-collection-errors"])
    finally:
        sys.settrace(None)
    total = 0
    unreached = []
    for path in package_files():
        lines = executable_lines(path)
        total += len(lines)
        missing = sorted(lines - reached.get(os.path.realpath(path), set()))
        if missing:
            with open(path, encoding="utf-8") as handle:
                source = handle.read().splitlines()
            shown = os.path.relpath(path, ROOT)
            unreached += [f"{shown}:{n}: {source[n - 1].strip()}"
                          for n in missing]
    for line in unreached:
        print(line)
    print(f"unreached: {len(unreached)} of {total} executable lines "
          f"in {os.path.relpath(PACKAGE, ROOT)}")
    return int(status)


if __name__ == "__main__":
    sys.exit(main())
