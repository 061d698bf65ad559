"""List the lines of src/meshsim that a pytest run never executes.

Usage, from the repository root:

    PYTHONPATH=src python3 tools/linecover.py -q tests \\
        --ignore=tests/test_acceptance.py --ignore=tests/test_scenario_fuzz.py

The arguments go to pytest, which runs in this process under sys.settrace.
Only frames whose code comes from src/meshsim/*.py are traced line by line.
A file's executable lines are the line numbers its compiled code objects
list (co_lines, through every nested code object), so blank lines, comments
and the inside of a multi-line expression never count. Each executable line
that never ran is printed as file:line, then the total as

    src/meshsim unexecuted lines: N

and the exit status is pytest's. It needs nothing outside the standard
library; no coverage package is used. Lines run only in a child process,
such as a test that starts the CLI in a fresh interpreter, count as
unexecuted.
"""

from __future__ import annotations

import os
import sys
import threading
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "meshsim"


def executable_lines(path: Path) -> set[int]:
    """Line numbers of every instruction compiled from the file."""
    stack = [compile(path.read_text(), str(path), "exec")]
    lines = set()
    while stack:
        code = stack.pop()
        lines.update(line for _start, _end, line in code.co_lines() if line)
        stack.extend(c for c in code.co_consts if isinstance(c, types.CodeType))
    return lines


def main(argv: list[str]) -> int:
    files = {str(p): executable_lines(p) for p in sorted(SRC.glob("*.py"))}
    traced: dict[str, str | None] = {}      # co_filename -> its file, or None
    ran: dict[str, set[int]] = {f: set() for f in files}

    def local(frame, event, _arg):
        if event == "line":
            ran[traced[frame.f_code.co_filename]].add(frame.f_lineno)
        return local

    def start(frame, _event, _arg):
        name = frame.f_code.co_filename
        try:
            path = traced[name]
        except KeyError:
            path = os.path.realpath(name)
            path = traced[name] = path if path in files else None
        if path is None:
            return None
        ran[path].add(frame.f_lineno)      # the call event: the def line
        return local

    import pytest

    threading.settrace(start)
    sys.settrace(start)
    try:
        status = pytest.main(argv)
    finally:
        sys.settrace(None)
        threading.settrace(None)
    missed = 0
    for path, lines in files.items():
        rel = os.path.relpath(path, ROOT)
        for line in sorted(lines - ran[path]):
            print(f"{rel}:{line}")
            missed += 1
    print(f"src/meshsim unexecuted lines: {missed}")
    return int(status)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
