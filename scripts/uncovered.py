"""The lines of ``src/qlb`` that no test executes, without the ``coverage`` package.

    python scripts/uncovered.py [PYTEST_ARGS ...]

Runs pytest in this process, by default on the tier-1 suite (``tests``), with a
``sys.settrace`` tracer that records every line run in a ``src/qlb`` file.  Prints each
executable line (one with bytecode, as ``co_lines`` reports it) that never ran, as
``path:line: source`` in file order, then their count.  Code that tests run in a
subprocess (the CLI, the demos) is not traced.  Exits with pytest's exit code.
"""

import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "qlb"


def executable_lines(path: Path) -> set:
    """The line numbers with bytecode in the module at ``path``, nested code included."""
    lines, stack = set(), [compile(path.read_text(), str(path), "exec")]
    while stack:
        code = stack.pop()
        lines.update(line for _, _, line in code.co_lines() if line)  # None or 0: no line
        stack.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    return lines


def traced_run(args: list) -> tuple:
    """(pytest's exit code, {absolute path: lines run}) of ``pytest.main(args)``."""
    import pytest  # before the tracer: only qlb's frames are traced

    prefix, hit, mine = str(SRC) + os.sep, {}, {}

    def on_line(frame, event, arg):
        if event == "line":
            hit[frame.f_code.co_filename].add(frame.f_lineno)
        return on_line

    def on_call(frame, event, arg):
        name = frame.f_code.co_filename
        if name not in mine:
            mine[name] = os.path.abspath(name).startswith(prefix)
            hit.setdefault(name, set())
        return on_line if mine[name] else None

    sys.settrace(on_call)
    try:
        code = pytest.main(args)
    finally:
        sys.settrace(None)
    runs = {}
    for name, lines in hit.items():
        if mine[name]:
            runs.setdefault(os.path.abspath(name), set()).update(lines)
    return code, runs


def main(args: list) -> int:
    code, runs = traced_run(args or ["-q", "-p", "no:cacheprovider", str(ROOT / "tests")])
    missed = 0
    for path in sorted(SRC.glob("*.py")):
        source = path.read_text().splitlines()
        for line in sorted(executable_lines(path) - runs.get(str(path), set())):
            print(f"{path.relative_to(ROOT)}:{line}: {source[line - 1].strip()}")
            missed += 1
    print(f"{missed} lines of src/qlb not executed")
    return int(code)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
