"""Print every line of src/periodicgp that a pytest run never executes (stdlib only).

    python tools/linecov.py [pytest args]   # default: the Tier-1 arguments

pytest runs in this process; sys.settrace follows only frames of src/periodicgp in
this thread (subprocesses and other threads are not seen) and slows the suite by
about a third, so this is a tool, not a CI gate.
"""

import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"
PACKAGE = str(SRC / "periodicgp")


def executable_lines(path: Path) -> set:
    """Line numbers that carry bytecode, in the module and every nested code object."""
    codes, lines = [compile(path.read_text(), str(path), "exec")], set()
    while codes:
        code = codes.pop()
        lines.update(line for _, _, line in code.co_lines() if line)  # None, or 0 for RESUME
        codes.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    return lines


def main(args) -> int:
    hits = set()

    def local(frame, event, arg):
        hits.add((frame.f_code.co_filename, frame.f_lineno))
        return local

    sys.path.insert(0, str(SRC))  # the trace starts before periodicgp is imported
    sys.settrace(lambda frame, event, arg: local(frame, event, arg)
                 if frame.f_code.co_filename.startswith(PACKAGE) else None)
    code = pytest.main(args or ["-q", "--continue-on-collection-errors"])
    sys.settrace(None)
    missed = [(path, line) for path in sorted(Path(PACKAGE).glob("*.py"))
              for line in sorted(executable_lines(path) - {l for f, l in hits if f == str(path)})]
    for path, line in missed:
        print(f"{path.relative_to(SRC.parent)}:{line}: {path.read_text().splitlines()[line - 1]}")
    print(f"{len(missed)} lines of src/periodicgp never ran")
    return int(code)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
