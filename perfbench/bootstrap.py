"""Locate the program under test: the ``repro`` package in ``<root>/src``.

The benchmark lives in ``<root>/perfbench`` and runs from ``<root>``.  It
imports the program only from the checkout it sits in, never from an
installed copy, and refuses to run (exit code 2) when the checkout holds no
``src/repro`` package.
"""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: Scratch space for span files and per-run master stats (git-ignored).
WORK_DIR = ROOT / ".perfbench"


def require_program() -> None:
    """Put ``<root>/src`` first on ``sys.path``, or exit 2 without it."""
    if not (SRC / "repro" / "__init__.py").is_file():
        sys.stderr.write(
            f"perfbench: no program to measure: {SRC / 'repro'} is missing\n"
        )
        raise SystemExit(2)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import repro

    if Path(repro.__file__).resolve().parent != (SRC / "repro").resolve():
        sys.stderr.write(
            f"perfbench: imported repro from {repro.__file__}, "
            f"not from {SRC}\n"
        )
        raise SystemExit(2)
