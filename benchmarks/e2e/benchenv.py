"""Where the benchmark finds the program and keeps its scratch files."""

from __future__ import annotations

import os
import sys
import tempfile
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parents[1]
SRC = ROOT / "src"
#: Scratch space of every run: sockets, cache dirs, span files, and the
#: temp dir where the compiled search kernel is built and cached.
WORK = BENCH_DIR / ".work"
TMP = WORK / "tmp"


def use_source_tree() -> None:
    """Import ``repro`` from this checkout and keep temp files inside it.

    Exits non-zero (with no result line) when the checkout holds no
    ``src/repro``.  Child processes inherit the environment set here.
    """
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SystemExit(f"error: no repro package under {SRC}")
    TMP.mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(TMP)
    tempfile.tempdir = None  # re-read TMPDIR on next use
    os.environ["PYTHONPATH"] = str(SRC)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def short_path(path: Path) -> str:
    """``path`` relative to the working directory when that is shorter.

    Unix socket paths are limited to ~100 bytes; the daemon and the
    clients share the working directory, so a relative path works.
    """
    absolute = str(path)
    relative = os.path.relpath(absolute)
    return relative if len(relative) < len(absolute) else absolute
