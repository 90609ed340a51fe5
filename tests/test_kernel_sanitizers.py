"""The compiled search kernel under AddressSanitizer and UBSan.

``_kernels.c`` runs in-process, inside long-lived service workers, where
an out-of-bounds read or undefined arithmetic would corrupt or kill a
worker instead of failing a parity check.  This test builds the kernel
with ``-fsanitize=address,undefined`` and runs the kernel parity and
search suites in a child Python that has the sanitizer runtimes
preloaded and the sanitized library bound in place of the normal one.
Any sanitizer report aborts the child, and the test fails with the log.

Skipped when no C compiler or sanitizer runtime is found, or when the
runtime cannot start a Python here.
"""

import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SOURCE = ROOT / "src" / "repro" / "maze" / "kernels" / "_kernels.c"
SUITES = (
    "tests/test_kernel_parity.py",
    "tests/test_maze_astar.py",
    "tests/test_maze_lee.py",
)
FLAGS = (
    "-O1", "-g", "-fsanitize=address,undefined",
    "-fno-sanitize-recover=undefined", "-shared", "-fPIC",
)

# The child's pytest captures only at the ``sys`` level, so a UBSan report
# written to file descriptor 2 reaches this process; ASan writes to
# ``log_path`` instead.
CHILD = """
import ctypes, sys
import pytest
from repro.maze.kernels import compiled
compiled._lib = compiled._declare(ctypes.CDLL(sys.argv[1]))
sys.exit(pytest.main(["-q", "--capture=sys", *sys.argv[2:]]))
"""


def _compiler():
    for cand in (os.environ.get("CC"), "cc", "gcc", "clang"):
        if cand and shutil.which(cand):
            return cand
    pytest.skip("no C compiler")


def _runtime(cc, name):
    """Absolute path of sanitizer runtime ``name``, or skip."""
    found = subprocess.run(
        [cc, f"-print-file-name={name}"], capture_output=True, text=True
    ).stdout.strip()
    if not os.path.isabs(found) or not os.path.exists(found):
        pytest.skip(f"{cc} has no {name}")
    return found


def test_kernel_suites_pass_under_sanitizers(tmp_path):
    cc = _compiler()
    preload = [_runtime(cc, "libasan.so"), _runtime(cc, "libubsan.so")]
    library = tmp_path / "kernels_sanitized.so"
    build = subprocess.run(
        [cc, *FLAGS, "-o", str(library), str(SOURCE)],
        capture_output=True,
        text=True,
    )
    if build.returncode:
        pytest.skip(f"sanitized build failed: {build.stderr.strip()}")
    env = dict(
        os.environ,
        PYTHONPATH=os.pathsep.join(
            filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])
        ),
        REPRO_KERNEL="compiled",
        LD_PRELOAD=":".join(preload),
        ASAN_OPTIONS="detect_leaks=0",
    )
    probe = subprocess.run(
        [sys.executable, "-c", "import ctypes, sys; ctypes.CDLL(sys.argv[1])",
         str(library)],
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
    )
    if probe.returncode:
        pytest.skip(f"sanitizer runtime fails to start: {probe.stderr[-500:]}")
    env["ASAN_OPTIONS"] += f":log_path={tmp_path / 'sanitizer'}"
    child = subprocess.run(
        [sys.executable, "-c", CHILD, str(library), *SUITES],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=600,
    )
    reports = "\n".join(
        path.read_text() for path in sorted(tmp_path.glob("sanitizer.*"))
    )
    assert child.returncode == 0, (
        f"exit {child.returncode}\n{reports}\n{child.stderr}"
        f"\n{child.stdout[-3000:]}"
    )
