"""The compiled kernel backend: C inner loops behind ctypes.

``_kernels.c`` (same directory) holds line-for-line C mirrors of the
pure-python A* and Lee loops.  At import this module compiles it with the
system C compiler (``$CC``, else ``cc``/``gcc``/``clang``) into a shared
object cached in the temp directory, keyed by a hash of the source — so a
source edit rebuilds, an unchanged source reuses, and concurrent
processes (e.g. a bench worker pool) race benignly: each compiles to a
private temp name and atomically renames over the same cache path.

Import failure (no compiler, sandboxed tempdir, …) simply makes this
backend unavailable: the dispatch in :mod:`repro.maze.kernels` records
the reason and ``auto`` falls back to ``pure``.  Nothing here is a hard
dependency — this is the "optional compiled extra" slot the docs
describe; numba or Cython could provide the same entry points, but
neither is shipped with the repo, and a stock C toolchain is the lowest
common denominator.

The kernel reads the grid's occupancy and pin stores in place: their
``array('i')`` buffers are passed by address, never copied.  The C side
declares them ``const int32_t *``, so on a platform whose C ``int`` is not
four bytes this module refuses to load and ``auto`` falls back to ``pure``.

Marshalling note: per call this builds a handful of tiny numpy arrays
(sources, dense frozen/penalty tables) and flips target-mask bytes.
That's ~10 µs against searches that take hundreds in pure python, and
the arrays index by *net id*, guarded in C by their lengths, so sparse
dict lookups become branchless loads in the hot loop.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import shutil
import subprocess
import tempfile
from array import array
from typing import List, Optional, Tuple

import numpy as np

from repro.maze.kernels.pure import g_overflow_error

__all__ = ["astar_search", "lee_search"]

_ST_FOUND = 0
_ST_NOPATH = 1
_ST_EXHAUSTED = 2
_ST_OVERFLOW = 3
_ST_NOMEM = 4

_SOURCE = os.path.join(os.path.dirname(__file__), "_kernels.c")


def _find_compiler() -> str:
    cc = os.environ.get("CC")
    if cc and shutil.which(cc):
        return cc
    for cand in ("cc", "gcc", "clang"):
        if shutil.which(cand):
            return cand
    raise RuntimeError("no C compiler found (tried $CC, cc, gcc, clang)")


def _build_library() -> ctypes.CDLL:
    with open(_SOURCE, "rb") as fh:
        source = fh.read()
    digest = hashlib.sha256(source).hexdigest()[:16]
    cache = os.path.join(
        tempfile.gettempdir(), f"repro_kernels_{digest}.so"
    )
    if not os.path.exists(cache):
        cc = _find_compiler()
        tmp = f"{cache}.{os.getpid()}.tmp"
        try:
            subprocess.run(
                [cc, "-O2", "-shared", "-fPIC", "-o", tmp, _SOURCE],
                check=True,
                capture_output=True,
                text=True,
            )
            os.replace(tmp, cache)
        except subprocess.CalledProcessError as exc:
            raise RuntimeError(
                f"kernel compile failed with {cc}: {exc.stderr.strip()}"
            ) from exc
        finally:
            if os.path.exists(tmp):
                os.unlink(tmp)
    return ctypes.CDLL(cache)


def _declare(lib: ctypes.CDLL) -> ctypes.CDLL:
    p = ctypes.c_void_p
    i = ctypes.c_int64
    lib.repro_astar.restype = ctypes.c_int64
    lib.repro_astar.argtypes = [
        p, p,              # occ, pin
        i, i,              # width, height
        i, i,              # net_id, allow_conflicts
        p, i,              # frozen, frozen_len
        p, i,              # penalties, pen_len
        p, p,              # row0, row1
        i, i,              # step, base_penalty
        p,                 # target mask
        i, i, i, i,        # tx0, tx1, ty0, ty1
        p, p, i,           # src_idx, src_h, n_src
        i,                 # max_expansions
        p, p, p, i,        # best, parent, stamp, gen
        p, p,              # path_out, out
    ]
    lib.repro_lee.restype = ctypes.c_int64
    lib.repro_lee.argtypes = [
        p,                 # occ
        i, i,              # width, height
        i,                 # net_id
        p,                 # target mask
        p, i,              # src_idx, n_src
        p, p, i,           # parent, stamp, gen
        p, p,              # path_out, out
    ]
    return lib


if array("i").itemsize != 4:
    raise RuntimeError(
        f"grid cells are {array('i').itemsize}-byte ints here; "
        "the C kernel reads int32"
    )

_lib = _declare(_build_library())

_EMPTY_U8 = np.zeros(0, dtype=np.uint8)
_EMPTY_I64 = np.zeros(0, dtype=np.int64)


def _dense_frozen(frozen_nets) -> Tuple[np.ndarray, int]:
    """Frozen-net set as a dense uint8 mask indexed by net id."""
    top = -1
    for nid in frozen_nets:
        if nid > top:
            top = nid
    if top < 0:
        return _EMPTY_U8, 0
    mask = np.zeros(top + 1, dtype=np.uint8)
    for nid in frozen_nets:
        if nid >= 0:
            mask[nid] = 1
    return mask, top + 1


def _dense_penalties(net_penalties: dict) -> Tuple[np.ndarray, int]:
    """Per-net penalty dict as a dense int64 table indexed by net id."""
    top = -1
    for nid in net_penalties:
        if nid > top:
            top = nid
    if top < 0:
        return _EMPTY_I64, 0
    table = np.zeros(top + 1, dtype=np.int64)
    for nid, pen in net_penalties.items():
        if nid >= 0:
            table[nid] = pen
    return table, top + 1


def astar_search(
    grid,
    net_id: int,
    sources,
    target_idx,
    bbox: Tuple[int, int, int, int],
    model,
    allow_conflicts: bool,
    frozen_nets,
    net_penalties: dict,
    max_expansions: int,
    planes,
    gen: int,
) -> Tuple[int, int, bool, Optional[List[int]]]:
    """C A* inner loop via ctypes (bit-identical to the pure reference)."""
    width, height = grid.width, grid.height
    np_planes = planes.numpy_planes()
    occ_addr = grid.occ_flat().buffer_info()[0]
    pin_addr = grid.pin_flat().buffer_info()[0]
    frozen_arr, frozen_len = _dense_frozen(frozen_nets)
    pen_arr, pen_len = _dense_penalties(net_penalties)
    rows = model.axis_cost_table
    row0 = np.asarray(rows[0], dtype=np.int64)
    row1 = np.asarray(rows[1], dtype=np.int64)
    n_src = len(sources)
    src_idx = np.fromiter((s[0] for s in sources), np.int64, count=n_src)
    src_h = np.fromiter((s[1] for s in sources), np.int64, count=n_src)
    out = np.zeros(3, dtype=np.int64)
    tx0, tx1, ty0, ty1 = bbox

    tmask = np_planes.target
    tlist = list(target_idx)
    tmask[tlist] = 1
    try:
        status = _lib.repro_astar(
            occ_addr, pin_addr,
            width, height,
            net_id, int(bool(allow_conflicts)),
            frozen_arr.ctypes.data, frozen_len,
            pen_arr.ctypes.data, pen_len,
            row0.ctypes.data, row1.ctypes.data,
            model.step_cost, model.conflict_penalty,
            tmask.ctypes.data,
            tx0, tx1, ty0, ty1,
            src_idx.ctypes.data, src_h.ctypes.data, n_src,
            max_expansions,
            np_planes.best.ctypes.data,
            np_planes.parent.ctypes.data,
            np_planes.stamp.ctypes.data,
            gen,
            np_planes.path_buf.ctypes.data,
            out.ctypes.data,
        )
    finally:
        tmask[tlist] = 0

    if status == _ST_FOUND:
        indices = np_planes.path_buf[: out[2]][::-1].tolist()
        return int(out[0]), int(out[1]), False, indices
    if status == _ST_NOPATH:
        return 0, int(out[1]), False, None
    if status == _ST_EXHAUSTED:
        return 0, int(out[1]), True, None
    if status == _ST_OVERFLOW:
        raise g_overflow_error(int(out[0]))
    raise MemoryError("compiled A* kernel ran out of memory")


def lee_search(
    grid,
    net_id: int,
    source_indices,
    target_idx,
    planes,
    gen: int,
) -> Optional[List[int]]:
    """C Lee wavefront via ctypes (bit-identical to the pure reference)."""
    width, height = grid.width, grid.height
    np_planes = planes.numpy_planes()
    occ_addr = grid.occ_flat().buffer_info()[0]
    n_src = len(source_indices)
    src_idx = np.fromiter(source_indices, np.int64, count=n_src)
    out = np.zeros(1, dtype=np.int64)

    tmask = np_planes.target
    tlist = list(target_idx)
    tmask[tlist] = 1
    try:
        status = _lib.repro_lee(
            occ_addr,
            width, height,
            net_id,
            tmask.ctypes.data,
            src_idx.ctypes.data, n_src,
            np_planes.parent.ctypes.data,
            np_planes.stamp.ctypes.data,
            gen,
            np_planes.path_buf.ctypes.data,
            out.ctypes.data,
        )
    finally:
        tmask[tlist] = 0

    if status == _ST_FOUND:
        return np_planes.path_buf[: out[0]][::-1].tolist()
    if status == _ST_NOPATH:
        return None
    raise MemoryError("compiled Lee kernel ran out of memory")
