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

Marshalling note: a call passes C plain ints.  The scratch planes, the
target mask, the path and result buffers are ``array`` objects of the
thread's planes whose addresses were taken once per plane set
(:class:`~repro.maze.arena._CPlanes`), and the axis-cost rows are cached
there per cost table.  Per call this module only packs the sources into
two int64 ``array`` buffers and flips target-mask bytes; a search with
seeds packs them into a third, at most
:data:`~repro.maze.kernels.pure.FLOOD_CAP` long, and passes
:data:`~repro.maze.kernels.pure.SETTLE_CAP`.  A conflict search also
builds the dense frozen/penalty tables, which index by *net id*, guarded
in C by their lengths, so sparse dict lookups become branchless loads in
the hot loop; the backward search reads them too.  That search marks
the sources, its open and its settled nodes in bits 8, 4 and 2 of the
target mask (bit 1 marks the goals), keeps its keys in the planes'
``excess`` plane, lists the nodes it touched in the path buffer, and
grows the heap A* then reuses; its marks are cleared before the path
is written over that list, so it allocates nothing else.  A found path
is sliced straight out of the path buffer.  No numpy array is built on
any call.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import shutil
import subprocess
import tempfile
from array import array
from typing import Optional, Sequence, Tuple

from repro.maze.kernels.pure import SETTLE_CAP, g_overflow_error

__all__ = ["astar_search", "lee_search"]

_ST_FOUND = 0
_ST_NOPATH = 1
_ST_OVERFLOW = 2
_ST_NOMEM = 3

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
        p, p,              # target mask, excess
        p, i, i,           # seeds, n_seeds, settle_cap
        i, i, i, i,        # tx0, tx1, ty0, ty1
        p, p, i,           # src_idx, src_h, n_src
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

#: The empty table: length 0, so C never reads through its address.
_NO_TABLE = array("B")


def _dense_frozen(frozen_nets) -> array:
    """Frozen-net set as a dense byte mask indexed by net id."""
    if not frozen_nets:
        return _NO_TABLE
    top = max(frozen_nets)
    mask = array("B", bytes(max(top + 1, 0)))
    for nid in frozen_nets:
        if nid >= 0:
            mask[nid] = 1
    return mask


def _dense_penalties(net_penalties: dict) -> array:
    """Per-net penalty dict as a dense int64 table indexed by net id."""
    if not net_penalties:
        return _NO_TABLE
    top = max(net_penalties)
    table = array("q", bytes(8 * max(top + 1, 0)))
    for nid, pen in net_penalties.items():
        if nid >= 0:
            table[nid] = pen
    return table


def astar_search(
    grid,
    net_id: int,
    sources,
    target_idx,
    seeds,
    bbox: Tuple[int, int, int, int],
    model,
    allow_conflicts: bool,
    frozen_nets,
    net_penalties: dict,
    planes,
    gen: int,
) -> Tuple[int, int, int, Optional[Sequence[int]]]:
    """C A* inner loop via ctypes (bit-identical to the pure reference)."""
    c = planes.c_planes()
    row0, row1 = c.cost_rows(model.axis_cost_table)
    if allow_conflicts:
        frozen = _dense_frozen(frozen_nets)
        penalties = _dense_penalties(net_penalties)
    else:  # a hard search never reads either table
        frozen = penalties = _NO_TABLE
    seeds = array("q", seeds) if seeds else _NO_TABLE
    src_idx, src_h = zip(*sources)
    src_idx = array("q", src_idx)
    src_h = array("q", src_h)
    tx0, tx1, ty0, ty1 = bbox

    tmask = c.target
    for index in target_idx:
        tmask[index] = 1
    try:
        status = _lib.repro_astar(
            grid.occ_flat().buffer_info()[0],
            grid.pin_flat().buffer_info()[0],
            grid.width, grid.height,
            net_id, 1 if allow_conflicts else 0,
            frozen.buffer_info()[0], len(frozen),
            penalties.buffer_info()[0], len(penalties),
            row0, row1,
            model.step_cost, model.conflict_penalty,
            c.target_addr, c.excess_addr,
            seeds.buffer_info()[0], len(seeds), SETTLE_CAP,
            tx0, tx1, ty0, ty1,
            src_idx.buffer_info()[0], src_h.buffer_info()[0], len(src_idx),
            c.best_addr, c.parent_addr, c.stamp_addr, gen,
            c.path_addr, c.out_addr,
        )
    finally:
        for index in target_idx:
            tmask[index] = 0

    out = c.out
    if status == _ST_FOUND:
        return out[0], out[1], out[3], _read_path(c, out[2])
    if status == _ST_NOPATH:
        return 0, out[1], out[3], None
    if status == _ST_OVERFLOW:
        raise g_overflow_error(out[0])
    raise MemoryError("compiled A* kernel ran out of memory")


def _read_path(c, length: int) -> array:
    """The source-to-goal path the kernel wrote goal-first."""
    path = c.path[:length]
    path.reverse()
    return path


def lee_search(
    grid,
    net_id: int,
    source_indices,
    target_idx,
    planes,
    gen: int,
) -> Optional[Sequence[int]]:
    """C Lee wavefront via ctypes (bit-identical to the pure reference)."""
    c = planes.c_planes()
    src_idx = array("q", source_indices)

    tmask = c.target
    for index in target_idx:
        tmask[index] = 1
    try:
        status = _lib.repro_lee(
            grid.occ_flat().buffer_info()[0],
            grid.width, grid.height,
            net_id,
            c.target_addr,
            src_idx.buffer_info()[0], len(src_idx),
            c.parent_addr, c.stamp_addr, gen,
            c.path_addr, c.out_addr,
        )
    finally:
        for index in target_idx:
            tmask[index] = 0

    if status == _ST_FOUND:
        return _read_path(c, c.out[0])
    if status == _ST_NOPATH:
        return None
    raise MemoryError("compiled Lee kernel ran out of memory")
