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

Marshalling note: an A* search is one C call with one argument, the
address of the thread's call block (``block`` of
:class:`~repro.maze.arena._CPlanes`, slots
:data:`~repro.maze.arena.BLOCK_SLOTS`).  The planes wrote the scratch
planes', target mask's, path's and result buffer's addresses and the
two caps into it once per plane set, and the axis-cost rows are cached
there per cost table.  Per search this module packs the sources and
targets, exactly as the caller gave them, into two int64 ``array``
buffers and writes the query's slots with one ``pack_into``.  The
kernel marks the goals, finds the target box, decides whether the
backward search runs, computes each source's heuristic and clears
every mark before it returns, on every exit.  A conflict search also
builds the dense frozen/penalty tables, which index by *net id*,
guarded in C by their lengths, so sparse dict lookups become
branchless loads in the hot loop; the backward search reads them too.
They are cut at the grid's largest owner when an id is larger than
the node count: C reads them only at a cell's owner.  The backward
search marks the sources, its open and its settled nodes in bits 8, 4
and 2 of the target mask (bit 1 marks the goals), keeps its keys in
the planes' ``excess`` plane, lists the nodes it touched in the path
buffer, and grows the heap A* then reuses; its marks are cleared
before the path is written over that list, so it allocates nothing
else.  A found path is sliced straight out of the path buffer.  No
numpy array is built on any call.  ``_kernels.c`` exports its slot
count and the size of its seed array; this module refuses to load a
library whose values differ from :data:`~repro.maze.arena.BLOCK_SLOTS`
and :data:`~repro.maze.kernels.pure.FLOOD_CAP`.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import shutil
import struct
import subprocess
import tempfile
from array import array
from typing import Optional, Sequence, Tuple

from repro.maze.arena import BLOCK_SLOTS, QUERY_SLOT
from repro.maze.kernels.pure import FLOOD_CAP, g_overflow_error

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
    layout = (
        ctypes.c_int64.in_dll(lib, "repro_block_slots").value,
        ctypes.c_int64.in_dll(lib, "repro_seed_capacity").value,
    )
    if layout != (len(BLOCK_SLOTS), FLOOD_CAP):
        raise RuntimeError(
            f"kernel library has {layout[0]} call-block slots and room for "
            f"{layout[1]} seeds; this module writes {len(BLOCK_SLOTS)} and "
            f"allows {FLOOD_CAP}"
        )
    p = ctypes.c_void_p
    i = ctypes.c_int64
    lib.repro_astar.restype = ctypes.c_int64
    lib.repro_astar.argtypes = [p]  # the call block
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

#: Writes a search's slots of the call block, from ``QUERY_SLOT`` on.
_QUERY = struct.Struct(f"{len(BLOCK_SLOTS) - QUERY_SLOT}q")
_QUERY_OFFSET = 8 * QUERY_SLOT

#: The empty table: length 0, so C never reads through its address.
_NO_TABLE = array("B")


def _table_size(ids, grid) -> int:
    """Length of a table indexed by net id that covers ``ids``.

    Ids no cell of the grid holds are dropped: the kernel reads a table
    only at a cell's owner.  The grid's largest owner is read only when
    an id exceeds the node count, which no router's net id does.
    """
    top = max(ids)
    occ = grid.occ_flat()
    if top >= len(occ):
        top = min(top, max(occ))
    return max(top + 1, 0)


def _dense_frozen(frozen_nets, grid) -> array:
    """Frozen-net set as a dense byte mask indexed by net id."""
    if not frozen_nets:
        return _NO_TABLE
    size = _table_size(frozen_nets, grid)
    mask = array("B", bytes(size))
    for nid in frozen_nets:
        if 0 <= nid < size:
            mask[nid] = 1
    return mask


def _dense_penalties(net_penalties: dict, grid) -> array:
    """Per-net penalty dict as a dense int64 table indexed by net id."""
    if not net_penalties:
        return _NO_TABLE
    size = _table_size(net_penalties, grid)
    table = array("q", bytes(8 * size))
    for nid, pen in net_penalties.items():
        if 0 <= nid < size:
            table[nid] = pen
    return table


def astar_search(
    grid,
    net_id: int,
    sources,
    targets,
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
        frozen = _dense_frozen(frozen_nets, grid)
        penalties = _dense_penalties(net_penalties, grid)
    else:  # a hard search never reads either table
        frozen = penalties = _NO_TABLE
    sources = array("q", sources)
    targets = array("q", targets)
    _QUERY.pack_into(
        c.block, _QUERY_OFFSET,
        grid.occ_flat().buffer_info()[0], grid.pin_flat().buffer_info()[0],
        grid.width, grid.height, net_id, 1 if allow_conflicts else 0,
        frozen.buffer_info()[0], len(frozen),
        penalties.buffer_info()[0], len(penalties),
        row0, row1, model.conflict_penalty,
        sources.buffer_info()[0], len(sources),
        targets.buffer_info()[0], len(targets),
        gen,
    )
    status = _lib.repro_astar(c.block_addr)

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
