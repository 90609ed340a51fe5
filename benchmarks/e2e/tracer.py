"""Spans recorded from outside the program, around calls into its layers.

A :class:`Tracer` replaces chosen functions and methods with wrappers
that time each call and keep one span per call in memory:
``(span id, parent id, name, start, end, request id)``.  A wrapper
returns the original result unchanged and lets its exceptions propagate,
so a traced run must reproduce the untraced run's outputs exactly; the
benchmark checks that with the output fingerprint.

Spans nest per thread: a call made while another wrapped call is open
on the same thread becomes its child.  A span's self time is its
duration minus the durations of its children (children of one thread
never overlap).  Forked children (the shard pool, the daemon's workers)
inherit the wrappers, which then call straight through and record
nothing: worker-side layers are read from reply telemetry instead.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import os
import threading
import weakref
from collections import defaultdict
from time import perf_counter
from typing import Callable, Dict, List, Optional, Sequence, Tuple

Span = Tuple[int, int, str, float, float, Optional[int]]

#: ``(owner, attribute, span name)`` of every route-path layer boundary.
#: The owner is where callers look the name up at call time, so each
#: wrapper catches exactly the calls made through that binding.
ROUTE_LAYERS: Sequence[Tuple[str, str, str]] = (
    ("repro.engine.supervisor", "verify_result", "engine.verify"),
    ("repro.core.router.MightyRouter", "route", "router.route"),
    ("repro.core.shard", "route_problem_sharded", "shard.pipeline"),
    ("repro.core.shard", "partition_problem", "shard.partition"),
    ("repro.core.shard", "shard_subproblem", "shard.subproblem"),
    ("repro.core.shard", "merge_shard_paths", "shard.merge"),
    ("repro.core.shard", "improve_routing", "shard.polish"),
    ("repro.core.router", "find_path", "maze.search"),
    ("repro.core.improve", "find_path", "maze.search"),
    ("repro.grid.routing_grid.RoutingGrid", "commit_path", "grid.write"),
    ("repro.grid.routing_grid.RoutingGrid", "remove_path", "grid.write"),
    ("repro.grid.routing_grid.RoutingGrid", "same_component",
     "grid.connectivity"),
    ("repro.grid.routing_grid.RoutingGrid", "component_nodes",
     "grid.connectivity"),
    ("repro.grid.routing_grid.RoutingGrid", "refresh_connectivity",
     "grid.connectivity"),
    ("repro.grid.routing_grid.RoutingGrid", "begin_txn", "grid.txn"),
    ("repro.grid.routing_grid.RoutingGrid", "commit_txn", "grid.txn"),
    ("repro.grid.routing_grid.RoutingGrid", "rollback_txn", "grid.txn"),
    ("repro.grid.routing_grid.RoutingGrid", "clone", "grid.snapshot"),
    ("repro.grid.routing_grid.RoutingGrid", "restore", "grid.snapshot"),
    ("repro.netlist.problem.RoutingProblem", "build_grid", "grid.build"),
)

#: The daemon's front-door layers, wrapped inside the ``repro serve``
#: process by ``daemon.py``.
SERVICE_LAYERS: Sequence[Tuple[str, str, str]] = (
    ("repro.service.server", "problem_from_dict", "service.parse"),
    ("repro.service.server", "canonical_form", "service.canonicalize"),
    ("repro.service.cache.CanonicalCache", "render", "service.cache_render"),
    ("repro.service.cache.CanonicalCache", "store", "service.cache_store"),
)

#: The compiled kernel's foreign functions (``_lib`` of the module).
KERNEL_FOREIGN = ("repro_astar", "repro_lee")


def resolve(dotted: str):
    """The module, class or object named by a dotted path."""
    parts = dotted.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            target = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        for attr in parts[cut:]:
            target = getattr(target, attr)
        return target
    raise ImportError(f"cannot resolve {dotted!r}")


class Tracer:
    """In-memory span recorder plus the patches that feed it."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        #: Counters filled by ``on_result`` hooks (searches, expansions).
        self.counts: Dict[str, int] = defaultdict(int)
        #: Stamped on every span; the benchmark sets it per request.
        self.request_id: Optional[int] = None
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._recording = True
        self._patches: List[Tuple[object, str, object]] = []
        this = weakref.ref(self)  # fork hooks live as long as the process

        def stop_recording() -> None:
            tracer = this()
            if tracer is not None:
                tracer._recording = False

        os.register_at_fork(after_in_child=stop_recording)

    def wrap(
        self,
        name: str,
        fn: Callable,
        on_result: Optional[Callable[[Dict[str, int], object], None]] = None,
    ) -> Callable:
        """``fn`` timed as span ``name``; result and exceptions unchanged."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer._recording:
                return fn(*args, **kwargs)
            stack = getattr(tracer._local, "stack", None)
            if stack is None:
                stack = tracer._local.stack = []
            span_id = next(tracer._ids)
            parent = stack[-1] if stack else 0
            stack.append(span_id)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                tracer.spans.append(
                    (span_id, parent, name, start, end, tracer.request_id)
                )
            if on_result is not None:
                on_result(tracer.counts, result)
            return result

        return traced

    def patch(self, owner, attr: str, replacement) -> None:
        """Set ``owner.attr``, remembering the original for :meth:`restore`."""
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, replacement)

    def install(self, owner, attr: str, name: str, on_result=None) -> None:
        """Replace ``owner.attr`` by its traced wrapper."""
        self.patch(owner, attr, self.wrap(name, vars(owner)[attr], on_result))

    def install_all(self, layers: Sequence[Tuple[str, str, str]]) -> None:
        for owner, attr, name in layers:
            hook = _count_search if name == "maze.search" else None
            self.install(resolve(owner), attr, name, hook)

    def restore(self) -> None:
        """Undo every patch, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def write_jsonl(self, path: str) -> None:
        with open(path, "w") as handle:
            for span_id, parent, name, start, end, request in self.spans:
                handle.write(json.dumps({
                    "id": span_id, "parent": parent, "name": name,
                    "start": start, "end": end, "request": request,
                }) + "\n")


def _count_search(counts: Dict[str, int], result) -> None:
    counts["maze.searches"] += 1
    counts["maze.found"] += bool(result.found)
    counts["maze.expansions"] += result.expansions


def install_route_layers(tracer: Tracer) -> None:
    """Wrap every route-path layer, kernels included.

    The search wrapper obtains its backend through
    ``repro.maze.astar.resolve_kernel`` on every call, so the kernel
    entry points are wrapped at that binding: a backend already resolved
    before tracing started is traced too, and untraced once restored.
    """
    tracer.install_all(ROUTE_LAYERS)
    import repro.maze.astar as astar
    from repro.maze.kernels import KernelBackend

    real_resolve = vars(astar)["resolve_kernel"]
    traced_backends: Dict[KernelBackend, KernelBackend] = {}

    def resolve_kernel(name=None):
        backend = real_resolve(name)
        traced = traced_backends.get(backend)
        if traced is None:
            traced = traced_backends[backend] = KernelBackend(
                name=backend.name,
                astar_search=tracer.wrap("kernel.call", backend.astar_search),
                lee_search=tracer.wrap("kernel.call", backend.lee_search),
            )
        return traced

    tracer.patch(astar, "resolve_kernel", resolve_kernel)
    try:
        from repro.maze.kernels import compiled
    except (ImportError, RuntimeError):  # no C compiler: pure backend only
        return
    for attr in KERNEL_FOREIGN:
        tracer.install(compiled._lib, attr, "kernel.c")


# ----------------------------------------------------------------------
# Span arithmetic
# ----------------------------------------------------------------------
def self_times(spans: Sequence[Span]) -> Dict[int, float]:
    """Span id -> duration minus the summed durations of its children."""
    own = {span[0]: span[4] - span[3] for span in spans}
    for _span_id, parent, _name, start, end, _request in spans:
        if parent in own:
            own[parent] -= end - start
    return own


def layer_totals(spans: Sequence[Span]) -> Dict[str, Dict[str, float]]:
    """Per span name: call count, summed duration and summed self time."""
    own = self_times(spans)
    totals: Dict[str, Dict[str, float]] = {}
    for span_id, _parent, name, start, end, _request in spans:
        entry = totals.setdefault(name, {"calls": 0, "total": 0.0,
                                         "self": 0.0})
        entry["calls"] += 1
        entry["total"] += end - start
        entry["self"] += own[span_id]
    return totals


def durations(spans: Sequence[Span], name: str) -> List[float]:
    return [end - start for _i, _p, n, start, end, _r in spans if n == name]


def shard_stage_times(spans: Sequence[Span]) -> Dict[str, float]:
    """Fan-out and stitch totals of every traced shard pipeline.

    Fan-out is the gap between the last sub-problem cut and the merge:
    pool start-up, pickling and the shard routes themselves.  Stitch is
    the Mighty run whose parent is the pipeline.
    """
    pipelines = {span[0] for span in spans if span[2] == "shard.pipeline"}
    last_cut: Dict[int, float] = {}
    merge_start: Dict[int, float] = {}
    stitch = 0.0
    for _span_id, parent, name, start, end, _request in spans:
        if parent not in pipelines:
            continue
        if name == "shard.subproblem":
            last_cut[parent] = max(end, last_cut.get(parent, end))
        elif name == "shard.merge":
            merge_start[parent] = start
        elif name == "router.route":
            stitch += end - start
    fanout = sum(
        merge_start[pid] - last_cut[pid]
        for pid in merge_start
        if pid in last_cut
    )
    return {"fanout": fanout, "stitch": stitch}


def read_jsonl(path: str) -> List[Span]:
    spans: List[Span] = []
    with open(path) as handle:
        for line in handle:
            row = json.loads(line)
            spans.append((row["id"], row["parent"], row["name"],
                          row["start"], row["end"], row["request"]))
    return spans
