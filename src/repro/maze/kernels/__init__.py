"""Pluggable search-kernel backends.

The maze searchers (:func:`repro.maze.astar.find_path`,
:func:`repro.maze.lee.lee_route`) are thin validating wrappers around a
*kernel backend* — the inner loop that actually pops nodes and relaxes
edges.  Two backends ship:

``pure``
    The reference implementation: the original pure-python loops over the
    grid's flat occupancy and pin stores.  Always available, zero
    dependencies.
``compiled``
    A* and Lee inner loops compiled from a small C kernel with the system
    C compiler at first use and loaded through :mod:`ctypes`.  Built
    lazily and cached by source hash; when no working compiler is present
    the backend reports itself unavailable and ``auto`` falls back to
    ``pure``.  (numba/Cython are natural alternative providers for this
    slot, but neither is a dependency of this repo — the C kernel keeps
    the compiled path available with nothing beyond a stock toolchain.)

Every backend is bit-identical to ``pure`` by contract: same paths, same
costs, same expansion and flood-visit counts, same conflict nodes, the
backward search from the targets and the bound it gives A* included.  The
differential parity suite (``tests/test_kernel_parity.py``) and the
benchmark counter gate (``repro bench --compare BASELINE``, every case's
counters equal) enforce this, so switching backends changes wall time
only — never which decisions the router makes.

The process-wide default backend comes from the ``REPRO_KERNEL``
environment variable (``pure`` / ``compiled`` / ``auto``); unset means
``auto``: ``compiled`` when it builds, else ``pure``.  Child processes
(shard pools, service workers) inherit the environment and so resolve
the same backend.  The only other selector is the per-call
``kernel=`` argument of the searchers, which the parity tests use.

Resolution is lazy (first search, not import) so merely importing the
package never shells out to a compiler.  Naming an unavailable or unknown
backend explicitly is an error — a CI leg that forces ``compiled`` must
fail loudly, not silently fall back.
"""

from __future__ import annotations

import os
import threading
from dataclasses import dataclass
from typing import Callable, Dict, Optional, Tuple

#: Environment variable consulted (lazily) for the default backend.
ENV_VAR = "REPRO_KERNEL"

#: Recognised backend names, in documentation order.
BACKEND_NAMES: Tuple[str, ...] = ("pure", "compiled")


@dataclass(frozen=True)
class KernelBackend:
    """One loaded backend: a name plus its two kernel entry points.

    ``astar_search`` and ``lee_search`` share a contract across backends
    (see :mod:`repro.maze.kernels.pure` for the reference signatures and
    exact semantics); the wrappers in :mod:`repro.maze.astar` /
    :mod:`repro.maze.lee` do all validation and result shaping, so the
    kernels only ever see well-formed queries.
    """

    name: str
    astar_search: Callable
    lee_search: Callable


_lock = threading.Lock()
_loaded: Dict[str, KernelBackend] = {}
_load_errors: Dict[str, str] = {}
_active: Optional[KernelBackend] = None
_active_source: str = ""


def _load(name: str) -> KernelBackend:
    """Import (and for ``compiled``, build) backend ``name`` or raise.

    ``name`` is one of :data:`BACKEND_NAMES`; callers check it first.
    """
    if name in _loaded:
        return _loaded[name]
    if name in _load_errors:
        raise RuntimeError(
            f"kernel backend {name!r} is unavailable: {_load_errors[name]}"
        )
    try:
        if name == "pure":
            from repro.maze.kernels import pure as mod
        else:
            from repro.maze.kernels import compiled as mod
        backend = KernelBackend(
            name=name,
            astar_search=mod.astar_search,
            lee_search=mod.lee_search,
        )
    except Exception as exc:  # import/build failure → remembered, reraised
        _load_errors[name] = f"{type(exc).__name__}: {exc}"
        raise RuntimeError(
            f"kernel backend {name!r} is unavailable: {_load_errors[name]}"
        ) from exc
    _loaded[name] = backend
    return backend


def available_backends() -> Tuple[str, ...]:
    """Names of backends that load (and build) successfully, in order."""
    with _lock:
        out = []
        for name in BACKEND_NAMES:
            try:
                _load(name)
            except RuntimeError:
                continue
            out.append(name)
        return tuple(out)


def _resolve_auto() -> KernelBackend:
    try:
        return _load("compiled")
    except RuntimeError:
        return _load("pure")


def env_backend_name() -> Optional[str]:
    """The backend :data:`ENV_VAR` names, or None when unset or ``auto``.

    The one check of the variable: any other value is a
    :class:`ValueError`.
    """
    env = os.environ.get(ENV_VAR, "").strip()
    if env in ("", "auto"):
        return None
    if env not in BACKEND_NAMES:
        raise ValueError(
            f"{ENV_VAR}={env!r} names an unknown kernel backend "
            f"(choose from {', '.join(BACKEND_NAMES)} or 'auto')"
        )
    return env


def active_backend() -> KernelBackend:
    """The process-wide default backend, resolving it on first use.

    The first call honours :data:`ENV_VAR` (``REPRO_KERNEL``); later
    calls return the backend it resolved without taking the lock, so a
    search pays no lock for it.
    """
    global _active, _active_source
    active = _active
    if active is not None:
        return active
    with _lock:
        if _active is not None:
            return _active
        name = env_backend_name()
        if name is not None:
            _active = _load(name)
            _active_source = f"env:{ENV_VAR}"
        else:
            _active = _resolve_auto()
            _active_source = "auto"
        return _active


def resolve_kernel(name: Optional[str]) -> KernelBackend:
    """Backend for a per-call override (``None`` → the default)."""
    if name is None:
        return active_backend()
    if name == "auto":
        with _lock:
            return _resolve_auto()
    if name not in BACKEND_NAMES:
        raise ValueError(
            f"unknown kernel backend {name!r} "
            f"(choose from {', '.join(BACKEND_NAMES)} or 'auto')"
        )
    with _lock:
        return _load(name)


def backend_info() -> dict:
    """Diagnostic snapshot for ``repro info --json`` and bench reports."""
    with _lock:
        active = _active.name if _active is not None else None
        source = _active_source or None
    return {
        "active": active,  # None until the first search resolves it
        "active_source": source,
        "available": list(available_backends()),
        "env": os.environ.get(ENV_VAR) or None,
        "load_errors": dict(_load_errors),
    }


def _reset_for_tests() -> None:
    """Forget the resolved default (tests flip ``REPRO_KERNEL`` mid-run)."""
    global _active, _active_source
    with _lock:
        _active = None
        _active_source = ""
