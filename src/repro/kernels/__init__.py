"""Pluggable kernel backends for the packing hot paths.

The vector packers (:mod:`repro.algorithms.vector_packing`), the probe
factory, METAGREEDY, the dynamic simulator and the §6 sharing
evaluation (:mod:`repro.sharing`) dispatch their scalar inner loops
through a process-wide :class:`~.api.KernelBackend`:

``numpy``
    Always available — the pure numpy/Python fast paths (and, for the
    sharing evaluation, the :mod:`._loops` source run on Python lists).
``native``
    The same loops as C, compiled on demand with the system compiler and
    cached; needs a working ``$CC`` (default ``cc``).
``loops``
    The uncompiled scalar source (:mod:`._loops`) — the slow reference
    the C translation is diffed against; useful for debugging only.

The packers are one implementation on every backend (:mod:`.packers`);
a compiled backend runs its own fills only inside the fused
``probe_scan``.  All backends produce **bit-identical** placements,
loads, threshold tables and yields, so the choice affects wall-clock
only.  Selection:

1. :func:`use_backend` (explicit, e.g. from ``--kernel-backend``);
2. the ``REPRO_KERNEL_BACKEND`` environment variable (inherited by
   experiment worker processes, so one setting covers a whole sweep);
3. ``auto``: ``native`` where the C kernels build, else ``numpy``.

Unavailable backends raise :class:`KernelBackendUnavailable` when asked
for explicitly and are silently skipped under ``auto``.
"""

from __future__ import annotations

import os
import warnings
from contextlib import contextmanager
from typing import Callable, Optional

from .api import ArrayKernelBackend, KernelBackend

__all__ = [
    "AUTO_ORDER",
    "KernelBackend",
    "KernelBackendUnavailable",
    "available_backends",
    "backend_names",
    "current_backend_name",
    "get_backend",
    "kernel_backend",
    "resolve_backend",
    "use_backend",
]

ENV_VAR = "REPRO_KERNEL_BACKEND"

#: Preference order under ``auto`` (first available wins).
AUTO_ORDER = ("native", "numpy")


class KernelBackendUnavailable(RuntimeError):
    """An explicitly requested backend cannot be used on this machine."""


def _make_numpy() -> KernelBackend:
    from .numpy_backend import NumpyKernelBackend
    return NumpyKernelBackend()


def _make_native() -> KernelBackend:
    from .native_backend import NativeBuildError, load_native_kernels
    try:
        kernels = load_native_kernels()
    except NativeBuildError as exc:
        raise KernelBackendUnavailable(
            f"the 'native' kernel backend needs a working C compiler: "
            f"{exc}") from exc
    return ArrayKernelBackend("native", kernels)


def _make_loops() -> KernelBackend:
    from . import _loops
    return ArrayKernelBackend("loops", _loops)


_FACTORIES: dict[str, Callable[[], KernelBackend]] = {
    "numpy": _make_numpy,
    "native": _make_native,
    "loops": _make_loops,
}

#: Instantiated backends (a backend is stateless; one instance each).
_instances: dict[str, KernelBackend] = {}
#: Explicit selection via :func:`use_backend`; None defers to env/auto.
_selected: Optional[str] = None
#: The backend answering :func:`get_backend`, resolved lazily.
_active: Optional[KernelBackend] = None


def backend_names() -> tuple[str, ...]:
    """All registry names, available or not (excludes the debug ``loops``)."""
    return ("auto", "numpy", "native")


def resolve_backend(name: str) -> KernelBackend:
    """Instantiate backend *name*; :class:`KernelBackendUnavailable` if
    it cannot run here.  ``auto`` picks the first available of
    :data:`AUTO_ORDER` (``numpy`` always qualifies)."""
    if name == "auto":
        for candidate in AUTO_ORDER:
            try:
                return resolve_backend(candidate)
            except KernelBackendUnavailable:
                continue
        raise KernelBackendUnavailable("no kernel backend available")
    try:
        factory = _FACTORIES[name]
    except KeyError:
        raise KernelBackendUnavailable(
            f"unknown kernel backend {name!r}; "
            f"choose from {backend_names()}") from None
    backend = _instances.get(name)
    if backend is None:
        backend = factory()
        _instances[name] = backend
    return backend


def available_backends() -> dict[str, Optional[str]]:
    """Name → ``None`` if usable, else the reason it is not."""
    out: dict[str, Optional[str]] = {}
    for name in ("numpy", "native"):
        try:
            resolve_backend(name)
            out[name] = None
        except KernelBackendUnavailable as exc:
            out[name] = str(exc)
    return out


def use_backend(name: Optional[str], persist_env: bool = False) -> KernelBackend:
    """Select the process-wide backend (``None``/"auto" re-enables auto).

    With *persist_env* the choice is also written to ``REPRO_KERNEL_BACKEND``
    so worker processes spawned later inherit it.
    """
    global _selected, _active
    if name is None:
        name = "auto"
    backend = resolve_backend(name)
    _selected = None if name == "auto" else name
    _active = backend
    if persist_env:
        if name == "auto":
            os.environ.pop(ENV_VAR, None)
        else:
            os.environ[ENV_VAR] = name
    return backend


def get_backend() -> KernelBackend:
    """The active backend, resolving explicit > env > auto on first use."""
    global _active
    if _active is not None:
        return _active
    name = _selected or os.environ.get(ENV_VAR) or "auto"
    try:
        _active = resolve_backend(name)
    except KernelBackendUnavailable as exc:
        if name == _selected:
            raise
        # A broken environment variable should not kill the process —
        # warn once and fall back to auto-detection.
        warnings.warn(f"{ENV_VAR}={name!r} is unusable ({exc}); "
                      f"falling back to auto", RuntimeWarning,
                      stacklevel=2)
        _active = resolve_backend("auto")
    return _active


def current_backend_name() -> str:
    """Name of the backend :func:`get_backend` answers with."""
    return get_backend().name


@contextmanager
def kernel_backend(name: str):
    """Temporarily switch backends (tests, benchmarks)."""
    global _selected, _active
    prev_selected, prev_active = _selected, _active
    use_backend(name)
    try:
        yield _active
    finally:
        _selected, _active = prev_selected, prev_active
