"""Kernel-backend contract and registry (the accelerator dispatch seam).

The tiled sweep driver in :mod:`repro.device.tiles` and the coloring
engines consume three *hot* word-level primitives — popcount-parity
(`anticommute`), palette-intersect (`conflict candidate`) and
lowest-set-bit (`color pick`).  This module narrows that surface into
one typed contract, :class:`KernelBackend`, and a name-keyed registry
mirroring the coloring-engine registry (:mod:`repro.coloring.engine`):

- :func:`register_backend` / :func:`get_backend` /
  :func:`registered_backends` / :func:`available_backends` — the
  registry.  *Registered* names include backends whose runtime is not
  importable here (``numba`` on a host without it); *available* names
  are the subset that can actually run, which is what test
  parametrization and benchmarks iterate.
- :func:`backend_name` — the one place ``REPRO_KERNEL_BACKEND`` is
  read: an explicit name wins, ``None`` / ``"auto"`` falls back to the
  environment, then ``"numpy"``.
- :func:`resolve_backend` — the instance policy shared by the driver
  and every worker initializer.  An unavailable or unknown name
  degrades to numpy with a one-line stderr note (once per name per
  process) instead of failing the run — backends are bit-identical by
  contract, so the fallback is always safe, merely slower.

Every backend must reproduce the numpy reference **bit for bit**: the
equivalence suites parametrize over :func:`available_backends` and
require identical CSR structures and colorings per seed.  Anything that
cannot meet that bar is not a backend, it is a different algorithm.
"""

from __future__ import annotations

import os
import sys
from abc import ABC, abstractmethod
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    from repro.device.tiles import TileScratch

__all__ = [
    "KernelBackend",
    "register_backend",
    "get_backend",
    "registered_backends",
    "available_backends",
    "backend_name",
    "resolve_backend",
]

#: Environment override consulted by :func:`backend_name` when no
#: explicit backend name is given.
ENV_VAR = "REPRO_KERNEL_BACKEND"


class KernelBackend(ABC):
    """Contract of one compute-kernel implementation.

    The three abstract primitives are the hot words.  Diagonal masking,
    the dense-vs-gather oracle policy and hit ordering live once, in
    the tile driver :func:`repro.device.tiles.conflict_hits_block`,
    which calls :meth:`lists_intersect_block` on whichever backend the
    sweep resolved.
    """

    #: Registry name (set by subclasses).
    name: str = ""

    @classmethod
    def is_available(cls) -> bool:
        """Whether this backend's runtime can be imported here."""
        return True

    @abstractmethod
    def anticommute_parity_block(
        self, packed: np.ndarray, r0: int, r1: int, c0: int, c1: int
    ) -> np.ndarray:
        """``parity(popcount(a & b))`` for the block, as uint8 0/1."""

    @abstractmethod
    def lists_intersect_block(
        self,
        colmasks: np.ndarray,
        r0: int,
        r1: int,
        c0: int,
        c1: int,
        scratch: TileScratch | None = None,
    ) -> np.ndarray:
        """Boolean block: True where the palette bitsets intersect.

        ``scratch`` is the numpy path's preallocated tile buffers;
        compiled backends may ignore it.
        """

    @abstractmethod
    def lowest_set_bit_rows(self, masks: np.ndarray) -> np.ndarray:
        """Lowest set bit per row of a packed ``(n, W)`` matrix
        (int64, -1 for all-zero rows)."""

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(name={self.name!r})"


_REGISTRY: dict[str, type[KernelBackend]] = {}

# One instance per backend name: backends are stateless beyond their
# lazily compiled kernels, and sharing the instance shares the compile.
_INSTANCES: dict[str, KernelBackend] = {}

# Names already warned about by resolve_backend's fallback (one stderr
# line per unknown/unavailable name per process, not one per sweep).
_FALLBACK_NOTED: set[str] = set()


def register_backend(cls: type[KernelBackend]) -> type[KernelBackend]:
    """Class decorator: add a backend to the registry under ``cls.name``."""
    if not cls.name:
        raise ValueError("backend class must define a non-empty name")
    if cls.name in _REGISTRY:
        raise ValueError(f"kernel backend {cls.name!r} already registered")
    _REGISTRY[cls.name] = cls
    return cls


def registered_backends() -> tuple[str, ...]:
    """All registered backend names, sorted (importable or not)."""
    return tuple(sorted(_REGISTRY))


def available_backends() -> tuple[str, ...]:
    """Registered backends whose runtime imports here, sorted."""
    return tuple(sorted(n for n, c in _REGISTRY.items() if c.is_available()))


def get_backend(name: str) -> KernelBackend:
    """The singleton instance of a registered, available backend.

    Unknown names raise ``ValueError`` with the registered set in the
    message; a registered backend whose runtime is missing raises
    ``RuntimeError`` (use :func:`resolve_backend` for the degrading
    path).
    """
    cls = _REGISTRY.get(name)
    if cls is None:
        raise ValueError(
            f"unknown kernel backend {name!r}; "
            f"registered: {registered_backends()}"
        )
    if not cls.is_available():
        raise RuntimeError(
            f"kernel backend {name!r} is registered but its runtime is "
            "not importable here"
        )
    inst = _INSTANCES.get(name)
    if inst is None:
        inst = _INSTANCES[name] = cls()
    return inst


def backend_name(name: str | None = None) -> str:
    """The concrete backend name a request resolves to.

    An explicit name passes through; ``None`` / ``"auto"`` consult
    ``REPRO_KERNEL_BACKEND`` (read per call, so a test can flip the
    env var without rebuilding params), landing on ``"numpy"`` when it
    is unset, empty or itself ``"auto"``.  The result ships in worker
    payloads, so the dispatcher and every worker agree on what was
    requested even when a worker's missing runtime makes it degrade to
    numpy locally.
    """
    if name is None or name == "auto":
        name = os.environ.get(ENV_VAR, "").strip().lower()
        if not name or name == "auto":
            name = "numpy"
    return name


def resolve_backend(name: str | None = None) -> KernelBackend:
    """Selection policy: :func:`backend_name`, then the instance.

    A name that is unknown or whose runtime is missing **degrades to
    numpy** with a one-line stderr note (once per name per process):
    backends are bit-identical by contract, so a cluster agent without
    numba still produces the same CSR and colorings, just slower.
    This is the worker-side resolver — pool and cluster payload
    installs ship the *name* and call this in the worker process, so
    spawned and remote workers pick their backend against their own
    environment.
    """
    name = backend_name(name)
    cls = _REGISTRY.get(name)
    if cls is not None and cls.is_available():
        return get_backend(name)
    if name not in _FALLBACK_NOTED:
        _FALLBACK_NOTED.add(name)
        reason = "is not registered" if cls is None else "has no importable runtime"
        print(
            f"repro: kernel backend {name!r} {reason}; "
            "falling back to 'numpy'",
            file=sys.stderr,
        )
    return get_backend("numpy")
