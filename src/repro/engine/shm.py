"""Zero-copy publication of compiled invariant tensors to process pools.

The process-pool sweeps (Fig. 14 split studies, portfolio Monte Carlo)
used to carry their compiled invariants *by value*: every chunk task
pickled the design objects, and every worker recompiled (or unpickled)
the SoA tensors before evaluating. This module publishes those tensors
once into POSIX shared memory (``multiprocessing.shared_memory``) and
hands workers a tiny picklable handle instead; workers attach the
segment read-only and reconstruct the invariants as zero-copy views.

Layers
------
* :class:`SharedTensorHandle` — one published segment: a name, a unique
  ``token``, and per-array (key, offset, shape, dtype) specs. Pickles
  to a few hundred bytes regardless of tensor size; :meth:`arrays`
  attaches (cached per process) and returns read-only views.
* :class:`InlineTensorHandle` — the graceful-degradation twin that
  simply carries the arrays through pickle. Returned whenever shared
  memory is unavailable or disabled (``REPRO_ENGINE_SHM=off``), so
  callers never branch.
* :class:`SharedInvariantStore` — the owner-side refcounted registry:
  ``publish`` creates a segment, ``release`` decrements and unlinks at
  zero, and an ``atexit`` hook unlinks stragglers so crashed runs do
  not leak ``/dev/shm`` segments.
* :class:`PortfolioShare` / :class:`InvariantsShare` — typed wrappers
  that know how to rebuild a
  :class:`~repro.engine.portfolio.PortfolioInvariants` or a
  ``{node: DesignInvariants}`` map from a handle (memoized per process
  by token).

Workers only ever *close* their attachment; the publishing process owns
the unlink. Attachments register their own ``atexit`` close, so pool
workers exit cleanly.
"""

from __future__ import annotations

import atexit
import os
import threading
import uuid
from dataclasses import dataclass, field
from typing import Dict, Mapping, Optional, Tuple, Union

import numpy as np

from ..obs.instrument import record_shm
from .invariants import DesignInvariants

#: Environment kill-switch: set to ``off``/``0``/``false`` to force the
#: inline (pickling) fallback even where shared memory works.
SHM_ENV = "REPRO_ENGINE_SHM"

#: Prefix for every segment this module creates (lets tests — and
#: operators — audit ``/dev/shm`` for leaks).
SEGMENT_PREFIX = "repro_shm_"

#: Offset alignment for arrays inside a segment.
_ALIGN = 64


def shm_enabled() -> bool:
    """Whether shared-memory publication is available and not disabled."""
    if os.environ.get(SHM_ENV, "").strip().lower() in {"off", "0", "false"}:
        return False
    try:
        from multiprocessing import shared_memory  # noqa: F401
    except ImportError:  # pragma: no cover - platform dependent
        return False
    return True


@dataclass(frozen=True)
class _ArraySpec:
    key: str
    offset: int
    shape: Tuple[int, ...]
    dtype: str


# Per-process cache of attached segments (workers attach each segment
# once, not once per chunk) and of materialized invariants by token.
# One re-entrant lock guards *both* maps so attach and memoization are
# a single atomic step: a thread (or a worker about to be killed)
# observed mid-materialize can never leave an attachment recorded
# without its memoized twin, which is the window that used to strand
# references when a worker died between the two writes.
_ATTACHED: Dict[str, object] = {}
_ATTACH_LOCK = threading.RLock()
_MATERIALIZED: Dict[str, object] = {}


def _attach_segment(name: str):
    with _ATTACH_LOCK:
        segment = _ATTACHED.get(name)
        if segment is None:
            from multiprocessing import shared_memory

            segment = shared_memory.SharedMemory(name=name)
            _ATTACHED[name] = segment
            record_shm("attach")
        return segment


def _materialize(token: str, build: "callable") -> object:
    """Memoized ``build()`` per handle token, atomic with the attach.

    ``build`` runs under the attach lock (it calls ``handle.arrays()``,
    which re-enters :func:`_attach_segment`; the lock is re-entrant), so
    the attach and its memoization commit together or not at all.
    """
    with _ATTACH_LOCK:
        cached = _MATERIALIZED.get(token)
        if cached is None:
            cached = build()
            _MATERIALIZED[token] = cached
        return cached


def _close_attachments() -> None:
    """Close (never unlink) this process's attachments at exit."""
    with _ATTACH_LOCK:
        for segment in _ATTACHED.values():
            try:
                segment.close()
            except (OSError, BufferError):  # pragma: no cover - teardown
                pass
        _ATTACHED.clear()
        _MATERIALIZED.clear()


atexit.register(_close_attachments)


@dataclass(frozen=True)
class SharedTensorHandle:
    """Picklable reference to arrays published in one shm segment."""

    name: str
    token: str
    specs: Tuple[_ArraySpec, ...]
    total_bytes: int

    @property
    def is_shared(self) -> bool:
        return True

    def arrays(self) -> Dict[str, np.ndarray]:
        """Attach (cached per process) and return read-only views."""
        segment = _attach_segment(self.name)
        out: Dict[str, np.ndarray] = {}
        for spec in self.specs:
            view = np.ndarray(
                spec.shape,
                dtype=np.dtype(spec.dtype),
                buffer=segment.buf,
                offset=spec.offset,
            )
            view.flags.writeable = False
            out[spec.key] = view
        return out


@dataclass(frozen=True)
class InlineTensorHandle:
    """Fallback handle: the arrays ride along through pickle."""

    token: str
    payload: Mapping[str, np.ndarray] = field(default_factory=dict)

    @property
    def is_shared(self) -> bool:
        return False

    def arrays(self) -> Dict[str, np.ndarray]:
        return dict(self.payload)


TensorHandle = Union[SharedTensorHandle, InlineTensorHandle]


@dataclass
class _OwnedSegment:
    segment: object
    handle: SharedTensorHandle
    refcount: int


class SharedInvariantStore:
    """Owner-side registry of published segments with refcounted unlink."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._owned: Dict[str, _OwnedSegment] = {}

    def publish(self, arrays: Mapping[str, np.ndarray]) -> TensorHandle:
        """Publish ``arrays`` into one shm segment (or inline fallback).

        The returned handle starts with refcount 1; pair every publish
        with exactly one :meth:`release`.
        """
        token = uuid.uuid4().hex
        if not shm_enabled():
            record_shm("fallback")
            return InlineTensorHandle(token=token, payload=dict(arrays))

        dense = {
            key: np.ascontiguousarray(value) for key, value in arrays.items()
        }
        specs = []
        offset = 0
        for key, value in dense.items():
            offset = -(-offset // _ALIGN) * _ALIGN
            specs.append(
                _ArraySpec(
                    key=key,
                    offset=offset,
                    shape=tuple(value.shape),
                    dtype=value.dtype.str,
                )
            )
            offset += value.nbytes
        total = max(offset, 1)

        try:
            from multiprocessing import shared_memory

            segment = shared_memory.SharedMemory(
                create=True,
                size=total,
                name=SEGMENT_PREFIX + uuid.uuid4().hex[:16],
            )
        except (OSError, ValueError):  # pragma: no cover - env dependent
            record_shm("fallback")
            return InlineTensorHandle(token=token, payload=dense)

        for spec in specs:
            target = np.ndarray(
                spec.shape,
                dtype=np.dtype(spec.dtype),
                buffer=segment.buf,
                offset=spec.offset,
            )
            target[...] = dense[spec.key]
        handle = SharedTensorHandle(
            name=segment.name,
            token=token,
            specs=tuple(specs),
            total_bytes=total,
        )
        with self._lock:
            self._owned[token] = _OwnedSegment(
                segment=segment, handle=handle, refcount=1
            )
        record_shm("publish", total)
        return handle

    def retain(self, handle: TensorHandle) -> None:
        """Add a reference to a handle this store published (else no-op)."""
        with self._lock:
            owned = self._owned.get(handle.token)
            if owned is not None:
                owned.refcount += 1

    def lease(self, handle: TensorHandle) -> "Lease":
        """Retain ``handle`` behind a release-exactly-once :class:`Lease`.

        The sharded server ties one lease to each worker *process*: the
        supervisor takes it before the worker spawns and releases it
        when the process is reaped — never from inside the worker — so a
        worker killed at any point (even ``SIGKILL`` mid-attach, before
        its memoization commits) cannot strand a reference. Double
        release through the same lease is a no-op by construction, which
        is what makes the reap path safe to run from both the respawn
        monitor and the final drain.
        """
        self.retain(handle)
        return Lease(self, handle)

    def release(self, handle: Optional[TensorHandle]) -> None:
        """Drop a reference; unlink the segment when it reaches zero.

        No-op for ``None``, inline handles, and handles this process
        does not own (e.g. a worker releasing defensively).
        """
        if handle is None:
            return
        with self._lock:
            owned = self._owned.get(handle.token)
            if owned is None:
                return
            owned.refcount -= 1
            if owned.refcount > 0:
                return
            del self._owned[handle.token]
        self._destroy(owned)

    def refcount(self, handle: TensorHandle) -> int:
        """Current reference count (0 when unknown/released)."""
        with self._lock:
            owned = self._owned.get(handle.token)
            return owned.refcount if owned is not None else 0

    def close_all(self) -> None:
        """Unlink every live segment (atexit / crashed-run cleanup)."""
        with self._lock:
            owned = list(self._owned.values())
            self._owned.clear()
        for entry in owned:
            self._destroy(entry)

    def _destroy(self, owned: _OwnedSegment) -> None:
        # Drop any local attachment view of our own segment first.
        with _ATTACH_LOCK:
            attached = _ATTACHED.pop(owned.handle.name, None)
        _MATERIALIZED.pop(owned.handle.token, None)
        if attached is not None:
            try:
                attached.close()
            except (OSError, BufferError):  # pragma: no cover - teardown
                pass
        try:
            owned.segment.close()
            owned.segment.unlink()
        except (OSError, FileNotFoundError):  # pragma: no cover - teardown
            pass


class Lease:
    """One retained reference on a store, released at most once.

    Usable as a context manager; :meth:`release` is idempotent and
    thread-safe, so owner-side cleanup paths may race without
    over-decrementing the segment's refcount.
    """

    def __init__(self, store: SharedInvariantStore, handle: TensorHandle):
        self._store = store
        self._handle = handle
        self._lock = threading.Lock()
        self._released = False

    @property
    def handle(self) -> TensorHandle:
        return self._handle

    @property
    def released(self) -> bool:
        return self._released

    def release(self) -> None:
        """Drop the reference (first call only; later calls no-op)."""
        with self._lock:
            if self._released:
                return
            self._released = True
        self._store.release(self._handle)

    def __enter__(self) -> "Lease":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.release()


#: The process-wide store every engine call site shares.
SHARED_STORE = SharedInvariantStore()
atexit.register(SHARED_STORE.close_all)


#: PortfolioInvariants fields published as arrays (the rest is metadata).
PORTFOLIO_ARRAY_FIELDS = (
    "node_mask",
    "tapeout_weeks",
    "max_rate",
    "fab_latency_weeks",
    "wafers_per_chip",
    "wafer_cost_usd",
    "tapeout_effort_weeks",
    "tapeout_fixed_usd",
    "mask_set_usd",
    "sequential_tapeout_weeks",
    "max_tapeout_weeks",
    "testing_weeks_per_chip",
    "assembly_weeks_per_chip",
    "design_weeks",
    "profile_design",
    "profile_node",
    "profile_count",
    "profile_ntt",
    "profile_area_mm2",
    "profile_gross",
    "profile_testing_effort",
    "profile_mean_defects",
)


@dataclass(frozen=True)
class PortfolioShare:
    """Picklable stand-in for a compiled portfolio in worker tasks."""

    handle: TensorHandle
    designs: Tuple[str, ...]
    processes: Tuple[Tuple[str, ...], ...]
    alpha: float
    special_profiles: tuple

    def materialize(self):
        """Rebuild the ``PortfolioInvariants`` (memoized per process)."""

        def _build():
            from .portfolio import PortfolioInvariants

            arrays = self.handle.arrays()
            return PortfolioInvariants(
                designs=self.designs,
                processes=self.processes,
                alpha=self.alpha,
                special_profiles=self.special_profiles,
                **{name: arrays[name] for name in PORTFOLIO_ARRAY_FIELDS},
            )

        return _materialize(self.handle.token, _build)


def share_portfolio(invariants) -> PortfolioShare:
    """Publish a compiled portfolio's tensors; returns the worker token."""
    arrays = {
        name: np.ascontiguousarray(getattr(invariants, name))
        for name in PORTFOLIO_ARRAY_FIELDS
    }
    return PortfolioShare(
        handle=SHARED_STORE.publish(arrays),
        designs=invariants.designs,
        processes=invariants.processes,
        alpha=invariants.alpha,
        special_profiles=invariants.special_profiles,
    )


#: DesignInvariants fields published as arrays (the rest is metadata).
DESIGN_ARRAY_FIELDS = (
    "tapeout_weeks",
    "max_rate",
    "fab_latency_weeks",
    "wafers_per_chip",
)


@dataclass(frozen=True)
class _DesignMeta:
    processes: Tuple[str, ...]
    sequential_tapeout_weeks: float
    testing_weeks_per_chip: float
    assembly_weeks_per_chip: float
    design_weeks: float
    alpha: float
    die_profiles: tuple


@dataclass(frozen=True)
class InvariantsShare:
    """Picklable stand-in for a ``{node: DesignInvariants}`` map."""

    handle: TensorHandle
    entries: Tuple[Tuple[str, _DesignMeta], ...]

    def materialize(self) -> Dict[str, DesignInvariants]:
        """Rebuild the invariants map (memoized per process)."""

        def _build() -> Dict[str, DesignInvariants]:
            arrays = self.handle.arrays()
            out: Dict[str, DesignInvariants] = {}
            for label, meta in self.entries:
                out[label] = DesignInvariants(
                    processes=meta.processes,
                    sequential_tapeout_weeks=meta.sequential_tapeout_weeks,
                    testing_weeks_per_chip=meta.testing_weeks_per_chip,
                    assembly_weeks_per_chip=meta.assembly_weeks_per_chip,
                    design_weeks=meta.design_weeks,
                    alpha=meta.alpha,
                    die_profiles=meta.die_profiles,
                    **{
                        name: arrays[f"{label}/{name}"]
                        for name in DESIGN_ARRAY_FIELDS
                    },
                )
            return out

        return _materialize(self.handle.token, _build)  # type: ignore[return-value]


def share_design_invariants(
    invariants_by_label: Mapping[str, DesignInvariants],
) -> InvariantsShare:
    """Publish per-label design invariants; returns the worker token."""
    arrays: Dict[str, np.ndarray] = {}
    entries = []
    for label, invariants in invariants_by_label.items():
        for name in DESIGN_ARRAY_FIELDS:
            arrays[f"{label}/{name}"] = np.ascontiguousarray(
                getattr(invariants, name), dtype=float
            )
        entries.append(
            (
                label,
                _DesignMeta(
                    processes=invariants.processes,
                    sequential_tapeout_weeks=(
                        invariants.sequential_tapeout_weeks
                    ),
                    testing_weeks_per_chip=invariants.testing_weeks_per_chip,
                    assembly_weeks_per_chip=(
                        invariants.assembly_weeks_per_chip
                    ),
                    design_weeks=invariants.design_weeks,
                    alpha=invariants.alpha,
                    die_profiles=invariants.die_profiles,
                ),
            )
        )
    return InvariantsShare(
        handle=SHARED_STORE.publish(arrays), entries=tuple(entries)
    )


def shm_usage() -> Dict[str, int]:
    """Live segment/attachment counts (for manifests and debugging)."""
    with _ATTACH_LOCK:
        attached = len(_ATTACHED)
    with SHARED_STORE._lock:
        owned = len(SHARED_STORE._owned)
    return {"owned_segments": owned, "attached_segments": attached}


__all__ = [
    "DESIGN_ARRAY_FIELDS",
    "InlineTensorHandle",
    "InvariantsShare",
    "Lease",
    "PORTFOLIO_ARRAY_FIELDS",
    "PortfolioShare",
    "SEGMENT_PREFIX",
    "SHARED_STORE",
    "SHM_ENV",
    "SharedInvariantStore",
    "SharedTensorHandle",
    "share_design_invariants",
    "share_portfolio",
    "shm_enabled",
    "shm_usage",
]
