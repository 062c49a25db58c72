"""Configurable parallel map for sweep/search workloads.

The analysis layers (``analysis.sweep``, ``analysis.search``, the figure
experiments) fan out over independent evaluation points. This module
provides one ordered map primitive with three executors:

* ``"serial"`` (default) -- a plain loop; always available, zero overhead.
* ``"thread"`` -- ``ThreadPoolExecutor``; useful when evaluations release
  the GIL (NumPy-heavy batch kernels) or block on I/O.
* ``"process"`` -- ``ProcessPoolExecutor``; for CPU-bound Python
  evaluations. Requires picklable functions/items; anything unpicklable
  (lambdas, closures over models) falls back to serial so sweeps never
  crash over an executor choice. Every degradation emits a
  ``RuntimeWarning`` naming the reason, so a sweep that silently lost
  its parallelism is observable (and testable with ``pytest.warns``).

Results always come back in input order and exceptions raised *by the
mapped function* propagate unchanged, so ``parallel_map(f, xs)`` is a
drop-in for ``[f(x) for x in xs]`` under every executor.

Seeded workloads pass ``seed=``: each item then receives its own
``numpy.random.Generator`` derived from ``SeedSequence(seed).spawn``, and
``function`` is called as ``function(item, rng)``. Because the child
sequence for item ``i`` depends only on ``(seed, i)`` -- never on which
worker ran it or in what order -- results are bit-for-bit identical
across all three executors.

Observability: every degradation additionally increments the
``executor_fallback_total`` counter (labelled by requested/chosen
executor), and with a tracer installed (:func:`repro.obs.install_tracer`)
each call records a ``parallel_map`` span with one ``parallel_map.item``
child span per evaluation -- including evaluations that ran in process
workers, whose spans are recorded in the worker and adopted back into
the parent tracer with the results.
"""

from __future__ import annotations

import pickle
import threading
import warnings
from collections import OrderedDict
from typing import Any, Callable, Iterable, List, Optional, Tuple, TypeVar

from ..errors import InvalidParameterError
from ..obs import trace as _trace
from ..obs.instrument import record_fallback

T = TypeVar("T")
R = TypeVar("R")

#: Recognized executor names.
EXECUTORS: Tuple[str, ...] = ("serial", "thread", "process")

#: Memoized picklability verdicts keyed by (function, payload types).
#: A repeated sweep used to pay a full pickle.dumps of every chunk's
#: payload per call just to *probe*; the verdict only depends on the
#: mapped function and the item types, so it is cached (LRU-bounded).
_PROBE_CACHE: "OrderedDict[tuple, bool]" = OrderedDict()
_PROBE_CACHE_SIZE = 1024
_PROBE_LOCK = threading.Lock()


def clear_probe_cache() -> None:
    """Drop memoized picklability verdicts (mainly for tests)."""
    with _PROBE_LOCK:
        _PROBE_CACHE.clear()


def _item_type_key(item: object) -> object:
    if isinstance(item, tuple):
        return (tuple, tuple(type(element) for element in item))
    return type(item)


def _probe_key(function: object, points: List[Any]) -> tuple:
    """Cache key: the unwrapped mapped function plus the payload types."""
    target = function
    for _ in range(8):
        inner = getattr(target, "function", None)
        if inner is None:
            inner = getattr(target, "func", None)
        if inner is None or not callable(inner):
            break
        target = inner
    function_key = (
        type(target),
        getattr(target, "__module__", None),
        getattr(target, "__qualname__", None),
    )
    return function_key, frozenset(_item_type_key(p) for p in points)


def _picklable(function: object, points: List[Any]) -> bool:
    """Probe (memoized) whether the payload survives pickling.

    Verdicts are cached per (function, item types): a payload type whose
    picklability varies by *content* can reuse a stale positive verdict,
    in which case the pool's own ``PicklingError`` is caught downstream
    and the call still degrades to serial.
    """
    key = _probe_key(function, points)
    with _PROBE_LOCK:
        cached = _PROBE_CACHE.get(key)
        if cached is not None:
            _PROBE_CACHE.move_to_end(key)
            return cached
    verdict = True
    try:
        pickle.dumps(function)
        for obj in points:
            pickle.dumps(obj)
    except Exception:
        verdict = False
    with _PROBE_LOCK:
        _PROBE_CACHE[key] = verdict
        while len(_PROBE_CACHE) > _PROBE_CACHE_SIZE:
            _PROBE_CACHE.popitem(last=False)
    return verdict


class _SeededCall:
    """Picklable adapter turning ``f(item, rng)`` into ``g((item, seq))``.

    The ``SeedSequence`` travels with the item so the Generator is
    constructed inside the worker; Generators themselves need not cross
    the process boundary.
    """

    def __init__(self, function: Callable[[T, Any], R]) -> None:
        self.function = function

    def __call__(self, pair: Tuple[T, Any]) -> R:
        import numpy as np

        item, seq = pair
        return self.function(item, np.random.default_rng(seq))


class _SpanCapturingCall:
    """Picklable adapter recording worker-side spans for the parent.

    Process workers cannot share the parent's tracer, so each call runs
    under a fresh local :class:`~repro.obs.trace.Tracer` (installed for
    the duration, so nested kernel spans are captured too) and returns
    ``(result, spans)``; the parent merges the spans via ``adopt`` and
    unwraps the results.
    """

    def __init__(
        self, function: Callable[[Any], R], parent_id: Optional[str]
    ) -> None:
        self.function = function
        self.parent_id = parent_id

    def __call__(self, item: Any) -> Tuple[R, Tuple[Any, ...]]:
        local = _trace.Tracer()
        previous = _trace.current_tracer()
        _trace.install_tracer(local)
        try:
            with local.span("parallel_map.item", parent_id=self.parent_id):
                result = self.function(item)
        finally:
            if previous is None:
                _trace.uninstall_tracer()
            else:
                _trace.install_tracer(previous)
        return result, local.spans()


def seed_sequence(seed: Any) -> Any:
    """``numpy.random.SeedSequence(seed)`` for a study seed.

    A seed NumPy refuses (negative, fractional, not a number) is an
    :class:`~repro.errors.InvalidParameterError` naming the value, not a
    bare NumPy ``ValueError``/``TypeError``.
    """
    import numpy as np

    try:
        return np.random.SeedSequence(seed)
    except (TypeError, ValueError):
        raise InvalidParameterError(
            f"seed must be a non-negative integer, got {seed!r}"
        ) from None


def parallel_map(
    function: Callable[..., R],
    items: Iterable[T],
    executor: str = "serial",
    max_workers: Optional[int] = None,
    seed: Optional[int] = None,
) -> List[R]:
    """Apply ``function`` to every item, preserving input order.

    Parameters
    ----------
    function:
        The per-item evaluation. Must be picklable for the ``"process"``
        executor (module-level functions); otherwise the call degrades to
        serial execution.
    items:
        The evaluation points (consumed eagerly).
    executor:
        One of :data:`EXECUTORS`.
    max_workers:
        Worker count for the pooled executors; ``None`` uses the
        executor's default.
    seed:
        When given, item ``i`` is evaluated as ``function(item, rng_i)``
        where ``rng_i`` is a ``numpy.random.Generator`` spawned from
        ``SeedSequence(seed)``. The stream assigned to an item depends
        only on the seed and the item's position, making seeded sweeps
        deterministic across executors.
    """
    if executor not in EXECUTORS:
        raise InvalidParameterError(
            f"executor must be one of {EXECUTORS}, got {executor!r}"
        )
    if max_workers is not None and max_workers < 1:
        raise InvalidParameterError(
            f"max_workers must be >= 1, got {max_workers}"
        )
    points: List[Any] = list(items)
    if seed is not None:
        children = seed_sequence(seed).spawn(len(points))
        points = list(zip(points, children))
        function = _SeededCall(function)
    tracer = _trace.current_tracer()
    if tracer is None:
        return _dispatch(function, points, executor, max_workers)
    with tracer.span(
        "parallel_map",
        executor=executor,
        n_items=len(points),
        seeded=seed is not None,
    ) as root:
        return _dispatch(
            function,
            points,
            executor,
            max_workers,
            tracer=tracer,
            parent_id=root.span_id,
        )


def _dispatch(
    function: Callable[[Any], R],
    points: List[Any],
    executor: str,
    max_workers: Optional[int],
    tracer: Optional[Any] = None,
    parent_id: Optional[str] = None,
) -> List[R]:
    """Run the map on the chosen executor (tracing when ``tracer`` given).

    With a tracer, in-process evaluations (serial/thread, and the serial
    fallback) each run under a ``parallel_map.item`` span parented -- by
    explicit id, since worker threads have their own span stacks -- to
    the enclosing ``parallel_map`` span; process workers record the same
    shape locally and the spans are adopted with the results.
    """
    if tracer is None:
        item_function = function
    else:

        def item_function(item: Any) -> R:
            with tracer.span("parallel_map.item", parent_id=parent_id):
                return function(item)

    if executor == "serial" or len(points) <= 1:
        return [item_function(item) for item in points]

    if executor == "thread":
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=max_workers) as pool:
            return list(pool.map(item_function, points))

    # Process executor: verify the payload actually pickles before paying
    # for a pool, and degrade to serial when the platform can't fork or
    # the pool breaks -- a sweep should never fail over an executor choice.
    if not _picklable(function, points):
        _warn_fallback(
            "the mapped function or its items are not picklable"
        )
        return [item_function(item) for item in points]
    worker: Callable[[Any], Any] = (
        function if tracer is None else _SpanCapturingCall(function, parent_id)
    )
    try:
        from concurrent.futures import ProcessPoolExecutor
        from concurrent.futures.process import BrokenProcessPool

        with ProcessPoolExecutor(max_workers=max_workers) as pool:
            mapped = list(pool.map(worker, points))
    except (
        BrokenProcessPool,
        OSError,
        ImportError,
        pickle.PicklingError,
    ) as error:
        _warn_fallback(f"the worker pool failed ({type(error).__name__}: {error})")
        return [item_function(item) for item in points]
    if tracer is None:
        return mapped
    results: List[R] = []
    for result, spans in mapped:
        results.append(result)
        tracer.adopt(spans)
    return results


def _warn_fallback(reason: str) -> None:
    """Flag a degraded run: the caller asked for processes, got serial.

    Emits the ``RuntimeWarning`` (naming the chosen executor) and bumps
    the ``executor_fallback_total{requested="process",chosen="serial"}``
    counter, so degradations show up in metrics dumps as well as logs.
    """
    record_fallback("process", "serial")
    warnings.warn(
        f"parallel_map falling back from the process executor to serial "
        f"execution (chosen executor: 'serial'): {reason}",
        RuntimeWarning,
        stacklevel=4,
    )


__all__ = ["EXECUTORS", "parallel_map", "seed_sequence"]
