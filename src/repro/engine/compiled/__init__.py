"""Compiled kernel backend: registry, Numba detection, float32 mode.

The NumPy kernels in :mod:`repro.engine.portfolio` / ``scenario`` build
a handful of full-size temporaries per evaluation (queue drain,
production, node totals, perturbed-rate copies). This package fuses each
hot kernel into a single pass over the sample axis — written as plain Python loops
(:mod:`repro.engine.compiled.kernels`) that Numba jit-compiles when it
is installed (``pip install repro[compiled]``) and that run as ordinary
Python otherwise, so the backend is exercised by the test suite on every
machine while the speedup needs the optional dependency.

Backend selection
-----------------
The process-wide backend is a tiny registry:

* :func:`get_backend` / :func:`set_backend` — read/switch the active
  backend (``"numpy"`` is the default and the equivalence oracle;
  ``"compiled"`` routes ``portfolio_*`` — and therefore the per-design
  ``batch_*`` adapters — and the scenario cube through the fused
  kernels);
* :func:`use_backend` — a context manager for scoped switches;
* ``REPRO_ENGINE_BACKEND`` — environment override applied at import
  (``numpy`` | ``compiled`` | ``compiled:float32``); invalid values
  warn and keep the default rather than fail the process.

Numerics contract: with ``dtype="float64"`` the compiled kernels
replicate the NumPy path's per-element operation order exactly, so
results are **bit-for-bit identical** (pinned by
``tests/engine/test_compiled.py``). The opt-in ``dtype="float32"`` mode
halves bandwidth at a documented cost: TTM and cost results stay within
``5e-5`` relative error of float64; CAS central differences always run
in float64 internally (a float32 difference of two ~equal totals would
be pure cancellation noise), so only their inputs are rounded.

Compiled dispatchers are cached in the shared invariant LRU
(:func:`~repro.engine.invariants.cached_invariants`) under
``("compiled-kernel", name, ...)`` keys — the same lifecycle (and the
same ``clear_invariant_cache`` eviction) as every other compiled
artifact of the engine. :func:`warm_up` forces compilation eagerly so a
benchmark or service pays the jit cost before its measured window.
"""

from __future__ import annotations

import os
import warnings
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Dict, Iterator, Optional, Tuple

from ...errors import InvalidParameterError
from ...obs.instrument import set_backend_label_provider

#: Recognized backend names.
BACKENDS: Tuple[str, ...] = ("numpy", "compiled")

#: Recognized kernel dtypes.
DTYPES: Tuple[str, ...] = ("float64", "float32")

#: Environment variable selecting the backend at import time.
BACKEND_ENV = "REPRO_ENGINE_BACKEND"


@dataclass(frozen=True)
class Backend:
    """One backend selection: implementation name plus kernel dtype."""

    name: str
    dtype: str = "float64"

    @property
    def label(self) -> str:
        """The metrics label (``backend=...``) for this selection."""
        if self.name == "compiled" and self.dtype == "float32":
            return "compiled:float32"
        return self.name


_DEFAULT = Backend("numpy", "float64")
_ACTIVE: Backend = _DEFAULT

#: Cached numba module (or False when the import failed).
_NUMBA: Any = None


def _import_numba() -> Optional[Any]:
    """The ``numba`` module when installed, else ``None`` (cached)."""
    global _NUMBA
    if _NUMBA is None:
        try:
            import numba  # type: ignore[import-not-found]

            _NUMBA = numba
        except Exception:  # pragma: no cover - environment dependent
            _NUMBA = False
    return _NUMBA or None


def numba_available() -> bool:
    """Whether the optional Numba dependency is importable."""
    return _import_numba() is not None


def get_backend() -> Backend:
    """The process-wide active backend selection."""
    return _ACTIVE


def set_backend(name: str, dtype: str = "float64") -> Backend:
    """Switch the active backend; returns the new selection.

    ``dtype="float32"`` is only meaningful for the compiled backend
    (the NumPy path is the float64 oracle by definition).
    """
    if name not in BACKENDS:
        raise InvalidParameterError(
            f"unknown engine backend {name!r}; choose from {BACKENDS}"
        )
    if dtype not in DTYPES:
        raise InvalidParameterError(
            f"unknown kernel dtype {dtype!r}; choose from {DTYPES}"
        )
    if dtype == "float32" and name != "compiled":
        raise InvalidParameterError(
            "float32 mode requires the compiled backend "
            "(the numpy path is the float64 oracle)"
        )
    global _ACTIVE
    _ACTIVE = Backend(name, dtype)
    return _ACTIVE


@contextmanager
def use_backend(name: str, dtype: str = "float64") -> Iterator[Backend]:
    """Scoped :func:`set_backend`; restores the previous selection."""
    previous = _ACTIVE
    backend = set_backend(name, dtype)
    try:
        yield backend
    finally:
        set_backend(previous.name, previous.dtype)


def backend_label() -> str:
    """The active backend's metrics label (``observed_kernel`` hook)."""
    return _ACTIVE.label


def parse_backend_spec(spec: str) -> Tuple[str, str]:
    """Parse ``"numpy"`` / ``"compiled"`` / ``"compiled:float32"``."""
    name, _, dtype = spec.partition(":")
    return name.strip(), (dtype.strip() or "float64")


def backend_info() -> Dict[str, Any]:
    """The active selection plus what it resolves to on this machine.

    ``jit`` is True only when the compiled backend is active *and*
    Numba is importable — without Numba the fused kernels still run
    (as plain Python loops, the correctness path), they are just slow.
    """
    numba = _import_numba()
    return {
        "backend": _ACTIVE.name,
        "dtype": _ACTIVE.dtype,
        "numba": getattr(numba, "__version__", None) if numba else None,
        "jit": bool(numba) and _ACTIVE.name == "compiled",
    }


def warm_up() -> Dict[str, Any]:
    """Compile (or pre-bind) every fused kernel eagerly; returns info.

    With Numba installed this triggers jit compilation of all kernel
    dispatchers on tiny dummy inputs, so the first real evaluation does
    not pay the compile latency. Without Numba it simply binds the
    Python fallbacks. Idempotent; dispatchers land in the shared
    invariant LRU.
    """
    from . import kernels

    kernels.warm_up_kernels()
    return backend_info()


def _apply_environment() -> None:
    """Honor ``REPRO_ENGINE_BACKEND`` at import; warn on bad values."""
    spec = os.environ.get(BACKEND_ENV)
    if not spec:
        return
    name, dtype = parse_backend_spec(spec)
    try:
        set_backend(name, dtype)
    except InvalidParameterError as error:
        warnings.warn(
            f"ignoring invalid {BACKEND_ENV}={spec!r}: {error}",
            RuntimeWarning,
            stacklevel=2,
        )


# Kernel metrics carry a backend label from now on; registering the
# provider here (this module is imported by repro.engine.portfolio) keeps
# the hot observed_kernel wrapper free of any engine import.
set_backend_label_provider(backend_label)
_apply_environment()


__all__ = [
    "BACKENDS",
    "BACKEND_ENV",
    "Backend",
    "DTYPES",
    "backend_info",
    "backend_label",
    "get_backend",
    "numba_available",
    "parse_backend_spec",
    "set_backend",
    "use_backend",
    "warm_up",
]
