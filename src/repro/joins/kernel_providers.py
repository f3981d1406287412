"""Names the contract benchmark (``benchmarks/e2e``) still reads.

The reducer kernels have one implementation, :mod:`repro.joins.kernels`.
The benchmark's tracer wraps :class:`KernelProvider` under this module's
name, its environment stamp reads :func:`available_kernel_providers` and
its per-layer rows read :func:`fallback_count`.  Delete this module once
that monkeypatch tracer is retired for trace events emitted by the library.
"""

from .kernels import KernelProvider

__all__ = ["KernelProvider", "available_kernel_providers", "fallback_count"]


def available_kernel_providers() -> dict[str, tuple[bool, str]]:
    """``name -> (compiled backend available, note)``: none is compiled."""
    return {"numba": (False, "removed; the numpy kernels are the only implementation")}


def fallback_count(name: str) -> int:
    """Numpy fallbacks taken by a compiled provider: none exists, so 0."""
    return 0
