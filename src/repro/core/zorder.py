"""Z-order (Morton) curve utilities.

Substrate for the approximate H-zkNNJ-style join (Zhang et al., EDBT 2012 —
the competitor the paper cites and excludes as approximate, implemented here
as an extension).  Points are laid on a grid of ``2^bits`` cells per
dimension and their cell coordinates' bits interleaved into a single code
whose ordering approximately preserves spatial proximity.

The grid the joins use (:meth:`ZOrderTransform.for_box`) is a **cube**: one
side — the data's largest span — for every dimension.  An L_p distance weighs
every coordinate equally, so the curve's bit planes must too: stretching each
dimension's own span over the full range spends the leading bits on
dimensions that hardly enter a distance (on 10-d Forest, over half a curve
copy's recall).  H-zkNNJ interleaves raw integer coordinates, the same thing.

A code is ``bits * dims`` bits wide — 160 for the 10-d Forest data — so it is
held as a **fixed-width big-endian byte string**, one element of a numpy
``S{width}`` array (:meth:`ZOrderTransform.z_keys`).  Bytes compare like the
unsigned integers they spell, so ``np.sort``, ``np.searchsorted``,
``np.lexsort`` and ``<=`` on key arrays order exactly like the integers at
any width, with no per-object Python.  :meth:`ZOrderTransform.z_values` is
the integer view of the same keys, for master-side arithmetic on a handful of
codes (quantile gaps, healing margins) and for tests.
"""

from __future__ import annotations

from collections.abc import Iterable

import numpy as np

__all__ = ["ZOrderTransform"]


class ZOrderTransform:
    """Maps points to z-values over a fixed bounding box.

    Parameters
    ----------
    lo, hi:
        Bounding box of the grid (per-dimension, any shape; the joins build
        a cube with :meth:`for_box`).  Points outside are clamped — callers
        shifting points (H-zkNNJ's random shifts) widen the box accordingly.
    bits:
        Quantization bits per dimension (z-values use ``bits * dims`` bits
        total; byte-string keys make any width safe).
    """

    def __init__(self, lo: np.ndarray, hi: np.ndarray, bits: int = 16) -> None:
        self.lo = np.asarray(lo, dtype=np.float64)
        self.hi = np.asarray(hi, dtype=np.float64)
        if self.lo.shape != self.hi.shape or self.lo.ndim != 1:
            raise ValueError("lo/hi must be 1-d and aligned")
        if np.any(self.hi <= self.lo):
            raise ValueError("degenerate bounding box")
        if not 1 <= bits <= 32:
            raise ValueError("bits must be in [1, 32]")
        self.bits = bits

    @classmethod
    def for_box(
        cls, lo: np.ndarray, hi: np.ndarray, bits: int = 16, padding: float = 0.0
    ) -> "ZOrderTransform":
        """The cube anchored at ``lo`` that covers the data box ``[lo, hi]``.

        Every dimension gets the largest span as its side (why: the module
        docstring); ``padding`` widens the cube by that fraction of the side
        at both ends (room for random shift vectors).
        """
        side = max(float(np.max(hi - lo)), 1e-12)
        return cls(lo - padding * side, lo + (1.0 + padding + 1e-9) * side, bits=bits)

    @classmethod
    def for_points(
        cls, points: np.ndarray, bits: int = 16, padding: float = 0.0
    ) -> "ZOrderTransform":
        """:meth:`for_box` over the bounding box of the given points."""
        points = np.atleast_2d(points)
        return cls.for_box(points.min(axis=0), points.max(axis=0), bits, padding)

    @property
    def total_bits(self) -> int:
        """Width of a z-value: ``bits`` per dimension, interleaved."""
        return self.bits * self.lo.shape[0]

    @property
    def key_width(self) -> int:
        """Bytes per key: ``ceil(total_bits / 8)``, zero-padded at the top."""
        return -(-self.total_bits // 8)

    def quantize(self, points: np.ndarray) -> np.ndarray:
        """Integer grid coordinates in ``[0, 2^bits)`` per dimension.

        The box is divided into ``2^bits`` equal cells per dimension;
        out-of-box points clamp to the border cells.
        """
        points = np.atleast_2d(np.asarray(points, dtype=np.float64))
        scale = (2**self.bits) / (self.hi - self.lo)
        cells = np.floor((points - self.lo) * scale)
        return np.clip(cells, 0, 2**self.bits - 1).astype(np.int64)

    def z_keys(self, points: np.ndarray) -> np.ndarray:
        """Morton codes of the given points as an ``S{key_width}`` array.

        Bit ``b`` of dimension ``d`` lands at position ``b * dims + d`` of
        the code — the classic bit interleave, done as one vectorised shift
        over an ``(objects, bits, dims)`` grid laid out most significant bit
        first and packed eight bits to the byte.
        """
        cells = self.quantize(points)
        levels = np.arange(self.bits - 1, -1, -1, dtype=np.int64)[None, :, None]
        planes = ((cells[:, None, ::-1] >> levels) & 1).astype(np.uint8)
        planes = planes.reshape(cells.shape[0], self.total_bits)
        lead = 8 * self.key_width - self.total_bits
        if lead:
            planes = np.pad(planes, ((0, 0), (lead, 0)))
        return np.packbits(planes, axis=1).view(f"S{self.key_width}").ravel()

    def keys_of(self, codes: Iterable[int]) -> np.ndarray:
        """Integer codes as an ``S{key_width}`` key array (inverse of
        :meth:`z_values`); each must lie in ``[0, 2^total_bits)``."""
        width = self.key_width
        return np.array(
            [code.to_bytes(width, "big") for code in codes], dtype=f"S{width}"
        )

    def z_values(self, points: np.ndarray) -> list[int]:
        """Morton codes as arbitrary-precision ints — :meth:`z_keys` read
        back as big-endian numbers."""
        width = self.key_width
        raw = self.z_keys(points).tobytes()
        return [
            int.from_bytes(raw[at : at + width], "big")
            for at in range(0, len(raw), width)
        ]
