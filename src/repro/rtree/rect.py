"""Minimum bounding rectangles for the R-tree."""

from __future__ import annotations

import numpy as np

from repro.core.distance import Metric

__all__ = ["Rect"]


class Rect:
    """An axis-aligned minimum bounding rectangle (MBR)."""

    __slots__ = ("lo", "hi")

    def __init__(self, lo: np.ndarray, hi: np.ndarray) -> None:
        self.lo = np.asarray(lo, dtype=np.float64)
        self.hi = np.asarray(hi, dtype=np.float64)
        if self.lo.shape != self.hi.shape:
            raise ValueError("lo/hi must have the same shape")
        if np.any(self.lo > self.hi):
            raise ValueError("degenerate rectangle: lo > hi")

    @classmethod
    def of_points(cls, points: np.ndarray) -> "Rect":
        """The MBR of a non-empty point block."""
        points = np.atleast_2d(points)
        if points.shape[0] == 0:
            raise ValueError("cannot bound zero points")
        return cls(points.min(axis=0), points.max(axis=0))

    @classmethod
    def union_of(cls, rects: list["Rect"]) -> "Rect":
        """The MBR enclosing all given rectangles."""
        if not rects:
            raise ValueError("cannot union zero rectangles")
        lo = np.min([rect.lo for rect in rects], axis=0)
        hi = np.max([rect.hi for rect in rects], axis=0)
        return cls(lo, hi)

    def union(self, other: "Rect") -> "Rect":
        """MBR of this rectangle and another."""
        return Rect(np.minimum(self.lo, other.lo), np.maximum(self.hi, other.hi))

    def expanded_to(self, point: np.ndarray) -> "Rect":
        """MBR of this rectangle and one point."""
        return Rect(np.minimum(self.lo, point), np.maximum(self.hi, point))

    def area(self) -> float:
        """Hyper-volume (0 for flat rectangles)."""
        return float(np.prod(self.hi - self.lo))

    def enlargement(self, other: "Rect") -> float:
        """Area growth if ``other`` were merged in (R-tree ChooseLeaf metric)."""
        return self.union(other).area() - self.area()

    def intersects(self, other: "Rect") -> bool:
        """Whether the two rectangles overlap (boundaries included)."""
        return bool(np.all(self.lo <= other.hi) and np.all(other.lo <= self.hi))

    def mindist(self, point: np.ndarray, metric: Metric) -> float:
        """MINDIST: distance from a point to the nearest point of the MBR.

        The nearest rectangle point is the coordinate-wise clamp of the query,
        which is exact for every Minkowski metric.  Uncounted — rectangle
        geometry is not an object pair.
        """
        nearest = np.clip(point, self.lo, self.hi)
        return metric.uncounted_distance(point, nearest)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Rect(lo={self.lo.tolist()}, hi={self.hi.tolist()})"
