"""The :class:`Dataset` container used throughout the library.

A dataset is an immutable collection of identified points: an ``int64`` id
vector plus a ``float64`` coordinate matrix (one row per object).  Objects may
additionally carry opaque byte *payloads* (e.g. the variable-length
description strings of the paper's OpenStreetMap records); payloads never
influence distances but do count toward shuffle bytes, exactly as on a real
cluster.
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence

import numpy as np

__all__ = ["Dataset"]


class Dataset:
    """Identified points in an n-dimensional space.

    Parameters
    ----------
    points:
        ``(m, n)`` array-like of coordinates (coerced to ``float64``).
    ids:
        Optional ``(m,)`` integer ids; defaults to ``0..m-1``.  Ids must be
        unique — join results are keyed by them.
    payload_bytes:
        Optional ``(m,)`` integer array of per-object payload sizes in bytes
        (non-coordinate data carried through the shuffle).
    name:
        Cosmetic label used in reports.
    """

    __slots__ = ("points", "ids", "payload_bytes", "name", "_id_to_row")

    def __init__(
        self,
        points: np.ndarray,
        ids: np.ndarray | None = None,
        payload_bytes: np.ndarray | None = None,
        name: str = "dataset",
    ) -> None:
        points = np.asarray(points, dtype=np.float64)
        if points.ndim != 2:
            raise ValueError(f"points must be 2-d (m objects x n dims), got shape {points.shape}")
        if ids is None:
            ids = np.arange(points.shape[0], dtype=np.int64)
        else:
            ids = np.asarray(ids, dtype=np.int64)
            if ids.shape != (points.shape[0],):
                raise ValueError(f"ids shape {ids.shape} does not match {points.shape[0]} objects")
            if np.unique(ids).size != ids.size:
                raise ValueError("object ids must be unique")
        if payload_bytes is not None:
            payload_bytes = np.asarray(payload_bytes, dtype=np.int64)
            if payload_bytes.shape != (points.shape[0],):
                raise ValueError("payload_bytes must have one entry per object")
            if (payload_bytes < 0).any():
                raise ValueError("payload sizes must be non-negative")
        self.points = points
        self.points.setflags(write=False)
        self.ids = ids
        self.ids.setflags(write=False)
        self.payload_bytes = payload_bytes
        self.name = name
        self._id_to_row: dict[int, int] | None = None

    # -- basic protocol -----------------------------------------------------

    def __len__(self) -> int:
        return self.points.shape[0]

    @property
    def dimensions(self) -> int:
        """Number of coordinates per object (``n`` in the paper)."""
        return self.points.shape[1]

    def __iter__(self) -> Iterator[tuple[int, np.ndarray]]:
        for i in range(len(self)):
            yield int(self.ids[i]), self.points[i]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Dataset(name={self.name!r}, objects={len(self)}, dims={self.dimensions})"

    # -- accessors ----------------------------------------------------------

    def point_of(self, object_id: int) -> np.ndarray:
        """Coordinates of the object with the given id."""
        if self._id_to_row is None:
            self._id_to_row = {int(v): i for i, v in enumerate(self.ids)}
        return self.points[self._id_to_row[int(object_id)]]

    def payload_of_row(self, row: int) -> int:
        """Payload size in bytes of the object at positional ``row``."""
        if self.payload_bytes is None:
            return 0
        return int(self.payload_bytes[row])

    # -- derivation ---------------------------------------------------------

    def take(self, rows: Sequence[int] | np.ndarray, name: str | None = None) -> "Dataset":
        """A new dataset restricted to the given positional rows."""
        rows = np.asarray(rows, dtype=np.int64)
        return Dataset(
            self.points[rows].copy(),
            ids=self.ids[rows].copy(),
            payload_bytes=None if self.payload_bytes is None else self.payload_bytes[rows].copy(),
            name=name or self.name,
        )

    def sample(self, size: int, rng: np.random.Generator, name: str | None = None) -> "Dataset":
        """Uniform sample without replacement (used for pivot preprocessing)."""
        if size >= len(self):
            return self
        rows = rng.choice(len(self), size=size, replace=False)
        return self.take(np.sort(rows), name=name or f"{self.name}-sample")

    def record_bytes(self, row: int, extra: int = 0) -> int:
        """Serialized size of one object record (id + coords + payload).

        The accounting mirrors Hadoop's writables: an 8-byte id, 8 bytes per
        coordinate, plus any payload and ``extra`` per-record framing.
        """
        return 8 + 8 * self.dimensions + self.payload_of_row(row) + extra
