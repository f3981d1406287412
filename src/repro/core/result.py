"""Join result container and validation helpers."""

from __future__ import annotations

from collections.abc import Iterator

import numpy as np

__all__ = ["KnnJoinResult"]


class KnnJoinResult:
    """The materialized result of ``R ltimes S``: k neighbors per r.

    Stored as ``{r_id: (neighbor_ids, distances)}`` with each neighbor list
    sorted ascending by (distance, id).  Per Definition 2 the cardinality is
    ``k * |R|`` whenever ``k <= |S|``.
    """

    def __init__(self, k: int) -> None:
        self.k = k
        self._neighbors: dict[int, tuple[np.ndarray, np.ndarray]] = {}

    # -- construction ---------------------------------------------------------

    def add(self, r_id: int, neighbor_ids: np.ndarray, distances: np.ndarray) -> None:
        """Record the neighbor list of one r (must not already be present)."""
        r_id = int(r_id)
        if r_id in self._neighbors:
            raise ValueError(f"duplicate result for object {r_id}")
        neighbor_ids = np.asarray(neighbor_ids, dtype=np.int64)
        distances = np.asarray(distances, dtype=np.float64)
        if neighbor_ids.shape != distances.shape:
            raise ValueError("neighbor ids and distances must align")
        self._neighbors[r_id] = (neighbor_ids, distances)

    def add_many(
        self,
        r_ids: np.ndarray,
        offsets: np.ndarray,
        neighbor_ids: np.ndarray,
        distances: np.ndarray,
    ) -> None:
        """Record many neighbor lists at once, given in CSR form: the list of
        ``r_ids[i]`` is the ``offsets[i]:offsets[i + 1]`` slice of both flat
        arrays (none of the ids may already be present)."""
        neighbor_ids = np.asarray(neighbor_ids, dtype=np.int64)
        distances = np.asarray(distances, dtype=np.float64)
        if neighbor_ids.shape != distances.shape:
            raise ValueError("neighbor ids and distances must align")
        bounds = np.asarray(offsets).tolist()
        lists = {
            r_id: (neighbor_ids[start:stop], distances[start:stop])
            for r_id, start, stop in zip(np.asarray(r_ids).tolist(), bounds, bounds[1:])
        }
        if len(lists) != len(r_ids) or not self._neighbors.keys().isdisjoint(lists):
            raise ValueError("duplicate result for an object")
        self._neighbors.update(lists)

    @classmethod
    def from_dict(
        cls, k: int, mapping: dict[int, tuple[np.ndarray, np.ndarray]]
    ) -> "KnnJoinResult":
        """Wrap a ``{r_id: (ids, dists)}`` mapping (e.g. brute-force output)."""
        result = cls(k)
        for r_id, (ids, dists) in mapping.items():
            result.add(r_id, ids, dists)
        return result

    # -- access ----------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._neighbors)

    def __contains__(self, r_id: int) -> bool:
        return int(r_id) in self._neighbors

    def neighbors_of(self, r_id: int) -> tuple[np.ndarray, np.ndarray]:
        """``(neighbor_ids, distances)`` for one r."""
        return self._neighbors[int(r_id)]

    def r_ids(self) -> list[int]:
        """Sorted ids of all joined R objects."""
        return sorted(self._neighbors)

    def pairs(self) -> Iterator[tuple[int, int, float]]:
        """Iterate the flat join output: ``(r_id, s_id, distance)`` triples."""
        for r_id in self.r_ids():
            ids, dists = self._neighbors[r_id]
            for s_id, dist in zip(ids.tolist(), dists.tolist()):
                yield r_id, s_id, dist

    def total_pairs(self) -> int:
        """Cardinality of the join output."""
        return sum(ids.size for ids, _ in self._neighbors.values())

    def kth_distances(self) -> np.ndarray:
        """The kNN radius of every r (useful for outlier scoring)."""
        return np.array(
            [self._neighbors[r][1][-1] for r in self.r_ids()], dtype=np.float64
        )

    # -- validation --------------------------------------------------------------

    def validate(self, expected_r_ids: np.ndarray, s_size: int) -> None:
        """Structural checks: every r present, k neighbors each, sorted lists."""
        expected = {int(i) for i in expected_r_ids}
        got = set(self._neighbors)
        if expected != got:
            missing = sorted(expected - got)[:5]
            extra = sorted(got - expected)[:5]
            raise AssertionError(f"result r-id mismatch (missing={missing}, extra={extra})")
        want = min(self.k, s_size)
        for r_id, (ids, dists) in self._neighbors.items():
            if ids.size != want:
                raise AssertionError(f"object {r_id}: {ids.size} neighbors, expected {want}")
            if np.any(np.diff(dists) < 0):
                raise AssertionError(f"object {r_id}: distances not sorted")

    def same_distances_as(self, other: "KnnJoinResult", rtol: float = 1e-9) -> bool:
        """Distance-profile equality — the tie-insensitive correctness check.

        Two exact kNN joins must agree on every neighbor *distance* even when
        equidistant neighbors make the id sets ambiguous.
        """
        if set(self._neighbors) != set(other._neighbors):
            return False
        for r_id, (_, dists) in self._neighbors.items():
            other_dists = other._neighbors[r_id][1]
            if dists.shape != other_dists.shape:
                return False
            if not np.allclose(dists, other_dists, rtol=rtol, atol=1e-9):
                return False
        return True
