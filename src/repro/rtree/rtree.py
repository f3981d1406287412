"""The R-tree index: bulk loading, dynamic insertion and kNN search.

This is the index the H-BRJ baseline builds per reducer over its block of
``S``.  It provides:

* STR bulk loading (the fast path used by the join),
* classic Guttman insertion with quadratic split (dynamic use and tests),
* best-first kNN search (Hjaltason & Samet) driven by MINDIST — the
  "traversing the R-tree with a priority queue of candidate objects and
  intermediate nodes" the paper describes for H-BRJ's reducers.

Distance accounting: object distances at leaves go through the counted
metric (they are genuine object pairs); MINDIST evaluations on rectangles do
not.
"""

from __future__ import annotations

import heapq
import itertools

import numpy as np

from repro.core.distance import Metric

from .node import InternalNode, LeafNode, Node
from .rect import Rect
from .str_bulk import build_str_tree

__all__ = ["RTree"]


class RTree:
    """An in-memory R-tree over identified points.

    Parameters
    ----------
    metric:
        Counted metric used for kNN leaf scans (and MINDIST, uncounted).
    capacity:
        Maximum entries per node; nodes split at ``capacity + 1``.
    """

    def __init__(self, metric: Metric, capacity: int = 32) -> None:
        if capacity < 4:
            raise ValueError("capacity must be >= 4")
        self.metric = metric
        self.capacity = capacity
        self.root: Node | None = None
        self._size = 0

    def __len__(self) -> int:
        return self._size

    # -- construction -------------------------------------------------------

    @classmethod
    def bulk_load(
        cls, points: np.ndarray, ids: np.ndarray, metric: Metric, capacity: int = 32
    ) -> "RTree":
        """STR bulk load (preferred for static data, e.g. H-BRJ blocks)."""
        tree = cls(metric, capacity)
        points = np.atleast_2d(np.asarray(points, dtype=np.float64))
        tree.root = build_str_tree(points, np.asarray(ids, dtype=np.int64), capacity)
        tree._size = points.shape[0]
        return tree

    def insert(self, point: np.ndarray, object_id: int) -> None:
        """Guttman insert with quadratic split."""
        point = np.asarray(point, dtype=np.float64)
        self._size += 1
        if self.root is None:
            self.root = LeafNode(point.reshape(1, -1), np.array([object_id]))
            return
        split = self._insert_into(self.root, point, int(object_id))
        if split is not None:
            self.root = InternalNode([self.root, split])

    def _insert_into(self, node: Node, point: np.ndarray, object_id: int) -> Node | None:
        """Insert recursively; returns a new sibling if ``node`` split."""
        if node.is_leaf:
            node.points = np.vstack([node.points, point])
            node.ids = np.append(node.ids, object_id)
            node.refresh_rect()
            if len(node) > self.capacity:
                return self._split_leaf(node)
            return None
        child = self._choose_child(node, point)
        split = self._insert_into(child, point, object_id)
        if split is not None:
            node.children.append(split)
        node.refresh_rect()
        if len(node) > self.capacity:
            return self._split_internal(node)
        return None

    @staticmethod
    def _choose_child(node: InternalNode, point: np.ndarray) -> Node:
        """ChooseLeaf: least enlargement, ties by smaller area."""
        best = None
        best_key = None
        for child in node.children:
            grown = child.rect.expanded_to(point)
            key = (grown.area() - child.rect.area(), child.rect.area())
            if best_key is None or key < best_key:
                best, best_key = child, key
        assert best is not None
        return best

    def _split_leaf(self, node: LeafNode) -> LeafNode:
        """Quadratic split of an overfull leaf; mutates node, returns sibling."""
        left_rows, right_rows = self._quadratic_partition(
            [Rect(p, p) for p in node.points]
        )
        sibling = LeafNode(node.points[right_rows], node.ids[right_rows])
        node.points = node.points[left_rows]
        node.ids = node.ids[left_rows]
        node.refresh_rect()
        return sibling

    def _split_internal(self, node: InternalNode) -> InternalNode:
        """Quadratic split of an overfull internal node."""
        left_rows, right_rows = self._quadratic_partition(
            [child.rect for child in node.children]
        )
        children = node.children
        sibling = InternalNode([children[i] for i in right_rows])
        node.children = [children[i] for i in left_rows]
        node.refresh_rect()
        return sibling

    def _quadratic_partition(self, rects: list[Rect]) -> tuple[list[int], list[int]]:
        """Guttman's quadratic PickSeeds/PickNext over entry rectangles."""
        count = len(rects)
        min_fill = max(1, self.capacity // 3)
        # PickSeeds: pair wasting the most dead area
        worst_pair, worst_waste = (0, 1), -np.inf
        for i in range(count - 1):
            for j in range(i + 1, count):
                waste = rects[i].union(rects[j]).area() - rects[i].area() - rects[j].area()
                if waste > worst_waste:
                    worst_waste, worst_pair = waste, (i, j)
        left = [worst_pair[0]]
        right = [worst_pair[1]]
        left_rect, right_rect = rects[worst_pair[0]], rects[worst_pair[1]]
        rest = [i for i in range(count) if i not in worst_pair]
        for i in rest:
            remaining = count - len(left) - len(right)
            if len(left) + remaining <= min_fill:
                left.append(i)
                left_rect = left_rect.union(rects[i])
                continue
            if len(right) + remaining <= min_fill:
                right.append(i)
                right_rect = right_rect.union(rects[i])
                continue
            grow_left = left_rect.enlargement(rects[i])
            grow_right = right_rect.enlargement(rects[i])
            if (grow_left, left_rect.area(), len(left)) <= (
                grow_right,
                right_rect.area(),
                len(right),
            ):
                left.append(i)
                left_rect = left_rect.union(rects[i])
            else:
                right.append(i)
                right_rect = right_rect.union(rects[i])
        return left, right

    # -- queries -------------------------------------------------------------

    def knn(self, query: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
        """Best-first k-nearest-neighbor search.

        Returns ``(ids, dists)`` ordered by (distance, id), of length
        ``min(k, len(self))``.  Nodes are expanded in MINDIST order; object
        distances are computed per leaf page through the counted metric.
        """
        if k < 1:
            raise ValueError("k must be >= 1")
        if self.root is None:
            return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.float64)
        query = np.asarray(query, dtype=np.float64)
        counter = itertools.count()
        # heap entries: (distance, kind, tiebreak, payload)
        # kind 0 = node (expanded before equidistant objects), 1 = object
        heap: list[tuple[float, int, int, object]] = [
            (self.root.rect.mindist(query, self.metric), 0, next(counter), self.root)
        ]
        result_ids: list[int] = []
        result_dists: list[float] = []
        while heap and len(result_ids) < min(k, self._size):
            dist, kind, tiebreak, payload = heapq.heappop(heap)
            if kind == 1:
                result_ids.append(int(tiebreak))
                result_dists.append(dist)
                continue
            node: Node = payload  # type: ignore[assignment]
            if node.is_leaf:
                dists = self.metric.distances(query, node.points)
                for row in range(len(node)):
                    heapq.heappush(
                        heap, (float(dists[row]), 1, int(node.ids[row]), None)
                    )
            else:
                for child in node.children:
                    heapq.heappush(
                        heap,
                        (child.rect.mindist(query, self.metric), 0, next(counter), child),
                    )
        return np.array(result_ids, dtype=np.int64), np.array(result_dists, dtype=np.float64)
