"""The R-tree's structural invariants, the oracle its tests check trees by."""

from __future__ import annotations

import numpy as np

from repro.rtree import RTree
from repro.rtree.node import Node
from repro.rtree.rect import Rect


def check_invariants(tree: RTree) -> None:
    """Verify MBR containment, fanout bounds and leaf-depth uniformity."""
    if tree.root is None:
        if len(tree) != 0:
            raise AssertionError("empty root but non-zero size")
        return
    depths: set[int] = set()
    total = 0

    def visit(node: Node, depth: int, is_root: bool) -> None:
        nonlocal total
        if len(node) > tree.capacity:
            raise AssertionError("node over capacity")
        if not is_root and len(node) < 1:
            raise AssertionError("empty non-root node")
        if node.is_leaf:
            depths.add(depth)
            total += len(node)
            rect = Rect.of_points(node.points)
        else:
            for child in node.children:
                if not (
                    np.all(node.rect.lo <= child.rect.lo)
                    and np.all(child.rect.hi <= node.rect.hi)
                ):
                    raise AssertionError("child MBR escapes parent MBR")
                visit(child, depth + 1, False)
            rect = Rect.union_of([c.rect for c in node.children])
        if not (np.allclose(rect.lo, node.rect.lo) and np.allclose(rect.hi, node.rect.hi)):
            raise AssertionError("stale MBR")

    visit(tree.root, 0, True)
    if len(depths) != 1:
        raise AssertionError(f"leaves at multiple depths: {sorted(depths)}")
    if total != len(tree):
        raise AssertionError(f"size mismatch: counted {total}, recorded {len(tree)}")
