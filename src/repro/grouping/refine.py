"""Replication-aware refinement of a grouping (Section 5.2, counted copies).

Both strategies group R cells from summaries alone: geometric grouping
(Algorithm 4) by pivot proximity, greedy grouping by Equation 12, which
charges a whole S cell as soon as any of its objects qualifies.  The master
holds more than that: the partitioning job's ``T_S`` partials ship every
``|s, p_j|``, so it can count copies object by object.

**Model.**  ``c[j, i]`` is the number of S objects of cell ``P_j`` that
Theorem 5 sends toward R cell ``P_i``, ``|s, p_j| >= LB(P_j^S, P_i^R)`` (less
``PRUNE_EPS``, as the mapper tests it), and ``0`` where the two cells' anchor
hulls lie more than ``theta_i`` apart around some anchor — no ``s`` of the
one is then within ``theta_i`` of any ``r`` of the other
(:func:`replica_counts`).  The objects a cell admits are a suffix of ``P_j``'s
ascending pivot distances, so a group ``G`` receives ``max_{i in G} c[j, i]``
copies of ``P_j``: without the hull term that is exactly Theorem 6's count.

**Moves.**  :func:`refine_groups` moves single R cells between groups while
the modelled total ``sum_G sum_j max_{i in G} c[j, i]`` falls.  Per group and
S cell it keeps the largest and second-largest ``c`` (and which cell holds
the largest), so what a cell saves by leaving its group and costs by joining
another is priced for every (cell, group) pair in one vectorised pass.  The
cells with a saving move are then taken best first, each re-priced against
every group as the pass's earlier moves left them and moved to its best group
while that still saves.  No group's R load may exceed the largest load of the
strategy's own output, and no group is emptied.  Every step is deterministic.
"""

from __future__ import annotations

from itertools import compress

import numpy as np

from repro.core.geometry import PRUNE_EPS
from repro.core.summary import SummaryTable

from .base import GroupAssignment

__all__ = ["refine_groups", "replica_counts"]

#: (cell, group, S cell) terms one pricing pass holds at once (8 MiB)
_PRICE_TERMS = 1 << 20
#: passes over the cells at most; each makes at least one move or ends.  The
#: groups of a 5 000-object join settle within 10; at 40 000 objects each pass
#: still finds moves, and 10 keep the refinement near 2 % of the join's CPU
_MAX_PASSES = 10


def replica_counts(
    lb_matrix: np.ndarray,
    thetas: dict[int, float],
    ts: SummaryTable,
    r_hulls: tuple[np.ndarray, np.ndarray],
    s_hulls: tuple[np.ndarray, np.ndarray],
) -> np.ndarray:
    """``c``, ``(M, M)`` indexed ``[j, i]`` like ``lb_matrix``
    (:func:`~repro.core.bounds.compute_lb_matrix`): per S cell ``j`` and R
    cell ``i`` the copies the model charges (module docstring), ``0`` where
    either cell is empty.  ``thetas`` holds every non-empty R cell's
    ``theta_i``, ``ts`` is the merged ``T_S``, whose runs are every S cell's
    ascending pivot distances, and the hulls are both tables'
    :func:`~repro.core.bounds.cell_anchor_hulls`.  The
    hull term applies when both carry the same anchors, to the pairs Theorem
    5 leaves, an anchor at a time: no ``(A, M, M)`` array is built."""
    num_pivots = lb_matrix.shape[0]
    sizes = np.zeros(num_pivots, dtype=np.int32)
    sizes[ts.cells] = ts.counts
    flat = ts.distances
    ends = np.cumsum(sizes, dtype=np.int64)
    lows, highs = np.full(num_pivots, np.inf), np.full(num_pivots, -np.inf)
    lows[ts.cells], highs[ts.cells] = ts.lower, ts.upper
    # a threshold above a cell's farthest object admits none of it
    rows, cols = np.nonzero(lb_matrix - PRUNE_EPS <= highs[:, None])
    (r_lo, r_hi), (s_lo, s_hi) = r_hulls, s_hulls
    if len(r_lo) and len(r_lo) == len(s_lo):
        reach = np.zeros(num_pivots)
        reach[list(thetas)] = list(thetas.values())
        reach += PRUNE_EPS
        near_lo, near_hi = r_lo - reach, r_hi + reach
        for a in range(len(r_lo)):
            near = s_lo[a].take(rows) <= near_hi[a].take(cols)
            near &= s_hi[a].take(rows) >= near_lo[a].take(cols)
            rows, cols = rows[near], cols[near]
    thresholds = lb_matrix[rows, cols] - PRUNE_EPS
    # one at or below the nearest admits all of it, one between them the
    # objects searched for
    counts = sizes[rows]
    part = np.flatnonzero(thresholds > lows[rows])
    if part.size:
        # every cell's run searched at once: ``d >= t`` iff fewer of all the
        # distances lie below ``t`` than below ``d``, so a rank among them
        # under the cell's offset orders (cell, distance) pairs exactly
        ordered = np.sort(flat)
        span = flat.size + 1
        keys = np.repeat(np.arange(num_pivots) * span, sizes) + ordered.searchsorted(flat)
        wanted = rows[part] * span + ordered.searchsorted(thresholds[part])
        counts[part] = ends[rows[part]] - keys.searchsorted(wanted)
    copies = np.zeros((num_pivots, num_pivots), dtype=np.int32)
    copies[rows, cols] = counts
    return copies


def refine_groups(
    assignment: GroupAssignment, copies: np.ndarray, tr: SummaryTable
) -> GroupAssignment:
    """Move single R cells between ``assignment``'s groups while the modelled
    copies fall (module docstring); ``copies`` is :func:`replica_counts`'
    matrix and ``tr`` holds the R loads.  Groups keep their members in order,
    less those that left, then those that arrived in ascending cell id."""
    r_pids, loads = tr.cells, tr.counts
    num_groups = assignment.num_groups
    label = np.empty(len(r_pids), dtype=np.intp)
    for group, members in enumerate(assignment.groups):
        label[np.searchsorted(r_pids, members)] = group
    origin = label.copy()
    state = _GroupMaxima(np.ascontiguousarray(copies[:, r_pids].T), label, num_groups)
    group_load = np.bincount(label, weights=loads, minlength=num_groups).astype(np.int64)
    sizes = np.bincount(label, minlength=num_groups)
    cap = group_load.max()
    for _ in range(_MAX_PASSES):
        saving = state.savings()
        cells = np.flatnonzero((saving > 0) & (sizes[label] > 1))
        if not cells.size:
            break
        delta = state.prices(cells) - saving[cells, None]
        # a cell stays put, and no group grows past the cap
        allowed = group_load + loads[cells, None] <= cap
        allowed[np.arange(cells.size), label[cells]] = False
        best = np.where(allowed, delta, 0).min(axis=1)
        made = 0
        for pick in np.lexsort((cells, best)):
            if best[pick] >= 0:
                break
            # re-priced against the groups as the pass's earlier moves left them
            cell, source = int(cells[pick]), int(label[cells[pick]])
            if sizes[source] == 1:
                continue
            gains = state.price_row(cell) - state.saving(cell, source)
            gains[(group_load + loads[cell] > cap) | (np.arange(num_groups) == source)] = 0
            dest = int(gains.argmin())
            if gains[dest] >= 0:
                continue
            state.move(cell, source, dest)
            sizes[source] -= 1
            sizes[dest] += 1
            group_load[source] -= loads[cell]
            group_load[dest] += loads[cell]
            made += 1
        if not made:
            break
    groups = [
        list(compress(members, (label[np.searchsorted(r_pids, members)] == group).tolist()))
        for group, members in enumerate(assignment.groups)
    ]
    for n in np.flatnonzero(label != origin).tolist():
        groups[label[n]].append(int(r_pids[n]))
    return GroupAssignment.from_groups(groups)


class _GroupMaxima:
    """Per group and S cell the largest and second-largest ``c`` of its
    members (``top``, ``second``) and the member holding the largest
    (``holder``, ``-1`` for an empty group), over ``columns`` — ``c``
    transposed, a row per R cell — under the group labels ``label``.  A
    zero never changes a maximum, and most of ``c`` is zero at scale, so a
    move updates the maxima at the moved cell's non-zero S cells only."""

    def __init__(self, columns: np.ndarray, label: np.ndarray, num_groups: int) -> None:
        self.columns, self.label = columns, label
        shape = (num_groups, columns.shape[1])
        self.top = np.zeros(shape, dtype=columns.dtype)
        self.second = np.zeros(shape, dtype=columns.dtype)
        self.holder = np.full(shape, -1, dtype=np.intp)
        for group in range(num_groups):
            members = np.flatnonzero(label == group)
            self._rebuild(group, members, self.columns[members], slice(None))

    def _rebuild(self, group: int, members: np.ndarray, values: np.ndarray, at) -> None:
        """The group's maxima at S cells ``at`` from its ``members``'
        ``values`` there (a copy, overwritten)."""
        if not members.size:
            self.top[group, at] = self.second[group, at] = 0
            self.holder[group, at] = -1
            return
        first, every = values.argmax(axis=0), np.arange(values.shape[1])
        self.holder[group, at] = members[first]
        self.top[group, at] = values[first, every]
        values[first, every] = 0
        self.second[group, at] = values.max(axis=0)

    def savings(self) -> np.ndarray:
        """Per R cell the copies its group would lose without it."""
        held = self.holder.ravel()
        valid = held >= 0
        weights = (self.top - self.second).ravel()[valid]
        return np.rint(
            np.bincount(held[valid], weights=weights, minlength=len(self.columns))
        ).astype(np.int64)

    def saving(self, cell: int, group: int) -> int:
        """:meth:`savings` for one cell of ``group``."""
        return int((self.top[group] - self.second[group])[self.holder[group] == cell].sum())

    def prices(self, cells: np.ndarray) -> np.ndarray:
        """``(cells, groups)``: the copies each group would gain with the
        cell, ``sum_j max(0, c[j, cell] - top[group, j])``."""
        per = max(1, _PRICE_TERMS // self.top.size)
        held = self.top.sum(axis=1)
        return np.concatenate([
            np.maximum(self.columns[cells[lo : lo + per], None, :], self.top).sum(axis=2) - held
            for lo in range(0, cells.size, per)
        ])

    def price_row(self, cell: int) -> np.ndarray:
        """:meth:`prices` for one cell."""
        return np.maximum(self.columns[cell] - self.top, 0).sum(axis=1)

    def move(self, cell: int, source: int, dest: int) -> None:
        """Relabel ``cell`` from ``source`` to ``dest``: both groups' maxima
        change only where the cell's ``c`` is not zero — the source's are
        rebuilt where the cell reached them, the destination's take the
        cell's values in."""
        self.label[cell] = dest
        at = np.flatnonzero(self.columns[cell])
        values = self.columns[cell, at]
        # the source's maxima move only where the cell held the top or
        # reached the second
        reached = at[(values >= self.second[source, at]) | (self.holder[source, at] == cell)]
        members = np.flatnonzero(self.label == source)
        self._rebuild(source, members, self.columns[members[:, None], reached], reached)
        top = self.top[dest, at]
        self.second[dest, at] = np.maximum(self.second[dest, at], np.minimum(top, values))
        self.holder[dest, at[values > top]] = cell
        self.top[dest, at] = np.maximum(top, values)
