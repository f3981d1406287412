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
the largest), and per cell and group the copies the group would gain with
the cell, updated where a move changes a top, so what a cell saves by leaving
its group and costs by joining another is known for every (cell, group) pair.
The cells with a saving move are taken best first, each re-priced against
every group as the pass's earlier moves left them and moved to its best group
while that still saves.

**Swaps.**  The load cap blocks most saving moves, so once the moves settle
(or their passes run out) the refinement swaps pairs of cells between
groups, for as many passes again, each pass's swaps followed by the moves
they open up.  Swapping ``x`` of group ``A`` with ``y`` of ``B`` changes the
model by the two moves ``x -> B`` and ``y -> A`` priced alone, plus what each
group's second-largest maxima give back at the S cells its leaving cell tops
alone, ``min(top, max(c[arriving], second)) - second``: never negative, so one
of the two moves saves alone, and the pairs are sought from the cells with a
saving move against every member of its destination.  A pass takes each group
pair's best saving swap, best first, at most one swap per group; swaps on
disjoint groups keep the prices they were found at.  The swaps only lower
the count the moves left.

No group's R load may exceed the largest load of the strategy's own output,
and no group is emptied.  Every step is deterministic, and every temporary
is held to about 1 MiB.
"""

from __future__ import annotations

from itertools import compress

import numpy as np

from repro.core.geometry import PRUNE_EPS, segment_keys
from repro.core.summary import SummaryTable

from .base import GroupAssignment

__all__ = ["refine_groups", "replica_counts"]

#: terms a step holds at once — (entry, group) prices, (S cell, member)
#: values, (S cell, R cell) tests — about 1 MiB of int64
_PRICE_TERMS = 1 << 17
#: passes of moves at most, then passes of swaps; each makes at least one
#: change or ends its phase.  At scale 0.5 (Forest and OSM, seeds 0-7) the
#: moves settle within 10 on 12 of 16 joins, and the swaps still find one in
#: their 10th pass on 13; at 40 000 objects both phases use all 10
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
    hull term applies when both carry the same anchors, an anchor at a time
    over a block of S cells: no ``(A, M, M)`` array is built."""
    num_pivots = lb_matrix.shape[0]
    sizes = np.zeros(num_pivots, dtype=np.int32)
    sizes[ts.cells] = ts.counts
    lows, highs = np.full(num_pivots, np.inf), np.full(num_pivots, -np.inf)
    lows[ts.cells], highs[ts.cells] = ts.lower, ts.upper
    (r_lo, r_hi), (s_lo, s_hi) = r_hulls, s_hulls
    hulled = len(r_lo) and len(r_lo) == len(s_lo)
    if hulled:
        reach = np.zeros(num_pivots)
        reach[list(thetas)] = list(thetas.values())
        reach += PRUNE_EPS
        near_lo, near_hi = r_lo - reach, r_hi + reach
    # (S cell, R cell) pairs a block of S cells at a time, ``_PRICE_TERMS``
    # of them: a threshold above a cell's farthest object admits none of it
    pairs = []
    step = max(1, _PRICE_TERMS // num_pivots)
    for first in range(0, num_pivots, step):
        block = slice(first, first + step)
        admits = lb_matrix[block] - PRUNE_EPS <= highs[block, None]
        for a in range(len(r_lo) if hulled else 0):
            admits &= s_lo[a, block, None] <= near_hi[a]
            admits &= s_hi[a, block, None] >= near_lo[a]
        pairs.append(np.flatnonzero(admits) + first * num_pivots)
    rows, cols = np.divmod(np.concatenate(pairs), num_pivots)
    thresholds = lb_matrix[rows, cols] - PRUNE_EPS
    # one at or below the nearest admits all of it, one between them the
    # objects at or beyond it: one search of every cell's ascending run,
    # keyed (cell, distance)
    counts = sizes[rows]
    part = np.flatnonzero(thresholds > lows[rows])
    if part.size:
        keys = segment_keys(np.repeat(np.arange(num_pivots), sizes), ts.distances)
        wanted = keys.searchsorted(segment_keys(rows[part], thresholds[part]))
        counts[part] = np.cumsum(sizes, dtype=np.int64)[rows[part]] - wanted
    copies = np.zeros((num_pivots, num_pivots), dtype=np.int32)
    copies[rows, cols] = counts
    return copies


def refine_groups(
    assignment: GroupAssignment, copies: np.ndarray, tr: SummaryTable
) -> GroupAssignment:
    """Move single R cells between ``assignment``'s groups, and swap pairs of
    them, while the modelled copies fall (module docstring); ``copies`` is
    :func:`replica_counts`' matrix and ``tr`` holds the R loads.  Groups keep
    their members in order, less those that left, then those that arrived in
    ascending cell id."""
    r_pids = tr.cells
    label = np.empty(len(r_pids), dtype=np.intp)
    for group, members in enumerate(assignment.groups):
        label[np.searchsorted(r_pids, members)] = group
    origin = label.copy()
    state = _GroupMaxima(
        np.ascontiguousarray(copies[:, r_pids].T), label, tr.counts, assignment.num_groups
    )
    for _ in range(_MAX_PASSES):
        if not _moves(state):
            break
    # then swaps, each pass's followed by the moves they open up
    for _ in range(_MAX_PASSES):
        if not _swaps(state):
            break
        _moves(state)
    groups = [
        list(compress(members, (label[np.searchsorted(r_pids, members)] == group).tolist()))
        for group, members in enumerate(assignment.groups)
    ]
    for n in np.flatnonzero(label != origin).tolist():
        groups[label[n]].append(int(r_pids[n]))
    return GroupAssignment.from_groups(groups)


def _moves(state: "_GroupMaxima") -> int:
    """One pass of single-cell moves, best first; the moves made."""
    saving = state.savings()
    cells = np.flatnonzero((saving > 0) & (state.sizes[state.label] > 1))
    if not cells.size:
        return 0
    delta = state.price[cells] - saving[cells, None]
    # a cell stays put, and no group grows past the cap
    allowed = state.group_load + state.loads[cells, None] <= state.cap
    allowed[np.arange(cells.size), state.label[cells]] = False
    best = np.where(allowed, delta, 0).min(axis=1)
    made = 0
    for pick in np.lexsort((cells, best)):
        if best[pick] >= 0:
            break
        # re-priced against the groups as the pass's earlier moves left them
        cell, source = int(cells[pick]), int(state.label[cells[pick]])
        if state.sizes[source] == 1:
            continue
        gains = state.price[cell] - state.saving(cell, source)
        gains[state.group_load + state.loads[cell] > state.cap] = 0
        gains[source] = 0
        dest = int(gains.argmin())
        if gains[dest] >= 0:
            continue
        state.move(cell, source, dest)
        made += 1
    return made


def _swaps(state: "_GroupMaxima") -> int:
    """One pass of swaps, at most one a group, best first; the swaps made.

    Swapping ``x`` of group ``A`` and ``y`` of group ``B`` changes the model
    by what the moves ``x -> B`` and ``y -> A`` would each change alone, plus
    what each group's second-largest maxima give back at the S cells its
    leaving cell tops alone (:meth:`_GroupMaxima.refunds`), never negative.
    So one of the two moves saves alone: the pairs are sought from each cell
    with a saving move, against every member of its destination, and priced
    exactly.  The swaps of one pass touch disjoint groups, so each keeps the
    price it was found at."""
    saving = state.savings()
    cells = np.flatnonzero(saving > 0)
    moves = state.price[cells] - saving[cells, None]
    row, dest = np.nonzero(moves < 0)
    # a cell's own group prices it at 0: not a move
    mixed = dest != state.label[cells[row]]
    row, dest = row[mixed], dest[mixed]
    xs, need = cells[row], -moves[row, dest]
    # each group's members, ascending
    order = np.argsort(state.label, kind="stable")
    starts = np.cumsum(state.sizes) - state.sizes
    loads, group_load, cap = state.loads, state.group_load, state.cap
    found = []
    lengths = state.sizes[dest]
    for lo, hi in _runs(lengths, _PRICE_TERMS):
        counts = lengths[lo:hi]
        ends = np.cumsum(counts)
        seg = np.repeat(np.arange(lo, hi), counts)
        y = order[np.arange(int(ends[-1])) + np.repeat(starts[dest[lo:hi]] - ends + counts, counts)]
        x, a = xs[seg], state.label[xs[seg]]
        back = state.price[y, a] - saving[y]
        # A trades x for y, B y for x: neither may pass the cap
        trade = loads[y] - loads[x]
        fits = (group_load[a] + trade <= cap) & (group_load[dest[seg]] - trade <= cap)
        fits &= back < need[seg]
        found.append(np.stack([(back - need[seg])[fits], x[fits], y[fits]]))
    if not found:
        return 0
    bound, x, y = np.concatenate(found, axis=1)
    # only a group pair's best swap can be taken; a refund only raises a
    # bound, so a pair's candidates are priced in ascending bound, 1, 2, 4,
    # ... a round, while a bound can still reach the pair's best
    num_groups = len(group_load)
    a, b = state.label[x], state.label[y]
    pair = np.minimum(a, b) * num_groups + np.maximum(a, b)
    delta = np.zeros(bound.size, dtype=np.int64)
    best = np.zeros(num_groups * num_groups, dtype=np.int64)
    alone = state.alone()
    pending, size = np.lexsort((y, x, bound, pair)), 1
    while pending.size:
        pending = pending[bound[pending] <= best[pair[pending]]]
        firsts = np.flatnonzero(np.diff(pair[pending], prepend=-1))
        rank = np.arange(pending.size) - np.repeat(firsts, np.diff(firsts, append=pending.size))
        now, pending = pending[rank < size], pending[rank >= size]
        delta[now] = bound[now] + state.refunds(x[now], y[now], alone)
        delta[now] += state.refunds(y[now], x[now], alone)
        np.minimum.at(best, pair[now], delta[now])
        size *= 2
    # each pair's best, then the pairs best first, each group once
    priced = np.flatnonzero(delta < 0)
    priced = priced[np.lexsort((y[priced], x[priced], delta[priced], pair[priced]))]
    bests = priced[np.flatnonzero(np.diff(pair[priced], prepend=-1))]
    used = np.zeros(num_groups, dtype=bool)
    made = 0
    for pick in bests[np.lexsort((y[bests], x[bests], delta[bests]))].tolist():
        if used[a[pick]] or used[b[pick]]:
            continue
        used[a[pick]] = used[b[pick]] = True
        state.move(int(x[pick]), a[pick], b[pick])
        state.move(int(y[pick]), b[pick], a[pick])
        made += 1
    return made


class _GroupMaxima:
    """Per group and S cell the largest and second-largest ``c`` of its
    members (``top``, ``second``) and the member holding the largest
    (``holder``, ``-1`` for an empty group), over ``columns`` — ``c``
    transposed, a row per R cell — under the group labels ``label``; per R
    cell and group the copies the group would gain with the cell
    (``price``, ``sum_j max(0, c[j, cell] - top[group, j])``); and the
    groups' R loads (``loads`` per cell) and member counts.  A zero never
    changes a maximum, and most of ``c`` is zero at scale, so a move updates
    the maxima at the moved cell's non-zero S cells only, and the prices of
    the cells with a non-zero ``c`` where a top changed."""

    def __init__(
        self, columns: np.ndarray, label: np.ndarray, loads: np.ndarray, num_groups: int
    ) -> None:
        self.columns, self.label, self.loads = columns, label, loads
        cells, width = columns.shape
        self.group_load = np.bincount(label, weights=loads, minlength=num_groups).astype(np.int64)
        self.sizes = np.bincount(label, minlength=num_groups)
        #: no group's R load may pass the strategy's largest
        self.cap = self.group_load.max()
        self.top = np.zeros((num_groups, width), dtype=columns.dtype)
        self.second = np.zeros_like(self.top)
        self.holder = np.full(self.top.shape, -1, dtype=np.intp)
        for group in range(num_groups):
            members = np.flatnonzero(label == group)
            for lo, hi in _runs(np.full(width, members.size), _PRICE_TERMS):
                self._set(group, slice(lo, hi), members, columns[members, lo:hi].T)
        # the non-zero c S cell by S cell, for the prices a move changes, a
        # block of S cells at a time
        owners, values, counts = [], [], []
        for lo, hi in _runs(np.full(width, cells), _PRICE_TERMS):
            at, owner = np.nonzero(columns[:, lo:hi].T)
            owners.append(owner.astype(np.int32))
            values.append(columns[owner, at + lo])
            counts.append(np.bincount(at, minlength=hi - lo))
        self.s_owner, self.s_values = np.concatenate(owners), np.concatenate(values)
        self.s_starts = np.concatenate(([0], np.cumsum(np.concatenate(counts))))
        # every cell priced once, from its non-zero c, a block of cells at a time
        self.price = np.zeros((cells, num_groups), dtype=np.int64)
        for lo, hi in _runs(np.full(cells, width), _PRICE_TERMS // num_groups):
            owner, at = np.nonzero(columns[lo:hi])
            gains = columns[owner + lo, at] - self.top[:, at]
            totals = np.zeros((num_groups, owner.size + 1), dtype=np.int64)
            np.cumsum(np.maximum(gains, 0, out=gains), axis=1, out=totals[:, 1:])
            ends = np.searchsorted(owner, np.arange(hi - lo + 1))
            self.price[lo:hi] = np.diff(totals[:, ends], axis=1).T

    def _rebuild(self, group: int, at: np.ndarray) -> None:
        """The group's maxima at S cells ``at``, from its members' ``c``,
        ``_PRICE_TERMS`` values at a time."""
        members = np.flatnonzero(self.label == group)
        step = max(1, _PRICE_TERMS // max(1, members.size))
        for lo in range(0, at.size, step):
            part = at[lo : lo + step]
            # (S cells, members): an S cell's values in one row
            values = self.columns.ravel().take(part[:, None] + members * self.columns.shape[1])
            self._set(group, part, members, values)

    def _set(self, group: int, at, members: np.ndarray, values: np.ndarray) -> None:
        """The group's maxima at S cells ``at`` from ``values``, ``(S cells,
        members)``, overwritten."""
        if not members.size:
            self.top[group, at] = self.second[group, at] = 0
            self.holder[group, at] = -1
            return
        first, every = values.argmax(axis=1), np.arange(len(values))
        self.holder[group, at] = members[first]
        self.top[group, at] = values[every, first]
        values[every, first] = 0
        self.second[group, at] = values.max(axis=1)

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

    def alone(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The (group, S cell) pairs whose top its holder holds alone,
        ``top > second``, holder by holder: ``(groups, S cells, each R
        cell's first)``."""
        group, at = np.nonzero(self.top > self.second)
        holder = self.holder[group, at]
        by_cell = np.argsort(holder, kind="stable")
        starts = np.searchsorted(holder[by_cell], np.arange(len(self.columns) + 1))
        return group[by_cell], at[by_cell], starts

    def refunds(self, leaving: np.ndarray, arriving: np.ndarray, alone) -> np.ndarray:
        """Per pair, what the group of ``leaving[i]`` gives back, beyond the
        two moves priced alone, when ``leaving[i]`` makes way for
        ``arriving[i]``: at each S cell the leaving cell tops alone
        (:meth:`alone`), ``min(top, max(c[arriving], second)) - second``."""
        group, at, starts = alone
        counts = starts[leaving + 1] - starts[leaving]
        out = np.zeros(leaving.size, dtype=np.int64)
        for lo, hi in _runs(counts, _PRICE_TERMS):
            lengths = counts[lo:hi]
            ends = np.cumsum(lengths)
            held = np.arange(int(ends[-1])) + np.repeat(
                starts[leaving[lo:hi]] - ends + lengths, lengths
            )
            g, j = group[held], at[held]
            second = self.second[g, j]
            values = self.columns[np.repeat(arriving[lo:hi], lengths), j]
            gains = np.minimum(self.top[g, j], np.maximum(values, second)) - second
            totals = np.zeros(held.size + 1, dtype=np.int64)
            np.cumsum(gains, out=totals[1:])
            out[lo:hi] = totals[ends] - totals[ends - lengths]
        return out

    def move(self, cell: int, source: int, dest: int) -> None:
        """Relabel ``cell`` from ``source`` to ``dest``: both groups' maxima
        change only where the cell's ``c`` is not zero — the source's are
        rebuilt where the cell reached them, the destination's take the
        cell's values in — and the prices where a top changed."""
        self.label[cell] = dest
        self.sizes[source] -= 1
        self.sizes[dest] += 1
        self.group_load[source] -= self.loads[cell]
        self.group_load[dest] += self.loads[cell]
        at = np.flatnonzero(self.columns[cell])
        values = self.columns[cell, at]
        # the source's maxima move only where the cell held the top or
        # reached the second; where it topped zeros alone, its top falls to 0
        second = self.second[source, at]
        reaches = values >= second
        reached, emptied = at[reaches], second[reaches] == 0
        was = self.top[source, reached]
        self.top[source, reached[emptied]] = 0
        self.holder[source, reached[emptied]] = -1
        self._rebuild(source, reached[~emptied])
        fell = np.flatnonzero(self.top[source, reached] != was)
        top = self.top[dest, at]
        rose = np.flatnonzero(values > top)
        self.second[dest, at] = np.maximum(self.second[dest, at], np.minimum(top, values))
        self.holder[dest, at[rose]] = cell
        self.top[dest, at] = np.maximum(top, values)
        self._reprice(
            np.repeat([source, dest], [fell.size, rose.size]),
            np.concatenate((reached[fell], at[rose])),
            np.concatenate((was[fell], top[rose])),
        )

    def _reprice(self, groups: np.ndarray, at: np.ndarray, was: np.ndarray) -> None:
        """The prices after the tops of ``groups`` at S cells ``at`` changed
        from ``was``: each cell with a ``c`` there gains ``max(0, c - top) -
        max(0, c - was)``."""
        counts = self.s_starts[at + 1] - self.s_starts[at]
        ends = np.cumsum(counts)
        if not ends.size or not ends[-1]:
            return
        entries = np.arange(int(ends[-1])) + np.repeat(self.s_starts[at] - ends + counts, counts)
        values = self.s_values[entries]
        top, was = (np.repeat(tops, counts) for tops in (self.top[groups, at], was))
        gains = np.maximum(values - top, 0) - np.maximum(values - was, 0)
        slots = self.s_owner[entries] * self.price.shape[1] + np.repeat(groups, counts)
        self.price += np.rint(np.bincount(slots, gains, self.price.size)).astype(np.int64).reshape(
            self.price.shape
        )


def _runs(lengths: np.ndarray, cap: int):
    """``[lo, hi)`` runs of consecutive ``lengths`` summing to at most ``cap``
    (a longer one alone)."""
    ends = np.cumsum(lengths)
    lo = 0
    while lo < lengths.size:
        hi = max(lo + 1, int(np.searchsorted(ends, (ends[lo - 1] if lo else 0) + cap, "right")))
        yield lo, hi
        lo = hi
