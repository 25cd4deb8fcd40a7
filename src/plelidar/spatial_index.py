"""Exact nearest-neighbor search over 3D point sets.

``KdTree`` answers single-nearest-neighbor queries exactly (no approximation)
and deterministically: among equidistant candidates the lowest original point
index wins. ``nearest_brute`` is the reference implementation; both compute
squared distances through ``_squared_distances``, so results agree bit for
bit on identical inputs.
"""

from __future__ import annotations

import numpy as np

from .errors import DataError, EmptyIndexError, ShapeError

DEFAULT_LEAF_SIZE = 256
# Phase 2 of a query halves its set of queries until the (query, node) pairs
# it holds at once stay within this many, so queries far from every point,
# which reach every leaf, stay in bounded memory.
_PAIR_BUDGET = 1 << 16
# A leaf scores at most this many queries at once, so its (queries x leaf
# points) distance block stays within a few MiB however many share the leaf.
_LEAF_ROWS = 4096


def _as_points(arr, name: str) -> np.ndarray:
    out = np.asarray(arr, dtype=np.float64)
    if out.ndim != 2 or out.shape[1] != 3:
        raise ShapeError(f"{name} must have shape (N, 3), got {out.shape}")
    if not np.isfinite(out).all():
        raise DataError(f"{name} contain non-finite coordinates")
    return out


def _squared_distances(q: np.ndarray, p: np.ndarray) -> np.ndarray:
    """Squared distances from queries to points, one axis at a time.

    ``q`` is one query of shape (3,) or per-axis queries of shape (3, M);
    ``p`` holds per-axis points, shape (3, K). The result has shape (K,) or
    (M, K). The sum order, ``(dx*dx + dz*dz) + dy*dy``, is fixed so that
    every caller gets the same bits for the same pair.
    """
    d2 = np.subtract.outer(q[0], p[0])
    d2 *= d2
    d = np.subtract.outer(q[2], p[2])
    d *= d
    d2 += d
    np.subtract.outer(q[1], p[1], out=d)
    d *= d
    d2 += d
    return d2


def nearest_brute(points, queries):
    """Reference nearest neighbor: scan every point for every query.

    Returns (indices, distances). Ties resolve to the lowest point index.
    """
    pts = _as_points(points, "points")
    qry = _as_points(queries, "queries")
    if len(pts) == 0:
        raise EmptyIndexError("no points to search")
    indices = np.empty(len(qry), dtype=np.int64)
    dists = np.empty(len(qry), dtype=np.float64)
    for i, q in enumerate(qry):
        d2 = _squared_distances(q, pts.T)
        j = int(np.argmin(d2))
        indices[i] = j
        dists[i] = np.sqrt(d2[j])
    return indices, dists


class KdTree:
    """Median-split kd-tree over (N, 3) float64 points.

    Each leaf holds its points in ascending original index, stored
    contiguously per axis, so a leaf visit reads three slices and the first
    minimum along a row is already the lowest-index one.

    A query runs in two phases, each one numpy step per tree level for all
    queries together. Phase 1 walks every query to its home leaf, keeping
    the smallest squared distance to a split plane on its path (its home
    cell's nearest face), and scores each leaf's queries in one block, in
    slices of at most ``_LEAF_ROWS`` queries. Only a query whose best
    squared distance reaches that face goes on to phase 2, which expands
    (query, node) pairs with the plane test ``signed**2 <= best`` and
    scores the new (query, leaf) pairs one batch per leaf. A point beyond a
    plane is at least ``signed**2`` away even in floating point, because
    rounding is monotone, so the search is exact.
    """

    def __init__(self, points, leaf_size: int = DEFAULT_LEAF_SIZE):
        pts = _as_points(points, "points")
        if len(pts) == 0:
            raise EmptyIndexError("cannot index zero points")
        if leaf_size < 1:
            raise ShapeError(f"leaf_size must be positive, got {leaf_size}")
        self._leaf_size = int(leaf_size)
        self._build(pts)

    def __len__(self) -> int:
        return len(self._perm)

    def _build(self, pts: np.ndarray) -> None:
        n = len(pts)
        xyz = np.ascontiguousarray(pts.T)
        perm = np.arange(n, dtype=np.int64)
        # Flat node arrays; children index into them, leaves store perm ranges.
        axis, split, left, right, start, end = [-1], [0.0], [-1], [-1], [0], [0]
        stack = [(0, 0, n)]
        while stack:
            node, lo, hi = stack.pop()
            if hi - lo <= self._leaf_size:
                perm[lo:hi].sort()
                start[node], end[node] = lo, hi
                continue
            members = perm[lo:hi]
            coords = xyz.take(members, axis=1)
            ax = int(np.argmax(coords.max(axis=1) - coords.min(axis=1)))
            mid = (lo + hi) // 2
            perm[lo:hi] = members[np.argpartition(coords[ax], mid - lo)]
            axis[node] = ax
            split[node] = xyz[ax, perm[mid]]
            left[node], right[node] = len(axis), len(axis) + 1
            for lst, fill in ((axis, -1), (split, 0.0), (left, -1), (right, -1),
                              (start, 0), (end, 0)):
                lst.extend((fill, fill))
            stack.append((left[node], lo, mid))
            stack.append((right[node], mid, hi))

        self._perm = perm
        # x, y and z rows in perm order: a leaf's points are one column slice.
        self._leaf_xyz = xyz.take(perm, axis=1)
        self._axis = np.array(axis, dtype=np.int64)
        self._split = np.array(split, dtype=np.float64)
        self._left = np.array(left, dtype=np.int64)
        self._right = np.array(right, dtype=np.int64)
        self._start = np.array(start, dtype=np.int64)
        self._end = np.array(end, dtype=np.int64)

    def nearest(self, queries):
        """Exact nearest neighbor for each query row.

        Returns (indices, distances); ties resolve to the lowest point index,
        matching ``nearest_brute``.
        """
        qry = _as_points(queries, "queries")
        m = len(qry)

        # phase 1: every query down to its home leaf, one level per step
        home = np.zeros(m, dtype=np.int64)
        face_d2 = np.full(m, np.inf)
        live = np.flatnonzero(self._axis[home] >= 0)
        while len(live):
            node = home[live]
            signed = qry[live, self._axis[node]] - self._split[node]
            face_d2[live] = np.minimum(face_d2[live], signed * signed)
            node = np.where(signed < 0.0, self._left[node], self._right[node])
            home[live] = node
            live = live[self._axis[node] >= 0]

        # queries sorted by home leaf, so each leaf's block is one slice
        order = np.argsort(home, kind="stable")
        home, face_d2 = home[order], face_d2[order]
        q = qry.T.take(order, axis=1)
        best_d2 = np.empty(m)
        best_idx = np.empty(m, dtype=np.int64)
        for leaf, a, b in _runs(home):
            best_d2[a:b], best_idx[a:b] = self._leaf_nearest(q[:, a:b], leaf)

        # phase 2: only queries whose best reaches their home cell's face; a
        # set of them whose pairs outgrow _PAIR_BUDGET is halved and redone
        again = np.flatnonzero(face_d2 <= best_d2)
        pending = [again] if len(again) else []
        while pending:
            rows = pending.pop()
            pairs = self._far_leaves(q, rows, home, best_d2)
            if pairs is None:
                half = len(rows) // 2
                pending += [rows[half:], rows[:half]]
                continue
            pair_rows, pair_leaves = pairs
            by_leaf = np.argsort(pair_leaves, kind="stable")
            for leaf, a, b in _runs(pair_leaves[by_leaf]):
                r = pair_rows[by_leaf[a:b]]
                d2, idx = self._leaf_nearest(q[:, r], leaf)
                cur_d2, cur_idx = best_d2[r], best_idx[r]
                win = (d2 < cur_d2) | ((d2 == cur_d2) & (idx < cur_idx))
                best_d2[r[win]] = d2[win]
                best_idx[r[win]] = idx[win]

        indices = np.empty(m, dtype=np.int64)
        indices[order] = best_idx
        dists = np.empty(m)
        dists[order] = np.sqrt(best_d2)
        return indices, dists

    def _leaf_nearest(self, q: np.ndarray, leaf: int):
        """Nearest point of one leaf for per-axis queries ``q`` (3, M),
        scored at most ``_LEAF_ROWS`` queries at a time."""
        if q.shape[1] > _LEAF_ROWS:
            parts = [self._leaf_nearest(q[:, a:a + _LEAF_ROWS], leaf)
                     for a in range(0, q.shape[1], _LEAF_ROWS)]
            return tuple(np.concatenate(p) for p in zip(*parts))
        lo, hi = self._start[leaf], self._end[leaf]
        d2 = _squared_distances(q, self._leaf_xyz[:, lo:hi])
        # Leaf points ascend in original index, so argmin's first-occurrence
        # rule yields the lowest index on ties.
        col = d2.argmin(axis=1)
        return d2[np.arange(len(col)), col], self._perm[lo + col]

    def _far_leaves(self, q, rows, home, best_d2):
        """(query, leaf) pairs that may hold a point within ``best_d2``.

        Expands (query, node) pairs from the root one level per step, always
        into the query's side of a split and across it when
        ``signed**2 <= best``; <= keeps exact plane ties searchable on both
        sides. The home leaf, already scored, is left out. Returns None
        when more than one query is given and the pairs held at once
        outgrow ``_PAIR_BUDGET``.
        """
        several = len(rows) > 1
        node = np.zeros(len(rows), dtype=np.int64)
        found_rows, found_leaves = [], []
        held = 0
        while len(rows):
            if several and len(rows) + held > _PAIR_BUDGET:
                return None
            ax = self._axis[node]
            at_leaf = ax < 0
            if at_leaf.any():
                keep = at_leaf & (node != home[rows])
                found_rows.append(rows[keep])
                found_leaves.append(node[keep])
                held += len(found_rows[-1])
                inner = ~at_leaf
                rows, node, ax = rows[inner], node[inner], ax[inner]
            signed = q[ax, rows] - self._split[node]
            go_left = signed < 0.0
            cross = signed * signed <= best_d2[rows]
            near = np.where(go_left, self._left[node], self._right[node])
            far = np.where(go_left, self._right[node], self._left[node])
            rows = np.concatenate((rows, rows[cross]))
            node = np.concatenate((near, far[cross]))
        return np.concatenate(found_rows), np.concatenate(found_leaves)


def _runs(sorted_values: np.ndarray):
    """(value, start, stop) for each run of equal entries of a sorted array."""
    if len(sorted_values) == 0:
        return []
    cut = (np.flatnonzero(sorted_values[1:] != sorted_values[:-1]) + 1).tolist()
    starts, stops = [0, *cut], [*cut, len(sorted_values)]
    return zip(sorted_values[starts].tolist(), starts, stops)
