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


def _as_points(arr, name: str) -> np.ndarray:
    out = np.asarray(arr, dtype=np.float64)
    if out.ndim != 2 or out.shape[1] != 3:
        raise ShapeError(f"{name} must have shape (N, 3), got {out.shape}")
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
    """

    def __init__(self, points, leaf_size: int = DEFAULT_LEAF_SIZE):
        pts = _as_points(points, "points")
        if len(pts) == 0:
            raise EmptyIndexError("cannot index zero points")
        if not np.isfinite(pts).all():
            raise DataError("points contain non-finite coordinates")
        if leaf_size < 1:
            raise ShapeError(f"leaf_size must be positive, got {leaf_size}")
        self._leaf_size = int(leaf_size)
        self._build(pts)

    def __len__(self) -> int:
        return len(self._perm)

    def _build(self, pts: np.ndarray) -> None:
        n = len(pts)
        perm = np.arange(n, dtype=np.int64)
        # Flat node arrays; children index into them, leaves store perm ranges.
        axis, split = [], []
        left, right = [], []
        start, end = [], []

        def new_node() -> int:
            for lst, fill in ((axis, -1), (left, -1), (right, -1), (start, 0), (end, 0)):
                lst.append(fill)
            split.append(0.0)
            return len(axis) - 1

        stack = [(new_node(), 0, n)]
        while stack:
            node, lo, hi = stack.pop()
            if hi - lo <= self._leaf_size:
                perm[lo:hi].sort()
                start[node], end[node] = lo, hi
                continue
            coords = pts[perm[lo:hi]]
            spread = coords.max(axis=0) - coords.min(axis=0)
            ax = int(np.argmax(spread))
            mid = (lo + hi) // 2
            order = np.argpartition(coords[:, ax], mid - lo)
            perm[lo:hi] = perm[lo:hi][order]
            axis[node] = ax
            split[node] = pts[perm[mid], ax]
            left[node], right[node] = new_node(), new_node()
            stack.append((left[node], lo, mid))
            stack.append((right[node], mid, hi))

        self._perm = perm
        # x, y and z rows in perm order: a leaf's points are one column slice.
        self._leaf_xyz = np.ascontiguousarray(pts[perm].T)
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
        best_d2 = np.full(m, np.inf, dtype=np.float64)
        best_idx = np.full(m, -1, dtype=np.int64)
        if m:
            qxyz = np.ascontiguousarray(qry.T)
            self._visit(0, np.arange(m, dtype=np.int64), qxyz, best_d2, best_idx)
        return best_idx, np.sqrt(best_d2)

    def _visit(self, node, active, qxyz, best_d2, best_idx) -> None:
        if self._axis[node] < 0:
            lo, hi = self._start[node], self._end[node]
            d2 = _squared_distances(qxyz[:, active], self._leaf_xyz[:, lo:hi])
            # Leaf points ascend in original index, so argmin's
            # first-occurrence rule yields the lowest index on ties.
            col = np.argmin(d2, axis=1)
            cand_d2 = d2[np.arange(len(active)), col]
            cand_idx = self._perm[lo + col]
            cur_d2 = best_d2[active]
            cur_idx = best_idx[active]
            take = (cand_d2 < cur_d2) | ((cand_d2 == cur_d2) & (cand_idx < cur_idx))
            upd = active[take]
            best_d2[upd] = cand_d2[take]
            best_idx[upd] = cand_idx[take]
            return

        signed = qxyz[self._axis[node], active] - self._split[node]
        go_left = signed < 0.0
        for near_mask, near, far in (
            (go_left, self._left[node], self._right[node]),
            (~go_left, self._right[node], self._left[node]),
        ):
            group = active[near_mask]
            if len(group) == 0:
                continue
            self._visit(near, group, qxyz, best_d2, best_idx)
            plane_d2 = signed[near_mask] ** 2
            # <= keeps exact plane ties searchable on both sides.
            cross = plane_d2 <= best_d2[group]
            if cross.any():
                self._visit(far, group[cross], qxyz, best_d2, best_idx)
