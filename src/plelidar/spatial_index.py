"""Exact nearest-neighbor search over 3D point sets.

``KdTree`` answers single-nearest-neighbor queries exactly (no approximation)
and deterministically: among equidistant candidates the lowest original point
index wins. ``nearest_brute`` is the reference implementation. Both sum the
squared distance of a pair in the order ``(dx*dx + dz*dz) + dy*dy``, so
results agree bit for bit on identical inputs.
"""

from __future__ import annotations

import numpy as np

from .errors import DataError, EmptyIndexError, ShapeError

DEFAULT_LEAF_SIZE = 32
# Phase 2 of a query halves its set of queries until the (query, node) pairs
# it holds at once stay within this many, so queries far from every point,
# which reach every leaf, stay in bounded memory.
_PAIR_BUDGET = 1 << 16
# (query, leaf) pairs are scored at most this many at a time, so the gathered
# (3, pairs, leaf width) block stays within a few hundred KiB.
_LEAF_ROWS = 1024


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
    """Median-split kd-tree of fixed depth over (N, 3) float64 points.

    Every leaf sits at depth ``D``, the smallest depth with
    ``ceil(n / 2**D) <= leaf_size``. Node ``j`` of a level has children
    ``2j`` and ``2j + 1`` on the next, so the tree is one axis array and one
    split array per level (``_axis[d]``, ``_split[d]``). The points are
    padded to ``2**D`` leaves of ``ceil(n / 2**D)`` slots with a padding
    point at +inf, index ``n``. Each node partitions its slots along its
    widest axis at the middle slot, with the padding sorted last, so every
    leaf holds at most ``leaf_size`` points and the padding fills the last
    slots of the last leaves. A leaf's
    indices ascend, padding last, in a row of ``_leaf_idx``, and
    ``_leaf_xyz`` holds their coordinates as one (3, leaves, width) block,
    so the first minimum along a row is the lowest index.

    A query runs in two phases, each one numpy step per tree level for all
    queries together. Phase 1 walks every query to its home leaf, keeping
    the smallest squared distance to a split plane on its path (its home
    cell's nearest face), and scores each query against its home leaf by
    one gather of the leaf rows. Only a query whose best squared distance
    reaches that face goes on to phase 2, which expands (query, node) pairs
    with the plane test ``signed**2 <= best`` and scores the new
    (query, leaf) pairs by the same gather. A point beyond a plane is at
    least ``signed**2`` away even in floating point, because rounding is
    monotone, so the search is exact.
    """

    def __init__(self, points, leaf_size: int = DEFAULT_LEAF_SIZE):
        pts = _as_points(points, "points")
        if len(pts) == 0:
            raise EmptyIndexError("cannot index zero points")
        if leaf_size < 1:
            raise ShapeError(f"leaf_size must be positive, got {leaf_size}")
        self._build(pts, int(leaf_size))

    def __len__(self) -> int:
        return self._n

    def _build(self, pts: np.ndarray, leaf_size: int) -> None:
        n = self._n = len(pts)
        depth = 0
        while -(-n // (1 << depth)) > leaf_size:
            depth += 1
        width = -(-n // (1 << depth))
        # Column n is the padding point, NaN while building, which fmin and
        # fmax skip. Level d is a (2**d, slots) matrix of point indices, one
        # row per node; halving a partitioned row gives its children's rows.
        xyz = np.full((3, n + 1), np.nan)
        xyz[:, :n] = pts.T
        idx = np.full((1, width << depth), n, dtype=np.int64)
        idx[0, :n] = np.arange(n)
        self._axis, self._split = [], []
        for _ in range(depth):
            rows, w = idx.shape
            # one axis at a time: holding a (3, rows, w) block of coordinates
            # raised `ple`'s peak RSS by about 5 MB on 290k-point pools
            spread = [np.fmax.reduce(c, axis=1) - np.fmin.reduce(c, axis=1)
                      for c in (row.take(idx) for row in xyz)]
            axis = np.argmax(spread, axis=0)
            # each row's key from its own axis: one gather of the flat (3, n + 1)
            key = xyz.take(idx + (axis * (n + 1))[:, None])
            np.fmin(key, np.inf, out=key)  # padding at +inf sorts last
            part = np.argpartition(key, w // 2, axis=1)
            part += (np.arange(rows) * w)[:, None]
            self._axis.append(axis)
            self._split.append(key.take(part[:, w // 2]))
            idx = idx.take(part).reshape(2 * rows, w // 2)
        idx.sort(axis=1)
        self._leaf_idx = idx
        xyz[:, n] = np.inf
        self._leaf_xyz = xyz.take(idx, axis=1)

    def nearest(self, queries):
        """Exact nearest neighbor for each query row.

        Returns (indices, distances); ties resolve to the lowest point index,
        matching ``nearest_brute``.
        """
        qry = _as_points(queries, "queries")
        m = len(qry)
        q = np.ascontiguousarray(qry.T)
        every = np.arange(m)

        # phase 1: every query down to its home leaf, one level per step
        home = np.zeros(m, dtype=np.int64)
        face_d2 = np.full(m, np.inf)
        for axis, split in zip(self._axis, self._split):
            signed = q[axis[home], every] - split[home]
            np.minimum(face_d2, signed * signed, out=face_d2)
            home = 2 * home + (signed >= 0.0)
        best_d2, best_idx = self._leaf_nearest(q, every, home)

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
            d2, idx = self._leaf_nearest(q, pair_rows, pair_leaves)
            before = best_d2[rows]
            np.minimum.at(best_d2, pair_rows, d2)
            # a query whose best fell drops its phase-1 index; among the
            # pairs that reach its best, the lowest index wins
            best_idx[rows[best_d2[rows] < before]] = self._n
            tied = d2 == best_d2[pair_rows]
            np.minimum.at(best_idx, pair_rows[tied], idx[tied])
        return best_idx, np.sqrt(best_d2)

    def _leaf_nearest(self, q, rows, leaves):
        """(squared distance, index) of the nearest point of leaf
        ``leaves[i]`` to query ``rows[i]``, at most ``_LEAF_ROWS`` pairs at
        a time, for per-axis queries ``q`` (3, M)."""
        best_d2 = np.empty(len(rows))
        best_idx = np.empty(len(rows), dtype=np.int64)
        for a in range(0, len(rows), _LEAF_ROWS):
            r, leaf = rows[a:a + _LEAF_ROWS], leaves[a:a + _LEAF_ROWS]
            # p - q squares to the same bits as q - p; the sum order is
            # _squared_distances'
            d = self._leaf_xyz.take(leaf, axis=1)
            d -= q.take(r, axis=1)[:, :, None]
            d *= d
            d2 = d[0] + d[2]
            d2 += d[1]
            col = d2.argmin(axis=1)
            best_d2[a:a + _LEAF_ROWS] = d2[np.arange(len(col)), col]
            best_idx[a:a + _LEAF_ROWS] = self._leaf_idx[leaf, col]
        return best_d2, best_idx

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
        for axis, split in zip(self._axis, self._split):
            signed = q[axis[node], rows] - split[node]
            right = signed >= 0.0
            cross = signed * signed <= best_d2[rows]
            node = 2 * node
            rows = np.concatenate((rows, rows[cross]))
            node = np.concatenate((node + right, (node + ~right)[cross]))
            if several and len(rows) > _PAIR_BUDGET:
                return None
        keep = node != home[rows]
        return rows[keep], node[keep]
