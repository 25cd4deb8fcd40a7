"""KdTree against the brute-force reference on varied point distributions."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from plelidar import geometry, synth
from plelidar.errors import DataError, EmptyIndexError, ShapeError
from plelidar.spatial_index import DEFAULT_LEAF_SIZE, KdTree, nearest_brute

from conftest import one_box_config


def assert_matches_brute(points, queries, leaf_size=16):
    tree = KdTree(points, leaf_size=leaf_size)
    ti, td = tree.nearest(queries)
    bi, bd = nearest_brute(points, queries)
    assert np.array_equal(ti, bi)
    assert np.array_equal(td, bd)


def test_single_point():
    pts = np.array([[1.0, 2.0, 3.0]])
    tree = KdTree(pts)
    idx, dist = tree.nearest(np.array([[1.0, 2.0, 4.0]]))
    assert idx[0] == 0
    assert dist[0] == 1.0


def test_uniform_cloud_matches_brute():
    rng = np.random.default_rng(42)
    pts = rng.uniform(-50.0, 50.0, (2000, 3))
    queries = rng.uniform(-60.0, 60.0, (300, 3))
    assert_matches_brute(pts, queries)


def test_clustered_cloud_matches_brute():
    rng = np.random.default_rng(7)
    centers = rng.uniform(-30.0, 30.0, (12, 3))
    pts = np.concatenate([c + rng.normal(0.0, 0.3, (150, 3)) for c in centers])
    queries = np.concatenate([centers + rng.normal(0, 5, centers.shape) for _ in range(4)])
    assert_matches_brute(pts, queries)


def test_duplicated_points_pick_lowest_index():
    pts = np.array([[1.0, 1.0, 1.0], [0.0, 0.0, 0.0], [1.0, 1.0, 1.0], [1.0, 1.0, 1.0]])
    tree = KdTree(pts, leaf_size=1)
    idx, dist = tree.nearest(np.array([[1.0, 1.0, 1.0], [0.9, 1.0, 1.0]]))
    assert idx.tolist() == [0, 0]
    assert dist[0] == 0.0


def test_many_duplicates_match_brute():
    rng = np.random.default_rng(3)
    base = rng.uniform(-5, 5, (40, 3))
    pts = np.tile(base, (10, 1))
    queries = rng.uniform(-6, 6, (100, 3))
    assert_matches_brute(pts, queries, leaf_size=4)


def test_degenerate_plane_and_line():
    rng = np.random.default_rng(11)
    plane = rng.uniform(-10, 10, (500, 3))
    plane[:, 2] = 0.25
    line = np.zeros((200, 3))
    line[:, 0] = rng.uniform(-40, 40, 200)
    queries = rng.uniform(-12, 12, (80, 3))
    assert_matches_brute(plane, queries)
    assert_matches_brute(line, queries)


def test_queries_on_split_planes():
    pts = np.array(
        [[float(i), float(j), 0.0] for i in range(10) for j in range(10)]
    )
    queries = pts + np.array([0.5, 0.0, 0.0])
    assert_matches_brute(pts, queries, leaf_size=2)


@pytest.mark.parametrize("leaf_size", [1, 2, 7, 16, 100, 256, 512])
def test_leaf_sizes_agree(leaf_size):
    rng = np.random.default_rng(leaf_size)
    pts = rng.uniform(-20, 20, (777, 3))
    queries = rng.uniform(-25, 25, (111, 3))
    assert_matches_brute(pts, queries, leaf_size=leaf_size)


def test_scan_pair_matches_brute_at_default_leaf_size():
    # Planar ground and walls put many points exactly on split planes, and
    # fixed sampling makes most target points exact duplicates of reference
    # points, so the lowest-index rule decides across leaves.
    data = synth.generate(one_box_config(frames=2, points_per_surface=6.0))
    to_target = geometry.relative_transform(data.poses[0], data.poses[1])
    target = data.clouds[1].points
    pool = np.concatenate([geometry.apply_points(to_target, data.clouds[0].points), target])
    assert len(pool) > 40 * DEFAULT_LEAF_SIZE
    assert_matches_brute(pool, target, leaf_size=DEFAULT_LEAF_SIZE)


def test_leaf_indices_ascend():
    rng = np.random.default_rng(5)
    pts = rng.integers(-3, 4, (500, 3)).astype(np.float64)
    tree = KdTree(pts, leaf_size=16)
    leaves = np.flatnonzero(tree._axis < 0)
    assert len(leaves) > 1
    covered = []
    for node in leaves:
        idx = tree._perm[tree._start[node]:tree._end[node]]
        assert (np.diff(idx) > 0).all()
        covered.extend(idx.tolist())
    assert sorted(covered) == list(range(len(pts)))
    # the per-axis leaf storage holds those points in that order
    assert np.array_equal(tree._leaf_xyz.T, pts[tree._perm])


def test_empty_points_rejected():
    with pytest.raises(EmptyIndexError):
        KdTree(np.zeros((0, 3)))
    with pytest.raises(EmptyIndexError):
        nearest_brute(np.zeros((0, 3)), np.zeros((1, 3)))


def test_bad_shapes_rejected():
    with pytest.raises(ShapeError):
        KdTree(np.zeros((4, 2)))
    tree = KdTree(np.zeros((4, 3)) + np.arange(4)[:, None])
    with pytest.raises(ShapeError):
        tree.nearest(np.zeros((3, 2)))


def test_non_finite_points_rejected():
    pts = np.zeros((3, 3))
    pts[1, 1] = np.nan
    with pytest.raises(DataError):
        KdTree(pts)


def test_empty_query_set():
    tree = KdTree(np.arange(30, dtype=np.float64).reshape(10, 3))
    idx, dist = tree.nearest(np.zeros((0, 3)))
    assert idx.shape == (0,) and dist.shape == (0,)


def test_caller_array_stays_writable():
    rng = np.random.default_rng(8)
    points = rng.uniform(-5.0, 5.0, (500, 3))
    queries = rng.uniform(-5.0, 5.0, (50, 3))
    tree = KdTree(points, leaf_size=16)
    idx, dist = tree.nearest(queries)
    assert points.flags.writeable
    points[:] = 0.0
    again_idx, again_dist = tree.nearest(queries)
    assert np.array_equal(again_idx, idx)
    assert np.array_equal(again_dist, dist)
    assert len(tree) == 500


@settings(max_examples=60, deadline=None)
@given(
    st.integers(0, 2**32 - 1),
    st.integers(1, 60),
    st.integers(1, 30),
    st.sampled_from([1, 3, 16]),
)
def test_random_instances_match_brute(seed, n_points, n_queries, leaf_size):
    rng = np.random.default_rng(seed)
    # Coarse grid spawns many exact ties; the integer coordinates keep
    # distances exactly representable.
    pts = rng.integers(-4, 5, (n_points, 3)).astype(np.float64)
    queries = rng.integers(-5, 6, (n_queries, 3)).astype(np.float64)
    assert_matches_brute(pts, queries, leaf_size=leaf_size)
