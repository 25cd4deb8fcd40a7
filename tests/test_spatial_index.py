"""KdTree against the brute-force reference on varied point distributions,
and its tree arrays against a node-at-a-time build of the same layout."""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from plelidar import geometry, spatial_index, synth
from plelidar.errors import DataError, EmptyIndexError, ShapeError
from plelidar.spatial_index import DEFAULT_LEAF_SIZE, KdTree, nearest_brute

from conftest import one_box_config


def oracle_build(pts, leaf_size):
    """The tree arrays of the fixed-depth build, one node at a time.

    A node is a row of point indices, padded with index n. It splits along
    its widest axis at its middle slot, by one argpartition of its row with
    the padding at +inf, and the two halves of the partitioned row are its
    children's rows. The last level's rows, sorted, are the leaves.
    """
    n = len(pts)
    depth = 0
    while -(-n // 2**depth) > leaf_size:
        depth += 1
    width = -(-n // 2**depth)
    padded = np.vstack([pts, np.full((1, 3), np.inf)])
    level = [np.concatenate([np.arange(n), np.full((width << depth) - n, n)])]
    axes, splits = [], []
    for _ in range(depth):
        axis, split, children = [], [], []
        for row in level:
            real = pts[row[row < n]]
            ax = int(np.argmax(real.max(axis=0) - real.min(axis=0))) if len(real) else 0
            key = padded[row, ax]
            mid = len(row) // 2
            row = row[np.argpartition(key, mid)]
            axis.append(ax)
            split.append(padded[row[mid], ax])
            children += [row[:mid], row[mid:]]
        axes.append(np.array(axis, dtype=np.int64))
        splits.append(np.array(split, dtype=np.float64))
        level = children
    leaf_idx = np.sort(np.array(level, dtype=np.int64), axis=1)
    return {
        "_axis": axes,
        "_split": splits,
        "_leaf_idx": leaf_idx,
        "_leaf_xyz": np.ascontiguousarray(padded[leaf_idx].transpose(2, 0, 1)),
    }


def assert_tree_equals_oracle(points, leaf_size):
    tree = KdTree(points, leaf_size=leaf_size)
    expected = oracle_build(np.asarray(points, dtype=np.float64), leaf_size)
    for name in ("_axis", "_split"):
        got = getattr(tree, name)
        assert len(got) == len(expected[name]), name
        for level, (g, e) in enumerate(zip(got, expected[name])):
            assert g.dtype == e.dtype and np.array_equal(g, e), (name, level)
    for name in ("_leaf_idx", "_leaf_xyz"):
        got = getattr(tree, name)
        assert got.dtype == expected[name].dtype, name
        assert np.array_equal(got, expected[name]), name


def assert_tree_invariants(points, leaf_size):
    """The layout every tree must have, whatever the points."""
    pts = np.asarray(points, dtype=np.float64)
    n = len(pts)
    tree = KdTree(pts, leaf_size=leaf_size)
    depth = len(tree._axis)
    # every leaf at one depth: the smallest at which ceil(n / 2**depth) fits
    assert -(-n // 2**depth) <= leaf_size
    assert depth == 0 or -(-n // 2 ** (depth - 1)) > leaf_size
    idx, xyz = tree._leaf_idx, tree._leaf_xyz
    assert idx.shape == (2**depth, -(-n // 2**depth)) and xyz.shape == (3, *idx.shape)
    for level in range(depth):
        assert tree._axis[level].shape == tree._split[level].shape == (2**level,)
    pad = idx == n
    # each point in one leaf, at most leaf_size per leaf, in ascending index,
    # and the padding exactly the tail of its row
    assert sorted(idx[~pad].tolist()) == list(range(n))
    assert (~pad).sum(axis=1).max() <= leaf_size
    assert (pad[:, :-1] <= pad[:, 1:]).all()
    assert ((idx[:, :-1] < idx[:, 1:]) | pad[:, 1:]).all()
    coords = pts[np.minimum(idx, n - 1)].transpose(2, 0, 1)
    assert np.array_equal(xyz, np.where(pad, np.inf, coords))
    # every point under a left child is <= its node's split, every point
    # under a right child >= it
    for level in range(depth):
        nodes = np.arange(2**level)
        coord = xyz.reshape(3, 2**level, 2, -1)[tree._axis[level], nodes]
        hidden = pad.reshape(2**level, 2, -1)
        split = tree._split[level][:, None]
        assert (np.where(hidden[:, 0], -np.inf, coord[:, 0]) <= split).all()
        assert (np.where(hidden[:, 1], np.inf, coord[:, 1]) >= split).all()
    return tree


def assert_matches_brute(points, queries, leaf_size=16):
    tree = KdTree(points, leaf_size=leaf_size)
    ti, td = tree.nearest(queries)
    bi, bd = nearest_brute(points, queries)
    assert ti.tobytes() == bi.tobytes()
    assert td.tobytes() == bd.tobytes()


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


def _scan_pair():
    """A two-frame pool in the second frame's coordinates, and that frame."""
    data = synth.generate(one_box_config(frames=2, points_per_surface=6.0))
    to_target = geometry.relative_transform(data.poses[0], data.poses[1])
    target = data.clouds[1].points
    return np.concatenate([geometry.apply_points(to_target, data.clouds[0].points), target]), target


def test_scan_pair_matches_brute_at_default_leaf_size():
    # Planar ground and walls put many points exactly on split planes, and
    # fixed sampling makes most target points exact duplicates of reference
    # points, so the lowest-index rule decides across leaves.
    pool, target = _scan_pair()
    assert len(pool) > 40 * DEFAULT_LEAF_SIZE
    assert_matches_brute(pool, target, leaf_size=DEFAULT_LEAF_SIZE)


def test_leaf_indices_ascend():
    rng = np.random.default_rng(5)
    pts = rng.integers(-3, 4, (500, 3)).astype(np.float64)
    tree = assert_tree_invariants(pts, 16)
    assert len(tree._leaf_idx) > 1
    # the per-axis leaf block holds those points in that order
    real = tree._leaf_idx < len(pts)
    assert np.array_equal(tree._leaf_xyz[:, real].T, pts[tree._leaf_idx[real]])


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


def _layout_case(kind, rng, leaf_size):
    if kind == "uniform":
        return rng.uniform(-20.0, 20.0, (3000, 3))
    if kind == "grid":
        return rng.integers(-4, 5, (3000, 3)).astype(np.float64)
    if kind == "duplicates":
        return np.tile(rng.uniform(-5.0, 5.0, (60, 3)), (30, 1))
    if kind == "plane":
        pts = rng.uniform(-10.0, 10.0, (2000, 3))
        pts[:, 2] = 0.25
        return pts
    if kind == "line":
        return np.outer(rng.uniform(-40.0, 40.0, 1500), [0.6, -0.8, 0.0]) + [1.0, 2.0, 3.0]
    if kind == "one-leaf":
        return rng.uniform(-1.0, 1.0, (leaf_size, 3))
    if kind == "offset":
        return rng.uniform(-5.0, 5.0, (2500, 3)) + 1e5
    return _scan_pair()[0]


LAYOUT_KINDS = ["uniform", "grid", "duplicates", "plane", "line", "one-leaf", "offset", "scan"]


@pytest.mark.parametrize("leaf_size", [1, 16, DEFAULT_LEAF_SIZE, 256])
@pytest.mark.parametrize("kind", LAYOUT_KINDS)
def test_tree_arrays_equal_the_node_at_a_time_build(kind, leaf_size):
    pts = _layout_case(kind, np.random.default_rng(len(kind) * 1000 + leaf_size), leaf_size)
    assert_tree_equals_oracle(pts, leaf_size)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 400), st.sampled_from([1, 3, 16, 32, 64]))
def test_random_tree_arrays_equal_the_node_at_a_time_build(seed, n_points, leaf_size):
    rng = np.random.default_rng(seed)
    assert_tree_equals_oracle(rng.integers(-4, 5, (n_points, 3)).astype(np.float64), leaf_size)


@pytest.mark.parametrize("leaf_size", [1, 16, DEFAULT_LEAF_SIZE, 256])
@pytest.mark.parametrize("kind", LAYOUT_KINDS)
def test_tree_layout_invariants(kind, leaf_size):
    pts = _layout_case(kind, np.random.default_rng(len(kind) * 1000 + leaf_size), leaf_size)
    assert_tree_invariants(pts, leaf_size)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 700), st.integers(1, 40))
def test_random_tree_layout_invariants(seed, n_points, leaf_size):
    rng = np.random.default_rng(seed)
    assert_tree_invariants(rng.integers(-4, 5, (n_points, 3)).astype(np.float64), leaf_size)


def _edge_sizes(leaf_size):
    sizes = {1, leaf_size - 1, leaf_size, leaf_size + 1}
    for k in range(1, 6):
        sizes |= {(2**k) * leaf_size - 1, (2**k) * leaf_size + 1}
    return sorted(s for s in sizes if s >= 1)


@pytest.mark.parametrize("n_points", _edge_sizes(DEFAULT_LEAF_SIZE))
def test_sizes_around_full_levels_match_brute(n_points):
    # one point short of and past a full leaf, and of 2**k full leaves,
    # where the padding fills most of a leaf or none of it
    rng = np.random.default_rng(n_points)
    pts = rng.uniform(-10.0, 10.0, (n_points, 3))
    queries = np.concatenate([rng.uniform(-12.0, 12.0, (200, 3)), pts[:50]])
    assert_tree_invariants(pts, DEFAULT_LEAF_SIZE)
    assert_matches_brute(pts, queries, leaf_size=DEFAULT_LEAF_SIZE)


@pytest.mark.parametrize("n_points", [2, DEFAULT_LEAF_SIZE + 1, 5 * DEFAULT_LEAF_SIZE + 3])
def test_identical_points_match_brute(n_points):
    # every split ties; every query reaches every leaf, and index 0 wins
    pts = np.tile([[1.5, -2.0, 0.25]], (n_points, 1))
    queries = np.array([[1.5, -2.0, 0.25], [1.5, -2.0, 0.0], [9.0, 9.0, 9.0], [1.5, -1.0, 0.25]])
    assert_tree_invariants(pts, DEFAULT_LEAF_SIZE)
    assert_matches_brute(pts, queries, leaf_size=DEFAULT_LEAF_SIZE)
    assert KdTree(pts).nearest(queries)[0].tolist() == [0, 0, 0, 0]


@pytest.mark.parametrize("kind", ["grid", "scan"])
def test_queries_on_every_split_plane_match_brute(kind):
    # each query is a point moved onto a split plane of the default-size
    # tree, so it lies exactly on the face between two cells
    rng = np.random.default_rng(31)
    if kind == "grid":
        pts = rng.integers(-6, 7, (3000, 3)).astype(np.float64)
    else:
        pts = _scan_pair()[0]
    tree = KdTree(pts)
    axes, splits = np.concatenate(tree._axis), np.concatenate(tree._split)
    inner = np.flatnonzero(np.isfinite(splits))
    queries = pts[rng.integers(0, len(pts), len(inner))]
    queries[np.arange(len(inner)), axes[inner]] = splits[inner]
    assert_matches_brute(pts, queries, leaf_size=DEFAULT_LEAF_SIZE)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_nearest_rejects_non_finite_query(value):
    tree = KdTree(np.arange(30, dtype=np.float64).reshape(10, 3), leaf_size=2)
    queries = np.zeros((4, 3))
    queries[2, 1] = value
    with pytest.raises(DataError):
        tree.nearest(queries)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_nearest_brute_rejects_non_finite_query(value):
    queries = np.zeros((4, 3))
    queries[3, 0] = value
    with pytest.raises(DataError):
        nearest_brute(np.arange(30, dtype=np.float64).reshape(10, 3), queries)


def _split_plane_queries(rng, pts, leaf_size, count):
    """Points moved onto the split plane of a random inner node."""
    tree = KdTree(pts, leaf_size=leaf_size)
    axes = np.concatenate([[], *tree._axis]).astype(np.int64)
    splits = np.concatenate([[], *tree._split])
    inner = np.flatnonzero(np.isfinite(splits))
    queries = pts[rng.integers(0, len(pts), count)] + rng.normal(0.0, 0.3, (count, 3))
    if len(inner):
        nodes = inner[rng.integers(0, len(inner), count)]
        queries[np.arange(count), axes[nodes]] = splits[nodes]
    return queries


def _structured_case(kind, rng, leaf_size):
    """(points, queries) of one kind the two-phase query must get exactly right."""
    if kind == "duplicates-across-leaves":
        base = np.round(rng.uniform(-3.0, 3.0, (rng.integers(1, 20), 3)) * 2.0) / 2.0
        pts = np.tile(base, (rng.integers(2, 12), 1))
        rng.shuffle(pts)
        queries = np.concatenate([base, base + rng.normal(0.0, 0.2, base.shape)])
        return pts, queries
    if kind == "on-split-planes":
        pts = rng.integers(-5, 6, (rng.integers(2, 300), 3)).astype(np.float64)
        return pts, _split_plane_queries(rng, pts, leaf_size, 40)
    if kind == "planar":
        pts = rng.uniform(-10.0, 10.0, (rng.integers(2, 300), 3))
        normal = rng.normal(size=3)
        pts -= np.outer(pts @ normal / (normal @ normal), normal)
        return pts, rng.uniform(-12.0, 12.0, (40, 3))
    if kind == "collinear":
        direction = rng.normal(size=3)
        pts = np.outer(np.round(rng.uniform(-20.0, 20.0, rng.integers(2, 300))), direction)
        queries = np.outer(rng.uniform(-25.0, 25.0, 40), direction) + rng.normal(0.0, 1.0, (40, 3))
        return pts, queries
    if kind == "one-leaf":
        pts = rng.integers(-2, 3, (rng.integers(1, leaf_size + 1), 3)).astype(np.float64)
        return pts, rng.integers(-3, 4, (40, 3)).astype(np.float64)
    # offset: coordinates near 1e5 m, where a subtraction rounds
    pts = 1e5 + rng.uniform(-3.0, 3.0, (rng.integers(2, 300), 3))
    pts[rng.integers(0, len(pts), len(pts) // 3)] = pts[0]
    queries = 1e5 + rng.uniform(-4.0, 4.0, (40, 3))
    queries[:10] = pts[rng.integers(0, len(pts), 10)]
    return pts, queries


@settings(max_examples=200, deadline=None)
@given(
    st.integers(0, 2**32 - 1),
    st.sampled_from(["duplicates-across-leaves", "on-split-planes", "planar", "collinear",
                     "one-leaf", "offset"]),
    st.sampled_from([1, 2, 8, 32]),
)
def test_structured_sets_match_brute(seed, kind, leaf_size):
    pts, queries = _structured_case(kind, np.random.default_rng(seed), leaf_size)
    assert_matches_brute(pts, queries, leaf_size=leaf_size)


def test_queries_inside_their_cell_skip_phase_two(monkeypatch):
    # Clusters of nine points, a cube's corners and its centre, on a
    # 4 x 4 x 2 grid: every median split falls between clusters, one cluster
    # fills a leaf, and a query on a centre matches at distance 0, nearer
    # than any face of its cell.
    corners = np.array([[i, j, k] for i in (-0.1, 0.1) for j in (-0.1, 0.1) for k in (-0.1, 0.1)])
    cube = np.concatenate([[[0.0, 0.0, 0.0]], corners])
    centres = np.array([[i, j, k] for i in range(4) for j in range(4) for k in range(2)],
                       dtype=np.float64) * 2.0
    pts = (centres[:, None, :] + cube).reshape(-1, 3)

    def fail(*args):
        raise AssertionError("phase 2 ran")

    monkeypatch.setattr(KdTree, "_far_leaves", fail)
    assert_matches_brute(pts, centres, leaf_size=len(cube))


def test_phase_two_halves_query_sets_that_outgrow_the_pair_budget(monkeypatch):
    # queries on a shell around the points cross many split planes, so with
    # a tiny pair budget phase 2 halves its query set until each half fits
    rng = np.random.default_rng(17)
    pts = rng.uniform(-1.0, 1.0, (300, 3))
    directions = rng.normal(size=(60, 3))
    queries = 3.0 * directions / np.linalg.norm(directions, axis=1)[:, None]
    monkeypatch.setattr(spatial_index, "_PAIR_BUDGET", 64)
    far_leaves = KdTree._far_leaves
    outgrown = []

    def spy(self, q, rows, *args):
        pairs = far_leaves(self, q, rows, *args)
        outgrown.append(pairs is None)
        return pairs

    monkeypatch.setattr(KdTree, "_far_leaves", spy)
    assert_matches_brute(pts, queries, leaf_size=2)
    assert any(outgrown) and not all(outgrown)


def test_many_queries_in_one_leaf_score_in_bounded_memory():
    # 40,000 queries share the one leaf of a 200-point pool. One (queries x
    # points) block for all of them peaks near 130 MB; scoring _LEAF_ROWS
    # (query, leaf) pairs at a time keeps the peak near 14 MB, and near
    # 5 MB at the default leaf size.
    rng = np.random.default_rng(23)
    pts = rng.uniform(-10.0, 10.0, (200, 3))
    queries = rng.uniform(-12.0, 12.0, (40_000, 3))
    bi, bd = nearest_brute(pts, queries)
    for tree in (KdTree(pts, leaf_size=len(pts)), KdTree(pts)):
        tracemalloc.start()
        try:
            ti, td = tree.nearest(queries)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 48e6
        assert np.array_equal(ti, bi)
        assert np.array_equal(td, bd)


@pytest.mark.parametrize("leaf_size", [1, 4, 16])
def test_leaf_blocks_scored_in_slices_match_brute(monkeypatch, leaf_size):
    # slices of three queries split both phases' leaf blocks
    monkeypatch.setattr(spatial_index, "_LEAF_ROWS", 3)
    rng = np.random.default_rng(29)
    pts = rng.uniform(-1.0, 1.0, (200, 3))
    assert_matches_brute(pts, rng.uniform(-1.5, 1.5, (500, 3)), leaf_size=leaf_size)
    assert_matches_brute(pts, np.repeat(pts[:7], 5, axis=0), leaf_size=leaf_size)
