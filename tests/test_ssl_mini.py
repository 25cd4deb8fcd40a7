"""Training components: losses, gradients, EMA, loop wiring, persistence."""

from __future__ import annotations

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from plelidar import ssl_mini as ssl
from plelidar.errors import ConfigError, DataError, ShapeError
from plelidar.ple import PseudoLabelMap
from plelidar.ssl_mini import (
    KIND_GROUND_TRUTH,
    KIND_NONE,
    KIND_PLE,
    DualHeadNet,
    SSLConfig,
    TrainBatch,
    TrainData,
)

# a numpy warning from training is a failure, not a line on stderr
pytestmark = pytest.mark.filterwarnings("error")


def _net(feature_dim=3, hidden=4, classes=3, seed=0):
    return DualHeadNet.init(feature_dim, hidden, classes, seed=seed)


def _batch(seed=0, n=6, feature_dim=3, classes=3, unlabeled=2):
    rng = np.random.default_rng(seed)
    feats = rng.normal(0, 1, (n, feature_dim))
    labels = rng.integers(0, classes, n)
    kind = np.full(n, KIND_GROUND_TRUTH)
    kind[:unlabeled] = KIND_NONE
    labels[:unlabeled] = ssl.IGNORE_LABEL
    return TrainBatch(feats, labels, kind)


class TestForward:
    def test_softmax_rows_normalize(self):
        rng = np.random.default_rng(1)
        probs = ssl.softmax(rng.normal(0, 5, (10, 4)))
        assert np.allclose(probs.sum(axis=1), 1.0)
        assert probs.min() >= 0.0

    def test_softmax_shift_invariance(self):
        logits = np.array([[1.0, 2.0, 3.0]])
        assert np.allclose(ssl.softmax(logits), ssl.softmax(logits + 1000.0))

    def test_zero_weights_give_uniform(self):
        net = DualHeadNet({k: np.zeros_like(v) for k, v in _net().params.items()})
        c_logits, n_logits, _ = ssl.forward(net, np.ones((2, 3)))
        assert np.allclose(ssl.softmax(c_logits), 1 / 3)
        assert np.allclose(ssl.softmax(n_logits), 1 / 3)

    def test_init_is_deterministic(self):
        a, b = _net(seed=5), _net(seed=5)
        for k in ssl.PARAM_NAMES:
            assert np.array_equal(a.params[k], b.params[k])
        c = _net(seed=6)
        assert not np.array_equal(a.params["w1"], c.params["w1"])

    def test_forward_rejects_wrong_feature_dim(self):
        with pytest.raises(ShapeError):
            ssl.forward(_net(feature_dim=3), np.ones((2, 4)))


class TestCrossEntropy:
    # cross_entropy takes logits; the log of a row of probabilities is a
    # row of logits whose softmax is that row

    def test_uniform(self):
        loss, count = ssl.cross_entropy(np.zeros((5, 4)), np.zeros(5, dtype=int))
        assert loss == pytest.approx(math.log(4))
        assert count == 5

    def test_hand_case(self):
        probs = np.array([[0.7, 0.2, 0.1], [0.1, 0.8, 0.1], [0.25, 0.25, 0.5]])
        loss, count = ssl.cross_entropy(np.log(probs), np.array([0, 1, 2]))
        want = -(math.log(0.7) + math.log(0.8) + math.log(0.5)) / 3
        assert loss == pytest.approx(want)
        assert count == 3

    def test_ignore_rows(self):
        probs = np.array([[0.7, 0.2, 0.1], [0.1, 0.8, 0.1], [0.25, 0.25, 0.5]])
        loss, count = ssl.cross_entropy(np.log(probs), np.array([0, -1, 2]))
        assert loss == pytest.approx(-(math.log(0.7) + math.log(0.5)) / 2)
        assert count == 2

    def test_all_ignored(self):
        loss, count = ssl.cross_entropy(np.zeros((2, 3)), np.array([-1, -1]))
        assert loss == 0.0
        assert count == 0

    def test_confidently_wrong_point_costs_its_logit_gap(self):
        # the true class's probability, exp(-1000), underflows to 0
        assert ssl.softmax(np.array([[0.0, 1000.0]]))[0, 0] == 0.0
        loss, count = ssl.cross_entropy(np.array([[0.0, 1000.0]]), np.array([0]))
        assert loss == pytest.approx(1000.0)
        assert count == 1


class TestLovasz:
    def test_single_point(self):
        probs = np.array([[0.6, 0.4]])
        assert ssl._lovasz_with_grad(probs, np.array([0]))[0] == pytest.approx(0.4)

    def test_perfect_prediction(self):
        probs = np.array([[1.0, 0.0], [0.0, 1.0]])
        assert ssl._lovasz_with_grad(probs, np.array([0, 1]))[0] == pytest.approx(0.0)

    def test_hand_case_two_classes(self):
        probs = np.array([[0.9, 0.1], [0.4, 0.6], [0.3, 0.7], [0.2, 0.8]])
        labels = np.array([0, 0, 1, 1])
        assert ssl._lovasz_with_grad(probs, labels)[0] == pytest.approx(91 / 240)

    def test_absent_class_skipped(self):
        probs = np.array([[0.5, 0.3, 0.2], [0.6, 0.2, 0.2]])
        labels = np.array([0, 0])
        # only class 0 is present, with errors 0.5 and 0.4; both points are
        # foreground so the union never grows and both weights are 1/2
        want = 0.5 * 0.5 + 0.4 * 0.5
        assert ssl._lovasz_with_grad(probs, labels)[0] == pytest.approx(want)

    def test_ignore_rows(self):
        probs = np.array([[0.6, 0.4], [0.1, 0.9]])
        labels = np.array([0, -1])
        assert ssl._lovasz_with_grad(probs, labels)[0] == pytest.approx(0.4)


def _per_class_lovasz(probs, labels, ignore=ssl.IGNORE_LABEL):
    """Reference _lovasz_with_grad: one stable sort per present class, in a
    Python loop over the classes."""
    labels = np.asarray(labels, dtype=np.int64).reshape(-1)
    include = labels != ignore
    grad = np.zeros_like(probs)
    if not include.any():
        return 0.0, grad
    rows = np.flatnonzero(include)
    p = probs[rows]
    y = labels[rows]
    present = np.unique(y)
    total = 0.0
    for c in present:
        fg = y == c
        m = np.where(fg, 1.0 - p[:, c], p[:, c])
        order = np.argsort(-m, kind="stable")
        fg_sorted = fg[order]
        gts = fg_sorted.sum()
        jaccard = 1.0 - (gts - np.cumsum(fg_sorted)) / (gts + np.cumsum(~fg_sorted))
        weights = jaccard.copy()
        weights[1:] = jaccard[1:] - jaccard[:-1]
        total += float(m[order] @ weights)
        dm = np.empty(len(m))
        dm[order] = weights
        grad[rows, c] += np.where(fg, -dm, dm)
    grad /= len(present)
    return total / len(present), grad


def _lovasz_batch(kind, seed):
    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(11,)))
    # up to 12 classes: from 8 on, numpy's sum no longer adds one after another
    n, classes = int(rng.integers(1, 300)), int(rng.integers(2, 13))
    probs = ssl.softmax(rng.normal(0.0, 3.0, (n, classes)))
    labels = rng.integers(0, classes, n)
    if kind == "ties":
        probs = np.round(probs, 1)
    elif kind == "point-major":
        probs = np.ascontiguousarray(probs)
    elif kind == "one class":
        labels[:] = classes - 1
    elif kind == "absent class":
        labels[labels == 0] = 1
    elif kind == "some ignored":
        labels[rng.random(n) < 0.3] = ssl.IGNORE_LABEL
    elif kind == "all ignored":
        labels[:] = ssl.IGNORE_LABEL
    return probs, labels


@pytest.mark.parametrize("kind", ["random", "ties", "point-major", "one class",
                                  "absent class", "some ignored", "all ignored"])
def test_lovasz_equals_per_class_loop_bit_for_bit(kind):
    for seed in range(30):
        probs, labels = _lovasz_batch(kind, seed)
        want_loss, want_grad = _per_class_lovasz(probs, labels)
        loss, grad = ssl._lovasz_with_grad(probs, labels)
        assert loss == want_loss
        assert grad.shape == want_grad.shape
        assert grad.tobytes() == want_grad.tobytes()


class TestSmallPieces:
    def test_mt_consistency(self):
        a = np.array([[1.0, 0.0]])
        b = np.array([[0.0, 1.0]])
        assert ssl.mt_consistency(a, b) == pytest.approx(1.0)
        assert ssl.mt_consistency(a, a) == 0.0

    def test_mt_consistency_shape_guard(self):
        with pytest.raises(ShapeError):
            ssl.mt_consistency(np.ones((2, 2)), np.ones((3, 2)))

    def test_pseudo_label_threshold(self):
        probs = np.array([[0.2, 0.5, 0.3]])
        labels, mask = ssl.pseudo_label(probs, 0.4)
        assert labels.tolist() == [1]
        assert mask.tolist() == [True]
        _, mask = ssl.pseudo_label(probs, 0.6)
        assert mask.tolist() == [False]
        _, mask = ssl.pseudo_label(probs, 0.0)
        assert mask.tolist() == [True]

    def test_ema_update(self):
        teacher = DualHeadNet({k: np.full_like(v, 2.0) for k, v in _net().params.items()})
        student = DualHeadNet({k: np.full_like(v, 4.0) for k, v in _net().params.items()})
        merged = ssl.ema_update(teacher, student, 0.5)
        for k in ssl.PARAM_NAMES:
            assert np.all(merged.params[k] == 3.0)

    def test_ema_alpha_one_keeps_teacher(self):
        teacher, student = _net(seed=1), _net(seed=2)
        merged = ssl.ema_update(teacher, student, 1.0)
        for k in ssl.PARAM_NAMES:
            assert np.array_equal(merged.params[k], teacher.params[k])

    def test_batch_kind_label_consistency(self):
        with pytest.raises(DataError):
            TrainBatch(np.ones((1, 2)), np.array([0]), np.array([KIND_NONE]))
        with pytest.raises(DataError):
            TrainBatch(np.ones((1, 2)), np.array([-1]), np.array([KIND_PLE]))


def _fd_gradient(student, teacher, batch, cfg, name, index, h=1e-6, single=False):
    base = {k: v.copy() for k, v in student.params.items()}
    up = {k: v.copy() for k, v in base.items()}
    up[name].flat[index] += h
    down = {k: v.copy() for k, v in base.items()}
    down[name].flat[index] -= h
    f_up = ssl.loss_terms(DualHeadNet(up), teacher, batch, cfg, single)[0]["total"]
    f_down = ssl.loss_terms(DualHeadNet(down), teacher, batch, cfg, single)[0]["total"]
    return (f_up - f_down) / (2 * h)


def _assert_away_from_kinks(student, batch, margin=1e-3):
    # finite differences are meaningless on a ReLU kink, so the pinned
    # seeds must keep every activation clear of zero
    cache = ssl._forward_cache(student, batch.features)
    assert min(np.abs(cache["z1"]).min(), np.abs(cache["z2"]).min()) > margin


class TestGradients:
    def test_total_gradient_matches_finite_differences(self):
        student, teacher = _net(seed=0), _net(seed=100)
        batch = _batch(seed=0, unlabeled=3)
        _assert_away_from_kinks(student, batch)
        cfg = SSLConfig(lambda_mt=250.0, tau=0.3, steps=1)
        _, grads = ssl.loss_terms(student, teacher, batch, cfg)
        total = ssl.total_gradient(grads, cfg)
        for name in ssl.PARAM_NAMES:
            for index in range(student.params[name].size):
                analytic = total[name].flat[index]
                fd = _fd_gradient(student, teacher, batch, cfg, name, index)
                assert abs(analytic - fd) / max(1.0, abs(analytic), abs(fd)) < 1e-4

    def test_single_branch_gradient_matches_finite_differences(self):
        student, teacher = _net(seed=0), _net(seed=100)
        batch = _batch(seed=1, unlabeled=3)
        _assert_away_from_kinks(student, batch)
        cfg = SSLConfig(lambda_mt=50.0, tau=0.3, steps=1)
        _, grads = ssl.loss_terms(student, teacher, batch, cfg, single_branch=True)
        total = ssl.total_gradient(grads, cfg)
        for name in ssl.PARAM_NAMES:
            for index in range(student.params[name].size):
                analytic = total[name].flat[index]
                fd = _fd_gradient(student, teacher, batch, cfg, name, index, single=True)
                assert abs(analytic - fd) / max(1.0, abs(analytic), abs(fd)) < 1e-4

    def test_pseudo_gradient_never_touches_c_head_in_dual_mode(self):
        student, teacher = _net(seed=3), _net(seed=7)
        batch = _batch(seed=4, unlabeled=4)
        cfg = SSLConfig(tau=0.0, steps=1)
        _, grads = ssl.loss_terms(student, teacher, batch, cfg)
        assert np.all(grads["ce_pseudo"]["wc"] == 0.0)
        assert np.all(grads["ce_pseudo"]["bc"] == 0.0)
        # the shared trunk does receive it
        assert np.any(grads["ce_pseudo"]["w1"] != 0.0)
        assert np.any(grads["ce_pseudo"]["wn"] != 0.0)

    def test_pseudo_gradient_skips_n_head_in_single_mode(self):
        student, teacher = _net(seed=3), _net(seed=7)
        batch = _batch(seed=4, unlabeled=4)
        cfg = SSLConfig(tau=0.0, steps=1)
        _, grads = ssl.loss_terms(student, teacher, batch, cfg, single_branch=True)
        assert np.all(grads["ce_pseudo"]["wn"] == 0.0)
        assert np.any(grads["ce_pseudo"]["wc"] != 0.0)

    def test_clean_terms_never_touch_n_head(self):
        student, teacher = _net(seed=3), _net(seed=7)
        batch = _batch(seed=4, unlabeled=2)
        cfg = SSLConfig(steps=1)
        _, grads = ssl.loss_terms(student, teacher, batch, cfg)
        for term in ("ce_clean", "lovasz", "consistency"):
            assert np.all(grads[term]["wn"] == 0.0)
            assert np.all(grads[term]["bn"] == 0.0)

    def test_fully_labeled_batch_has_zero_pseudo_loss(self):
        student, teacher = _net(seed=3), _net(seed=7)
        batch = _batch(seed=4, unlabeled=0)
        cfg = SSLConfig(tau=0.0, steps=1)
        losses, grads = ssl.loss_terms(student, teacher, batch, cfg)
        assert losses["ce_pseudo"] == 0.0
        for name in ssl.PARAM_NAMES:
            assert np.all(grads["ce_pseudo"][name] == 0.0)


class TestTrainStep:
    """train_step back-propagates the weighted sum of the terms' logit
    gradients once; total_gradient of loss_terms, which back-propagates each
    term on its own, is the reference it is held to."""

    def _problem(self, tau):
        student, teacher = _net(hidden=8, classes=4, seed=3), _net(hidden=8, classes=4, seed=8)
        batch = _batch(seed=5, n=40, classes=4, unlabeled=15)
        cfg = SSLConfig(lambda_mt=250.0, tau=tau, learning_rate=0.1, alpha_ema=0.9, steps=1)
        return student, teacher, batch, cfg

    @pytest.mark.parametrize("single", [False, True], ids=["dual", "single"])
    @pytest.mark.parametrize("tau", [0.0, 1.0])
    def test_step_descends_the_summed_per_term_gradients(self, single, tau):
        student, teacher, batch, cfg = self._problem(tau)
        losses, grads = ssl.loss_terms(student, teacher, batch, cfg, single)
        # tau 0 gives every unlabeled point a pseudo-label, tau 1 none
        assert (losses["ce_pseudo"] > 0.0) == (tau == 0.0)
        total = ssl.total_gradient(grads, cfg)
        largest = max(np.abs(g).max() for g in total.values())
        new_student, new_teacher, step_losses = ssl.train_step(student, teacher, batch, cfg,
                                                               single)
        assert step_losses == losses
        for k in ssl.PARAM_NAMES:
            want = student.params[k] - cfg.learning_rate * total[k]
            assert np.abs(new_student.params[k] - want).max() <= 1e-12 * largest, k
            want = ssl.ema_update(teacher, new_student, cfg.alpha_ema).params[k]
            assert np.array_equal(new_teacher.params[k], want)

    @pytest.mark.parametrize("single", [False, True], ids=["dual", "single"])
    def test_step_back_propagates_once(self, monkeypatch, single):
        student, teacher, batch, cfg = self._problem(0.0)
        calls = []

        def backward(*args, _real=ssl._backward):
            calls.append(args)
            return _real(*args)

        monkeypatch.setattr(ssl, "_backward", backward)
        ssl.train_step(student, teacher, batch, cfg, single)
        assert len(calls) == 1


class TestTrainLoop:
    def test_empty_batch_is_noop(self):
        student, teacher = _net(seed=1), _net(seed=2)
        empty = TrainBatch(np.zeros((0, 3)), np.zeros(0, dtype=int), np.zeros(0, dtype=int))
        s2, t2, losses = ssl.train_step(student, teacher, empty, SSLConfig(steps=1))
        assert s2 is student and t2 is teacher
        assert losses["total"] == 0.0

    def test_step_moves_student_and_teacher(self):
        student, teacher = _net(seed=1), _net(seed=1)
        batch = _batch(seed=2)
        cfg = SSLConfig(steps=1, learning_rate=0.1, alpha_ema=0.9)
        s2, t2, _ = ssl.train_step(student, teacher, batch, cfg)
        assert not np.array_equal(s2.params["w1"], student.params["w1"])
        want_teacher = 0.9 * teacher.params["w1"] + 0.1 * s2.params["w1"]
        assert np.allclose(t2.params["w1"], want_teacher)

    def _data(self, seed=0, n=60, classes=3, labeled_fraction=0.2):
        rng = np.random.default_rng(seed)
        centers = rng.normal(0, 4, (classes, 3))
        oracle = rng.integers(0, classes, n)
        feats = centers[oracle] + rng.normal(0, 0.5, (n, 3))
        labels = oracle.copy()
        kind = np.full(n, KIND_GROUND_TRUTH)
        unlabeled = rng.random(n) > labeled_fraction
        labels[unlabeled] = ssl.IGNORE_LABEL
        kind[unlabeled] = KIND_NONE
        return TrainData(feats, labels, kind, oracle, classes)

    def test_zero_steps(self):
        data = self._data()
        student, teacher, history = ssl.train_loop(data, SSLConfig(steps=0))
        assert history == []
        for k in ssl.PARAM_NAMES:
            assert np.array_equal(student.params[k], teacher.params[k])

    def test_history_cadence(self):
        data = self._data()
        cfg = SSLConfig(steps=250, batch_size=16, hidden=8)
        _, _, history = ssl.train_loop(data, cfg)
        assert [row[0] for row in history] == [100, 200, 250]

    def test_loop_is_deterministic(self):
        data = self._data()
        cfg = SSLConfig(steps=15, batch_size=16, hidden=8)
        a = ssl.train_loop(data, cfg)
        b = ssl.train_loop(data, cfg)
        for k in ssl.PARAM_NAMES:
            assert np.array_equal(a[0].params[k], b[0].params[k])
        assert a[2] == b[2]

    def test_branch_modes_agree_when_nothing_is_pseudo_labeled(self):
        # fully labeled data: the pseudo term vanishes, so the only
        # difference between the modes disappears
        rng = np.random.default_rng(9)
        feats = rng.normal(0, 1, (40, 3))
        oracle = rng.integers(0, 3, 40)
        data = TrainData(feats, oracle.copy(), np.full(40, KIND_PLE), oracle, 3)
        cfg = SSLConfig(steps=10, batch_size=16, hidden=8)
        dual = ssl.train_loop(data, cfg, single_branch=False)
        single = ssl.train_loop(data, cfg, single_branch=True)
        for k in ssl.PARAM_NAMES:
            assert np.array_equal(dual[0].params[k], single[0].params[k])

    def test_pseudo_label_accuracy_edge_cases(self):
        rng = np.random.default_rng(1)
        feats = rng.normal(0, 1, (10, 3))
        oracle = rng.integers(0, 3, 10)
        all_labeled = TrainData(feats, oracle.copy(), np.full(10, KIND_GROUND_TRUTH), oracle, 3)
        assert ssl.pseudo_label_accuracy(_net(), all_labeled, 0.5) == 0.0
        assert ssl.pseudo_label_score(_net(), all_labeled, 0.5) == (0.0, 0)
        some = TrainData(
            feats,
            np.full(10, ssl.IGNORE_LABEL),
            np.full(10, KIND_NONE),
            oracle,
            3,
        )
        # nothing clears an impossible threshold
        assert ssl.pseudo_label_accuracy(_net(), some, 1.0) == 0.0
        assert ssl.pseudo_label_score(_net(), some, 1.0) == (0.0, 0)
        assert 0.0 <= ssl.pseudo_label_accuracy(_net(), some, 0.0) <= 1.0
        # a zero threshold scores every unlabeled point
        acc, scored = ssl.pseudo_label_score(_net(), some, 0.0)
        assert scored == 10 and acc == ssl.pseudo_label_accuracy(_net(), some, 0.0)


class TestPersistence:
    def test_history_round_trip(self, tmp_path):
        history = [(10, 0.5, 0.25, 0.125, 0.0625, 0.75), (20, 0.4, 0.2, 0.1, 0.05, 0.8)]
        path = tmp_path / "history.csv"
        ssl.write_history(history, path)
        assert path.read_text() == (
            "step,ce_clean,lovasz,ce_pseudo,consistency,pseudo_label_accuracy\n"
            "10,0.5,0.25,0.125,0.0625,0.75\n"
            "20,0.40000000000000002,0.20000000000000001,0.10000000000000001,"
            "0.050000000000000003,0.80000000000000004\n")

    def test_model_round_trip(self, tmp_path):
        # the header names each parameter's shape in PARAM_NAMES order; the
        # blob after it is every parameter as little-endian float64, in that order
        net = _net(feature_dim=5, hidden=7, classes=4, seed=13)
        path = tmp_path / "net.model"
        ssl.save_model(net, path)
        header, _, blob = path.read_bytes().partition(b"\nend\n")
        assert header.decode("ascii").splitlines() == [
            ssl.MODEL_MAGIC, "w1 5 7", "b1 7", "w2 7 7", "b2 7", "wc 7 4", "bc 4",
            "wn 7 4", "bn 4"]
        values = np.frombuffer(blob, dtype="<f8")
        want = np.concatenate([net.params[k].ravel() for k in ssl.PARAM_NAMES])
        assert np.array_equal(values, want)


class TestFeatureAssembly:
    def test_build_features_shape_and_standardization(self):
        rng = np.random.default_rng(2)
        pts = rng.uniform(-20, 20, (300, 3))
        feats = ssl.build_features(pts)
        assert feats.shape == (300, 6)
        assert np.all(np.isfinite(feats))
        assert np.abs(feats.mean(axis=0)).max() < 1e-9

    def test_build_features_deterministic(self):
        pts = np.random.default_rng(3).uniform(-5, 5, (50, 3))
        assert np.array_equal(ssl.build_features(pts), ssl.build_features(pts))

    @pytest.mark.parametrize("scale, shift", [
        ((3.0, 3.0, 3.0), (-2.5, -7.0, -0.5)),   # negative voxels, many shared
        ((2.0, 60.0, 1.0), (0.0, 0.0, 0.0)),     # axes of unequal span
        ((40.0, 5.0, 90.0), (-1e6, 5e5, -3e3)),  # far from the origin
        ((1e5, 1e5, 1e5), (0.0, 0.0, 0.0)),      # spans of 1e5 voxels per axis
        ((1e6, 1e6, 1e6), (-3e12, 0.0, 1e12)),   # 2e6 voxels per axis: keys near 2**63
    ])
    def test_voxel_counts_equal_row_unique(self, scale, shift):
        rng = np.random.default_rng(7)
        pts = rng.uniform(-1.0, 1.0, (400, 3)) * scale + shift
        pts[200:] = pts[:200] + rng.uniform(0, 0.3, (200, 3))  # neighbours in a voxel
        assert np.array_equal(ssl.build_features(pts), _row_unique_build_features(pts))

    def test_voxel_keys_that_cannot_be_numbered_rejected(self):
        # 2**22 voxels per axis: 2**66 distinct keys would not fit
        pts = np.array([[0.0, 0.0, 0.0], [2.0**22, 2.0**22, 2.0**22]])
        with pytest.raises(DataError, match="64 bits"):
            ssl.build_features(pts)
        with pytest.raises(DataError, match="64 bits"):
            ssl.build_features(np.array([[0.0, 0.0, 0.0], [1e19, 0.0, 0.0]]))

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            SSLConfig(tau=1.5)
        with pytest.raises(ConfigError):
            SSLConfig(alpha_ema=-0.1)
        with pytest.raises(ConfigError):
            SSLConfig(steps=-1)
        with pytest.raises(ConfigError):
            SSLConfig(batch_size=0)

    @pytest.mark.parametrize("field, value", [
        ("lambda_mt", math.nan), ("lambda_mt", math.inf), ("learning_rate", math.nan),
        ("learning_rate", math.inf), ("learning_rate", 0.0), ("tau", math.nan),
        ("alpha_ema", math.nan),
    ])
    def test_config_rejects_non_finite(self, field, value):
        with pytest.raises(ConfigError):
            SSLConfig(**{field: value})


@pytest.fixture(scope="module")
def source():
    from plelidar import synth
    from plelidar.ple import DatasetSource
    from conftest import corridor_config

    return DatasetSource(synth.generate(corridor_config(frames=4)))


class TestAssemble:
    def test_kinds_follow_split_and_estimates(self, source):
        from plelidar import ple
        from plelidar.ple import PleConfig

        split = {"00": (1,)}
        maps = ple.run_naive(source, split, PleConfig())
        data = ssl.assemble_training_data(source, split, maps)
        sizes = [len(source.cloud("00", f)) for f in range(4)]
        assert len(data) == sum(sizes)
        bounds = np.cumsum([0] + sizes)
        kinds = [data.label_kind[bounds[i]:bounds[i + 1]] for i in range(4)]
        assert np.all(kinds[1] == KIND_GROUND_TRUTH)
        for f in (0, 2, 3):
            assert np.all(kinds[f] == KIND_PLE)
        # ground-truth frame labels must equal the oracle
        gt_rows = data.label_kind == KIND_GROUND_TRUTH
        assert np.array_equal(data.labels[gt_rows], data.oracle[gt_rows])

    def test_without_estimates_rest_is_unlabeled(self, source):
        data = ssl.assemble_training_data(source, {"00": (1,)})
        assert set(np.unique(data.label_kind)) == {KIND_NONE, KIND_GROUND_TRUTH}
        none_rows = data.label_kind == KIND_NONE
        assert np.all(data.labels[none_rows] == ssl.IGNORE_LABEL)

    def test_class_indices_are_compact(self, source):
        # corridor scenes carry palette ids 1 and 9; they map to 0 and 1
        data = ssl.assemble_training_data(source, {"00": (0, 1, 2, 3)})
        assert data.num_classes == 2
        assert set(np.unique(data.oracle)) == {0, 1}

    def test_max_points_subsampling_is_deterministic(self, source):
        a = ssl.assemble_training_data(source, {"00": (1,)}, max_points=100, seed=3)
        b = ssl.assemble_training_data(source, {"00": (1,)}, max_points=100, seed=3)
        assert len(a) == 100
        assert np.array_equal(a.features, b.features)
        assert np.array_equal(a.labels, b.labels)
        c = ssl.assemble_training_data(source, {"00": (1,)}, max_points=100, seed=4)
        assert not np.array_equal(a.features, c.features)

    def test_estimate_class_missing_from_ground_truth_rejected(self, source):
        from plelidar.ple import PseudoLabelMap

        n = len(source.cloud("00", 0))
        bogus = PseudoLabelMap(
            semantic=np.full(n, 77), valid=np.ones(n, dtype=bool), origin_kind=np.zeros(n),
            frame_id=0,
        )
        with pytest.raises(DataError, match="class 77"):
            ssl.assemble_training_data(source, {"00": (1,)}, {("00", 0): bogus})

    @pytest.mark.parametrize("max_points", [0, -5])
    def test_max_points_below_one_rejected(self, source, max_points):
        with pytest.raises(ConfigError, match="max_points"):
            ssl.assemble_training_data(source, {"00": (1,)}, max_points=max_points)

    def test_single_class_scene_rejected(self):
        from plelidar import synth
        from plelidar.ple import DatasetSource
        from plelidar.synth import Ground, SynthConfig

        cfg = SynthConfig(frames=2, bodies=(Ground(1, -5, 5, -5, 5),))
        src = DatasetSource(synth.generate(cfg))
        with pytest.raises(DataError):
            ssl.assemble_training_data(src, {"00": (0,)})


def _row_unique_build_features(points):
    """Reference build_features: voxels counted by a row-wise np.unique over
    the voxel index triples."""
    pts = np.asarray(points, dtype=np.float64).reshape(-1, 3)
    feats = np.empty((len(pts), 6))
    feats[:, :3] = pts
    feats[:, 3] = np.linalg.norm(pts, axis=1)
    feats[:, 4] = pts[:, 2] - pts[:, 2].min()
    keys = np.floor(pts / ssl.VOXEL_SIZE).astype(np.int64)
    _, inverse, counts = np.unique(keys, axis=0, return_inverse=True, return_counts=True)
    feats[:, 5] = counts[inverse.reshape(-1)] / counts.max()
    std = feats.std(axis=0)
    std[std == 0.0] = 1.0
    return (feats - feats.mean(axis=0)) / std


def _one_pass_assemble(source, split, ple_maps=None, max_points=None, seed=0):
    """Reference assembly in one pass: features for every point, then the
    sample. The oracle for the two-pass assemble_training_data."""
    ple_maps = ple_maps or {}
    feats_parts, id_parts, kind_parts, oracle_parts = [], [], [], []
    for seq in source.sequence_ids():
        labeled = set(split.get(seq, ()))
        for f in range(source.frame_count(seq)):
            cloud = source.cloud(seq, f)
            gt = source.gt_labels(seq, f)
            keep = gt.semantic != 0
            oracle = gt.semantic[keep]
            ids = np.zeros(len(oracle), dtype=np.int32)
            kind = np.full(len(oracle), KIND_NONE, dtype=np.int8)
            if f in labeled:
                ids = oracle
                kind[:] = KIND_GROUND_TRUTH
            elif (seq, f) in ple_maps:
                pmap = ple_maps[(seq, f)]
                if len(pmap) != len(gt):
                    raise DataError(f"frame {seq}/{f}: estimate and scan sizes differ")
                sem = pmap.semantic[keep]
                usable = pmap.valid[keep] & (sem != 0)
                ids[usable] = sem[usable]
                kind[usable] = KIND_PLE
            feats_parts.append(_row_unique_build_features(cloud.points)[keep])
            id_parts.append(ids)
            kind_parts.append(kind)
            oracle_parts.append(oracle)
    oracle_ids = np.concatenate(oracle_parts) if oracle_parts else np.zeros(0, np.int32)
    classes = np.unique(oracle_ids)
    if len(classes) < 2:
        raise DataError("dataset holds fewer than two classes")
    label_ids = np.concatenate(id_parts)
    kind = np.concatenate(kind_parts)
    unknown = (kind != KIND_NONE) & ~np.isin(label_ids, classes)
    if unknown.any():
        raise DataError(f"estimates hold class {int(label_ids[unknown][0])}, "
                        "which no ground-truth frame has")
    features = np.concatenate(feats_parts, axis=0)
    if max_points is not None and len(kind) > max_points:
        rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(2,)))
        pick = np.sort(rng.choice(len(kind), size=max_points, replace=False))
        features, label_ids, kind, oracle_ids = (
            features[pick], label_ids[pick], kind[pick], oracle_ids[pick]
        )
    labels = np.where(kind == KIND_NONE, ssl.IGNORE_LABEL, np.searchsorted(classes, label_ids))
    oracle = np.searchsorted(classes, oracle_ids)
    return TrainData(features, labels, kind, oracle, len(classes))


@pytest.fixture(scope="module")
def box_source():
    """Six frames of the one-box scene, with every 7th ground-truth point
    relabelled as the ignore class so that assembly has points to drop."""
    import dataclasses

    from plelidar import synth
    from plelidar.lidar_io import LabelMap
    from plelidar.ple import DatasetSource
    from conftest import one_box_config

    data = synth.generate(one_box_config(frames=6, points_per_surface=1.0))
    labels = []
    for gt in data.labels:
        sem = gt.semantic.copy()
        sem[::7] = 0
        labels.append(LabelMap(sem, gt.instance, gt.frame_id, gt.sequence_id))
    return DatasetSource(dataclasses.replace(data, labels=tuple(labels)))


def _random_estimates(source, labeled, rng, unknown_classes):
    """Estimates on a random subset of the unlabeled frames: ground truth
    with random flips among the scene's classes, the ignore class and
    invalid points; each of `unknown_classes` lands on a few random points."""
    maps = {}
    for f in range(source.frame_count("00")):
        if f in labeled or rng.random() < 0.3:
            continue
        gt = source.gt_labels("00", f).semantic
        sem = gt.copy()
        flip = rng.random(len(sem)) < 0.2
        sem[flip] = rng.choice([0, 1, 9, 10], size=int(flip.sum()))
        valid = rng.random(len(sem)) >= 0.1
        for c in unknown_classes:
            sem[rng.integers(len(sem), size=3)] = c
        sem[~valid] = 0
        maps[("00", f)] = PseudoLabelMap(sem, valid, np.zeros(len(sem)), frame_id=f)
    return maps


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    labeled=st.sets(st.integers(0, 5), max_size=3),
    with_estimates=st.booleans(),
    unknown_classes=st.sampled_from([(), (), (), (77,), (77, 55)]),
    budget=st.sampled_from(["none", "below", "equal", "above"]),
    below=st.floats(0.0, 1.0),
)
def test_two_pass_assembly_equals_one_pass(box_source, seed, labeled, with_estimates,
                                           unknown_classes, budget, below):
    rng = np.random.default_rng(seed)
    split = {"00": tuple(sorted(labeled))}
    maps = _random_estimates(box_source, labeled, rng, unknown_classes) if with_estimates else None
    total = sum(int((box_source.gt_labels("00", f).semantic != 0).sum()) for f in range(6))
    max_points = {"none": None, "below": 1 + int(below * (total - 2)), "equal": total,
                  "above": total + 1 + int(below * 100)}[budget]
    args = (box_source, split, maps, max_points, seed % 1000)
    try:
        want = _one_pass_assemble(*args)
    except DataError as exc:
        with pytest.raises(DataError) as got:
            ssl.assemble_training_data(*args)
        assert str(got.value) == str(exc)
        return
    got = ssl.assemble_training_data(*args)
    assert got.num_classes == want.num_classes
    for field in ("features", "labels", "label_kind", "oracle"):
        a, b = getattr(got, field), getattr(want, field)
        assert a.dtype == b.dtype and a.shape == b.shape
        assert np.array_equal(a, b), field


def test_assembly_memory_does_not_grow_with_frames():
    from plelidar import synth
    from plelidar.ple import DatasetSource
    from conftest import corridor_config

    sources = {n: DatasetSource(synth.generate(corridor_config(frames=n))) for n in (8, 32)}

    def peak(n):
        tracemalloc.start()
        try:
            ssl.assemble_training_data(sources[n], {"00": (0,)}, max_points=500)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(8)  # first-call allocations are not the assembly's
    # a one-pass assembly holds every frame's features: 3.75x from 8 to 32 frames
    assert peak(32) <= 1.5 * peak(8)
