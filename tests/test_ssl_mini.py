"""Training components: losses, gradients, EMA, loop wiring, persistence."""

from __future__ import annotations

import logging
import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from plelidar import ssl_mini as ssl
from plelidar.errors import ConfigError, DataError
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
        cache = ssl._forward_cache(net, np.ones((2, 3)))
        n_logits = cache["a2"] @ net.params["wn"] + net.params["bn"]
        assert np.allclose(ssl.softmax(cache["c_logits"]), 1 / 3)
        assert np.allclose(ssl.softmax(n_logits), 1 / 3)

    def test_init_is_deterministic(self):
        a, b = _net(seed=5), _net(seed=5)
        for k in ssl.PARAM_NAMES:
            assert np.array_equal(a.params[k], b.params[k])
        c = _net(seed=6)
        assert not np.array_equal(a.params["w1"], c.params["w1"])

    def test_forward_rejects_wrong_feature_dim(self):
        with pytest.raises(DataError, match="do not match input dimension 3"):
            ssl._forward_cache(_net(feature_dim=3), np.ones((2, 4)))


class TestNetBuffer:
    """A net holds its parameters in one buffer; params are views into it."""

    def test_params_are_views_of_one_buffer_in_name_order(self):
        net = _net(feature_dim=5, hidden=7, classes=4, seed=2)
        assert net.dims == (5, 7, 4)
        assert net.flat.dtype == np.float64 and net.flat.ndim == 1
        assert list(net.params) == list(ssl.PARAM_NAMES)
        for v in net.params.values():
            assert np.shares_memory(v, net.flat)
        want = np.concatenate([net.params[k].ravel() for k in ssl.PARAM_NAMES])
        assert np.array_equal(net.flat, want)

    def test_params_cannot_be_rebound_but_write_through(self):
        # rebinding a name would detach it from flat, which the update, the
        # EMA, copy and save_model read
        net = _net(feature_dim=3, hidden=4, classes=3)
        with pytest.raises(TypeError):
            net.params["w1"] = np.ones((3, 4))
        with pytest.raises(TypeError):
            del net.params["b1"]
        net.params["w1"][...] = 2.0
        assert np.array_equal(net.flat[:12], np.full(12, 2.0))
        assert np.array_equal(net.copy().params["w1"], np.full((3, 4), 2.0))
        assert sorted(k for k, _ in net.params.items()) == sorted(ssl.PARAM_NAMES)

    def test_built_from_a_mapping_copies_it(self):
        params = {k: v.copy() for k, v in _net().params.items()}
        net = DualHeadNet(params)
        before = params["w1"].copy()
        params["w1"][0, 0] += 1.0
        assert np.array_equal(net.params["w1"], before)

    def test_missing_parameter_rejected(self):
        params = dict(_net().params)
        del params["bn"]
        with pytest.raises(DataError, match="parameter bn is missing"):
            DualHeadNet(params)
        with pytest.raises(DataError, match="parameter w1 is missing"):
            DualHeadNet({})

    def test_unknown_parameter_rejected(self):
        params = {**_net().params, "w3": np.zeros((4, 4))}
        with pytest.raises(DataError, match="parameter w3 is unknown"):
            DualHeadNet(params)

    @pytest.mark.parametrize("name, shape", [
        ("w1", (3,)),       # not 2-D
        ("w1", ()),         # a scalar
        ("b1", (4, 1)),     # a bias of two axes
        ("w2", (4, 5)),     # hidden units disagree with w1's
        ("wc", (5, 3)),     # hidden units disagree with w1's
        ("bc", (2,)),       # classes disagree with wc's
        ("wn", (4, 2)),     # n-head classes disagree with the c-head's
        ("bn", (3, 1)),     # a bias of two axes
    ])
    def test_shapes_that_form_no_net_rejected(self, name, shape):
        params = {**_net(feature_dim=3, hidden=4, classes=3).params, name: np.zeros(shape)}
        with pytest.raises(DataError, match=f"parameter {name} has shape"):
            DualHeadNet(params)

    def test_ema_rejects_another_architecture_of_equal_size(self):
        # (1, 1, 5) and (2, 2, 2) both hold 24 parameters, so a check on the
        # buffer size alone would let the EMA mix them
        a = DualHeadNet.init(1, 1, 5, seed=0)
        b = DualHeadNet.init(2, 2, 2, seed=0)
        assert a.flat.size == b.flat.size == 24
        with pytest.raises(DataError, match="architectures differ"):
            ssl.ema_update(a, b, 0.5)
        with pytest.raises(DataError, match="architectures differ"):
            ssl.ema_update(b, a, 0.5)

    @pytest.mark.parametrize("operation", ["copy", "ema_update", "train_step"])
    def test_operations_leave_inputs_alone_and_share_no_memory(self, operation):
        student, teacher = _net(seed=1), _net(seed=2)
        before = {id(net): net.flat.copy() for net in (student, teacher)}
        cfg = SSLConfig(tau=0.0, steps=1, learning_rate=0.1, alpha_ema=0.9)
        results = {
            "copy": lambda: [student.copy()],
            "ema_update": lambda: [ssl.ema_update(teacher, student, 0.9)],
            "train_step": lambda: ssl.train_step(student, teacher, _batch(seed=3), cfg)[:2],
        }[operation]()
        for net in (student, teacher):
            assert np.array_equal(net.flat, before[id(net)])
        for result in results:
            for net in (student, teacher):
                assert not np.shares_memory(result.flat, net.flat)
                assert not any(np.shares_memory(v, net.flat) for v in result.params.values())


def _ce_clean(logits, labels):
    """loss_terms' ce_clean on a one-hot net whose c-head logits are
    `logits`: point i's features and hidden units are the unit vector e_i,
    so its logits are row i of wc, exactly."""
    logits = np.asarray(logits, dtype=float)
    labels = np.asarray(labels)
    n, classes = logits.shape
    eye, h, c = np.eye(n), np.zeros(n), np.zeros(classes)
    net = DualHeadNet({"w1": eye, "b1": h, "w2": eye, "b2": h, "wc": logits, "bc": c,
                       "wn": np.zeros((n, classes)), "bn": c})
    kind = np.where(labels == ssl.IGNORE_LABEL, KIND_NONE, KIND_GROUND_TRUTH)
    return ssl.loss_terms(net, net, TrainBatch(eye, labels, kind), SSLConfig())[0]["ce_clean"]


class TestCrossEntropy:
    # ce_clean is taken from the logits; the log of a row of probabilities
    # is a row of logits whose softmax is that row

    def test_uniform(self):
        assert _ce_clean(np.zeros((5, 4)), np.zeros(5, dtype=int)) == pytest.approx(math.log(4))

    def test_hand_case(self):
        probs = np.array([[0.7, 0.2, 0.1], [0.1, 0.8, 0.1], [0.25, 0.25, 0.5]])
        loss = _ce_clean(np.log(probs), np.array([0, 1, 2]))
        assert loss == pytest.approx(-(math.log(0.7) + math.log(0.8) + math.log(0.5)) / 3)

    def test_ignore_rows(self):
        probs = np.array([[0.7, 0.2, 0.1], [0.1, 0.8, 0.1], [0.25, 0.25, 0.5]])
        loss = _ce_clean(np.log(probs), np.array([0, -1, 2]))
        assert loss == pytest.approx(-(math.log(0.7) + math.log(0.5)) / 2)

    def test_all_ignored(self):
        assert _ce_clean(np.zeros((2, 3)), np.array([-1, -1])) == 0.0

    def test_confidently_wrong_point_costs_its_logit_gap(self):
        # the true class's probability, exp(-1000), underflows to 0
        assert ssl.softmax(np.array([[0.0, 1000.0]]))[0, 0] == 0.0
        assert _ce_clean(np.array([[0.0, 1000.0]]), np.array([0])) == pytest.approx(1000.0)


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
        with pytest.raises(DataError, match="probability shapes differ"):
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

    def test_ema_update_equals_per_parameter_reference_bit_for_bit(self):
        teacher, student = _net(seed=1), _net(seed=2)
        merged = ssl.ema_update(teacher, student, 0.99)
        for k in ssl.PARAM_NAMES:
            want = 0.99 * teacher.params[k] + (1.0 - 0.99) * student.params[k]
            assert merged.params[k].tobytes() == want.tobytes()

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

    @pytest.mark.parametrize("single", [False, True], ids=["dual", "single"])
    @pytest.mark.parametrize("tau", [0.0, 0.5, 0.9])
    def test_step_bytes_equal_the_two_softmax_reference(self, single, tau):
        rng = np.random.default_rng(11)
        n, classes = 400, 4
        kind = np.where(rng.random(n) < 0.35, KIND_PLE, KIND_NONE)
        labels = np.where(kind == KIND_NONE, ssl.IGNORE_LABEL, rng.integers(0, classes, n))
        feats = rng.normal(0, 1, (n, 6)) + labels[:, None] % 3
        cfg = SSLConfig(tau=tau, learning_rate=0.05, alpha_ema=0.9, steps=1)
        student = teacher = ref_student = ref_teacher = _net(6, 16, classes, seed=2)
        taken = 0
        for step in range(50):
            # the first batch holds no trusted label
            pool = np.flatnonzero(kind == KIND_NONE) if step == 0 else n
            idx = rng.choice(pool, 64, replace=False)
            batch = TrainBatch(feats[idx], labels[idx], kind[idx])
            student, teacher, losses = ssl.train_step(student, teacher, batch, cfg, single)
            ref_student, ref_teacher, ref_losses = _two_softmax_step(
                ref_student, ref_teacher, batch, cfg, single)
            assert student.flat.tobytes() == ref_student.flat.tobytes(), step
            assert teacher.flat.tobytes() == ref_teacher.flat.tobytes(), step
            assert losses == ref_losses, step
            taken += losses["pseudo_labeled"]
        assert taken > 0


def _two_softmax_step(student, teacher, batch, cfg, single_branch):
    """Reference train_step: the step before one softmax served each net,
    with a log-softmax per cross-entropy and the Lovasz and consistency
    gradients formed on (points, classes) views."""

    def softmax(logits):
        z = np.ascontiguousarray(np.asarray(logits, dtype=np.float64).T)
        e = np.exp(z - z.max(axis=0))
        e /= e.sum(axis=0)
        return e.T

    def cross_entropy(logits, labels):
        if len(labels) == 0:
            return 0.0
        z = np.ascontiguousarray(np.asarray(logits, dtype=np.float64).T)
        z -= z.max(axis=0)
        costs = np.log(np.exp(z).sum(axis=0)) - z[labels, np.arange(len(labels))]
        return float(costs.mean())

    def softmax_backward(probs, dprobs):
        inner = (dprobs * probs).sum(axis=-1, keepdims=True)
        return probs * (dprobs - inner)

    cache = _reference_forward(student, batch.features)
    c_probs = softmax(cache["c_logits"])
    t_probs = softmax(_reference_forward(teacher, batch.features)["c_logits"])
    n = len(batch)
    clean = batch.label_kind != KIND_NONE
    clean_rows = np.flatnonzero(clean)
    clean_labels = batch.labels[clean_rows]
    clean_probs = c_probs[clean_rows]
    losses = {"ce_clean": cross_entropy(cache["c_logits"][clean_rows], clean_labels)}
    dz_clean = ssl._ce_logit_grad(clean_probs, clean_labels, clean_rows, n)
    losses["lovasz"], dprob_sub = ssl._lovasz_with_grad(clean_probs, clean_labels)
    dprobs = np.zeros_like(c_probs)
    dprobs[clean_rows] = dprob_sub
    dz_lovasz = softmax_backward(c_probs, dprobs)
    t = np.ascontiguousarray(t_probs.T)
    t_labels, t_mask = np.argmax(t, axis=0), t.max(axis=0) >= cfg.tau
    taken = np.flatnonzero(t_mask & ~clean)
    taken_labels = t_labels[taken]
    losses["pseudo_labeled"] = len(taken)
    losses["ce_pseudo"], dzn = 0.0, None
    if len(taken):
        if single_branch:
            logits = cache["c_logits"][taken]
        else:
            logits = cache["a2"][taken] @ student.params["wn"] + student.params["bn"]
        losses["ce_pseudo"] = cross_entropy(logits, taken_labels)
        dzn = ssl._ce_logit_grad(softmax(logits), taken_labels, taken, n)
    losses["consistency"] = float(np.mean((c_probs - t_probs) ** 2))
    dz_consistency = softmax_backward(c_probs, 2.0 * (c_probs - t_probs) / c_probs.size)
    losses["total"] = (losses["ce_clean"] + losses["lovasz"] + losses["ce_pseudo"]
                       + cfg.lambda_mt * losses["consistency"])
    dzc = dz_clean + dz_lovasz + cfg.lambda_mt * dz_consistency
    if single_branch and dzn is not None:
        dzc += dzn
        dzn = None
    grad = _reference_backward(student, cache, dzc, dzn)
    new_student = student._with(student.flat - cfg.learning_rate * grad.flat)
    return new_student, ssl.ema_update(teacher, new_student, cfg.alpha_ema), losses


def _reference_forward(net, x):
    """Reference _forward_cache: every bias add and ReLU into a new array."""
    p = net.params
    z1 = x @ p["w1"] + p["b1"]
    a1 = np.maximum(z1, 0.0)
    z2 = a1 @ p["w2"] + p["b2"]
    a2 = np.maximum(z2, 0.0)
    return {"x": x, "z1": z1, "a1": a1, "z2": z2, "a2": a2, "c_logits": a2 @ p["wc"] + p["bc"]}


def _reference_backward(net, cache, dzc, dzn):
    """Reference _backward: every mask product into a new array."""
    p = net.params
    g = {}
    g["wc"] = cache["a2"].T @ dzc
    g["bc"] = dzc.sum(axis=0)
    da2 = dzc @ p["wc"].T
    g["wn"], g["bn"] = np.zeros_like(p["wn"]), np.zeros_like(p["bn"])
    if dzn is not None:
        g["wn"] = cache["a2"].T @ dzn
        g["bn"] = dzn.sum(axis=0)
        da2 += dzn @ p["wn"].T
    dz2 = da2 * (cache["z2"] > 0.0)
    g["w2"] = cache["a1"].T @ dz2
    g["b2"] = dz2.sum(axis=0)
    dz1 = (dz2 @ p["w2"].T) * (cache["z1"] > 0.0)
    g["w1"] = cache["x"].T @ dz1
    g["b1"] = dz1.sum(axis=0)
    return DualHeadNet(g)


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

    def test_loop_warns_once_at_its_last_row_when_nothing_clears_tau(self, caplog):
        caplog.set_level(logging.WARNING, logger="plelidar")
        data = self._data()
        unlabeled = int((data.label_kind == KIND_NONE).sum())
        assert unlabeled > 0
        # three history rows, none of which scores a point
        cfg = SSLConfig(steps=250, batch_size=16, hidden=8)
        none_exists = ("no unlabeled point (none exists: every point carries a label) could "
                       "clear tau=0.9: pseudo-label accuracy 0 scores nothing")
        none_cleared = (f"none of {unlabeled} unlabeled points cleared tau=1: "
                        "pseudo-label accuracy 0 scores nothing")
        for run_data, run_cfg, want in (
                (self._data(labeled_fraction=1.0), cfg, [none_exists]),
                (data, replace(cfg, tau=1.0), [none_cleared]),
                (data, replace(cfg, tau=1.0, steps=0), [])):
            caplog.clear()
            history = ssl.train_loop(run_data, run_cfg)[2]
            assert all(row[-1] == 0.0 for row in history)
            assert [(r.name, r.getMessage()) for r in caplog.records
                    if r.levelno >= logging.WARNING] == [("plelidar.ssl_mini", m) for m in want]

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

    @pytest.mark.parametrize("seed", range(4))
    def test_pseudo_label_score_equals_the_cached_forward(self, seed):
        rng = np.random.default_rng(seed)
        net = DualHeadNet({k: v + rng.normal(0.0, 0.5, v.shape)
                           for k, v in _net(6, 32, 4, seed=seed).params.items()})
        n = 3000
        kind = np.where(rng.random(n) < 0.2, KIND_GROUND_TRUTH, KIND_NONE)
        oracle = rng.integers(0, 4, n)
        data = TrainData(rng.normal(0, 2, (n, 6)), np.where(kind == KIND_NONE, -1, oracle),
                         kind, oracle, 4)
        rows = np.flatnonzero(kind == KIND_NONE)
        probs = ssl.softmax(_reference_forward(net, data.features[rows])["c_logits"])
        for tau in (0.0, 0.5, 0.8, 1.0):
            labels, mask = ssl.pseudo_label(probs, tau)
            want = ((float(np.mean(labels[mask] == oracle[rows][mask])), int(mask.sum()))
                    if mask.any() else (0.0, 0))
            assert ssl.pseudo_label_score(net, data, tau) == want


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

    @pytest.mark.parametrize("n", [1, 2, 7, 8, 9, 4163, 120_000])
    @pytest.mark.parametrize("scale, shift", [(1e-8, 0.0), (30.0, 5.0), (1e4, 1e8)])
    def test_build_features_bytes_equal_the_point_major_reference(self, n, scale, shift):
        rng = np.random.default_rng(n)
        pts = rng.normal(0.0, 1.0, (n, 3)) * scale * (1.0, 0.7, 0.05) + shift
        got = ssl.build_features(pts)
        assert got.shape == (n, 6)
        assert got.tobytes() == _row_unique_build_features(pts).tobytes()

    def test_build_features_bytes_with_a_constant_column_and_duplicates(self):
        rng = np.random.default_rng(4)
        flat = rng.uniform(-10.0, 10.0, (500, 3))
        flat[:, 2] = 1.5  # z and height have std 0, which divides as 1
        repeated = np.repeat(rng.uniform(-5.0, 5.0, (50, 3)), 4, axis=0)
        for pts in (flat, repeated, np.ones((3, 3))):
            assert ssl.build_features(pts).tobytes() == _row_unique_build_features(pts).tobytes()

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
    """Reference build_features: an (n, 6) point-major array reduced over
    axis 0, with voxels counted by a row-wise np.unique over the voxel index
    triples."""
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
