"""Small-scale semi-supervised point classifier with student/teacher training.

The network is a two-layer fully-connected trunk with ReLU activations and
two parallel linear heads of identical shape. The clean head (`c`) trains on
trusted labels (ground truth and propagated estimates); the noisy head (`n`)
trains on pseudo-labels produced by the teacher's clean head, so noisy
self-training signals never reach the clean head's parameters directly (the
shared trunk still sees both). The teacher is an exponential moving average
of the student and also provides a consistency target.

Everything is plain numpy with hand-derived gradients; the finite-difference
oracle in the tests holds these to a relative 1e-4. A net keeps its parameters
in one flat buffer, so the update, the EMA and a copy are each one array
operation over it.

A step computes one c-head softmax per net, class-major ((classes, points),
so that reductions over the classes run over contiguous rows). The student's
serves every c-head term: cross-entropy reads its shifted logits and
exponential sums, and the Lovasz and consistency gradients are formed on it.
The n-head takes one softmax of its own, over the points that take a
pseudo-label.

Features are built feature-major: one contiguous (n,) row each for x, y, z,
range sqrt((x*x + y*y) + z*z), height and occupancy, returned as the (n, 6)
transposed view. Their means and stds come from sequential row sums, which
add in the order of a reduction over axis 0 of a C-ordered (n, 6) array, so
the bits are those of a point-major build.

Losses per step over one batch:
  ce_clean      cross-entropy of student c-head on clean points
  lovasz        Lovasz-softmax of student c-head on clean points
  ce_pseudo     cross-entropy of student n-head on teacher pseudo-labels
                (confidence >= tau) over unlabeled points; routed through the
                c-head when single_branch is set
  consistency   mean squared difference between student and teacher c-head
                probabilities over the whole batch (reported unscaled; the
                total applies the lambda_mt coefficient)
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from pathlib import Path
from types import MappingProxyType

import numpy as np

from . import evaluation
from .errors import ConfigError, DataError, ShapeError
from .lidar_io import IGNORE_CLASS

log = logging.getLogger(__name__)

IGNORE_LABEL = -1
KIND_NONE = 0
KIND_GROUND_TRUTH = 1
KIND_PLE = 2

PARAM_NAMES = ("w1", "b1", "w2", "b2", "wc", "bc", "wn", "bn")
# each parameter's axes: f features, h hidden units, c classes
_AXES = ("fh", "h", "hh", "h", "hc", "c", "hc", "c")
MODEL_MAGIC = "dualheadnet 1"
HISTORY_COLUMNS = ("step", "ce_clean", "lovasz", "ce_pseudo", "consistency",
                   "pseudo_label_accuracy")
CHECKPOINT_EVERY = 100
VOXEL_SIZE = 1.0


class DualHeadNet:
    """The parameters in one float64 buffer, `flat`, in PARAM_NAMES order;
    `params` is a read-only mapping from each name to its reshaped view of
    `flat`, so a name cannot be rebound to an array outside the buffer, and
    writing into a view writes `flat`. `dims` is (features, hidden,
    classes). DualHeadNet(params) copies a mapping from name to array into a
    new buffer, and raises ShapeError naming a parameter that is missing,
    unknown, or does not fit one net with the ones before it.
    """

    def __init__(self, params):
        for name in (*PARAM_NAMES, *params):
            if (name in params) != (name in PARAM_NAMES):
                raise ShapeError(f"parameter {name} is "
                                 + ("missing" if name in PARAM_NAMES else "unknown"))
        arrays = [np.asarray(params[name], dtype=np.float64) for name in PARAM_NAMES]
        sizes, layout, start = {}, [], 0
        for name, axes, a in zip(PARAM_NAMES, _AXES, arrays):
            # each axis letter takes the size it first meets
            fitted = tuple(sizes.setdefault(x, n) for x, n in zip(axes, a.shape))
            if a.ndim != len(axes) or fitted != a.shape:
                raise ShapeError(f"parameter {name} has shape {a.shape}, which does not fit "
                                 "one (features, hidden, classes) net with the ones before it")
            layout.append((name, slice(start, start + a.size), a.shape))
            start += a.size
        self._view(np.concatenate([a.ravel() for a in arrays]),
                   (sizes["f"], sizes["h"], sizes["c"]), tuple(layout))

    def _view(self, flat: np.ndarray, dims: tuple, layout: tuple) -> None:
        self.flat, self.dims, self._layout = flat, dims, layout
        self.params = MappingProxyType(
            {name: flat[part].reshape(shape) for name, part, shape in layout})

    def _with(self, flat: np.ndarray) -> "DualHeadNet":
        """A net over `flat`, a buffer laid out as this net's, unchecked."""
        net = object.__new__(DualHeadNet)
        net._view(flat, self.dims, self._layout)
        return net

    @classmethod
    def init(cls, feature_dim: int, hidden: int, classes: int, seed: int = 0) -> "DualHeadNet":
        if feature_dim < 1 or hidden < 1 or classes < 2:
            raise ConfigError("need feature_dim >= 1, hidden >= 1, classes >= 2")
        rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(0,)))
        sizes, params = {"f": feature_dim, "h": hidden, "c": classes}, {}
        for name, axes in zip(PARAM_NAMES, _AXES):
            shape = tuple(sizes[x] for x in axes)
            # zero biases; weights scaled by fan-in, with the ReLU gain 2 in the trunk
            gain = 2.0 if name in ("w1", "w2") else 1.0
            params[name] = (rng.standard_normal(shape) * np.sqrt(gain / shape[0])
                            if len(shape) == 2 else np.zeros(shape))
        return cls(params)

    def copy(self) -> "DualHeadNet":
        return self._with(self.flat.copy())


@dataclass(frozen=True)
class SSLConfig:
    lambda_mt: float = 250.0
    tau: float = 0.9
    alpha_ema: float = 0.99
    learning_rate: float = 0.02
    steps: int = 2000
    batch_size: int = 256
    hidden: int = 32
    seed: int = 0

    def __post_init__(self):
        # written so that NaN fails every check
        if not 0.0 <= self.lambda_mt < math.inf:
            raise ConfigError("lambda_mt must be finite and not negative")
        if not 0.0 <= self.tau <= 1.0:
            raise ConfigError("tau must lie in [0, 1]")
        if not 0.0 <= self.alpha_ema < 1.0:
            raise ConfigError("alpha_ema must lie in [0, 1)")
        if not 0.0 < self.learning_rate < math.inf:
            raise ConfigError("learning_rate must be positive and finite")
        if self.steps < 0 or self.batch_size < 1 or self.hidden < 1:
            raise ConfigError("steps >= 0, batch_size >= 1, hidden >= 1 required")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")


@dataclass(frozen=True, eq=False)
class TrainBatch:
    """Per-point features with label routing.

    label_kind 1 and 2 mark trusted labels (the label array holds a class
    index); kind 0 marks unlabeled points, whose label must be the ignore
    marker -1.
    """

    features: np.ndarray
    labels: np.ndarray
    label_kind: np.ndarray

    def __post_init__(self):
        feats = np.asarray(self.features, dtype=np.float64)
        labels = np.asarray(self.labels, dtype=np.int64).reshape(-1)
        kind = np.asarray(self.label_kind, dtype=np.int8).reshape(-1)
        if feats.ndim != 2:
            raise ShapeError(f"features must be 2-D, got shape {feats.shape}")
        if not (len(feats) == len(labels) == len(kind)):
            raise DataError("features, labels and label_kind lengths differ")
        if not np.isfinite(feats).all():
            raise DataError("non-finite feature value")
        if ((kind == KIND_NONE) != (labels == IGNORE_LABEL)).any():
            raise DataError("label_kind none must pair with the ignore marker")
        object.__setattr__(self, "features", feats)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "label_kind", kind)

    def __len__(self) -> int:
        return len(self.labels)


def _class_major(values) -> np.ndarray:
    """(points, classes) values as a C-ordered (classes, points) float64
    array. A reduction over the classes then runs over contiguous rows of
    points: with a few classes several times faster than one short reduction
    per point, and below 8 classes it adds in the same order."""
    return np.ascontiguousarray(np.asarray(values, dtype=np.float64).T)


def _softmax_parts(logits) -> tuple:
    """(z, sums, probs) of (points, classes) logits, all class-major: the
    logits less each point's largest, the sums of their exponentials over
    the classes, and the softmax. Cross-entropy reads z and sums, so one
    pass serves a head's loss and its gradient."""
    z = _class_major(logits)
    z -= z.max(axis=0)
    probs = np.exp(z)
    sums = probs.sum(axis=0)
    probs /= sums
    return z, sums, probs


def softmax(logits: np.ndarray) -> np.ndarray:
    """Softmax over the classes of (points, classes) logits, computed class-
    major; the result is a transposed view of a class-major array."""
    return _softmax_parts(logits)[2].T


def _checked_features(net: DualHeadNet, features) -> np.ndarray:
    x = np.asarray(features, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != net.dims[0]:
        raise ShapeError(f"features of shape {x.shape} do not match input dimension {net.dims[0]}")
    return x


def _forward_cache(net: DualHeadNet, features: np.ndarray) -> dict:
    """Trunk activations and the c-head logits; the n-head is left to the
    callers that use it. Each bias is added in place."""
    x = _checked_features(net, features)
    p = net.params
    z1 = x @ p["w1"]
    z1 += p["b1"]
    a1 = np.maximum(z1, 0.0)
    z2 = a1 @ p["w2"]
    z2 += p["b2"]
    a2 = np.maximum(z2, 0.0)
    c_logits = a2 @ p["wc"]
    c_logits += p["bc"]
    return {"x": x, "z1": z1, "a1": a1, "z2": z2, "a2": a2, "c_logits": c_logits}


def _c_logits(net: DualHeadNet, features: np.ndarray) -> np.ndarray:
    """The c-head logits alone: _forward_cache's operations in its order,
    with the ReLUs in place, so one hidden activation is alive at a time."""
    p = net.params
    h = _checked_features(net, features) @ p["w1"]
    h += p["b1"]
    np.maximum(h, 0.0, out=h)
    h = h @ p["w2"]
    h += p["b2"]
    np.maximum(h, 0.0, out=h)
    h = h @ p["wc"]
    h += p["bc"]
    return h


def _mean_ce(z: np.ndarray, sums: np.ndarray, labels: np.ndarray, cols: np.ndarray) -> float:
    """Mean cross-entropy of the class-major points `cols` of a
    `_softmax_parts` result against their labels; `cols` is not empty."""
    return float((np.log(sums[cols]) - z[labels, cols]).mean())


def _lovasz_with_grad(probs: np.ndarray, labels: np.ndarray, ignore: int = IGNORE_LABEL):
    """Lovasz-softmax loss and its gradient with respect to `probs`.

    Per present class: errors are 1 - p(class) on its points and p(class)
    elsewhere; sorted descending, weighted by the discrete Jaccard-loss
    differences, summed, then averaged over the present classes. The sorting
    permutation is treated as locally constant for the gradient. All present
    classes sort at once, one stable argsort over a (classes, points) error
    matrix.
    """
    labels = np.asarray(labels, dtype=np.int64).reshape(-1)
    include = labels != ignore
    if not include.any():
        return 0.0, np.zeros_like(probs)
    rows = np.flatnonzero(include)
    y = labels[rows]
    counts = np.bincount(y)
    present = np.flatnonzero(counts)
    n = len(y)
    fg = y == present[:, None]
    p = probs[rows][:, present].T
    errors = np.where(fg, 1.0 - p, p)
    # each row's sorting permutation, as indices into the flattened matrix
    order = np.argsort(-errors, axis=1, kind="stable")
    order += n * np.arange(len(present))[:, None]
    hits = fg.ravel()[order].cumsum(axis=1)
    gts = counts[present][:, None]
    jaccard = 1.0 - (gts - hits) / (gts + np.arange(1, n + 1) - hits)
    weights = jaccard.copy()
    weights[:, 1:] = jaccard[:, 1:] - jaccard[:, :-1]
    per_class = np.matmul(errors.ravel()[order][:, None, :], weights[:, :, None])
    derrors = np.empty(fg.shape)
    derrors.ravel()[order] = weights
    grad = np.zeros((probs.shape[1], len(probs)))
    grad[present[:, None], rows] += np.where(fg, -derrors, derrors)
    grad /= len(present)
    # the classes' losses summed one after another, as a running total
    return float(np.cumsum(per_class)[-1]) / len(present), grad.T


def mt_consistency(student_probs: np.ndarray, teacher_probs: np.ndarray) -> float:
    """Mean squared difference over every (point, class) entry."""
    s = np.asarray(student_probs, dtype=np.float64)
    t = np.asarray(teacher_probs, dtype=np.float64)
    if s.shape != t.shape:
        raise ShapeError(f"probability shapes differ: {s.shape} vs {t.shape}")
    if s.size == 0:
        return 0.0
    return float(np.mean((s - t) ** 2))


def pseudo_label(probs: np.ndarray, tau: float):
    """Argmax labels and a confidence mask (max probability >= tau)."""
    p = _class_major(probs)
    return np.argmax(p, axis=0), p.max(axis=0) >= tau


def ema_update(teacher: DualHeadNet, student: DualHeadNet, alpha: float) -> DualHeadNet:
    """New teacher with every parameter at alpha*teacher + (1-alpha)*student."""
    if teacher.dims != student.dims:
        raise ShapeError(f"teacher {teacher.dims} and student {student.dims} architectures differ")
    return teacher._with(alpha * teacher.flat + (1.0 - alpha) * student.flat)


def _softmax_backward(probs: np.ndarray, dprobs: np.ndarray) -> np.ndarray:
    """The logit gradient from class-major probabilities and their gradient."""
    return probs * (dprobs - (dprobs * probs).sum(axis=0))


def _backward(net: DualHeadNet, cache: dict, dzc: np.ndarray, dzn=None) -> DualHeadNet:
    """Parameter gradients, laid out as `net`, from the logit gradients of
    the two heads; dzn None stands for an n-head gradient of zero."""
    p = net.params
    grad = net._with(np.zeros_like(net.flat))
    g = grad.params
    a2 = cache["a2"]
    g["wc"][...] = a2.T @ dzc
    g["bc"][...] = dzc.sum(axis=0)
    dz2 = dzc @ p["wc"].T  # the gradient of a2 until the ReLU's mask
    if dzn is not None:
        g["wn"][...] = a2.T @ dzn
        g["bn"][...] = dzn.sum(axis=0)
        dz2 += dzn @ p["wn"].T
    dz2 *= cache["z2"] > 0.0
    g["w2"][...] = cache["a1"].T @ dz2
    g["b2"][...] = dz2.sum(axis=0)
    dz1 = dz2 @ p["w2"].T
    dz1 *= cache["z1"] > 0.0
    g["w1"][...] = cache["x"].T @ dz1
    g["b1"][...] = dz1.sum(axis=0)
    return grad


def _ce_logit_grad(probs: np.ndarray, labels: np.ndarray, rows: np.ndarray, n: int) -> np.ndarray:
    """d(mean CE over rows)/d(logits) of all n points, zero outside the
    given rows; `probs` and `labels` hold those rows only."""
    dz = np.zeros((n, probs.shape[1]))
    if len(rows):
        g = probs.copy()
        g[np.arange(len(rows)), labels] -= 1.0
        dz[rows] = g / len(rows)
    return dz


def _logit_terms(student: DualHeadNet, teacher: DualHeadNet, batch: TrainBatch,
                 cfg: SSLConfig, single_branch: bool):
    """The student's forward pass, the loss values, and each term's gradient
    with respect to the logits of the head it trains.

    Returns (cache, losses, dz). losses is as loss_terms returns it. dz maps
    each term to its unweighted (points, classes) logit gradient: ce_pseudo's
    is the n-head's unless single_branch is set, and None when no point
    takes a pseudo-label; the others are the c-head's. The teacher runs only
    its trunk and c-head, and the n-head only on the points that take a
    pseudo-label.
    """
    cache = _forward_cache(student, batch.features)
    # class-major from here on: the student's c-head softmax serves every c-head term
    z, sums, c_probs = _softmax_parts(cache["c_logits"])
    t_probs = _softmax_parts(_c_logits(teacher, batch.features))[2]
    n = len(batch)
    clean = batch.label_kind != KIND_NONE
    clean_rows = np.flatnonzero(clean)
    clean_labels = batch.labels[clean_rows]
    clean_probs = c_probs[:, clean_rows].T
    losses: dict = {}
    dz: dict = {}

    losses["ce_clean"] = _mean_ce(z, sums, clean_labels, clean_rows) if len(clean_rows) else 0.0
    dz["ce_clean"] = _ce_logit_grad(clean_probs, clean_labels, clean_rows, n)

    losses["lovasz"], dprob_sub = _lovasz_with_grad(clean_probs, clean_labels)
    dprobs = np.zeros_like(c_probs)
    dprobs[:, clean_rows] = dprob_sub.T
    dz["lovasz"] = _softmax_backward(c_probs, dprobs).T

    t_labels, t_mask = pseudo_label(t_probs.T, cfg.tau)
    taken = np.flatnonzero(t_mask & ~clean)
    taken_labels = t_labels[taken]
    losses["pseudo_labeled"] = len(taken)
    losses["ce_pseudo"], dz["ce_pseudo"] = 0.0, None
    if len(taken):
        if single_branch:
            pz, psums, p_probs = z[:, taken], sums[taken], c_probs[:, taken]
        else:
            pz, psums, p_probs = _softmax_parts(
                cache["a2"][taken] @ student.params["wn"] + student.params["bn"])
        losses["ce_pseudo"] = _mean_ce(pz, psums, taken_labels, np.arange(len(taken)))
        dz["ce_pseudo"] = _ce_logit_grad(p_probs.T, taken_labels, taken, n)

    losses["consistency"] = mt_consistency(c_probs, t_probs)
    dz["consistency"] = _softmax_backward(c_probs, 2.0 * (c_probs - t_probs) / c_probs.size).T

    losses["total"] = (
        losses["ce_clean"] + losses["lovasz"] + losses["ce_pseudo"]
        + cfg.lambda_mt * losses["consistency"]
    )
    return cache, losses, dz


def loss_terms(student: DualHeadNet, teacher: DualHeadNet, batch: TrainBatch,
               cfg: SSLConfig, single_branch: bool = False):
    """Loss values and per-term parameter gradients for one batch.

    Returns (losses, grads) where losses maps term name to its value (the
    consistency entry is the raw mean squared error), and `pseudo_labeled` to
    the number of points that took a pseudo-label; grads maps term name to a
    full parameter-gradient dict, each term back-propagated on its own.
    The total objective is ce_clean + lovasz + ce_pseudo + lambda_mt *
    consistency; total_gradient of these grads is what train_step descends.
    """
    cache, losses, dz = _logit_terms(student, teacher, batch, cfg, single_branch)
    zeros = np.zeros_like(cache["c_logits"])
    grads = {}
    for term, g in dz.items():
        if term == "ce_pseudo" and not single_branch:
            grads[term] = _backward(student, cache, zeros, g).params
        else:
            grads[term] = _backward(student, cache, zeros if g is None else g).params
    return losses, grads


def total_gradient(grads: dict, cfg: SSLConfig) -> dict:
    out = {}
    for name in PARAM_NAMES:
        out[name] = (
            grads["ce_clean"][name]
            + grads["lovasz"][name]
            + grads["ce_pseudo"][name]
            + cfg.lambda_mt * grads["consistency"][name]
        )
    return out


def train_step(student: DualHeadNet, teacher: DualHeadNet, batch: TrainBatch,
               cfg: SSLConfig, single_branch: bool = False):
    """One gradient-descent step on the student followed by the teacher EMA.

    The loss terms are weighted at the logits and summed per head, and one
    backward pass takes the sum to the parameters. Returns (student,
    teacher, losses). An empty batch is a no-op with zero losses.
    """
    if len(batch) == 0:
        zero = {k: 0.0 for k in ("ce_clean", "lovasz", "ce_pseudo", "consistency", "total")}
        return student, teacher, {**zero, "pseudo_labeled": 0}
    cache, losses, dz = _logit_terms(student, teacher, batch, cfg, single_branch)
    dzc = dz["ce_clean"] + dz["lovasz"] + cfg.lambda_mt * dz["consistency"]
    dzn = dz["ce_pseudo"]
    if single_branch and dzn is not None:
        dzc += dzn
        dzn = None
    grad = _backward(student, cache, dzc, dzn)
    new_student = student._with(student.flat - cfg.learning_rate * grad.flat)
    new_teacher = ema_update(teacher, new_student, cfg.alpha_ema)
    return new_student, new_teacher, losses


@dataclass(frozen=True, eq=False)
class TrainData(TrainBatch):
    """A full training set with oracle labels for scoring pseudo-labels.

    `oracle` holds the true class index of every point regardless of kind
    (available in synthetic datasets), used only for measuring pseudo-label
    accuracy.
    """

    oracle: np.ndarray
    num_classes: int

    def __post_init__(self):
        super().__post_init__()
        oracle = np.asarray(self.oracle, dtype=np.int64).reshape(-1)
        if len(oracle) != len(self):
            raise DataError("oracle length mismatch")
        if self.num_classes < 2:
            raise ConfigError("need at least two classes")
        if len(oracle) and (oracle.min() < 0 or oracle.max() >= self.num_classes):
            raise DataError("oracle labels out of range")
        object.__setattr__(self, "oracle", oracle)


def pseudo_label_score(teacher: DualHeadNet, data: TrainData, tau: float) -> tuple:
    """(accuracy, scored): the fraction of confident teacher pseudo-labels
    that match the oracle over unlabeled points, and how many points were
    confident. Accuracy is 0.0 when nothing clears the threshold."""
    rows = np.flatnonzero(data.label_kind == KIND_NONE)
    labels, mask = pseudo_label(softmax(_c_logits(teacher, data.features[rows])), tau)
    if not mask.any():
        return 0.0, 0
    return float(np.mean(labels[mask] == data.oracle[rows][mask])), int(mask.sum())


def pseudo_label_accuracy(teacher: DualHeadNet, data: TrainData, tau: float) -> float:
    """The accuracy half of pseudo_label_score."""
    return pseudo_label_score(teacher, data, tau)[0]


def train_loop(data: TrainData, cfg: SSLConfig, single_branch: bool = False):
    """Run cfg.steps training steps; returns (student, teacher, history).

    History rows follow HISTORY_COLUMNS, recorded every CHECKPOINT_EVERY
    steps and at the final step. With single_branch the n-head never receives
    gradients and pseudo-label cross-entropy flows through the c-head. A
    student or teacher parameter that is not finite at a history row raises
    ConfigError: the step size diverged. Logs at info how many batch points
    took a pseudo-label over all steps, and so whether the n-head trained.
    When no teacher prediction clears tau at the last row, also logs the
    warning "pseudo-label accuracy 0 scores nothing", naming whether none of
    the N unlabeled points cleared tau or none exists.
    """
    student = DualHeadNet.init(data.features.shape[1], cfg.hidden, data.num_classes, cfg.seed)
    teacher = student.copy()
    history: list = []
    rng = np.random.default_rng(np.random.SeedSequence(cfg.seed, spawn_key=(1,)))
    n = len(data)
    pseudo_labeled = 0
    for step in range(1, cfg.steps + 1):
        idx = rng.choice(n, size=min(cfg.batch_size, n), replace=False)
        batch = TrainBatch(data.features[idx], data.labels[idx], data.label_kind[idx])
        # a step too large overflows, and the check below reports it
        with np.errstate(over="ignore", invalid="ignore"):
            student, teacher, losses = train_step(student, teacher, batch, cfg, single_branch)
        pseudo_labeled += losses["pseudo_labeled"]
        if step % CHECKPOINT_EVERY == 0 or step == cfg.steps:
            if not (np.isfinite(student.flat).all() and np.isfinite(teacher.flat).all()):
                raise ConfigError(
                    f"training diverged: parameters are not finite at step {step}; "
                    f"lower --lr ({cfg.learning_rate:g}) or --lambda-mt ({cfg.lambda_mt:g})")
            acc, scored = pseudo_label_score(teacher, data, cfg.tau)
            history.append(
                (step, losses["ce_clean"], losses["lovasz"], losses["ce_pseudo"],
                 losses["consistency"], acc)
            )
    log.info("%d batch points took a pseudo-label at tau=%g over %d steps, training the %s-head",
             pseudo_labeled, cfg.tau, cfg.steps, "c" if single_branch else "n")
    # scored is the last row's count; without a row nothing was scored
    if history and not scored:
        unlabeled = int((data.label_kind == KIND_NONE).sum())
        why = (f"none of {unlabeled} unlabeled points cleared" if unlabeled else
               "no unlabeled point (none exists: every point carries a label) could clear")
        log.warning("%s tau=%g: pseudo-label accuracy 0 scores nothing", why, cfg.tau)
    return student, teacher, history


def write_history(history, path) -> None:
    evaluation.write_rows(path, "csv", "history", HISTORY_COLUMNS,
                          [(int(row[0]), *map(float, row[1:])) for row in history])


def save_model(net: DualHeadNet, path) -> None:
    """Text header naming parameter shapes, then the net's buffer as
    little-endian float64, which holds the parameters in header order."""
    header = [MODEL_MAGIC, *(f"{name} {' '.join(map(str, v.shape))}"
                             for name, v in net.params.items()), "end"]
    Path(path).write_bytes(("\n".join(header) + "\n").encode("ascii")
                           + net.flat.astype("<f8").tobytes())


def _voxel_keys(rows: np.ndarray) -> np.ndarray:
    """One int64 per point of (3, n) coordinate rows naming its VOXEL_SIZE
    voxel: the per-axis voxel offsets from the cloud's lowest voxel, packed
    into one number. Two points share a key exactly when they share a voxel."""
    voxels = np.floor(rows / VOXEL_SIZE)
    lo, hi = voxels.min(axis=1), voxels.max(axis=1)
    if not ((lo >= -2.0**63).all() and (hi < 2.0**63).all()):  # NaN fails too
        raise DataError(f"voxel indices {lo} to {hi} do not fit in 64 bits")
    spans = [int(h) - int(l) + 1 for l, h in zip(lo, hi)]
    if math.prod(spans) > np.iinfo(np.int64).max:
        raise DataError(f"cloud spans {' x '.join(map(str, spans))} voxels, "
                        "too many to number in 64 bits")
    offsets = voxels.astype(np.int64) - lo.astype(np.int64)[:, None]
    return (offsets[0] * spans[1] + offsets[1]) * spans[2] + offsets[2]


def _row_sums(a: np.ndarray) -> np.ndarray:
    """Each row's sum, added left to right from 0.0: the order of numpy's
    reduction over axis 0 of the transposed, C-ordered array, so the bits
    are the same (a row of -0.0 sums to 0.0)."""
    return np.cumsum(a, axis=1)[:, -1] + 0.0


def build_features(points: np.ndarray) -> np.ndarray:
    """Per-point feature rows: x, y, z, range, height above the cloud's
    minimum, and normalized occupancy of VOXEL_SIZE voxels; standardized per
    column.

    Built feature-major, one contiguous (n,) row per feature, and returned
    as the (n, 6) transposed view. Range is sqrt((x*x + y*y) + z*z), and the
    mean and std come from sequential row sums, so every bit equals that of
    an (n, 6) build reduced over axis 0."""
    pts = np.asarray(points, dtype=np.float64).reshape(-1, 3)
    n = len(pts)
    if n == 0:
        return np.zeros((0, 6))
    feats = np.empty((6, n))
    x, y, z, ranges, height, occupancy = feats
    feats[:3] = pts.T
    np.multiply(x, x, out=ranges)
    ranges += y * y
    ranges += z * z
    np.sqrt(ranges, out=ranges)
    np.subtract(z, z.min(), out=height)
    _, inverse, counts = np.unique(_voxel_keys(feats[:3]), return_inverse=True,
                                   return_counts=True)
    np.divide(counts[inverse], counts.max(), out=occupancy)
    feats -= (_row_sums(feats) / n)[:, None]
    std = np.sqrt(_row_sums(feats * feats) / n)
    std[std == 0.0] = 1.0
    feats /= std[:, None]
    return feats.T


def _frame_rows(source, seq: str, f: int, labeled: set, ple_maps, classes: np.ndarray):
    """Indices of one frame's points without the ignore class, and their raw
    ids (the ignore class where no trusted label exists), kind and oracle. An
    estimate class not in `classes` raises, naming the first in point order."""
    gt = source.gt_labels(seq, f)
    keep = gt.semantic != IGNORE_CLASS
    oracle = gt.semantic[keep]
    ids = np.full(len(oracle), IGNORE_CLASS, dtype=np.int32)
    kind = np.full(len(oracle), KIND_NONE, dtype=np.int8)
    if f in labeled:
        ids = oracle
        kind[:] = KIND_GROUND_TRUTH
    elif (seq, f) in ple_maps:
        pmap = ple_maps[(seq, f)]
        if len(pmap) != len(gt):
            raise DataError(f"frame {seq}/{f}: estimate and scan sizes differ")
        sem = pmap.semantic[keep]
        usable = pmap.valid[keep] & (sem != IGNORE_CLASS)
        ids[usable] = sem[usable]
        kind[usable] = KIND_PLE
        unknown = ids[usable][~np.isin(ids[usable], classes)]
        if len(unknown):
            raise DataError(f"estimates hold class {unknown[0]}, which no ground-truth frame has")
    return np.flatnonzero(keep), ids, kind, oracle


def check_max_points(max_points: int | None) -> None:
    """Refuse a sample size below 1; None keeps every point."""
    if max_points is not None and max_points < 1:
        raise ConfigError(f"max_points must be >= 1, got {max_points}")


def assemble_training_data(source, split: dict, ple_maps=None,
                           max_points: int | None = None, seed: int = 0) -> TrainData:
    """Flatten a dataset into TrainData.

    Points of split-labeled frames become ground-truth kind; points of frames
    with an estimate in `ple_maps` (any mapping from (sequence, frame)) take
    its valid labels as ple kind; all other points are unlabeled. Ground
    truth is required on every frame to provide the oracle; ignore-class
    points are dropped. With `max_points`, a seeded sample of that many
    points is kept, in dataset order.

    Two passes keep memory to the sample plus one frame. The first reads
    labels only, for each frame's kept-point count and class set, and draws
    the sample from the total. The second reads labels and estimate, once,
    of each frame with an estimate or a sampled point, checks the estimate's
    classes and builds features where points were sampled. With `max_points`
    far below the frame count, most estimated frames read labels twice.
    """
    check_max_points(max_points)
    ple_maps = ple_maps or {}
    frames = []  # (seq, frame, labeled frames of seq, kept points)
    gt_classes = []  # per frame, sorted
    for seq in source.sequence_ids():
        labeled = set(split.get(seq, ()))
        for f in range(source.frame_count(seq)):
            semantic = source.gt_labels(seq, f).semantic
            oracle = semantic[semantic != IGNORE_CLASS]
            frames.append((seq, f, labeled, len(oracle)))
            gt_classes.append(np.flatnonzero(np.bincount(oracle)))
    classes = np.flatnonzero(np.bincount(np.concatenate(gt_classes))) if frames else ()
    if len(classes) < 2:
        raise DataError("dataset holds fewer than two classes")

    total = sum(n for *_, n in frames)
    if max_points is not None and total > max_points:
        rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(2,)))
        pick = np.sort(rng.choice(total, size=max_points, replace=False))
    else:
        pick = np.arange(total)
    features = np.empty((len(pick), 6))
    labels = np.empty(len(pick), dtype=np.int64)
    kind = np.empty(len(pick), dtype=np.int8)
    oracle = np.empty(len(pick), dtype=np.int64)
    end = 0
    for seq, f, labeled, n in frames:
        start, end = end, end + n
        lo, hi = np.searchsorted(pick, (start, end))
        if hi == lo and (f in labeled or (seq, f) not in ple_maps):
            continue  # no sampled point and no estimate to check
        kept, f_ids, f_kind, f_oracle = _frame_rows(source, seq, f, labeled, ple_maps, classes)
        if hi > lo:
            rows = pick[lo:hi] - start
            features[lo:hi] = build_features(source.cloud(seq, f).points)[kept[rows]]
            kind[lo:hi] = f_kind[rows]
            labels[lo:hi] = np.where(f_kind[rows] == KIND_NONE, IGNORE_LABEL,
                                     np.searchsorted(classes, f_ids[rows]))
            oracle[lo:hi] = np.searchsorted(classes, f_oracle[rows])
    return TrainData(features, labels, kind, oracle, len(classes))
