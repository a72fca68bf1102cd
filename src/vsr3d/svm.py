"""RBF soft-margin SVMs trained by sequential minimal optimization, with
sigmoid-calibrated probability outputs and one-vs-rest multi-class training
under cross-validated hyperparameters.

Training is deterministic: SMO picks each working pair by maximal violation
and second-order gain, breaking ties (up to roundoff) to the smallest index,
and stops on the KKT gap.  Identical inputs give bit-identical models, and
last-digit changes of the input move the model only by roundoff.

Prediction scores every class at once.  The one-vs-rest models of one
training run share their gamma, and their support vectors are rows of the
same training matrix, so each distinct row is stored once (as LIBSVM does)
with the classes' dual coefficients summed into a (rows, classes) matrix:
one kernel per gamma over the distinct support vectors and one matmul give
every class's decision value.  The per-model `decision_values` is what
training uses and what the tests compare against.

Training reads its grids, SMO stop and CV fraction from a PipelineConfig;
the model records that config's feature echo.
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import VsrError
from .config import FEATURE_ECHO, PipelineConfig
from .features import StandardizationStats, fit_standardization, standardize


@dataclass
class BinarySvmModel:
    support_vectors: np.ndarray   # (m, k)
    dual_coef: np.ndarray         # (m,) signed alpha_i * y_i
    bias: float
    gamma: float
    platt_a: float = 0.0
    platt_b: float = 0.0


@dataclass
class KernelTable:
    """The support vectors of the class models that share one gamma, each
    distinct row once, and every model's dual coefficients summed into the
    rows it uses (a row repeated within or across models counts each time)."""
    gamma: float
    columns: list[int]   # indices of the class models in this group
    rows: np.ndarray     # (U, k) distinct support vectors
    coef: np.ndarray     # (U, len(columns)) summed dual coefficients


def _kernel_tables(models: list[BinarySvmModel]) -> list[KernelTable]:
    """One KernelTable per distinct gamma, in order of first appearance."""
    groups: dict[float, list[int]] = {}
    for i, m in enumerate(models):
        groups.setdefault(m.gamma, []).append(i)
    tables = []
    for gamma, columns in groups.items():
        members = [models[i] for i in columns]
        rows, where = np.unique(np.vstack([m.support_vectors for m in members]), axis=0,
                                return_inverse=True)
        owner = np.repeat(np.arange(len(members)), [len(m.dual_coef) for m in members])
        coef = np.zeros((len(rows), len(members)))
        np.add.at(coef, (where.reshape(-1), owner), np.concatenate([m.dual_coef for m in members]))
        tables.append(KernelTable(gamma=gamma, columns=columns, rows=rows, coef=coef))
    return tables


@dataclass
class MultiClassModel:
    class_labels: list[str]
    models: list[BinarySvmModel]
    stats: StandardizationStats
    config: dict = field(default_factory=dict)

    @cached_property
    def kernel_tables(self) -> list[KernelTable]:
        """The shared support-vector tables prediction uses, built on first
        use; the class models are not to be changed after that."""
        return _kernel_tables(self.models)


def rbf_kernel(x: np.ndarray, y: np.ndarray, gamma: float) -> float:
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != y.shape:
        raise VsrError(f"kernel dimension mismatch: {x.shape} vs {y.shape}")
    d = x - y
    return math.exp(-gamma * float(d @ d))


def rbf_kernel_matrix(a: np.ndarray, b: np.ndarray, gamma: float) -> np.ndarray:
    """exp(-gamma * ||a_i - b_j||^2) for all pairs."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape[1] != b.shape[1]:
        raise VsrError("kernel dimension mismatch")
    sq = (a * a).sum(axis=1)[:, None] + (b * b).sum(axis=1)[None, :] - 2.0 * (a @ b.T)
    return np.exp(-gamma * np.maximum(sq, 0.0))


class _SmoState:
    """SMO on a precomputed kernel matrix with second-order working-set
    selection (WSS2; Fan, Chen & Lin 2005, JMLR 6:1889-1918).

    `v` holds -y_t * G_t for the gradient G of the dual (to be minimized),
    that is y_t - sum_s alpha_s y_s K_ts.  Each step takes the maximal
    violator i = argmax v over I_up and the partner j in I_low of largest
    second-order gain b^2 / a, moves the pair analytically and clips it
    into the box [0, C].  The loop stops once the KKT gap
    max_up(v) - min_low(v) is at most `tol`, or at `max_iter` updates with
    a RuntimeWarning.

    An unclipped step leaves its pair with equal v, so later maxima tie up
    to roundoff; values within 1e-6 * tol of the maximum count as ties and
    go to the smallest index, which keeps the path (and the model) stable
    under last-digit changes of the input.
    """

    def __init__(self, kernel: np.ndarray, y: np.ndarray, c: float, tol: float):
        self.K = kernel
        self.y = y.astype(float)
        self.C = float(c)
        self.tol = float(tol)
        self.alpha = np.zeros(len(y))
        self.v = self.y.copy()  # -y * G with all-zero alphas
        self.b = 0.0
        self.gap = math.inf
        self.iterations = 0
        self.on_step = None

    def run(self, max_iter: int):
        K, y, C, alpha, v = self.K, self.y, self.C, self.alpha, self.v
        diag = np.diag(K)
        pos = y > 0
        tie = 1e-6 * self.tol
        while True:
            up = np.where(pos, alpha < C, alpha > 0.0)
            low = np.where(pos, alpha > 0.0, alpha < C)
            v_up = np.where(up, v, -np.inf)
            v_max, v_min = v_up.max(), np.where(low, v, np.inf).min()
            i = int(np.argmax(v_up >= v_max - tie))
            self.gap = float(v_max - v_min)
            if self.gap <= self.tol or self.iterations >= max_iter:
                break
            b = v[i] - v
            a = np.maximum(diag[i] + diag - 2.0 * K[i], 1e-12)
            j = int(np.argmax(np.where(low & (b > 0.0), b * b / a, -np.inf)))
            # step t along alpha_i += y_i t, alpha_j -= y_j t; a clipped
            # variable is set exactly to its bound so it leaves I_up / I_low
            lim_i = C - alpha[i] if pos[i] else alpha[i]
            lim_j = alpha[j] if pos[j] else C - alpha[j]
            t = min(b[j] / a[j], lim_i, lim_j)
            new_i = (C if pos[i] else 0.0) if t == lim_i else alpha[i] + y[i] * t
            new_j = (0.0 if pos[j] else C) if t == lim_j else alpha[j] - y[j] * t
            v -= y[i] * (new_i - alpha[i]) * K[:, i] + y[j] * (new_j - alpha[j]) * K[:, j]
            alpha[i], alpha[j] = new_i, new_j
            self.iterations += 1
            if self.on_step is not None:
                self.on_step(self)
        if self.gap > self.tol:
            warnings.warn(f"SMO stopped at its budget of {self.iterations} pair updates "
                          f"with KKT gap {self.gap:.3g} > tolerance {self.tol:g}",
                          RuntimeWarning, stacklevel=3)
        free = (alpha > 0.0) & (alpha < C)
        self.b = float(v[free].mean()) if free.any() else 0.5 * float(v_max + v_min)


def dual_objective(kernel: np.ndarray, y: np.ndarray, alpha: np.ndarray) -> float:
    ay = alpha * y
    return float(alpha.sum() - 0.5 * ay @ kernel @ ay)


def train_binary_smo(x: np.ndarray, y: np.ndarray, c: float, gamma: float,
                     cfg: PipelineConfig | None = None, kernel: np.ndarray | None = None,
                     on_step=None) -> BinarySvmModel:
    """Train one soft-margin binary SVM; y must be +-1 with both labels
    present.  `kernel` may pass a precomputed RBF Gram matrix.  `on_step`
    (if given) is called with the solver state after every pair update.
    Warns (RuntimeWarning) when cfg.svm_max_passes * n updates do not bring
    the KKT gap down to cfg.svm_tolerance (defaults when cfg is None); the
    model is then returned as it stands.
    """
    cfg = cfg or PipelineConfig()
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if set(np.unique(y)) != {-1.0, 1.0}:
        raise VsrError("binary training needs at least one example of each label")
    if kernel is None:
        kernel = rbf_kernel_matrix(x, x, gamma)
    state = _SmoState(kernel, y, c, cfg.svm_tolerance)
    state.on_step = on_step
    state.run(cfg.svm_max_passes * len(y))
    mask = state.alpha > 1e-12
    if not mask.any():
        raise VsrError("SMO produced no support vectors")
    return BinarySvmModel(
        support_vectors=x[mask].copy(),
        dual_coef=(state.alpha * y)[mask],
        bias=state.b,
        gamma=float(gamma),
    )


def decision_value(model: BinarySvmModel, x: np.ndarray) -> float:
    x = np.asarray(x, dtype=float)
    if x.shape[0] != model.support_vectors.shape[1]:
        raise VsrError("feature dimension does not match the model")
    k = rbf_kernel_matrix(model.support_vectors, x[None, :], model.gamma)[:, 0]
    return float(model.dual_coef @ k + model.bias)


def decision_values(model: BinarySvmModel, x: np.ndarray) -> np.ndarray:
    """Decision function over the rows of x."""
    k = rbf_kernel_matrix(np.asarray(x, dtype=float), model.support_vectors, model.gamma)
    return k @ model.dual_coef + model.bias


def _sigmoid_of_negative(z: np.ndarray) -> np.ndarray:
    """1 / (1 + exp(z)) without overflow."""
    return np.where(z >= 0, np.exp(-z) / (1.0 + np.exp(-z)), 1.0 / (1.0 + np.exp(z)))


def fit_platt(scores, labels) -> tuple[float, float]:
    """Fit the sigmoid p(f) = 1 / (1 + exp(A f + B)) by penalized maximum
    likelihood with Platt's smoothed targets; Newton steps with backtracking.
    """
    f = np.asarray(scores, dtype=float)
    y = np.asarray(labels, dtype=float)
    if len(f) != len(y) or len(f) == 0:
        raise VsrError("scores and labels must be equal-length and non-empty")
    n_pos = int((y > 0).sum())
    n_neg = int((y < 0).sum())
    if n_pos == 0 or n_neg == 0:
        raise VsrError("sigmoid fitting needs both labels present")
    hi = (n_pos + 1.0) / (n_pos + 2.0)
    lo = 1.0 / (n_neg + 2.0)
    t = np.where(y > 0, hi, lo)

    def nll(a: float, b: float) -> float:
        z = a * f + b
        # stable: t*z + log(1 + exp(-z)) for z >= 0, (t-1)*z + log(1+exp(z)) else
        return float(np.sum(np.where(z >= 0,
                                     t * z + np.log1p(np.exp(-z)),
                                     (t - 1.0) * z + np.log1p(np.exp(z)))))

    a, b = 0.0, math.log((n_neg + 1.0) / (n_pos + 1.0))
    fval = nll(a, b)
    sigma = 1e-12
    for _ in range(100):
        z = a * f + b
        p = _sigmoid_of_negative(z)
        d1 = t - p
        d2 = p * (1.0 - p)
        g1 = float(np.sum(f * d1))
        g2 = float(np.sum(d1))
        if abs(g1) < 1e-7 and abs(g2) < 1e-7:
            break
        h11 = float(np.sum(f * f * d2)) + sigma
        h22 = float(np.sum(d2)) + sigma
        h12 = float(np.sum(f * d2))
        det = h11 * h22 - h12 * h12
        da = -(h22 * g1 - h12 * g2) / det
        db = -(-h12 * g1 + h11 * g2) / det
        gd = g1 * da + g2 * db
        step = 1.0
        while step >= 1e-10:
            a_new, b_new = a + step * da, b + step * db
            f_new = nll(a_new, b_new)
            if f_new < fval + 1e-4 * step * gd:
                a, b, fval = a_new, b_new, f_new
                break
            step /= 2.0
        else:
            break
    return a, b


def platt_probability(model: BinarySvmModel, score) -> np.ndarray:
    return _sigmoid_of_negative(model.platt_a * np.asarray(score, dtype=float) + model.platt_b)


# Rows are scored in blocks whose kernel has at most this many cells (512 KiB
# per float64 temporary), so scoring against the whole table of distinct
# support vectors needs no larger temporaries than one class model's kernel.
_KERNEL_BLOCK_CELLS = 1 << 16


def _probability_matrix(models: list[BinarySvmModel], tables: list[KernelTable],
                        z: np.ndarray) -> np.ndarray:
    """(n, classes) calibrated probabilities of standardized rows z."""
    bias = np.array([m.bias for m in models])
    a = np.array([m.platt_a for m in models])
    b = np.array([m.platt_b for m in models])
    out = np.empty((z.shape[0], len(models)))
    step = max(1, _KERNEL_BLOCK_CELLS // max((len(t.rows) for t in tables), default=1))
    for lo in range(0, z.shape[0], step):
        rows = z[lo:lo + step]
        scores = np.empty((len(rows), len(models)))
        for t in tables:
            scores[:, t.columns] = rbf_kernel_matrix(rows, t.rows, t.gamma) @ t.coef
        out[lo:lo + step] = _sigmoid_of_negative(a * (scores + bias) + b)
    return out


def _class_order(labels) -> list[str]:
    seen = {}
    for lab in labels:
        seen.setdefault(lab, None)
    return list(seen)


def train_multiclass(x: np.ndarray, labels, cfg: PipelineConfig):
    """One-vs-rest training with (C, gamma) grid-searched over cfg's grids.

    The first floor(cfg.cv_fraction * n_c) samples of each class (in stable
    input order) form the cross-validation set; standardization is fitted on
    the remaining training portion only.  The grid point with the best top-1
    cross-validation accuracy wins (ties to smaller C, then smaller gamma).
    The model's config is cfg's feature echo plus the chosen C and gamma.
    Returns (MultiClassModel, report) where report lists every grid point.
    """
    x = np.asarray(x, dtype=float)
    labels = list(labels)
    if x.shape[0] != len(labels):
        raise VsrError("feature rows and labels differ in length")
    class_labels = _class_order(labels)
    if len(class_labels) < 2:
        raise VsrError("multi-class training needs at least 2 classes")
    cv_idx, train_idx = [], []
    for lab in class_labels:
        idx = [i for i, l in enumerate(labels) if l == lab]
        if len(idx) < 2:
            raise VsrError(f"class {lab!r} has fewer than 2 samples")
        n_cv = int(cfg.cv_fraction * len(idx))
        cv_idx.extend(idx[:n_cv])
        train_idx.extend(idx[n_cv:])
    cv_idx.sort()
    train_idx.sort()
    stats = fit_standardization(x[train_idx])
    x_train = standardize(x[train_idx], stats)
    x_cv = standardize(x[cv_idx], stats) if cv_idx else np.zeros((0, x.shape[1]))
    y_train = [labels[i] for i in train_idx]
    y_cv = [labels[i] for i in cv_idx]

    # deterministic 3-fold split by index, the same for every class
    folds = np.arange(len(y_train)) % 3

    def calibration_scores(fold_kernels: list[np.ndarray], y: np.ndarray, c: float,
                           gamma: float):
        """Out-of-fold decision values, so the sigmoid is fitted on scores
        the SVM did not train on."""
        scores = np.full(len(y), np.nan)
        for f, rest_kernel in enumerate(fold_kernels):
            hold = folds == f
            y_rest = y[~hold]
            if (y_rest > 0).sum() == 0 or (y_rest < 0).sum() == 0:
                continue
            sub = train_binary_smo(x_train[~hold], y_rest, c, gamma, cfg, kernel=rest_kernel)
            scores[hold] = decision_values(sub, x_train[hold])
        return scores

    def train_point(c: float, gamma: float) -> list[BinarySvmModel]:
        kernel = rbf_kernel_matrix(x_train, x_train, gamma)
        fold_kernels = [kernel[np.ix_(folds != f, folds != f)] for f in range(3)]
        models = []
        for lab in class_labels:
            y = np.where(np.array(y_train) == lab, 1.0, -1.0)
            m = train_binary_smo(x_train, y, c, gamma, cfg, kernel=kernel)
            scores = calibration_scores(fold_kernels, y, c, gamma)
            have = ~np.isnan(scores)
            if have.any() and (y[have] > 0).any() and (y[have] < 0).any():
                m.platt_a, m.platt_b = fit_platt(scores[have], y[have])
            else:
                m.platt_a, m.platt_b = fit_platt(decision_values(m, x_train), y)
            models.append(m)
        return models

    def cv_accuracy(models: list[BinarySvmModel]) -> float:
        if len(y_cv) == 0:
            return 0.0
        pred = np.argmax(_probability_matrix(models, _kernel_tables(models), x_cv), axis=1)
        truth = np.array([class_labels.index(l) for l in y_cv])
        return float(np.mean(pred == truth))

    report = []
    best = None
    for c in sorted(cfg.c_grid):
        for gamma in sorted(cfg.gamma_grid):
            models = train_point(c, gamma)
            acc = cv_accuracy(models)
            report.append({"C": c, "gamma": gamma, "cv_accuracy": acc})
            if best is None or acc > best[0]:
                best = (acc, c, gamma, models)
    _, c_best, gamma_best, models = best
    echo = {**cfg.feature_echo(), "C": c_best, "gamma": gamma_best}
    model = MultiClassModel(class_labels=class_labels, models=models, stats=stats, config=echo)
    return model, {"grid": report, "chosen": {"C": c_best, "gamma": gamma_best},
                   "cv_samples": len(y_cv), "train_samples": len(y_train)}


def predict_probabilities(model: MultiClassModel, x: np.ndarray) -> np.ndarray:
    """Independent one-vs-rest calibrated probability per class for one
    vector (deliberately not normalized to sum 1)."""
    return predict_probability_matrix(model, np.asarray(x, dtype=float)[None])[0]


def predict_probability_matrix(model: MultiClassModel, x: np.ndarray) -> np.ndarray:
    """(n, classes) calibrated probabilities for a feature matrix, from one
    kernel per gamma over the model's distinct support vectors."""
    z = standardize(np.asarray(x, dtype=float), model.stats)
    return _probability_matrix(model.models, model.kernel_tables, z)


def save_model(model: MultiClassModel, path):
    doc = {
        "version": 1,
        "classLabels": model.class_labels,
        "config": {k: model.config[k] for k in (*FEATURE_ECHO, "C", "gamma")
                   if model.config.get(k) is not None},
        "stats": {"mean": model.stats.mean.tolist(), "std": model.stats.std.tolist()},
        "models": [
            {
                "label": lab,
                "gamma": m.gamma,
                "bias": m.bias,
                "plattA": m.platt_a,
                "plattB": m.platt_b,
                "alphas": m.dual_coef.tolist(),
                "supportVectors": m.support_vectors.tolist(),
            }
            for lab, m in zip(model.class_labels, model.models)
        ],
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)


def load_model(path) -> MultiClassModel:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except json.JSONDecodeError as e:
        raise VsrError(f"malformed model file {path}: {e}") from e
    try:
        return _model_from_doc(doc)
    except KeyError as e:
        raise VsrError(f"malformed model file {path}: missing {e}") from e
    except (TypeError, VsrError) as e:
        raise VsrError(f"malformed model file {path}: {e}") from e


def _finite_array(value, ndim: int, what: str) -> np.ndarray:
    try:
        a = np.array(value, dtype=float)
    except (TypeError, ValueError):
        raise VsrError(f"{what} is not a rectangular array of numbers") from None
    if a.ndim != ndim:
        raise VsrError(f"{what} has {a.ndim} dimensions, expected {ndim}")
    if not np.isfinite(a).all():
        raise VsrError(f"{what} has a non-finite value")
    return a


def _model_from_doc(doc) -> MultiClassModel:
    """A model checked for finite numbers and consistent shapes, so that a
    corrupt file fails here rather than deep inside prediction."""
    mean = _finite_array(doc["stats"]["mean"], 1, "stats.mean")
    std = _finite_array(doc["stats"]["std"], 1, "stats.std")
    if len(std) != len(mean) or (std <= 0).any():
        raise VsrError("stats.std must be positive and as long as stats.mean")
    labels = list(doc["classLabels"])
    if len(labels) != len(doc["models"]):
        raise VsrError(f"{len(labels)} class labels for {len(doc['models'])} models")
    if len(set(labels)) != len(labels):
        raise VsrError("class labels must be distinct")
    models = []
    for i, m in enumerate(doc["models"]):
        sv = _finite_array(m["supportVectors"], 2, f"models[{i}].supportVectors")
        alphas = _finite_array(m["alphas"], 1, f"models[{i}].alphas")
        if sv.shape[1] != len(mean) or len(alphas) != sv.shape[0]:
            raise VsrError(f"models[{i}]: {sv.shape[0]}x{sv.shape[1]} support vectors and "
                           f"{len(alphas)} alphas do not fit {len(mean)} features")
        bias, gamma, platt_a, platt_b = (float(_finite_array(m[k], 0, f"models[{i}].{k}"))
                                         for k in ("bias", "gamma", "plattA", "plattB"))
        if gamma <= 0:
            raise VsrError(f"models[{i}].gamma must be positive")
        models.append(BinarySvmModel(support_vectors=sv, dual_coef=alphas, bias=bias,
                                     gamma=gamma, platt_a=platt_a, platt_b=platt_b))
    config = doc.get("config") or {}
    PipelineConfig.from_feature_echo(config)   # the decoder featurizes with it
    return MultiClassModel(class_labels=labels, models=models,
                           stats=StandardizationStats(mean=mean, std=std), config=dict(config))
