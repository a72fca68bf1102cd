"""RBF soft-margin SVMs trained by sequential minimal optimization, with
sigmoid-calibrated probability outputs and one-vs-rest multi-class training
under cross-validated hyperparameters.

Training is fully deterministic: the SMO working-set heuristics visit
examples in index order (violators among non-bound points first), so
identical inputs give bit-identical models.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from . import VsrError
from .features import StandardizationStats, fit_standardization, standardize


@dataclass
class TrainConfig:
    c_grid: tuple[float, ...] = (1.0, 4.0, 16.0, 64.0, 256.0)
    gamma_grid: tuple[float, ...] = (2.0**-9, 2.0**-7, 2.0**-5, 2.0**-3)
    tolerance: float = 1e-3
    max_passes: int = 200

    def __post_init__(self):
        if not self.c_grid or not self.gamma_grid:
            raise VsrError("hyperparameter grids must be non-empty")
        if self.tolerance <= 0:
            raise VsrError("tolerance must be positive")


@dataclass
class BinarySvmModel:
    support_vectors: np.ndarray   # (m, k)
    dual_coef: np.ndarray         # (m,) signed alpha_i * y_i
    bias: float
    gamma: float
    platt_a: float = 0.0
    platt_b: float = 0.0


@dataclass
class MultiClassModel:
    class_labels: list[str]
    models: list[BinarySvmModel]
    stats: StandardizationStats
    config: dict = field(default_factory=dict)


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
    """Platt's SMO on a precomputed kernel matrix."""

    def __init__(self, kernel: np.ndarray, y: np.ndarray, c: float, tol: float):
        self.K = kernel
        self.y = y.astype(float)
        self.C = float(c)
        self.tol = float(tol)
        n = len(y)
        self.alpha = np.zeros(n)
        self.b = 0.0
        self.errors = -self.y.copy()  # f(x_i) - y_i with all-zero alphas
        self.on_step = None

    def take_step(self, i1: int, i2: int) -> bool:
        if i1 == i2:
            return False
        a1, a2 = self.alpha[i1], self.alpha[i2]
        y1, y2 = self.y[i1], self.y[i2]
        e1, e2 = self.errors[i1], self.errors[i2]
        s = y1 * y2
        if y1 != y2:
            lo, hi = max(0.0, a2 - a1), min(self.C, self.C + a2 - a1)
        else:
            lo, hi = max(0.0, a1 + a2 - self.C), min(self.C, a1 + a2)
        if lo >= hi:
            return False
        k11, k12, k22 = self.K[i1, i1], self.K[i1, i2], self.K[i2, i2]
        eta = k11 + k22 - 2.0 * k12
        if eta > 0:
            a2_new = a2 + y2 * (e1 - e2) / eta
            a2_new = min(max(a2_new, lo), hi)
        else:
            # flat or concave curvature: the dual is convex along the
            # constraint line, so the gain is maximal at an endpoint
            u1 = e1 + y1 - self.b
            u2 = e2 + y2 - self.b

            def gain(a2c: float) -> float:
                da2 = a2c - a2
                da1 = s * (a2 - a2c)
                return (da1 + da2) - (y1 * da1 * u1 + y2 * da2 * u2
                                      + 0.5 * k11 * da1 * da1 + 0.5 * k22 * da2 * da2
                                      + s * k12 * da1 * da2)

            g_lo, g_hi = gain(lo), gain(hi)
            if g_lo > g_hi + 1e-12:
                a2_new = lo
            elif g_hi > g_lo + 1e-12:
                a2_new = hi
            else:
                return False
        if abs(a2_new - a2) < 1e-12 * (a2_new + a2 + 1e-12):
            return False
        a1_new = a1 + s * (a2 - a2_new)
        if a1_new < 0.0:
            a2_new += s * a1_new
            a1_new = 0.0
        elif a1_new > self.C:
            a2_new += s * (a1_new - self.C)
            a1_new = self.C
        d1 = y1 * (a1_new - a1)
        d2 = y2 * (a2_new - a2)
        b1 = self.b - e1 - d1 * k11 - d2 * k12
        b2 = self.b - e2 - d1 * k12 - d2 * k22
        if 0.0 < a1_new < self.C:
            b_new = b1
        elif 0.0 < a2_new < self.C:
            b_new = b2
        else:
            b_new = 0.5 * (b1 + b2)
        self.errors += d1 * self.K[:, i1] + d2 * self.K[:, i2] + (b_new - self.b)
        self.alpha[i1] = a1_new
        self.alpha[i2] = a2_new
        self.b = b_new
        if self.on_step is not None:
            self.on_step(self)
        return True

    def _non_bound(self) -> np.ndarray:
        return np.flatnonzero((self.alpha > 0.0) & (self.alpha < self.C))

    def examine(self, i2: int) -> bool:
        y2 = self.y[i2]
        a2 = self.alpha[i2]
        e2 = self.errors[i2]
        r2 = e2 * y2
        if not ((r2 < -self.tol and a2 < self.C) or (r2 > self.tol and a2 > 0.0)):
            return False
        non_bound = self._non_bound()
        if len(non_bound) > 1:
            diffs = np.abs(self.errors[non_bound] - e2)
            if self.take_step(int(non_bound[np.argmax(diffs)]), i2):
                return True
        for i1 in non_bound:
            if self.take_step(int(i1), i2):
                return True
        for i1 in range(len(self.y)):
            if self.take_step(i1, i2):
                return True
        return False

    def run(self, max_passes: int):
        examine_all = True
        passes = 0
        while passes < max_passes:
            changed = 0
            targets = range(len(self.y)) if examine_all else self._non_bound()
            for i2 in targets:
                changed += self.examine(int(i2))
            passes += 1
            if examine_all:
                if changed == 0:
                    break
                examine_all = False
            elif changed == 0:
                examine_all = True


def dual_objective(kernel: np.ndarray, y: np.ndarray, alpha: np.ndarray) -> float:
    ay = alpha * y
    return float(alpha.sum() - 0.5 * ay @ kernel @ ay)


def train_binary_smo(x: np.ndarray, y: np.ndarray, c: float, gamma: float,
                     cfg: TrainConfig | None = None, kernel: np.ndarray | None = None,
                     on_step=None) -> BinarySvmModel:
    """Train one soft-margin binary SVM; y must be +-1 with both labels
    present.  `kernel` may pass a precomputed RBF Gram matrix.  `on_step`
    (if given) is called with the solver state after every successful update.
    """
    cfg = cfg or TrainConfig()
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if set(np.unique(y)) != {-1.0, 1.0}:
        raise VsrError("binary training needs at least one example of each label")
    if kernel is None:
        kernel = rbf_kernel_matrix(x, x, gamma)
    state = _SmoState(kernel, y, c, cfg.tolerance)
    state.on_step = on_step
    state.run(cfg.max_passes)
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
        p = np.where(z >= 0, np.exp(-z) / (1.0 + np.exp(-z)), 1.0 / (1.0 + np.exp(z)))
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
    z = model.platt_a * np.asarray(score, dtype=float) + model.platt_b
    return np.where(z >= 0, np.exp(-z) / (1.0 + np.exp(-z)), 1.0 / (1.0 + np.exp(z)))


def _class_order(labels) -> list[str]:
    seen = {}
    for lab in labels:
        seen.setdefault(lab, None)
    return list(seen)


def train_multiclass(x: np.ndarray, labels, cfg: TrainConfig,
                     cv_split: float = 0.2, feature_config: dict | None = None):
    """One-vs-rest training with grid-searched (C, gamma).

    The first floor(cv_split * n_c) samples of each class (in stable input
    order) form the cross-validation set; standardization is fitted on the
    remaining training portion only.  The grid point with the best top-1
    cross-validation accuracy wins (ties to smaller C, then smaller gamma).
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
        n_cv = int(cv_split * len(idx))
        cv_idx.extend(idx[:n_cv])
        train_idx.extend(idx[n_cv:])
    cv_idx.sort()
    train_idx.sort()
    stats = fit_standardization(x[train_idx])
    x_train = standardize(x[train_idx], stats)
    x_cv = standardize(x[cv_idx], stats) if cv_idx else np.zeros((0, x.shape[1]))
    y_train = [labels[i] for i in train_idx]
    y_cv = [labels[i] for i in cv_idx]

    def calibration_scores(kernel: np.ndarray, y: np.ndarray, c: float, gamma: float):
        """Out-of-fold decision values (deterministic 3-fold by index), so
        the sigmoid is fitted on scores the SVM did not train on."""
        n = len(y)
        folds = np.arange(n) % 3
        scores = np.full(n, np.nan)
        for f in range(3):
            hold = folds == f
            rest = ~hold
            y_rest = y[rest]
            if (y_rest > 0).sum() == 0 or (y_rest < 0).sum() == 0:
                continue
            sub = train_binary_smo(x_train[rest], y_rest, c, gamma, cfg,
                                   kernel=kernel[np.ix_(rest, rest)])
            k = rbf_kernel_matrix(x_train[hold], sub.support_vectors, gamma)
            scores[hold] = k @ sub.dual_coef + sub.bias
        return scores

    def train_point(c: float, gamma: float) -> list[BinarySvmModel]:
        kernel = rbf_kernel_matrix(x_train, x_train, gamma)
        models = []
        for lab in class_labels:
            y = np.where(np.array(y_train) == lab, 1.0, -1.0)
            m = train_binary_smo(x_train, y, c, gamma, cfg, kernel=kernel)
            scores = calibration_scores(kernel, y, c, gamma)
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
        probs = np.stack([platt_probability(m, decision_values(m, x_cv)) for m in models], axis=1)
        pred = np.argmax(probs, axis=1)
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
    echo = dict(feature_config or {})
    echo.update({"C": c_best, "gamma": gamma_best})
    model = MultiClassModel(class_labels=class_labels, models=models, stats=stats, config=echo)
    return model, {"grid": report, "chosen": {"C": c_best, "gamma": gamma_best},
                   "cv_samples": len(y_cv), "train_samples": len(y_train)}


def predict_probabilities(model: MultiClassModel, x: np.ndarray) -> np.ndarray:
    """Independent one-vs-rest calibrated probability per class for one
    vector (deliberately not normalized to sum 1)."""
    z = standardize(np.asarray(x, dtype=float), model.stats)
    return np.array([float(platt_probability(m, decision_value(m, z))) for m in model.models])


def predict_probability_matrix(model: MultiClassModel, x: np.ndarray) -> np.ndarray:
    """(n, classes) calibrated probabilities for a feature matrix."""
    z = standardize(np.asarray(x, dtype=float), model.stats)
    return np.stack([platt_probability(m, decision_values(m, z)) for m in model.models], axis=1)


def save_model(model: MultiClassModel, path):
    doc = {
        "version": 1,
        "classLabels": model.class_labels,
        "config": {k: model.config.get(k) for k in ("channel", "deltaTms", "l", "s", "C", "gamma")},
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
    return MultiClassModel(class_labels=labels, models=models,
                           stats=StandardizationStats(mean=mean, std=std),
                           config=dict(doc.get("config") or {}))
