"""RBF soft-margin SVMs trained by sequential minimal optimization, with
sigmoid-calibrated probability outputs and one-vs-rest multi-class training
under cross-validated hyperparameters.

Training is deterministic: SMO picks each working pair by maximal violation
and second-order gain, breaking ties (up to roundoff) to the smallest index,
and stops on the KKT gap.  Identical inputs give bit-identical models, and
last-digit changes of the input move the model only by roundoff.

All one-vs-rest problems of a (C, gamma) grid point are solved in lockstep
on one exactly symmetric kernel matrix: each class on every training row
and, for its sigmoid, on the rest of each of three folds, the held-out rows
fixed at alpha = 0 and masked out of the working set.  A problem stops at
its own KKT gap or budget, and follows bit for bit the path it would take
solved alone, as `train_binary_smo` solves one problem.

Prediction scores every class at once.  A model has one gamma, shared by
its one-vs-rest class models (a model file whose classes differ in gamma is
rejected), and their support vectors are rows of the same training matrix,
so each distinct row is stored once (as LIBSVM does) with the classes' dual
coefficients summed into a (rows, classes) matrix: one kernel over the
distinct support vectors and one matmul give every class's decision value.
The per-model `decision_values` is what training uses and what the tests
compare against.

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
from .features import StandardizationStats, check_label, fit_standardization, standardize


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
    """The support vectors of a model's class models, each distinct row
    once, and every class's dual coefficients summed into the rows it uses
    (a row repeated within or across classes counts each time)."""
    rows: np.ndarray     # (U, k) distinct support vectors
    coef: np.ndarray     # (U, classes) summed dual coefficients


def _kernel_table(models: list[BinarySvmModel]) -> KernelTable:
    """The KernelTable of class models that share one gamma."""
    gammas = sorted({m.gamma for m in models})
    if len(gammas) > 1:
        raise VsrError(f"class models have gammas {gammas[0]!r} and {gammas[-1]!r}; "
                       "a model has one gamma")
    rows, where = np.unique(np.vstack([m.support_vectors for m in models]), axis=0,
                            return_inverse=True)
    owner = np.repeat(np.arange(len(models)), [len(m.dual_coef) for m in models])
    coef = np.zeros((len(rows), len(models)))
    np.add.at(coef, (where.reshape(-1), owner), np.concatenate([m.dual_coef for m in models]))
    return KernelTable(rows=rows, coef=coef)


@dataclass
class MultiClassModel:
    class_labels: list[str]
    models: list[BinarySvmModel]
    stats: StandardizationStats
    config: dict = field(default_factory=dict)

    @cached_property
    def kernel_table(self) -> KernelTable:
        """The shared support-vector table prediction uses, built on first
        use; the class models are not to be changed after that."""
        return _kernel_table(self.models)


def rbf_kernel_matrix(a: np.ndarray, b: np.ndarray, gamma: float) -> np.ndarray:
    """exp(-gamma * ||a_i - b_j||^2) for all pairs, with the squared
    distance expanded as ||a_i||^2 + ||b_j||^2 - 2 a_i . b_j.  Built in
    place, so at most two (len(a), len(b)) arrays are alive at once."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape[1] != b.shape[1]:
        raise VsrError("kernel dimension mismatch")
    k = np.add.outer((a * a).sum(axis=1), (b * b).sum(axis=1))
    ab = a @ b.T
    ab *= 2.0
    k -= ab
    del ab
    np.maximum(k, 0.0, out=k)
    k *= -gamma
    return np.exp(k, out=k)


class _SmoState:
    """SMO for P problems on one precomputed kernel matrix, solved in
    lockstep with second-order working-set selection (WSS2; Fan, Chen & Lin
    2005, JMLR 6:1889-1918).  The kernel must be exactly symmetric, as
    `rbf_kernel_matrix(x, x, gamma)` of a float array is (numpy computes
    x @ x.T by a symmetric rank-k update), since the gradient update reads
    K's rows as its columns.

    Problem p trains on the rows where `member[p]` holds, with labels `y[p]`
    (+-1).  Its other rows keep alpha = 0 and are never in I_up or I_low, so
    a problem on a subset of the rows (a cross-validation fold) runs on the
    full kernel.  Each problem's v holds -y * G for the gradient G of its
    dual (to be minimized), that is y_t - sum_s alpha_s y_s K_ts.  Each step
    takes, for every running problem at once, the maximal violator
    i = argmax v over I_up and the partner j in I_low of largest second-order
    gain b^2 / a, moves the pair analytically and clips it into the box
    [0, C].  A problem stops once its KKT gap max_up(v) - min_low(v) is at
    most `tol`, or at its own budget of pair updates; the others run on.

    An unclipped step leaves its pair with equal v, so later maxima tie up
    to roundoff; values within 1e-6 * tol of the maximum count as ties and
    go to the smallest index, which keeps the path (and the model) stable
    under last-digit changes of the input.  Every operation is elementwise
    within a problem or a row-wise max, min or argmax, so each problem takes
    bit for bit the path it would take alone on its sliced kernel.
    """

    def __init__(self, kernel: np.ndarray, y: np.ndarray, member: np.ndarray, c: float,
                 tol: float):
        self.K = kernel
        self.y = np.asarray(y, dtype=float)            # (P, n)
        self.member = np.asarray(member, dtype=bool)   # (P, n)
        self.C = float(c)
        self.tol = float(tol)
        self.alpha = np.zeros(self.y.shape)
        self.b = np.zeros(len(self.y))
        self.gap = np.full(len(self.y), math.inf)
        self.iterations = np.zeros(len(self.y), dtype=np.int64)

    def run(self, budget):
        """Solve every problem, problem p within budget[p] pair updates; a
        run with budget k takes exactly the first k updates of a longer one."""
        K, C, tol = self.K, self.C, self.tol
        diag = np.diag(K)
        tie = 1e-6 * tol
        # the running problems' rows, compacted in place as problems stop,
        # and three (P, n) scratch buffers, so a step allocates no (P, n) array
        going = np.arange(len(self.y))
        budget = np.asarray(budget)
        iterations = np.zeros(len(going), dtype=np.int64)
        alpha, v = np.zeros(self.y.shape), self.y.copy()  # v = -y * G at alpha = 0
        pos = self.y > 0
        up = np.where(pos, alpha < C, alpha > 0.0) & self.member
        low = np.where(pos, alpha > 0.0, alpha < C) & self.member
        work = np.empty((3,) + self.y.shape)
        while going.size:
            w, b, a = work[:, :len(going)]
            np.copyto(w, -np.inf)
            np.copyto(w, v, where=up)
            v_max = w.max(axis=1)
            i = np.argmax(w >= (v_max - tie)[:, None], axis=1)
            np.copyto(w, np.inf)
            np.copyto(w, v, where=low)
            v_min = w.min(axis=1)
            gap = v_max - v_min
            self.gap[going] = gap
            stop = (gap <= tol) | (iterations >= budget)
            if stop.any():
                self._finish(going[stop], alpha[stop], v[stop], iterations[stop],
                             v_max[stop], v_min[stop])
                keep = ~stop
                going, budget, iterations, i = going[keep], budget[keep], iterations[keep], i[keep]
                if not going.size:
                    break
                for arr in (alpha, v, up, low):
                    arr[:len(going)] = arr[keep]
                alpha, v, up, low = (arr[:len(going)] for arr in (alpha, v, up, low))
                w, b, a = work[:, :len(going)]
            # take(mode="clip") writes straight into `out` (the indices are
            # in range); its default mode would gather into a temporary first
            r = np.arange(len(going))
            np.subtract(v[r, i][:, None], v, out=b)
            np.add(diag[i][:, None], diag, out=a)
            np.take(K, i, axis=0, out=w, mode="clip")
            w *= 2.0
            a -= w
            np.maximum(a, 1e-12, out=a)
            np.multiply(b, b, out=w)
            w /= a
            np.copyto(w, -np.inf, where=~(low & (b > 0.0)))
            j = np.argmax(w, axis=1)
            # step t along alpha_i += y_i t, alpha_j -= y_j t; a clipped
            # variable is set exactly to its bound so it leaves I_up / I_low
            y_i, y_j = self.y[going, i], self.y[going, j]
            old_i, old_j = alpha[r, i], alpha[r, j]
            lim_i = np.where(y_i > 0, C - old_i, old_i)
            lim_j = np.where(y_j > 0, old_j, C - old_j)
            t = np.minimum(np.minimum(b[r, j] / a[r, j], lim_i), lim_j)
            new_i = np.where(t == lim_i, np.where(y_i > 0, C, 0.0), old_i + y_i * t)
            new_j = np.where(t == lim_j, np.where(y_j > 0, 0.0, C), old_j - y_j * t)
            # v -= y_i d_i K[:, i] + y_j d_j K[:, j], summed before subtracting
            np.take(K, i, axis=0, out=w, mode="clip")
            w *= (y_i * (new_i - old_i))[:, None]
            np.take(K, j, axis=0, out=a, mode="clip")
            a *= (y_j * (new_j - old_j))[:, None]
            w += a
            v -= w
            for k, new, y_k in ((i, new_i, y_i), (j, new_j, y_j)):
                alpha[r, k] = new
                up[r, k] = np.where(y_k > 0, new < C, new > 0.0)
                low[r, k] = np.where(y_k > 0, new > 0.0, new < C)
            iterations += 1

    def _finish(self, rows, alpha, v, iterations, v_max, v_min):
        """Store stopped problems' results; the bias is the mean v over the
        free support vectors, or the gap midpoint when none is free."""
        self.alpha[rows], self.iterations[rows] = alpha, iterations
        for p, al, vp, hi, lo in zip(rows, alpha, v, v_max, v_min):
            free = (al > 0.0) & (al < self.C)
            self.b[p] = float(vp[free].mean()) if free.any() else 0.5 * float(hi + lo)

    def warn_if_stopped_early(self, p: int, stacklevel: int = 1):
        """RuntimeWarning when problem p stopped at its budget, not its tolerance."""
        if self.gap[p] > self.tol:
            warnings.warn(f"SMO stopped at its budget of {int(self.iterations[p])} pair "
                          f"updates with KKT gap {float(self.gap[p]):.3g} > tolerance "
                          f"{self.tol:g}", RuntimeWarning, stacklevel=stacklevel + 1)

    def counters(self) -> dict:
        """Problem count, summed pair updates, budget hits and largest final gap."""
        return {"smo_problems": len(self.gap), "smo_iterations": int(self.iterations.sum()),
                "smo_budget_hits": int((self.gap > self.tol).sum()),
                "smo_max_gap": float(self.gap.max(initial=0.0))}


def _binary_model(state: _SmoState, p: int, x: np.ndarray, gamma: float,
                  stacklevel: int) -> BinarySvmModel:
    """Problem p of a finished solve as a model over its support vectors
    (rows of x); warns first if the problem stopped at its budget."""
    state.warn_if_stopped_early(p, stacklevel + 1)
    alpha = state.alpha[p]
    mask = alpha > 1e-12
    if not mask.any():
        raise VsrError("SMO produced no support vectors")
    return BinarySvmModel(support_vectors=x[mask].copy(), dual_coef=(alpha * state.y[p])[mask],
                          bias=float(state.b[p]), gamma=float(gamma))


def train_binary_smo(x: np.ndarray, y: np.ndarray, c: float, gamma: float,
                     cfg: PipelineConfig | None = None) -> BinarySvmModel:
    """Train one soft-margin binary SVM; y must be +-1 with both labels
    present.  Warns (RuntimeWarning) when cfg.svm_max_passes * n updates do
    not bring the KKT gap down to cfg.svm_tolerance (defaults when cfg is
    None); the model is then returned as it stands.
    """
    cfg = cfg or PipelineConfig()
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if set(np.unique(y)) != {-1.0, 1.0}:
        raise VsrError("binary training needs at least one example of each label")
    state = _SmoState(rbf_kernel_matrix(x, x, gamma), y[None], np.ones((1, len(y)), dtype=bool),
                      c, cfg.svm_tolerance)
    state.run([cfg.svm_max_passes * len(y)])
    return _binary_model(state, 0, x, gamma, stacklevel=2)


def decision_values(model: BinarySvmModel, x: np.ndarray) -> np.ndarray:
    """Decision function over the rows of x."""
    k = rbf_kernel_matrix(np.asarray(x, dtype=float), model.support_vectors, model.gamma)
    return k @ model.dual_coef + model.bias


def _sigmoid_of_negative(z: np.ndarray) -> np.ndarray:
    """1 / (1 + exp(z)) without overflow: both branches use exp(-|z|) <= 1."""
    e = np.exp(-np.abs(z))
    return np.where(z >= 0, e / (1.0 + e), 1.0 / (1.0 + e))


# Newton steps `fit_platt` takes before it stops at its cap
_PLATT_MAX_STEPS = 100


def fit_platt(scores, labels) -> tuple[float, float, str]:
    """Fit the sigmoid p(f) = 1 / (1 + exp(A f + B)) by penalized maximum
    likelihood with Platt's smoothed targets; Newton steps with backtracking.

    Returns (A, B, stop), stop naming why the fit ended: "converged" (both
    gradient components below 1e-7), "line_search" (backtracking found no
    sufficient decrease down to a step of 1e-10) or "cap" (100 Newton steps
    taken).  A, B are the last accepted point in every case.
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
        return float(np.sum(np.where(z >= 0, t * z, (t - 1.0) * z)
                            + np.log1p(np.exp(-np.abs(z)))))

    a, b = 0.0, math.log((n_neg + 1.0) / (n_pos + 1.0))
    fval = nll(a, b)
    sigma = 1e-12
    for _ in range(_PLATT_MAX_STEPS):
        z = a * f + b
        p = _sigmoid_of_negative(z)
        d1 = t - p
        d2 = p * (1.0 - p)
        g1 = float(np.sum(f * d1))
        g2 = float(np.sum(d1))
        if abs(g1) < 1e-7 and abs(g2) < 1e-7:
            return a, b, "converged"
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
            return a, b, "line_search"
    return a, b, "cap"


# Rows are scored in blocks whose kernel has at most this many cells (512 KiB
# per float64 temporary), so scoring against the whole table of distinct
# support vectors needs no larger temporaries than one class model's kernel.
_KERNEL_BLOCK_CELLS = 1 << 16


def _probability_matrix(models: list[BinarySvmModel], table: KernelTable,
                        z: np.ndarray) -> np.ndarray:
    """(n, classes) calibrated probabilities of standardized rows z."""
    gamma = models[0].gamma
    bias = np.array([m.bias for m in models])
    a = np.array([m.platt_a for m in models])
    b = np.array([m.platt_b for m in models])
    out = np.empty((z.shape[0], len(models)))
    step = max(1, _KERNEL_BLOCK_CELLS // len(table.rows))
    for lo in range(0, z.shape[0], step):
        scores = rbf_kernel_matrix(z[lo:lo + step], table.rows, gamma) @ table.coef
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
    Returns (MultiClassModel, report) where report lists every grid point
    with its CV accuracy and its solve's counters: `smo_problems`,
    `smo_iterations` (summed), `smo_budget_hits`, `smo_max_gap`, and
    `platt_early_stops` (sigmoid fits that ended before their gradient
    converged).
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

    # deterministic 3-fold split by index, the same for every class: a fold
    # model trains on the rest and scores the held-out rows, so the sigmoid
    # is fitted on decision values the SVM did not train on
    folds = np.arange(len(y_train)) % 3
    rests = [folds != f for f in range(3)]
    # class-major: each class on every row, then on each rest holding both labels
    plan, problem_y, problem_member = [], [], []
    for lab in class_labels:
        y = np.where(np.array(y_train) == lab, 1.0, -1.0)
        used = [f for f, rest in enumerate(rests) if (y[rest] > 0).any() and (y[rest] < 0).any()]
        plan.append((y, used))
        problem_y += [y] * (1 + len(used))
        problem_member += [np.ones(len(y), dtype=bool)] + [rests[f] for f in used]
    problem_y, problem_member = np.array(problem_y), np.array(problem_member)

    def train_point(c: float, gamma: float) -> tuple[list[BinarySvmModel], dict]:
        """The class models of one grid point, every problem solved in one
        lockstep SMO on one kernel, and the solver's counters."""
        state = _SmoState(rbf_kernel_matrix(x_train, x_train, gamma), problem_y, problem_member,
                          c, cfg.svm_tolerance)
        state.run(cfg.svm_max_passes * problem_member.sum(axis=1))
        rows = iter(range(len(problem_y)))
        models, early_stops = [], 0
        for y, used in plan:
            m = _binary_model(state, next(rows), x_train, gamma, stacklevel=1)
            scores = np.full(len(y), np.nan)
            for f in used:
                sub = _binary_model(state, next(rows), x_train, gamma, stacklevel=1)
                scores[folds == f] = decision_values(sub, x_train[folds == f])
            have = ~np.isnan(scores)
            if have.any() and (y[have] > 0).any() and (y[have] < 0).any():
                m.platt_a, m.platt_b, stop = fit_platt(scores[have], y[have])
            else:
                m.platt_a, m.platt_b, stop = fit_platt(decision_values(m, x_train), y)
            early_stops += stop != "converged"
            models.append(m)
        return models, {**state.counters(), "platt_early_stops": early_stops}

    def cv_accuracy(models: list[BinarySvmModel]) -> float:
        if len(y_cv) == 0:
            return 0.0
        pred = np.argmax(_probability_matrix(models, _kernel_table(models), x_cv), axis=1)
        truth = np.array([class_labels.index(l) for l in y_cv])
        return float(np.mean(pred == truth))

    report = []
    best = None
    for c in sorted(cfg.c_grid):
        for gamma in sorted(cfg.gamma_grid):
            models, counters = train_point(c, gamma)
            acc = cv_accuracy(models)
            report.append({"C": c, "gamma": gamma, "cv_accuracy": acc, **counters})
            if best is None or acc > best[0]:
                best = (acc, c, gamma, models)
    _, c_best, gamma_best, models = best
    echo = {**cfg.feature_echo(), "C": c_best, "gamma": gamma_best}
    model = MultiClassModel(class_labels=class_labels, models=models, stats=stats, config=echo)
    return model, {"grid": report, "chosen": {"C": c_best, "gamma": gamma_best},
                   "cv_samples": len(y_cv), "train_samples": len(y_train)}


def predict_probability_matrix(model: MultiClassModel, x: np.ndarray) -> np.ndarray:
    """(n, classes) calibrated probabilities for a feature matrix, from one
    kernel over the model's distinct support vectors."""
    z = standardize(np.asarray(x, dtype=float), model.stats)
    return _probability_matrix(model.models, model.kernel_table, z)


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
    if not isinstance(doc["classLabels"], list):
        raise VsrError("classLabels must be a list of labels")
    labels = [check_label(lab, f"classLabels[{i}]") for i, lab in enumerate(doc["classLabels"])]
    if len(labels) != len(doc["models"]):
        raise VsrError(f"{len(labels)} class labels for {len(doc['models'])} models")
    if not labels:
        raise VsrError("no class models")
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
        if models and gamma != models[0].gamma:
            raise VsrError(f"models[{i}].gamma {gamma!r} differs from models[0].gamma "
                           f"{models[0].gamma!r}; a model has one gamma")
        models.append(BinarySvmModel(support_vectors=sv, dual_coef=alphas, bias=bias,
                                     gamma=gamma, platt_a=platt_a, platt_b=platt_b))
    config = doc.get("config") or {}
    PipelineConfig.from_feature_echo(config)   # the decoder featurizes with it
    return MultiClassModel(class_labels=labels, models=models,
                           stats=StandardizationStats(mean=mean, std=std), config=dict(config))
