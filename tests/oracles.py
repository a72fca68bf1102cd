"""Slow reference implementations the tests compare the package against.

Nothing in `src/`, `scripts/` or `perfbench/` calls these: the scalar RBF
kernel and decision value, the per-class probability path, the dual
objective, and the one-problem SMO loop that the lockstep solver in
`vsr3d.svm` must reproduce bit for bit.
"""

from __future__ import annotations

import math
import warnings

import numpy as np

from vsr3d import VsrError
from vsr3d.svm import (BinarySvmModel, MultiClassModel, _sigmoid_of_negative,
                       predict_probability_matrix, rbf_kernel_matrix)


def rbf_kernel(x: np.ndarray, y: np.ndarray, gamma: float) -> float:
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != y.shape:
        raise VsrError(f"kernel dimension mismatch: {x.shape} vs {y.shape}")
    d = x - y
    return math.exp(-gamma * float(d @ d))


def decision_value(model: BinarySvmModel, x: np.ndarray) -> float:
    x = np.asarray(x, dtype=float)
    if x.shape[0] != model.support_vectors.shape[1]:
        raise VsrError("feature dimension does not match the model")
    k = rbf_kernel_matrix(model.support_vectors, x[None, :], model.gamma)[:, 0]
    return float(model.dual_coef @ k + model.bias)


def platt_probability(model: BinarySvmModel, score) -> np.ndarray:
    return _sigmoid_of_negative(model.platt_a * np.asarray(score, dtype=float) + model.platt_b)


def predict_probabilities(model: MultiClassModel, x: np.ndarray) -> np.ndarray:
    """Independent one-vs-rest calibrated probability per class for one
    vector (deliberately not normalized to sum 1)."""
    return predict_probability_matrix(model, np.asarray(x, dtype=float)[None])[0]


def dual_objective(kernel: np.ndarray, y: np.ndarray, alpha: np.ndarray) -> float:
    ay = alpha * y
    return float(alpha.sum() - 0.5 * ay @ kernel @ ay)


class OneProblemSmo:
    """SMO for one problem on its own kernel matrix, one pair update per
    loop pass: the WSS2 loop (Fan, Chen & Lin 2005) with the tie rule, stop
    rule, budget warning and bias of `vsr3d.svm._SmoState`, which solves
    many problems in lockstep and must match this loop problem by problem.
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
            lim_i = C - alpha[i] if pos[i] else alpha[i]
            lim_j = alpha[j] if pos[j] else C - alpha[j]
            t = min(b[j] / a[j], lim_i, lim_j)
            new_i = (C if pos[i] else 0.0) if t == lim_i else alpha[i] + y[i] * t
            new_j = (0.0 if pos[j] else C) if t == lim_j else alpha[j] - y[j] * t
            v -= y[i] * (new_i - alpha[i]) * K[:, i] + y[j] * (new_j - alpha[j]) * K[:, j]
            alpha[i], alpha[j] = new_i, new_j
            self.iterations += 1
        if self.gap > self.tol:
            warnings.warn(f"SMO stopped at its budget of {self.iterations} pair updates "
                          f"with KKT gap {self.gap:.3g} > tolerance {self.tol:g}",
                          RuntimeWarning, stacklevel=2)
        free = (alpha > 0.0) & (alpha < C)
        self.b = float(v[free].mean()) if free.any() else 0.5 * float(v_max + v_min)
