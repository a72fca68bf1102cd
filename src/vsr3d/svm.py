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
solved alone, as `train_binary_smo` solves one problem.  One product of
the problems' dual coefficients with the same kernel then gives every
problem's decision values on every row; a fold problem's values on its
held-out rows are the scores its class's sigmoid is fitted on.

Prediction scores every class at once.  A model has one gamma, shared by
its one-vs-rest class models (a model file whose classes differ in gamma is
rejected), and their support vectors are rows of the same training matrix,
so each distinct row is stored once (as LIBSVM does) with the classes' dual
coefficients summed into a (rows, classes) matrix: one kernel over the
distinct support vectors and one matmul give every class's decision value.
A row whose distance to the support vectors' bounding box proves its whole
kernel row underflows to +0.0 (Gray & Moore 2000 prune with the same bound)
takes, without a kernel, the bias-only probability that such a row gives:
numpy's exp is slow where it underflows.

Every kernel entry, the training Gram matrix, cross-validation scoring and
prediction alike, comes from one routine, `rbf_kernel_matrix`: the exponent
-gamma ||z - s||^2 from one product of augmented rows, (2 gamma z,
-gamma |z|^2, -1) against (s, 1, gamma |s|^2), the norms folded into the
product (the GEMM-plus-norms form of SVM libraries such as ThunderSVM;
Wen et al., JMLR 2018), clamped at <= 0 and exponentiated in place.  That
product and the products with the dual coefficients run in fixed blocks of
8 rows and at most 256 terms (`_blocked_product`), so every row's values
are its own: the same bits whatever rows share its block, wherever it sits
in it, and at any BLAS thread count (cf. reproducible BLAS summation,
Demmel & Nguyen, ARITH 2013).  The Gram matrix takes its lower triangle
from the routine and copies it onto the upper, so it is exactly symmetric
by construction.

The decoder needs only each row's best class.  `predict_best_probability`
takes the sigmoid of each row's smallest affine score alone wherever a
margin, derived in `_best_of_scores`, proves that it is the row's largest
clipped probability, reached by that class alone, and the sigmoid of every
cell elsewhere, so it has the bits of the full matrix's row maximum and
first argmax.

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
from .util import read_json


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
    (a row repeated within or across classes counts each time); with the
    rows' bounding box, from which `_far_rows` bounds a row's distance to
    all of them, the model's one gamma, the rows augmented for the kernel
    product (`_augmented_support`), and the classes' biases and sigmoids as
    arrays."""
    rows: np.ndarray     # (U, k) distinct support vectors
    coef: np.ndarray     # (U, classes) summed dual coefficients
    low: np.ndarray      # (k,) per-dimension minimum of the rows
    high: np.ndarray     # (k,) per-dimension maximum of the rows
    gamma: float
    aug: np.ndarray      # (U, k + 2) rows (s, 1, gamma |s|^2)
    bias: np.ndarray     # (classes,) each class model's bias
    platt_a: np.ndarray  # (classes,) its sigmoid's A
    platt_b: np.ndarray  # (classes,) its sigmoid's B


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
    return KernelTable(rows=rows, coef=coef, low=rows.min(axis=0), high=rows.max(axis=0),
                       gamma=gammas[0], aug=_augmented_support(rows, gammas[0]),
                       bias=np.array([m.bias for m in models]),
                       platt_a=np.array([m.platt_a for m in models]),
                       platt_b=np.array([m.platt_b for m in models]))


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

    @cached_property
    def feature_settings(self) -> tuple:
        """(channel, delta_t_ms, uniform_length, mask_size) the model was
        trained on, read from its config on first use; the config is not to
        be changed after that."""
        cfg = PipelineConfig.from_feature_echo(self.config)
        return cfg.channel, cfg.delta_t_ms, cfg.uniform_length, cfg.mask_size


# A kernel is made and exponentiated a pass of rows at a time, each pass of at
# most about this many cells (512 KiB per float64 temporary), so scoring
# against the whole table of distinct support vectors needs no larger
# temporaries than one class model's kernel.
_KERNEL_BLOCK_CELLS = 1 << 16

# Every product the kernel and the dual coefficients enter runs in blocks of
# _BLOCK_ROWS rows, each entry a sum of at most _BLOCK_TERMS terms, partial
# sums added in order (`_blocked_product`).  OpenBLAS gives a row of such a
# product the same bits at every position in its block, beside any rows, and
# at any thread count; taller blocks or longer sums do not keep that
# (`TestBlockedProduct` pins it).
_BLOCK_ROWS = 8
_BLOCK_TERMS = 256


def _padded(n: int) -> int:
    """n rounded up to a whole number of _BLOCK_ROWS-row blocks."""
    return -(-n // _BLOCK_ROWS) * _BLOCK_ROWS


def _blocked_product(a: np.ndarray, b: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """a @ b (into `out` if given) for an a of a whole number of
    _BLOCK_ROWS-row blocks: one product per block and per _BLOCK_TERMS
    terms, the blocks of a row in one matmul call, and the partial sums
    over the terms added in order.  So each row of the result depends on
    that row of a and on b alone."""
    rows, terms = a.shape
    if out is None:
        out = np.empty((rows, b.shape[1]))
    blocks = a.reshape(-1, _BLOCK_ROWS, terms)
    # splitting the first axis makes a view, even of a strided `out`
    o = out.reshape(len(blocks), _BLOCK_ROWS, out.shape[1])
    np.matmul(blocks[:, :, :_BLOCK_TERMS], b[:_BLOCK_TERMS], out=o)
    for lo in range(_BLOCK_TERMS, terms, _BLOCK_TERMS):
        o += np.matmul(blocks[:, :, lo:lo + _BLOCK_TERMS], b[lo:lo + _BLOCK_TERMS])
    return out


def _augmented_rows(z: np.ndarray, gamma: float) -> np.ndarray:
    """(2 gamma z, -gamma |z|^2, -1) for rows z, then zero rows up to a whole
    number of blocks (`_padded`): their product with support vectors
    augmented as (s, 1, gamma |s|^2) is the kernel exponent
    -gamma ||z - s||^2, up to roundoff.  2 gamma z is computed as
    (z + z) gamma: the same bits, without forming 2 gamma, which overflows
    for gamma past half the largest double."""
    n = len(z)
    za = np.empty((_padded(n), z.shape[1] + 2))
    np.add(z, z, out=za[:n, :-2])
    za[:n, :-2] *= gamma
    za[:n, -2] = np.einsum("ij,ij->i", z, z)
    za[:n, -2] *= -gamma
    za[:n, -1] = -1.0
    za[n:] = 0.0
    return za


def _augmented_support(s: np.ndarray, gamma: float) -> np.ndarray:
    """Support vectors s augmented as (s, 1, gamma |s|^2), the right-hand
    side of the kernel exponent's product (`_augmented_rows`)."""
    with np.errstate(over="ignore"):
        sq = gamma * (s * s).sum(axis=1)
    return np.column_stack([s, np.ones(len(s)), sq])


def rbf_kernel_matrix(za: np.ndarray, aug: np.ndarray,
                      out: np.ndarray | None = None) -> np.ndarray:
    """The RBF kernel exp(-gamma ||z_i - s_j||^2) of rows z against support
    vectors s, from za = `_augmented_rows(z, gamma)` and
    aug = `_augmented_support(s, gamma)`: the exponent is their product
    (`_blocked_product`), clamped at <= 0 and exponentiated in place (in
    `out` if given), one row per row of za, padding included.  Every kernel
    entry training and prediction use is made here."""
    out = _blocked_product(za, aug.T, out)
    np.minimum(out, 0.0, out=out)
    return np.exp(out, out=out)


def _rows_per_pass(columns: int) -> int:
    """Rows of a (rows, columns) kernel taken per elementwise pass: about
    _KERNEL_BLOCK_CELLS cells, in whole blocks."""
    return max(1, _KERNEL_BLOCK_CELLS // (columns * _BLOCK_ROWS)) * _BLOCK_ROWS


def _gram_matrix(x: np.ndarray, gamma: float) -> np.ndarray:
    """The training kernel of rows x against themselves, exactly symmetric:
    its lower triangle from `rbf_kernel_matrix`, a pass of rows at a time
    against the columns up to the pass's last row, and its upper triangle a
    copy of the lower, made a pass at a time, so no n x n temporary is
    made."""
    n = len(x)
    za = _augmented_rows(x, gamma)
    aug = _augmented_support(x, gamma)
    kernel = np.empty((len(za), n))
    step = _rows_per_pass(n)
    for lo in range(0, n, step):
        hi = min(lo + step, n)
        rbf_kernel_matrix(za[lo:lo + step], aug[:hi], out=kernel[lo:lo + step, :hi])
    kernel = kernel[:n]
    for lo in range(0, n, step):
        hi = min(lo + step, n)
        kernel[lo:hi, hi:] = kernel[hi:, lo:hi].T
        square = kernel[lo:hi, lo:hi]
        upper = np.triu_indices(hi - lo, 1)
        square[upper] = square.T[upper]
    return kernel


def _sides(y: np.ndarray, alpha: np.ndarray, c: float) -> tuple[np.ndarray, np.ndarray]:
    """Which variables (labels y, values alpha) are in I_up and in I_low."""
    pos, below, above = y > 0, alpha < c, alpha > 0.0
    return np.where(pos, below, above), np.where(pos, above, below)


class _SmoState:
    """SMO for P problems on one precomputed kernel matrix, solved in
    lockstep with second-order working-set selection (WSS2; Fan, Chen & Lin
    2005, JMLR 6:1889-1918).  The kernel must be exactly symmetric, as
    `_gram_matrix` makes it (its upper triangle is a copy of its lower),
    since the gradient update reads K's rows as its columns.

    Problem p trains on the rows where `member[p]` holds, with labels `y[p]`
    (+-1).  Its other rows keep alpha = 0 and are never in I_up or I_low, so
    a problem on a subset of the rows (a cross-validation fold) runs on the
    full kernel.  Each problem's v is -y * G for the gradient G of its dual
    (to be minimized), that is y_t - sum_s alpha_s y_s K_ts.  Each step
    takes, for every running problem at once, the maximal violator
    i = argmax v over I_up and the partner j in I_low of largest second-order
    gain b^2 / a, moves the pair analytically and clips it into the box
    [0, C].  A problem stops once its KKT gap max_up(v) - min_low(v) is at
    most `tol`, or at its own budget of pair updates; the others run on.

    v is kept twice, as v on I_up and -inf elsewhere, and as v on I_low and
    +inf elsewhere, so the sets need no masks: max and min read them
    directly, the update subtracts the same finite column sum from both
    (which keeps the infinities), b = v_i - v is -inf off I_low, and a gain
    written b |b| / a is b^2 / a on the candidates (I_low with b > 0) and at
    most 0 off them.  Only the pair's two entries change sides in a step.
    A kernel must be finite, or a NaN would pass for a value.

    The denominators a = max(K_ii + K_jj - 2 K_ij, 1e-12) of every problem
    are rows of one symmetric n x n matrix, built once per solve beside the
    kernel, so a step gathers row i of it where it would rebuild that row
    for each running problem.

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
        tie = 1e-6 * tol
        # the running problems' rows, compacted in place as problems stop,
        # three (P, n) scratch buffers and a boolean one, so a step allocates
        # no (P, n) array
        going = np.arange(len(self.y))
        budget = np.array(budget)    # a copy: its rows are moved in place
        iterations = np.zeros(len(going), dtype=np.int64)
        alpha = np.zeros(self.y.shape)
        # v = -y * G, y at alpha = 0, kept twice: vv[0] holds it on I_up and
        # -inf elsewhere, vv[1] on I_low and +inf elsewhere
        vv = np.where(np.stack(_sides(self.y, alpha, C)) & self.member, self.y,
                      np.array([-np.inf, np.inf])[:, None, None])
        work = np.empty((3,) + self.y.shape)
        near = np.empty(self.y.shape, dtype=bool)
        quad = self._denominators(work.reshape(-1, self.y.shape[1]))
        pair = np.empty((2, len(going)), dtype=np.intp)   # rows i and j of the pair
        side = np.array([[0], [1]])     # i from vv[0], j from vv[1]
        sign = np.array([[1.0], [-1.0]])
        r = np.arange(len(going))
        while going.size:
            m = len(going)
            vu, vl, k = vv[0, :m], vv[1, :m], pair[:, :m]
            i, j = k
            w, b, a = work[:, :m]
            v_max = vu.max(axis=1)
            np.greater_equal(vu, (v_max - tie)[:, None], out=near[:m])
            near[:m].argmax(axis=1, out=i)
            v_min = vl.min(axis=1)
            stop = (v_max - v_min <= tol) | (iterations >= budget)
            if stop.any():
                for q in np.flatnonzero(stop):
                    self._finish(going[q], alpha[q], vu[q], iterations[q], v_max[q], v_min[q])
                # the running rows past the new end move into the stopped
                # rows before it; problems are independent, so their order
                # does not matter
                m -= int(stop.sum())
                if not m:
                    break
                holes = np.flatnonzero(stop[:m])
                movers = m + np.flatnonzero(~stop[m:])
                for arr in (going, budget, iterations, i, alpha, vu, vl):
                    arr[holes] = arr[movers]
                going, budget, iterations = going[:m], budget[:m], iterations[:m]
                alpha, r = alpha[:m], r[:m]
                vu, vl, k = vv[0, :m], vv[1, :m], pair[:, :m]
                i, j = k
                w, b, a = work[:, :m]
            # take(mode="clip") writes straight into `out` (the indices are
            # in range); its default mode would gather into a temporary first
            v_i = vu[r, i]
            np.subtract(v_i[:, None], vl, out=b)   # -inf off I_low
            quad.take(i, axis=0, out=a, mode="clip")
            # the gain b^2 / a on the candidates (I_low, b > 0), at most 0 off them
            np.abs(b, out=w)
            w *= b
            w /= a
            w.argmax(axis=1, out=j)
            # a best gain of 0 has underflowed: every candidate ties at it, and
            # so may rows off them, so the first candidate takes it
            flat = w[r, j] <= 0.0
            if flat.any():
                j[flat] = (b[flat] > 0.0).argmax(axis=1)
            # step t along alpha_k += s_k t (s_i = y_i, s_j = -y_j) for the
            # pair k = (i, j); a clipped variable is set exactly to its bound
            # so it leaves I_up / I_low
            y_k = self.y[going, k]
            s = y_k * sign
            rise = s > 0
            old = alpha[r, k]
            lim = np.where(rise, C - old, old)
            t = np.minimum(np.minimum(b[r, j] / a[r, j], lim[0]), lim[1])
            new = np.where(t == lim, np.where(rise, C, 0.0), old + s * t)
            step = y_k * (new - old)
            # v -= y_i d_i K[:, i] + y_j d_j K[:, j], summed before subtracting
            K.take(i, axis=0, out=w, mode="clip")
            w *= step[0][:, None]
            K.take(j, axis=0, out=a, mode="clip")
            a *= step[1][:, None]
            w += a
            vu -= w
            vl -= w
            # i was on I_up and j on I_low, so their new v is there; then each
            # goes to the sides its new alpha puts it on
            v_k = vv[side, r, k]
            up_k, low_k = _sides(y_k, new, C)
            vv[0, r, k] = np.where(up_k, v_k, -np.inf)
            vv[1, r, k] = np.where(low_k, v_k, np.inf)
            alpha[r, k] = new
            iterations += 1

    def _denominators(self, scratch: np.ndarray) -> np.ndarray:
        """a_ij = max(K_ii + K_jj - 2 K_ij, 1e-12), the second-order
        denominators of every pair, each entry by the same operations in the
        same order as WSS2 would compute it per step.  Built a block of rows
        at a time, doubling K's rows in `scratch` (rows, n), so no n x n
        temporary is made."""
        K = self.K
        diag = np.diag(K)
        quad = np.add.outer(diag, diag)
        for lo in range(0, len(K), len(scratch)):
            twice = np.multiply(K[lo:lo + len(scratch)], 2.0, out=scratch[:len(K) - lo])
            quad[lo:lo + len(twice)] -= twice
        return np.maximum(quad, 1e-12, out=quad)

    def _finish(self, p, alpha, v_up, iterations, v_max, v_min):
        """Store stopped problem p's results; the bias is the mean v over its
        free support vectors (which are on I_up), or the gap midpoint when
        none is free."""
        self.alpha[p], self.iterations[p], self.gap[p] = alpha, iterations, v_max - v_min
        free = (alpha > 0.0) & (alpha < self.C)
        self.b[p] = float(v_up[free].mean()) if free.any() else 0.5 * float(v_max + v_min)

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
    state = _SmoState(_gram_matrix(x, gamma), y[None], np.ones((1, len(y)), dtype=bool),
                      c, cfg.svm_tolerance)
    state.run([cfg.svm_max_passes * len(y)])
    return _binary_model(state, 0, x, gamma, stacklevel=2)


def _sigmoid_of_negative(z: np.ndarray) -> np.ndarray:
    """1 / (1 + exp(z)) without overflow, for a float array z that it
    overwrites: with e = exp(-|z|) <= 1, taken in place in z, it is
    e / (1 + e) where z >= 0 and 1 / (1 + e) elsewhere (z < 0 or NaN)."""
    neg = z < 0
    e = np.exp(np.copysign(z, -1.0, out=z), out=z)   # copysign(z, -1) is -|z|
    d = 1.0 + e
    # a masked copy into e would branch on the signs; np.where does not
    return np.divide(np.where(neg, 1.0, e), d, out=d)


# Newton steps `fit_platt` takes before it stops at its cap
_PLATT_MAX_STEPS = 100


def fit_platt(scores, labels) -> tuple[float, float, str]:
    """Fit the sigmoid p(f) = 1 / (1 + exp(A f + B)) by penalized maximum
    likelihood with Platt's smoothed targets (Platt 1999; Lin, Lin & Weng
    2007): Newton steps with backtracking until both gradient components are
    below 1e-7 or backtracking stalls, then plain Newton steps for as long as
    they lower the gradient's max-norm.  The fit so ends at the roundoff
    floor of its optimum, not at an iterate that roundoff picks.

    Returns (A, B, stop), stop naming why the fit ended: "converged" (both
    gradient components at the end below 1e-7 or below their roundoff floor,
    n eps sum |f| for the A component and n eps n for the B one, whichever is
    larger), "line_search" (backtracking found no sufficient decrease down
    to a step of 1e-10, and the gradient ended above both) or "cap" (100
    Newton steps taken, the finishing ones included).  A, B are the last
    accepted point in every case.
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
    sigma = 1e-12

    def nll(a: float, b: float) -> float:
        z = a * f + b
        # stable: t*z + log(1 + exp(-z)) for z >= 0, (t-1)*z + log(1+exp(z)) else
        return float(np.sum(np.where(z >= 0, t * z, (t - 1.0) * z)
                            + np.log1p(np.exp(-np.abs(z)))))

    def newton(a: float, b: float) -> tuple[float, float, float, float]:
        """The gradient (g1, g2) at (a, b) and the Newton step (da, db)."""
        z = a * f + b
        p = _sigmoid_of_negative(z)
        d1 = t - p
        d2 = p * (1.0 - p)
        g1 = float(np.sum(f * d1))
        g2 = float(np.sum(d1))
        h11 = float(np.sum(f * f * d2)) + sigma
        h22 = float(np.sum(d2)) + sigma
        h12 = float(np.sum(f * d2))
        det = h11 * h22 - h12 * h12
        return g1, g2, -(h22 * g1 - h12 * g2) / det, -(-h12 * g1 + h11 * g2) / det

    a, b = 0.0, math.log((n_neg + 1.0) / (n_pos + 1.0))
    fval = nll(a, b)
    for steps in range(_PLATT_MAX_STEPS):
        g1, g2, da, db = newton(a, b)
        if abs(g1) < 1e-7 and abs(g2) < 1e-7:
            stop = "converged"
            break
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
            stop = "line_search"
            break
    else:
        return a, b, "cap"
    # near the optimum the likelihood no longer resolves a step, but the
    # gradient does: finish with full Newton steps while its max-norm falls
    grad = (abs(g1), abs(g2))
    while steps < _PLATT_MAX_STEPS:
        steps += 1
        g1, g2, da_next, db_next = newton(a + da, b + db)
        if max(abs(g1), abs(g2)) >= max(grad):
            break
        a, b, da, db, grad = a + da, b + db, da_next, db_next, (abs(g1), abs(g2))
    # g1 = sum f (t - p) and g2 = sum (t - p) are computed within about
    # n eps sum |f| and n eps n (|t - p| <= 1): a gradient below that is at
    # its roundoff floor, however large the scores
    floor = len(f) * np.finfo(float).eps
    converged = (grad[0] < max(1e-7, floor * float(np.abs(f).sum()))
                 and grad[1] < max(1e-7, floor * len(f)))
    return a, b, "converged" if converged else stop


# exp(-x) is exactly +0.0 for every x >= _EXP_ZERO: e^-746 is below half the
# smallest subnormal, 2^-1075 = e^-745.13, so it rounds to zero.
_EXP_ZERO = 746.0

# The largest gamma |s|^2 of a support vector a model file may hold, an
# eighth of the largest double: below it a row no larger than the support
# vectors scores without overflow (`_affine_scores`).
_MAX_GAMMA_SQ = float(np.finfo(float).max) / 8


def _far_rows(table: KernelTable, z: np.ndarray) -> np.ndarray:
    """Which standardized rows z provably have an all-zero kernel row
    against the table's support vectors: the exponent
    `_augmented_rows(z, table.gamma) @ table.aug.T` is at most -_EXP_ZERO in
    every entry, which exp maps to +0.0.

    In dimension k a row lies at least g_k = max(z_k - high_k, low_k - z_k, 0)
    from every support vector s, so its squared distance D to each is at
    least LB = sum g_k^2.  Let eps be the machine epsilon, u = eps / 2 and
    r_m = m u / (1 - m u), in n dimensions.  The product's operands carry
    the roundoff of their own making: each 2 gamma z_k one rounding, and
    gamma |z|^2 and gamma |s|^2 are within r_(n+1) of their real values (a
    sum of n squares, then a product), so the real dot product of the
    rounded operands misses -gamma D by at most
    u gamma 2 sum |z_k s_k| + r_(n+1) gamma (|z|^2 + |s|^2)
    <= (u + r_(n+1)) gamma (|z|^2 + |s|^2), as 2 |z_k s_k| <= z_k^2 + s_k^2.
    BLAS sums its n + 2 terms in some order, fused or not, within r_(n+2)
    times the sum of their magnitudes, which is at most
    2 gamma (|z|^2 + |s|^2) (1 + r_(n+1)).  So the computed exponent is within
    about (3 n + 6) u = 1.5 (n + 2) eps times gamma (|z|^2 + |s|^2) of
    -gamma D.  The computed LB exceeds its real value by at most
    (n + 3) eps LB <= 2 (n + 3) eps (|z|^2 + |s|^2), as
    LB <= D <= 2 (|z|^2 + |s|^2).  The two together are at most
    (3.5 n + 9) eps (|z|^2 + |s|^2), and E = 8 (n + 2) eps (|z|^2 + max |s|^2)
    exceeds that by (4.5 n + 7) eps (|z|^2 + |s|^2) >= 11.5 eps * 373 / gamma
    (the test below implies gamma (|z|^2 + |s|^2) >= gamma LB / 2 >= 373),
    far more than rounding |z|^2, max |s|^2, E and the test itself costs
    (a few eps times 746 / gamma).  So a row with gamma (LB - E) >= _EXP_ZERO
    has every computed exponent at most -_EXP_ZERO.  Underflow adds at most
    (n + 2) 2^-1074 to a product, which this slack also covers.

    A row whose LB overflows (the squares of its gaps sum past the largest
    double M) lies at D >= LB >= M / (1 + (n + 3) eps) > M / 2 from every
    support vector, so gamma D >= _EXP_ZERO whenever gamma >= 2 _EXP_ZERO / M:
    its exact kernel row underflows to +0.0 and it is far, though no finite
    exponent of it is computed.  Such rows give inf (or inf - inf) here,
    which stays quiet.
    """
    gamma = table.gamma
    with np.errstate(over="ignore", invalid="ignore"):
        gap = np.maximum(z - table.high, table.low - z)
        np.maximum(gap, 0.0, out=gap)
        lb = np.einsum("ij,ij->i", gap, gap)
        s_max = (table.rows * table.rows).sum(axis=1).max()
        bound = lb - 8 * (z.shape[1] + 2) * np.finfo(float).eps * (np.einsum("ij,ij->i", z, z)
                                                                   + s_max)
        bound *= gamma
    huge = np.isinf(lb) & (gamma >= 2 * _EXP_ZERO / np.finfo(float).max)
    return (bound >= _EXP_ZERO) | huge


def _affine_scores(table: KernelTable, z: np.ndarray) -> np.ndarray:
    """(n, classes) scores t = A (f + bias) + B of standardized rows z, the
    argument of each class's sigmoid.  A far row (`_far_rows`) has an
    all-+0.0 kernel row, so it takes the bias-only scores without a kernel;
    the near rows are scored a pass at a time, each pass one kernel
    (`rbf_kernel_matrix`) and one blocked product with the dual
    coefficients.  Both products are blocked, so a near row's scores are
    its own, whatever rows are near beside it.

    The exponent's n + 2 terms sum in magnitude to at most
    2 gamma (|z|^2 + |s|^2) (1 + roundoff), so no partial sum overflows while
    gamma (|z|^2 + max |s|^2) is below an eighth of the largest double; a
    near row beyond that (only support vectors as large as it can keep it
    near) is an error rather than a NaN."""
    a, b = table.platt_a, table.platt_b
    out = np.empty((z.shape[0], len(a)))
    far = _far_rows(table, z)
    out[far] = a * (0.0 + table.bias) + b
    near = np.flatnonzero(~far)
    with np.errstate(over="ignore", invalid="ignore"):
        za = _augmented_rows(z[near], table.gamma)
        big = ~np.isfinite(8.0 * (table.aug[:, -1].max() - za[:, -2]))
    if big.any():
        raise VsrError(f"feature row {int(near[np.argmax(big)])} is too large to score against "
                       "the model's support vectors")
    step = _rows_per_pass(len(table.rows))
    for lo in range(0, len(near), step):
        # one (rows, U) array per pass, which dies with the product, so the
        # heap peak stays one pass
        kernel = rbf_kernel_matrix(za[lo:lo + step], table.aug)
        scores = _blocked_product(kernel, table.coef)
        del kernel
        scores += table.bias
        scores *= a
        scores += b
        rows = near[lo:lo + step]
        out[rows] = scores[:len(rows)]   # less the padding rows
    return out


def _probability_matrix(table: KernelTable, z: np.ndarray) -> np.ndarray:
    """(n, classes) calibrated probabilities of standardized rows z, the
    sigmoid of their `_affine_scores`, taken in place."""
    return _sigmoid_of_negative(_affine_scores(table, z))


# The clip range of calibrated probabilities in the decoder, which keeps
# every window's log-probability finite.
PROB_FLOOR = 1e-12
PROB_CEIL = 1.0 - 1e-12

# `_best_of_scores` takes a row's best probability from its smallest score
# alone when every other score exceeds it by more than
# _SIGMOID_GAP_EPS * eps / (1 - p), p that score's probability.
_SIGMOID_GAP_EPS = 16.0


def _best_of_scores(t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """For affine scores t, a C-ordered (rows, classes) array that it
    overwrites, each row's largest clipped probability
    clip(sigmoid(-t), PROB_FLOOR, PROB_CEIL) and the first class that
    reaches it, with the bits `_sigmoid_of_negative` of every cell, clipped,
    gives.

    The sigmoid falls as t rises, so the best class is the one of smallest
    t, but its computed form is not monotone at the ulp scale, so the
    shortcut is taken only where it provably holds.  With u = eps / 2 and
    exp within 4 ulps, the computed sigmoid p^(t) of p(t) = 1 / (1 + e^t)
    carries a relative error of at most 10 u: 8 u from e = exp(-|t|),
    damped by d ln p / d ln e, which is at most 1 in size, and u each from
    1 + e and the division.  The real ln p falls at rate 1 - p(t), which
    rises with t, so p(t') <= p(t) exp(-(t' - t)(1 - p(t))) for t' > t.
    Hence p^(t') < p^(t) once (t' - t)(1 - p(t)) > 2 atanh(10 u), about
    10 eps: the margin 16 eps / (1 - p^(t)) is that with room for p^ in
    place of p (their 1 - p differ by about 1e-3 relative at most, as
    1 - p^ >= 1e-12 below PROB_CEIL) and for the margin's own rounding.
    The computed test t' > fl(t + margin) implies t' > t + margin, since
    fl rounds to one of the two floats around its argument.  So a row whose
    p^ of its smallest t lies strictly inside (PROB_FLOOR, PROB_CEIL), and
    whose other scores all exceed that t by the margin, has its best
    probability there, reached by that class alone; every other row (exact
    or near ties, a best class on a clip plateau, NaN) takes the sigmoid of
    all its cells and the first argmax, as the clipped grid does."""
    # cells are addressed in t.flat (argmin is about 3x faster than min on
    # rows of tens of classes, and take than a gather by row and column)
    first = np.arange(0, t.size, t.shape[1])
    best = t.argmin(axis=1)
    cell = first + best
    t_min = t.take(cell)
    p = _sigmoid_of_negative(t_min.copy())
    # the second smallest score: the smallest once the best's is +inf
    np.put(t, cell, np.inf)
    runner_up = t.take(first + t.argmin(axis=1))
    margin = _SIGMOID_GAP_EPS * np.finfo(float).eps / (1.0 - np.minimum(p, PROB_CEIL))
    sure = (p > PROB_FLOOR) & (p < PROB_CEIL) & (runner_up > t_min + margin)
    hard = np.flatnonzero(~sure)
    if hard.size:
        np.put(t, cell[hard], t_min[hard])
        cells = np.clip(_sigmoid_of_negative(t[hard]), PROB_FLOOR, PROB_CEIL)
        best[hard] = cells.argmax(axis=1)
        p[hard] = cells.max(axis=1)
    return p, best


def _class_order(labels) -> list[str]:
    return list(dict.fromkeys(labels))


# The largest feature magnitude training takes, both as read and after
# standardization (in training standard deviations from the mean): far past
# any featurized value, and small enough that the standardization and every
# kernel's squared distances stay finite.
_MAX_FEATURE = 1e100


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
    `platt_early_stops` (sigmoid fits whose gradient did not reach 1e-7).
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
            raise VsrError(f"class {lab!r} has {len(idx)} sample; every class needs at least 2 "
                           "(drop its rows from the feature CSV, or featurize more data)")
        n_cv = int(cfg.cv_fraction * len(idx))
        cv_idx.extend(idx[:n_cv])
        train_idx.extend(idx[n_cv:])
    cv_idx.sort()
    train_idx.sort()
    if not (np.abs(x) <= _MAX_FEATURE).all():
        raise VsrError(f"feature values must be finite and at most {_MAX_FEATURE:g} in magnitude")
    stats = fit_standardization(x[train_idx])
    if not (np.abs(x - stats.mean) <= _MAX_FEATURE * stats.std).all():
        raise VsrError(f"a feature value lies more than {_MAX_FEATURE:g} training standard "
                       "deviations from the mean")
    x_train = standardize(x[train_idx], stats)
    x_cv = standardize(x[cv_idx], stats) if cv_idx else np.zeros((0, x.shape[1]))
    y_train = [labels[i] for i in train_idx]
    y_cv = [labels[i] for i in cv_idx]

    # deterministic 3-fold split by index, the same for every class: a fold
    # problem trains on the rest, and its decision values on the held-out
    # rows are the sigmoid's scores, values the SVM did not train on
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
        kernel = _gram_matrix(x_train, gamma)
        state = _SmoState(kernel, problem_y, problem_member, c, cfg.svm_tolerance)
        state.run(cfg.svm_max_passes * problem_member.sum(axis=1))
        # every problem's decision values on every training row, from the
        # support vectors its model would keep (K is symmetric), one
        # blocked product over the problems padded to whole blocks
        coef = np.zeros((_padded(len(problem_y)), len(y_train)))
        signed = np.multiply(state.alpha, state.y, out=coef[:len(problem_y)])
        signed[state.alpha <= 1e-12] = 0.0
        if not signed.any(axis=1).all():
            raise VsrError("SMO produced no support vectors")
        values = _blocked_product(coef, kernel)[:len(problem_y)]
        del coef, signed
        values += state.b[:, None]
        rows = iter(range(len(problem_y)))
        models, early_stops = [], 0
        for y, used in plan:
            p = next(rows)
            m = _binary_model(state, p, x_train, gamma, stacklevel=1)
            scores = np.full(len(y), np.nan)
            for f in used:
                q = next(rows)
                state.warn_if_stopped_early(q)
                scores[folds == f] = values[q, folds == f]
            have = ~np.isnan(scores)
            if have.any() and (y[have] > 0).any() and (y[have] < 0).any():
                m.platt_a, m.platt_b, stop = fit_platt(scores[have], y[have])
            else:
                m.platt_a, m.platt_b, stop = fit_platt(values[p], y)
            early_stops += stop != "converged"
            models.append(m)
        return models, {**state.counters(), "platt_early_stops": early_stops}

    def cv_accuracy(models: list[BinarySvmModel]) -> float:
        if len(y_cv) == 0:
            return 0.0
        pred = np.argmax(_probability_matrix(_kernel_table(models), x_cv), axis=1)
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


def _standardized(model: MultiClassModel, x: np.ndarray) -> np.ndarray:
    """Feature rows standardized by the model's statistics; a row that is
    not finite once standardized is an error: it has no probability."""
    with np.errstate(over="ignore", invalid="ignore"):
        z = standardize(np.asarray(x, dtype=float), model.stats)
    bad = ~np.isfinite(z).all(axis=1)
    if bad.any():
        raise VsrError(f"feature row {int(np.argmax(bad))} is not finite once standardized")
    return z


def predict_probability_matrix(model: MultiClassModel, x: np.ndarray) -> np.ndarray:
    """(n, classes) calibrated probabilities for a feature matrix, from one
    kernel over the model's distinct support vectors.  A row that is not
    finite once standardized is an error, and so is a near row too large to
    score (`_affine_scores`)."""
    return _probability_matrix(model.kernel_table, _standardized(model, x))


def predict_best_probability(model: MultiClassModel,
                             x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each feature row's largest calibrated probability, clipped to
    [PROB_FLOOR, PROB_CEIL], and the lowest class index that reaches it: the
    row maximum and first argmax of
    `np.clip(predict_probability_matrix(model, x), PROB_FLOOR, PROB_CEIL)`,
    bit for bit, mostly from one sigmoid per row (`_best_of_scores`)."""
    return _best_of_scores(_affine_scores(model.kernel_table, _standardized(model, x)))


# the keys `save_model` writes, which are all a model file may hold
_MODEL_KEYS = ("version", "classLabels", "config", "stats", "models")
_CONFIG_KEYS = (*FEATURE_ECHO, "C", "gamma")
_STATS_KEYS = ("mean", "std")
_CLASS_KEYS = ("label", "gamma", "bias", "plattA", "plattB", "alphas", "supportVectors")


def save_model(model: MultiClassModel, path):
    doc = {
        "version": 1,
        "classLabels": model.class_labels,
        "config": {k: model.config[k] for k in _CONFIG_KEYS if model.config.get(k) is not None},
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
    doc = read_json(path, "model")
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


def _known_keys(node, keys, what: str):
    """`node` as a JSON object holding none but `keys`."""
    if not isinstance(node, dict):
        raise VsrError(f"{what} must be a JSON object")
    unknown = [key for key in node if key not in keys]
    if unknown:
        raise VsrError(f"{what} has unknown key {unknown[0]!r}")
    return node


def _model_from_doc(doc) -> MultiClassModel:
    """A model checked for known keys, finite numbers and consistent shapes,
    so that a corrupt file fails here rather than deep inside prediction or
    with a default in place of a misspelt setting."""
    _known_keys(doc, _MODEL_KEYS, "the model")
    version = doc["version"]
    if type(version) is not int or version != 1:
        raise VsrError(f"version {version!r} is not 1")
    stats = _known_keys(doc["stats"], _STATS_KEYS, "stats")
    mean = _finite_array(stats["mean"], 1, "stats.mean")
    std = _finite_array(stats["std"], 1, "stats.std")
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
        _known_keys(m, _CLASS_KEYS, f"models[{i}]")
        if m["label"] != labels[i]:
            raise VsrError(f"models[{i}].label {m['label']!r} is not classLabels[{i}] "
                           f"{labels[i]!r}")
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
        with np.errstate(over="ignore"):
            huge = ~(gamma * (sv * sv).sum(axis=1) <= _MAX_GAMMA_SQ)
        if huge.any():
            raise VsrError(f"models[{i}] ({labels[i]!r}) support vector {int(np.argmax(huge))} "
                           "has gamma |s|^2 past an eighth of the largest double")
        models.append(BinarySvmModel(support_vectors=sv, dual_coef=alphas, bias=bias,
                                     gamma=gamma, platt_a=platt_a, platt_b=platt_b))
    config = _known_keys(doc.get("config") or {}, _CONFIG_KEYS, "config")
    PipelineConfig.from_feature_echo(config)   # the decoder featurizes with it
    return MultiClassModel(class_labels=labels, models=models,
                           stats=StandardizationStats(mean=mean, std=std), config=dict(config))
