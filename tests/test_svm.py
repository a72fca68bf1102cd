import dataclasses
import math
import os
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from vsr3d import VsrError
from vsr3d.config import PipelineConfig
from vsr3d.features import StandardizationStats, fit_standardization, standardize
from vsr3d import svm
from vsr3d.svm import (PROB_CEIL, PROB_FLOOR, BinarySvmModel, MultiClassModel, fit_platt,
                       load_model, predict_best_probability, predict_probability_matrix,
                       rbf_kernel_matrix, save_model, train_binary_smo, train_multiclass,
                       _SmoState)

from oracles import (OneProblemSmo, block_by_block_kernel, blocked_probability_matrix,
                     blocked_product, decision_values, dual_objective, platt_probability,
                     predict_probabilities, rbf_kernel, sigmoid_of_negative,
                     subtractive_kernel_matrix)

ROOT = Path(__file__).resolve().parents[1]

gram_matrix = svm._gram_matrix


def kernel_of(a, b, gamma):
    """`rbf_kernel_matrix` of rows a against support vectors b."""
    return rbf_kernel_matrix(svm._augmented_rows(a, gamma), svm._augmented_support(b, gamma))


def two_point_dual_brute_force(x1, x2, gamma, c):
    """Grid-search the shared dual coefficient of the 2-point problem
    (alpha1 = alpha2 by the equality constraint).  The objective
    2a - a^2 (1 - K12) is concave, so a dense scan of [0, min(c, 100)]
    plus the c endpoint is exhaustive."""
    k12 = rbf_kernel(x1, x2, gamma)
    candidates = np.append(np.linspace(0.0, min(c, 100.0), 2000001), c)
    objs = 2 * candidates - candidates**2 * (1.0 - k12)
    best = int(np.argmax(objs))
    return float(candidates[best]), float(objs[best])


def kkt_violation(model, x, y, c, tol):
    f = decision_values(model, x)
    # reconstruct alpha per training point: zero unless it is a support vector
    alphas = np.zeros(len(x))
    for sv, coef in zip(model.support_vectors, model.dual_coef):
        idx = np.flatnonzero((np.abs(x - sv).max(axis=1) < 1e-12))
        assert len(idx) >= 1
        alphas[idx[0]] += abs(coef)
    worst = 0.0
    for i in range(len(x)):
        margin = y[i] * f[i]
        if alphas[i] < 1e-9:
            worst = max(worst, (1.0 - tol) - margin)
        elif alphas[i] > c - 1e-9:
            worst = max(worst, margin - (1.0 + tol))
        else:
            worst = max(worst, abs(margin - 1.0) - tol)
    return worst


def blobs(rng, centers, n_per, spread=0.15):
    x, labels = [], []
    for k, center in enumerate(centers):
        pts = rng.normal(loc=center, scale=spread, size=(n_per, len(center)))
        x.append(pts)
        labels.extend([f"class{k}"] * n_per)
    return np.vstack(x), labels


class TestKernel:
    def test_identical_points(self):
        x = np.array([1.0, -2.0, 0.5])
        assert rbf_kernel(x, x, 0.7) == 1.0

    def test_gamma_zero_limit(self):
        a, b = np.array([0.0, 0.0]), np.array([5.0, -3.0])
        assert rbf_kernel(a, b, 1e-12) == pytest.approx(1.0, abs=1e-9)

    def test_known_value(self):
        a, b = np.array([0.0, 0.0]), np.array([1.0, 1.0])
        assert rbf_kernel(a, b, 0.5) == pytest.approx(math.exp(-1.0), abs=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(VsrError):
            rbf_kernel(np.zeros(2), np.zeros(3), 1.0)

    def test_matrix_matches_scalar(self):
        rng = np.random.default_rng(0)
        a = rng.random((4, 3))
        b = rng.random((5, 3))
        k = kernel_of(a, b, 0.3)
        assert k.shape == (4, 5)
        for i in range(4):
            for j in range(5):
                assert k[i, j] == pytest.approx(rbf_kernel(a[i], b[j], 0.3), abs=1e-12)

    @pytest.mark.parametrize("rows, cols, dim", [(1, 1, 1), (300, 300, 10), (120, 700, 21)])
    def test_in_place_matches_expression_bytes(self, rows, cols, dim):
        """The in-place build (one matmul call per pass, the exponent
        clamped and exponentiated in its own array) keeps the operations and
        their order of the kernel written block by block, so every entry
        has the same bits; and it is within 1e-12 of the subtractive
        form."""
        rng = np.random.default_rng(rows + cols)
        a = rng.standard_normal((rows, dim))
        b = a if rows == cols else rng.standard_normal((cols, dim))
        for gamma in (2.0**-5, 0.3, 2.0**-3):
            k = kernel_of(a, b, gamma)
            assert k.tobytes() == block_by_block_kernel(a, b, gamma).tobytes()
            assert np.abs(k - subtractive_kernel_matrix(a, b, gamma)).max() <= 1e-12

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(1, 600), k=st.integers(1, 16),
           gamma=st.sampled_from(PipelineConfig().gamma_grid), seed=st.integers(0, 2**32 - 1),
           cells=st.sampled_from([1, 1 << 10, 1 << 16]))
    @example(n=203, k=11, gamma=0.125, seed=0, cells=1 << 10)
    def test_gram_matrix_is_exactly_symmetric(self, n, k, gamma, seed, cells):
        """The SMO update reads the kernel's rows as its columns.  The lower
        triangle is the routine's, row by row, with passes of one block up
        to about 2^16 cells and a part-filled last block, and every entry
        is within 1e-12 of the subtractive form."""
        x = np.random.default_rng(seed).standard_normal((n, k))
        with mock.patch.object(svm, "_KERNEL_BLOCK_CELLS", cells):
            kernel = gram_matrix(x, gamma)
        assert np.array_equal(kernel, kernel.T)
        lower = np.tril(np.ones((n, n), dtype=bool))
        assert np.array_equal(kernel[lower], kernel_of(x, x, gamma)[lower])
        assert np.abs(kernel - subtractive_kernel_matrix(x, x, gamma)).max() <= 1e-12


# (terms, columns) of the products the package takes: the kernel exponent
# (11 features + 2 against the pool's support vectors or a training set), and
# the products with the dual coefficients (support vectors against classes,
# a training set against itself), at the pool's sizes and past them
BLOCKED_SHAPES = [(13, 1), (13, 2), (13, 233), (13, 245), (13, 259), (13, 2500), (233, 8),
                  (245, 59), (259, 259), (259, 231), (400, 400), (1000, 129), (2500, 160)]

# Hashes of blocked products past the sizes where OpenBLAS splits a product
# over threads, of a Gram matrix, and of a model trained and scored at the
# pool's sizes, printed by a fresh process (the BLAS thread count is read at
# load time).
_THREAD_RUN = """
import hashlib
import numpy as np
from vsr3d import svm
from vsr3d.config import PipelineConfig

rng = np.random.default_rng(5)
out = []
for terms, columns in [(13, 20000), (400, 400), (1000, 129), (2500, 160), (600, 2500)]:
    a, b = rng.standard_normal((24, terms)), rng.standard_normal((terms, columns))
    out.append(svm._blocked_product(a, b))
out.append(svm._gram_matrix(rng.standard_normal((700, 11)), 0.125))
x = rng.standard_normal((480, 11))
labels = [f"c{int(v)}" for v in np.floor(3 * (np.tanh(x[:, 0] + 0.3 * x[:, 1]) + 1))]
model, report = svm.train_multiclass(x, labels, PipelineConfig(c_grid=(64.0,),
                                                               gamma_grid=(0.125,)))
out += [m.dual_coef for m in model.models]
out.append(np.array([(m.bias, m.platt_a, m.platt_b) for m in model.models]))
out.append(svm.predict_probability_matrix(model, rng.standard_normal((500, 11))))
print([hashlib.sha256(a.tobytes()).hexdigest()[:16] for a in out], report["grid"])
"""


class TestBlockedProduct:
    """The platform property every kernel and coefficient product rests on,
    pinned as the exp underflow is: OpenBLAS gives a row of an 8-row product
    of at most 256 terms the same bits wherever it sits in the block and
    whatever rows are beside it, and at any thread count."""

    @pytest.mark.parametrize("terms, columns", BLOCKED_SHAPES)
    def test_a_row_has_its_bits_at_every_position_and_alone(self, terms, columns):
        """Each row of `_blocked_product` equals that row moved to each
        position of a block of zero rows, and the loop of one product per
        block and per 256 terms."""
        rng = np.random.default_rng(terms * columns)
        a = rng.standard_normal((16, terms))
        b = rng.standard_normal((terms, columns))
        got = svm._blocked_product(a, b)
        assert got.tobytes() == blocked_product(a, b).tobytes()
        for i, row in enumerate(a):
            for position in range(svm._BLOCK_ROWS):
                block = np.zeros((svm._BLOCK_ROWS, terms))
                block[position] = row
                alone = svm._blocked_product(block, b)[position]
                assert alone.tobytes() == got[i].tobytes(), (i, position)

    @pytest.mark.parametrize("terms, columns", [(13, 245), (257, 59)])
    def test_any_row_count_has_each_row_alone_bits(self, terms, columns):
        """`_blocked_product` takes any number of rows, into a fresh or a
        strided `out`: each row has the bits of that row alone in a block
        of zero rows, at its own position in its block, and the loop
        oracle's; the columns beside a strided `out` are left as they
        were."""
        rng = np.random.default_rng(terms + columns)
        b = rng.standard_normal((terms, columns))
        for rows in [*range(1, 18), 257]:
            a = rng.standard_normal((rows, terms))
            fresh = svm._blocked_product(a, b)
            wide = np.full((rows, columns + 5), np.nan)
            strided = svm._blocked_product(a, b, out=wide[:, 2:-3])
            assert fresh.shape == (rows, columns)
            assert np.isnan(wide[:, :2]).all() and np.isnan(wide[:, -3:]).all()
            assert fresh.tobytes() == blocked_product(a, b).tobytes()
            for i, row in enumerate(a):
                block = np.zeros((svm._BLOCK_ROWS, terms))
                block[i % svm._BLOCK_ROWS] = row
                alone = svm._blocked_product(block, b)[i % svm._BLOCK_ROWS]
                assert alone.tobytes() == fresh[i].tobytes(), (rows, i)
                assert alone.tobytes() == strided[i].tobytes(), (rows, i)

    @pytest.mark.parametrize("n", [0, 1, 7, 8, 9, 17])
    def test_augmented_rows_are_one_per_row(self, n):
        """The rows augmented for the kernel product are the rows z, with no
        padding: the block is `_blocked_product`'s own."""
        z = np.random.default_rng(n).standard_normal((n, 11))
        assert svm._augmented_rows(z, 0.125).shape == (n, 13)

    def test_bits_do_not_depend_on_the_blas_thread_count(self):
        """Products, a Gram matrix and a trained and scored model, at sizes
        where OpenBLAS runs a product on more than one thread, have the
        same bytes at 1 and 2 threads."""
        runs = []
        for threads in ("1", "2"):
            env = {**os.environ, "OPENBLAS_NUM_THREADS": threads,
                   "PYTHONPATH": os.pathsep.join([str(ROOT / "src"),
                                                  os.environ.get("PYTHONPATH", "")])}
            done = subprocess.run([sys.executable, "-c", _THREAD_RUN], env=env,
                                  capture_output=True, text=True, timeout=300)
            assert done.returncode == 0, done.stderr
            runs.append(done.stdout)
        assert runs[0] == runs[1]


class TestBinarySmo:
    def test_two_point_problem_matches_dual_brute_force(self):
        x = np.array([[0.0], [2.0]])
        y = np.array([-1.0, 1.0])
        gamma, c = 0.5, 1e6
        model = train_binary_smo(x, y, c, gamma)
        alpha_star, _ = two_point_dual_brute_force(x[0], x[1], gamma, c)
        assert len(model.dual_coef) == 2
        assert np.abs(np.abs(model.dual_coef) - alpha_star).max() < 1e-3
        f = decision_values(model, x)
        assert f[0] < 0 < f[1]
        assert f[0] == pytest.approx(-1.0, abs=1e-6)
        assert f[1] == pytest.approx(1.0, abs=1e-6)

    def test_xor_with_rbf(self):
        x = np.array([[0.0, 0.0], [1.0, 1.0], [0.0, 1.0], [1.0, 0.0]])
        y = np.array([1.0, 1.0, -1.0, -1.0])
        model = train_binary_smo(x, y, 64.0, 1.0)
        preds = np.sign(decision_values(model, x))
        assert np.array_equal(preds, y)

    def test_dual_coefficients_sum_to_zero_and_bounded(self):
        rng = np.random.default_rng(1)
        x = rng.random((30, 4))
        y = np.where(x[:, 0] + 0.2 * rng.standard_normal(30) > 0.5, 1.0, -1.0)
        if len(set(y)) < 2:
            y[0] = -y[0]
        model = train_binary_smo(x, y, 10.0, 1.0)
        assert abs(model.dual_coef.sum()) < 1e-6
        assert np.abs(model.dual_coef).max() <= 10.0 + 1e-12
        assert len(model.dual_coef) >= 1

    def test_kkt_on_random_training_sets(self):
        rng = np.random.default_rng(2)
        cfg = PipelineConfig(svm_tolerance=1e-3, svm_max_passes=500)
        for trial in range(20):
            n = int(rng.integers(6, 25))
            x = rng.random((n, 3))
            y = np.where(x @ np.array([1.0, -0.7, 0.4]) > 0.35, 1.0, -1.0)
            if len(set(y)) < 2:
                continue
            c = float(rng.choice([1.0, 8.0, 64.0]))
            gamma = float(rng.choice([0.25, 1.0, 4.0]))
            model = train_binary_smo(x, y, c, gamma, cfg)
            assert kkt_violation(model, x, y, c, cfg.svm_tolerance) <= 1e-6, f"trial {trial}"

    def test_separable_2d_perfect_accuracy(self):
        rng = np.random.default_rng(3)
        x = np.vstack([rng.normal((-1, -1), 0.3, (25, 2)), rng.normal((1, 1), 0.3, (25, 2))])
        y = np.array([-1.0] * 25 + [1.0] * 25)
        model = train_binary_smo(x, y, 1e6, 1.0)
        assert (np.sign(decision_values(model, x)) == y).all()

    def test_objective_nondecreasing(self):
        rng = np.random.default_rng(4)
        x = rng.random((20, 3))
        y = np.where(x[:, 1] > 0.5, 1.0, -1.0)
        if len(set(y)) < 2:
            y[0] = -y[0]
        kernel = gram_matrix(x, 1.0)
        tol = PipelineConfig().svm_tolerance

        def solve(budget):
            state = _SmoState(kernel, y[None], np.ones((1, len(y)), dtype=bool), 8.0, tol)
            state.run([budget])
            return state

        # a run with budget k stops after exactly the first k updates of the full path
        steps = int(solve(10**6).iterations[0])
        assert steps > 0
        history = [dual_objective(kernel, y, solve(k).alpha[0]) for k in range(steps + 1)]
        diffs = np.diff(np.array(history))
        assert (diffs >= -1e-9).all()

    def test_single_label_rejected(self):
        with pytest.raises(VsrError):
            train_binary_smo(np.random.default_rng(5).random((5, 2)), np.ones(5), 1.0, 1.0)

    def test_zero_budget_rejected(self):
        with pytest.raises(VsrError, match="svm_max_passes"):
            PipelineConfig(svm_max_passes=0)

    def test_reproducible(self):
        rng = np.random.default_rng(6)
        x = rng.random((25, 3))
        y = np.where(x[:, 0] > 0.5, 1.0, -1.0)
        if len(set(y)) < 2:
            y[0] = -y[0]
        m1 = train_binary_smo(x, y, 4.0, 0.5)
        m2 = train_binary_smo(x, y, 4.0, 0.5)
        assert np.array_equal(m1.dual_coef, m2.dual_coef)
        assert m1.bias == m2.bias


def overlapping_problem(seed=0, n=60):
    """Two overlapping classes: many bounded and free support vectors."""
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, 3))
    y = np.where(x[:, 0] + 0.5 * rng.normal(size=n) > 0, 1.0, -1.0)
    return x, y, rng


class TestSolverStop:
    def test_budget_hit_warns_and_returns_a_model(self):
        x, y, _ = overlapping_problem()
        with pytest.warns(RuntimeWarning, match=r"budget of 60 pair updates with KKT gap"):
            model = train_binary_smo(x, y, 64.0, 0.5, PipelineConfig(svm_max_passes=1))
        assert len(model.dual_coef) > 0 and np.isfinite(model.bias)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("c", [1.0, 64.0, 1e4])
    def test_final_gap_within_tolerance(self, c):
        x, y, _ = overlapping_problem()
        kernel = gram_matrix(x, 0.5)
        cfg = PipelineConfig(svm_tolerance=1e-3)
        state = _SmoState(kernel, y[None], np.ones((1, len(y)), dtype=bool), c,
                          cfg.svm_tolerance)
        state.run([cfg.svm_max_passes * len(y)])
        state.warn_if_stopped_early(0)
        alpha = state.alpha[0]
        assert alpha.min() >= 0.0 and alpha.max() <= c
        v = y - kernel @ (alpha * y)      # -y * gradient of the dual
        up = np.where(y > 0, alpha < c, alpha > 0)
        low = np.where(y > 0, alpha > 0, alpha < c)
        gap = v[up].max() - v[low].min()
        assert gap <= cfg.svm_tolerance
        assert state.gap[0] == pytest.approx(gap, abs=1e-12)

    @pytest.mark.parametrize("c", [4.0, 64.0])
    def test_bias_stable_under_last_digit_input_changes(self, c):
        x, y, rng = overlapping_problem()
        perturbed = x * (1.0 + 1e-13 * rng.uniform(-1.0, 1.0, size=x.shape))
        a = train_binary_smo(x, y, c, 0.5)
        b = train_binary_smo(perturbed, y, c, 0.5)
        assert len(a.dual_coef) == len(b.dual_coef)
        assert abs(a.bias - b.bias) < 1e-9


class TestLockstepSmo:
    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_matches_one_problem_solves_on_sliced_kernels(self, data):
        """Up to six problems on one kernel, each on all rows, on the rest
        of a 3-fold split or on a random subset, solved in lockstep and
        then one at a time on their sliced kernels: member alphas, bias,
        gap, update count and budget warnings must be equal, and rows
        outside a problem keep alpha 0.  Budgets of 1 and 2 passes make most
        small problems stop at their own budget; the tiny tolerances, which
        no problem meets, run only those.  Repeated training rows give pairs
        with K_ii + K_jj - 2 K_ij at most 1e-12, where the denominator's
        clamp decides the step."""
        n = data.draw(st.integers(4, 40), label="n")
        c = data.draw(st.sampled_from([1.0, 64.0, 1e4]), label="C")
        tol = data.draw(st.sampled_from([1e-3, 1e-12, 1e-300]), label="svm_tolerance")
        passes = data.draw(st.sampled_from([1, 2, 200] if tol == 1e-3 else [1, 2]),
                           label="svm_max_passes")
        repeated = data.draw(st.booleans(), label="repeated rows")
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
        x = rng.normal(size=(n, 3))
        if repeated:   # n rows drawn from the first n // 2
            x = x[rng.integers(0, n // 2, size=n)]
        kernel = gram_matrix(x, 0.5)
        if repeated:
            diag = np.diag(kernel)
            denominators = diag[:, None] + diag - 2.0 * kernel
            assert (denominators[~np.eye(n, dtype=bool)] <= 1e-12).any()
        ys, members = [], []
        for _ in range(data.draw(st.integers(1, 6), label="P")):
            rows = data.draw(st.sampled_from(["all", 0, 1, 2, "subset"]), label="rows")
            if rows == "all":
                member = np.ones(n, dtype=bool)
            elif rows == "subset":
                member = np.array(data.draw(st.lists(st.booleans(), min_size=n, max_size=n)))
                member[:2] |= member.sum() < 2
            else:
                member = np.arange(n) % 3 != rows
            y = np.where(rng.random(n) < 0.5, 1.0, -1.0)
            first = np.flatnonzero(member)[0]
            if len(set(y[member])) < 2:
                y[first] = -y[first]
            ys.append(y)
            members.append(member)
        y, member = np.array(ys), np.array(members)

        state = _SmoState(kernel, y, member, c, tol)
        state.run(passes * member.sum(axis=1))
        with warnings.catch_warnings(record=True) as lockstep_warnings:
            warnings.simplefilter("always")
            for p in range(len(y)):
                state.warn_if_stopped_early(p)
        solos = []
        with warnings.catch_warnings(record=True) as solo_warnings:
            warnings.simplefilter("always")
            for p, m in enumerate(member):
                solo = OneProblemSmo(kernel[np.ix_(m, m)], y[p][m], c, tol)
                solo.run(passes * int(m.sum()))
                solos.append(solo)

        for p, (m, solo) in enumerate(zip(member, solos)):
            assert np.array_equal(state.alpha[p][m], solo.alpha), f"problem {p}"
            assert not state.alpha[p][~m].any()
            assert state.b[p] == solo.b
            assert state.gap[p] == solo.gap
            assert state.iterations[p] == solo.iterations
        assert ([str(w.message) for w in lockstep_warnings]
                == [str(w.message) for w in solo_warnings])


    @pytest.mark.parametrize("seed", range(6))
    def test_underflowed_gains_go_to_the_first_candidate(self, seed):
        """On a kernel scaled by 1e300, with C = 1e-300 to match, the gains
        b^2 / a of a nearly solved problem underflow to 0, where rows outside the candidates (I_low
        with b > 0) would tie them: every update must still match the
        one-problem loop's, which masks them out."""
        rng = np.random.default_rng(seed)
        n = 24
        x = rng.normal(size=(n, 3))
        kernel = gram_matrix(x, 0.5) * 1e300
        y = np.where(rng.random(n) < 0.5, 1.0, -1.0)
        y[:2] = 1.0, -1.0
        state = _SmoState(kernel, y[None], np.ones((1, n), dtype=bool), 1e-300, 1e-300)
        state.run([5 * n])
        solo = OneProblemSmo(kernel, y, 1e-300, 1e-300)
        with pytest.warns(RuntimeWarning, match="stopped at its budget"):
            solo.run(5 * n)
        assert np.array_equal(state.alpha[0], solo.alpha)
        assert state.b[0] == solo.b and state.gap[0] == solo.gap
        assert state.iterations[0] == solo.iterations


class TestSmoMemory:
    @pytest.mark.parametrize("problems, n", [(4, 400), (231, 250)])
    def test_peak_is_six_working_arrays(self, problems, n):
        """A solve holds alpha, v on I_up and on I_low, three scratch
        buffers and a boolean one, each (P, n), besides the kernel it is
        given, and exactly one n x n array, the second-order denominators
        (built without an n x n temporary): no (P, n) temporary per step or
        per stopping problem.  Broadcasting ufuncs add up to two buffers of
        numpy's own, 64 KiB each.  Problems stop at different steps."""
        rng = np.random.default_rng(problems)
        x = rng.normal(size=(n, 3))
        kernel = gram_matrix(x, 0.5)
        y = np.where(rng.random((problems, n)) < 0.5, 1.0, -1.0)
        y[:, :2] = 1.0, -1.0
        member = np.arange(n) % 3 != np.arange(problems)[:, None] % 4
        state = _SmoState(kernel, y, member, 64.0, 1e-3)
        budget = (1 + np.arange(problems) % 3) * member.sum(axis=1) // 2
        tracemalloc.start()
        try:
            state.run(budget)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(set(state.iterations.tolist())) > 1
        assert peak < 6.5 * y.nbytes + 2 * 2**16 + 2**14 + n * n * 8


class TestDecisionValue:
    def test_margin_at_non_bound_support_vector(self):
        rng = np.random.default_rng(7)
        x = np.vstack([rng.normal((-1, 0), 0.4, (20, 2)), rng.normal((1, 0), 0.4, (20, 2))])
        y = np.array([-1.0] * 20 + [1.0] * 20)
        c = 50.0
        model = train_binary_smo(x, y, c, 0.8)
        f = decision_values(model, model.support_vectors)
        margins = np.sign(model.dual_coef) * f
        non_bound = np.abs(model.dual_coef) < c - 1e-6
        assert non_bound.any()
        assert np.abs(margins[non_bound] - 1.0).max() < 1e-2

    def test_single_sv_identity(self):
        model = BinarySvmModel(support_vectors=np.array([[1.0, 2.0]]),
                               dual_coef=np.array([1.0]), bias=0.0, gamma=0.5)
        assert decision_values(model, np.array([[1.0, 2.0]]))[0] == pytest.approx(1.0)

    def test_continuity(self):
        model = BinarySvmModel(support_vectors=np.array([[0.0], [1.0]]),
                               dual_coef=np.array([0.7, -0.4]), bias=0.1, gamma=2.0)
        a, b = decision_values(model, np.array([[0.3], [0.3 + 1e-9]]))
        assert abs(a - b) < 1e-6

    def test_dimension_mismatch(self):
        model = BinarySvmModel(support_vectors=np.array([[0.0, 1.0]]),
                               dual_coef=np.array([1.0]), bias=0.0, gamma=1.0)
        with pytest.raises(VsrError):
            decision_values(model, np.array([[1.0]]))


class TestPlatt:
    def test_monotone_in_score(self):
        rng = np.random.default_rng(8)
        scores = rng.normal(0, 2, 80)
        labels = np.where(scores + rng.normal(0, 0.5, 80) > 0, 1.0, -1.0)
        a, b, _ = fit_platt(scores, labels)
        assert a < 0
        grid = np.linspace(-4, 4, 50)
        model = BinarySvmModel(np.zeros((1, 1)), np.ones(1), 0.0, 1.0, a, b)
        p = platt_probability(model, grid)
        assert (np.diff(p) > 0).all()

    def test_symmetric_scores_give_zero_intercept(self):
        scores = np.array([-2.0, -1.5, -1.0, -0.5, 0.5, 1.0, 1.5, 2.0])
        labels = np.sign(scores)
        _, b, _ = fit_platt(scores, labels)
        assert abs(b) < 1e-3

    def test_fitted_point_is_local_minimum(self):
        rng = np.random.default_rng(9)
        scores = rng.normal(0, 1.5, 60)
        labels = np.where(scores + rng.normal(0, 0.7, 60) > 0.2, 1.0, -1.0)
        if len(set(labels)) < 2:
            labels[0] = -labels[0]
        a, b, _ = fit_platt(scores, labels)
        n_pos = (labels > 0).sum()
        n_neg = (labels < 0).sum()
        hi, lo = (n_pos + 1.0) / (n_pos + 2.0), 1.0 / (n_neg + 2.0)
        t = np.where(labels > 0, hi, lo)

        def nll(aa, bb):
            z = aa * scores + bb
            return float(np.sum(np.where(z >= 0, t * z + np.log1p(np.exp(-z)),
                                         (t - 1) * z + np.log1p(np.exp(z)))))

        base = nll(a, b)
        for da, db in [(0.1, 0), (-0.1, 0), (0, 0.1), (0, -0.1)]:
            assert nll(a + da, b + db) >= base - 1e-9

    def test_single_label_rejected(self):
        with pytest.raises(VsrError):
            fit_platt(np.array([1.0, 2.0]), np.array([1.0, 1.0]))

    @settings(max_examples=200, deadline=None)
    @given(z=st.lists(st.floats(-700.0, 700.0), min_size=1, max_size=50))
    def test_sigmoid_has_the_bits_of_the_two_exponent_form(self, z):
        """One exp(-|z|) gives each branch the exponent it used before."""
        z = np.array(z)
        old = np.where(z >= 0, np.exp(-z) / (1.0 + np.exp(-z)), 1.0 / (1.0 + np.exp(z)))
        assert svm._sigmoid_of_negative(z).tobytes() == old.tobytes()

    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), scale=st.sampled_from([1.0, 30.0, 800.0, 1e300]))
    def test_sigmoid_in_place_has_the_bits_of_the_oracle(self, seed, scale):
        """The sigmoid taken in place in its argument has the bits of the
        one-expression form, the z >= 0 branch included, at signed zeros,
        subnormal-sized and steep scores, infinities, NaN and random scores."""
        special = np.array([0.0, -0.0, 1e-300, -1e-300, 745.0, -745.0, 1e300, -1e300,
                            np.inf, -np.inf, np.nan])
        z = np.concatenate([special, scale * np.random.default_rng(seed).normal(size=64)])
        want = sigmoid_of_negative(z)
        assert svm._sigmoid_of_negative(z.copy()).tobytes() == want.tobytes()

    @pytest.mark.filterwarnings("error")
    def test_sigmoid_of_steep_scores_is_quiet(self):
        z = np.array([-1e6, -800.0, -0.0, 0.0, 800.0, 1e6])
        assert svm._sigmoid_of_negative(z).tolist() == [1.0, 1.0, 0.5, 0.5, 0.0, 0.0]

    @staticmethod
    def noisy_scores(scale=1.0):
        rng = np.random.default_rng(10)
        labels = np.where(rng.random(200) < 0.5, 1.0, -1.0)
        return scale * (labels + rng.normal(0, 1.0, 200)), labels

    def test_stop_converged(self):
        assert fit_platt(*self.noisy_scores())[2] == "converged"

    def test_stop_line_search(self, monkeypatch):
        """A gradient that carries an error of 1e-6, far above both 1e-7 and
        its roundoff floor, points the Newton steps past what the likelihood
        can confirm, so backtracking runs out near the optimum and the
        finishing steps cannot bring the gradient down either."""
        sigmoid = svm._sigmoid_of_negative

        def noisy(z):
            noise = 1e-6 * np.sin(1e9 * z)
            return sigmoid(z) + noise

        monkeypatch.setattr(svm, "_sigmoid_of_negative", noisy)
        a, b, stop = fit_platt(*self.noisy_scores())
        assert stop == "line_search"
        monkeypatch.undo()
        a1, b1, _ = fit_platt(*self.noisy_scores())
        assert a == pytest.approx(a1, rel=1e-5) and b == pytest.approx(b1, rel=1e-5)

    @pytest.mark.parametrize("scale", [1e10, 1e12, 1e14])
    def test_large_scores_converge_at_their_roundoff_floor(self, scale):
        """Scores of size 1e10 and more put a 1e-7 gradient below the sums'
        roundoff floor, which grows with sum |f|; a fit that reaches that
        floor has converged, at the unit-scale fit scaled."""
        a, b, stop = fit_platt(*self.noisy_scores(scale))
        assert stop == "converged"
        a1, b1, _ = fit_platt(*self.noisy_scores())
        assert a * scale == pytest.approx(a1, rel=1e-14) and b == pytest.approx(b1, rel=1e-14)

    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(10, 200),
           exponent=st.integers(-2, 10))
    def test_fit_is_stable_under_last_digit_score_changes(self, seed, n, exponent):
        """A fit ends at the roundoff floor of its optimum, not at an iterate
        that roundoff picks: moving every score by at most 4 ulps moves A and
        B by at most 1e-11 relative (B absolute where |B| < 1)."""
        rng = np.random.default_rng(seed)
        labels = np.where(rng.random(n) < 0.5, 1.0, -1.0)
        labels[:2] = 1.0, -1.0
        scores = 10.0**exponent * (labels + rng.normal(0.0, rng.uniform(0.3, 2.0), n))
        nudged = scores + rng.integers(-4, 5, n) * np.spacing(scores)
        a, b, _ = fit_platt(scores, labels)
        a2, b2, _ = fit_platt(nudged, labels)
        assert a2 == pytest.approx(a, rel=1e-11, abs=0.0)
        assert b2 == pytest.approx(b, rel=1e-11, abs=1e-11)

    def test_stop_cap(self, monkeypatch):
        monkeypatch.setattr(svm, "_PLATT_MAX_STEPS", 1)
        a, b, stop = fit_platt(*self.noisy_scores())
        assert stop == "cap" and a < 0


class TestMulticlass:
    def test_report_counts_platt_early_stops(self, monkeypatch):
        """Each grid point counts its sigmoid fits that did not converge:
        none on overlapping blobs, and every class when each fit stops at
        its line search or at a cap of one Newton step."""
        x, labels = blobs(np.random.default_rng(11), [(0, 0), (1, 0), (0, 1)], 20, spread=0.6)
        cfg = PipelineConfig(c_grid=(4.0,), gamma_grid=(0.5, 2.0))

        def early_stops():
            return [g["platt_early_stops"] for g in train_multiclass(x, labels, cfg)[1]["grid"]]

        assert early_stops() == [0, 0]
        with monkeypatch.context() as m:
            m.setattr(svm, "fit_platt", lambda f, y: (*fit_platt(f, y)[:2], "line_search"))
            assert early_stops() == [3, 3]
        monkeypatch.setattr(svm, "_PLATT_MAX_STEPS", 1)
        assert early_stops() == [3, 3]

    def test_out_of_fold_scores_match_each_fold_solved_alone(self, monkeypatch):
        """Each class's sigmoid is fitted on its fold problems' decision
        values on their held-out rows, read from the grid point's kernel:
        within 1e-12 of each fold problem trained alone on its rest rows and
        scored on the held-out rows by its own model."""
        x, labels = blobs(np.random.default_rng(11), [(0, 0), (1, 0), (0, 1)], 20, spread=0.6)
        cfg = PipelineConfig(c_grid=(4.0,), gamma_grid=(0.5, 2.0))
        fits = []
        monkeypatch.setattr(svm, "fit_platt",
                            lambda f, y: fits.append((f.copy(), y.copy())) or fit_platt(f, y))
        train_multiclass(x, labels, cfg)
        # the training portion: all but the first 20% of each class, in order
        keep = np.concatenate([np.arange(k * 20 + 4, k * 20 + 20) for k in range(3)])
        z = standardize(x[keep], fit_standardization(x[keep]))
        names = np.array(labels)[keep]
        folds = np.arange(len(z)) % 3
        expected = []
        for gamma in cfg.gamma_grid:
            for lab in ("class0", "class1", "class2"):
                y = np.where(names == lab, 1.0, -1.0)
                scores = np.full(len(y), np.nan)
                for f in range(3):
                    rest, held = folds != f, folds == f
                    model = train_binary_smo(z[rest], y[rest], 4.0, gamma, cfg)
                    scores[held] = decision_values(model, z[held])
                expected.append((scores, y))
        assert len(fits) == len(expected) == 6
        for (got, got_y), (scores, y) in zip(fits, expected):
            assert np.array_equal(got_y, y)
            np.testing.assert_allclose(got, scores, rtol=0.0, atol=1e-12)

    def test_separable_blobs_reach_full_cv_accuracy(self):
        rng = np.random.default_rng(10)
        x, labels = blobs(rng, [(0, 0), (3, 0), (0, 3)], 20)
        cfg = PipelineConfig(c_grid=(64.0,), gamma_grid=(2.0**-3, 0.5))
        model, report = train_multiclass(x, labels, cfg)
        assert max(r["cv_accuracy"] for r in report["grid"]) == 1.0
        assert model.class_labels == ["class0", "class1", "class2"]

    def test_training_point_gets_highest_probability(self):
        rng = np.random.default_rng(11)
        x, labels = blobs(rng, [(0, 0), (4, 0), (0, 4)], 15)
        cfg = PipelineConfig(c_grid=(64.0,), gamma_grid=(0.25,))
        model, _ = train_multiclass(x, labels, cfg)
        probe = np.array([4.0, 0.0])
        probs = predict_probabilities(model, probe)
        assert model.class_labels[int(np.argmax(probs))] == "class1"
        assert ((probs > 0) & (probs < 1)).all()

    def test_published_operating_point_selected_from_singleton_grid(self):
        rng = np.random.default_rng(12)
        x, labels = blobs(rng, [(0, 0), (2, 2)], 10)
        cfg = PipelineConfig(c_grid=(64.0,), gamma_grid=(2.0**-7,))
        model, report = train_multiclass(x, labels, cfg)
        assert report["chosen"] == {"C": 64.0, "gamma": 2.0**-7}
        assert model.config["C"] == 64.0 and model.config["gamma"] == 2.0**-7

    def test_tie_break_prefers_smaller_c_then_gamma(self):
        rng = np.random.default_rng(13)
        x, labels = blobs(rng, [(0, 0), (5, 5)], 12)  # trivially separable: all points tie
        cfg = PipelineConfig(c_grid=(4.0, 1.0), gamma_grid=(0.5, 0.125))
        _, report = train_multiclass(x, labels, cfg)
        assert report["chosen"] == {"C": 1.0, "gamma": 0.125}

    def test_reproducible(self):
        rng = np.random.default_rng(14)
        x, labels = blobs(rng, [(0, 0), (3, 1)], 10)
        cfg = PipelineConfig(c_grid=(8.0,), gamma_grid=(0.5,))
        m1, _ = train_multiclass(x, labels, cfg)
        m2, _ = train_multiclass(x, labels, cfg)
        for a, b in zip(m1.models, m2.models):
            assert np.array_equal(a.dual_coef, b.dual_coef)
            assert a.bias == b.bias and a.platt_a == b.platt_a

    def test_small_class_rejected(self):
        x = np.random.default_rng(15).random((5, 2))
        with pytest.raises(VsrError, match="lonely"):
            train_multiclass(x, ["a", "a", "a", "a", "lonely"], PipelineConfig())

    def test_within_class_permutation_keeps_selection(self):
        rng = np.random.default_rng(18)
        x, labels = blobs(rng, [(0, 0), (3, 0), (0, 3)], 15)
        cfg = PipelineConfig(c_grid=(4.0, 64.0), gamma_grid=(0.125, 0.5))
        _, base = train_multiclass(x, labels, cfg)
        # reverse each class's samples in place (class membership unchanged)
        perm = np.arange(len(labels))
        for lab in set(labels):
            idx = [i for i, l in enumerate(labels) if l == lab]
            perm[idx] = idx[::-1]
        _, permuted = train_multiclass(x[perm], [labels[i] for i in perm], cfg)
        assert permuted["chosen"] == base["chosen"]

    def test_class_order_follows_first_appearance(self):
        rng = np.random.default_rng(16)
        x, _ = blobs(rng, [(0, 0), (3, 3)], 6)
        labels = ["zebra"] * 6 + ["apple"] * 6
        model, _ = train_multiclass(x, labels, PipelineConfig(c_grid=(4.0,), gamma_grid=(0.5,)))
        assert model.class_labels == ["zebra", "apple"]


class TestPredictProbabilityMatrix:
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_shared_tables_match_per_class_oracle(self, data):
        """Random one-vs-rest models over a small pool of rows, so support
        vectors are shared across classes; class 0 has a single support
        vector, class 1 repeats one, and every class has the model's one
        gamma.  Summing a repeated row's coefficients is what keeps the
        shared table equal to the per-class sums."""
        dim = data.draw(st.integers(1, 3))
        pool = np.array(data.draw(st.lists(st.lists(st.floats(-1, 1), min_size=dim, max_size=dim),
                                           min_size=1, max_size=4)))
        gamma = data.draw(st.floats(0.05, 0.5))
        models = []
        for c in range(data.draw(st.integers(2, 5))):
            idx = data.draw(st.lists(st.integers(0, len(pool) - 1), min_size=1,
                                     max_size=1 if c == 0 else 6))
            if c == 1:
                idx.append(idx[0])
            sign = st.sampled_from([-1, 1])
            coef = [data.draw(st.floats(0.1, 1)) * data.draw(sign) for _ in idx]
            models.append(BinarySvmModel(support_vectors=pool[idx], dual_coef=np.array(coef),
                                         bias=data.draw(st.floats(-1, 1)), gamma=gamma,
                                         platt_a=data.draw(st.floats(-1, -0.1)),
                                         platt_b=data.draw(st.floats(-1, 1))))
        stats = StandardizationStats(mean=np.array(data.draw(st.lists(
            st.floats(-0.5, 0.5), min_size=dim, max_size=dim))), std=np.full(dim, 0.5))
        model = MultiClassModel(class_labels=[f"c{i}" for i in range(len(models))],
                                models=models, stats=stats)
        x = np.array(data.draw(st.lists(st.lists(st.floats(-1, 1), min_size=dim, max_size=dim),
                                        min_size=1, max_size=4)))
        for rows in (x, x[:0]):
            z = (rows - stats.mean) / stats.std
            oracle = np.stack([platt_probability(m, decision_values(m, z)) for m in models],
                              axis=1)
            got = predict_probability_matrix(model, rows)
            assert got.shape == (len(rows), len(models))
            assert np.abs(got - oracle).max(initial=0.0) <= 1e-12
        table = model.kernel_table
        distinct = np.unique(np.vstack([m.support_vectors for m in models]), axis=0)
        assert np.array_equal(table.rows, distinct)
        assert table.coef.shape == (len(distinct), len(models))
        assert np.array_equal(predict_probabilities(model, x[0]),
                              predict_probability_matrix(model, x[:1])[0])

    def test_mixed_gamma_rejected(self):
        """A model has one gamma; class models that differ in it have no
        shared table, and prediction says so instead of scoring."""
        models = [BinarySvmModel(support_vectors=np.array([[0.0]]), dual_coef=np.array([1.0]),
                                 bias=0.0, gamma=g) for g in (0.5, 0.25)]
        model = MultiClassModel(class_labels=["a", "b"], models=models,
                                stats=StandardizationStats(np.zeros(1), np.ones(1)))
        with pytest.raises(VsrError, match="gammas 0.25 and 0.5"):
            predict_probability_matrix(model, np.zeros((1, 1)))


def pool_sized_case(seed: int):
    """A model at the pool's sizes (11 features, 240 candidate support
    vectors, 8 classes for even seeds and 59 for odd) and 700 rows, about
    half of them pushed far from every support vector."""
    rng = np.random.default_rng(seed)
    dim, distinct, n = 11, 240, 700
    pool = rng.normal(size=(distinct, dim))
    models = []
    for _ in range(59 if seed % 2 else 8):
        sv = pool[rng.random(distinct) < 0.5]
        models.append(BinarySvmModel(support_vectors=sv, dual_coef=rng.normal(size=len(sv)),
                                     bias=rng.normal(), gamma=0.125, platt_a=-1.5,
                                     platt_b=0.1))
    model = MultiClassModel(class_labels=[f"c{i}" for i in range(len(models))], models=models,
                            stats=StandardizationStats(np.zeros(dim), np.ones(dim)))
    x = rng.normal(size=(n, dim)) * 1.5
    x[rng.random(n) < 0.5, 1] += 300.0
    return model, x


def assert_near_rows_scored_alone(model, x, far):
    """The layout prediction scores in, for rows x standardized by the
    identity: the far rows have the whole-block oracle's bits (the bias-only
    probability), every row has the bits prediction gives it alone and in
    reverse order (so no row's probability depends on the rows scored with
    it, and the far rows enter no product), and every row is within 1e-12 of
    the whole-block oracle, whose kernel has the subtractive form."""
    got = predict_probability_matrix(model, x)
    dense = blocked_probability_matrix(model, x)
    assert got[far].tobytes() == dense[far].tobytes()
    assert got[~far].tobytes() == predict_probability_matrix(model, x[~far]).tobytes()
    assert got[::-1].tobytes() == predict_probability_matrix(model, x[::-1]).tobytes()
    for i in range(0, len(x), max(1, len(x) // 40)):
        assert got[i].tobytes() == predict_probability_matrix(model, x[i:i + 1])[0].tobytes()
    assert np.abs(got - dense).max() <= 1e-12


class TestFarRowSkip:
    def test_exp_underflows_to_zero_at_the_cutoff(self):
        """The platform property the skip rests on: exp is exactly +0.0 at
        and beyond -_EXP_ZERO, in the vector loop and its scalar tail alike,
        and not yet at -745 (the cutoff is within one of the real one)."""
        for size in range(1, 40):
            for x in (-svm._EXP_ZERO, -svm._EXP_ZERO - 0.5, -1000.0, -1e300, -np.inf):
                e = np.exp(np.full(size, x))
                assert (e == 0.0).all() and not np.signbit(e).any()
        assert np.exp(-745.0) > 0.0

    def test_matches_dense_oracle_bit_for_bit(self, monkeypatch):
        """Random models and rows with some coordinates pushed 10 to 1e6
        beyond the support vectors' box, scored in blocks of a few rows or
        all at once: the probabilities have the bits of the oracle's layout
        (`assert_near_rows_scored_alone`), every row the bound skips has an
        all-zero kernel row (in the training kernel's form, and as the
        augmented product's exponent, at most -_EXP_ZERO against every
        support vector), and some draws skip rows while others skip none."""
        skipped = []

        @settings(max_examples=150, deadline=None)
        @given(data=st.data())
        def check(data):
            dim = data.draw(st.integers(1, 4))
            unit = st.floats(-1, 1)
            pool = np.array(data.draw(st.lists(st.lists(unit, min_size=dim, max_size=dim),
                                               min_size=1, max_size=6)))
            gamma = data.draw(st.floats(1e-3, 4))
            models = []
            for c in range(data.draw(st.integers(2, 4))):
                idx = data.draw(st.lists(st.integers(0, len(pool) - 1), min_size=1, max_size=6))
                coef = [data.draw(st.floats(0.1, 1)) * data.draw(st.sampled_from([-1, 1]))
                        for _ in idx]
                models.append(BinarySvmModel(support_vectors=pool[idx], dual_coef=np.array(coef),
                                             bias=data.draw(st.floats(-1, 1)), gamma=gamma,
                                             platt_a=data.draw(st.floats(-2, -0.1)),
                                             platt_b=data.draw(st.floats(-1, 1))))
            model = MultiClassModel(class_labels=[f"c{i}" for i in range(len(models))],
                                    models=models,
                                    stats=StandardizationStats(np.zeros(dim), np.ones(dim)))
            x = np.array(data.draw(st.lists(st.lists(st.floats(-1.5, 1.5), min_size=dim,
                                                     max_size=dim), min_size=1, max_size=12)))
            for row in x:
                for k in range(dim):
                    if data.draw(st.booleans()):
                        row[k] += (data.draw(st.sampled_from([-1, 1]))
                                   * 10.0 ** data.draw(st.floats(1, 6)))
            monkeypatch.setattr(svm, "_KERNEL_BLOCK_CELLS",
                                data.draw(st.sampled_from([1, 3 * len(model.kernel_table.rows),
                                                           1 << 16])))
            table = model.kernel_table
            far = svm._far_rows(table, x)
            assert_near_rows_scored_alone(model, x, far)
            assert (subtractive_kernel_matrix(x[far], table.rows, gamma) == 0.0).all()
            assert (kernel_of(x[far], table.rows, gamma) == 0.0).all()
            exponent = svm._augmented_rows(x[far], gamma) @ table.aug.T
            assert (exponent <= -svm._EXP_ZERO).all()
            skipped.append(int(far.sum()))

        check()
        assert any(skipped) and not all(skipped)

    def test_near_rows_are_scored_as_their_own_blocks(self):
        """At the pool's sizes (11 features, about 240 distinct support
        vectors, 8 or 59 classes) with half the rows far: the far rows take
        the bias-only probability an all-zero kernel row gives, and each
        near row has its own bits, whatever rows are near beside it; the
        augmented product rounds differently from the subtractive form, so
        a near row may differ from the whole-block oracle, by roundoff
        only."""
        for seed in range(10):
            model, x = pool_sized_case(seed)
            far = svm._far_rows(model.kernel_table, x)
            assert 0 < far.sum() < len(x)
            assert_near_rows_scored_alone(model, x, far)

    def test_kernel_runs_on_the_near_rows_only(self, monkeypatch):
        """Prediction computes a kernel row for every near row and for no
        far row: the rows augmented for the kernel product number the near
        rows."""
        augment = svm._augmented_rows
        received = []

        def counting(z, gamma):
            received.append(len(z))
            return augment(z, gamma)

        monkeypatch.setattr(svm, "_augmented_rows", counting)
        for seed in range(2):
            model, x = pool_sized_case(seed)
            far = svm._far_rows(model.kernel_table, x)
            received.clear()
            predict_probability_matrix(model, x)
            assert 0 < far.sum() < len(x)
            assert sum(received) == (~far).sum()

    @pytest.mark.parametrize("v", [1e150, 1e200, 1e307, 1.7e308, -1.7e308])
    def test_huge_finite_rows_are_far(self, v):
        """Rows so far out that their squared distances overflow are far
        from every support vector: each takes the bias-only probability,
        with no NaN and no RuntimeWarning (an error in this suite)."""
        models = [BinarySvmModel(support_vectors=np.array([[0.5, -1.0], [1.0, 1.0]]),
                                 dual_coef=np.array([s, -0.5 * s]), bias=0.3 * s, gamma=4.0,
                                 platt_a=-1.2, platt_b=0.1)
                  for s in (1.0, -1.0)]
        model = MultiClassModel(class_labels=["a", "b"], models=models,
                                stats=StandardizationStats(np.zeros(2), np.ones(2)))
        x = np.array([[v, 0.0], [v, v], [v, -v]])
        assert svm._far_rows(model.kernel_table, x).all()
        bias_only = blocked_probability_matrix(model, np.array([[100.0, 0.0]]))
        got = predict_probability_matrix(model, x)
        assert got.tobytes() == np.repeat(bias_only, 3, axis=0).tobytes()

    def test_near_row_too_large_to_score_is_an_error(self):
        """A support vector as huge as a row keeps the row near, and their
        kernel product could overflow: the near row is an error, not a NaN,
        while a row whose gap to the support vectors overflows is far."""
        models = [BinarySvmModel(support_vectors=np.array([[1e200, 0.0], [0.0, 0.0]]),
                                 dual_coef=np.array([s, -s]), bias=0.0, gamma=0.5)
                  for s in (1.0, -1.0)]
        model = MultiClassModel(class_labels=["a", "b"], models=models,
                                stats=StandardizationStats(np.zeros(2), np.ones(2)))
        with pytest.raises(VsrError, match="feature row 1 is too large to score"):
            predict_probability_matrix(model, np.array([[1e300, 1e300], [1e200, 0.0]]))
        assert svm._far_rows(model.kernel_table, np.array([[1e300, 1e300]])).all()

    @pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan])
    def test_non_finite_row_is_an_error(self, value):
        """A row with no standardized value has no probability: without the
        check it would be NaN, and with the skip an inf could pass as far."""
        models = [BinarySvmModel(support_vectors=np.array([[0.0, 0.0]]),
                                 dual_coef=np.array([s]), bias=0.0, gamma=0.5)
                  for s in (1.0, -1.0)]
        model = MultiClassModel(class_labels=["a", "b"], models=models,
                                stats=StandardizationStats(np.zeros(2), np.ones(2)))
        x = np.zeros((3, 2))
        x[2, 1] = value
        with pytest.raises(VsrError, match="feature row 2 is not finite"):
            predict_probability_matrix(model, x)
        tiny = dataclasses.replace(model, stats=StandardizationStats(np.zeros(2),
                                                                     np.full(2, 5e-324)))
        with pytest.raises(VsrError, match="feature row 1 is not finite"):
            predict_probability_matrix(tiny, np.array([[0.0, 0.0], [0.0, 1.0]]))


def clipped_best(p: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Row maximum and first argmax of probabilities clipped as the decoder
    clips its grid."""
    cells = np.clip(p, PROB_FLOOR, PROB_CEIL)
    return cells.max(axis=1), cells.argmax(axis=1)


def sigmoid_calls(monkeypatch) -> list:
    """Records the dimension of every array `_sigmoid_of_negative` takes:
    1 for the one-per-row shortcut, 2 for rows scored on all their cells."""
    sigmoid = svm._sigmoid_of_negative
    dims = []

    def recording(z):
        dims.append(z.ndim)
        return sigmoid(z)

    monkeypatch.setattr(svm, "_sigmoid_of_negative", recording)
    return dims


def margin_of(t: float) -> float:
    """`_best_of_scores`'s margin for a smallest score t."""
    p = float(sigmoid_of_negative(np.array([t]))[0])
    return svm._SIGMOID_GAP_EPS * np.finfo(float).eps / (1.0 - min(p, PROB_CEIL))


# scores whose next float up has a larger computed sigmoid
WOBBLES = [0.6931772263454855, 0.7279587147657196, 1.563122604077897]


class TestBestProbability:
    """A row's best clipped probability and first class, from one sigmoid
    per row where the margin allows, have the bits of the full matrix."""

    def test_scores_match_every_cell_bit_for_bit(self, monkeypatch):
        """Rows of scores around a smallest one: exact ties, ties 1 to 4 ulps
        off, gaps inside, at and past the margin, cells on both clip
        plateaus (|t| past 27.7), infinities and NaN; the best probability
        and class equal the row maximum and first argmax of the clipped
        sigmoid of every cell, and both paths are taken."""
        dims = sigmoid_calls(monkeypatch)

        @settings(max_examples=300, deadline=None)
        @given(data=st.data())
        def check(data):
            rows = []
            for _ in range(data.draw(st.integers(1, 6))):
                base = data.draw(st.one_of(st.floats(-40.0, 40.0),
                                           st.sampled_from([0.0, -0.0, 27.6, -27.6, 1e-300]),
                                           st.sampled_from(WOBBLES)))
                row = [base]
                for _ in range(data.draw(st.integers(0, 6))):
                    kind = data.draw(st.sampled_from(["tie", "ulps", "band", "far", "plateau",
                                                      "special"]))
                    if kind == "tie":
                        row.append(base)
                    elif kind == "ulps":
                        t = base
                        for _ in range(data.draw(st.integers(1, 4))):
                            t = np.nextafter(t, data.draw(st.sampled_from([-np.inf, np.inf])))
                        row.append(float(t))
                    elif kind == "band":
                        row.append(base + data.draw(st.sampled_from([0.5, 1.0, 2.0, 8.0]))
                                   * data.draw(st.sampled_from([-1, 1])) * margin_of(base))
                    elif kind == "far":
                        row.append(base + data.draw(st.floats(1e-6, 50.0)))
                    elif kind == "plateau":
                        row.append(data.draw(st.sampled_from([-1.0, 1.0]))
                                   * data.draw(st.floats(27.7, 800.0)))
                    else:
                        row.append(data.draw(st.sampled_from([np.inf, -np.inf, np.nan])))
                rows.append(data.draw(st.permutations(row)))
            width = max(map(len, rows))
            # pad each row with copies of its own scores to one width
            t = np.array([row + row[:1] * (width - len(row)) for row in rows])
            want_p, want_c = clipped_best(sigmoid_of_negative(t))
            got_p, got_c = svm._best_of_scores(t.copy())
            assert got_p.tobytes() == want_p.tobytes()
            assert np.array_equal(got_c, want_c)

        check()
        assert 1 in dims and 2 in dims

    def test_models_match_the_clipped_matrix(self, monkeypatch):
        """Through a model: class models that copy another's (exact ties),
        nudge its sigmoid's B by 1 ulp or by about the margin, or sit on a
        clip plateau, over rows near the support vectors and far from all
        of them; `predict_best_probability` equals the row maximum and first
        argmax of the clipped `predict_probability_matrix`, bit for bit."""
        dims = sigmoid_calls(monkeypatch)

        @settings(max_examples=150, deadline=None)
        @given(data=st.data())
        def check(data):
            dim = data.draw(st.integers(1, 3))
            unit = st.floats(-1, 1)
            pool = np.array(data.draw(st.lists(st.lists(unit, min_size=dim, max_size=dim),
                                               min_size=1, max_size=5)))
            gamma = data.draw(st.floats(0.05, 4))
            models = []
            for c in range(data.draw(st.integers(1, 6))):
                kind = data.draw(st.sampled_from(["new", "copy", "ulp", "band", "plateau"]))
                if not models or kind == "new":
                    idx = data.draw(st.lists(st.integers(0, len(pool) - 1), min_size=1,
                                             max_size=4))
                    models.append(BinarySvmModel(
                        support_vectors=pool[idx],
                        dual_coef=np.array([data.draw(st.floats(-2, 2)) for _ in idx]),
                        bias=data.draw(st.floats(-1, 1)), gamma=gamma,
                        platt_a=data.draw(st.floats(-3, -0.1)),
                        platt_b=data.draw(st.floats(-3, 3))))
                    continue
                other = models[data.draw(st.integers(0, len(models) - 1))]
                b = other.platt_b
                if kind == "ulp":
                    b = float(np.nextafter(b, data.draw(st.sampled_from([-np.inf, np.inf]))))
                elif kind == "band":
                    b += data.draw(st.sampled_from([-1, 1])) * 10.0 ** data.draw(
                        st.integers(-16, -12))
                elif kind == "plateau":
                    b = data.draw(st.sampled_from([-1.0, 1.0])) * data.draw(st.floats(30, 60))
                models.append(dataclasses.replace(other, platt_b=b))
            model = MultiClassModel(class_labels=[f"c{i}" for i in range(len(models))],
                                    models=models,
                                    stats=StandardizationStats(np.zeros(dim), np.ones(dim)))
            x = np.array(data.draw(st.lists(st.lists(st.floats(-1.5, 1.5), min_size=dim,
                                                     max_size=dim), min_size=0, max_size=8)))
            x = x.reshape(-1, dim)
            for row in x:
                if data.draw(st.booleans()):
                    row[0] += data.draw(st.sampled_from([-1, 1])) * 10.0 ** data.draw(
                        st.floats(2, 6))
            want_p, want_c = clipped_best(predict_probability_matrix(model, x))
            got_p, got_c = predict_best_probability(model, x)
            assert got_p.tobytes() == want_p.tobytes()
            assert np.array_equal(got_c, want_c)

        check()
        assert 1 in dims and 2 in dims

    def test_pool_sized_rows_take_one_sigmoid_each(self, monkeypatch):
        """At the pool's sizes, with half the rows far, the best
        probabilities have the matrix's bits and no row needs its cells."""
        dims = sigmoid_calls(monkeypatch)
        for seed in range(4):
            model, x = pool_sized_case(seed)
            want_p, want_c = clipped_best(predict_probability_matrix(model, x))
            dims.clear()
            got_p, got_c = predict_best_probability(model, x)
            assert got_p.tobytes() == want_p.tobytes()
            assert np.array_equal(got_c, want_c)
            assert dims == [1]

    def test_margin_covers_the_sigmoids_ulp_wobble(self):
        """The computed sigmoid is not monotone at the ulp scale (some
        adjacent scores rise), but it always falls across the margin."""
        t = np.concatenate([np.random.default_rng(3).uniform(-27.6, 27.6, 200_000), WOBBLES])
        p = sigmoid_of_negative(t)
        nxt = sigmoid_of_negative(np.nextafter(t, np.inf))
        assert (nxt[-len(WOBBLES):] > p[-len(WOBBLES):]).all()
        margin = svm._SIGMOID_GAP_EPS * np.finfo(float).eps / (1.0 - p)
        beyond = sigmoid_of_negative(np.nextafter(t + margin, np.inf))
        assert (beyond < p).all()


class TestModelIo:
    def test_roundtrip(self, tmp_path):
        rng = np.random.default_rng(17)
        x, labels = blobs(rng, [(0, 0), (3, 0)], 8)
        cfg = PipelineConfig(channel="red", delta_t_ms=30.0, uniform_length=10, mask_size=3,
                             c_grid=(16.0,), gamma_grid=(0.25,))
        model, _ = train_multiclass(x, labels, cfg)
        path = tmp_path / "model.json"
        save_model(model, path)
        loaded = load_model(path)
        assert loaded.class_labels == model.class_labels
        assert loaded.config["channel"] == "red"
        assert np.array_equal(loaded.stats.mean, model.stats.mean)
        probe = np.array([1.5, 0.1])
        assert np.array_equal(predict_probabilities(model, probe),
                              predict_probabilities(loaded, probe))

    def test_17_digit_serialization(self, tmp_path):
        model = BinarySvmModel(support_vectors=np.array([[1.0 / 3.0]]),
                               dual_coef=np.array([2.0 / 3.0]), bias=-1.0 / 7.0, gamma=0.1)
        from vsr3d.features import StandardizationStats
        from vsr3d.svm import MultiClassModel

        mc = MultiClassModel(class_labels=["a"], models=[model],
                             stats=StandardizationStats(np.array([0.1]), np.array([1.0])))
        path = tmp_path / "m.json"
        save_model(mc, path)
        loaded = load_model(path)
        assert loaded.models[0].support_vectors[0, 0] == 1.0 / 3.0
        assert loaded.models[0].bias == -1.0 / 7.0

    def test_huge_support_vector_rejected(self, tmp_path):
        """A support vector whose gamma |s|^2 is past an eighth of the
        largest double would make every near row too large to score; the
        model file is rejected, naming the class and the row."""
        models = [BinarySvmModel(support_vectors=np.array([[0.0, 0.0], [1e200, 0.0]]),
                                 dual_coef=np.array([1.0, -1.0]), bias=0.0, gamma=0.5)
                  for _ in range(2)]
        models[0].support_vectors = np.array([[0.0, 1.0], [0.0, 0.0]])
        mc = MultiClassModel(class_labels=["a", "b"], models=models,
                             stats=StandardizationStats(np.zeros(2), np.ones(2)))
        path = tmp_path / "m.json"
        save_model(mc, path)
        with pytest.raises(VsrError, match=r"models\[1\] \('b'\) support vector 1 has "
                                           r"gamma \|s\|\^2 past an eighth"):
            load_model(path)
        scale = math.sqrt(svm._MAX_GAMMA_SQ / 0.5)
        mc.models[1].support_vectors = np.array([[0.0, 0.0], [scale, 0.0]])
        save_model(mc, path)
        assert load_model(path).models[1].support_vectors[1, 0] == scale

    def test_malformed_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(VsrError):
            load_model(path)
        path.write_text('{"version": 1}')
        with pytest.raises(VsrError):
            load_model(path)
