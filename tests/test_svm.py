import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vsr3d import VsrError
from vsr3d.config import PipelineConfig
from vsr3d.features import StandardizationStats
from vsr3d import svm
from vsr3d.svm import (BinarySvmModel, MultiClassModel, decision_values, fit_platt, load_model,
                       predict_probability_matrix, rbf_kernel_matrix, save_model,
                       train_binary_smo, train_multiclass, _SmoState)

from oracles import (OneProblemSmo, decision_value, dual_objective, platt_probability,
                     predict_probabilities, rbf_kernel, rbf_kernel_expression)


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
        k = rbf_kernel_matrix(a, b, 0.3)
        for i in range(4):
            for j in range(5):
                assert k[i, j] == pytest.approx(rbf_kernel(a[i], b[j], 0.3), abs=1e-12)

    @pytest.mark.parametrize("rows, cols, dim", [(1, 1, 1), (300, 300, 10), (120, 700, 21)])
    def test_in_place_matches_expression_bytes(self, rows, cols, dim):
        """The in-place build keeps the one-expression kernel's operations
        and their order, so every entry has the same bits."""
        rng = np.random.default_rng(rows + cols)
        a = rng.standard_normal((rows, dim))
        b = a if rows == cols else rng.standard_normal((cols, dim))
        for gamma in (2.0**-5, 0.3, 2.0**-3):
            k = rbf_kernel_matrix(a, b, gamma)
            assert k.tobytes() == rbf_kernel_expression(a, b, gamma).tobytes()

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(1, 600), k=st.integers(1, 16),
           gamma=st.sampled_from(PipelineConfig().gamma_grid), seed=st.integers(0, 2**32 - 1))
    def test_gram_matrix_is_exactly_symmetric(self, n, k, gamma, seed):
        """The SMO update reads the kernel's rows as its columns."""
        x = np.random.default_rng(seed).standard_normal((n, k))
        kernel = rbf_kernel_matrix(x, x, gamma)
        assert np.array_equal(kernel, kernel.T)


class TestBinarySmo:
    def test_two_point_problem_matches_dual_brute_force(self):
        x = np.array([[0.0], [2.0]])
        y = np.array([-1.0, 1.0])
        gamma, c = 0.5, 1e6
        model = train_binary_smo(x, y, c, gamma)
        alpha_star, _ = two_point_dual_brute_force(x[0], x[1], gamma, c)
        assert len(model.dual_coef) == 2
        assert np.abs(np.abs(model.dual_coef) - alpha_star).max() < 1e-3
        assert decision_value(model, x[0]) < 0 < decision_value(model, x[1])
        assert decision_value(model, x[0]) == pytest.approx(-1.0, abs=1e-6)
        assert decision_value(model, x[1]) == pytest.approx(1.0, abs=1e-6)

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
        kernel = rbf_kernel_matrix(x, x, 1.0)
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
        kernel = rbf_kernel_matrix(x, x, 0.5)
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
        small problems stop at their own budget."""
        n = data.draw(st.integers(4, 40), label="n")
        c = data.draw(st.sampled_from([1.0, 64.0, 1e4]), label="C")
        passes = data.draw(st.sampled_from([1, 2, 200]), label="svm_max_passes")
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
        x = rng.normal(size=(n, 3))
        kernel = rbf_kernel_matrix(x, x, 0.5)
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
        tol = PipelineConfig().svm_tolerance

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
        assert decision_value(model, np.array([1.0, 2.0])) == pytest.approx(1.0)

    def test_continuity(self):
        model = BinarySvmModel(support_vectors=np.array([[0.0], [1.0]]),
                               dual_coef=np.array([0.7, -0.4]), bias=0.1, gamma=2.0)
        a = decision_value(model, np.array([0.3]))
        b = decision_value(model, np.array([0.3 + 1e-9]))
        assert abs(a - b) < 1e-6

    def test_dimension_mismatch(self):
        model = BinarySvmModel(support_vectors=np.array([[0.0, 1.0]]),
                               dual_coef=np.array([1.0]), bias=0.0, gamma=1.0)
        with pytest.raises(VsrError):
            decision_value(model, np.array([1.0]))


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

    def test_stop_line_search(self):
        """Scores of size 1e8 put the gradient's 1e-7 target below what a
        change of the likelihood can resolve, so backtracking runs out."""
        a, b, stop = fit_platt(*self.noisy_scores(1e8))
        assert stop == "line_search"
        a1, b1, _ = fit_platt(*self.noisy_scores())
        assert a * 1e8 == pytest.approx(a1, rel=1e-6) and b == pytest.approx(b1, rel=1e-6)

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

    def test_malformed_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(VsrError):
            load_model(path)
        path.write_text('{"version": 1}')
        with pytest.raises(VsrError):
            load_model(path)
