import dataclasses
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from conftest import reference_windows
from vsr3d import VsrError
from vsr3d.decoder import (PROB_CEIL, PROB_FLOOR, ProbabilityGrid, decode_sequence,
                           entries_to_transcript, expand_biphones)
from vsr3d.segmentation import viterbi_generic


def brute_force_viterbi(priors, transitions, observations):
    """Exhaustive argmax over all state paths (product score)."""
    n_steps, n_states = observations.shape
    best_path, best_score = None, -1.0
    for path in itertools.product(range(n_states), repeat=n_steps):
        score = priors[path[0]] * observations[0, path[0]]
        for t in range(1, n_steps):
            score *= transitions[path[t - 1], path[t]] * observations[t, path[t]]
        if score > best_score:
            best_score = score
            best_path = path
    return best_path, best_score


def random_grid(rng, labels, frame_count, dmin, dmax):
    probs = []
    for _ in labels:
        p = rng.uniform(0.05, 0.95, size=(frame_count, dmax - dmin + 1))
        for start in range(frame_count):
            for d in range(dmin, dmax + 1):
                if start + d > frame_count:
                    p[start, d - dmin] = -1.0
        probs.append(p)
    return ProbabilityGrid(class_labels=list(labels), dmin=np.full(len(labels), dmin),
                           dmax=np.full(len(labels), dmax), frame_count=frame_count,
                           probs=probs)


def brute_force_segmentations(grid):
    """All exact tilings with their folded log-scores."""
    n = grid.frame_count
    results = []

    def recurse(t, acc, score):
        if t == n:
            results.append((list(acc), score))
            return
        for c in range(len(grid.class_labels)):
            for d in range(int(grid.dmin[c]), int(grid.dmax[c]) + 1):
                if t + d > n:
                    continue
                p = oracles.prob(grid, c, t, d)
                if p < 0:
                    continue
                acc.append((grid.class_labels[c], t, d))
                recurse(t + d, acc, score + d * math.log(p))
                acc.pop()

    recurse(0, [], 0.0)
    return results


def best_segmentation(grid):
    options = brute_force_segmentations(grid)
    if not options:
        return None, -np.inf
    return max(options, key=lambda it: it[1])


def decode_with_expanded_chains(grid):
    """Option-(c) reference: per-class-duration dummy chains carrying the
    unfolded observation repeated along the chain."""
    n = grid.frame_count
    states = []  # (class_idx, duration, countdown); countdown == duration marks the start state
    for c in range(len(grid.class_labels)):
        for d in range(int(grid.dmin[c]), int(grid.dmax[c]) + 1):
            for k in range(d, 0, -1):
                states.append((c, d, k))
    index = {s: i for i, s in enumerate(states)}
    n_states = len(states)
    trans = np.zeros((n_states, n_states))
    starts = [index[s] for s in states if s[2] == s[1]]
    for s in states:
        c, d, k = s
        if k > 1:
            trans[index[s], index[(c, d, k - 1)]] = 1.0
        else:
            for j in starts:
                trans[index[s], j] = 1.0
    priors = np.zeros(n_states)
    for j in starts:
        priors[j] = 1.0
    obs = np.zeros((n, n_states))
    for i, (c, d, k) in enumerate(states):
        for t in range(n):
            t0 = t - (d - k)
            if t0 < 0 or t0 + d > n:
                continue
            p = oracles.prob(grid, c, t0, d)
            if p >= 0:
                obs[t, i] = p
    path, log_score = viterbi_generic(priors, trans, obs)
    entries = []
    for t, s in enumerate(path):
        c, d, k = states[s]
        if k == d:
            entries.append((grid.class_labels[c], t, d))
    return entries, log_score


class TestViterbiGeneric:
    def test_single_state(self):
        path, score = viterbi_generic(np.ones(1), np.ones((1, 1)), np.full((5, 1), 0.5))
        assert list(path) == [0] * 5
        assert abs(score - 5 * math.log(0.5)) < 1e-12

    def test_deterministic_chain_ignores_observations(self):
        trans = np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [1.0, 0.0, 0.0]])
        priors = np.array([1.0, 0.0, 0.0])
        obs = np.random.default_rng(0).uniform(0.1, 1.0, size=(6, 3))
        path, _ = viterbi_generic(priors, trans, obs)
        assert list(path) == [0, 1, 2, 0, 1, 2]

    def test_matches_brute_force_on_random_instances(self):
        rng = np.random.default_rng(1)
        for _ in range(30):
            n_states = rng.integers(2, 5)
            n_steps = rng.integers(1, 7)
            priors = rng.uniform(0.1, 1.0, n_states)
            trans = rng.uniform(0.0, 1.0, (n_states, n_states))
            obs = rng.uniform(0.05, 1.0, (n_steps, n_states))
            path, log_score = viterbi_generic(priors, trans, obs)
            bf_path, bf_score = brute_force_viterbi(priors, trans, obs)
            assert abs(log_score - math.log(bf_score)) < 1e-9
            assert list(path) == list(bf_path)

    def test_score_recomputes_from_path(self):
        rng = np.random.default_rng(2)
        priors = rng.uniform(0.1, 1, 4)
        trans = rng.uniform(0.1, 1, (4, 4))
        obs = rng.uniform(0.1, 1, (8, 4))
        path, log_score = viterbi_generic(priors, trans, obs)
        re = math.log(priors[path[0]] * obs[0, path[0]])
        for t in range(1, 8):
            re += math.log(trans[path[t - 1], path[t]] * obs[t, path[t]])
        assert abs(re - log_score) < 1e-9

    def test_infeasible_raises(self):
        with pytest.raises(VsrError):
            viterbi_generic(np.zeros(2), np.ones((2, 2)), np.ones((3, 2)))

    def test_negative_weight_rejected(self):
        with pytest.raises(VsrError):
            viterbi_generic(np.ones(2), np.ones((2, 2)), -np.ones((3, 2)))


class TestDecodeSequence:
    def test_forced_tiling(self):
        grid = random_grid(np.random.default_rng(3), ["c"], 10, 5, 5)
        entries = decode_sequence(grid)
        assert entries == [("c", 0, 5), ("c", 5, 5)]

    def test_no_feasible_tiling_raises(self):
        grid = random_grid(np.random.default_rng(4), ["c"], 3, 4, 5)
        with pytest.raises(VsrError):
            decode_sequence(grid)

    def test_empty_inventory_rejected(self):
        grid = ProbabilityGrid(class_labels=[], dmin=np.zeros(0, dtype=int),
                               dmax=np.zeros(0, dtype=int), frame_count=4, probs=[])
        with pytest.raises(VsrError):
            decode_sequence(grid)

    @pytest.mark.parametrize("lo,hi", [(0, 2), (3, 2)])
    def test_invalid_bounds_rejected(self, lo, hi):
        grid = random_grid(np.random.default_rng(12), ["a", "b"], 6, 1, 2)
        grid.dmin = np.array([1, lo])
        grid.dmax = np.array([2, hi])
        with pytest.raises(VsrError):
            decode_sequence(grid)

    def test_matches_brute_force_on_random_grids(self):
        rng = np.random.default_rng(5)
        for _ in range(40):
            n_classes = int(rng.integers(1, 4))
            frames = int(rng.integers(2, 9))
            grid = random_grid(rng, [f"k{i}" for i in range(n_classes)], frames, 1, 3)
            entries = decode_sequence(grid)
            oracle_entries, oracle_score = best_segmentation(grid)
            got = sum(d * math.log(oracles.prob(grid, grid.class_labels.index(lab), t, d))
                      for lab, t, d in entries)
            assert abs(got - oracle_score) < 1e-9
            assert entries == oracle_entries

    def test_entries_tile_exactly_within_duration_bounds(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            frames = int(rng.integers(3, 12))
            grid = random_grid(rng, ["a", "b"], frames, 1, 4)
            entries = decode_sequence(grid)
            pos = 0
            for lab, start, dur in entries:
                assert start == pos
                pos += dur
                c = grid.class_labels.index(lab)
                assert grid.dmin[c] <= dur <= grid.dmax[c]
            assert pos == frames

    def test_matches_expanded_chain_construction(self):
        rng = np.random.default_rng(7)
        for _ in range(25):
            n_classes = int(rng.integers(1, 4))
            frames = int(rng.integers(2, 9))
            grid = random_grid(rng, [f"k{i}" for i in range(n_classes)], frames, 1, 3)
            folded = decode_sequence(grid)
            expanded, _ = decode_with_expanded_chains(grid)
            def score(entries):
                return sum(d * math.log(oracles.prob(grid, grid.class_labels.index(lab), t, d))
                           for lab, t, d in entries)
            assert abs(score(folded) - score(expanded)) < 1e-9
            assert folded == expanded

    def test_monotone_transform_keeps_argmax(self):
        rng = np.random.default_rng(8)
        for power, scale in [(2.0, 1.0), (0.5, 1.0), (1.0, 0.3)]:
            grid = random_grid(rng, ["a", "b"], 7, 1, 3)
            base = decode_sequence(grid)
            probs2 = [np.where(p >= 0, np.clip(np.abs(p) ** power * scale, 1e-12, 1 - 1e-12), p)
                      for p in grid.probs]
            grid2 = ProbabilityGrid(class_labels=grid.class_labels, dmin=grid.dmin,
                                    dmax=grid.dmax, frame_count=grid.frame_count,
                                    probs=probs2)
            assert decode_sequence(grid2) == base

    def test_single_duration_reduces_to_blockwise_argmax(self):
        rng = np.random.default_rng(9)
        grid = random_grid(rng, ["a", "b", "c"], 9, 3, 3)
        entries = decode_sequence(grid)
        for i, (lab, start, dur) in enumerate(entries):
            assert (start, dur) == (3 * i, 3)
            cell = [oracles.prob(grid, c, start, 3) for c in range(3)]
            assert lab == grid.class_labels[int(np.argmax(cell))]


@st.composite
def ragged_grids(draw):
    """Grids whose classes have their own duration bounds (the first class
    always holds d = 1 and 2), with random -1 cells and cells at the
    probability clamps."""
    frames = draw(st.integers(1, 16))
    bounds = [(1, draw(st.integers(2, 6)))]
    for _ in range(draw(st.integers(0, 4))):
        lo = draw(st.integers(1, 8))
        bounds.append((lo, lo + draw(st.integers(0, 5))))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    probs = []
    for lo, hi in bounds:
        p = rng.uniform(0.0, 1.0, size=(frames, hi - lo + 1))
        p[rng.random(p.shape) < 0.1] = PROB_FLOOR
        p[rng.random(p.shape) < 0.1] = PROB_CEIL
        p[rng.random(p.shape) < 0.15] = -1.0
        for d in range(lo, hi + 1):
            p[max(frames - d + 1, 0):, d - lo] = -1.0
        probs.append(np.clip(p, PROB_FLOOR, PROB_CEIL, where=p >= 0, out=p))
    return ProbabilityGrid(class_labels=[f"k{i}" for i in range(len(bounds))],
                           dmin=np.array([lo for lo, _ in bounds]),
                           dmax=np.array([hi for _, hi in bounds]),
                           frame_count=frames, probs=probs)


class TestPerPairOracle:
    """Reducing each window to its most probable class before the DP decodes
    as the oracle that keeps every in-bounds (duration, class) pair and
    applies the same tie rule, on grids with ragged bounds, -1 cells and
    cells at the probability clamps."""

    @settings(max_examples=150, deadline=None)
    @given(ragged_grids())
    def test_equals_per_pair_oracle(self, grid):
        expected = oracles.decode_sequence(grid)
        if expected is None:
            with pytest.raises(VsrError, match="no feasible tiling"):
                decode_sequence(grid)
        else:
            assert decode_sequence(grid) == expected


TIE_LEVELS = np.array([1e-12, 0.25, 0.5, 1.0])


def tie_grid(seed, bounds, frame_count):
    """Grid whose cells come from a few powers of two (and the floor), so many
    tilings score exactly the same; bounds holds (dmin, dmax) per class."""
    rng = np.random.default_rng(seed)
    probs = []
    for lo, hi in bounds:
        p = TIE_LEVELS[rng.integers(0, len(TIE_LEVELS), size=(frame_count, hi - lo + 1))]
        for d in range(lo, hi + 1):
            p[max(frame_count - d + 1, 0):, d - lo] = -1.0
        probs.append(p)
    return ProbabilityGrid(class_labels=[f"k{i}" for i in range(len(bounds))],
                           dmin=np.array([lo for lo, _ in bounds]),
                           dmax=np.array([hi for _, hi in bounds]),
                           frame_count=frame_count, probs=probs)


class TestDecodeTies:
    """Equal-scoring tilings resolve to the smallest duration, then the class
    of largest probability, the smallest class index among equal ones, at
    every segment boundary.  On the recorded grids every weight is exact, and
    the expected entries are what a state-level Viterbi over the paper's
    duration machine returns when it breaks ties toward the lowest state
    index; class-first or longest-first rules decode each grid differently."""

    @pytest.mark.parametrize("seed,bounds,frame_count,expected", [
        (0, [(2, 5), (2, 5)], 10,
         [("k0", 0, 2), ("k0", 2, 3), ("k1", 5, 2), ("k0", 7, 3)]),
        (1, [(2, 5), (1, 3), (1, 4)], 13,
         [("k1", 0, 3), ("k2", 3, 1), ("k2", 4, 1), ("k1", 5, 1), ("k0", 6, 2),
          ("k0", 8, 2), ("k1", 10, 2), ("k2", 12, 1)]),
        (9, [(1, 3), (1, 2), (1, 3)], 9,
         [("k1", 0, 1), ("k1", 1, 1), ("k0", 2, 2), ("k0", 4, 1), ("k0", 5, 1),
          ("k1", 6, 2), ("k1", 8, 1)]),
        (41, [(3, 4), (2, 2), (3, 4)], 10,
         [("k0", 0, 4), ("k2", 4, 3), ("k0", 7, 3)]),
    ])
    def test_recorded_tie_breaks(self, seed, bounds, frame_count, expected):
        assert decode_sequence(tie_grid(seed, bounds, frame_count)) == expected

    def test_larger_weight_wins_below_the_score_rounding(self):
        # at frame 1 both sums round to the same score; k1's weight is larger
        k0 = np.array([[PROB_FLOOR], [0.5]])
        k1 = np.array([[PROB_FLOOR], [np.nextafter(0.5, 1.0)]])
        grid = ProbabilityGrid(class_labels=["k0", "k1"], dmin=np.array([1, 1]),
                               dmax=np.array([1, 1]), frame_count=2, probs=[k0, k1])
        assert decode_sequence(grid) == [("k0", 0, 1), ("k1", 1, 1)]

    def test_long_segment_at_the_floor_is_found(self):
        # 27 * log(1e-12) beats the 1e-13-bearing tiling by log(10), although
        # (1e-12)**27 underflows to 0
        n = 27
        short = np.full((n, 1), 1e-12)
        short[0, 0] = 1e-13
        long = np.full((n, 1), -1.0)
        long[0, 0] = 1e-12
        grid = ProbabilityGrid(class_labels=["a", "b"], dmin=np.array([1, 27]),
                               dmax=np.array([1, 27]), frame_count=n, probs=[short, long])
        assert decode_sequence(grid) == [("b", 0, n)]


@st.composite
def planted_tie_grids(draw):
    """Grids with ties in real arithmetic: one class holds a single bias-only
    probability q in every cell (as a window far from every support vector
    of the class gets), so a segment of it and the same segment split in two
    score the same.  Up to two more classes hold random probabilities below
    2q (capped at 1), so they win some windows.  q reaches 0.999, where 4 ulps
    of q move log q by about 4 eps, far more than 4 ulps of log q."""
    frames = draw(st.integers(2, 24))
    q = draw(st.floats(1e-9, 0.999))
    bounds = [(lo, lo + draw(st.integers(0, 4)))
              for lo in draw(st.lists(st.integers(1, 4), max_size=2))]
    planted = draw(st.integers(0, len(bounds)))
    bounds.insert(planted, (1, draw(st.integers(2, 6))))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    probs = []
    for c, (lo, hi) in enumerate(bounds):
        shape = (frames, hi - lo + 1)
        p = np.full(shape, q) if c == planted else rng.uniform(0.0, min(2.0 * q, 1.0), size=shape)
        for d in range(lo, hi + 1):
            p[max(frames - d + 1, 0):, d - lo] = -1.0
        probs.append(p)
    return ProbabilityGrid(class_labels=[f"k{i}" for i in range(len(bounds))],
                           dmin=np.array([lo for lo, _ in bounds]),
                           dmax=np.array([hi for _, hi in bounds]),
                           frame_count=frames, probs=probs)


class TestNearTies:
    """Moving every cell by at most 4 ulps keeps the entries of a grid whose
    tilings tie in real arithmetic: which tiling wins does not depend on
    the rounding of its sums."""

    @settings(max_examples=200, deadline=None)
    @given(planted_tie_grids(), st.integers(0, 2**32 - 1))
    def test_few_ulp_perturbation_keeps_entries(self, grid, seed):
        expected = decode_sequence(grid)
        rng = np.random.default_rng(seed)
        for p in grid.probs:
            valid = p >= 0
            p.view(np.int64)[valid] += rng.integers(-4, 5, size=int(valid.sum()))
        assert decode_sequence(grid) == expected


@pytest.fixture(scope="module")
def fixture_model_and_roi(corpus_config):
    """Small trained model plus an ROI whose middle unit (class C1)
    occupies exactly frames 10..19."""
    from vsr3d.features import Transcript, TranscriptEntry, extract_labeled_samples
    from vsr3d.fixtures import SynthConfig, derive_seed, synth_sentence
    from vsr3d.pipeline import segment_video, train_from_features

    scfg = SynthConfig(seed=33, noise_sigma=4.0 / 255.0)
    xs, labels = [], []
    for i in range(6):
        units = [((i + j) % 3, 5 + (i + j) % 6) for j in range(4)]
        video, truth = synth_sentence(scfg, units, 79.5, 0.0, derive_seed(33, 3, i))
        roi = segment_video(video, corpus_config).roi
        tr = Transcript([TranscriptEntry(*r) for r in truth.transcript_rows])
        x, labs, _ = extract_labeled_samples(roi, tr, "phoneme", corpus_config)
        xs.append(x)
        labels.extend(labs)
    model, _ = train_from_features(np.vstack(xs), labels, corpus_config)
    probe_video, _ = synth_sentence(scfg, [(0, 10), (1, 10), (2, 10)], 79.5, 0.0,
                                    derive_seed(33, 3, 99))
    probe_roi = segment_video(probe_video, corpus_config).roi
    return model, probe_roi


def relabeled(model, prefix, **config):
    """The same trained model under other class labels and config echo."""
    return dataclasses.replace(model, class_labels=[prefix + lab for lab in model.class_labels],
                               config={**model.config, **config})


def single_inventory_grid(model, roi, lo, hi, fps):
    """One inventory's grid the direct way: featurize its own windows, listed
    by the reference double loop, and predict them all."""
    from vsr3d.decoder import PROB_CEIL, PROB_FLOOR
    from vsr3d.features import featurize_many
    from vsr3d.svm import predict_probability_matrix

    cfgd = model.config
    spans = reference_windows(roi.frame_count, range(lo, hi + 1))
    probs = np.full((len(model.class_labels), roi.frame_count, hi - lo + 1), -1.0)
    if len(spans):
        x = featurize_many(roi, cfgd["channel"], cfgd["deltaTms"], fps, spans,
                           cfgd["l"], cfgd["s"])
        p = np.clip(predict_probability_matrix(model, x), PROB_FLOOR, PROB_CEIL)
        probs[:, spans[:, 0], spans[:, 1] - lo] = p.T
    return list(model.class_labels), [lo] * len(probs), [hi] * len(probs), list(probs)


class TestGridBuilding:
    def test_known_unit_cell_is_top_percentile(self, fixture_model_and_roi, corpus_config):
        from vsr3d.decoder import build_probability_grid

        model, roi = fixture_model_and_roi
        grid = build_probability_grid(
            roi, [(model, corpus_config.min_duration, corpus_config.max_duration)],
            corpus_config.fps)
        c = grid.class_labels.index("C1")
        cells = grid.probs[c][grid.probs[c] >= 0]
        target = oracles.prob(grid, c, 10, 10)
        assert target >= np.percentile(cells, 95)

    def test_all_cells_in_unit_interval_and_deterministic(self, fixture_model_and_roi,
                                                          corpus_config):
        from vsr3d.decoder import build_probability_grid

        model, roi = fixture_model_and_roi
        a = build_probability_grid(roi, [(model, 3, 8)], corpus_config.fps)
        b = build_probability_grid(roi, [(model, 3, 8)], corpus_config.fps)
        for pa, pb in zip(a.probs, b.probs):
            valid = pa >= 0
            assert ((pa[valid] > 0) & (pa[valid] < 1)).all()
            assert np.array_equal(pa, pb)

    @pytest.mark.parametrize("first, second, config", [
        ((3, 8), (6, 12), {}),                    # overlapping ranges
        ((3, 5), (9, 12), {}),                    # disjoint ranges
        ((3, 12), (6, 24), {"channel": "green"}),  # different feature echoes
        ((3, 12), (40, 50), {}),                  # no window fits the second range
    ])
    def test_two_inventories_concatenate_single_grids(self, fixture_model_and_roi,
                                                      corpus_config, first, second, config):
        from vsr3d.decoder import build_probability_grid

        model, roi = fixture_model_and_roi
        other = relabeled(model, "B", **config)
        fps = corpus_config.fps
        grid = build_probability_grid(roi, [(model, *first), (other, *second)], fps)
        labels, dmin, dmax, probs = (a + b for a, b in zip(
            single_inventory_grid(model, roi, *first, fps),
            single_inventory_grid(other, roi, *second, fps)))
        assert grid.class_labels == labels
        assert grid.frame_count == roi.frame_count
        assert np.array_equal(grid.dmin, dmin) and np.array_equal(grid.dmax, dmax)
        assert len(grid.probs) == len(probs)
        for got, want in zip(grid.probs, probs):
            assert got.shape == want.shape and got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("first, second, config", [
        ((3, 8), (6, 12), {}),                    # overlapping ranges
        ((3, 12), (3, 12), {}),                   # every window tied across inventories
        ((3, 5), (9, 12), {}),                    # disjoint ranges
        ((3, 12), (6, 24), {"channel": "green"}),  # different feature settings
        ((3, 12), (40, 50), {}),                  # no window fits the second range
    ])
    def test_window_table_is_the_grids_running_maximum(self, fixture_model_and_roi,
                                                       corpus_config, first, second, config):
        """The table `decode_roi` decodes holds, bit for bit, the grid's
        running maximum over the class planes, and the lowest class that
        reaches it (the earlier inventory on a tie between them); both
        decode alike."""
        from vsr3d.decoder import best_window_table, build_probability_grid, decode_windows

        model, roi = fixture_model_and_roi
        inventories = [(model, *first), (relabeled(model, "B", **config), *second)]
        fps = corpus_config.fps
        grid = build_probability_grid(roi, inventories, fps)
        table = best_window_table(roi, inventories, fps)
        top, best = oracles.running_maximum(grid)
        assert table.class_labels == grid.class_labels
        assert table.frame_count == grid.frame_count
        assert table.prob.tobytes() == top.tobytes()
        assert np.array_equal(table.best, best)
        assert decode_windows(table) == decode_sequence(grid) == oracles.decode_sequence(grid)

    def test_rejects_duplicate_labels_and_no_inventory(self, fixture_model_and_roi):
        from vsr3d.decoder import best_window_table, build_probability_grid

        model, roi = fixture_model_and_roi
        with pytest.raises(VsrError, match="duplicate class labels"):
            build_probability_grid(roi, [(model, 3, 8), (relabeled(model, ""), 6, 12)], 25.0)
        with pytest.raises(VsrError, match="at least one class inventory"):
            build_probability_grid(roi, [], 25.0)
        with pytest.raises(VsrError, match="duplicate class labels"):
            best_window_table(roi, [(model, 3, 8), (relabeled(model, ""), 6, 12)], 25.0)
        with pytest.raises(VsrError, match="at least one class inventory"):
            best_window_table(roi, [], 25.0)

    def test_far_windows_decode_as_the_oracle(self, fixture_model_and_roi, corpus_config):
        """With its temporal coefficient's spread cut tenfold, the model puts
        most windows far from every support vector, so prediction skips
        their kernel rows: the far windows keep the dense oracle's bits, the
        near ones the bits they get predicted alone (no far window enters a
        product), every window is within 1e-12 of the oracle, and the
        two-inventory grid decodes as the oracle decoder does."""
        from vsr3d import svm
        from vsr3d.decoder import build_probability_grid
        from vsr3d.features import (StandardizationStats, enumerate_subsequences,
                                    featurize_many, standardize)
        from vsr3d.svm import predict_probability_matrix

        model, roi = fixture_model_and_roi
        std = model.stats.std.copy()
        std[1] /= 10.0
        narrow = dataclasses.replace(model, stats=StandardizationStats(model.stats.mean, std))
        cfgd, fps = narrow.config, corpus_config.fps
        spans = enumerate_subsequences(roi.frame_count, np.arange(3, 13))
        x = featurize_many(roi, cfgd["channel"], cfgd["deltaTms"], fps, spans, cfgd["l"],
                           cfgd["s"])
        far = svm._far_rows(narrow.kernel_table, standardize(x, narrow.stats))
        assert far.mean() > 0.75
        got = predict_probability_matrix(narrow, x)
        dense = oracles.blocked_probability_matrix(narrow, x)
        assert got[far].tobytes() == dense[far].tobytes()
        assert got[~far].tobytes() == predict_probability_matrix(narrow, x[~far]).tobytes()
        assert np.abs(got - dense).max() <= 1e-12
        grid = build_probability_grid(roi, [(narrow, 3, 12), (relabeled(narrow, "B+"), 6, 24)],
                                      fps)
        assert decode_sequence(grid) == oracles.decode_sequence(grid)

    def test_biphone_decode_featurizes_once(self, fixture_model_and_roi, corpus_config,
                                            monkeypatch):
        import vsr3d.decoder
        from vsr3d.pipeline import decode_roi

        model, roi = fixture_model_and_roi
        calls = []
        featurize = vsr3d.decoder.featurize_many

        def counting(*args, **kwargs):
            calls.append(args)
            return featurize(*args, **kwargs)

        monkeypatch.setattr(vsr3d.decoder, "featurize_many", counting)
        _, grid = decode_roi(roi, model, corpus_config, biphone_model=relabeled(model, "B+"))
        assert len(calls) == 1
        assert len(grid.class_labels) == 2 * len(model.class_labels)


class TestMergeAndExpand:
    def test_expand_splits_ceil(self):
        assert expand_biphones([("AE+T", 0, 5)]) == [("AE", 0, 3), ("T", 3, 2)]

    def test_expand_passthrough(self):
        entries = [("AE", 0, 3), ("T", 3, 2)]
        assert expand_biphones(entries) == entries

    @given(st.lists(st.tuples(st.sampled_from(["A", "B", "A+B", "B+A"]),
                              st.integers(2, 9)), min_size=1, max_size=6))
    def test_total_duration_preserved(self, items):
        entries = []
        pos = 0
        for lab, dur in items:
            entries.append((lab, pos, dur))
            pos += dur
        out = expand_biphones(entries)
        assert sum(e[2] for e in out) == sum(e[2] for e in entries)
        assert out[0][1] == 0
        for prev, nxt in zip(out, out[1:]):
            assert nxt[1] == prev[1] + prev[2]

    def test_malformed_composite_rejected(self):
        with pytest.raises(VsrError):
            expand_biphones([("A+B+C", 0, 4)])
        with pytest.raises(VsrError):
            expand_biphones([("A+", 0, 4)])

    def test_transcript_conversion(self):
        rows = entries_to_transcript([("a", 0, 5), ("b", 5, 3)], 25.0)
        assert rows == [("a", 0, 200), ("b", 200, 320)]
