import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from vsr3d import VsrError
from vsr3d.config import CHANNEL_NAMES, PipelineConfig
from vsr3d.fixtures import synth_sentence
from vsr3d.pipeline import segment_video
import vsr3d.segmentation
from vsr3d.segmentation import (_RGB_READ, CROP_WIDTH, PLAN_CACHE_SIZE, MouthKeypoints,
                                SymmetryLine, VideoSequence, _box_taps, _best_line,
                                _smoothed_at, area_average_resize, box_filter,
                                build_image_pyramid, build_min_luminance_line, color_plane,
                                crop_grid,
                                cropped_to_original, detect_inner_lower_lip,
                                detect_mouth_corners, extract_roi, find_symmetry_lines,
                                gaussian_transition_matrix, luminance, prepare_frames,
                                symmetry_costs, viterbi_generic)


def brute_force_track(priors, trans, obs):
    n_steps, n_states = obs.shape
    best, best_score = None, -1.0
    for path in itertools.product(range(n_states), repeat=n_steps):
        score = priors[path[0]] * obs[0, path[0]]
        for t in range(1, n_steps):
            score *= trans[path[t - 1], path[t]] * obs[t, path[t]]
        if score > best_score:
            best, best_score = path, score
    return list(best)


def plane(planes, name):
    return planes[CHANNEL_NAMES.index(name)]


def frame_planes(rgb):
    """The CHANNEL_NAMES planes of one (H, W, 3) frame scaled to [0, 1]."""
    planar = np.moveaxis(rgb, -1, 0)
    lum = oracles.crop_lum(planar[:, None])[0]
    return np.stack([color_plane(name, planar, lum) for name in CHANNEL_NAMES])


def sampled_rgb(rgb_over, box, frames):
    """The (3, T, bh, bw) RGB of a crop over `box`, every frame sampled by
    `rgb_over(box)` for all three channels."""
    sample = rgb_over(box)
    per_frame = [sample(t, (0, 1, 2)) for t in range(frames)]
    return np.stack([np.stack([rgb[c] for rgb in per_frame]) for c in range(3)])


def assert_same_bits(a, b):
    """Equal bit for bit, so -0.0 differs from 0.0 as it does in a file."""
    assert a.dtype == b.dtype and a.shape == b.shape
    bits = f"u{a.itemsize}"
    assert np.array_equal(a.view(bits), b.view(bits))


def symmetry_cost(image, column, angle_deg, band=5):
    """One candidate's cost through the batched search."""
    return symmetry_costs(image, [column], [angle_deg], band)[0, 0]


def reference_symmetry_cost(image, column, angle_deg, band=5):
    """One candidate scored on its own: its valid rows are compacted and
    sampled, and the squared differences summed in row-major order."""
    h, w = image.shape
    theta = math.radians(angle_deg)
    sin_t, cos_t = math.sin(theta), math.cos(theta)
    rows = np.arange(h, dtype=float)
    line_cols = column + (rows - (h - 1) / 2.0) * math.tan(theta)
    offs = (np.arange(1, band + 1) - 0.5)[:, None]
    lr, lc = rows + offs * sin_t, line_cols - offs * cos_t
    rr, rc = rows - offs * sin_t, line_cols + offs * cos_t
    inside = ((lr >= 0) & (lr <= h - 1) & (lc >= 0) & (lc <= w - 1)
              & (rr >= 0) & (rr <= h - 1) & (rc >= 0) & (rc <= w - 1))
    valid = inside.all(axis=0)
    n_valid = int(valid.sum())
    if n_valid < 0.25 * h:
        return math.inf
    left = oracles.stacked_bilinear_sample(image, lr[:, valid], lc[:, valid])
    right = oracles.stacked_bilinear_sample(image, rr[:, valid], rc[:, valid])
    return float(np.sum((left - right) ** 2)) * (h / n_valid)


def one_line(lum, lip_row):
    """The min-luminance line of one (H, W) frame."""
    return build_min_luminance_line(lum[None], np.array([lip_row]))[0]


def reference_min_luminance_line(smooth, lip_row):
    """One frame's line grown point by point: seed on the center column in
    [lip_row-8, lip_row+4], then the darkest of stay/up/down per column."""
    h, w = smooth.shape
    center = w // 2
    lo = int(np.clip(round(lip_row - 8), 0, h - 1))
    hi = int(np.clip(round(lip_row + 4), 0, h - 1))
    seed = lo + int(np.argmin(smooth[lo:hi + 1, center]))
    rows = {0: seed}
    for direction in (-1, 1):
        row = seed
        for k in range(1, 41):
            col = center + direction * k
            best = None
            for cand in (row, row - 1, row + 1):
                cand = min(max(cand, 0), h - 1)
                if best is None or smooth[cand, col] < smooth[best, col]:
                    best = cand
            row = rows[direction * k] = best
    return np.array([(rows[k], center + k) for k in range(-40, 41)])


class TestPyramid:
    def test_width_sequence_from_100(self):
        img = np.random.default_rng(0).random((80, 100))
        assert [l.shape[1] for l in build_image_pyramid(img)] == [100, 75, 56, 42, 32, 24]

    def test_width_20_single_level(self):
        img = np.random.default_rng(1).random((30, 20))
        levels = build_image_pyramid(img)
        assert len(levels) == 1 and levels[0].shape[1] == 20

    def test_constant_image_stays_constant(self):
        img = np.full((60, 90), 0.37)
        for level in build_image_pyramid(img):
            assert np.allclose(level, 0.37, atol=1e-12)

    def test_too_narrow_rejected(self):
        with pytest.raises(VsrError):
            build_image_pyramid(np.zeros((30, 19)))

    @given(st.integers(20, 400))
    @settings(max_examples=40, deadline=None)
    def test_widths_strictly_decrease_and_last_in_range(self, w):
        img = np.zeros((24, w))
        widths = [l.shape[1] for l in build_image_pyramid(img)]
        assert all(a > b for a, b in zip(widths, widths[1:]))
        assert 20 <= widths[-1] <= 26

    def test_area_average_preserves_mean(self):
        img = np.random.default_rng(2).random((45, 67))
        out = area_average_resize(img, 21, 33)
        assert abs(out.mean() - img.mean()) < 1e-3  # boundary cells weigh slightly unevenly
        exact = area_average_resize(img, 45, 67)
        assert np.allclose(exact, img)


class TestSymmetryCost:
    def test_perfect_mirror_is_zero(self):
        rng = np.random.default_rng(3)
        img = rng.random((30, 41))
        img = (img + img[:, ::-1]) / 2
        assert symmetry_cost(img, 20, 0.0) == pytest.approx(0.0, abs=1e-12)

    def test_true_axis_beats_shifted(self):
        rng = np.random.default_rng(4)
        img = rng.random((30, 41))
        img = (img + img[:, ::-1]) / 2
        assert symmetry_cost(img, 20, 0.0) <= symmetry_cost(img, 23, 0.0)

    def test_2x2_arithmetic(self):
        img = np.array([[1.0, 2.0], [3.0, 4.0]])
        assert symmetry_cost(img, 0.5, 0.0, band=1) == pytest.approx(2.0)

    @given(st.integers(0, 10**6), st.integers(6, 30), st.floats(-30, 30))
    @settings(max_examples=40, deadline=None)
    def test_mirror_invariance(self, seed, col, angle):
        rng = np.random.default_rng(seed)
        img = rng.random((24, 37))
        c1 = symmetry_cost(img, col, angle)
        c2 = symmetry_cost(img[:, ::-1], 36 - col, -angle)
        if math.isinf(c1):
            assert math.isinf(c2)
        else:
            assert c1 == pytest.approx(c2, abs=1e-6)

    def test_degenerate_band_is_infinite(self):
        img = np.random.default_rng(5).random((20, 30))
        assert math.isinf(symmetry_cost(img, 0.0, 0.0))

    @given(st.integers(0, 10**6), st.integers(4, 24), st.integers(4, 32), st.integers(1, 6),
           st.lists(st.floats(-3.0, 35.0), min_size=1, max_size=5),
           st.lists(st.floats(-45.0, 45.0), min_size=1, max_size=4))
    @settings(max_examples=80, deadline=None)
    def test_batch_matches_one_candidate_reference(self, seed, h, w, band, columns, angles):
        img = np.random.default_rng(seed).random((h, w))
        costs = symmetry_costs(img, columns, angles, band)
        ref = np.array([[reference_symmetry_cost(img, c, a, band) for a in angles]
                        for c in columns])
        assert costs.shape == ref.shape
        assert np.array_equal(np.isinf(costs), np.isinf(ref))
        finite = np.isfinite(ref)
        np.testing.assert_allclose(costs[finite], ref[finite], rtol=1e-12, atol=0)
        # the plan reads the terms that sampling the whole image reads
        assert_same_bits(costs, oracles.symmetry_costs(img, columns, angles, band))

    def test_batch_covers_lost_rows(self):
        # a small tilted grid has candidates with every row, some rows lost,
        # and too few rows (+inf); each matches the reference
        img = np.random.default_rng(16).random((12, 16))
        columns, angles = [2.0, 4.5, 7.5, 8.0], [-20.0, 0.0, 10.0]
        costs = symmetry_costs(img, columns, angles)
        ref = np.array([[reference_symmetry_cost(img, c, a) for a in angles] for c in columns])
        assert np.isinf(ref).any() and np.isfinite(ref).any()
        assert np.array_equal(np.isinf(costs), np.isinf(ref))
        finite = np.isfinite(ref)
        np.testing.assert_allclose(costs[finite], ref[finite], rtol=1e-12, atol=0)

    def test_ties_go_to_first_column_then_angle(self):
        # constant image: every finite candidate costs exactly 0; column 3 at
        # 0 degrees has no valid rows, so the first tie in (column, angle)
        # order is (3, 60), while (angle, column) order would give (15, 0)
        img = np.full((20, 30), 0.4)
        costs = symmetry_costs(img, [3.0, 15.0], [0.0, 60.0])
        assert math.isinf(costs[0, 0])
        assert (costs.ravel()[1:] == 0.0).all()
        assert _best_line(img, [3.0, 15.0], [0.0, 60.0]) == SymmetryLine(3.0, 60.0)
        assert _best_line(img, [10.0, 11.0, 12.0], [-1.0, 0.0, 1.0]) == SymmetryLine(10.0, -1.0)


class TestFindSymmetryLines:
    def test_static_mirrored_video_is_stationary(self):
        # width 21 -> single pyramid level, so the exhaustive search can land
        # exactly on the zero-cost axis, which is then a fixed point
        rng = np.random.default_rng(6)
        frame = rng.integers(0, 255, (24, 21, 3)).astype(np.uint8)
        frame = ((frame.astype(int) + frame[:, ::-1].astype(int)) // 2).astype(np.uint8)
        video = VideoSequence(frames=np.stack([frame] * 4), fps=25.0)
        lines = find_symmetry_lines(video)
        assert len({(l.column, l.angle_deg) for l in lines}) == 1
        assert lines[0].column == 10.0 and lines[0].angle_deg == 0.0

    def test_frame_to_frame_window(self):
        rng = np.random.default_rng(7)
        frames = rng.integers(0, 255, (3, 40, 61, 3)).astype(np.uint8)
        video = VideoSequence(frames=frames, fps=25.0)
        lines = find_symmetry_lines(video)
        for prev, cur in zip(lines, lines[1:]):
            assert abs(cur.column - prev.column) <= 2.0 + 1e-9
            assert abs(cur.angle_deg - prev.angle_deg) <= 1.0 + 1e-9

    def test_recovers_fixture_axis(self, short_sentence):
        video, truth = short_sentence
        lines = find_symmetry_lines(video)
        for t, line in enumerate(lines):
            assert abs(line.column - truth.frames[t].sym_col) <= 2.0
            assert abs(line.angle_deg - truth.frames[t].sym_angle) <= 1.0


def alternating_video():
    """Ten frames alternating between a random frame mirrored about column
    79.5 and its copy shifted one column right: the lines take two values."""
    half = np.random.default_rng(21).integers(0, 256, (120, 80, 3)).astype(np.uint8)
    frame = np.concatenate([half, half[:, :0:-1], half[:, :1]], axis=1)
    return VideoSequence(np.stack([frame, np.roll(frame, 1, axis=1)] * 5))


def noise_video(frames=40):
    """Uniform noise frames: the line moves on most frames."""
    rng = np.random.default_rng(22)
    return VideoSequence(rng.integers(0, 256, (frames, 120, 160, 3)).astype(np.uint8))


class TestPlanOracle:
    """Lines, refine costs and crops built from plans reused per distinct
    line equal the per-frame path (`oracles`): whole frames converted to
    luminance and one `symmetry_costs` call per frame, and crops sampled
    from whole frames, bit for bit."""

    def lines_and_costs(self, video, monkeypatch):
        seen = []

        def record(costs, columns, angles):
            seen.append(costs)
            return least_cost(costs, columns, angles)

        least_cost = vsr3d.segmentation._least_cost
        monkeypatch.setattr(vsr3d.segmentation, "_least_cost", record)
        lines = find_symmetry_lines(video)
        return lines, seen[len(seen) - video.frame_count + 1:]

    @pytest.mark.parametrize("name, distinct", [
        ("fixture-sentence", (1, 3)), ("alternating", (2, 2)), ("noise", (20, 40)),
    ], ids=["fixture-sentence", "alternating", "noise"])
    def test_matches_per_frame_path(self, short_sentence, monkeypatch, name, distinct):
        video = {"fixture-sentence": lambda: short_sentence[0], "alternating": alternating_video,
                 "noise": noise_video}[name]()
        lines, costs = self.lines_and_costs(video, monkeypatch)
        ref_lines, ref_costs = oracles.find_symmetry_lines(video)
        assert lines == ref_lines
        assert distinct[0] <= len(set(lines)) <= distinct[1]
        assert len(costs) == len(ref_costs) == video.frame_count - 1
        for got, ref in zip(costs, ref_costs):
            assert_same_bits(got, ref)
        rgb_over, lum, ulum = prepare_frames(video, lines)
        planes = oracles.prepare_frames(video, lines)
        assert_same_bits(sampled_rgb(rgb_over, (slice(0, video.height), slice(0, CROP_WIDTH)),
                                     video.frame_count),
                         planes[[CHANNEL_NAMES.index(c) for c in ("red", "green", "blue")]])
        assert_same_bits(lum, plane(planes, "lum"))
        assert_same_bits(ulum, np.ascontiguousarray(plane(planes, "ulum")[:, :, 50]))

    def test_plan_cache_is_bounded(self):
        # a 120 x 160 refine plan takes about 1.2 MB and a crop plan 0.8 MB;
        # ~30 distinct lines would hold ~34 MB and ~23 MB of plans
        video = noise_video()
        tracemalloc.start()
        try:
            lines = find_symmetry_lines(video)
            symmetry_peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            rgb_over, lum, ulum = prepare_frames(video, lines)
            crop_peak = tracemalloc.get_traced_memory()[1] - before - lum.nbytes - ulum.nbytes
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            sample = rgb_over((slice(0, video.height), slice(0, CROP_WIDTH)))
            for t in range(video.frame_count):
                sample(t, (0, 1, 2))
            rgb_peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert len(set(lines)) > 5 * PLAN_CACHE_SIZE
        assert symmetry_peak < 12 * 2**20
        assert crop_peak < 16 * 2**20
        assert rgb_peak < 16 * 2**20


class TestPrepareFrames:
    def test_crop_width_fixed(self, short_sentence):
        video, _ = short_sentence
        lines = find_symmetry_lines(video)
        rgb_over, lum, ulum = prepare_frames(video, lines)
        sample = rgb_over((slice(0, video.height), slice(0, 101)))
        for channels in ((0, 1, 2), (0,), (1, 2)):
            rgb = sample(video.frame_count - 1, channels)
            assert list(rgb) == list(channels)
            assert all(p.shape == (video.height, 101) for p in rgb.values())
        assert lum.shape == (video.frame_count, video.height, 101)
        assert ulum.shape == (video.frame_count, video.height)

    def test_neutral_gray_has_zero_u(self):
        rgb = np.full((10, 12, 3), 0.42)
        planes = frame_planes(rgb)
        assert np.abs(plane(planes, "u")).max() < 1e-9

    def test_pure_red_pseudo_hue(self):
        rgb = np.zeros((4, 4, 3))
        rgb[..., 0] = 1.0
        planes = frame_planes(rgb)
        assert np.allclose(plane(planes, "pseudo_hue"), 1.0)

    def test_black_pixels_pseudo_hue_half(self):
        planes = frame_planes(np.zeros((3, 3, 3)))
        assert np.allclose(plane(planes, "pseudo_hue"), 0.5)

    def test_lum_rescaled_to_unit_range(self):
        rng = np.random.default_rng(8)
        lum = plane(frame_planes(rng.random((8, 9, 3))), "lum")
        assert lum.min() == pytest.approx(0.0)
        assert lum.max() == pytest.approx(1.0)

    def test_one_pixel_u_matches_a_larger_block(self):
        rng = np.random.default_rng(13)
        rgb = rng.random((3, 1, 4, 5))
        lum = oracles.crop_lum(rgb)
        block = color_plane("u", rgb, lum)
        for i, j in itertools.product(range(4), range(5)):
            pixel = (slice(None), slice(i, i + 1), slice(j, j + 1))
            assert_same_bits(color_plane("u", rgb[(slice(None),) + pixel], lum[pixel]),
                             block[pixel])

    def test_line_count_mismatch_rejected(self, short_sentence):
        video, _ = short_sentence
        with pytest.raises(VsrError):
            prepare_frames(video, [SymmetryLine(10.0, 0.0)])


class TestLipDetection:
    def test_single_frame_is_argmax(self):
        rng = np.random.default_rng(9)
        ulum = rng.random((30, 101))
        rows = detect_inner_lower_lip(ulum[None, :, 50])
        grad = np.gradient(ulum[:, 50])
        assert rows[0] == int(np.argmax(grad))

    def test_noisy_fixed_peak_tracked(self):
        rng = np.random.default_rng(10)
        frames = []
        for _ in range(30):
            col = np.zeros(160)
            col[:120] = 0.0
            col[120:] = 1.0  # step -> gradient peak at row 120
            col += rng.normal(0, 0.05, 160)
            frames.append(np.tile(col[:, None], (1, 101)))
        rows = detect_inner_lower_lip(np.stack(frames)[:, :, 50])
        assert np.abs(rows - 120).max() <= 3

    def test_matches_brute_force_enumeration(self):
        rng = np.random.default_rng(11)
        n_rows, n_frames = 4, 3
        frames = []
        obs = np.empty((n_frames, n_rows))
        for t in range(n_frames):
            col = rng.random(n_rows)
            ulum = np.tile(col[:, None], (1, 101))
            frames.append(ulum)
            g = np.gradient(ulum[:, 50])
            obs[t] = (g - g.min()) / (g.max() - g.min())
        rows = detect_inner_lower_lip(np.stack(frames)[:, :, 50])
        trans = gaussian_transition_matrix(n_rows, 8.0)
        expected = brute_force_track(np.ones(n_rows), trans, obs)
        assert list(rows.astype(int)) == expected

    def test_constant_column_rejected(self):
        ulum = np.zeros((20, 101))
        with pytest.raises(VsrError):
            detect_inner_lower_lip(ulum[None, :, 50])

    def test_forced_first_row(self):
        rng = np.random.default_rng(12)
        rows = detect_inner_lower_lip(rng.random((4, 30)), force_first_row=7)
        assert rows[0] == 7


class TestBoxFilter:
    @pytest.mark.parametrize("size, shape", [(3, (2, 7, 9)), (3, (1, 1)), (5, (6, 4)),
                                             (5, (3, 2, 11))])
    def test_matches_per_pixel_sum(self, size, shape):
        """Each output pixel is the sum of its edge-clamped size x size
        neighbourhood in row-major offset order, divided by size * size,
        bit for bit."""
        image = np.random.default_rng(size).random(shape) - 0.5
        h, w = shape[-2:]
        r = size // 2
        expected = np.empty(shape)
        for index in np.ndindex(shape):
            *lead, y, x = index
            acc = 0.0
            for dr in range(-r, r + 1):
                for dc in range(-r, r + 1):
                    acc += image[(*lead, min(max(y + dr, 0), h - 1), min(max(x + dc, 0), w - 1))]
            expected[index] = acc / (size * size)
        assert box_filter(image, size).tobytes() == expected.tobytes()


class TestMinLuminanceLine:
    def test_dark_strip_followed_exactly(self):
        lum = np.ones((60, 101))
        lum[32:35, :] = 0.0  # thicker than the smoothing kernel, center row darkest
        line = one_line(lum, 35.0)
        assert line.shape == (81, 2)
        assert (line[:, 0] == 33).all()

    def test_shape_and_column_steps(self):
        rng = np.random.default_rng(13)
        line = one_line(rng.random((50, 101)), 25.0)
        assert line.shape == (81, 2)
        assert np.array_equal(line[:, 1], np.arange(10, 91))
        assert np.abs(np.diff(line[:, 0])).max() <= 1

    def test_seed_within_search_range(self):
        rng = np.random.default_rng(14)
        for _ in range(5):
            lum = rng.random((64, 101))
            lip = float(rng.uniform(20, 40))
            line = one_line(lum, lip)
            seed_row = line[40, 0]
            assert lip - 8 - 0.51 <= seed_row <= lip + 4 + 0.51

    def test_rows_clamped_at_boundary(self):
        lum = np.tile(np.linspace(1, 0, 30)[:, None], (1, 101))  # darkest at bottom row
        line = one_line(lum, 28.0)
        assert line[:, 0].max() <= 29

    @given(st.integers(0, 10**6), st.integers(3, 20),
           st.lists(st.sampled_from([0.0, 0.5, 1.0, 2.5, 3.0, 8.0, 8.5]), min_size=1,
                    max_size=6), st.lists(st.booleans(), min_size=6, max_size=6))
    @settings(max_examples=60, deadline=None)
    def test_whole_video_matches_per_frame_reference(self, seed, h, offsets, from_bottom):
        # values in {0, 1, 2} make ties at almost every step; lip rows sit
        # near the top and bottom borders, half-rows included
        lum = np.random.default_rng(seed).integers(0, 3, (len(offsets), h, 101)).astype(float)
        lip_rows = np.array([h - 1 - off if flip else off
                             for off, flip in zip(offsets, from_bottom)])
        lines = build_min_luminance_line(lum, lip_rows)
        expected = np.stack([reference_min_luminance_line(box_filter(frame, 3), lip)
                             for frame, lip in zip(lum, lip_rows)])
        assert np.array_equal(lines, expected)


class TestCornerDetection:
    def mouth_like(self, left_col, right_col, h=60, w=101, row=30):
        lum = np.ones((h, w))
        lum[row, left_col:right_col + 1] = 0.0
        return lum

    def test_single_frame_corner_positions(self):
        lum = self.mouth_like(25, 75)
        line = one_line(lum, 30.0)
        left, right = detect_mouth_corners(lum[None], np.stack([line]))
        assert abs(left[0][1] - 25) <= 2
        assert abs(right[0][1] - 75) <= 2

    def test_left_column_below_right(self, segmented_sentence):
        _, _, result = segmented_sentence
        assert (result.keypoints.left[:, 1] < result.keypoints.right[:, 1]).all()

    def test_matches_brute_force_on_tiny_instance(self):
        rng = np.random.default_rng(15)
        lum = rng.random((3, 50, 101))
        smooth = box_filter(lum, 3)
        assert np.array_equal(smooth, np.stack([box_filter(frame, 3) for frame in lum]))
        lines = np.stack([one_line(frame, 25.0) for frame in lum])
        left, right = detect_mouth_corners(lum, lines)

        obs_l = np.empty((3, 41))
        obs_r = np.empty((3, 41))
        for t in range(3):
            vals = smooth[t][lines[t][:, 0], lines[t][:, 1]]
            g = np.gradient(vals)
            gl = -g[:41]
            gr = g[40:]
            obs_l[t] = (gl - gl.min()) / (gl.max() - gl.min())
            obs_r[t] = (gr - gr.min()) / (gr.max() - gr.min())
        trans = gaussian_transition_matrix(41, 2.0)
        pl = brute_force_track(np.ones(41), trans, obs_l)
        pr = brute_force_track(np.ones(41), trans, obs_r)
        for t in range(3):
            assert tuple(left[t]) == tuple(lines[t][pl[t]])
            assert tuple(right[t]) == tuple(lines[t][40 + pr[t]])


class TestSmoothingOracle:
    """The lum-line and corner trackers smooth only the points they read,
    bit for bit as the trackers that read the whole smoothed plane
    `box_filter(lum, 3)` (`oracles`)."""

    @given(st.integers(0, 10**6), st.integers(1, 4),
           st.one_of(st.integers(2, 5), st.integers(6, 30)), st.booleans(), st.data())
    @settings(max_examples=80, deadline=None)
    def test_trackers_match_whole_plane_smoothing(self, seed, frames, height, ties, data):
        rng = np.random.default_rng(seed)
        # values in {0, 1, 2} tie at almost every step; signed values make
        # signed zeros and every rounding of the nine-term sums
        shape = (frames, height, 101)
        lum = rng.integers(0, 3, shape).astype(float) if ties else rng.normal(size=shape)
        lip = st.one_of(st.sampled_from([0.0, float(height - 1)]),
                        st.floats(-10.0, height + 10.0, allow_nan=False))
        lip_rows = np.array([data.draw(lip, label="lip row") for _ in range(frames)])
        smooth = box_filter(lum, 3)
        points = tuple(rng.integers(0, n, 64) for n in shape)
        assert_same_bits(_smoothed_at(lum, *points), smooth[points])
        lines = build_min_luminance_line(lum, lip_rows)
        assert np.array_equal(lines, oracles.build_min_luminance_line(smooth, lip_rows))
        try:
            expected = oracles.detect_mouth_corners(smooth, lines)
        except VsrError as e:
            with pytest.raises(VsrError, match=str(e)):
                detect_mouth_corners(lum, lines)
            return
        for got, ref in zip(detect_mouth_corners(lum, lines), expected):
            assert_same_bits(got, ref)


_COORD = st.one_of(st.integers(-3, 12).map(float),
                   st.floats(-3.0, 12.0, allow_nan=False, allow_infinity=False))


class TestBilinearSample:
    @given(st.integers(0, 10**6), st.integers(1, 9), st.integers(1, 9), st.integers(1, 7),
           st.lists(st.tuples(_COORD, _COORD), min_size=1, max_size=30))
    @settings(max_examples=60, deadline=None)
    def test_stacked_planes_match_one_call_per_plane(self, seed, h, w, k, points):
        sample = oracles.stacked_bilinear_sample
        image = np.random.default_rng(seed).normal(size=(k, h, w))
        rows, cols = (np.array(c) for c in zip(*points))
        stacked = sample(image, rows, cols)
        assert stacked.shape == (k, len(points))
        for i in range(k):
            assert np.array_equal(stacked[i], sample(image[i], rows, cols))
        # the flat gathers read what 2-D fancy indexing reads
        fancy = oracles.bilinear_sample(np.moveaxis(image, 0, -1), rows, cols)
        assert_same_bits(stacked, np.ascontiguousarray(np.moveaxis(fancy, -1, 0)))

    @given(st.integers(0, 10**6), st.integers(1, 9), st.integers(1, 9),
           st.lists(st.tuples(_COORD, _COORD), min_size=1, max_size=30), st.data())
    @settings(max_examples=60, deadline=None)
    def test_box_taps_read_what_the_whole_image_reads(self, seed, h, w, points, data):
        image = np.random.default_rng(seed).normal(size=(h, w))
        rows, cols = (np.array(c) for c in zip(*points))
        expected = oracles.stacked_bilinear_sample(image, rows, cols)
        taps = _box_taps(rows, cols, h, w)
        # the box spans the taps exactly: floor of the least coordinate to
        # the pixel after the greatest, clamped like the coordinates
        assert taps.box == tuple(slice(int(c.min()), min(int(c.max()) + 1, n - 1) + 1)
                                 for c, n in ((np.clip(rows, 0, h - 1), h),
                                              (np.clip(cols, 0, w - 1), w)))
        assert_same_bits(taps.sample(image[taps.box]), expected)
        # a fixed box that encloses the taps, as the mouth window's footprint
        box = tuple(slice(data.draw(st.integers(0, s.start)), data.draw(st.integers(s.stop, n)))
                    for s, n in zip(taps.box, (h, w)))
        fixed = _box_taps(rows, cols, h, w, box)
        assert fixed.box == box
        assert_same_bits(fixed.sample(image[box]), expected)
        # a stack of planes samples each plane as one image does
        stack = np.stack([image, -image])
        assert_same_bits(fixed.sample(stack[(..., *box)]), np.stack([expected, -expected]))


class TestExtractRoi:
    def make_crop(self, frames, h=60, w=101, seed=0, asked=None):
        """The `rgb_over` of random (3, T, H, W) RGB planes and a random
        (T, H, W) lum plane of a crop; each (frame, channels) its samplers
        are asked for is appended to `asked`."""
        rng = np.random.default_rng(seed)
        rgb = rng.random((3, frames, h, w))

        def rgb_over(box):
            def sample(t, channels):
                if asked is not None:
                    asked.append((t, tuple(channels)))
                return {c: rgb[c, t][box] for c in channels}
            return sample

        return rgb_over, rng.random((frames, h, w))

    def keypoints(self, rows_left, cols_left, rows_right, cols_right, frames):
        return MouthKeypoints(
            lip_rows=np.zeros(frames),
            left=np.stack([rows_left, cols_left], axis=1).astype(float),
            right=np.stack([rows_right, cols_right], axis=1).astype(float),
            lum_lines=np.zeros((frames, 81, 2), dtype=int),
        )

    def test_horizontal_max_width_frame_is_pure_scale(self):
        rgb_over, lum = self.make_crop(1)
        kp = self.keypoints([30.0], [30.0], [30.0], [70.0], 1)
        roi = extract_roi(rgb_over, lum, kp, 64, 48)
        s = 0.75 * 64 / 40.0
        assert roi.shape == (1, 48, 64)
        gy, gx = np.meshgrid(np.arange(48.0) - 23.5, np.arange(64.0) - 31.5, indexing="ij")
        expected = oracles.stacked_bilinear_sample(lum[0], 30.0 + gy / s, 50.0 + gx / s)
        assert np.abs(roi.plane("lum")[0] - expected).max() < 1e-12

    def test_corner_rows_align_after_transform(self):
        """With lum the signed distance from each frame's corner line, the
        window's two middle rows straddle that line: bilinear sampling keeps
        an affine plane exact, so their mean is 0 in every frame."""
        rgb_over, _ = self.make_crop(3, seed=1)
        kp = self.keypoints([30.0, 28.0, 31.0], [28.0, 30.0, 27.0],
                            [34.0, 36.0, 29.0], [72.0, 69.0, 71.0], 3)
        r, c = np.mgrid[0:60, 0:101].astype(float)
        lum = np.stack([((r - p[0]) * d[1] - (c - p[1]) * d[0]) / np.hypot(d[0], d[1])
                        for p, d in zip(kp.left, kp.right - kp.left)])
        roi = extract_roi(rgb_over, lum, kp, 64, 48)
        assert np.abs(roi.plane("lum")[:, 23:25].mean(axis=1)).max() < 1e-9

    def test_deterministic(self):
        rgb_over, lum = self.make_crop(2, seed=2)
        kp = self.keypoints([30.0, 30.0], [30.0, 31.0], [30.0, 29.0], [70.0, 69.0], 2)
        a = extract_roi(rgb_over, lum, kp, 64, 48)
        b = extract_roi(rgb_over, lum, kp, 64, 48)
        assert np.array_equal(oracles.roi_planes(a), oracles.roi_planes(b))

    def test_zero_width_everywhere_rejected(self):
        rgb_over, lum = self.make_crop(1, seed=3)
        kp = self.keypoints([30.0], [50.0], [30.0], [50.0], 1)
        with pytest.raises(VsrError):
            extract_roi(rgb_over, lum, kp, 64, 48)

    def test_scale_constant_across_frames(self):
        """With lum the coordinate along each frame's corner line, every
        frame's window steps it by the same 1 / scale per pixel, the scale
        set by the widest frame (0.75 * roi_width / its corner distance)."""
        rgb_over, _ = self.make_crop(3, seed=5)
        kp = self.keypoints([30.0, 29.0, 31.0], [30.0, 36.0, 26.0],
                            [30.0, 32.0, 30.0], [70.0, 64.0, 74.0], 3)
        d = kp.right - kp.left
        r, c = np.mgrid[0:60, 0:101].astype(float)
        lum = np.stack([((r - p[0]) * dt[0] + (c - p[1]) * dt[1]) / np.hypot(dt[0], dt[1])
                        for p, dt in zip(kp.left, d)])
        roi = extract_roi(rgb_over, lum, kp, 64, 48)
        assert roi.shape == (3, 48, 64)
        scale = 0.75 * 64 / np.hypot(d[:, 0], d[:, 1]).max()
        assert np.abs(np.diff(roi.plane("lum"), axis=2) - 1.0 / scale).max() < 1e-9

    def test_planes_are_made_on_first_use(self):
        rgb_over, lum = self.make_crop(2, seed=4)
        kp = self.keypoints([30.0, 30.0], [30.0, 31.0], [30.0, 29.0], [70.0, 69.0], 2)
        roi = extract_roi(rgb_over, lum, kp, 64, 48)
        assert roi._planes == {}
        red = roi.plane("red")
        assert list(roi._planes) == ["red"] and roi.plane("red") is red
        with pytest.raises(VsrError, match="not present"):
            roi.plane("infrared")

    def test_all_planes_at_once_match_one_at_a_time(self):
        """`planes` makes the missing planes from one set of taps, bit for
        bit as `plane` makes each alone, and keeps the planes already made."""
        rgb_over, lum = self.make_crop(3, seed=6)
        kp = self.keypoints([30.0, 29.0, 31.0], [30.0, 33.0, 26.0],
                            [31.0, 32.0, 30.0], [70.0, 66.0, 74.0], 3)
        one = extract_roi(rgb_over, lum, kp, 64, 48)
        each = [one.plane(name) for name in CHANNEL_NAMES]
        roi = extract_roi(rgb_over, lum, kp, 64, 48)
        red = roi.plane("red")
        every = roi.planes()
        assert every[CHANNEL_NAMES.index("red")] is red
        assert list(roi._planes) == ["red", *(n for n in CHANNEL_NAMES if n != "red")]
        for a, b in zip(every, each):
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
        assert all(a is b for a, b in zip(roi.planes(), every))

    @pytest.mark.parametrize("names", [[name] for name in CHANNEL_NAMES]
                             + [["lum", "red"], ["green", "pseudo_hue"]])
    def test_planes_sample_only_the_channels_they_read(self, names):
        """Each frame's footprint RGB is sampled once per request, for only
        the channels the planes asked for read: none for lum, one for red."""
        asked = []
        rgb_over, lum = self.make_crop(3, seed=7, asked=asked)
        kp = self.keypoints([30.0, 29.0, 31.0], [30.0, 33.0, 26.0],
                            [31.0, 32.0, 30.0], [70.0, 66.0, 74.0], 3)
        roi = extract_roi(rgb_over, lum, kp, 64, 48)
        for name in names:
            roi.plane(name)
        channels = [tuple(sorted(_RGB_READ[name])) for name in names]
        assert asked == [(t, c) for c in channels if c for t in range(3)]
        asked.clear()
        extract_roi(rgb_over, lum, kp, 64, 48).planes()
        assert asked == [(t, (0, 1, 2)) for t in range(3)]


_KEYPOINT_ROW = st.floats(-12.0, 40.0, allow_nan=False)
_KEYPOINT_COL = st.floats(-20.0, 125.0, allow_nan=False)


class TestSevenPlaneOracle:
    """Tracking inputs, keypoints and every ROI plane of the footprint path
    equal the path that computes all seven planes over every cropped frame
    (`oracles`), bit for bit."""

    @given(st.integers(0, 10**6), st.integers(1, 4), st.integers(2, 24), st.integers(8, 40),
           st.data())
    @settings(max_examples=60, deadline=None)
    def test_planes_match_seven_plane_path(self, seed, frames, height, width, data):
        rng = np.random.default_rng(seed)
        video = rng.integers(0, 256, (frames, height, width, 3)).astype(np.uint8)
        for t in range(frames):
            if data.draw(st.booleans(), label="flat frame"):   # lum has hi == lo
                video[t] = rng.integers(0, 256, 3)
        video = VideoSequence(frames=video)
        lines = [SymmetryLine(data.draw(st.floats(-5.0, width + 5.0)),
                              data.draw(st.floats(-10.0, 10.0))) for _ in range(frames)]
        rgb_over, lum, ulum = prepare_frames(video, lines)
        planes = oracles.prepare_frames(video, lines)
        assert_same_bits(lum, plane(planes, "lum"))
        assert_same_bits(ulum, np.ascontiguousarray(plane(planes, "ulum")[:, :, 50]))
        rows = sorted(data.draw(st.lists(st.integers(0, height), min_size=2, max_size=2,
                                         unique=True), label="box rows"))
        cols = sorted(data.draw(st.lists(st.integers(0, CROP_WIDTH), min_size=2, max_size=2,
                                         unique=True), label="box cols"))
        box = slice(*rows), slice(*cols)
        rgb_planes = planes[[CHANNEL_NAMES.index(c) for c in ("red", "green", "blue")]]
        assert_same_bits(sampled_rgb(rgb_over, box, frames),
                         np.ascontiguousarray(rgb_planes[(..., *box)]))

        left = np.array([[data.draw(_KEYPOINT_ROW), data.draw(_KEYPOINT_COL)]
                         for _ in range(frames)])
        right = np.array([[data.draw(_KEYPOINT_ROW), data.draw(_KEYPOINT_COL)]
                          for _ in range(frames)])
        for t in range(frames):
            if data.draw(st.booleans(), label="zero corner distance"):
                right[t] = left[t]
        kp = MouthKeypoints(lip_rows=np.zeros(frames), left=left, right=right,
                            lum_lines=np.zeros((frames, 81, 2), dtype=int))
        size = (data.draw(st.integers(1, 16)), data.draw(st.integers(1, 12)))
        eager = (sampled_rgb(rgb_over, (slice(0, height), slice(0, CROP_WIDTH)), frames), lum)
        if (left == right).all():
            for fn, args in ((extract_roi, (rgb_over, lum)), (oracles.extract_roi, (planes,)),
                             (oracles.footprint_extract_roi, eager)):
                with pytest.raises(VsrError, match="zero mouth width"):
                    fn(*args, kp, *size)
            return
        ref = oracles.extract_roi(planes, kp, *size)
        assert_same_bits(oracles.roi_planes(oracles.footprint_extract_roi(*eager, kp, *size)),
                         oracles.roi_planes(ref))
        for name in CHANNEL_NAMES:  # each plane asked alone
            assert_same_bits(extract_roi(rgb_over, lum, kp, *size).plane(name), ref.plane(name))
        roi = extract_roi(rgb_over, lum, kp, *size)
        for name in data.draw(st.permutations(CHANNEL_NAMES), label="order"):
            assert_same_bits(roi.plane(name), ref.plane(name))
        assert_same_bits(oracles.roi_planes(roi), oracles.roi_planes(ref))
        assert_same_bits(oracles.roi_planes(extract_roi(rgb_over, lum, kp, *size)),
                         oracles.roi_planes(ref))
        assert_same_bits(np.stack(extract_roi(rgb_over, lum, kp, *size).planes()),
                         oracles.roi_planes(ref))

    @given(st.integers(0, 10**6), st.integers(1, 3), st.integers(3, 16), st.integers(20, 32))
    @settings(max_examples=25, deadline=None)
    def test_random_videos_segment_alike(self, seed, frames, height, width):
        rng = np.random.default_rng(seed)
        video = VideoSequence(rng.integers(0, 256, (frames, height, width, 3)).astype(np.uint8))
        self.assert_segments_alike(video)

    def test_fixture_sentence_segments_alike(self, short_sentence):
        self.assert_segments_alike(short_sentence[0])

    def assert_segments_alike(self, video):
        cfg = PipelineConfig()
        try:
            kp, ref = oracles.segment_video(video, cfg.roi_width, cfg.roi_height)
        except VsrError as e:
            with pytest.raises(VsrError, match=str(e)):
                segment_video(video, cfg)
            return
        result = segment_video(video, cfg)
        for field in ("lip_rows", "left", "right", "lum_lines"):
            assert_same_bits(getattr(result.keypoints, field), getattr(kp, field))
        for name in CHANNEL_NAMES:
            assert_same_bits(result.roi.plane(name), ref.plane(name))
        assert_same_bits(oracles.roi_planes(result.roi), oracles.roi_planes(ref))


class TestCropLuminance:
    """The crop's luminance is sampled from each frame's raw luma; the
    luminance of the sampled RGB (`oracles.crop_lum`), which it replaced,
    stays within 1e-12 of it."""

    @given(st.integers(0, 10**6), st.integers(1, 3), st.integers(2, 24), st.integers(8, 40),
           st.data())
    @settings(max_examples=40, deadline=None)
    def test_random_frames(self, seed, frames, height, width, data):
        rng = np.random.default_rng(seed)
        video = VideoSequence(rng.integers(0, 256, (frames, height, width, 3)).astype(np.uint8))
        lines = [SymmetryLine(data.draw(st.floats(-5.0, width + 5.0)),
                              data.draw(st.floats(-10.0, 10.0))) for _ in range(frames)]
        self.assert_close(video, lines)

    def test_fixture_sentence(self, short_sentence):
        video = short_sentence[0]
        self.assert_close(video, find_symmetry_lines(video))

    def assert_close(self, video, lines):
        rgb_over, lum, _ = prepare_frames(video, lines)
        rgb = sampled_rgb(rgb_over, (slice(0, video.height), slice(0, CROP_WIDTH)),
                          video.frame_count)
        assert np.abs(lum - oracles.crop_lum(rgb)).max() <= 1e-12


@pytest.fixture(scope="module")
def hundred_frames(synth_cfg):
    """A 100-frame 120 x 160 fixture video."""
    units = [(k % synth_cfg.class_count, 10) for k in range(10)]
    video, _ = synth_sentence(synth_cfg, units, 80.0, 2.0, 5)
    assert (video.frame_count, video.height, video.width) == (100, 120, 160)
    return video


def test_segment_video_peak_is_bounded(hundred_frames):
    """Segmenting a 100-frame 120 x 160 video holds at most 2.5 float64
    crop planes (T, 120, 101) at once: the luminance, and what its sampling
    and the symmetry search take beside it.  Smoothing the whole luminance
    plane (a padded copy and an output) took 3.2, and blending all three RGB
    planes over the whole crop, and the crop's luminance from them, 6.3."""
    tracemalloc.start()
    try:
        result = segment_video(hundred_frames, PipelineConfig())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result.roi.frame_count == 100
    plane_bytes = 100 * 120 * CROP_WIDTH * 8
    assert peak <= 2.5 * plane_bytes, peak / plane_bytes


def test_one_roi_plane_peak_is_bounded(hundred_frames):
    """Making one 100-frame 48 x 64 ROI plane allocates at most two output
    planes beyond what the volume holds: the plane, and each frame's
    footprint sample, taps and gathers.  Taking every frame's taps at once
    allocated about 13 planes."""
    roi = segment_video(hundred_frames, PipelineConfig()).roi
    tracemalloc.start()
    try:
        red = roi.plane("red")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert red.shape == (100, 48, 64)
    assert peak <= 2 * red.nbytes, peak / red.nbytes


class TestTrackingHmmOracle:
    """Both tracking HMMs reduce to viterbi_generic; cross-check the whole
    weighting scheme on random instances against enumeration."""

    @given(st.integers(0, 10**6), st.integers(2, 5), st.integers(1, 6))
    @settings(max_examples=30, deadline=None)
    def test_gaussian_hmm_matches_enumeration(self, seed, n_states, n_steps):
        rng = np.random.default_rng(seed)
        obs = rng.uniform(0.05, 1.0, (n_steps, n_states))
        for sigma in (2.0, 8.0):
            trans = gaussian_transition_matrix(n_states, sigma)
            priors = np.ones(n_states)
            path, _ = viterbi_generic(priors, trans, obs)
            assert list(path) == brute_force_track(priors, trans, obs)


class TestTranslationInvariance:
    def test_integer_shift_moves_keypoints_and_keeps_roi(self, corpus_config):
        from vsr3d.fixtures import SynthConfig, derive_seed, synth_sentence
        from vsr3d.pipeline import segment_video

        scfg = SynthConfig(seed=11, noise_sigma=0.0)
        dy, dx = 2, 3
        video_a, _ = synth_sentence(scfg, [(0, 5), (1, 5)], 80.0, 0.0,
                                    derive_seed(11, 3, 0), anchor_row=58.0)
        video_b, _ = synth_sentence(scfg, [(0, 5), (1, 5)], 80.0 + dx, 0.0,
                                    derive_seed(11, 3, 0), anchor_row=58.0 + dy)
        ra = segment_video(video_a, corpus_config)
        rb = segment_video(video_b, corpus_config)
        delta = rb.keypoints_original - ra.keypoints_original
        assert np.abs(delta[:, 0] - dy).max() <= 1.0 + 1e-6          # lip row
        assert np.abs(delta[:, [1, 3]] - dy).max() <= 1.0 + 1e-6     # corner rows
        assert np.abs(delta[:, [2, 4]] - dx).max() <= 1.0 + 1e-6     # corner cols
        assert np.abs(oracles.roi_planes(ra.roi)
                      - oracles.roi_planes(rb.roi)).max() <= 2.0 / 255.0


class TestCoordinateMapping:
    @given(st.floats(-50.0, 250.0), st.floats(-15.0, 15.0), st.integers(1, 160))
    @settings(max_examples=100, deadline=None)
    def test_crop_grid_matches_explicit_formula(self, column, angle, height):
        """The crop grid, now `cropped_to_original` over the crop's pixels,
        keeps the bits of the grid written out row by row and column by
        column."""
        line = SymmetryLine(column=column, angle_deg=angle)
        rows, cols = crop_grid(line, height, (slice(0, height), slice(0, CROP_WIDTH)))
        ref_rows, ref_cols = oracles.crop_grid(line, height)
        assert rows.shape == ref_rows.shape == (height, 101)
        assert rows.tobytes() == ref_rows.tobytes()
        assert cols.tobytes() == ref_cols.tobytes()
        # a sub-box is the same slice of the grid, as the column is
        for box in ((slice(height // 3, height), slice(17, 60)),
                    (slice(0, height), slice(50, 51))):
            sub_rows, sub_cols = crop_grid(line, height, box)
            assert sub_rows.tobytes() == np.ascontiguousarray(ref_rows[box]).tobytes()
            assert sub_cols.tobytes() == np.ascontiguousarray(ref_cols[box]).tobytes()

    def test_cropped_to_original_roundtrip_center(self):
        line = SymmetryLine(column=77.0, angle_deg=2.0)
        r, c = cropped_to_original(line, 120, (120 - 1) / 2.0, 50.0)
        assert r == pytest.approx((120 - 1) / 2.0)
        assert c == pytest.approx(77.0)

    def test_luminance_weights(self):
        rgb = np.zeros((2, 2, 3))
        rgb[..., 0] = 255.0
        assert luminance(rgb)[0, 0] == pytest.approx(0.299)
