import math
import re
import tracemalloc

import numpy as np
import pytest
import scipy.fft
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from conftest import reference_windows
from oracles import (dct3, featurize, featurize_prepared, idct3, preprocess_volume,
                     pyramid_extract, resample_to_length, roi_volume)
from vsr3d import VsrError
from vsr3d.features import (_dct_matrix, _time_maps, enumerate_subsequences, featurize_many,
                            feature_dimension, fit_standardization, pyramid_mask_indices,
                            standardize, subtract_sequence_mean, time_shift)


def naive_dct3(volume):
    """Independent O(n^2) per axis triple-sum orthonormal type-II DCT."""
    x = np.asarray(volume, dtype=float)
    n0, n1, n2 = x.shape
    out = np.zeros_like(x)

    def basis(n, k, i):
        scale = math.sqrt(1.0 / n) if k == 0 else math.sqrt(2.0 / n)
        return scale * math.cos(math.pi * (2 * i + 1) * k / (2 * n))

    for k0 in range(n0):
        for k1 in range(n1):
            for k2 in range(n2):
                acc = 0.0
                for i0 in range(n0):
                    for i1 in range(n1):
                        for i2 in range(n2):
                            acc += (x[i0, i1, i2] * basis(n0, k0, i0)
                                    * basis(n1, k1, i1) * basis(n2, k2, i2))
                out[k0, k1, k2] = acc
    return out


def toy_roi(rng, frames=12, h=6, w=8):
    return roi_volume(rng.random((frames, h, w)))


class TestTimeShift:
    def test_zero_shift_is_identity(self):
        rng = np.random.default_rng(0)
        v = rng.random((7, 3, 4))
        assert np.array_equal(time_shift(v, 0.0, 25.0), v)

    def test_exact_one_frame_shift(self):
        rng = np.random.default_rng(1)
        v = rng.random((6, 2, 2))
        out = time_shift(v, 40.0, 25.0)
        assert np.array_equal(out, v[[0, 0, 1, 2, 3, 4]])

    def test_half_frame_interpolates_midpoint(self):
        rng = np.random.default_rng(2)
        v = rng.random((5, 2, 3))
        out = time_shift(v, 20.0, 25.0)
        assert np.allclose(out[1:], 0.5 * v[1:] + 0.5 * v[:-1])

    def test_negative_shift_rejected(self):
        with pytest.raises(VsrError):
            time_shift(np.zeros((3, 1, 1)), -1.0, 25.0)

    @settings(max_examples=120, deadline=None)
    @given(arrays(np.float32, st.tuples(st.integers(1, 9), st.integers(1, 3), st.integers(1, 3)),
                  elements=st.floats(-1e6, 1e6, width=32)),
           st.one_of(st.integers(0, 12).map(lambda k: 40.0 * k),
                     st.floats(0.0, 500.0, allow_nan=False)))
    def test_equals_linear_blend(self, volume, delta_t_ms):
        # the blend at 25 fps, whole-frame shifts (multiples of 40 ms)
        # included
        widened = volume.astype(float)
        n = len(widened)
        tau = np.clip(np.arange(n) - delta_t_ms * 25.0 / 1000.0, 0.0, n - 1.0)
        lo = np.floor(tau).astype(np.intp)
        frac = (tau - lo)[:, None, None]
        blend = widened[lo] * (1.0 - frac) + widened[np.minimum(lo + 1, n - 1)] * frac
        out = time_shift(volume, delta_t_ms, 25.0)
        assert out.dtype == np.float64
        assert np.array_equal(out, blend)


class TestSequenceMean:
    def test_constant_volume_goes_to_zero(self):
        v = np.full((4, 3, 3), 2.5)
        assert np.allclose(subtract_sequence_mean(v), 0.0)

    def test_two_frame_example(self):
        v = np.stack([np.full((2, 2), 3.0), np.full((2, 2), 5.0)])
        out = subtract_sequence_mean(v)
        assert np.allclose(out[0], -1.0) and np.allclose(out[1], 1.0)

    @given(st.integers(2, 10), st.integers(1, 5), st.integers(1, 5), st.integers(0, 10**6))
    def test_output_mean_is_zero(self, t, h, w, seed):
        v = np.random.default_rng(seed).random((t, h, w))
        assert np.allclose(subtract_sequence_mean(v).mean(axis=0), 0.0, atol=1e-9)


class TestEnumerate:
    def test_counts_small(self):
        assert len(enumerate_subsequences(5, range(1, 4))) == 12
        assert enumerate_subsequences(3, range(4, 6)).shape == (0, 2)
        assert len(enumerate_subsequences(100, range(1, 26))) == 2200

    def test_ordering(self):
        spans = enumerate_subsequences(4, range(1, 3))
        assert spans.tolist() == [[0, 1], [0, 2], [1, 1], [1, 2], [2, 1], [2, 2], [3, 1]]

    @given(st.integers(0, 40), st.integers(1, 10), st.integers(1, 45), st.integers(0, 10**6))
    def test_count_formula(self, n, dmin_raw, dmax_raw, _seed):
        dmin = dmin_raw
        dmax = max(dmin_raw, dmax_raw)
        spans = enumerate_subsequences(n, range(dmin, dmax + 1))
        expected = sum(max(0, n - d + 1) for d in range(dmin, min(dmax, n) + 1))
        assert len(spans) == expected

    @given(st.integers(0, 40), st.sets(st.integers(1, 50), max_size=12))
    def test_matches_double_loop(self, n, durations):
        """Equal row for row to the double loop over start and duration, for
        duration sets with gaps and durations longer than the sequence."""
        durations = sorted(durations)
        spans = enumerate_subsequences(n, durations)
        want = reference_windows(n, durations)
        assert spans.dtype == np.intp and spans.shape == want.shape
        assert np.array_equal(spans, want)

    @pytest.mark.parametrize("durations", [[0, 1], [-2], [3, 2], [2, 2]])
    def test_rejects_short_or_unordered_durations(self, durations):
        with pytest.raises(VsrError, match="ascending and >= 1"):
            enumerate_subsequences(10, durations)


class TestResample:
    def test_identity_when_lengths_match(self):
        v = np.random.default_rng(3).random((7, 2, 2))
        assert np.allclose(resample_to_length(v, 7), v)

    def test_constant_in_time_stays_constant(self):
        frame = np.random.default_rng(4).random((3, 3))
        v = np.stack([frame] * 5)
        out = resample_to_length(v, 9)
        assert np.allclose(out, frame)

    def test_two_to_three_frames(self):
        v = np.stack([np.zeros((2, 2)), np.ones((2, 2))])
        out = resample_to_length(v, 3)
        assert np.allclose(out[0], 0.0) and np.allclose(out[1], 0.5) and np.allclose(out[2], 1.0)

    def test_single_frame_replicates(self):
        v = np.random.default_rng(5).random((1, 2, 2))
        out = resample_to_length(v, 4)
        assert out.shape[0] == 4 and all(np.allclose(out[i], v[0]) for i in range(4))

    @given(st.integers(1, 9), st.integers(2, 12), st.integers(0, 10**6))
    def test_never_overshoots(self, d, l, seed):
        v = np.random.default_rng(seed).random((d, 2, 3))
        out = resample_to_length(v, l)
        assert (out >= v.min(axis=0) - 1e-12).all()
        assert (out <= v.max(axis=0) + 1e-12).all()


class TestTimeMaps:
    @given(st.sets(st.integers(1, 40), min_size=1, max_size=8), st.integers(2, 12),
           st.integers(1, 4))
    def test_stack_of_per_duration_maps(self, durations, length, s):
        """Block u of the stack is DCT_L[:s] @ Resample(d -> L) for the
        u-th duration d, with zeros from column d on."""
        durations = tuple(sorted(durations))
        s = min(s, length)
        stack = _time_maps(durations, length, s)
        assert stack.shape == (len(durations) * s, durations[-1])
        for u, d in enumerate(durations):
            block = stack[u * s:(u + 1) * s]
            want = _dct_matrix(length)[:s] @ resample_to_length(np.eye(d), length)
            # each entry sums `length` products of magnitude at most 1
            assert np.abs(block[:, :d] - want).max() <= length * np.finfo(float).eps
            assert not block[:, d:].any()


class TestDct3:
    def test_constant_volume_is_dc_only(self):
        v = np.full((4, 3, 5), 1.7)
        c = dct3(v)
        assert abs(c[0, 0, 0] - 1.7 * math.sqrt(4 * 3 * 5)) < 1e-9
        c[0, 0, 0] = 0.0
        assert np.abs(c).max() < 1e-9

    def test_energy_preserved(self):
        v = np.random.default_rng(6).standard_normal((6, 5, 4))
        assert abs(np.linalg.norm(dct3(v)) - np.linalg.norm(v)) < 1e-9

    def test_matches_naive_triple_sum(self):
        rng = np.random.default_rng(7)
        v = rng.standard_normal((6, 5, 4))
        assert np.abs(dct3(v) - naive_dct3(v)).max() < 1e-9

    def test_matrix_matches_scipy(self):
        """The closed-form basis against scipy's transform of the identity."""
        for n in range(1, 81):
            ref = scipy.fft.dct(np.eye(n), type=2, norm="ortho", axis=0)
            assert np.abs(_dct_matrix(n) - ref).max() <= 1e-13, n

    def test_leading_rows_are_the_full_matrix_rows(self):
        """The first rows alone, as `featurize_many` builds them, are the
        full basis's rows bit for bit, for any count a slice takes."""
        for n in (0, 1, 2, 10, 48, 64):
            for rows in (0, 1, 3, n, n + 2):
                assert np.array_equal(_dct_matrix(n, rows), _dct_matrix(n)[:rows]), (n, rows)

    @pytest.mark.parametrize("shape", [(1, 1, 1), (10, 48, 64), (7, 3, 2), (25, 5, 9)])
    def test_matches_scipy_dctn(self, shape):
        v = np.random.default_rng(sum(shape)).standard_normal(shape)
        ref = scipy.fft.dctn(v, type=2, norm="ortho")
        assert np.abs(dct3(v) - ref).max() <= 1e-12

    @given(st.integers(1, 6), st.integers(1, 6), st.integers(1, 6), st.integers(0, 10**6))
    @settings(max_examples=25, deadline=None)
    def test_roundtrip(self, a, b, c, seed):
        v = np.random.default_rng(seed).standard_normal((a, b, c))
        assert np.abs(idct3(dct3(v)) - v).max() < 1e-9


class TestPyramidMask:
    def test_counts(self):
        assert [len(pyramid_mask_indices(s)) for s in range(1, 6)] == [1, 4, 10, 20, 35]

    def test_s2_order(self):
        assert pyramid_mask_indices(2) == [(0, 0, 0), (0, 0, 1), (0, 1, 0), (1, 0, 0)]

    def test_s1_is_dc(self):
        c = np.random.default_rng(8).random((4, 4, 4))
        assert pyramid_extract(c, 1).tolist() == [c[0, 0, 0]]

    def test_s3_gives_10_plus_length(self):
        c = np.random.default_rng(9).random((10, 6, 6))
        assert len(pyramid_extract(c, 3)) == 10
        assert feature_dimension(3) == 11

    def test_mask_larger_than_volume_rejected(self):
        with pytest.raises(VsrError):
            pyramid_extract(np.zeros((2, 5, 5)), 3)


class TestFeaturize:
    def test_last_value_is_duration(self):
        roi = toy_roi(np.random.default_rng(10))
        vec = featurize(roi, "red", 30.0, 25.0, 2, 5, 10, 3)
        assert vec[-1] == 5.0
        assert len(vec) == 11

    def test_constant_video_gives_zero_amplitudes(self):
        roi = roi_volume(np.full((9, 4, 4), 0.3))
        vec = featurize(roi, "red", 30.0, 25.0, 1, 4, 10, 3)
        assert np.allclose(vec[:-1], 0.0, atol=1e-9)
        assert vec[-1] == 4.0

    def test_matches_hand_composition(self):
        roi = toy_roi(np.random.default_rng(11))
        vec = featurize(roi, "red", 30.0, 25.0, 3, 6, 10, 3)
        shifted = time_shift(roi.plane("red"), 30.0, 25.0)
        centered = subtract_sequence_mean(shifted)
        sub = centered[3:3 + 6]
        coeffs = dct3(resample_to_length(sub, 10))
        expected = np.concatenate([pyramid_extract(coeffs, 3), [6.0]])
        assert np.allclose(vec, expected, atol=0, rtol=0)

    def test_temporal_constant_offset_invariance(self):
        rng = np.random.default_rng(12)
        data = rng.random((10, 5, 5))
        offset = rng.random((5, 5))
        roi_a = roi_volume(data)
        roi_b = roi_volume(data + offset[None, :, :])
        va = featurize(roi_a, "red", 20.0, 25.0, 2, 6, 8, 3)
        vb = featurize(roi_b, "red", 20.0, 25.0, 2, 6, 8, 3)
        assert np.abs(va - vb).max() < 1e-9

    def test_many_matches_single(self):
        roi = toy_roi(np.random.default_rng(13))
        spans = enumerate_subsequences(roi.frame_count, range(2, 5))
        x = featurize_many(roi, "red", 30.0, 25.0, spans, 10, 3)
        for row, (a, d) in zip(x, spans):
            assert np.allclose(row, featurize(roi, "red", 30.0, 25.0, a, d, 10, 3))

    @pytest.mark.parametrize("shape, message", [
        ((5, 0, 4), "mask size 3 exceeds"), ((5, 4, 0), "mask size 3 exceeds"),
        ((0, 4, 4), "empty volume")])
    def test_zero_size_volume_is_a_data_error(self, shape, message):
        with pytest.raises(VsrError, match=message):
            featurize_many(roi_volume(np.zeros(shape)), "red", 0.0, 25.0, [(0, 1)])

    def test_repeat_calls_give_identical_output(self):
        roi = toy_roi(np.random.default_rng(14))
        spans = enumerate_subsequences(roi.frame_count, range(1, 4))
        a = featurize_many(roi, "red", 30.0, 25.0, spans, 10, 3)
        b = featurize_many(roi, "red", 30.0, 25.0, spans, 10, 3)
        assert np.array_equal(a, b)

    @pytest.mark.parametrize("window", [(-1, 2), (0, 0)])
    def test_many_rejects_negative_start_and_empty_window(self, window):
        """A window before the first frame or without frames is an error
        naming it, not a wrapped-around or empty slice."""
        roi = toy_roi(np.random.default_rng(15))
        spans = np.array([(0, 3), window, (2, 4)])
        with pytest.raises(VsrError, match=re.escape(f"bad subsequence {window}")):
            featurize_many(roi, "red", 30.0, 25.0, spans, 10, 3)
        with pytest.raises(VsrError, match=re.escape(f"bad subsequence {window}")):
            featurize(roi, "red", 30.0, 25.0, *window, 10, 3)

    @given(st.integers(2, 12), st.integers(0, 6), st.integers(1, 6), st.integers(1, 6),
           st.data())
    @settings(max_examples=80, deadline=None)
    def test_many_matches_per_window_oracle(self, length, extra, h, w, data):
        """The coefficient-space path equals the per-window 3D-DCT of
        `featurize_prepared` after the pixel-space shift and centring, for
        unsorted, repeated windows of every duration class, and raises the
        same error for a window or a parameter that alone is bad."""
        frames = length + 1 + extra
        seed = data.draw(st.integers(0, 10**6))
        # whole frames, fractions of a frame (0.25, 0.75, 1.125 at 25 fps)
        # and a shift past the sequence end, which clamps every frame to the first
        delta_t = data.draw(st.sampled_from([0.0, 10.0, 30.0, 40.0, 45.0, 10000.0]))
        s = data.draw(st.integers(1, min(length, h, w)))
        rng = np.random.default_rng(seed)
        roi = roi_volume(255.0 * rng.random((frames, h, w)))
        drawn = data.draw(st.lists(
            st.integers(0, frames - 1).flatmap(
                lambda start: st.tuples(st.just(start), st.integers(1, frames - start))),
            max_size=12))
        required = [(frames - 1, 1), (0, length), (frames - length - 1, length + 1),
                    (0, frames)]
        pairs = data.draw(st.permutations(required + drawn + drawn[:2]))
        spans = np.array(pairs)

        x = featurize_many(roi, "red", delta_t, 25.0, spans, length, s)
        prepared = preprocess_volume(roi, "red", delta_t, 25.0)
        oracle = np.array([featurize_prepared(prepared, a, d, length, s) for a, d in pairs])
        assert x.shape == oracle.shape == (len(pairs), feature_dimension(s))
        assert (np.abs(x - oracle) <= 1e-12 * np.maximum(1.0, np.abs(oracle))).all()

        def message(fn):
            with pytest.raises(VsrError) as err:
                fn()
            return str(err.value)

        past_end = (frames - 1, 2)
        assert message(lambda: featurize_many(roi, "red", delta_t, 25.0, pairs + [past_end],
                                              length, s)) == \
            message(lambda: featurize_prepared(prepared, *past_end, length, s))
        too_big = min(length, h, w) + 1
        assert message(lambda: featurize_many(roi, "red", delta_t, 25.0, spans, length,
                                              too_big)) == \
            message(lambda: featurize_prepared(prepared, *pairs[0], length, too_big))
        # parameters are checked before windows: a bad mask size is reported
        # even when a window past the end comes first
        assert message(lambda: featurize_many(roi, "red", delta_t, 25.0, [past_end] + pairs,
                                              length, too_big)) == \
            message(lambda: featurize_prepared(prepared, *pairs[0], length, too_big))


class TestFeaturizeMemory:
    @pytest.mark.parametrize("delta_t_ms", [0.0, 30.0])
    def test_peak_is_about_one_widened_plane(self, delta_t_ms):
        """The float32 plane is widened once, and the shift, the centring and
        the windows work on its projections: no second whole-volume array."""
        plane = np.random.default_rng(20).random((100, 48, 64)).astype(np.float32)
        roi = roi_volume(plane)
        spans = enumerate_subsequences(100, range(1, 38))
        tracemalloc.start()
        try:
            featurize_many(roi, "red", delta_t_ms, 25.0, spans)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.25 * plane.size * np.dtype(float).itemsize


class TestStandardization:
    def test_two_value_column(self):
        stats = fit_standardization(np.array([[1.0], [3.0]]))
        assert stats.mean[0] == 2.0 and stats.std[0] == 1.0
        assert np.allclose(standardize(np.array([[1.0], [3.0]]), stats).ravel(), [-1, 1])

    def test_constant_column_stddev_one(self):
        stats = fit_standardization(np.array([[5.0, 1.0], [5.0, 2.0]]))
        assert stats.std[0] == 1.0
        z = standardize(np.array([[5.0, 1.5]]), stats)
        assert z[0, 0] == 0.0

    def test_standardized_training_stats(self):
        x = np.random.default_rng(15).random((40, 6)) * 9.0
        stats = fit_standardization(x)
        z = standardize(x, stats)
        assert np.abs(z.mean(axis=0)).max() < 1e-9
        assert np.abs(z.std(axis=0) - 1.0).max() < 1e-6

    def test_needs_two_vectors(self):
        with pytest.raises(VsrError):
            fit_standardization(np.ones((1, 3)))


class TestLabeledSamples:
    def test_frame_conversion_example(self, corpus_config):
        from vsr3d.features import transcript_to_frames

        start, dur = transcript_to_frames(200, 360, 25.0, 100)
        assert (start, dur) == (5, 4)

    def test_biphone_pair_count(self, corpus_config):
        from vsr3d.features import Transcript, TranscriptEntry, extract_labeled_samples

        roi = toy_roi(np.random.default_rng(16), frames=30)
        tr = Transcript([TranscriptEntry("A", 0, 400), TranscriptEntry("B", 400, 800),
                         TranscriptEntry("C", 800, 1200)])
        _, labels, _ = extract_labeled_samples(roi, tr, "biphone", corpus_config)
        assert labels == ["A+B", "B+C"]

    def test_viseme_mapping_applied(self, corpus_config):
        from vsr3d.features import Transcript, TranscriptEntry, extract_labeled_samples

        roi = toy_roi(np.random.default_rng(17), frames=30)
        tr = Transcript([TranscriptEntry("F", 0, 400), TranscriptEntry("V", 400, 800)])
        _, labels, _ = extract_labeled_samples(roi, tr, "viseme", corpus_config)
        assert labels == ["/A", "/A"]

    def test_hh_dropped_for_visemes(self, corpus_config):
        from vsr3d.features import Transcript, TranscriptEntry, extract_labeled_samples

        roi = toy_roi(np.random.default_rng(18), frames=30)
        tr = Transcript([TranscriptEntry("F", 0, 400), TranscriptEntry("HH", 400, 800),
                         TranscriptEntry("S", 800, 1200)])
        _, labels, _ = extract_labeled_samples(roi, tr, "viseme", corpus_config)
        assert labels == ["/A", "/H"]
        _, labels_b, _ = extract_labeled_samples(roi, tr, "bi-viseme", corpus_config)
        assert labels_b == ["/A+/H"]

    def test_empty_transcript(self, corpus_config):
        from vsr3d.features import Transcript, extract_labeled_samples

        roi = toy_roi(np.random.default_rng(19), frames=10)
        x, labels, spans = extract_labeled_samples(roi, Transcript([]), "phoneme", corpus_config)
        assert len(labels) == 0 and x.shape[0] == 0
