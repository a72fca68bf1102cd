import math

import numpy as np
import pytest
import scipy.special
from hypothesis import given, settings
from hypothesis import strategies as st

from vsr3d import VsrError
from vsr3d.evaluation import (AlignmentCounts, JEFFERS_MAP, UNMAPPED_PHONEMES, accuracy,
                              align_nw, confusion_matrix, evaluate_sequences, map_to_visemes,
                              paired_t_test_one_tailed, strip_internal_silence,
                              t_tail_probability, to_viseme)

TABLE2_PHONEMES = [
    "SH", "IY", "HH", "AE", "D", "Y", "AO", "R", "AA", "K", "S", "UW", "T", "IH",
    "N", "G", "W", "ER", "L", "OW", "M", "OY", "AY", "DH", "B", "AH", "V", "F",
    "Z", "TH", "P", "EH", "EY", "NG", "CH", "UH", "ZH", "JH", "AW", "sil",
]

tokens = st.sampled_from(["a", "b", "c", "d"])


def reference_levenshtein(ref, hyp):
    """Independent simple DP (insert/delete/substitute, unit costs)."""
    prev = list(range(len(hyp) + 1))
    for i, r in enumerate(ref, 1):
        cur = [i]
        for j, h in enumerate(hyp, 1):
            cur.append(min(prev[j - 1] + (r != h), prev[j] + 1, cur[-1] + 1))
        prev = cur
    return prev[-1]


class TestVisemeMapping:
    def test_f_and_v_share_viseme(self):
        assert map_to_visemes(["F", "V"]) == ["/A", "/A"]

    def test_hh_removed(self):
        assert map_to_visemes(["HH"]) == []

    def test_silence_maps_to_l(self):
        assert map_to_visemes(["sil"]) == ["/L"]

    def test_total_on_table2_inventory(self):
        assert len(TABLE2_PHONEMES) == 40
        mapped = map_to_visemes(TABLE2_PHONEMES)
        assert len(mapped) == 39  # HH dropped
        assert set(mapped) <= set(JEFFERS_MAP.values())
        assert set(JEFFERS_MAP) | UNMAPPED_PHONEMES == set(TABLE2_PHONEMES)

    def test_viseme_inventory_is_a_to_l(self):
        assert sorted(set(JEFFERS_MAP.values())) == [f"/{c}" for c in "ABCDEFGHIJKL"]

    def test_consecutive_identical_not_merged(self):
        assert map_to_visemes(["S", "Z"]) == ["/H", "/H"]

    def test_unknown_token_named_in_error(self):
        with pytest.raises(VsrError, match="XX"):
            map_to_visemes(["XX"])

    def test_viseme_token_maps_to_itself(self):
        assert to_viseme("/A") == "/A"
        assert to_viseme("HH") is None
        with pytest.raises(VsrError):
            to_viseme("/Z")


class TestSilenceStripping:
    def test_internal_removed(self):
        assert strip_internal_silence(["sil", "AE", "sil", "T", "sil"]) == ["sil", "AE", "T", "sil"]

    def test_no_silence_untouched(self):
        assert strip_internal_silence(["AE", "T"]) == ["AE", "T"]

    def test_leading_run_collapses(self):
        assert strip_internal_silence(["sil", "sil", "AE"]) == ["sil", "AE"]

    def test_empty(self):
        assert strip_internal_silence([]) == []

    @given(st.lists(st.sampled_from(["sil", "a", "b"]), max_size=12))
    def test_no_internal_silence_remains(self, seq):
        out = strip_internal_silence(seq)
        if len(out) > 2:
            assert "sil" not in out[1:-1]


class TestAlignment:
    def test_identical_sequences(self):
        counts, pairs = align_nw(["a", "b", "c"], ["a", "b", "c"])
        assert (counts.T, counts.C, counts.S, counts.D, counts.I) == (3, 3, 0, 0, 0)
        assert pairs == [("a", "a"), ("b", "b"), ("c", "c")]

    def test_empty_hypothesis(self):
        counts, _ = align_nw(["a", "b"], [])
        assert (counts.T, counts.C, counts.D) == (2, 0, 2)

    def test_single_deletion(self):
        counts, pairs = align_nw(["a", "b", "c"], ["a", "c"])
        assert (counts.C, counts.D, counts.S, counts.I) == (2, 1, 0, 0)
        assert ("b", None) in pairs

    def test_exhaustive_minimality_on_tiny_cases(self):
        # every alignment of these tiny pairs is enumerable through the
        # reference DP; align_nw must reach the same minimum error count
        cases = [
            (["a"], ["b"]),
            (["a", "b"], ["b", "a"]),
            (["a", "b", "a"], ["b"]),
            (["a", "b", "c"], ["c", "b", "a"]),
        ]
        for ref, hyp in cases:
            counts, _ = align_nw(ref, hyp)
            assert counts.S + counts.D + counts.I == reference_levenshtein(ref, hyp)

    @given(st.lists(tokens, max_size=10), st.lists(tokens, max_size=10))
    @settings(max_examples=120, deadline=None)
    def test_counts_invariants_and_levenshtein(self, ref, hyp):
        counts, pairs = align_nw(ref, hyp)
        assert counts.T == len(ref) == counts.C + counts.S + counts.D
        assert len(hyp) == counts.C + counts.S + counts.I
        assert counts.S + counts.D + counts.I == reference_levenshtein(ref, hyp)
        rebuilt_ref = [r for r, _ in pairs if r is not None]
        rebuilt_hyp = [h for _, h in pairs if h is not None]
        assert rebuilt_ref == ref and rebuilt_hyp == hyp


class TestAccuracy:
    def test_published_phoneme_totals(self):
        counts = AlignmentCounts(T=2728, C=587, S=1089, D=1052, I=39)
        assert accuracy(counts) == pytest.approx(0.201, abs=5e-4)

    def test_published_viseme_totals(self):
        counts = AlignmentCounts(T=2518, C=1029, S=438, D=1051, I=37)
        assert accuracy(counts) == pytest.approx(0.394, abs=5e-4)

    def test_perfect(self):
        assert accuracy(AlignmentCounts(T=5, C=5, S=0, D=0, I=0)) == 1.0

    def test_negative_possible(self):
        assert accuracy(AlignmentCounts(T=2, C=1, S=0, D=1, I=3)) == -1.0

    def test_empty_reference_rejected(self):
        with pytest.raises(VsrError):
            accuracy(AlignmentCounts(T=0, C=0, S=0, D=0, I=0))

    @given(st.lists(tokens, min_size=1, max_size=8), st.lists(tokens, max_size=8))
    @settings(max_examples=60, deadline=None)
    def test_appending_spurious_token_never_helps(self, ref, hyp):
        # spurious = not present in the reference at all
        base = accuracy(align_nw(ref, hyp)[0])
        worse = accuracy(align_nw(ref, hyp + ["zz"])[0])
        assert worse <= base + 1e-12


class TestConfusionMatrix:
    def test_perfect_alignment_is_diagonal(self):
        _, pairs = align_nw(["a", "b", "a"], ["a", "b", "a"])
        cm = confusion_matrix([pairs], ["a", "b"])
        assert cm.matrix[0, 0] == 2 and cm.matrix[1, 1] == 1
        assert cm.matrix.sum() == 3 and cm.deletions.sum() == 0 and cm.insertions.sum() == 0

    @given(st.lists(tokens, max_size=8), st.lists(tokens, max_size=8))
    @settings(max_examples=60, deadline=None)
    def test_row_sum_conservation(self, ref, hyp):
        counts, pairs = align_nw(ref, hyp)
        cm = confusion_matrix([pairs], ["a", "b", "c", "d"])
        for i, lab in enumerate(cm.labels):
            assert cm.matrix[i].sum() + cm.deletions[i] == ref.count(lab)
        assert cm.matrix.sum() == counts.C + counts.S
        assert cm.insertions.sum() == counts.I

    def test_unknown_token_rejected(self):
        with pytest.raises(VsrError):
            confusion_matrix([[("z", "a")]], ["a"])


class TestTTest:
    def test_published_tail_value_t2500(self):
        assert t_tail_probability(2.500, 79) == pytest.approx(0.0072, abs=2e-4)

    def test_t_zero_gives_half(self):
        assert t_tail_probability(0.0, 79) == 0.5

    def test_matches_scipy_stdtr(self):
        """Every branch, |t| < 1 (through 1 - I_x), |t| >= 1 (I_x directly)
        and the large-df expansion, within 1e-12 relative of scipy for df
        1-201 and at df 10^3, 10^4, 10^6 and 10^8."""
        ts = np.concatenate([np.linspace(-12.0, 12.0, 241),
                             [-1.0, -np.nextafter(1.0, 0.0), np.nextafter(1.0, 0.0), 1.0]])
        assert (np.abs(ts) < 1).any() and (np.abs(ts) >= 1).any()
        worst = 0.0
        for df in [*range(1, 202), 10**3, 10**4, 10**6, 10**8]:
            ref = scipy.special.stdtr(df, -ts)
            got = np.array([t_tail_probability(float(t), df) for t in ts])
            worst = max(worst, float((np.abs(got - ref) / ref).max()))
        assert worst <= 1e-12

    def test_sign_symmetry(self):
        for df in (1, 2, 7, 79, 200):
            for t in (1e-3, 0.5, 0.999, 1.0, 2.302, 11.5):
                assert t_tail_probability(-t, df) == 1.0 - t_tail_probability(t, df)

    def test_criterion_08_value(self):
        """The df = 79 tail that criterion 08 compares with its anchor."""
        p = t_tail_probability(2.302, 79)
        assert abs(p - 0.011985) < 5e-7
        assert abs(p - float(scipy.special.stdtr(79, -2.302))) < 1e-12

    def test_extreme_t(self):
        assert t_tail_probability(1e-200, 5) == 0.5
        assert t_tail_probability(float("inf"), 5) == 0.0
        assert t_tail_probability(float("-inf"), 5) == 1.0
        # Cauchy (df = 1): the tail is 1 / (pi t) once t^2 overflows
        assert t_tail_probability(1e200, 1) == pytest.approx(1.0 / (math.pi * 1e200), rel=1e-12)

    def test_strictly_decreasing_in_t(self):
        ps = [t_tail_probability(t, 20) for t in np.linspace(-3, 3, 25)]
        assert all(a > b for a, b in zip(ps, ps[1:]))

    def test_near_identical_accuracies(self):
        rng = np.random.default_rng(0)
        noise = rng.normal(0, 1e-3, 40)
        a = 0.5 + noise
        b = 0.5 - noise * 1e-3
        t, p = paired_t_test_one_tailed(a, b)
        assert abs(p - 0.5) < 0.2

    def test_clear_improvement_is_significant(self):
        rng = np.random.default_rng(1)
        b = rng.uniform(0.2, 0.4, 30)
        a = b + 0.1 + rng.normal(0, 0.02, 30)
        t, p = paired_t_test_one_tailed(a, b)
        assert t > 0 and p < 1e-6

    def test_errors(self):
        with pytest.raises(VsrError):
            paired_t_test_one_tailed([0.5], [0.4])
        with pytest.raises(VsrError):
            paired_t_test_one_tailed([0.5, 0.5], [0.4, 0.4])


class TestEvaluateSequences:
    def test_identical_corpus_scores_one(self):
        refs = {"s0": ["a", "b"], "s1": ["c"]}
        rows, cm, totals = evaluate_sequences(refs, refs)
        assert all(acc == 1.0 for _, _, acc in rows)
        assert totals.C == 3 and totals.I == 0

    def test_reference_silence_stripped(self):
        refs = {"s": ["sil", "a", "sil", "b", "sil"]}
        hyps = {"s": ["sil", "a", "b", "sil"]}
        _, _, totals = evaluate_sequences(refs, hyps)
        assert totals.T == 4 and totals.C == 4

    def test_viseme_modeode_maps_tokens(self):
        refs = {"s": ["F", "HH", "S"]}
        hyps = {"s": ["/A", "/H"]}
        rows, _, totals = evaluate_sequences(refs, hyps, to_visemes=True)
        assert totals.T == 2 and totals.C == 2

    def test_missing_hypothesis_rejected(self):
        with pytest.raises(VsrError):
            evaluate_sequences({"a": ["x"]}, {})
