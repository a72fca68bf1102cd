"""Scoring decoded sequences against references.

Hypothesis and reference token sequences are aligned globally with unit
substitution/insertion/deletion costs; the headline accuracy is
(correct - insertions) / reference_length, which the minimum-edit alignment
maximizes.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from . import VsrError

SILENCE = "sil"

# Jeffers phoneme-to-viseme clusters; HH has no viseme and is dropped.
JEFFERS_MAP = {
    "F": "/A", "V": "/A",
    "OW": "/B", "R": "/B", "W": "/B", "UH": "/B", "UW": "/B", "ER": "/B",
    "B": "/C", "P": "/C", "M": "/C",
    "AW": "/D",
    "DH": "/E", "TH": "/E",
    "CH": "/F", "JH": "/F", "SH": "/F", "ZH": "/F",
    "OY": "/G", "AO": "/G",
    "S": "/H", "Z": "/H",
    "AA": "/I", "AE": "/I", "AH": "/I", "AY": "/I", "EH": "/I",
    "EY": "/I", "IH": "/I", "IY": "/I", "Y": "/I",
    "D": "/J", "L": "/J", "N": "/J", "T": "/J",
    "G": "/K", "K": "/K", "NG": "/K",
    SILENCE: "/L",
}
UNMAPPED_PHONEMES = frozenset({"HH"})
VISEMES = frozenset(JEFFERS_MAP.values())


@dataclass
class AlignmentCounts:
    T: int  # reference length
    C: int  # correct
    S: int  # substitutions
    D: int  # deletions
    I: int  # insertions


@dataclass
class ConfusionMatrix:
    labels: list[str]
    matrix: np.ndarray      # (n, n) int, rows = reference, cols = hypothesis
    deletions: np.ndarray   # (n,)
    insertions: np.ndarray  # (n,)


def to_viseme(tok: str) -> str | None:
    """The Jeffers viseme of a phoneme token (a viseme token maps to
    itself); None for HH, which has no viseme."""
    if tok in UNMAPPED_PHONEMES:
        return None
    if tok in VISEMES:
        return tok
    if tok not in JEFFERS_MAP:
        raise VsrError(f"token {tok!r} has no viseme mapping")
    return JEFFERS_MAP[tok]


def map_to_visemes(seq) -> list[str]:
    """Replace phoneme tokens with their viseme; HH tokens are removed and
    consecutive identical visemes are kept separate."""
    return [v for v in map(to_viseme, seq) if v is not None]


def strip_internal_silence(seq) -> list[str]:
    """Drop silence tokens except a single leading and a single trailing one
    (leading/trailing runs collapse)."""
    seq = list(seq)
    lead = bool(seq) and seq[0] == SILENCE
    trail = bool(seq) and seq[-1] == SILENCE
    core = [tok for tok in seq if tok != SILENCE]
    return ([SILENCE] if lead else []) + core + ([SILENCE] if trail else [])


def align_nw(ref, hyp):
    """Global alignment minimizing substitutions + deletions + insertions
    (matches cost 0).  Backtracking prefers match/substitution, then
    deletion, then insertion.  Returns (AlignmentCounts, pairs) where pairs
    holds (ref_token, hyp_token) with None marking a gap."""
    ref = list(ref)
    hyp = list(hyp)
    n, m = len(ref), len(hyp)
    # the DP over Python ints: numpy scalar indexing costs more than the DP
    cost = [list(range(m + 1))]
    for i, r in enumerate(ref, 1):
        prev, row = cost[-1], [i]
        for j, h in enumerate(hyp, 1):
            row.append(min(prev[j - 1] + (r != h), prev[j] + 1, row[j - 1] + 1))
        cost.append(row)
    pairs = []
    i, j = n, m
    while i > 0 or j > 0:
        if i > 0 and j > 0 and cost[i][j] == cost[i - 1][j - 1] + (ref[i - 1] != hyp[j - 1]):
            pairs.append((ref[i - 1], hyp[j - 1]))
            i -= 1
            j -= 1
        elif i > 0 and cost[i][j] == cost[i - 1][j] + 1:
            pairs.append((ref[i - 1], None))
            i -= 1
        else:
            pairs.append((None, hyp[j - 1]))
            j -= 1
    pairs.reverse()
    correct = sum(1 for r, h in pairs if r is not None and r == h)
    subs = sum(1 for r, h in pairs if r is not None and h is not None and r != h)
    dels = sum(1 for r, h in pairs if h is None)
    ins = sum(1 for r, h in pairs if r is None)
    return AlignmentCounts(T=n, C=correct, S=subs, D=dels, I=ins), pairs


def accuracy(counts: AlignmentCounts) -> float:
    """(T - S - I - D) / T = (C - I) / T; negative when insertions dominate."""
    if counts.T <= 0:
        raise VsrError("accuracy undefined for an empty reference")
    return (counts.C - counts.I) / counts.T


def summary_accuracies(rows, totals: AlignmentCounts) -> tuple[float, float]:
    """(pooled, mean) of `evaluate_sequences` output: the accuracy of the
    pooled counts and the mean per-sequence accuracy, each 0.0 when there
    is nothing to pool or average."""
    pooled = accuracy(totals) if totals.T else 0.0
    mean = sum(r[2] for r in rows) / len(rows) if rows else 0.0
    return pooled, mean


def confusion_matrix(alignments, labels) -> ConfusionMatrix:
    """Aggregate aligned pairs: (r, h) increments [r][h], a reference gap
    increments the insertion row, a hypothesis gap the deletion column."""
    labels = list(labels)
    index = {lab: i for i, lab in enumerate(labels)}
    n = len(labels)
    matrix = np.zeros((n, n), dtype=int)
    deletions = np.zeros(n, dtype=int)
    insertions = np.zeros(n, dtype=int)
    for pairs in alignments:
        for r, h in pairs:
            if r is not None and r not in index:
                raise VsrError(f"unknown reference token {r!r}")
            if h is not None and h not in index:
                raise VsrError(f"unknown hypothesis token {h!r}")
            if r is None:
                insertions[index[h]] += 1
            elif h is None:
                deletions[index[r]] += 1
            else:
                matrix[index[r], index[h]] += 1
    return ConfusionMatrix(labels=labels, matrix=matrix, deletions=deletions,
                           insertions=insertions)


def _beta_fraction(a: float, b: float, x: float) -> float:
    """The continued fraction of the regularized incomplete beta function,
    I_x(a, b) = x^a (1 - x)^b / (a B(a, b)) * fraction, evaluated by the
    modified Lentz method (Numerical Recipes, 2nd ed., section 6.4).  It
    converges quickly for x below about (a + 1) / (a + b + 2)."""
    tiny = 1e-300
    c, d = 1.0, 1.0 - (a + b) * x / (a + 1.0)
    d = 1.0 / (d if abs(d) > tiny else tiny)
    h = d
    for m in range(1, 1000):
        # the even term d_2m, then the odd term d_2m+1
        for num in (m * (b - m) * x / ((a + 2 * m - 1) * (a + 2 * m)),
                    -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 2 * m + 1))):
            d = 1.0 + num * d
            d = 1.0 / (d if abs(d) > tiny else tiny)
            c = 1.0 + num / c
            c = c if abs(c) > tiny else tiny
            h *= d * c
        if abs(d * c - 1.0) <= sys.float_info.epsilon:
            return h
    raise VsrError(f"incomplete beta I_{x}({a}, {b}) did not converge")


def _log_gamma_ratio(a: float) -> float:
    """log Γ(a + 1/2) - log Γ(a).  The difference of two lgamma values loses
    about log(a) ulps of the larger one, so above a = 100 the asymptotic
    series is used instead; from a = 50 on it is within 2e-16 relative."""
    if a <= 100.0:
        return math.lgamma(a + 0.5) - math.lgamma(a)
    return (0.5 * math.log(a) - 1.0 / (8.0 * a) + 1.0 / (192.0 * a**3)
            - 1.0 / (640.0 * a**5) + 17.0 / (14336.0 * a**7))


def _normal_expansion_tail(u: float, a: float) -> float:
    """I_x(a, 1/2) / 2 at x = 1 / (1 + u) for large a: the asymptotic
    expansion in 1 / a of DiDonato and Morris (ACM TOMS 708, 1992, `bgrat`),
    whose leading term is the normal tail erfc(sqrt(z)) / 2 at
    z = -(a - 1/4) log x.  It is 0 once exp(-z) underflows."""
    b = 0.5
    nu = a - 0.25
    log_x = -math.log1p(u)
    z = -nu * log_x
    decay = math.exp(-z)
    if decay == 0.0:
        return 0.0
    r = decay * math.sqrt(z / math.pi)   # e^-z z^b / Γ(b)
    v = 0.25 / (nu * nu)
    t2 = 0.25 * log_x * log_x
    j = math.erfc(math.sqrt(z)) / r
    total, power, cn = j, 1.0, 1.0
    c, d = [0.0], [0.0]
    for n in range(1, 31):
        j = ((b + 2 * n - 2) * (b + 2 * n - 1) * j + (z + b + 2 * n - 1) * power) * v
        power *= t2
        cn /= 2 * n * (2 * n + 1)
        c.append(cn)
        d.append((b - 1.0) * cn + sum((b * i - n) * c[i] * d[n - i] for i in range(1, n)) / n)
        total += d[n] * j
        if abs(d[n] * j) <= sys.float_info.epsilon * total:
            break
    return 0.5 * math.exp(_log_gamma_ratio(a) - b * math.log(nu)) * r * total


def t_tail_probability(t: float, df: int) -> float:
    """Upper-tail probability P(T > t) of Student's t with df degrees of
    freedom: for t > 0 it is I_x(df/2, 1/2) / 2 at x = df / (df + t^2), and
    P(T > -t) = 1 - P(T > t).  For |t| >= 1 the continued fraction gives
    I_x directly; below it gives I_{1-x}(1/2, df/2) = 1 - I_x, which is at
    most about 0.7 there, so the subtraction loses little.  Above df = 200
    x rounds so close to 1 that the direct fraction loses about log2(df)
    bits, and `_normal_expansion_tail` takes its place."""
    if df < 1:
        raise VsrError("degrees of freedom must be >= 1")
    t = float(t)
    if t == 0.0:
        return 0.5
    if math.isinf(t):
        return 0.0 if t > 0 else 1.0
    a, b = df / 2.0, 0.5
    r = abs(t) / math.sqrt(df)
    u = r * r  # x = 1 / (1 + u) and 1 - x = u / (1 + u), without cancellation
    if abs(t) >= 1.0 and a > 100.0:
        tail = _normal_expansion_tail(u, a)
        return tail if t > 0 else 1.0 - tail
    log_u = 2.0 * math.log(r)
    log_1pu = math.log1p(u) if math.isfinite(u) else log_u  # 1 + u rounds to u
    # log of x^a (1 - x)^b / B(a, b)
    log_front = _log_gamma_ratio(a) - math.lgamma(b) - (a + b) * log_1pu + b * log_u
    if abs(t) >= 1.0:
        tail = 0.5 * math.exp(log_front) * _beta_fraction(a, b, 1.0 / (1.0 + u)) / a
    else:
        tail = 0.5 - 0.5 * math.exp(log_front) * _beta_fraction(b, a, u / (1.0 + u)) / b
    return tail if t > 0 else 1.0 - tail


def paired_t_test_one_tailed(acc_a, acc_b) -> tuple[float, float]:
    """One-tailed paired t-test that the accuracies in acc_a exceed those in
    acc_b.  Returns (t, p) with df = n - 1 and sample (n-1) stddev."""
    a = np.asarray(acc_a, dtype=float)
    b = np.asarray(acc_b, dtype=float)
    if a.shape != b.shape or a.ndim != 1:
        raise VsrError("paired test needs two equal-length vectors")
    n = len(a)
    if n < 2:
        raise VsrError("paired test needs at least 2 pairs")
    diff = a - b
    sd = diff.std(ddof=1)
    if sd == 0:
        raise VsrError("paired test undefined for zero-variance differences")
    t = float(diff.mean() / (sd / np.sqrt(n)))
    return t, t_tail_probability(t, n - 1)


def evaluate_sequences(refs: dict, hyps: dict, strip_ref_silence: bool = True,
                       to_visemes: bool = False):
    """Score hypothesis sequences against references keyed by sequence id.

    Returns (rows, confusion, totals) where rows are
    (id, counts, accuracy) in sorted id order.
    """
    missing = sorted(set(refs) - set(hyps))
    if missing:
        raise VsrError(f"missing hypotheses for: {', '.join(missing)}")
    rows = []
    alignments = []
    label_set = {}   # first-seen order
    for sid in sorted(refs):
        ref = list(refs[sid])
        hyp = list(hyps[sid])
        if to_visemes:
            ref, hyp = map_to_visemes(ref), map_to_visemes(hyp)
        if strip_ref_silence:
            ref = strip_internal_silence(ref)
        counts, pairs = align_nw(ref, hyp)
        rows.append((sid, counts, accuracy(counts) if counts.T else 0.0))
        alignments.append(pairs)
        label_set.update(dict.fromkeys(ref + hyp))
    confusion = confusion_matrix(alignments, list(label_set))
    totals = AlignmentCounts(
        T=sum(r[1].T for r in rows),
        C=sum(r[1].C for r in rows),
        S=sum(r[1].S for r in rows),
        D=sum(r[1].D for r in rows),
        I=sum(r[1].I for r in rows),
    )
    return rows, confusion, totals

