"""Output filtering of classifier confidence scores, plus set-comparison metrics.

The filter reproduces the browser's post-processing of a 350-entry
confidence vector (one score per taxonomy topic plus Unknown): keep the
top max_topics scores, short-circuit to Unknown when its share of that
top mass exceeds min_unknown_score, then keep topics passing both the
absolute and the normalized score thresholds.

Score-vector file format: one domain per line,
`domain<TAB>350 space-separated floats`, index order = taxonomy id order
with Unknown last.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .classification import ClassificationError, DomainClassification
from .taxonomy import UNKNOWN_TOPIC_ID, Taxonomy, TextSource, read_lines

DEFAULT_MAX_TOPICS = 5
DEFAULT_MIN_UNKNOWN_SCORE = 0.8
DEFAULT_MIN_TOPIC_SCORE = 0.01
DEFAULT_MIN_NORMALIZED_SCORE = 0.25


@dataclass(frozen=True)
class FilterParams:
    max_topics: int = DEFAULT_MAX_TOPICS
    min_unknown_score: float = DEFAULT_MIN_UNKNOWN_SCORE
    min_topic_score: float = DEFAULT_MIN_TOPIC_SCORE
    min_normalized_score_within_top_n: float = DEFAULT_MIN_NORMALIZED_SCORE

    def __post_init__(self):
        if self.max_topics < 1:
            raise ValueError(f"max_topics must be >= 1, got {self.max_topics}")
        for name in ("min_unknown_score", "min_topic_score", "min_normalized_score_within_top_n"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {v}")


@dataclass(frozen=True)
class ScoreVector:
    """Confidence scores for all omega topics plus Unknown (last entry)."""

    scores: np.ndarray
    omega: int

    @classmethod
    def from_values(cls, values: Sequence[float], omega: int) -> "ScoreVector":
        arr = np.asarray(values, dtype=np.float64)
        if arr.shape != (omega + 1,):
            raise ValueError(f"expected {omega + 1} scores, got {arr.shape}")
        if not np.all(np.isfinite(arr)) or arr.min() < 0.0 or arr.max() > 1.0:
            raise ValueError("scores must be finite and in [0, 1]")
        return cls(scores=arr, omega=omega)

    @classmethod
    def from_mapping(cls, scores_by_topic: dict[int, float], omega: int) -> "ScoreVector":
        """Build from {topic_id: score} with UNKNOWN_TOPIC_ID for Unknown."""
        arr = np.zeros(omega + 1, dtype=np.float64)
        for tid, score in scores_by_topic.items():
            arr[omega if tid == UNKNOWN_TOPIC_ID else tid - 1] = score
        return cls.from_values(arr, omega)


def chrome_filter(scores: ScoreVector, params: FilterParams = FilterParams()) -> frozenset[int]:
    """Filter a confidence vector down to the predicted topic-id set.

    Returns {UNKNOWN_TOPIC_ID} when Unknown dominates the top scores or
    when no topic survives the thresholds (including the all-zero vector,
    whose 0/0 ratios are treated as failing).
    """
    omega = scores.omega
    # index i < omega is topic id i+1; index omega is Unknown (tie id 0).
    tie_ids = np.concatenate([np.arange(1, omega + 1), [UNKNOWN_TOPIC_ID]])
    order = np.lexsort((tie_ids, -scores.scores))
    top = order[: params.max_topics]

    top_sum = float(scores.scores[top].sum())
    unknown_score = float(scores.scores[omega]) if omega in top else 0.0

    if top_sum > 0.0 and unknown_score / top_sum > params.min_unknown_score:
        return frozenset({UNKNOWN_TOPIC_ID})

    kept = []
    for idx in top:
        if idx == omega:
            continue
        s = float(scores.scores[idx])
        if s < params.min_topic_score:
            continue
        if top_sum <= 0.0 or s / top_sum < params.min_normalized_score_within_top_n:
            continue
        kept.append(int(idx) + 1)
    if not kept:
        return frozenset({UNKNOWN_TOPIC_ID})
    return frozenset(kept)


@dataclass(frozen=True)
class SimilarityReport:
    jaccard: float
    dice: float
    overlap: float
    exact_match: bool
    at_least_one: bool


def set_similarity(actual: Iterable[int], predicted: Iterable[int]) -> SimilarityReport:
    """Jaccard / Dice / overlap coefficients between two topic sets.

    Conventions for empty sets: both empty counts as full agreement (both
    are "Unknown"), exactly one empty scores zero on all coefficients.
    """
    a, b = frozenset(actual), frozenset(predicted)
    if not a and not b:
        return SimilarityReport(1.0, 1.0, 1.0, exact_match=True, at_least_one=True)
    if not a or not b:
        return SimilarityReport(0.0, 0.0, 0.0, exact_match=False, at_least_one=False)
    inter = len(a & b)
    jaccard = inter / len(a | b)
    dice = 2 * inter / (len(a) + len(b))
    overlap = inter / min(len(a), len(b))
    return SimilarityReport(
        jaccard=jaccard,
        dice=dice,
        overlap=overlap,
        exact_match=(a == b),
        at_least_one=inter >= 1,
    )


@dataclass(frozen=True)
class ClassificationComparison:
    """Aggregate agreement between a ground-truth and a predicted classification."""

    n_domains: int
    mean_jaccard: float
    mean_dice: float
    mean_overlap: float
    all_correct_ratio: float
    at_least_one_ratio: float
    accuracy: float
    balanced_accuracy: float


def compare_classifications(
    truth: DomainClassification, predicted: DomainClassification, taxonomy: Taxonomy
) -> ClassificationComparison:
    """Compare predictions to ground truth over the shared domain set.

    accuracy is the micro-averaged recall over (domain, topic) truth
    pairs; balanced_accuracy is the unweighted mean of per-topic recalls
    over topics present in the truth at least once.
    """
    shared = [d for d in truth.entries if d in predicted]
    if not shared:
        raise ClassificationError("no shared domains between truth and prediction")

    jaccards, dices, overlaps = [], [], []
    n_exact = n_any = 0
    per_topic_tp = np.zeros(taxonomy.omega + 1, dtype=np.int64)
    per_topic_truth = np.zeros(taxonomy.omega + 1, dtype=np.int64)

    for d in shared:
        a, b = truth.topics_of(d), predicted.topics_of(d)
        rep = set_similarity(a, b)
        jaccards.append(rep.jaccard)
        dices.append(rep.dice)
        overlaps.append(rep.overlap)
        n_exact += rep.exact_match
        n_any += rep.at_least_one
        for tid in a:
            per_topic_truth[tid] += 1
            if tid in b:
                per_topic_tp[tid] += 1

    total_truth = int(per_topic_truth.sum())
    present = per_topic_truth > 0
    recalls = per_topic_tp[present] / per_topic_truth[present]
    return ClassificationComparison(
        n_domains=len(shared),
        mean_jaccard=float(np.mean(jaccards)),
        mean_dice=float(np.mean(dices)),
        mean_overlap=float(np.mean(overlaps)),
        all_correct_ratio=n_exact / len(shared),
        at_least_one_ratio=n_any / len(shared),
        accuracy=float(per_topic_tp.sum() / total_truth) if total_truth else math.nan,
        balanced_accuracy=float(recalls.mean()) if len(recalls) else math.nan,
    )


def load_score_vectors(source: TextSource, taxonomy: Taxonomy) -> dict[str, ScoreVector]:
    """Load `domain<TAB>350 space-separated floats` rows."""
    out: dict[str, ScoreVector] = {}
    for lineno, line in enumerate(read_lines(source), start=1):
        if not line.strip():
            continue
        domain, _, raw = line.partition("\t")
        values = raw.split()
        if len(values) != taxonomy.omega + 1:
            raise ClassificationError(
                f"expected {taxonomy.omega + 1} scores for {domain!r}, got {len(values)}",
                row=lineno,
            )
        if domain in out:
            raise ClassificationError(f"duplicate domain {domain!r}", row=lineno)
        out[domain] = ScoreVector.from_values([float(v) for v in values], taxonomy.omega)
    return out


def classify_scores(vectors: dict[str, ScoreVector], params: FilterParams = FilterParams()) -> DomainClassification:
    """Run the filter over a batch of score vectors, Unknown becoming the empty set."""
    entries = {}
    for domain, vec in vectors.items():
        topics = chrome_filter(vec, params)
        entries[domain] = frozenset() if topics == {UNKNOWN_TOPIC_ID} else topics
    return DomainClassification(entries)
