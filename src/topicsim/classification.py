"""Domain -> topics assignments and topic-prevalence statistics.

Covers three inputs: the bundled hand-annotation-style static mapping,
externally produced top-list classifications, and synthetic skew-matched
classifications that stand in for a real top-1M classification at desk
scale.

Classification file format: UTF-8, tab-separated,
`domain<TAB>comma-separated-topic-ids`, empty id list allowed (a domain
classified only as Unknown).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from importlib import resources
from pathlib import Path
from typing import IO, Iterable, Mapping, Optional, Union

import numpy as np

from . import rng
from .taxonomy import Taxonomy


class ClassificationError(ValueError):
    """Raised for malformed classification files or infeasible skew specs."""

    def __init__(self, message: str, row: Optional[int] = None):
        self.row = row
        if row is not None:
            message = f"row {row}: {message}"
        super().__init__(message)


class DomainClassification:
    """Immutable mapping from domain name to its set of topic ids.

    An empty topic set means the domain is classified only as Unknown.
    Entry order is meaningful: it is the popularity rank order when the
    classification was synthesized or loaded from a ranked list.
    """

    def __init__(self, entries: Mapping[str, Iterable[int]], source_label: str = ""):
        self.entries: dict[str, frozenset[int]] = {
            d: frozenset(ts) for d, ts in entries.items()
        }
        self.source_label = source_label

    def __len__(self) -> int:
        return len(self.entries)

    def __contains__(self, domain: str) -> bool:
        return domain in self.entries

    def topics_of(self, domain: str) -> frozenset[int]:
        return self.entries.get(domain, frozenset())

    def domains(self) -> list[str]:
        return list(self.entries)

    def empty_domain_count(self) -> int:
        return sum(1 for ts in self.entries.values() if not ts)

    def topics_per_domain(self) -> np.ndarray:
        return np.array([len(ts) for ts in self.entries.values()], dtype=np.int64)


@dataclass(frozen=True)
class PrevalenceTable:
    """Per-topic count of distinct domains carrying that topic."""

    counts: np.ndarray  # indexed by topic id, length omega + 1; index 0 unused
    total_domains: int

    def count_of(self, topic_id: int) -> int:
        return int(self.counts[topic_id])

    def zero_count_topics(self) -> int:
        return int(np.sum(self.counts[1:] == 0))

    def median_count(self) -> float:
        return float(np.median(self.counts[1:]))

    def max_count(self) -> int:
        return int(self.counts[1:].max())


def load_classification(
    source: Union[str, Path, IO[str]],
    taxonomy: Taxonomy,
    source_label: str = "",
    max_topics_per_domain: Optional[int] = None,
) -> DomainClassification:
    """Load `domain<TAB>id,id,...` rows, validating topic ids against the taxonomy.

    Raises ClassificationError on unknown topic ids or duplicate domains.
    `max_topics_per_domain` optionally enforces the static-mapping-style
    cap on per-domain topic set size.
    """
    if hasattr(source, "read"):
        lines = source.read().splitlines()
        label = source_label or getattr(source, "name", "")
    else:
        lines = Path(source).read_text(encoding="utf-8").splitlines()
        label = source_label or str(source)

    entries: dict[str, frozenset[int]] = {}
    for lineno, line in enumerate(lines, start=1):
        if not line.strip() or line.startswith("#"):
            continue
        domain, _, raw_ids = line.partition("\t")
        domain = domain.strip()
        if not domain:
            raise ClassificationError("empty domain name", row=lineno)
        if domain in entries:
            raise ClassificationError(f"duplicate domain {domain!r}", row=lineno)
        ids = set()
        if raw_ids.strip():
            for token in raw_ids.strip().split(","):
                try:
                    tid = int(token)
                except ValueError:
                    raise ClassificationError(f"non-integer topic id {token!r}", row=lineno) from None
                if tid not in taxonomy or tid == 0:
                    raise ClassificationError(f"unknown topic id {tid}", row=lineno)
                ids.add(tid)
        if max_topics_per_domain is not None and len(ids) > max_topics_per_domain:
            raise ClassificationError(
                f"{domain!r} has {len(ids)} topics, cap is {max_topics_per_domain}", row=lineno
            )
        entries[domain] = frozenset(ids)
    return DomainClassification(entries, source_label=label)


def save_classification(classification: DomainClassification, path: Union[str, Path]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for domain, topics in classification.entries.items():
            fh.write(f"{domain}\t{','.join(map(str, sorted(topics)))}\n")


_BUNDLED_STATIC: Optional[DomainClassification] = None


def bundled_static_mapping(taxonomy: Taxonomy) -> DomainClassification:
    """The bundled ~9.25k-domain hand-annotation-style mapping."""
    global _BUNDLED_STATIC
    if _BUNDLED_STATIC is None:
        ref = resources.files("topicsim.data").joinpath("static_mapping.tsv")
        with ref.open("r", encoding="utf-8") as fh:
            _BUNDLED_STATIC = load_classification(fh, taxonomy, source_label="bundled-static-mapping")
    return _BUNDLED_STATIC


def prevalence(classification: DomainClassification, taxonomy: Taxonomy) -> PrevalenceTable:
    """Count, per topic, the distinct domains whose topic set contains it."""
    counts = np.zeros(taxonomy.omega + 1, dtype=np.int64)
    for topics in classification.entries.values():
        for tid in topics:
            counts[tid] += 1
    return PrevalenceTable(counts=counts, total_domains=len(classification))


@dataclass(frozen=True)
class SkewSpec:
    """Target prevalence statistics for a synthetic classification.

    zero_topics: exact number of topics appearing on no domain at all.
    top_fraction: share of domains carrying the single most common topic.
    median: target median of the per-topic domain counts (over all topics).
    """

    zero_topics: int
    top_fraction: float
    median: float

    def validate(self, omega: int, n_domains: int) -> None:
        if not 0 <= self.zero_topics < omega:
            raise ClassificationError(f"zero_topics must be in [0, {omega}), got {self.zero_topics}")
        if not 0.0 < self.top_fraction <= 1.0:
            raise ClassificationError(f"top_fraction must be in (0, 1], got {self.top_fraction}")
        if self.median < 0 or self.median > n_domains:
            raise ClassificationError(f"median {self.median} infeasible for {n_domains} domains")
        if self.median > self.top_fraction * n_domains:
            raise ClassificationError("median target exceeds the top topic's count")


SKEW_TOLERANCE = 0.10  # relative tolerance on top_fraction and median

def _target_counts(
    omega: int,
    n_domains: int,
    spec: SkewSpec,
    seed: int,
    head_topics: Optional[int],
    head_floor: Optional[int],
) -> tuple[np.ndarray, np.ndarray]:
    """Per-rank domain counts plus a head mask per rank.

    With head_topics=None the exponent is fitted so the power law passes
    through the median position (a plain fitted power law), and the head
    is the ranks above max(10, median). With an explicit head size the
    power law is truncated onto a floor band jittered around the median
    target. Returns (counts desc, head mask).
    """
    n_nonzero = omega - spec.zero_topics
    c1 = max(1, round(spec.top_fraction * n_domains))
    median_pos = (omega - 1) // 2  # 0-based position of the median in ascending order
    # Rank (1-based, descending counts) whose count must equal the median.
    median_rank = omega - median_pos
    if median_rank > n_nonzero:
        raise ClassificationError("zero_topics already pushes the median to 0")
    m = max(1.0, spec.median)

    ranks = np.arange(1, n_nonzero + 1, dtype=float)
    if head_topics is None:
        alpha = math.log(c1 / m) / math.log(median_rank) if median_rank > 1 else 1.0
        counts = np.maximum(1, np.round(c1 * ranks**-alpha)).astype(np.int64)
        is_head = counts > max(10, spec.median)
    else:
        head = max(1, min(head_topics, n_nonzero - 1))
        floor_level = head_floor if head_floor is not None else max(2, round(2 * m))
        alpha = math.log(c1 / floor_level) / math.log(head) if head > 1 else 1.0
        counts = np.maximum(1, np.round(c1 * ranks**-alpha)).astype(np.int64)
        is_head = np.arange(n_nonzero) < head
        jitter = rng.counter_stream(n_nonzero - head, seed, rng.TAG_SYNTH_CLASSIFICATION, 0xBAD)
        lo = max(1, round(0.5 * m))
        hi = max(lo + 1, round(1.5 * m))
        counts[head:] = lo + np.floor(jitter * (hi - lo + 1)).astype(np.int64)
    counts[0] = c1

    # Nudge the count at the median rank until the realized median matches.
    full = np.concatenate([counts, np.zeros(spec.zero_topics, dtype=np.int64)])
    realized = np.median(full)
    if abs(realized - spec.median) > SKEW_TOLERANCE * max(spec.median, 1.0):
        order = np.argsort(counts, kind="stable")[::-1]
        idx = order[median_rank - 1]
        counts[idx] = max(1, round(spec.median))
    return counts, is_head


def synthesize_skewed_classification(
    taxonomy: Taxonomy,
    n_domains: int,
    skew_spec: SkewSpec,
    seed: int,
    head_topics: Optional[int] = None,
    head_floor: Optional[int] = None,
    head_placement: Optional[tuple[float, float]] = None,
    tail_placement: tuple[float, float] = (0.05, 1.0),
    source_label: str = "synthetic",
) -> DomainClassification:
    """Generate a classification whose prevalence matches a skew spec.

    Domains are emitted in popularity-rank order under synthetic names.
    Head topics are biased toward popular domains unless an explicit
    `head_placement` window is given; floor topics land in
    `tail_placement`. The windows are fractions of the domain list and
    control how often each band shows up in sampled browsing histories;
    a topic whose count does not fit its window is refused.

    A topic's domains are the first distinct values of its keyed draw
    stream (tag TAG_SYNTH_CLASSIFICATION, topic id, round, position),
    drawn for all topics at once in rounds of max(2 * short, 16).

    The realized PrevalenceTable has exactly `zero_topics` zero-count
    topics and hits top_fraction and median within 10%. Fixed seed gives
    identical output.
    """
    omega = taxonomy.omega
    skew_spec.validate(omega, n_domains)
    counts, is_head = _target_counts(omega, n_domains, skew_spec, seed, head_topics, head_floor)
    counts = np.minimum(counts, n_domains)

    # Which topic ids take which popularity rank (seeded, reproducible).
    topic_perm = np.argsort(rng.counter_stream(omega, seed, rng.TAG_SYNTH_CLASSIFICATION, 1))
    topic_ids = np.arange(1, omega + 1, dtype=np.int64)[topic_perm]
    nonzero_ids = topic_ids[: len(counts)]

    ranks = np.arange(n_domains, dtype=np.float64)
    head_weights = (ranks + 10.0) ** -0.75
    head_cdf = np.cumsum(head_weights / head_weights.sum())

    def window(frac: tuple[float, float]) -> tuple[int, int]:
        lo = int(frac[0] * n_domains)
        hi = max(lo + 1, int(frac[1] * n_domains))
        if lo < 0 or hi > n_domains:
            raise ClassificationError(f"placement window {frac} falls outside the {n_domains} domains")
        return lo, hi

    # Each topic draws from its window [lo, hi), or rank-biased if `biased`.
    tail_lo, tail_hi = window(tail_placement)
    lo = np.where(is_head, 0, tail_lo)
    hi = np.where(is_head, n_domains, tail_hi)
    biased = is_head
    if head_placement is not None:
        lo[is_head], hi[is_head] = window(head_placement)
        biased = np.zeros_like(is_head)
    over = np.flatnonzero(counts > hi - lo)
    if over.size:
        i = over[0]
        frac = head_placement if is_head[i] else tail_placement
        raise ClassificationError(
            f"topic {nonzero_ids[i]} needs {counts[i]} domains, more than the "
            f"{hi[i] - lo[i]} of its placement window {frac}"
        )

    def draw(counter, r, j):
        u = rng.uniform(seed, rng.TAG_SYNTH_CLASSIFICATION, nonzero_ids[r], counter, j)
        idxs = (lo[r] + u * (hi[r] - lo[r])).astype(np.int64)
        b = biased[r]
        idxs[b] = np.minimum(np.searchsorted(head_cdf, u[b]), n_domains - 1)
        return idxs

    keys = rng.distinct_draws(counts, lambda short: np.maximum(2 * short, 16), draw, n_domains)
    # Regroup by domain; each domain lists its topics in rank order.
    rows, doms = np.divmod(keys, n_domains)
    by_domain = np.argsort(doms, kind="stable")
    topics = nonzero_ids[rows[by_domain]].tolist()
    bounds = np.searchsorted(doms[by_domain], np.arange(n_domains + 1)).tolist()

    width = len(str(n_domains))
    entries = {
        f"site-{str(i + 1).zfill(width)}.example": topics[a:b]
        for i, (a, b) in enumerate(zip(bounds, bounds[1:]))
    }
    return DomainClassification(entries, source_label=source_label)
