"""Domain -> topics assignments and topic-prevalence statistics.

Covers two inputs: externally produced top-list classifications, and
synthetic skew-matched classifications that stand in for a real top-1M
classification at desk scale. A `DomainClassification` is a CSR of
domain rows to sorted topic ids; synthesis builds it directly, and
prevalence is one bincount over its topic column. A synthetic
classification's prevalence also follows from its per-topic targets
alone (`skewed_prevalence`).

Classification file format: UTF-8, tab-separated,
`domain<TAB>comma-separated-topic-ids`, empty id list allowed (a domain
classified only as Unknown).
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Iterable, Mapping, Optional, Sequence

import numpy as np

from . import rng
from .taxonomy import Taxonomy, TextSource, read_lines


class ClassificationError(ValueError):
    """Raised for malformed classification files or infeasible skew specs."""

    def __init__(self, message: str, row: Optional[int] = None):
        self.row = row
        if row is not None:
            message = f"row {row}: {message}"
        super().__init__(message)


class DomainClassification:
    """Immutable mapping from domain name to its set of topic ids, as a CSR.

    `names` holds the domains in entry order, which is meaningful: it is
    the popularity rank order when the classification was synthesized or
    loaded from a ranked list. Row i's topic ids are
    `topics[indptr[i]:indptr[i + 1]]`, sorted; an empty row means the
    domain is classified only as Unknown. Readers look domains up
    through `rows_of` and `row`; the package keeps no per-domain set.
    """

    def __init__(self, entries: Mapping[str, Iterable[int]]):
        rows = [sorted(set(ts)) for ts in entries.values()]
        self.names: tuple[str, ...] = tuple(entries)
        self.indptr = np.zeros(len(rows) + 1, dtype=np.int64)
        np.cumsum([len(r) for r in rows], out=self.indptr[1:])
        self.topics = np.fromiter(itertools.chain.from_iterable(rows), dtype=np.int64, count=int(self.indptr[-1]))

    @classmethod
    def from_csr(cls, names: tuple[str, ...], indptr: np.ndarray, topics: np.ndarray) -> "DomainClassification":
        """A classification over `names` whose rows are already sorted."""
        obj = cls({})
        obj.names, obj.indptr, obj.topics = names, indptr, topics
        return obj

    @functools.cached_property
    def _row_of(self) -> dict[str, int]:
        return {d: i for i, d in enumerate(self.names)}

    def __len__(self) -> int:
        return len(self.names)

    def rows_of(self, domains: Sequence[str]) -> np.ndarray:
        """Row index of each domain, -1 for a domain not classified here."""
        if domains is self.names:
            return np.arange(len(self), dtype=np.int64)
        return np.fromiter((self._row_of.get(d, -1) for d in domains), dtype=np.int64, count=len(domains))

    def row(self, i: int) -> np.ndarray:
        return self.topics[self.indptr[i]:self.indptr[i + 1]]

    def domains(self) -> list[str]:
        return list(self.names)


@dataclass(frozen=True)
class PrevalenceTable:
    """Per-topic count of distinct domains carrying that topic."""

    counts: np.ndarray  # indexed by topic id, length omega + 1; index 0 unused
    total_domains: int

    def zero_count_topics(self) -> int:
        return int(np.sum(self.counts[1:] == 0))

    def max_count(self) -> int:
        return int(self.counts[1:].max())


def load_classification(source: TextSource, taxonomy: Taxonomy) -> DomainClassification:
    """Load `domain<TAB>id,id,...` rows, validating topic ids against the taxonomy.

    Raises ClassificationError on unknown topic ids or duplicate domains.
    """
    entries: dict[str, frozenset[int]] = {}
    for lineno, line in enumerate(read_lines(source), start=1):
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
                if not 1 <= tid <= taxonomy.omega:
                    raise ClassificationError(f"unknown topic id {tid}", row=lineno)
                ids.add(tid)
        entries[domain] = frozenset(ids)
    return DomainClassification(entries)


def classification_lines(classification: DomainClassification) -> list[str]:
    """`domain<TAB>id,id,...` rows, the file format `load_classification` reads."""
    return [
        f"{d}\t{','.join(map(str, classification.row(i).tolist()))}"
        for i, d in enumerate(classification.names)
    ]


def prevalence(classification: DomainClassification, taxonomy: Taxonomy) -> PrevalenceTable:
    """Count, per topic, the distinct domains whose topic set contains it; ids outside 1..omega are refused."""
    topics = classification.topics
    outside = (topics < 1) | (topics > taxonomy.omega)
    if outside.any():
        raise ClassificationError(f"topic id {topics[outside][0]} is not in the taxonomy's 1..{taxonomy.omega}")
    counts = np.bincount(topics, minlength=taxonomy.omega + 1)
    return PrevalenceTable(counts=counts, total_domains=len(classification))


@dataclass(frozen=True)
class SkewSpec:
    """Target prevalence statistics for a synthetic classification.

    zero_topics: exact number of topics appearing on no domain at all.
    top_fraction: share of domains carrying the single most common topic.
    median: target median of the per-topic domain counts (over all topics).
    Synthesis meets it only when the floor band covers the median rank,
    that is when the head is shorter than omega - (omega - 1) // 2 ranks.
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
# Fractions of the domain list that floor topics draw from; head topics
# draw from the whole list.
FLOOR_WINDOW = (0.4, 1.0)


def _target_counts(
    omega: int,
    n_domains: int,
    spec: SkewSpec,
    seed: int,
    head_topics: int,
    head_floor: int,
) -> tuple[np.ndarray, int]:
    """Per-rank domain counts, descending, and the head size.

    The head ranks follow a power law from the top topic's count down to
    `head_floor`; the ranks after it form a floor band jittered around
    the median target. If the realized median misses its target, the
    count at the median rank is set to it.
    """
    n_nonzero = omega - spec.zero_topics
    c1 = max(1, round(spec.top_fraction * n_domains))
    median_pos = (omega - 1) // 2  # 0-based position of the median in ascending order
    # Rank (1-based, descending counts) whose count must equal the median.
    median_rank = omega - median_pos
    if median_rank > n_nonzero:
        raise ClassificationError("zero_topics already pushes the median to 0")
    m = max(1.0, spec.median)

    head = max(1, min(head_topics, n_nonzero - 1))
    alpha = math.log(c1 / head_floor) / math.log(head) if head > 1 else 1.0
    ranks = np.arange(1, n_nonzero + 1, dtype=float)
    counts = np.maximum(1, np.round(c1 * ranks**-alpha)).astype(np.int64)
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
    return counts, head


def _skew_targets(
    taxonomy: Taxonomy,
    n_domains: int,
    skew_spec: SkewSpec,
    seed: int,
    head_topics: int,
    head_floor: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Each nonzero topic's id, target domain count and window [lo, hi) of the domain list.

    Validates the spec. The topic ids take the popularity ranks of
    `_target_counts` in a seeded permutation. The `head_topics` most
    common topics draw from the whole list, the rest from `FLOOR_WINDOW`;
    a topic whose count does not fit its window is refused.
    """
    omega = taxonomy.omega
    skew_spec.validate(omega, n_domains)
    counts, head = _target_counts(omega, n_domains, skew_spec, seed, head_topics, head_floor)
    counts = np.minimum(counts, n_domains)

    # Which topic ids take which popularity rank (seeded, reproducible).
    topic_perm = np.argsort(rng.counter_stream(omega, seed, rng.TAG_SYNTH_CLASSIFICATION, 1))
    topic_ids = np.arange(1, omega + 1, dtype=np.int64)[topic_perm]
    nonzero_ids = topic_ids[: len(counts)]

    floor_lo, floor_hi = (int(f * n_domains) for f in FLOOR_WINDOW)
    lo = np.full(len(counts), floor_lo, dtype=np.int64)
    hi = np.full(len(counts), floor_hi, dtype=np.int64)
    lo[:head], hi[:head] = 0, n_domains
    over = np.flatnonzero(counts > hi - lo)
    if over.size:
        i = over[0]
        raise ClassificationError(
            f"topic {nonzero_ids[i]} needs {counts[i]} domains, more than the "
            f"{hi[i] - lo[i]} of its window"
        )
    return nonzero_ids, counts, lo, hi


def skewed_prevalence(
    taxonomy: Taxonomy,
    n_domains: int,
    skew_spec: SkewSpec,
    seed: int,
    head_topics: int,
    head_floor: int,
) -> PrevalenceTable:
    """The prevalence of `synthesize_skewed_classification` under the same
    arguments, without drawing a domain.

    Synthesis gives each topic exactly its target count of distinct
    domains, so the table is the targets of `_skew_targets`; it refuses
    what synthesis refuses.
    """
    topic_ids, targets, _, _ = _skew_targets(taxonomy, n_domains, skew_spec, seed, head_topics, head_floor)
    counts = np.zeros(taxonomy.omega + 1, dtype=np.int64)
    counts[topic_ids] = targets
    return PrevalenceTable(counts=counts, total_domains=n_domains)


def synthesize_skewed_classification(
    taxonomy: Taxonomy,
    n_domains: int,
    skew_spec: SkewSpec,
    seed: int,
    head_topics: int,
    head_floor: int,
) -> DomainClassification:
    """Generate a classification whose prevalence matches a skew spec.

    Domains are emitted in popularity-rank order under synthetic names.
    `_skew_targets` sets each topic's domain count and window, and
    `skewed_prevalence` reads the same targets: the `head_topics` most
    common topics follow a power law down to `head_floor` domains and
    draw uniformly from the whole list; the rest form a floor band
    around the median target and draw from `FLOOR_WINDOW`, which
    controls how often they show up in sampled browsing histories. A
    topic whose count does not fit its window is refused.

    A topic's domains are the first distinct values of its keyed draw
    stream (tag TAG_SYNTH_CLASSIFICATION, topic id, round, position),
    drawn for all topics at once in rounds of max(2 * short, 16).

    The realized PrevalenceTable has exactly `zero_topics` zero-count
    topics and hits top_fraction within 10%. It hits the median within
    10% only when the floor band covers the median rank (see SkewSpec).
    Fixed seed gives identical output.
    """
    nonzero_ids, counts, lo, hi = _skew_targets(taxonomy, n_domains, skew_spec, seed, head_topics, head_floor)

    def draw(counter, r, j):
        u = rng.uniform(seed, rng.TAG_SYNTH_CLASSIFICATION, nonzero_ids[r], counter, j)
        return (lo[r] + u * (hi[r] - lo[r])).astype(np.int64)

    keys = rng.distinct_draws(counts, lambda short: np.maximum(2 * short, 16), draw, n_domains)
    # Regroup by domain; each domain lists its topic ids in ascending order.
    rows, doms = np.divmod(keys, n_domains)
    tids = nonzero_ids[rows]
    by_domain = np.lexsort((tids, doms))
    indptr = np.zeros(n_domains + 1, dtype=np.int64)
    np.cumsum(np.bincount(doms, minlength=n_domains), out=indptr[1:])
    width = len(str(n_domains))
    names = tuple(map(f"site-%0{width}d.example".__mod__, range(1, n_domains + 1)))
    return DomainClassification.from_csr(names, indptr, tids[by_domain])
