"""Synthetic user populations over a totally ordered top-domain list.

The total order concatenates: a fixed head of globally dominant sites,
then each rank bucket of the source top list in ascending bucket order,
sorted inside the bucket by the registrable-domain (eTLD+1) rank of a
second list, unranked domains after ranked ones, ties lexicographic.

Users draw a unique-domain count from a configurable model, then that
many distinct domains weighted by a traffic model. Observed topics are
the union of the classification sets of the visited domains; the stable
top-T interest profile samples uniformly from observed topics, padded
with uniform taxonomy draws when fewer than T were observed.

All sampling is keyed on (seed, tag, user_id, counter), so generation
is reproducible and needs no generator state: users are drawn as arrays,
one block of `POPULATION_BLOCK_USERS` at a time, each block's domain
draws in rounds for the users still short of their count, its observed
topics gathered from a domain->topic CSR, and its profiles picked by one
segmented sort of keyed uniforms. The result does not depend on the
block size.

File formats: rank-bucket CSV `origin,rank_bucket`; rank list CSV
`rank,domain`; count-histogram CSV `unique_domain_count,user_fraction`;
population output NDJSON, one user per line.
"""

from __future__ import annotations

import contextlib
import csv
import itertools
import json
import logging
import math
from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path
from typing import IO, Iterable, Mapping, Optional, Sequence, Union

import numpy as np

from . import rng
from .classification import DomainClassification
from .taxonomy import Taxonomy

logger = logging.getLogger(__name__)

# Globally dominant sites pinned to the head of the total order.
DEFAULT_FIXED_TOP = (
    "www.google.com",
    "www.youtube.com",
    "www.facebook.com",
    "www.whatsapp.com",
    "www.roblox.com",
    "www.amazon.com",
)

BUCKET_LABELS = ("1k", "5k", "10k", "50k", "100k", "500k", "1M")
_BUCKET_SIZES = {"1k": 1_000, "5k": 5_000, "10k": 10_000, "50k": 50_000,
                 "100k": 100_000, "500k": 500_000, "1M": 1_000_000}


class PopulationError(ValueError):
    pass


@dataclass(frozen=True)
class RankedDomainList:
    """Domains in total-order positions 1..M, no duplicates."""

    domains: tuple[str, ...]

    def __post_init__(self):
        if len(set(self.domains)) != len(self.domains):
            raise PopulationError("ranked domain list contains duplicates")

    def __len__(self) -> int:
        return len(self.domains)


# --- eTLD+1 ------------------------------------------------------------

_SUFFIXES: Optional[frozenset[str]] = None


def _public_suffixes() -> frozenset[str]:
    global _SUFFIXES
    if _SUFFIXES is None:
        ref = resources.files("topicsim.data").joinpath("public_suffixes.dat")
        lines = ref.read_text(encoding="utf-8").splitlines()
        _SUFFIXES = frozenset(
            ln.strip() for ln in lines if ln.strip() and not ln.startswith("#")
        )
    return _SUFFIXES


def etld_plus_one(hostname: str) -> str:
    """Registrable domain under the bundled suffix snapshot.

    Falls back to the last two labels when no suffix matches.
    """
    host = hostname.strip().lower().rstrip(".")
    if host.startswith(("http://", "https://")):
        host = host.split("://", 1)[1].split("/", 1)[0]
    labels = host.split(".")
    if len(labels) <= 1:
        return host
    suffixes = _public_suffixes()
    # Candidates shrink as i grows, so the first hit is the longest match.
    for i in range(1, len(labels)):
        if ".".join(labels[i:]) in suffixes:
            return ".".join(labels[i - 1:])
    return ".".join(labels[-2:])


# --- total order --------------------------------------------------------


def _normalize_bucket(raw: Union[str, int]) -> str:
    s = str(raw).strip()
    if s in _BUCKET_SIZES:
        return s
    try:
        size = int(s)
    except ValueError:
        raise PopulationError(f"unknown rank bucket {raw!r}") from None
    for label, n in _BUCKET_SIZES.items():
        if n == size:
            return label
    raise PopulationError(f"unknown rank bucket {raw!r}")


def build_total_order(
    crux_bins: Mapping[str, Union[str, int]],
    tranco_ranks: Mapping[str, int],
    fixed_top: Sequence[str] = DEFAULT_FIXED_TOP,
    radar_order: Sequence[str] = (),
) -> RankedDomainList:
    """Total order over bucketed domains.

    crux_bins maps each origin to its rank bucket; tranco_ranks maps
    eTLD+1 to rank. fixed_top domains must be present in crux_bins and
    take positions 1..len(fixed_top) in the given order. radar_order is
    an optional secondary tie-breaker (position in a global eTLD+1
    ranking) applied after the primary rank and before the lexicographic
    fallback.
    """
    buckets: dict[str, list[str]] = {label: [] for label in BUCKET_LABELS}
    seen: dict[str, str] = {}
    for domain, raw_bucket in crux_bins.items():
        label = _normalize_bucket(raw_bucket)
        if domain in seen:
            raise PopulationError(f"domain {domain!r} appears in multiple buckets")
        seen[domain] = label
        buckets[label].append(domain)

    for d in fixed_top:
        if d not in seen:
            raise PopulationError(f"fixed_top domain {d!r} not present in the input")
    fixed_set = set(fixed_top)
    radar_pos = {d: i for i, d in enumerate(radar_order)}
    big = 1 << 60

    def sort_key(domain: str):
        e = etld_plus_one(domain)
        return (tranco_ranks.get(e, big), radar_pos.get(e, big), domain)

    ordered: list[str] = list(fixed_top)
    for label in BUCKET_LABELS:
        members = [d for d in buckets[label] if d not in fixed_set]
        ordered.extend(sorted(members, key=sort_key))
    return RankedDomainList(domains=tuple(ordered))


def load_bucket_file(source: Union[str, Path, IO[str]]) -> dict[str, str]:
    """CSV `origin,rank_bucket` (header optional)."""
    out: dict[str, str] = {}
    with _open(source) as fh:
        for row in csv.reader(fh):
            if not row or row[0].lower() in ("origin", "domain"):
                continue
            out[row[0].strip()] = row[1].strip()
    return out


def load_rank_file(source: Union[str, Path, IO[str]]) -> dict[str, int]:
    """CSV `rank,domain` (header optional)."""
    out: dict[str, int] = {}
    with _open(source) as fh:
        for row in csv.reader(fh):
            if not row or row[0].lower() == "rank":
                continue
            out[row[1].strip()] = int(row[0])
    return out


def _open(source):
    if hasattr(source, "read"):
        return contextlib.nullcontext(source)
    return open(source, "r", encoding="utf-8", newline="")


# --- traffic & count models ---------------------------------------------


@dataclass(frozen=True)
class TrafficModel:
    """Visit-probability distribution over total-order positions.

    kind "zipf": weight 1/rank^exponent. kind "binned-empirical":
    probability mass per rank bucket, spread uniformly inside the bucket.
    """

    kind: str = "zipf"
    exponent: float = 1.0
    bin_weights: Mapping[str, float] = field(default_factory=dict)

    def weights(self, m: int) -> np.ndarray:
        if self.kind == "zipf":
            w = np.arange(1, m + 1, dtype=np.float64) ** -self.exponent
        elif self.kind == "binned-empirical":
            w = np.zeros(m, dtype=np.float64)
            lo = 0
            for label in BUCKET_LABELS:
                hi = min(_BUCKET_SIZES[label], m)
                if hi <= lo:
                    continue
                mass = float(self.bin_weights.get(label, 0.0))
                w[lo:hi] = mass / (hi - lo)
                lo = hi
            if w.sum() <= 0:
                raise PopulationError("binned traffic model has no mass on the list")
        else:
            raise PopulationError(f"unknown traffic model kind {self.kind!r}")
        w /= w.sum()
        if abs(w.sum() - 1.0) > 1e-9:
            raise PopulationError("traffic weights do not normalize")
        return w


@dataclass(frozen=True)
class UniqueDomainCountModel:
    """Distribution of the number of unique domains a user visits per epoch.

    kind "lognormal": exp(N(mu, sigma)) rounded, clamped to [minimum,
    maximum]. kind "empirical-histogram": integer support with explicit
    probabilities. The lognormal defaults approximate the published
    week-scale shape: median around 30 unique domains, long right tail.
    """

    kind: str = "lognormal"
    mu: float = math.log(30.0)
    sigma: float = 0.85
    minimum: int = 1
    maximum: int = 10_000
    support: tuple[int, ...] = ()
    probabilities: tuple[float, ...] = ()

    def __post_init__(self):
        if self.kind == "empirical-histogram":
            if len(self.support) != len(self.probabilities) or not self.support:
                raise PopulationError("histogram model needs matching support/probabilities")
            if any(k < 1 for k in self.support):
                raise PopulationError("histogram support must be positive integers")
            total = float(sum(self.probabilities))
            if abs(total - 1.0) > 1e-6:
                raise PopulationError(f"histogram probabilities sum to {total}, expected 1")
        elif self.kind != "lognormal":
            raise PopulationError(f"unknown count model kind {self.kind!r}")

    def sample(self, n: int, seed: int) -> np.ndarray:
        u = rng.counter_stream(n, seed, rng.TAG_DOMAIN_COUNT)
        if self.kind == "lognormal":
            # Inverse-CDF via the probit; u is strictly inside (0, 1).
            z = np.sqrt(2.0) * _erfinv(2.0 * np.clip(u, 1e-12, 1 - 1e-12) - 1.0)
            k = np.rint(np.exp(self.mu + self.sigma * z)).astype(np.int64)
            return np.clip(k, self.minimum, self.maximum)
        cdf = np.cumsum(np.asarray(self.probabilities, dtype=np.float64))
        idx = np.searchsorted(cdf, u, side="right")
        idx = np.minimum(idx, len(self.support) - 1)
        return np.asarray(self.support, dtype=np.int64)[idx]

    def cdf(self, ks: np.ndarray) -> np.ndarray:
        """P(count <= k), for distribution-convergence checks.

        Clamping piles tail mass onto the boundary values, so inside the
        clamp range the cdf equals the rounded-lognormal cdf unchanged.
        """
        ks = np.atleast_1d(ks)
        if self.kind == "lognormal":
            lo = np.log(np.maximum(ks + 0.5, 1e-9))
            base = 0.5 * (1.0 + _erf((lo - self.mu) / (self.sigma * math.sqrt(2.0))))
            out = np.where(ks < self.minimum, 0.0, base)
            return np.where(ks >= self.maximum, 1.0, out)
        support = np.asarray(self.support)
        probs = np.asarray(self.probabilities)
        return np.array([probs[support <= k].sum() for k in ks])


def _erf(x):
    from numpy import vectorize

    return vectorize(math.erf)(x)


def _erfinv(y: np.ndarray) -> np.ndarray:
    # Winitzki's approximation refined by two Newton steps; plenty for
    # sampling integer counts.
    a = 0.147
    ln1my2 = np.log(1.0 - y * y)
    t1 = 2.0 / (math.pi * a) + ln1my2 / 2.0
    x = np.sign(y) * np.sqrt(np.sqrt(t1 * t1 - ln1my2 / a) - t1)
    for _ in range(2):
        err = _erf(x) - y
        x = x - err / (2.0 / math.sqrt(math.pi) * np.exp(-x * x))
    return x


def load_count_histogram(source: Union[str, Path, IO[str]]) -> UniqueDomainCountModel:
    """CSV `unique_domain_count,user_fraction` (header optional)."""
    support, probs = [], []
    with _open(source) as fh:
        for row in csv.reader(fh):
            if not row or not row[0].strip().isdigit():
                continue
            support.append(int(row[0]))
            probs.append(float(row[1]))
    total = sum(probs)
    probs = [p / total for p in probs]
    return UniqueDomainCountModel(
        kind="empirical-histogram", support=tuple(support), probabilities=tuple(probs)
    )


# --- users ---------------------------------------------------------------


@dataclass(frozen=True)
class UserProfile:
    user_id: int
    visited_domains: frozenset[str]
    observed_topics: frozenset[int]
    top_profile: tuple[int, ...]  # sorted, exactly T entries once derived

    def to_json(self) -> str:
        return json.dumps(
            {
                "user_id": self.user_id,
                "visited_domains": sorted(self.visited_domains),
                "observed_topics": sorted(self.observed_topics),
                "top_profile": list(self.top_profile),
            },
            separators=(",", ":"),
        )

    @classmethod
    def from_json(cls, line: str) -> "UserProfile":
        obj = json.loads(line)
        return cls(
            user_id=obj["user_id"],
            visited_domains=frozenset(obj["visited_domains"]),
            observed_topics=frozenset(obj["observed_topics"]),
            top_profile=tuple(obj["top_profile"]),
        )


# Users per block of array draws in `generate_population` and
# `top_profiles`; bounds the size of the draw temporaries.
POPULATION_BLOCK_USERS = 1024


def _profile_keys(
    uids: np.ndarray,
    observed: np.ndarray,
    width: int,
    all_ids: np.ndarray,
    T: int,
    seed: int,
    candidate: int,
) -> np.ndarray:
    """Top-T profile keys row * width + topic, sorted, for users `uids`.

    `observed` holds each row's observed topics as sorted keys. A user's
    picks are its T observed topics of lowest keyed uniform (ties by
    position in the sorted list), a keyed permutation; users with fewer
    than T observed topics are padded with distinct uniform taxonomy
    draws from the fill stream, so T may not exceed the taxonomy's size.
    """
    if not 0 <= candidate < 10:
        raise PopulationError(f"candidate index must be in [0, 10), got {candidate}")
    if T > all_ids.size:
        raise PopulationError(f"T = {T} exceeds the taxonomy's {all_ids.size} topics")
    rows = observed // width
    j = rng.segment_ranks(rows)
    order = np.lexsort((j, rng.uniform(seed, rng.TAG_PROFILE, uids[rows], candidate, j), rows))
    picks = observed[order[rng.segment_ranks(rows[order]) < T]]
    short = np.maximum(T - np.bincount(rows, minlength=uids.size), 0)

    def fill(counter, r, jj):
        u = rng.uniform(seed, rng.TAG_PROFILE_FILL, uids[r], candidate, counter, jj)
        return all_ids[(u * all_ids.size).astype(np.int64)]

    padding = rng.distinct_draws(short, lambda s: np.full_like(s, 16), fill, width, taken=observed)
    return np.sort(np.concatenate([picks, padding]))


def _split(keys: np.ndarray, width: int, n_rows: int, values: np.ndarray) -> list[list]:
    """Per-row lists of the objects `values[key % width]`, for sorted keys."""
    rows, rest = np.divmod(keys, width)
    bounds = np.searchsorted(rows, np.arange(n_rows + 1)).tolist()
    flat = values[rest].tolist()
    return [flat[a:b] for a, b in zip(bounds, bounds[1:])]


def _topic_ids(taxonomy: Taxonomy, topics: np.ndarray) -> tuple[np.ndarray, int, np.ndarray]:
    """Taxonomy ids, the key width over them and `topics`, and one shared
    int object per id below that width, so users do not each hold copies."""
    all_ids = np.asarray(taxonomy.ids(), dtype=np.int64)
    width = int(max(all_ids.max(initial=0), topics.max(initial=0))) + 1
    return all_ids, width, np.arange(width).astype(object)


def top_profiles(
    users: Sequence[UserProfile],
    taxonomy: Taxonomy,
    T: int,
    seed: int,
    candidate: int = 0,
) -> list[tuple[int, ...]]:
    """Stable top-T profile of each user, as `generate_population` draws it.

    Uniform sample of T distinct observed topics; when fewer than T were
    observed, the remainder is drawn uniformly (distinct) from the
    taxonomy, mirroring the noise mechanism's padding. `candidate`
    selects one of up to 10 alternative profiles under distinct
    sub-seeds.
    """
    out: list[tuple[int, ...]] = []
    for lo in range(0, len(users), POPULATION_BLOCK_USERS):
        block = users[lo:lo + POPULATION_BLOCK_USERS]
        uids = np.array([u.user_id for u in block], dtype=np.int64)
        sizes = [len(u.observed_topics) for u in block]
        topics = np.fromiter(
            (t for u in block for t in sorted(u.observed_topics)), dtype=np.int64, count=sum(sizes)
        )
        all_ids, width, topic_objs = _topic_ids(taxonomy, topics)
        observed = np.repeat(np.arange(len(block), dtype=np.int64) * width, sizes) + topics
        keys = _profile_keys(uids, observed, width, all_ids, T, seed, candidate)
        out.extend(map(tuple, _split(keys, width, len(block), topic_objs)))
    return out


def generate_population(
    n: int,
    order: RankedDomainList,
    traffic: TrafficModel,
    counts: UniqueDomainCountModel,
    classification: DomainClassification,
    seed: int,
    T: int = 5,
    *,
    taxonomy: Taxonomy,
    profile_candidate: int = 0,
) -> list[UserProfile]:
    """Generate n users with visited domains, observed topics, and top-T profiles.

    Deterministic for a fixed seed. Every draw is keyed on (seed, tag,
    user_id, counter), so users are drawn as arrays, one block of
    `POPULATION_BLOCK_USERS` at a time, and the result does not depend
    on the block size. A user's domains are its first k distinct
    traffic-weighted positions, drawn with replacement in rounds of
    max(2 * short, 16) keyed uniforms; first occurrences realize
    successive weighted sampling without replacement. Counts exceeding
    the list length are clamped (logged).
    """
    if n < 1:
        raise PopulationError(f"population size must be >= 1, got {n}")
    m = len(order)
    cdf = np.cumsum(traffic.weights(m))
    ks = counts.sample(n, seed)
    clamped = int(np.sum(ks > m))
    if clamped:
        logger.warning("clamped unique-domain count to %d for %d of %d users", m, clamped, n)
    ks = np.minimum(ks, m)

    # Domain -> topic CSR over total-order positions.
    topic_sets = [classification.topics_of(d) for d in order.domains]
    indptr = np.zeros(m + 1, dtype=np.int64)
    np.cumsum([len(ts) for ts in topic_sets], out=indptr[1:])
    flat = np.fromiter(itertools.chain.from_iterable(topic_sets), dtype=np.int64, count=int(indptr[-1]))
    domains = np.array(order.domains, dtype=object)
    all_ids, width, topic_objs = _topic_ids(taxonomy, flat)

    users: list[UserProfile] = []
    for lo in range(0, n, POPULATION_BLOCK_USERS):
        uids = np.arange(lo, min(lo + POPULATION_BLOCK_USERS, n), dtype=np.int64)

        def pick(counter, r, j):
            u = rng.uniform(seed, rng.TAG_DOMAIN_PICK, uids[r], counter, j)
            return np.minimum(np.searchsorted(cdf, u, side="right"), m - 1)

        visits = rng.distinct_draws(ks[uids], lambda short: np.maximum(2 * short, 16), pick, m)
        rows, pos = np.divmod(visits, m)
        lens = indptr[pos + 1] - indptr[pos]
        starts = np.repeat(indptr[pos] - (np.cumsum(lens) - lens), lens)
        observed = np.unique(
            np.repeat(rows * width, lens) + flat[starts + np.arange(starts.size)]
        )
        profiles = _profile_keys(uids, observed, width, all_ids, T, seed, profile_candidate)
        # A frozenset made from a dict sizes its hash table once, for the
        # final count; made from a list it grows fourfold as it fills.
        users.extend(
            UserProfile(uid, frozenset(dict.fromkeys(v)), frozenset(dict.fromkeys(o)), tuple(p))
            for uid, v, o, p in zip(
                uids.tolist(),
                _split(visits, m, uids.size, domains),
                _split(observed, width, uids.size, topic_objs),
                _split(profiles, width, uids.size, topic_objs),
            )
        )
    return users


def write_population(
    users: Iterable[UserProfile],
    path: Union[str, Path],
    header: Optional[dict] = None,
    candidates: Optional[Mapping[int, list[list[int]]]] = None,
) -> None:
    """NDJSON, one user per line; `candidates` optionally attaches the
    alternative top-profile sets per user."""
    with open(path, "w", encoding="utf-8") as fh:
        if header is not None:
            fh.write(json.dumps({"header": header}, separators=(",", ":"), sort_keys=True) + "\n")
        for u in users:
            if candidates is None:
                fh.write(u.to_json() + "\n")
            else:
                record = json.loads(u.to_json())
                record["top_profile_candidates"] = candidates[u.user_id]
                fh.write(json.dumps(record, separators=(",", ":")) + "\n")


def read_population(path: Union[str, Path]) -> list[UserProfile]:
    users = []
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            if line.startswith('{"header"'):
                continue
            users.append(UserProfile.from_json(line))
    return users


@dataclass(frozen=True)
class PopulationStats:
    n_users: int
    unique_observed_domains: int
    unique_observed_topics: int
    unique_top_profiles: int

    def lines(self) -> list[str]:
        return [
            f"Number of users              {self.n_users}",
            f"Unique observed domains      {self.unique_observed_domains}",
            f"Unique observed topics       {self.unique_observed_topics}",
            f"Unique top profiles          {self.unique_top_profiles}",
        ]


def summarize_population(users: Sequence[UserProfile]) -> PopulationStats:
    domains: set[str] = set()
    topics: set[int] = set()
    profiles: set[tuple[int, ...]] = set()
    for u in users:
        domains.update(u.visited_domains)
        topics.update(u.observed_topics)
        # Taxonomy padding counts as observed for reporting purposes.
        topics.update(u.top_profile)
        profiles.add(u.top_profile)
    return PopulationStats(
        n_users=len(users),
        unique_observed_domains=len(domains),
        unique_observed_topics=len(topics),
        unique_top_profiles=len(profiles),
    )
