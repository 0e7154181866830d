"""Synthetic user populations over a totally ordered top-domain list.

The total order concatenates: the globally dominant sites of
`DEFAULT_FIXED_TOP` that the source top list holds, then each rank
bucket of that list in ascending bucket order, sorted inside the bucket
by the registrable-domain (eTLD+1) rank of a second list, unranked
domains after ranked ones, ties lexicographic.

Users draw a unique-domain count from a log-normal model
(`UniqueDomainCountModel`) or an empirical one (`CountHistogram`), then
that many distinct domains weighted by a traffic model. Observed topics are
the union of the classification sets of the visited domains; the stable
top-T interest profile samples uniformly from observed topics, padded
with uniform taxonomy draws when fewer than T were observed.

All sampling is keyed on (seed, tag, user_id, counter), so generation
is reproducible and needs no generator state. Generation draws browsing
as arrays, one block of `POPULATION_BLOCK_USERS` users at a time, the
domains in rounds for the users still short of their count and the
observed topics from a domain->topic CSR, then takes every profile from
`top_profiles`: per block, one segmented sort of keyed uniforms. The
result does not depend on the block size. A `Population` keeps the
users as arrays: ids, an (n, T) profile array, and visited positions and
observed topics as CSRs over the order's domain names; `UserProfile` is
the per-user record view. Its base `Profiles` holds only the ids and
profiles, all that the simulator and the denoiser read, and
`read_profiles` loads just those from a population file.

File formats: rank-bucket CSV `origin,rank_bucket`, an origin with or
without its scheme, keyed by its host; rank list CSV
`rank,domain`; count-histogram CSV `unique_domain_count,user_fraction`;
population output NDJSON, one user per line.
"""

from __future__ import annotations

import csv
import functools
import itertools
import json
import logging
import math
from dataclasses import dataclass, replace
from importlib import resources
from pathlib import Path
from typing import Iterable, Iterator, Mapping, Optional, Sequence, Union

import numpy as np

from . import rng
from .analytics import DEFAULT_T
from .classification import DomainClassification
from .taxonomy import Taxonomy, TextSource, read_lines

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

@functools.cache
def _public_suffixes() -> frozenset[str]:
    ref = resources.files("topicsim.data").joinpath("public_suffixes.dat")
    lines = ref.read_text(encoding="utf-8").splitlines()
    return frozenset(ln.strip() for ln in lines if ln.strip() and not ln.startswith("#"))


def _host(origin: str) -> str:
    """The host of an origin or URL (`https://www.a.com:443/x` gives
    `www.a.com`); a bare host is returned as it is."""
    return origin.strip().split("://", 1)[-1].split("/", 1)[0].split(":", 1)[0]


def etld_plus_one(hostname: str) -> str:
    """Registrable domain under the bundled suffix snapshot.

    Falls back to the last two labels when no suffix matches.
    """
    host = _host(hostname.lower()).rstrip(".")
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


def _bucket_rank(raw: Union[str, int]) -> int:
    """Position of a bucket in `BUCKET_LABELS`, most popular first."""
    return BUCKET_LABELS.index(_normalize_bucket(raw))


def build_total_order(
    crux_bins: Mapping[str, Union[str, int]],
    tranco_ranks: Mapping[str, int],
    radar_order: Sequence[str] = (),
) -> RankedDomainList:
    """Total order over bucketed domains.

    crux_bins maps each host to its rank bucket; tranco_ranks maps
    eTLD+1 to rank. The `DEFAULT_FIXED_TOP` hosts present in crux_bins
    come first, in that order. radar_order is an optional secondary
    tie-breaker (position in a global eTLD+1 ranking) applied after the
    primary rank and before the lexicographic fallback.
    """
    ordered = [d for d in DEFAULT_FIXED_TOP if d in crux_bins]
    fixed = set(ordered)
    buckets: dict[str, list[str]] = {label: [] for label in BUCKET_LABELS}
    for domain, raw_bucket in crux_bins.items():
        label = _normalize_bucket(raw_bucket)
        if domain not in fixed:
            buckets[label].append(domain)

    radar_pos = {d: i for i, d in enumerate(radar_order)}
    big = 1 << 60

    def sort_key(domain: str):
        e = etld_plus_one(domain)
        return (tranco_ranks.get(e, big), radar_pos.get(e, big), domain)

    for label in BUCKET_LABELS:
        ordered.extend(sorted(buckets[label], key=sort_key))
    return RankedDomainList(domains=tuple(ordered))


def load_bucket_file(source: TextSource) -> dict[str, str]:
    """CSV `origin,rank_bucket`, keyed by each origin's host; the first
    non-empty row is a header if its first field is `origin` or `domain`.

    An origin may carry a scheme (`https://www.a.com`). A host that
    appears more than once keeps its most popular bucket. A row whose
    bucket is not one of `BUCKET_LABELS` or their sizes is refused.
    """
    out: dict[str, str] = {}
    for i, (lineno, row) in enumerate(_rows(source, 2)):
        if i == 0 and row[0].lower() in ("origin", "domain"):
            continue
        host, bucket = _host(row[0]), row[1].strip()
        try:
            rank = _bucket_rank(bucket)
        except PopulationError as exc:
            raise PopulationError(f"{_row_name(source, lineno)}: {exc}") from None
        if host in out and _bucket_rank(out[host]) <= rank:
            continue
        out[host] = bucket
    return out


def load_rank_file(source: TextSource) -> dict[str, int]:
    """CSV `rank,domain`; the first non-empty row is a header if its first field is `rank`."""
    out: dict[str, int] = {}
    for i, (lineno, row) in enumerate(_rows(source, 2)):
        if i == 0 and row[0].lower() == "rank":
            continue
        try:
            out[row[1].strip()] = int(row[0])
        except ValueError:
            raise PopulationError(f"{_row_name(source, lineno)}: rank {row[0]!r} is not an integer") from None
    return out


def _rows(source: TextSource, width: int) -> Iterator[tuple[int, list[str]]]:
    """Non-empty CSV rows with their line numbers; a row of fewer than
    `width` fields is refused."""
    for lineno, row in enumerate(csv.reader(read_lines(source)), start=1):
        if not row:
            continue
        if len(row) < width:
            raise PopulationError(f"{_row_name(source, lineno)}: expected {width} fields, got {len(row)}: {row!r}")
        yield lineno, row


def _row_name(source: TextSource, lineno: int) -> str:
    """Where row `lineno` of a CSV stands, for a refusal: `<path> row N`, or `row N` in an open file."""
    return f"row {lineno}" if hasattr(source, "read") else f"{source} row {lineno}"


# --- traffic & count models ---------------------------------------------


@dataclass(frozen=True)
class TrafficModel:
    """Zipf visit-probability distribution over total-order positions: weight 1/rank^exponent."""

    exponent: float = 1.0

    def weights(self, m: int) -> np.ndarray:
        w = np.arange(1, m + 1, dtype=np.float64) ** -self.exponent
        return w / w.sum()


@dataclass(frozen=True)
class UniqueDomainCountModel:
    """Log-normal number of unique domains a user visits per epoch:
    exp(N(mu, sigma)) rounded, clamped to [minimum, maximum]."""

    mu: float
    sigma: float
    minimum: int
    maximum: int

    def sample(self, n: int, seed: int) -> np.ndarray:
        # Imported here, not at module level: `statistics` pulls in
        # `fractions` and `decimal`, a cost every stage that only reads
        # a population would otherwise pay.
        from statistics import NormalDist

        u = rng.counter_stream(n, seed, rng.TAG_DOMAIN_COUNT)
        # Inverse-CDF via the probit; the clip keeps u inside (0, 1).
        probit = NormalDist().inv_cdf
        z = np.fromiter(map(probit, np.clip(u, 1e-12, 1 - 1e-12).tolist()), dtype=np.float64, count=n)
        k = np.rint(np.exp(self.mu + self.sigma * z)).astype(np.int64)
        return np.clip(k, self.minimum, self.maximum)


@dataclass(frozen=True)
class CountHistogram:
    """Empirical number of unique domains a user visits per epoch: each
    count in `support` with its probability."""

    support: tuple[int, ...]
    probabilities: tuple[float, ...]

    def __post_init__(self):
        if len(self.support) != len(self.probabilities) or not self.support:
            raise PopulationError("histogram model needs matching support/probabilities")
        if any(k < 1 for k in self.support):
            raise PopulationError("histogram support must be positive integers")
        total = float(sum(self.probabilities))
        if not abs(total - 1.0) <= 1e-6:  # NaN fails too
            raise PopulationError(f"histogram probabilities sum to {total}, expected 1")

    def sample(self, n: int, seed: int) -> np.ndarray:
        u = rng.counter_stream(n, seed, rng.TAG_DOMAIN_COUNT)
        cdf = np.cumsum(np.asarray(self.probabilities, dtype=np.float64))
        idx = np.minimum(np.searchsorted(cdf, u, side="right"), len(self.support) - 1)
        return np.asarray(self.support, dtype=np.int64)[idx]


def load_count_histogram(source: TextSource) -> CountHistogram:
    """CSV `unique_domain_count,user_fraction`, the first row a header if its count holds no digit.

    Every other row's count must be a positive integer, and its fraction
    a finite, non-negative number.
    """
    support, probs = [], []
    for i, (lineno, row) in enumerate(_rows(source, 2)):
        count = row[0].strip()
        if i == 0 and not any(map(str.isdigit, count)):
            continue
        if not (count.isascii() and count.isdigit() and int(count) >= 1):
            raise PopulationError(f"{_row_name(source, lineno)}: count {count!r} is not a positive integer")
        try:
            fraction = float(row[1])
        except ValueError:
            fraction = math.nan
        if not 0 <= fraction < math.inf:
            raise PopulationError(
                f"{_row_name(source, lineno)}: fraction {row[1].strip()!r} is not a non-negative number")
        support.append(int(count))
        probs.append(fraction)
    total = sum(probs)
    if not total > 0:
        raise PopulationError("count histogram has no positive fraction")
    probs = [p / total for p in probs]
    return CountHistogram(tuple(support), tuple(probs))


# --- users ---------------------------------------------------------------


@dataclass(frozen=True)
class UserProfile:
    """One user as a record: the view `Population` gives per row."""

    user_id: int
    visited_domains: frozenset[str]
    observed_topics: frozenset[int]
    top_profile: tuple[int, ...]  # sorted, exactly T entries once derived


def _segments(starts: np.ndarray, lens: np.ndarray) -> np.ndarray:
    """Concatenated index ranges [starts[i], starts[i] + lens[i])."""
    offsets = np.cumsum(lens) - lens
    return np.repeat(starts - offsets, lens) + np.arange(int(lens.sum()))


def _indptr(lens) -> np.ndarray:
    lens = np.asarray(lens, dtype=np.int64)
    indptr = np.zeros(lens.size + 1, dtype=np.int64)
    np.cumsum(lens, out=indptr[1:])
    return indptr


def _sorted_unique(a: np.ndarray) -> np.ndarray:
    """`np.unique(a)` for a 1-D array, by one sort (numpy's hashing path is slower)."""
    a = np.sort(a)
    return a[np.r_[True, a[1:] != a[:-1]]] if a.size else a


def _row_ids(indptr: np.ndarray) -> np.ndarray:
    """Row index of every entry of a CSR with these row bounds."""
    return np.repeat(np.arange(indptr.size - 1), np.diff(indptr))


@dataclass(frozen=True, eq=False)
class Profiles:
    """Users' ids and top-T profiles: all the simulator and the denoiser read of a population.

    Row i is user `user_ids[i]`, with top-T profile `profiles[i]`.
    """

    user_ids: np.ndarray      # (n,) int64
    profiles: np.ndarray      # (n, T) int64

    def __len__(self) -> int:
        return self.user_ids.size


@dataclass(frozen=True, eq=False)
class Population(Profiles):
    """Users as arrays, one row per user: profiles plus what was visited and observed.

    Row i's visited domains are `domains[p]` for the positions p in
    `visits[visit_indptr[i]:visit_indptr[i + 1]]`, and its observed
    topics are `topics[topic_indptr[i]:topic_indptr[i + 1]]`; both rows
    are sorted and hold no repeats. Indexing and iteration give
    `UserProfile` records.
    """

    visit_indptr: np.ndarray  # (n + 1,) int64
    visits: np.ndarray        # positions in `domains`, int32
    topic_indptr: np.ndarray  # (n + 1,) int64
    topics: np.ndarray        # observed topic ids, int32
    domains: tuple[str, ...]

    def __getitem__(self, i: int) -> UserProfile:
        if not 0 <= i < len(self):
            raise IndexError(f"user row {i} out of range for {len(self)} users")
        visits = self.visits[self.visit_indptr[i]:self.visit_indptr[i + 1]].tolist()
        return UserProfile(
            int(self.user_ids[i]),
            frozenset(self.domains[p] for p in visits),
            frozenset(self.topics[self.topic_indptr[i]:self.topic_indptr[i + 1]].tolist()),
            tuple(self.profiles[i].tolist()),
        )

    def __iter__(self) -> Iterator[UserProfile]:
        return (self[i] for i in range(len(self)))


def _unique_rows(indptr: np.ndarray, values: np.ndarray, width: int) -> tuple[np.ndarray, np.ndarray]:
    """A CSR's rows sorted and without repeats, for values in [0, width)."""
    rows, values = np.divmod(_sorted_unique(_row_ids(indptr) * width + values), width)
    return _indptr(np.bincount(rows, minlength=indptr.size - 1)), values


def _profiles_of(user_ids: Sequence[int], profiles: Sequence[Sequence[int]]) -> Profiles:
    """Ids and profiles as arrays; every profile must be as long as the first."""
    sizes = np.array([len(p) for p in profiles], dtype=np.int64)
    T = int(sizes[0]) if sizes.size else 0
    ragged = np.flatnonzero(sizes != T)
    if ragged.size:
        i = int(ragged[0])
        raise PopulationError(f"user {user_ids[i]} has profile size {sizes[i]}, but user {user_ids[0]} has {T}")
    return Profiles(
        user_ids=np.array(user_ids, dtype=np.int64),
        profiles=np.array(profiles, dtype=np.int64).reshape(len(profiles), T),
    )


def _from_rows(
    user_ids: Sequence[int],
    visited: Sequence[Iterable[str]],
    observed: Sequence[Iterable[int]],
    profiles: Sequence[Sequence[int]],
) -> Population:
    """A population from per-user rows; every profile must be as long as the first."""
    base = _profiles_of(user_ids, profiles)
    names = list(itertools.chain.from_iterable(visited))
    domains = tuple(dict.fromkeys(names))
    index = dict(zip(domains, range(len(domains))))
    visits = np.fromiter(map(index.__getitem__, names), dtype=np.int64, count=len(names))
    topics = np.fromiter(itertools.chain.from_iterable(observed), dtype=np.int64)
    visit_indptr, visits = _unique_rows(_indptr([len(r) for r in visited]), visits, max(len(domains), 1))
    topic_indptr, topics = _unique_rows(
        _indptr([len(r) for r in observed]), topics, int(topics.max(initial=0)) + 1
    )
    return Population(
        user_ids=base.user_ids,
        profiles=base.profiles,
        visit_indptr=visit_indptr,
        visits=visits.astype(np.int32),
        topic_indptr=topic_indptr,
        topics=topics.astype(np.int32),
        domains=domains,
    )


# Users per block of array draws in `generate_population` and
# `top_profiles`, and per formatted block in `write_population` and the
# simulator's log writers; bounds the size of the temporaries.
POPULATION_BLOCK_USERS = 1024


def _topic_ids(taxonomy: Taxonomy, T: int) -> int:
    """Omega, the taxonomy's ids being 1..omega.

    Refuses a profile width T outside 1..omega: profiles are padded with
    distinct taxonomy draws, so T may not exceed the taxonomy's size.
    """
    omega = taxonomy.omega
    if T < 1:
        raise PopulationError(f"T must be >= 1, got {T}")
    if T > omega:
        raise PopulationError(f"T = {T} exceeds the taxonomy's {omega} topics")
    return omega


def top_profiles(
    population: Population,
    taxonomy: Taxonomy,
    T: int,
    seed: int,
) -> np.ndarray:
    """Stable top-T profile of each user, the profiles `generate_population` gives.

    A user's picks are its T observed topics of lowest keyed uniform
    (ties by position), padded when fewer with distinct uniform taxonomy
    ids from the fill stream, as the noise mechanism pads. Users go one
    block of `POPULATION_BLOCK_USERS` at a time; the result does not
    depend on the block size. Returns shape (len(population), T), each
    row sorted.
    """
    omega = _topic_ids(taxonomy, T)
    width = int(max(omega, population.topics.max(initial=0))) + 1
    out = np.empty((len(population), T), dtype=np.int64)
    for lo in range(0, len(population), POPULATION_BLOCK_USERS):
        hi = min(lo + POPULATION_BLOCK_USERS, len(population))
        uids = population.user_ids[lo:hi]
        indptr = population.topic_indptr[lo:hi + 1]
        # Each observed topic as the key row * width + topic, rows block-local.
        rows = _row_ids(indptr)
        observed = rows * width + population.topics[indptr[0]:indptr[-1]]
        j = rng.segment_ranks(rows)
        # The key word 0 in both streams keeps every existing seed's profiles.
        order = np.lexsort((j, rng.uniform(seed, rng.TAG_PROFILE, uids[rows], 0, j), rows))
        picks = observed[order[rng.segment_ranks(rows[order]) < T]]
        short = np.maximum(T - np.diff(indptr), 0)

        def fill(counter, r, jj):
            u = rng.uniform(seed, rng.TAG_PROFILE_FILL, uids[r], 0, counter, jj)
            return 1 + (u * omega).astype(np.int64)

        padding = rng.distinct_draws(short, lambda s: np.full_like(s, 16), fill, width, taken=observed)
        out[lo:hi] = (np.sort(np.concatenate([picks, padding])) % width).reshape(hi - lo, T)
    return out


def generate_population(
    n: int,
    order: RankedDomainList,
    traffic: TrafficModel,
    counts: Union[UniqueDomainCountModel, CountHistogram],
    classification: DomainClassification,
    seed: int,
    T: int = DEFAULT_T,
    *,
    taxonomy: Taxonomy,
) -> Population:
    """Generate n users with visited domains, observed topics, and top-T profiles.

    Deterministic for a fixed seed. Every draw is keyed on (seed, tag,
    user_id, counter), so browsing is drawn as arrays, one block of
    `POPULATION_BLOCK_USERS` users at a time, and the result does not
    depend on the block size. A user's domains are its first k distinct
    traffic-weighted positions, drawn with replacement in rounds of
    max(2 * short, 16) keyed uniforms; first occurrences realize
    successive weighted sampling without replacement. Counts exceeding
    the list length are clamped (logged). A bad T is refused first; the
    profiles are `top_profiles` of the drawn browsing.
    """
    if n < 1:
        raise PopulationError(f"population size must be >= 1, got {n}")
    m = len(order)
    if m < 1:
        raise PopulationError("the ranked domain list is empty")
    _topic_ids(taxonomy, T)
    cdf = np.cumsum(traffic.weights(m))
    ks = counts.sample(n, seed)
    clamped = int(np.sum(ks > m))
    if clamped:
        logger.warning("clamped unique-domain count to %d for %d of %d users", m, clamped, n)
    ks = np.minimum(ks, m)

    # Domain -> topic CSR over total-order positions; a domain the
    # classification lacks has no topics.
    rows = classification.rows_of(order.domains)
    lens = np.where(rows >= 0, classification.indptr[rows + 1] - classification.indptr[rows], 0)
    indptr = _indptr(lens)
    flat = classification.topics[_segments(classification.indptr[rows], lens)]
    width = int(flat.max(initial=0)) + 1

    visit_parts, topic_parts, visit_lens, topic_lens = [], [], [], []
    for lo in range(0, n, POPULATION_BLOCK_USERS):
        uids = np.arange(lo, min(lo + POPULATION_BLOCK_USERS, n), dtype=np.int64)

        def pick(counter, r, j):
            u = rng.uniform(seed, rng.TAG_DOMAIN_PICK, uids[r], counter, j)
            return np.minimum(np.searchsorted(cdf, u, side="right"), m - 1)

        visits = rng.distinct_draws(ks[uids], lambda short: np.maximum(2 * short, 16), pick, m)
        vrows, pos = np.divmod(visits, m)
        seg = indptr[pos + 1] - indptr[pos]
        observed = _sorted_unique(np.repeat(vrows * width, seg) + flat[_segments(indptr[pos], seg)])
        orows, topics = np.divmod(observed, width)
        visit_parts.append(pos.astype(np.int32))
        topic_parts.append(topics.astype(np.int32))
        visit_lens.append(np.bincount(vrows, minlength=uids.size))
        topic_lens.append(np.bincount(orows, minlength=uids.size))
    population = Population(
        user_ids=np.arange(n, dtype=np.int64),
        profiles=np.empty((n, 0), dtype=np.int64),  # top_profiles reads no profile
        visit_indptr=_indptr(np.concatenate(visit_lens)),
        visits=np.concatenate(visit_parts),
        topic_indptr=_indptr(np.concatenate(topic_lens)),
        topics=np.concatenate(topic_parts),
        domains=order.domains,
    )
    return replace(population, profiles=top_profiles(population, taxonomy, T, seed))


def _ints(values: list) -> str:
    return ",".join(map(str, values))


def header_line(header: Optional[dict]) -> str:
    """The optional first line of an NDJSON artifact: `{"header": ...}`, compact, keys sorted; "" without one."""
    if header is None:
        return ""
    return json.dumps({"header": header}, separators=(",", ":"), sort_keys=True) + "\n"


def write_population(
    population: Population,
    path: Union[str, Path],
    header: Optional[dict] = None,
) -> None:
    """NDJSON, one user per line: `user_id`, `visited_domains` sorted by
    name, `observed_topics` and `top_profile`.

    Lines are formatted from the arrays one block of
    `POPULATION_BLOCK_USERS` users at a time, each domain name escaped
    once; the bytes are those of one compact `json.dumps` per record.
    """
    # The visited positions in name order, and each one's rank in it.
    by_name = sorted(_sorted_unique(population.visits).tolist(), key=population.domains.__getitem__)
    width = max(len(by_name), 1)
    name_rank = np.zeros(len(population.domains), dtype=np.int64)
    name_rank[by_name] = np.arange(len(by_name))
    escaped = [json.dumps(population.domains[p]) for p in by_name]
    vrows = _row_ids(population.visit_indptr)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(header_line(header))
        for lo in range(0, len(population), POPULATION_BLOCK_USERS):
            hi = min(lo + POPULATION_BLOCK_USERS, len(population))
            a, b = population.visit_indptr[lo], population.visit_indptr[hi]
            ranks = np.sort(vrows[a:b] * width + name_rank[population.visits[a:b]]) % width
            visited = [escaped[r] for r in ranks.tolist()]
            vb = (population.visit_indptr[lo:hi + 1] - a).tolist()
            a, b = population.topic_indptr[lo], population.topic_indptr[hi]
            observed = population.topics[a:b].tolist()
            tb = (population.topic_indptr[lo:hi + 1] - a).tolist()
            profiles = population.profiles[lo:hi].tolist()
            fh.write("".join(
                f'{{"user_id":{uid},"visited_domains":[{",".join(visited[vb[j]:vb[j + 1]])}],'
                f'"observed_topics":[{_ints(observed[tb[j]:tb[j + 1]])}],'
                f'"top_profile":[{_ints(profiles[j])}]}}\n'
                for j, uid in enumerate(population.user_ids[lo:hi].tolist())
            ))


_INT64 = range(-(2**63), 2**63)


def _is_int64(v) -> bool:
    """`v` is a JSON integer, not `true` or `1.0`, that fits 64 bits."""
    return type(v) is int and v in _INT64


def _read_columns(path: Union[str, Path], keys: tuple[str, ...]) -> tuple[list, ...]:
    """The values of `keys` in each user record of a `write_population` file, one list per key.

    `keys` names `user_id` and `top_profile`. Only line 1 may be the
    `{"header"` line. Each other line must be JSON; each `user_id` must be
    a JSON integer that fits 64 bits, and no two records may share one;
    each `top_profile` must be a list of such integers.
    """
    first_line: dict[int, int] = {}
    columns = tuple([] for _ in keys)
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or (lineno == 1 and line.startswith('{"header"')):
                continue
            try:
                obj = json.loads(line)
                for column, key in zip(columns, keys):
                    column.append(obj[key])
            except json.JSONDecodeError as exc:
                raise PopulationError(f"{path} line {lineno}: not JSON ({exc.msg} at column {exc.colno})") from None
            except (KeyError, TypeError):
                raise PopulationError(f"{path} line {lineno}: not a user record with {key!r}") from None
            uid, profile = obj["user_id"], obj["top_profile"]
            if not _is_int64(uid):
                raise PopulationError(f"{path} line {lineno}: user_id {json.dumps(uid)} is not a 64-bit integer")
            if uid in first_line:
                raise PopulationError(f"{path} line {lineno}: user {uid} is also the user of line {first_line[uid]}")
            first_line[uid] = lineno
            if not (isinstance(profile, list) and all(map(_is_int64, profile))):
                raise PopulationError(
                    f"{path} line {lineno}: user {uid} has top_profile {json.dumps(profile)}, "
                    "not a list of 64-bit integers"
                )
    return columns


def read_population(path: Union[str, Path]) -> Population:
    """The population of a `write_population` file.

    Refuses a file whose users' `top_profile`s differ in length.
    """
    return _from_rows(*_read_columns(path, ("user_id", "visited_domains", "observed_topics", "top_profile")))


def read_profiles(path: Union[str, Path]) -> Profiles:
    """The user ids and `top_profile`s of a `write_population` file, without the
    visited domains and observed topics that `read_population` also keeps.

    Refuses a file whose users' `top_profile`s differ in length.
    """
    return _profiles_of(*_read_columns(path, ("user_id", "top_profile")))


def summarize_population(population: Population) -> list[str]:
    """The lines `generate` prints about a population.

    The users whose top profile no other user holds bound how many the
    re-identification attack can single out.
    """
    _, holders = np.unique(population.profiles, axis=0, return_counts=True)
    alone = int(np.sum(holders == 1))
    return [
        f"Number of users              {len(population)}",
        f"Unique observed domains      {_sorted_unique(population.visits).size}",
        # Taxonomy padding counts as observed for reporting purposes.
        f"Unique observed topics       {np.union1d(population.topics, population.profiles).size}",
        f"Unique top profiles          {holders.size}",
        f"Users with a unique profile  {alone} ({alone / len(population):.1%})",
    ]
