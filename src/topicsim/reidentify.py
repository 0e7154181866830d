"""Two-advertiser collusion: match users across sites by topic overlap.

Each side denoises its own observation log on the fly. A user's matching
set at epoch e is every topic their side's engine has ever labeled
genuine up to e (confirmed topics plus threshold-passing first
sightings), so matching sets never shrink. Each user seen on site A
is mapped to the argmax tie set over site-B users by shared-topic count,
and each user seen on site B likewise over site-A users. Both directions
come from one scan down the subset sizes j, in which each side's j-subset
keys are built once: as its own queries and as the other side's table.

A user is uniquely re-identified when that group is exactly their own
identity; they are matched better than random when the group contains
them and is smaller than the whole population. Users whose maximal
overlap is zero are assigned the entire population (k = n), counting as
neither.

Report output: CSV `epoch,unique_rate,better_than_random_rate` plus
per-epoch `k,cdf` files.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Callable, Iterable, Mapping, Optional, Sequence

import numpy as np

from .classification import PrevalenceTable
from .denoiser import DenoiserConfig, MultiShotEngine
from .simulator import ObservationLog


@dataclass(frozen=True)
class MatchReport:
    """Per-user match outcome for one epoch, plus aggregate rates."""

    epoch: int
    k: np.ndarray                # (n,) matched-group size for each A-side user
    contains_truth: np.ndarray   # (n,) group contains the user's own identity
    n_users: int

    def __post_init__(self):
        if len(self.k) != self.n_users or len(self.contains_truth) != self.n_users:
            raise ValueError("per-user arrays must cover the population")

    @property
    def unique_correct(self) -> np.ndarray:
        return (self.k == 1) & self.contains_truth

    @property
    def better_than_random(self) -> np.ndarray:
        # Strictly informative non-unique matches only.
        return self.contains_truth & (self.k < self.n_users) & (self.k > 1)

    # Why users were not uniquely re-identified. With the unique users,
    # these three counts partition a population of two or more.
    @property
    def n_whole_population(self) -> int:
        """Users whose group is everyone (k = n), e.g. no topic overlaps."""
        return int(np.count_nonzero(self.k == self.n_users))

    @property
    def n_tied(self) -> int:
        """Users in a tie that contains them but not everyone (1 < k < n)."""
        return int(np.count_nonzero(self.better_than_random))

    @property
    def n_wrong_argmax(self) -> int:
        """Users whose argmax group misses their own identity."""
        return int(np.count_nonzero(~self.contains_truth))

    @property
    def unique_rate(self) -> float:
        return float(self.unique_correct.mean())

    @property
    def better_than_random_rate(self) -> float:
        return float(self.better_than_random.mean())

    def k_cdf(self) -> tuple[np.ndarray, np.ndarray]:
        """(group sizes, cumulative user fraction with k <= size)."""
        sizes, counts = np.unique(self.k, return_counts=True)
        return sizes, np.cumsum(counts) / len(self.k)


def match_users(
    profiles_a: Mapping[int, Iterable[int]],
    profiles_b: Mapping[int, Iterable[int]],
    epoch: int = 1,
    omega: Optional[int] = None,
) -> MatchReport:
    """Match every A-side user to the argmax-overlap group of B-side users.

    Both mappings must cover the same user universe; correctness is
    judged against the identity mapping. If `omega` is given, a topic id
    above it is refused.
    """
    if set(profiles_a) != set(profiles_b):
        raise ValueError("A and B must observe the same user universe")
    users = sorted(profiles_a)
    rows_a, rows_b = ([sorted(set(profiles[u])) for u in users] for profiles in (profiles_a, profiles_b))
    top = max((max(r, default=0) for r in rows_a + rows_b), default=0)
    if omega is not None and top > omega:
        raise ValueError(f"topic id {top} is above omega = {omega}")
    k, contains, _, _ = _argmax_match(_topic_table(rows_a), _topic_table(rows_b))
    return MatchReport(epoch=epoch, k=k, contains_truth=contains, n_users=len(users))


def _topic_table(rows: Sequence[list[int]]) -> np.ndarray:
    table = np.full((len(rows), max(map(len, rows), default=0)), -1, dtype=np.int64)
    for i, topics in enumerate(rows):
        table[i, : len(topics)] = topics
    return table


# Sets of at most this many topics are matched by counting their 2^|S|
# subsets; with topic ids below 351 every such subset has an exact int64
# key, and the keys of up to 4 topics fit int32. Pairs involving a wider
# set are compared by counting shared topics against that set's dense row.
MAX_SUBSET_TOPICS = 10

# A level of at most this many possible keys counts each side's keys in
# one bincount instead of sorting them for binary searches: with topic
# ids below 351, the levels of one and two topics.
DENSE_KEY_SPACE = 2**16


def _argmax_match(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Argmax-overlap groups in both directions, by counting shared subsets.

    `a` and `b` are topic tables: row i of each is the same identity's
    set, its distinct topic ids in any order, -1 in empty slots (the two
    tables may differ in width). Returns `(k_ab, contains_ab, k_ba,
    contains_ba)`: group size and self-containment for each A-side user
    matched against B, and for each B-side user matched against A. A
    user is in their own group when their overlap with themselves is the
    maximum overlap.
    """
    n = a.shape[0]
    if b.shape[0] != n:
        raise ValueError(f"A has {n} users and B has {b.shape[0]}: matching needs the same users")
    a, b = np.sort(a, axis=1), np.sort(b, axis=1)  # empty slots first, then ascending ids
    both = np.sort(np.concatenate([a, b], axis=1), axis=1)
    self_overlap = np.count_nonzero((both[:, 1:] == both[:, :-1]) & (both[:, 1:] >= 0), axis=1)
    width = int(max(a.max(initial=0), b.max(initial=0))) + 1
    m_ab, k_ab, m_ba, k_ba = _max_overlap_groups(a, b, width)
    return k_ab, self_overlap == m_ab, k_ba, self_overlap == m_ba


def _max_overlap_groups(a: np.ndarray, b: np.ndarray, width: int) -> tuple[np.ndarray, ...]:
    """Each row's maximum overlap m with the rows of the other table, and how many reach it.

    `a` and `b` are row-sorted topic tables whose ids lie below `width`.
    For a row of `a`, m is the largest j such that some j-subset of the
    row's set lies in some set of `b`, and the count sums, over the
    m-subsets X of the row's set, the sets of `b` that contain X (m = 0
    counts every row of `b`); likewise for each row of `b` against `a`.
    Returns `(m_ab, k_ab, m_ba, k_ba)`.

    One scan runs down the levels j for both directions. At each level
    each side's j-subset keys are built once: its live rows' keys are its
    queries, and all its keys, sorted or counted, are the table that the
    other side's queries look up. A row leaves the scan at its first hit,
    and a level that no row of either side is left to query is skipped.
    Only the tables and the live rows' keys outlive the building of a
    side's keys, and only until the level's look-ups are done.
    """
    cap = MAX_SUBSET_TOPICS
    while math.comb(width, cap) >= 2**63:  # j-subset keys lie below C(width, j)
        cap -= 1
    narrow = cap
    while math.comb(width, narrow) >= 2**31:
        narrow -= 1
    # Levels up to `narrow` build their keys, tables and queries as int32.
    binom32, binom64 = _binom(width, narrow, np.int32), _binom(width, cap, np.int64)
    sides = (a, b)
    sizes = [np.count_nonzero(t >= 0, axis=1) for t in sides]
    sets = [_sets_by_size(t, size, cap) for t, size in zip(sides, sizes)]
    # Per side and set size, the positions in `sets` of the rows not yet hit.
    live = [{s: np.arange(rows.size) for s, (rows, _) in groups.items()} for groups in sets]
    m = [np.zeros(t.shape[0], dtype=np.int64) for t in sides]
    k = [np.full(t.shape[0], np.count_nonzero(size <= cap), dtype=np.int64) for t, size in zip(sides, sizes[::-1])]
    for j in range(max([*sets[0], *sets[1]], default=0), 0, -1):
        if not any(s >= j and pos.size for side in live for s, pos in side.items()):
            continue
        binom = binom32 if j <= narrow else binom64
        queries_b, count_b = _level_keys(sets[1], live[1], j, binom)
        queries_a, count_a = _level_keys(sets[0], live[0], j, binom)
        for x, queries, count in ((0, queries_a, count_b), (1, queries_b, count_a)):
            for s, keys in queries.items():
                total = count(keys).sum(axis=0)
                hit = total > 0
                pos = live[x][s]
                rows = sets[x][s][0][pos[hit]]
                m[x][rows], k[x][rows] = j, total[hit]
                live[x][s] = pos[~hit]
    m_ab, k_ab = _add_wide(a, b, sizes[0], sizes[1], m[0], k[0], cap, width)
    m_ba, k_ba = _add_wide(b, a, sizes[1], sizes[0], m[1], k[1], cap, width)
    return m_ab, k_ab, m_ba, k_ba


def _add_wide(
    x: np.ndarray, y: np.ndarray, size_x: np.ndarray, size_y: np.ndarray, m: np.ndarray, k: np.ndarray, cap: int, width: int
) -> tuple[np.ndarray, np.ndarray]:
    """The subset scan's `m` and `k` of the rows of `x` against `y`, with the
    pairs that involve a set of over `cap` topics counted against dense rows."""
    wide_x, wide_y = size_x > cap, size_y > cap
    if wide_x.any():
        m[wide_x], k[wide_x] = _max_count(_overlaps(y[~wide_y], x[wide_x], width).T)
    if wide_y.any():
        m_wide, k_wide = _max_count(_overlaps(x, y[wide_y], width))
        best = np.maximum(m, m_wide)
        m, k = best, k * (m == best) + k_wide * (m_wide == best)
    return m, k


@functools.cache
def _binom(width: int, cap: int, dtype: type) -> np.ndarray:
    """`binom[i, t] = C(t, i)` for i <= cap and t < width, as `dtype`, read-only.

    A j-subset's key is sum_i C(t_i, i + 1) over its ascending topic ids
    t_i: its rank among the j-subsets, below C(width, j). With cap <= 10,
    every entry is below C(width, cap) or C(19, 9), so a `dtype` that
    holds C(width, cap) holds the table too.
    """
    binom = np.array([[math.comb(t, i) for t in range(width)] for i in range(cap + 1)], dtype=dtype)
    binom.flags.writeable = False
    return binom


def _sets_by_size(table: np.ndarray, size: np.ndarray, cap: int) -> dict:
    """`{s: (row ids, (s, rows) ascending topic ids)}` for rows of 1 to `cap` topics of a row-sorted table.

    Each group's topics are stored one slot per row, so that gathering the
    slots of a subset position copies whole rows.
    """
    groups = {}
    for s in np.flatnonzero(np.bincount(size[(size > 0) & (size <= cap)])).tolist():
        rows = np.flatnonzero(size == s)
        groups[s] = rows, np.ascontiguousarray(table[rows, table.shape[1] - s:].T)
    return groups


def _level_keys(sets: dict, live: dict, j: int, binom: np.ndarray) -> tuple[dict, Callable[[np.ndarray], np.ndarray]]:
    """One side's j-subset keys: `{s: keys of the live rows of s topics}`, of `binom`'s dtype,
    and `count(keys)`, how many of the keys of all its rows of at least j topics equal each entry."""
    groups = {s: topics for s, (_, topics) in sets.items() if s >= j}
    table = np.empty(sum(topics.shape[1] * math.comb(s, j) for s, topics in groups.items()), dtype=binom.dtype)
    queries, at = {}, 0
    for s, topics in groups.items():
        n = topics.shape[1] * math.comb(s, j)
        keys = _subset_keys(topics, j, binom, out=table[at : at + n].reshape(-1, topics.shape[1]))
        at += n
        if live[s].size:
            queries[s] = keys[:, live[s]]  # a copy, kept through the count or sort below
    space = math.comb(binom.shape[1], j)  # the keys lie below C(width, j)
    if space <= DENSE_KEY_SPACE:
        return queries, np.bincount(table, minlength=space).take
    table.sort()
    return queries, functools.partial(_counts_in, table)


def _subset_keys(topics: np.ndarray, j: int, binom: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Exact keys of every j-subset of each column of ascending topic ids, written to `out`, `(C(s, j), columns)`."""
    combos = _combinations(topics.shape[0], j)
    # Each slot's term once per column, then one row gather per subset position.
    np.take(binom[1][topics], combos[:, 0], axis=0, out=out)
    for i in range(1, j):
        out += binom[i + 1][topics][combos[:, i]]
    return out


def _counts_in(table: np.ndarray, query: np.ndarray) -> np.ndarray:
    """How many entries of the sorted `table` equal each entry of `query`.

    The query is looked up in sorted order, which keeps the binary
    searches' memory reads close together.
    """
    flat = query.ravel()
    order = np.argsort(flat)
    needles = flat[order]
    counts = np.empty_like(flat)
    counts[order] = np.searchsorted(table, needles, "right") - np.searchsorted(table, needles, "left")
    return counts.reshape(query.shape)


@functools.cache
def _combinations(s: int, j: int) -> np.ndarray:
    """`(C(s, j), j)` positions of every j-subset of s slots, in lexicographic order, read-only."""
    combos = np.array(list(itertools.combinations(range(s), j)))
    combos.flags.writeable = False
    return combos


def _overlaps(tables: np.ndarray, few: np.ndarray, width: int) -> np.ndarray:
    """Shared-topic counts of each row of `tables` with each row of `few`, shape `(len(tables), len(few))`.

    Only `few` is made dense, one column per row; its last topic row
    stays zero, so an empty slot's -1 counts nothing.
    """
    dense = np.zeros((width + 1, len(few)), dtype=np.int16)
    rows, slots = np.nonzero(few >= 0)
    dense[few[rows, slots], rows] = 1
    overlap = np.zeros((len(tables), len(few)), dtype=np.int16)
    for s in range(tables.shape[1]):
        overlap += dense[tables[:, s]]
    return overlap


def _max_count(overlap: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each row's maximum and how many entries reach it; (-1, 0) for a row of no entries."""
    mx = overlap.max(axis=1, initial=-1)
    return mx.astype(np.int64), np.count_nonzero(overlap == mx[:, None], axis=1)


@dataclass(frozen=True)
class ReidReport:
    """Longitudinal two-site re-identification report."""

    epochs: tuple[int, ...]
    unique_rates: tuple[float, ...]
    better_than_random_rates: tuple[float, ...]
    reverse_unique_rates: tuple[float, ...]  # B matched against A
    k_cdfs: Mapping[int, tuple[np.ndarray, np.ndarray]]
    n_users: int
    # epoch -> A->B (whole population, tied, wrong argmax) user counts
    miss_counts: Mapping[int, tuple[int, int, int]]

    def unique_rate_at(self, epoch: int) -> float:
        return self.unique_rates[self.epochs.index(epoch)]

    def better_than_random_at(self, epoch: int) -> float:
        return self.better_than_random_rates[self.epochs.index(epoch)]

    def csv_lines(self) -> list[str]:
        lines = ["epoch,unique_rate,better_than_random_rate"]
        for e, u, b in zip(self.epochs, self.unique_rates, self.better_than_random_rates):
            lines.append(f"{e},{u:.6f},{b:.6f}")
        return lines

    def k_cdf_csv_lines(self, epoch: int) -> list[str]:
        sizes, cdf = self.k_cdfs[epoch]
        lines = ["k,cdf"]
        lines += [f"{int(s)},{c:.6f}" for s, c in zip(sizes, cdf)]
        return lines


def reid_report(reports: Sequence[MatchReport], reverse_reports: Sequence[MatchReport] = ()) -> ReidReport:
    """Aggregate per-epoch match reports into a longitudinal report."""
    if not reports:
        raise ValueError("need at least one epoch of match reports")
    rev = {r.epoch: r.unique_rate for r in reverse_reports}
    return ReidReport(
        epochs=tuple(r.epoch for r in reports),
        unique_rates=tuple(r.unique_rate for r in reports),
        better_than_random_rates=tuple(r.better_than_random_rate for r in reports),
        reverse_unique_rates=tuple(rev.get(r.epoch, float("nan")) for r in reports),
        k_cdfs={r.epoch: r.k_cdf() for r in reports},
        n_users=reports[0].n_users,
        miss_counts={r.epoch: (r.n_whole_population, r.n_tied, r.n_wrong_argmax) for r in reports},
    )


def run_reidentification(
    log: ObservationLog,
    site_a: str,
    site_b: str,
    prev: PrevalenceTable,
    config: DenoiserConfig = DenoiserConfig(),
    report_epochs: Optional[Iterable[int]] = None,
) -> ReidReport:
    """Full two-site attack over an observation log (vectorized).

    Denoises both sites incrementally. At each requested epoch each
    side's matching sets, its engine's topics `ever_genuine` as a
    `(user, slot)` table, are matched in both directions (A against B for
    the headline rates, B against A for the symmetry check) with one
    `_argmax_match` call.
    """
    la, lb = log.site_view(site_a), log.site_view(site_b)
    omega = prev.counts.size - 1
    ea = MultiShotEngine(la.n_users, omega, prev, config)
    eb = MultiShotEngine(lb.n_users, omega, prev, config)

    wanted = sorted(set(report_epochs)) if report_epochs is not None else list(
        range(1, log.epochs + 1)
    )
    forward: list[MatchReport] = []
    reverse: list[MatchReport] = []
    for epoch in range(1, log.epochs + 1):
        ea.observe_epoch(epoch, la.window(epoch))
        eb.observe_epoch(epoch, lb.window(epoch))
        if epoch not in wanted:
            continue
        # Built in the call and bound to no name here, so the matcher's
        # sorted copies can replace them in memory.
        k_ab, c_ab, k_ba, c_ba = _argmax_match(
            np.where(ea.ever_genuine, ea.topic, -1).T, np.where(eb.ever_genuine, eb.topic, -1).T
        )
        forward.append(MatchReport(epoch=epoch, k=k_ab, contains_truth=c_ab, n_users=la.n_users))
        reverse.append(MatchReport(epoch=epoch, k=k_ba, contains_truth=c_ba, n_users=lb.n_users))
    return reid_report(forward, reverse)

