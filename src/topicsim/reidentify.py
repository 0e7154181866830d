"""Two-advertiser collusion: match users across sites by topic overlap.

Each side denoises its own observation log on the fly. A user's matching
set at epoch e is every topic their side has ever labeled genuine up to
e (confirmed topics plus threshold-passing first sightings); the union
is cumulative, so matching sets never shrink. Each user seen on site A
is mapped to the argmax tie set over site-B users by shared-topic count.

A user is uniquely re-identified when that group is exactly their own
identity; they are matched better than random when the group contains
them and is smaller than the whole population. Users whose maximal
overlap is zero are assigned the entire population (k = n), counting as
neither.

Report output: CSV `epoch,unique_rate,better_than_random_rate` plus
per-epoch `k,cdf` files.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Optional, Sequence

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
        ks = np.sort(self.k)
        sizes, counts = np.unique(ks, return_counts=True)
        return sizes, np.cumsum(counts) / len(ks)


def match_users(
    profiles_a: Mapping[int, Iterable[int]],
    profiles_b: Mapping[int, Iterable[int]],
    epoch: int = 1,
    omega: int = 349,
) -> MatchReport:
    """Match every A-side user to the argmax-overlap group of B-side users.

    Both mappings must cover the same user universe; correctness is
    judged against the identity mapping.
    """
    if set(profiles_a) != set(profiles_b):
        raise ValueError("A and B must observe the same user universe")
    users = sorted(profiles_a)
    a = _sets_to_matrix(profiles_a, users, omega)
    b = _sets_to_matrix(profiles_b, users, omega)
    k, contains, _, _ = _argmax_match(a, b)
    return MatchReport(epoch=epoch, k=k, contains_truth=contains, n_users=len(users))


def _sets_to_matrix(profiles: Mapping[int, Iterable[int]], users: Sequence[int], omega: int) -> np.ndarray:
    mat = np.zeros((len(users), omega + 1), dtype=np.float32)
    for i, uid in enumerate(users):
        topics = list(profiles[uid])
        if topics:
            mat[i, topics] = 1.0
    return mat


def _argmax_match(
    a: np.ndarray, b: np.ndarray, block: int = 1024
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Argmax-overlap groups in both directions from one blocked A·Bᵀ product.

    Row i of `a` and row i of `b` are the same identity. Returns
    `(k_ab, contains_ab, k_ba, contains_ba)`: group size and
    self-containment for each A-side user matched against B (row
    reductions of the product) and for each B-side user matched against
    A (column reductions, merged across row blocks as a running max and
    the count of entries at that max).
    """
    n = a.shape[0]
    if b.shape[0] != n:
        raise ValueError(f"A has {n} users and B has {b.shape[0]}: matching needs the same users")
    bt = b.T.copy()
    k_ab = np.empty(n, dtype=np.int64)
    contains_ab = np.empty(n, dtype=bool)
    self_overlap = np.empty(n, dtype=np.float32)
    col_max = np.full(n, -1.0, dtype=np.float32)  # below every overlap
    k_ba = np.zeros(n, dtype=np.int64)
    # One block buffer for all products: a fresh block per product would
    # keep two blocks alive at each assignment.
    buf = np.empty((min(block, n), n), dtype=np.float32)
    for lo in range(0, n, block):
        hi = min(lo + block, n)
        overlap = np.matmul(a[lo:hi], bt, out=buf[: hi - lo])  # small ints, exact in float32
        diag = overlap[np.arange(hi - lo), np.arange(lo, hi)]
        self_overlap[lo:hi] = diag  # also the diagonal of columns lo..hi-1
        mx = overlap.max(axis=1)
        k_ab[lo:hi] = (overlap == mx[:, None]).sum(axis=1, dtype=np.int32)
        contains_ab[lo:hi] = diag == mx
        m_blk = overlap.max(axis=0)
        c_blk = (overlap == m_blk).sum(axis=0, dtype=np.int32)
        new = np.maximum(col_max, m_blk)
        k_ba = k_ba * (col_max == new) + c_blk * (m_blk == new)
        col_max = new
    return k_ab, contains_ab, k_ba, self_overlap == col_max


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

    Denoises both sites incrementally, accumulates sticky genuine sets,
    and matches at each requested epoch in both directions (A against B
    for the headline rates, B against A for the symmetry check) from one
    product over the topic columns active on either side.
    """
    la, lb = log.site_view(site_a), log.site_view(site_b)
    omega = int(prev.counts.shape[0] - 1)
    ea = MultiShotEngine(la.n_users, omega, prev, config)
    eb = MultiShotEngine(lb.n_users, omega, prev, config)
    sticky_a = np.zeros((la.n_users, omega + 1), dtype=bool)
    sticky_b = np.zeros((lb.n_users, omega + 1), dtype=bool)

    wanted = sorted(set(report_epochs)) if report_epochs is not None else list(
        range(1, log.epochs + 1)
    )
    forward: list[MatchReport] = []
    reverse: list[MatchReport] = []
    for epoch in range(1, log.epochs + 1):
        ea.observe_epoch(epoch, la.topics[:, epoch - 1, :])
        eb.observe_epoch(epoch, lb.topics[:, epoch - 1, :])
        sticky_a |= ea.genuine_matrix()
        sticky_b |= eb.genuine_matrix()
        if epoch not in wanted:
            continue
        # Topics neither side has labeled add nothing to any overlap.
        act = sticky_a.any(axis=0) | sticky_b.any(axis=0)
        a = sticky_a[:, act].astype(np.float32)
        b = sticky_b[:, act].astype(np.float32)
        k_ab, c_ab, k_ba, c_ba = _argmax_match(a, b)
        forward.append(MatchReport(epoch=epoch, k=k_ab, contains_truth=c_ab, n_users=la.n_users))
        reverse.append(MatchReport(epoch=epoch, k=k_ba, contains_truth=c_ba, n_users=lb.n_users))
    return reid_report(forward, reverse)
