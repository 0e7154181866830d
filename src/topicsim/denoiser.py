"""Adversary-side identification of noisy vs genuine topics.

Three mechanisms compose, from strongest to weakest evidence:

* Repetition. Within one call, a repeated topic came from two distinct
  per-epoch draws. Across calls, two observations of a topic in calls at
  least tau epochs apart (tau, the slots per call, read from the calls)
  cover disjoint source-epoch windows, so they
  are independent draws. Either way the chance that all repeats were
  noise is (p / omega)^x -- negligible. A topic with two provably
  independent observations is confirmed genuine.

* Profile completion. Users carry exactly T stable topics, so once T
  topics are confirmed, everything else observed is marked noisy. The
  recovered set keeps the T best-evidenced confirmed topics, which
  evicts the rare noise topic that sneaks in through a double draw.

* Prevalence threshold. A topic carried by fewer than `threshold`
  domains of the top list is far more likely to be noise than a real
  interest. The threshold verdict is a prior, not proof, so it is only
  consulted during the cold-start window: the first `gap` calls, in
  which calls covering disjoint source windows do not exist yet and
  cross-call confirmation is structurally impossible. Once that window
  has passed, every topic has had a repetition chance, and unconfirmed
  topics are marked noisy outright. With a single call of history this
  reduces exactly to the one-shot procedure.

Metric instances are per-epoch draws (each pinned draw judged once), and
the positive class is noisy. A noise-branch draw that happens to land
inside the user's top profile counts as genuine for evaluation: the
adversary's belief about the interest is correct, and the user has no
deniability to lose.

A `DenoiserConfig` holds only the adversary's choices and assumptions:
`threshold`, the gap rule, and `T`. `denoise_site_trajectory` refuses a
T other than the population's profile width.

Metrics series output: CSV
`epoch,accuracy,precision,tpr,fpr,min_recovered,median_recovered,max_recovered`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .analytics import DEFAULT_T
from .classification import PrevalenceTable
from .population import Population
from .simulator import SiteLog


@dataclass(frozen=True)
class DenoiserConfig:
    threshold: int = 10
    T: int = DEFAULT_T
    aggressive_gap_rule: bool = False

    def __post_init__(self):
        if self.threshold < 0:
            raise ValueError(f"threshold must be >= 0, got {self.threshold}")
        if self.T < 1:
            raise ValueError(f"T must be >= 1, got {self.T}")


@dataclass(frozen=True)
class DenoiseMetrics:
    """Confusion metrics with noisy as the positive class.

    Ratios whose denominator is zero are None, not 0.
    """

    tp: int
    fp: int
    tn: int
    fn: int

    @property
    def accuracy(self) -> Optional[float]:
        total = self.tp + self.fp + self.tn + self.fn
        return (self.tp + self.tn) / total if total else None

    @property
    def precision(self) -> Optional[float]:
        flagged = self.tp + self.fp
        return self.tp / flagged if flagged else None

    @property
    def tpr(self) -> Optional[float]:
        positives = self.tp + self.fn
        return self.tp / positives if positives else None

    @property
    def fpr(self) -> Optional[float]:
        negatives = self.fp + self.tn
        return self.fp / negatives if negatives else None


class MultiShotEngine:
    """Incremental multi-shot denoiser over all users of one site.

    Mirrors the object-level oracle `denoise_multi_shot` in
    `tests/reference.py` exactly (property-tested equivalence), keeping
    (user, topic) state in four dense `(n_users, omega + 1)` int16
    arrays so 10k+ user populations stay cheap:

    * `first_seen`: epoch of the first observation, 0 if never seen;
    * `last_counted`: epoch of the last call counted as independent;
    * `greedy_ev`: multiplicity summed over calls at least `gap` apart;
    * `evidence`: max(greedy_ev, largest within-call multiplicity).

    A topic is confirmed when `evidence >= 2`; `conf_count` holds the
    per-user count of confirmed topics. Feed calls epoch by epoch via
    observe_epoch, then read genuine_matrix / recovered_sizes. The first
    call's width is tau; every later call must have as many slots.
    """

    def __init__(self, n_users: int, omega: int, prev: PrevalenceTable, config: DenoiserConfig):
        if prev.counts.shape != (omega + 1,):
            raise ValueError(f"prevalence table has {prev.counts.size} entries, expected omega + 1 = {omega + 1}")
        self.config = config
        self.omega = omega
        self.tau = 0  # read from the first call
        shape = (n_users, omega + 1)
        self.first_seen = np.zeros(shape, dtype=np.int16)
        self.last_counted = np.zeros(shape, dtype=np.int16)
        self.greedy_ev = np.zeros(shape, dtype=np.int16)
        self.evidence = np.zeros(shape, dtype=np.int16)
        self.conf_count = np.zeros(n_users, dtype=np.int32)
        self.threshold_pass = prev.counts > config.threshold  # (omega + 1,)
        self.threshold_pass[0] = False
        self.current_epoch = 0

    @property
    def gap(self) -> int:
        # Calls >= tau epochs apart share no source epoch. The aggressive
        # variant accepts any non-consecutive pair, which can double-count
        # a single pinned draw; it exists for comparison only.
        return 2 if self.config.aggressive_gap_rule else self.tau

    def observe_epoch(self, epoch: int, call_topics: np.ndarray) -> None:
        """call_topics: (n_users, slots) int topics, -1 for suppressed slots."""
        if epoch != self.current_epoch + 1:
            raise ValueError(f"epochs must be observed in order, got {epoch} after {self.current_epoch}")
        if call_topics.ndim != 2 or call_topics.shape[0] != self.first_seen.shape[0]:
            raise ValueError(
                f"call_topics has shape {call_topics.shape}, expected one row per user "
                f"({self.first_seen.shape[0]})"
            )
        if call_topics.size and call_topics.max() > self.omega:
            raise ValueError(f"topic id {call_topics.max()} is above omega = {self.omega}")
        n, slots = call_topics.shape
        if epoch == 1:
            self.tau = slots
        elif slots != self.tau:
            raise ValueError(f"call of epoch {epoch} has {slots} slots, but the first call had {self.tau}")
        self.current_epoch = epoch
        # Topic ids are at most omega, so u * (omega + 1) + t names one
        # (user, topic) pair.
        width = self.omega + 1
        flat_t = call_topics.ravel()
        keys = np.repeat(np.arange(n, dtype=np.int64) * width, slots) + flat_t
        keys, mult = np.unique(keys[flat_t >= 0], return_counts=True)
        gu, gt = np.divmod(keys, width)
        mult = mult.astype(np.int16)

        first = self.first_seen[gu, gt] == 0
        self.first_seen[gu[first], gt[first]] = epoch
        self.last_counted[gu[first], gt[first]] = epoch
        self.greedy_ev[gu[first], gt[first]] = mult[first]

        countable = ~first & (epoch >= self.last_counted[gu, gt] + self.gap)
        self.last_counted[gu[countable], gt[countable]] = epoch
        self.greedy_ev[gu[countable], gt[countable]] += mult[countable]

        # Greedy evidence and the largest multiplicity only grow, so the
        # running maximum equals max(greedy, largest multiplicity).
        before = self.evidence[gu, gt]
        after = np.maximum(np.maximum(before, mult), self.greedy_ev[gu, gt])
        self.evidence[gu, gt] = after
        np.add.at(self.conf_count, gu[(before < 2) & (after >= 2)], 1)

    def recovered_sizes(self) -> np.ndarray:
        return np.minimum(self.conf_count, self.config.T)

    def recovered_matrix(self) -> np.ndarray:
        """Confirmed-genuine (user, topic) mask, capped at T by eviction.

        Users with more than T confirmed topics keep the T best, ranked
        by evidence, then the prevalence prior, then earliest first
        observation, then topic id.
        """
        recovered = self.evidence >= 2
        over = np.nonzero(self.conf_count > self.config.T)[0]
        rows, t = np.nonzero(recovered[over])
        u = over[rows]
        order = np.lexsort((t, self.first_seen[u, t], ~self.threshold_pass[t], -self.evidence[u, t], u))
        u, t = u[order], t[order]
        rank = np.arange(u.size) - np.searchsorted(u, u)  # minus the user's segment offset
        demoted = rank >= self.config.T
        recovered[u[demoted], t[demoted]] = False
        return recovered

    def genuine_matrix(self) -> np.ndarray:
        """Current (user, topic) genuine labels; unobserved topics are False."""
        genuine = self.recovered_matrix()
        if self.current_epoch <= self.gap:
            unfrozen = self.conf_count < self.config.T
            genuine |= (self.first_seen > 0) & self.threshold_pass[None, :] & unfrozen[:, None]
        return genuine


@dataclass(frozen=True)
class TrajectoryPoint:
    epoch: int
    metrics: DenoiseMetrics
    min_recovered: int
    median_recovered: float
    max_recovered: int


@dataclass(frozen=True)
class DenoiseTrajectory:
    points: tuple[TrajectoryPoint, ...]

    def csv_lines(self) -> list[str]:
        lines = ["epoch,accuracy,precision,tpr,fpr,min_recovered,median_recovered,max_recovered"]
        for pt in self.points:
            m = pt.metrics

            def fmt(v):
                return "" if v is None else f"{v:.6f}"

            lines.append(
                f"{pt.epoch},{fmt(m.accuracy)},{fmt(m.precision)},{fmt(m.tpr)},{fmt(m.fpr)},"
                f"{pt.min_recovered},{pt.median_recovered:g},{pt.max_recovered}"
            )
        return lines

    def point(self, epoch: int) -> TrajectoryPoint:
        for pt in self.points:
            if pt.epoch == epoch:
                return pt
        raise KeyError(epoch)


def denoise_site_trajectory(
    site_log: SiteLog,
    prev: PrevalenceTable,
    config: DenoiserConfig,
    population: Population,
) -> DenoiseTrajectory:
    """Per-epoch on-the-fly metrics for one site's full log.

    At each epoch the verdict uses calls 1..e only and is scored over all
    draws the adversary has actually seen by then (per-draw instances,
    noisy positive, effective-nature truth). Every call returns all tau
    draws of its window, so by epoch e the adversary has seen exactly
    the draws of source epochs before e.

    Refuses a `config` whose T differs from the population's profile
    width: T is the adversary's assumption, which the calls do not reveal.
    """
    if config.T != population.profiles.shape[1]:
        raise ValueError(
            f"denoiser T = {config.T}, but the population's profiles hold {population.profiles.shape[1]} topics"
        )
    omega = prev.counts.size - 1
    engine = MultiShotEngine(site_log.n_users, omega, prev, config)

    # Align the population's profiles to the log's users.
    missing = ~np.isin(site_log.user_ids, population.user_ids)
    if missing.any():
        raise ValueError(f"user {site_log.user_ids[missing][0]} of the log is not in the population")
    by_id = np.argsort(population.user_ids, kind="stable")
    at = by_id[np.searchsorted(population.user_ids[by_id], site_log.user_ids)]
    rows = np.arange(site_log.n_users)[:, None]
    profile_mask = np.zeros((site_log.n_users, omega + 1), dtype=bool)
    profile_mask[rows, population.profiles[at]] = True

    tt = site_log.truth_topics.astype(np.int64)
    noisy_eff = site_log.truth_noisy & ~profile_mask[rows, tt]

    points = []
    for epoch in range(1, site_log.epochs + 1):
        engine.observe_epoch(epoch, site_log.topics[:, epoch - 1, :])
        seen = (site_log.source_epochs < epoch)[None, :]
        predicted_noisy = ~engine.genuine_matrix()[rows, tt]
        tp = int(np.sum(seen & noisy_eff & predicted_noisy))
        fn = int(np.sum(seen & noisy_eff & ~predicted_noisy))
        fp = int(np.sum(seen & ~noisy_eff & predicted_noisy))
        tn = int(np.sum(seen & ~noisy_eff & ~predicted_noisy))
        sizes = engine.recovered_sizes()
        points.append(
            TrajectoryPoint(
                epoch=epoch,
                metrics=DenoiseMetrics(tp=tp, fp=fp, tn=tn, fn=fn),
                min_recovered=int(sizes.min()),
                median_recovered=float(np.median(sizes)),
                max_recovered=int(sizes.max()),
            )
        )
    return DenoiseTrajectory(points=tuple(points))
