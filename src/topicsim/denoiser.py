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
from .population import Profiles
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


# Slots per user of a new engine. A user observed with more distinct
# topics doubles every slot table's width; results do not depend on it.
INITIAL_SLOTS = 8


class MultiShotEngine:
    """Incremental multi-shot denoiser over all users of one site.

    Mirrors the object-level oracle `denoise_multi_shot` in
    `tests/reference.py` exactly (property-tested equivalence). A user
    sees a handful of distinct topics, so state lives in per-user slot
    tables of shape `(K, n_users)`, one row per slot, not in omega + 1
    topic columns:

    * `topic`: the user's distinct observed topics, -1 for an empty slot;
    * `next_count`: first epoch at which a call counts again, 0 for a
      fresh slot;
    * `greedy_ev`: multiplicity summed over calls at least `gap` apart;
    * `evidence`: max(greedy_ev, largest within-call multiplicity);
    * `ever_genuine`: the topic was labeled genuine at some epoch so far,
      the matching set of re-identification.

    A user's topics take the next free slots, the topics of one call in
    ascending id, so slot order is order of first observation with ties
    by id. A slot keeps its topic for the engine's life, and K grows by
    appending slot rows, so a flat index `slot * n_users + user` into
    any table stays valid. K starts at `INITIAL_SLOTS` and doubles
    whenever a user's new topics do not fit.

    Every user makes one tau-slot call per epoch, so `observe_epoch`
    needs no grouping sort: it transposes the call to `(tau, n_users)`
    once, compares each slot row of `topic` with each call row, which
    gives the call's multiplicity of every held topic, and updates the
    tables with whole-table arithmetic. Only the users that meet a new
    topic are gathered, to place it in their next free slot.

    A topic is confirmed when `evidence >= 2`. The first call's width is
    tau; every later call must have as many slots.

    The engine reads a call as a multiset: the order of a call's slots
    changes no table and no label (property-tested). So the attack loops
    feed it each epoch's draws in source order (`SiteLog.window`) rather
    than the shuffled call the API returns.
    """

    def __init__(self, n_users: int, omega: int, prev: PrevalenceTable, config: DenoiserConfig):
        if prev.counts.shape != (omega + 1,):
            raise ValueError(f"prevalence table has {prev.counts.size} entries, expected omega + 1 = {omega + 1}")
        self.config = config
        self.omega = omega
        self.tau = 0  # read from the first call
        shape = (INITIAL_SLOTS, n_users)
        self.topic = np.full(shape, -1, dtype=np.int16)
        self.next_count = np.zeros(shape, dtype=np.int16)
        self.greedy_ev = np.zeros(shape, dtype=np.int16)
        self.evidence = np.zeros(shape, dtype=np.int16)
        self.ever_genuine = np.zeros(shape, dtype=bool)
        self.threshold_pass = prev.counts > config.threshold  # (omega + 1,)
        self.threshold_pass[0] = False
        self.current_epoch = 0

    @property
    def gap(self) -> int:
        # Calls >= tau epochs apart share no source epoch. The aggressive
        # variant accepts any non-consecutive pair, which can double-count
        # a single pinned draw; it exists for comparison only.
        return 2 if self.config.aggressive_gap_rule else self.tau

    def observe_epoch(self, epoch: int, call_topics: np.ndarray) -> np.ndarray:
        """Fold in every user's call of `epoch`, `(n_users, tau)` int topics, any
        negative id for a suppressed slot; returns the epoch's `genuine_slots()`."""
        if epoch != self.current_epoch + 1:
            raise ValueError(f"epochs must be observed in order, got {epoch} after {self.current_epoch}")
        if call_topics.ndim != 2 or call_topics.shape[0] != self.topic.shape[1]:
            raise ValueError(
                f"call_topics has shape {call_topics.shape}, expected one row per user "
                f"({self.topic.shape[1]})"
            )
        # One row per call slot: a single pass over a strided view.
        call = np.ascontiguousarray(call_topics.T)
        if call.size and call.max() > self.omega:
            raise ValueError(f"topic id {call.max()} is above omega = {self.omega}")
        slots = call.shape[0]
        if epoch == 1:
            self.tau = slots
        elif slots != self.tau:
            raise ValueError(f"call of epoch {epoch} has {slots} slots, but the first call had {self.tau}")
        self.current_epoch = epoch
        # A suppressed entry becomes -2, which no slot holds (an empty slot
        # holds -1), before the cast to int16.
        call = np.where(call < 0, -2, call).astype(np.int16, copy=False)

        # m: this call's multiplicity of every held slot's topic. An entry
        # is new where no slot holds it and no earlier entry repeats it.
        m = np.zeros(self.topic.shape, dtype=np.int16)
        new = call >= 0
        for i, row in enumerate(call):
            held = self.topic == row
            m += held
            new[i] &= ~held.any(axis=0)
            for j in range(i):
                new[i] &= row != call[j]
        users = np.flatnonzero(new.any(axis=0))
        if users.size:
            slot, u, mult = self._add_topics(call[:, users], new[:, users], users)
            m = self._widen(m)
            m[slot, u] = mult

        # Greedy evidence and the largest multiplicity only grow, so the
        # running maximum equals max(greedy, largest multiplicity).
        np.maximum(self.evidence, m, out=self.evidence)
        # Unmasked arithmetic, several times faster than `where=` writes: a
        # countable slot's next_count is at most `epoch`, so setting it to
        # `epoch + gap` is a maximum.
        countable = (m > 0) & (self.next_count <= epoch)
        m *= countable
        self.greedy_ev += m
        np.maximum(self.evidence, self.greedy_ev, out=self.evidence)
        np.maximum(self.next_count, countable * np.int16(epoch + self.gap), out=self.next_count)
        genuine = self.genuine_slots()
        self.ever_genuine |= genuine
        return genuine

    def slots_of(self, u: np.ndarray, t: np.ndarray) -> np.ndarray:
        """The slot holding topic `t >= 0` in user `u`'s column, `u` broadcast
        against `t`; -1 where there is none."""
        # A user holds a topic in at most one slot, so at most one term is nonzero.
        hit = np.zeros(np.broadcast_shapes(np.shape(u), np.shape(t)), dtype=np.int64)
        for s, row in enumerate(self.topic):
            hit += (row[u] == t) * (s + 1)
        return hit - 1

    def _widen(self, a: np.ndarray) -> np.ndarray:
        """Per-slot table `a` zero-padded at the bottom to K slot rows; `a` itself if it has K rows."""
        k = self.topic.shape[0]
        return a if a.shape[0] == k else np.pad(a, ((0, k - a.shape[0]), (0, 0)))

    def _add_topics(
        self, call: np.ndarray, new: np.ndarray, users: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Slots for the new entries of `call` (the calls of `users`, one column each).

        Each user's new topics take the next free slots in ascending id.
        Returns `(slot, user, multiplicity in the call)` per new topic.
        """
        rank = np.zeros(call.shape, dtype=np.int64)
        mult = np.zeros(call.shape, dtype=np.int16)
        for row, row_new in zip(call, new):
            rank += row_new & (row < call)  # rank[i] counts the new ids below call[i]
            mult += row == call
        i, col = np.nonzero(new)
        free = np.count_nonzero(self.topic[:, users] >= 0, axis=0)
        slot = free[col] + rank[i, col]
        k = self.topic.shape[0]
        while k <= slot.max():
            k *= 2
        if k > self.topic.shape[0]:
            self.topic = np.pad(self.topic, ((0, k - self.topic.shape[0]), (0, 0)), constant_values=-1)
            self.next_count, self.greedy_ev, self.evidence, self.ever_genuine = map(
                self._widen, (self.next_count, self.greedy_ev, self.evidence, self.ever_genuine)
            )
        u = users[col]
        self.topic[slot, u] = call[i, col]
        return slot, u, mult[i, col]

    def _confirmed(self) -> tuple[np.ndarray, np.ndarray]:
        """Confirmed `(slot, user)` mask and each user's count of confirmed topics."""
        confirmed = self.evidence >= 2
        return confirmed, np.count_nonzero(confirmed, axis=0)

    def recovered_sizes(self) -> np.ndarray:
        return np.minimum(self._confirmed()[1], self.config.T)

    def recovered_slots(self) -> np.ndarray:
        """Confirmed-genuine `(slot, user)` mask, capped at T by eviction.

        Users with more than T confirmed topics keep the T best, ranked
        by evidence, then the prevalence prior, then slot (earliest first
        observation, then topic id).
        """
        recovered, count = self._confirmed()
        over = np.nonzero(count > self.config.T)[0]
        s, cols = np.nonzero(recovered[:, over])
        u = over[cols]
        order = np.lexsort((s, ~self.threshold_pass[self.topic[s, u]], -self.evidence[s, u], u))
        u, s = u[order], s[order]
        rank = np.arange(u.size) - np.searchsorted(u, u)  # minus the user's segment offset
        demoted = rank >= self.config.T
        recovered[s[demoted], u[demoted]] = False
        return recovered

    def genuine_slots(self) -> np.ndarray:
        """Current `(slot, user)` genuine labels; empty slots are False."""
        genuine = self.recovered_slots()
        if self.current_epoch <= self.gap:
            unfrozen = self._confirmed()[1] < self.config.T
            # An empty slot's -1 reads the last entry; `topic >= 0` masks it.
            genuine |= (self.topic >= 0) & self.threshold_pass[self.topic] & unfrozen
        return genuine

    def genuine_matrix(self) -> np.ndarray:
        """`genuine_slots` as a dense `(user, topic)` mask; unobserved topics are False."""
        out = np.zeros((self.topic.shape[1], self.omega + 1), dtype=bool)
        s, u = np.nonzero(self.genuine_slots())
        out[u, self.topic[s, u]] = True
        return out


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
    population: Profiles,
) -> DenoiseTrajectory:
    """Per-epoch on-the-fly metrics for one site's full log.

    At each epoch the verdict uses calls 1..e only and is scored over all
    draws the adversary has actually seen by then (per-draw instances,
    noisy positive, effective-nature truth). Every call returns all tau
    draws of its window, so by epoch e the adversary has seen exactly
    the draws of source epochs before e.

    `population` is the one the log was simulated from: row i of its
    profiles is the log's user i. Refuses a population whose user ids
    are not the log's, in the log's order, and a `config` whose T
    differs from the population's profile width: T is the adversary's
    assumption, which the calls do not reveal.
    """
    if not np.array_equal(population.user_ids, site_log.user_ids):
        raise ValueError("the population's user ids are not the log's, in the log's order: "
                         "pass the population the log was simulated from")
    profiles = population.profiles
    if config.T != profiles.shape[1]:
        raise ValueError(f"denoiser T = {config.T}, but the population's profiles hold {profiles.shape[1]} topics")
    omega = prev.counts.size - 1
    engine = MultiShotEngine(site_log.n_users, omega, prev, config)

    tt = site_log.truth_topics
    in_profile = np.zeros(tt.shape, dtype=bool)
    for c in range(profiles.shape[1]):
        in_profile |= tt == profiles[:, c, None]
    noisy_eff = np.ascontiguousarray((site_log.truth_noisy & ~in_profile).T)  # (source, user)

    # Each draw's flat index `slot * n + user` into the engine's tables,
    # `(source, user)`, set in the epoch that first shows the draw. Source
    # epochs ascend, so the draws seen by epoch e are the first rows.
    n = site_log.n_users
    users = np.arange(n)
    draw_at = np.empty(noisy_eff.shape, dtype=np.int64)
    seen = 0
    points = []
    for epoch in range(1, site_log.epochs + 1):
        genuine = engine.observe_epoch(epoch, site_log.window(epoch))
        first_new, seen = seen, int(np.count_nonzero(site_log.source_epochs < epoch))
        slot = engine.slots_of(users, tt[:, first_new:seen].T)
        if np.any(slot < 0):
            raise ValueError(f"a draw seen by epoch {epoch} is missing from the calls")
        draw_at[first_new:seen] = slot * n + users

        labeled = genuine.ravel()[draw_at[:seen]]
        noisy = noisy_eff[:seen]
        fn = int(np.count_nonzero(labeled & noisy))
        tn = int(np.count_nonzero(labeled)) - fn
        tp = int(np.count_nonzero(noisy)) - fn
        fp = labeled.size - tp - fn - tn
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
