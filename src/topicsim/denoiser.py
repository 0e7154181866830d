"""Adversary-side identification of noisy vs genuine topics.

Three mechanisms compose, from strongest to weakest evidence:

* Repetition. Within one call, a repeated topic came from two distinct
  per-epoch draws. Across calls, two observations of a topic in calls at
  least tau epochs apart cover disjoint source-epoch windows, so they
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

Metrics series output: CSV
`epoch,accuracy,precision,tpr,fpr,min_recovered,median_recovered,max_recovered`.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Mapping, Optional, Sequence

import numpy as np

from .classification import PrevalenceTable
from .population import UserProfile
from .simulator import ApiResult, EpochDraw, SiteLog

GENUINE = "genuine"
NOISY = "noisy"

BASIS_WITHIN_CALL = "repetition-within-call"
BASIS_ACROSS_CALLS = "repetition-across-calls"
BASIS_THRESHOLD = "threshold"
BASIS_PROFILE_COMPLETE = "profile-complete"
BASIS_STALE = "stale-unconfirmed"


@dataclass(frozen=True)
class DenoiserConfig:
    threshold: int = 10
    tau: int = 3
    T: int = 5
    aggressive_gap_rule: bool = False

    def __post_init__(self):
        if self.threshold < 0:
            raise ValueError(f"threshold must be >= 0, got {self.threshold}")
        if self.tau < 1 or self.T < 1:
            raise ValueError("tau and T must be >= 1")

    @property
    def gap(self) -> int:
        # Calls >= tau epochs apart share no source epoch. The aggressive
        # variant accepts any non-consecutive pair, which can double-count
        # a single pinned draw; it exists for comparison only.
        return 2 if self.aggressive_gap_rule else self.tau


def threshold_classify(topic: int, prev: PrevalenceTable, config: DenoiserConfig) -> str:
    """Genuine iff the topic appears on strictly more than `threshold` domains."""
    return GENUINE if prev.count_of(topic) > config.threshold else NOISY


@dataclass(frozen=True)
class TopicLabel:
    label: str
    basis: str


@dataclass(frozen=True)
class SlotVerdict:
    epoch: int
    slot: int
    topic: int
    label: str
    basis: str


@dataclass(frozen=True)
class NoiseVerdict:
    """Labels for every observed slot and every observed topic."""

    slots: tuple[SlotVerdict, ...]
    topic_labels: Mapping[int, TopicLabel]

    def genuine_topics(self) -> frozenset[int]:
        return frozenset(t for t, tl in self.topic_labels.items() if tl.label == GENUINE)

    def label_of(self, topic: int) -> TopicLabel:
        return self.topic_labels[topic]


@dataclass(frozen=True)
class MultiShotOutcome:
    verdict: NoiseVerdict
    recovered: frozenset[int]  # confirmed genuine topics, at most T
    frozen: bool


@dataclass
class _TopicState:
    first_seen: int = 0
    last_counted: int = 0
    greedy_evidence: int = 0
    best_call_mult: int = 0
    confirmed_at: int = 0
    basis: str = ""

    @property
    def evidence(self) -> int:
        return max(self.greedy_evidence, self.best_call_mult)


def _update_topic_states(
    states: dict[int, _TopicState], epoch: int, topics: Sequence[int], gap: int
) -> None:
    for topic, mult in Counter(topics).items():
        st = states.setdefault(topic, _TopicState())
        if st.first_seen == 0:
            st.first_seen = epoch
            st.last_counted = epoch
            st.greedy_evidence = mult
        elif epoch >= st.last_counted + gap:
            st.last_counted = epoch
            st.greedy_evidence += mult
        st.best_call_mult = max(st.best_call_mult, mult)
        if st.confirmed_at == 0 and st.evidence >= 2:
            st.confirmed_at = epoch
            st.basis = BASIS_WITHIN_CALL if st.best_call_mult >= 2 else BASIS_ACROSS_CALLS


def _recovered_set(
    states: dict[int, _TopicState],
    T: int,
    prev: Optional[PrevalenceTable] = None,
    config: Optional[DenoiserConfig] = None,
) -> list[int]:
    """T best-evidenced confirmed topics.

    Evidence ties are broken by the prevalence prior (noise topics that
    slip in through a double draw are mostly below threshold), then by
    earliest first observation.
    """

    def above(t: int) -> int:
        if prev is None or config is None:
            return 0
        return 1 if prev.count_of(t) > config.threshold else 0

    confirmed = [
        (st.evidence, above(t), -st.first_seen, -t)
        for t, st in states.items()
        if st.confirmed_at
    ]
    confirmed.sort(reverse=True)
    return [-entry[3] for entry in confirmed[:T]]


def _labels(
    states: dict[int, _TopicState],
    current_epoch: int,
    prev: PrevalenceTable,
    config: DenoiserConfig,
) -> dict[int, TopicLabel]:
    recovered = set(_recovered_set(states, config.T, prev, config))
    frozen = len(recovered) >= config.T and sum(1 for st in states.values() if st.confirmed_at) >= config.T
    cold = current_epoch <= config.gap
    labels: dict[int, TopicLabel] = {}
    for topic, st in states.items():
        if topic in recovered:
            labels[topic] = TopicLabel(GENUINE, st.basis)
        elif frozen:
            labels[topic] = TopicLabel(NOISY, BASIS_PROFILE_COMPLETE)
        elif st.confirmed_at:
            # Confirmed but evicted from the top-T can only happen when
            # frozen; unfrozen confirmed topics are always recovered.
            labels[topic] = TopicLabel(GENUINE, st.basis)
        elif cold:
            labels[topic] = TopicLabel(threshold_classify(topic, prev, config), BASIS_THRESHOLD)
        else:
            labels[topic] = TopicLabel(NOISY, BASIS_STALE)
    return labels


def denoise_multi_shot(
    history: Sequence[ApiResult],
    prev: PrevalenceTable,
    config: DenoiserConfig = DenoiserConfig(),
) -> MultiShotOutcome:
    """On-the-fly multi-shot verdict over one (site, user) history.

    History must be epoch-ordered and single-site. The verdict reflects
    knowledge after the last call; with a single call it is identical to
    denoise_one_shot.
    """
    if not history:
        raise ValueError("history must contain at least one call")
    site = history[0].site
    states: dict[int, _TopicState] = {}
    last_epoch = 0
    for res in history:
        if res.site != site:
            raise ValueError(f"history mixes sites {site!r} and {res.site!r}")
        if res.epoch <= last_epoch:
            raise ValueError("history must be strictly epoch-ordered")
        last_epoch = res.epoch
        _update_topic_states(states, res.epoch, res.topics, config.gap)

    labels = _labels(states, last_epoch, prev, config)
    slots = tuple(
        SlotVerdict(res.epoch, i, t, labels[t].label, labels[t].basis)
        for res in history
        for i, t in enumerate(res.topics)
    )
    recovered = frozenset(_recovered_set(states, config.T, prev, config))
    return MultiShotOutcome(
        verdict=NoiseVerdict(slots=slots, topic_labels=labels),
        recovered=recovered,
        frozen=len(recovered) >= config.T,
    )


def denoise_one_shot(
    result: ApiResult,
    prev: PrevalenceTable,
    config: DenoiserConfig = DenoiserConfig(),
) -> NoiseVerdict:
    """Single-call verdict: repeats are genuine, the rest ask the threshold."""
    if not result.topics:
        raise ValueError("result carries no topics")
    return denoise_multi_shot([result], prev, config).verdict


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


@dataclass(frozen=True)
class TruthChannel:
    """Ground-truth draws plus profiles, for evaluation only.

    A draw is an effectively noisy instance when it came from the noise
    branch and its topic is outside the user's top profile.
    """

    draws: Mapping[tuple[int, int], EpochDraw]  # (user_id, source_epoch) -> draw
    profiles: Mapping[int, frozenset[int]]

    def effectively_noisy(self, user_id: int, source_epoch: int) -> bool:
        draw = self.draws[(user_id, source_epoch)]
        return draw.noisy and draw.topic not in self.profiles[user_id]


def truth_channel(site_log: SiteLog, population: Sequence[UserProfile]) -> TruthChannel:
    draws = {}
    for ui, uid in enumerate(site_log.user_ids):
        for ki, src in enumerate(site_log.source_epochs):
            draws[(int(uid), int(src))] = EpochDraw(
                topic=int(site_log.truth_topics[ui, ki]),
                noisy=bool(site_log.truth_noisy[ui, ki]),
            )
    profiles = {u.user_id: frozenset(u.top_profile) for u in population}
    return TruthChannel(draws=draws, profiles=profiles)


@dataclass(frozen=True)
class DenoiseEvaluation:
    metrics: DenoiseMetrics
    min_recovered: int
    median_recovered: float
    max_recovered: int


def evaluate_denoiser(
    outcomes: Mapping[int, MultiShotOutcome],
    truth: TruthChannel,
    through_epoch: Optional[int] = None,
) -> DenoiseEvaluation:
    """Score verdicts against the truth channel, per-draw instances.

    Every observed draw (source epoch before `through_epoch`) must be in
    the truth channel; a missing one is an evaluation error.
    """
    tp = fp = tn = fn = 0
    sizes = []
    for user_id, outcome in outcomes.items():
        last_epoch = max(s.epoch for s in outcome.verdict.slots)
        horizon = through_epoch if through_epoch is not None else last_epoch
        sources = sorted({src for (u, src) in truth.draws if u == user_id and src < horizon})
        if not sources:
            raise ValueError(f"truth channel has no draws for user {user_id}")
        for src in sources:
            if (user_id, src) not in truth.draws:
                raise ValueError(f"instance (user {user_id}, source {src}) missing from truth")
            draw = truth.draws[(user_id, src)]
            if draw.topic not in outcome.verdict.topic_labels:
                raise ValueError(
                    f"draw topic {draw.topic} for user {user_id} missing from verdict"
                )
            predicted_noisy = outcome.verdict.topic_labels[draw.topic].label == NOISY
            actual_noisy = truth.effectively_noisy(user_id, src)
            if actual_noisy and predicted_noisy:
                tp += 1
            elif actual_noisy:
                fn += 1
            elif predicted_noisy:
                fp += 1
            else:
                tn += 1
        sizes.append(len(outcome.recovered))
    return DenoiseEvaluation(
        metrics=DenoiseMetrics(tp=tp, fp=fp, tn=tn, fn=fn),
        min_recovered=int(min(sizes)),
        median_recovered=float(np.median(sizes)),
        max_recovered=int(max(sizes)),
    )


# --- vectorized site-level engine ----------------------------------------


class MultiShotEngine:
    """Incremental multi-shot denoiser over all users of one site.

    Mirrors denoise_multi_shot exactly (property-tested equivalence) but
    keeps (user, topic) state in dense arrays so 10k+ user populations
    stay cheap. Feed calls epoch by epoch via observe_epoch, then read
    genuine_matrix / recovered_sizes.
    """

    def __init__(self, n_users: int, omega: int, prev: PrevalenceTable, config: DenoiserConfig):
        self.config = config
        self.omega = omega
        self.n = n_users
        shape = (n_users, omega + 1)
        self.first_seen = np.zeros(shape, dtype=np.int16)
        self.last_counted = np.zeros(shape, dtype=np.int16)
        self.greedy_ev = np.zeros(shape, dtype=np.int16)
        self.best_mult = np.zeros(shape, dtype=np.int16)
        self.confirmed_at = np.zeros(shape, dtype=np.int16)
        self.conf_count = np.zeros(n_users, dtype=np.int32)
        self.threshold_pass = prev.counts > config.threshold  # (omega + 1,)
        self.threshold_pass[0] = False
        self.current_epoch = 0

    def observe_epoch(self, epoch: int, call_topics: np.ndarray) -> None:
        """call_topics: (n_users, slots) int topics, -1 for suppressed slots."""
        if epoch != self.current_epoch + 1:
            raise ValueError(f"epochs must be observed in order, got {epoch} after {self.current_epoch}")
        self.current_epoch = epoch
        n, slots = call_topics.shape
        flat_u = np.repeat(np.arange(n), slots)
        flat_t = call_topics.ravel()
        keep = flat_t >= 0
        flat_u, flat_t = flat_u[keep], flat_t[keep].astype(np.int64)

        order = np.lexsort((flat_t, flat_u))
        u, t = flat_u[order], flat_t[order]
        boundary = np.ones(len(u), dtype=bool)
        boundary[1:] = (u[1:] != u[:-1]) | (t[1:] != t[:-1])
        starts = np.nonzero(boundary)[0]
        mult = np.diff(np.append(starts, len(u))).astype(np.int16)
        gu, gt = u[starts], t[starts]

        first = self.first_seen[gu, gt] == 0
        self.first_seen[gu[first], gt[first]] = epoch
        self.last_counted[gu[first], gt[first]] = epoch
        self.greedy_ev[gu[first], gt[first]] = mult[first]

        countable = ~first & (epoch >= self.last_counted[gu, gt] + self.config.gap)
        self.last_counted[gu[countable], gt[countable]] = epoch
        self.greedy_ev[gu[countable], gt[countable]] += mult[countable]

        self.best_mult[gu, gt] = np.maximum(self.best_mult[gu, gt], mult)

        evidence = np.maximum(self.greedy_ev[gu, gt], self.best_mult[gu, gt])
        newly = (self.confirmed_at[gu, gt] == 0) & (evidence >= 2)
        self.confirmed_at[gu[newly], gt[newly]] = epoch
        np.add.at(self.conf_count, gu[newly], 1)

    def frozen_users(self) -> np.ndarray:
        return self.conf_count >= self.config.T

    def recovered_sizes(self) -> np.ndarray:
        return np.minimum(self.conf_count, self.config.T)

    def _demotions(self) -> list[tuple[int, np.ndarray]]:
        """(user, demoted-topic-ids) for users with more than T confirmed.

        Same ranking as the object-level recovered set: evidence, then
        the prevalence prior, then earliest first observation.
        """
        out = []
        for uid in np.nonzero(self.conf_count > self.config.T)[0]:
            topics = np.nonzero(self.confirmed_at[uid] > 0)[0]
            ev = np.maximum(self.greedy_ev[uid, topics], self.best_mult[uid, topics])
            rank = sorted(
                range(len(topics)),
                key=lambda i: (
                    -ev[i],
                    -int(self.threshold_pass[topics[i]]),
                    self.first_seen[uid, topics[i]],
                    topics[i],
                ),
            )
            demoted = rank[self.config.T:]
            if demoted:
                out.append((int(uid), topics[np.asarray(demoted, dtype=np.int64)]))
        return out

    def genuine_matrix(self) -> np.ndarray:
        """Current (user, topic) genuine labels; unobserved topics are False."""
        genuine = self.confirmed_at > 0
        for uid, demoted in self._demotions():
            genuine[uid, demoted] = False
        if self.current_epoch <= self.config.gap:
            observed = self.first_seen > 0
            unfrozen = ~self.frozen_users()
            genuine |= observed & self.threshold_pass[None, :] & unfrozen[:, None]
        return genuine

    def recovered_matrix(self) -> np.ndarray:
        """Confirmed-genuine (user, topic) mask, capped at T by eviction."""
        recovered = self.confirmed_at > 0
        for uid, demoted in self._demotions():
            recovered[uid, demoted] = False
        return recovered


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
    population: Sequence[UserProfile],
    epochs: Optional[Iterable[int]] = None,
) -> DenoiseTrajectory:
    """Per-epoch on-the-fly metrics for one site's full log.

    At each epoch the verdict uses calls 1..e only and is scored over all
    draws the adversary has actually seen by then (per-draw instances,
    noisy positive, effective-nature truth). Every call returns all tau
    draws of its window, so by epoch e the adversary has seen exactly
    the draws of source epochs before e.
    """
    omega = int(max(prev.counts.shape[0] - 1, site_log.truth_topics.max()))
    engine = MultiShotEngine(site_log.n_users, omega, prev, config)

    profile_mask = np.zeros((site_log.n_users, omega + 1), dtype=bool)
    by_id = {u.user_id: u for u in population}
    for i, uid in enumerate(site_log.user_ids):
        profile_mask[i, list(by_id[int(uid)].top_profile)] = True

    rows = np.arange(site_log.n_users)[:, None]
    noisy_eff = site_log.truth_noisy & ~profile_mask[rows, site_log.truth_topics.astype(np.int64)]

    wanted = set(epochs) if epochs is not None else set(range(1, site_log.epochs + 1))
    points = []
    for epoch in range(1, site_log.epochs + 1):
        engine.observe_epoch(epoch, site_log.topics[:, epoch - 1, :])
        if epoch not in wanted:
            continue
        seen = (site_log.source_epochs < epoch)[None, :]
        tt = site_log.truth_topics.astype(np.int64)
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
