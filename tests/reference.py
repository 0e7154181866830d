"""Reference oracles that the package's optimised paths are tested against.

Each one is the plain, earlier form of a package routine, kept here so a
faster rewrite can be checked for equal results:

* `distinct_draws_reference` (one row and one value at a time) checks
  `rng.distinct_draws`;
* `entries` and `topics_of` (per-domain topic sets, read from the CSR
  through `names`, `rows_of` and `row`) are the record views of a
  `DomainClassification` that the tests compare;
* `prevalence_reference` (a double loop over the domain -> topic-set
  mapping) checks `classification.prevalence` (one `np.bincount` over
  the CSR);
* `synthesize_skewed_classification_reference` (one topic at a time,
  from a scalar draw-and-skip loop over the whole domain list for head
  topics and `FLOOR_WINDOW` for floor topics) checks
  `classification.synthesize_skewed_classification`;
* `generate_population_reference` (one user at a time, from the scalar
  draw loops `_sample_distinct_domains` and `derive_top_profile`) checks
  `population.generate_population` (its `Population` rows, as
  `UserProfile` records) and `population.top_profiles`;
* `write_population_reference` (one `json.dumps` per `UserProfile`
  record) checks `population.write_population`, and
  `population_from_records` builds a `Population` from such records;
* `epoch_topic_draw_reference` (one scalar draw from two keyed
  uniforms) checks `simulator.epoch_topic_draw`, which runs the array
  draw `_draws_for_site` at one key;
* `call_api` (one API call from per-epoch `epoch_topic_draw_reference`s)
  with `ApiResult`, `log_result` and `log_truth_draw` (object views of an
  `ObservationLog`) checks `simulator.run_scenario` and `SiteLog.call`;
* `shuffle_order_reference` (a stable sort of each call's shuffle keys)
  checks `simulator._shuffle_order` (each slot placed by its key's rank);
* `denoise_multi_shot` (per-topic state objects for one user's call
  history, tau passed explicitly where the engine reads it from the
  call width) checks `denoiser.MultiShotEngine`, whose recovered slots
  `recovered_matrix` turns into a dense `(user, topic)` mask;
* `truth_channel` and `evaluate_denoiser` (per-draw scoring of
  `denoise_multi_shot` outcomes) check `denoiser.denoise_site_trajectory`;
* `argmax_match_one_way` and `reidentify_two_calls` (a blocked float32
  overlap product per direction, over every pair of users, of sticky
  sets built from the engines' dense `genuine_matrix` views) check
  `reidentify._argmax_match` (subset counting, both directions) and
  `reidentify.run_reidentification`;
* `write_log_ndjson_reference` and `write_truth_ndjson_reference` (one
  `json.dumps` per record) check `ObservationLog.write_ndjson` and
  `ObservationLog.write_truth_ndjson`.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable, Mapping, Optional, Sequence, Union

import numpy as np

from topicsim import rng
from topicsim.classification import (
    FLOOR_WINDOW,
    DomainClassification,
    PrevalenceTable,
    SkewSpec,
    _target_counts,
)
from topicsim.denoiser import DenoiseMetrics, DenoiserConfig, MultiShotEngine
from topicsim.population import (
    CountHistogram,
    Population,
    RankedDomainList,
    TrafficModel,
    UniqueDomainCountModel,
    UserProfile,
    _from_rows,
)
from topicsim.reidentify import MatchReport, ReidReport, reid_report
from topicsim.simulator import EpochDraw, ObservationLog, SimConfig, SiteLog
from topicsim.taxonomy import Taxonomy


# --- rng ---------------------------------------------------------------------


def distinct_draws_reference(
    need: Sequence[int],
    batch: Callable[[np.ndarray], np.ndarray],
    draw: Callable[[int, np.ndarray, np.ndarray], np.ndarray],
    width: int,
    taken: Iterable[int] = (),
) -> np.ndarray:
    """`rng.distinct_draws`, one row and one value at a time."""
    taken = set(taken)
    chosen: list[int] = []
    for row, k in enumerate(need):
        mine: dict[int, None] = {}
        counter = 0
        while len(mine) < k:
            size = int(batch(np.array([k - len(mine)]))[0])
            values = draw(counter, np.full(size, row), np.arange(size))
            counter += 1
            for v in values.tolist():
                if len(mine) == k:
                    break
                if row * width + v not in taken:
                    mine.setdefault(row * width + v)
        chosen.extend(mine)
    return np.sort(np.array(chosen, dtype=np.int64))


# --- classification ----------------------------------------------------------


def entries(classification: DomainClassification) -> dict[str, frozenset[int]]:
    """Every domain's topic ids, in entry order."""
    return {d: frozenset(classification.row(i).tolist()) for i, d in enumerate(classification.names)}


def topics_of(classification: DomainClassification, domain: str) -> frozenset[int]:
    """The topic ids of `domain`; none for a domain not classified here."""
    i = int(classification.rows_of([domain])[0])
    return frozenset() if i < 0 else frozenset(classification.row(i).tolist())


def prevalence_reference(classification: DomainClassification, taxonomy: Taxonomy) -> PrevalenceTable:
    """`prevalence`, one (domain, topic) pair at a time."""
    counts = np.zeros(taxonomy.omega + 1, dtype=np.int64)
    for topics in entries(classification).values():
        for tid in topics:
            counts[tid] += 1
    return PrevalenceTable(counts=counts, total_domains=len(classification))


def synthesize_skewed_classification_reference(
    taxonomy: Taxonomy,
    n_domains: int,
    skew_spec: SkewSpec,
    seed: int,
    head_topics: int,
    head_floor: int,
) -> DomainClassification:
    """`synthesize_skewed_classification`, one topic at a time.

    Loops forever on a floor topic whose count exceeds `FLOOR_WINDOW`.
    """
    omega = taxonomy.omega
    skew_spec.validate(omega, n_domains)
    counts, head = _target_counts(omega, n_domains, skew_spec, seed, head_topics, head_floor)
    counts = np.minimum(counts, n_domains)

    topic_perm = np.argsort(rng.counter_stream(omega, seed, rng.TAG_SYNTH_CLASSIFICATION, 1))
    topic_ids = np.arange(1, omega + 1, dtype=np.int64)[topic_perm]
    nonzero_ids = topic_ids[: len(counts)]

    domain_topics: list[list[int]] = [[] for _ in range(n_domains)]
    for rank, (tid, c) in enumerate(zip(nonzero_ids, counts)):
        if rank < head:
            lo, hi = 0, n_domains
        else:
            lo, hi = (int(f * n_domains) for f in FLOOR_WINDOW)
        c = int(c)
        chosen: set[int] = set()
        counter = 0
        while len(chosen) < c:
            need = c - len(chosen)
            u = rng.counter_stream(
                max(2 * need, 16), seed, rng.TAG_SYNTH_CLASSIFICATION, int(tid), counter
            )
            counter += 1
            for i in (lo + u * (hi - lo)).astype(np.int64):
                if len(chosen) == c:
                    break
                chosen.add(int(i))
        for i in chosen:
            domain_topics[i].append(int(tid))

    width = len(str(n_domains))
    entries = {
        f"site-{str(i + 1).zfill(width)}.example": topics
        for i, topics in enumerate(domain_topics)
    }
    return DomainClassification(entries)


# --- population --------------------------------------------------------------


def _sample_distinct_domains(
    k: int, cdf: np.ndarray, seed: int, user_id: int
) -> list[int]:
    """k distinct positions, traffic-weighted.

    Draws with replacement and keeps first occurrences, which realizes
    successive weighted sampling without replacement.
    """
    chosen: dict[int, None] = {}
    counter = 0
    m = len(cdf)
    while len(chosen) < k:
        batch = max(2 * (k - len(chosen)), 16)
        u = rng.counter_stream(batch, seed, rng.TAG_DOMAIN_PICK, user_id, counter)
        counter += 1
        for idx in np.searchsorted(cdf, u, side="right"):
            if len(chosen) == k:
                break
            chosen.setdefault(min(int(idx), m - 1))
    return list(chosen)


def derive_top_profile(
    user: UserProfile,
    taxonomy: Taxonomy,
    T: int,
    seed: int,
) -> UserProfile:
    """Fill in the stable top-T profile for a user.

    Uniform sample of T distinct observed topics; when fewer than T were
    observed, the remainder is drawn uniformly (distinct) from the
    taxonomy, mirroring the noise mechanism's padding.
    """
    observed = sorted(user.observed_topics)
    picks: list[int] = []
    if observed:
        # The key word 0 in both streams keeps every existing seed's profiles.
        perm = rng.permutation(len(observed), seed, rng.TAG_PROFILE, user.user_id, 0)
        picks = [observed[i] for i in perm[:T]]
    if len(picks) < T:
        all_ids = taxonomy.ids()
        counter = 0
        have = set(picks)
        while len(picks) < T:
            u = rng.counter_stream(16, seed, rng.TAG_PROFILE_FILL, user.user_id, 0, counter)
            counter += 1
            for tid in (np.asarray(all_ids)[(u * len(all_ids)).astype(np.int64)]):
                tid = int(tid)
                if len(picks) >= T:
                    break
                if tid not in have:
                    have.add(tid)
                    picks.append(tid)
    return UserProfile(
        user_id=user.user_id,
        visited_domains=user.visited_domains,
        observed_topics=user.observed_topics,
        top_profile=tuple(sorted(picks)),
    )


def generate_population_reference(
    n: int,
    order: RankedDomainList,
    traffic: TrafficModel,
    counts: UniqueDomainCountModel | CountHistogram,
    classification: DomainClassification,
    seed: int,
    T: int,
    taxonomy: Taxonomy,
) -> list[UserProfile]:
    """`generate_population`, one user at a time."""
    m = len(order)
    cdf = np.cumsum(traffic.weights(m))
    ks = np.minimum(counts.sample(n, seed), m)
    users = []
    for uid in range(n):
        positions = _sample_distinct_domains(int(ks[uid]), cdf, seed, uid)
        visited = frozenset(order.domains[i] for i in positions)
        observed = frozenset().union(*(topics_of(classification, order.domains[i]) for i in positions))
        base = UserProfile(uid, visited, observed, top_profile=())
        users.append(derive_top_profile(base, taxonomy, T, seed))
    return users


def population_from_records(users: Iterable[UserProfile]) -> Population:
    """The population of these records, in their order."""
    users = list(users)
    return _from_rows(
        [u.user_id for u in users],
        [sorted(u.visited_domains) for u in users],
        [u.observed_topics for u in users],
        [u.top_profile for u in users],
    )


def user_to_json(user: UserProfile) -> str:
    return json.dumps(
        {
            "user_id": user.user_id,
            "visited_domains": sorted(user.visited_domains),
            "observed_topics": sorted(user.observed_topics),
            "top_profile": list(user.top_profile),
        },
        separators=(",", ":"),
    )


def write_population_reference(
    users: Iterable[UserProfile],
    path: Union[str, Path],
    header: Optional[dict] = None,
) -> None:
    """`write_population`, one record at a time."""
    with open(path, "w", encoding="utf-8") as fh:
        if header is not None:
            fh.write(json.dumps({"header": header}, separators=(",", ":"), sort_keys=True) + "\n")
        for u in users:
            fh.write(user_to_json(u) + "\n")


# --- simulator ---------------------------------------------------------------


@dataclass(frozen=True)
class ApiResult:
    topics: tuple[int, ...]
    epoch: int
    site: str
    user_id: int


def epoch_topic_draw_reference(
    user: UserProfile, site: str, source_epoch: int, config: SimConfig, taxonomy: Taxonomy
) -> EpochDraw:
    """`epoch_topic_draw` as one scalar draw: noisy with probability p, then
    a uniform pick over the taxonomy or over the user's top profile."""
    if not user.top_profile:
        raise ValueError(f"user {user.user_id} has no top profile")
    key = (config.seed, user.user_id, rng.string_key(site), source_epoch)
    noisy = bool(rng.uniform(*key, rng.TAG_NOISE_FLAG) < config.p)
    u = float(rng.uniform(*key, rng.TAG_TOPIC_PICK))
    if noisy:
        topic = 1 + int(u * taxonomy.omega)
    else:
        profile = user.top_profile
        topic = profile[int(u * len(profile))]
    return EpochDraw(topic=int(topic), noisy=noisy)


def call_api(user: UserProfile, site: str, epoch: int, config: SimConfig, taxonomy: Taxonomy) -> ApiResult:
    """Assemble one API result from the pinned per-epoch draws."""
    if epoch < 1:
        raise ValueError(f"epoch must be >= 1, got {epoch}")
    returned = [
        epoch_topic_draw_reference(user, site, src, config, taxonomy).topic
        for src in range(epoch - config.tau, epoch)
    ]
    perm = rng.permutation(len(returned), config.seed, user.user_id, rng.string_key(site),
                           epoch, rng.TAG_SHUFFLE)
    return ApiResult(topics=tuple(returned[i] for i in perm), epoch=epoch, site=site, user_id=user.user_id)


def shuffle_order_reference(keys: np.ndarray) -> np.ndarray:
    """The slot order of each row of keys along the last axis, ties kept in slot order."""
    return np.argsort(keys, axis=-1, kind="stable")


def _user_row(log: ObservationLog, user_id: int) -> int:
    return int(np.flatnonzero(log.user_ids == user_id)[0])


def log_result(log: ObservationLog, site: str, user_id: int, epoch: int) -> ApiResult:
    """The logged API result of one (site, user, epoch) call."""
    row = log.topics[log.sites.index(site), _user_row(log, user_id), epoch - 1]
    return ApiResult(topics=tuple(int(t) for t in row), epoch=epoch, site=site, user_id=user_id)


def log_truth_draw(log: ObservationLog, site: str, user_id: int, source_epoch: int) -> EpochDraw:
    """The logged pinned draw of one (site, user, source epoch)."""
    s, u = log.sites.index(site), _user_row(log, user_id)
    k = int(np.flatnonzero(log.source_epochs == source_epoch)[0])
    return EpochDraw(topic=int(log.truth_topics[s, u, k]), noisy=bool(log.truth_noisy[s, u, k]))


# --- denoiser ----------------------------------------------------------------

GENUINE = "genuine"
NOISY = "noisy"

BASIS_WITHIN_CALL = "repetition-within-call"
BASIS_ACROSS_CALLS = "repetition-across-calls"
BASIS_THRESHOLD = "threshold"
BASIS_PROFILE_COMPLETE = "profile-complete"
BASIS_STALE = "stale-unconfirmed"


def threshold_classify(topic: int, prev: PrevalenceTable, config: DenoiserConfig) -> str:
    """Genuine iff the topic appears on strictly more than `threshold` domains."""
    return GENUINE if prev.counts[topic] > config.threshold else NOISY


@dataclass(frozen=True)
class TopicLabel:
    label: str
    basis: str


@dataclass(frozen=True)
class NoiseVerdict:
    """Labels for every observed topic."""

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


def _update_topic_states(states: dict[int, _TopicState], epoch: int, topics: Sequence[int], gap: int) -> None:
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


def _recovered_set(states: dict[int, _TopicState], prev: PrevalenceTable, config: DenoiserConfig) -> list[int]:
    """T best-evidenced confirmed topics.

    Evidence ties are broken by the prevalence prior (noise topics that
    slip in through a double draw are mostly below threshold), then by
    earliest first observation.
    """
    confirmed = [
        (st.evidence, int(prev.counts[t] > config.threshold), -st.first_seen, -t)
        for t, st in states.items()
        if st.confirmed_at
    ]
    confirmed.sort(reverse=True)
    return [-entry[3] for entry in confirmed[:config.T]]


def _labels(
    states: dict[int, _TopicState], current_epoch: int, prev: PrevalenceTable, config: DenoiserConfig, gap: int
) -> dict[int, TopicLabel]:
    recovered = set(_recovered_set(states, prev, config))
    frozen = len(recovered) >= config.T and sum(1 for st in states.values() if st.confirmed_at) >= config.T
    cold = current_epoch <= gap
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
    history: Sequence[ApiResult], prev: PrevalenceTable, config: DenoiserConfig = DenoiserConfig(), tau: int = 3
) -> MultiShotOutcome:
    """On-the-fly multi-shot verdict over one (site, user) history.

    History must be epoch-ordered and single-site. The verdict reflects
    knowledge after the last call. `tau` is the API's slots per call,
    given explicitly because a history drops suppressed slots, so its
    calls can be narrower than tau.
    """
    if not history:
        raise ValueError("history must contain at least one call")
    gap = 2 if config.aggressive_gap_rule else tau
    site = history[0].site
    states: dict[int, _TopicState] = {}
    last_epoch = 0
    for res in history:
        if res.site != site:
            raise ValueError(f"history mixes sites {site!r} and {res.site!r}")
        if res.epoch <= last_epoch:
            raise ValueError("history must be strictly epoch-ordered")
        last_epoch = res.epoch
        _update_topic_states(states, res.epoch, res.topics, gap)
    recovered = frozenset(_recovered_set(states, prev, config))
    return MultiShotOutcome(
        verdict=NoiseVerdict(topic_labels=_labels(states, last_epoch, prev, config, gap)),
        recovered=recovered,
        frozen=len(recovered) >= config.T,
    )


def recovered_matrix(engine: MultiShotEngine) -> np.ndarray:
    """The engine's `recovered_slots` as a dense `(user, topic)` mask."""
    out = np.zeros((engine.topic.shape[1], engine.omega + 1), dtype=bool)
    s, u = np.nonzero(engine.recovered_slots())
    out[u, engine.topic[s, u]] = True
    return out


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
    outcomes: Mapping[int, MultiShotOutcome], truth: TruthChannel, through_epoch: int
) -> DenoiseEvaluation:
    """Score verdicts made at `through_epoch` against the truth channel.

    Instances are the draws of source epochs before `through_epoch`, each
    scored once, noisy positive. Every such draw's topic must carry a
    label; a missing one is an evaluation error.
    """
    tp = fp = tn = fn = 0
    sizes = []
    for user_id, outcome in outcomes.items():
        sources = sorted(src for (u, src) in truth.draws if u == user_id and src < through_epoch)
        if not sources:
            raise ValueError(f"truth channel has no draws for user {user_id}")
        for src in sources:
            draw = truth.draws[(user_id, src)]
            if draw.topic not in outcome.verdict.topic_labels:
                raise ValueError(f"draw topic {draw.topic} for user {user_id} missing from verdict")
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


# --- reidentify --------------------------------------------------------------


def argmax_match_one_way(a: np.ndarray, b: np.ndarray, block: int = 1024) -> tuple[np.ndarray, np.ndarray]:
    """Group sizes and self-containment for each row of `a` matched against `b`."""
    n = a.shape[0]
    bt = b.T.copy()
    k = np.empty(n, dtype=np.int64)
    contains = np.empty(n, dtype=bool)
    for lo in range(0, n, block):
        hi = min(lo + block, n)
        overlap = a[lo:hi] @ bt  # counts are small ints, exact in float32
        mx = overlap.max(axis=1)
        k[lo:hi] = (overlap == mx[:, None]).sum(axis=1)
        contains[lo:hi] = overlap[np.arange(hi - lo), np.arange(lo, hi)] == mx
    return k, contains


def reidentify_two_calls(
    log: ObservationLog,
    site_a: str,
    site_b: str,
    prev: PrevalenceTable,
    config: DenoiserConfig = DenoiserConfig(),
    report_epochs: Optional[Iterable[int]] = None,
) -> ReidReport:
    """`run_reidentification` with one full-width product per direction."""
    la, lb = log.site_view(site_a), log.site_view(site_b)
    omega = int(prev.counts.shape[0] - 1)
    ea = MultiShotEngine(la.n_users, omega, prev, config)
    eb = MultiShotEngine(lb.n_users, omega, prev, config)
    sticky_a = np.zeros((la.n_users, omega + 1), dtype=bool)
    sticky_b = np.zeros((lb.n_users, omega + 1), dtype=bool)
    wanted = sorted(set(report_epochs)) if report_epochs is not None else list(range(1, log.epochs + 1))
    forward: list[MatchReport] = []
    reverse: list[MatchReport] = []
    for epoch in range(1, log.epochs + 1):
        ea.observe_epoch(epoch, la.topics[:, epoch - 1, :])
        eb.observe_epoch(epoch, lb.topics[:, epoch - 1, :])
        sticky_a |= ea.genuine_matrix()
        sticky_b |= eb.genuine_matrix()
        if epoch not in wanted:
            continue
        a = sticky_a.astype(np.float32)
        b = sticky_b.astype(np.float32)
        k_ab, c_ab = argmax_match_one_way(a, b)
        k_ba, c_ba = argmax_match_one_way(b, a)
        forward.append(MatchReport(epoch=epoch, k=k_ab, contains_truth=c_ab, n_users=la.n_users))
        reverse.append(MatchReport(epoch=epoch, k=k_ba, contains_truth=c_ba, n_users=lb.n_users))
    return reid_report(forward, reverse)


# --- NDJSON writers ---------------------------------------------------------


def _write_header_reference(fh, header: Optional[dict]) -> None:
    if header is not None:
        fh.write(json.dumps({"header": header}, separators=(",", ":"), sort_keys=True) + "\n")


def write_log_ndjson_reference(log: ObservationLog, path: Union[str, Path], header: Optional[dict] = None) -> None:
    """`ObservationLog.write_ndjson` as one `json.dumps` per API result."""
    with open(path, "w", encoding="utf-8") as fh:
        _write_header_reference(fh, header)
        for site in log.sites:
            for uid in log.user_ids:
                for e in range(1, log.epochs + 1):
                    res = log_result(log, site, int(uid), e)
                    fh.write(
                        json.dumps(
                            {"site": res.site, "user": res.user_id, "epoch": res.epoch,
                             "topics": list(res.topics)},
                            separators=(",", ":"),
                        )
                        + "\n"
                    )


def write_truth_ndjson_reference(log: ObservationLog, path: Union[str, Path], header: Optional[dict] = None) -> None:
    """`ObservationLog.write_truth_ndjson` as one `json.dumps` per truth draw."""
    with open(path, "w", encoding="utf-8") as fh:
        _write_header_reference(fh, header)
        for si, site in enumerate(log.sites):
            for ui, uid in enumerate(log.user_ids):
                for ki, src in enumerate(log.source_epochs):
                    fh.write(
                        json.dumps(
                            {"site": site, "user": int(uid), "source_epoch": int(src),
                             "topic": int(log.truth_topics[si, ui, ki]),
                             "noisy": bool(log.truth_noisy[si, ui, ki])},
                            separators=(",", ":"),
                        )
                        + "\n"
                    )
