"""Interest-API state machine over a population.

Per (user, site, source epoch) a single pinned draw exists: noisy with
probability p (uniform over the taxonomy), genuine otherwise (uniform
over the user's stable top-T profile). A call at epoch e returns the
draws for source epochs e-tau .. e-1 in shuffled order. Pinning and
call-order independence come from keying every draw on
(seed, user, site, source_epoch) -- there is no shared generator state.

Users are warm-started: profiles are assumed stable for at least tau
epochs before epoch 1, so every call returns exactly tau topics.

Ground-truth noise flags live in a separate truth channel never consumed
by adversary-side code; evaluation functions take it explicitly.

Log output: NDJSON, one record per call `{site, user, epoch, topics}`;
truth channel NDJSON `{site, user, source_epoch, topic, noisy}`. Both
are compact JSON in that key order, after an optional `{"header": ...}`
line. Records are formatted straight from the arrays, one block of
`WRITE_BLOCK_USERS` users at a time, so memory stays flat as the
population grows; the bytes are those of `json.dumps` per record.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Sequence, Union

import numpy as np

from . import rng
from .population import UserProfile
from .taxonomy import Taxonomy

DEFAULT_T = 5
DEFAULT_TAU = 3
DEFAULT_P = 0.05

# Users per formatted block in the NDJSON writers.
WRITE_BLOCK_USERS = 1024


@dataclass(frozen=True)
class SimConfig:
    T: int = DEFAULT_T
    tau: int = DEFAULT_TAU
    p: float = DEFAULT_P
    epochs: int = 1
    sites: tuple[str, ...] = ()
    seed: int = 0

    def __post_init__(self):
        if not 0.0 <= self.p <= 1.0:
            raise ValueError(f"p must be in [0, 1], got {self.p}")
        if self.tau < 1 or self.T < 1:
            raise ValueError("tau and T must be >= 1")
        if self.epochs < 0:
            raise ValueError(f"epochs must be >= 0, got {self.epochs}")
        if len(set(self.sites)) != len(self.sites):
            raise ValueError("duplicate site ids")


@dataclass(frozen=True)
class EpochDraw:
    topic: int
    noisy: bool


def epoch_topic_draw(
    user: UserProfile,
    site: str,
    source_epoch: int,
    config: SimConfig,
    taxonomy: Taxonomy,
) -> EpochDraw:
    """The pinned draw for (user, site, source_epoch).

    Pure function of (seed, user, site, source_epoch): every caller and
    every repeated call sees the same draw.
    """
    if not user.top_profile:
        raise ValueError(f"user {user.user_id} has no top profile")
    key = (config.seed, user.user_id, rng.string_key(site), source_epoch)
    noisy = bool(rng.uniform(*key, rng.TAG_NOISE_FLAG) < config.p)
    u = float(rng.uniform(*key, rng.TAG_TOPIC_PICK))
    if noisy:
        ids = taxonomy.ids()
        topic = ids[int(u * len(ids))]
    else:
        profile = user.top_profile
        topic = profile[int(u * len(profile))]
    return EpochDraw(topic=int(topic), noisy=noisy)


class ObservationLog:
    """Complete per-(site, user, epoch) API results plus the truth channel.

    Results are dense arrays. `slot_sources` records which source epoch
    produced each returned slot, making every returned topic traceable
    to exactly one truth draw.
    """

    def __init__(
        self,
        config: SimConfig,
        user_ids: np.ndarray,
        topics: np.ndarray,        # (site, user, epoch, tau) int16
        slot_sources: np.ndarray,  # (site, user, epoch, tau) int16, source epoch per slot
        truth_topics: np.ndarray,  # (site, user, source) int16
        truth_noisy: np.ndarray,   # (site, user, source) bool
        source_epochs: np.ndarray,  # (n_sources,) the source-epoch axis labels
    ):
        self.config = config
        self.user_ids = user_ids
        self.topics = topics
        self.slot_sources = slot_sources
        self.truth_topics = truth_topics
        self.truth_noisy = truth_noisy
        self.source_epochs = source_epochs
        self._site_index = {s: i for i, s in enumerate(config.sites)}

    @property
    def sites(self) -> tuple[str, ...]:
        return self.config.sites

    @property
    def epochs(self) -> int:
        return self.config.epochs

    def total_slots(self) -> int:
        return int(self.topics.size)

    def noisy_slot_fraction(self) -> float:
        """Fraction of returned slots whose pinned draw was the noise branch."""
        src_pos = (self.slot_sources - int(self.source_epochs[0])).astype(np.int64)
        flags = np.take_along_axis(self.truth_noisy[:, :, None, :], src_pos, axis=3)
        return float(flags.mean()) if flags.size else 0.0

    def site_view(self, site: str) -> "SiteLog":
        s = self._site_index[site]
        return SiteLog(
            site=site,
            config=self.config,
            user_ids=self.user_ids,
            topics=self.topics[s],
            slot_sources=self.slot_sources[s],
            truth_topics=self.truth_topics[s],
            truth_noisy=self.truth_noisy[s],
            source_epochs=self.source_epochs,
        )

    def write_ndjson(self, path: Union[str, Path], header: Optional[dict] = None) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            _write_header(fh, header)
            for si, site in enumerate(self.sites):
                head = f'{{"site":{json.dumps(site)},"user":'
                for lo in range(0, len(self.user_ids), WRITE_BLOCK_USERS):
                    hi = lo + WRITE_BLOCK_USERS
                    users = self.user_ids[lo:hi].tolist()
                    calls = self.topics[si, lo:hi].tolist()
                    fh.write("".join(
                        f'{head}{uid},"epoch":{epoch},"topics":[{",".join(map(str, row))}]}}\n'
                        for uid, rows in zip(users, calls)
                        for epoch, row in enumerate(rows, 1)
                    ))

    def write_truth_ndjson(self, path: Union[str, Path], header: Optional[dict] = None) -> None:
        sources = self.source_epochs.tolist()
        with open(path, "w", encoding="utf-8") as fh:
            _write_header(fh, header)
            for si, site in enumerate(self.sites):
                head = f'{{"site":{json.dumps(site)},"user":'
                for lo in range(0, len(self.user_ids), WRITE_BLOCK_USERS):
                    hi = lo + WRITE_BLOCK_USERS
                    users = self.user_ids[lo:hi].tolist()
                    topics = self.truth_topics[si, lo:hi].tolist()
                    noisy = self.truth_noisy[si, lo:hi].tolist()
                    fh.write("".join(
                        f'{head}{uid},"source_epoch":{src},"topic":{topic},'
                        f'"noisy":{"true" if flag else "false"}}}\n'
                        for uid, trow, nrow in zip(users, topics, noisy)
                        for src, topic, flag in zip(sources, trow, nrow)
                    ))


def _write_header(fh, header: Optional[dict]) -> None:
    if header is not None:
        fh.write(json.dumps({"header": header}, separators=(",", ":"), sort_keys=True) + "\n")


@dataclass
class SiteLog:
    """One site's slice of an ObservationLog (adversary-facing arrays)."""

    site: str
    config: SimConfig
    user_ids: np.ndarray
    topics: np.ndarray        # (user, epoch, tau)
    slot_sources: np.ndarray  # (user, epoch, tau)
    truth_topics: np.ndarray  # (user, source)
    truth_noisy: np.ndarray   # (user, source)
    source_epochs: np.ndarray

    @property
    def n_users(self) -> int:
        return len(self.user_ids)

    @property
    def epochs(self) -> int:
        return self.config.epochs


def _profiles_array(population: Sequence[UserProfile], T: int) -> tuple[np.ndarray, np.ndarray]:
    ids = np.array([u.user_id for u in population], dtype=np.int64)
    profiles = np.empty((len(population), T), dtype=np.int16)
    for i, u in enumerate(population):
        if len(u.top_profile) != T:
            raise ValueError(f"user {u.user_id} has profile size {len(u.top_profile)}, expected {T}")
        profiles[i] = u.top_profile
    return ids, profiles


def _draws_for_site(
    site: str,
    user_ids: np.ndarray,
    profiles: np.ndarray,
    source_epochs: np.ndarray,
    config: SimConfig,
    taxonomy_ids: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Pinned draws for all (user, source_epoch) pairs on one site."""
    site_key = rng.string_key(site)
    uu = user_ids[:, None]
    ss = source_epochs[None, :]
    noisy = rng.uniform(config.seed, uu, site_key, ss, rng.TAG_NOISE_FLAG) < config.p
    u = rng.uniform(config.seed, uu, site_key, ss, rng.TAG_TOPIC_PICK)
    genuine_idx = (u * config.T).astype(np.int64)
    genuine_topic = profiles[np.arange(len(user_ids))[:, None], genuine_idx]
    noisy_topic = taxonomy_ids[(u * len(taxonomy_ids)).astype(np.int64)]
    topics = np.where(noisy, noisy_topic, genuine_topic).astype(np.int16)
    return topics, noisy


def run_scenario(
    population: Sequence[UserProfile],
    config: SimConfig,
    taxonomy: Taxonomy,
) -> ObservationLog:
    """Simulate every user visiting every site at every epoch.

    One API call per (site, user, epoch). Draws are keyed rather than
    streamed, so any partitioning of the (user x site) work produces
    byte-identical results; this implementation batches it through numpy
    in one pass per site.
    """
    if not population:
        raise ValueError("population must be nonempty")
    user_ids, profiles = _profiles_array(population, config.T)
    n = len(user_ids)
    n_sites = len(config.sites)
    source_epochs = np.arange(1 - config.tau, config.epochs, dtype=np.int64)
    n_src = len(source_epochs)
    taxonomy_ids = np.asarray(taxonomy.ids(), dtype=np.int16)

    truth_topics = np.zeros((n_sites, n, n_src), dtype=np.int16)
    truth_noisy = np.zeros((n_sites, n, n_src), dtype=bool)
    topics = np.empty((n_sites, n, config.epochs, config.tau), dtype=np.int16)
    slot_sources = np.zeros((n_sites, n, config.epochs, config.tau), dtype=np.int16)

    for si, site in enumerate(config.sites):
        t, nz = _draws_for_site(site, user_ids, profiles, source_epochs, config, taxonomy_ids)
        truth_topics[si], truth_noisy[si] = t, nz
        site_key = rng.string_key(site)
        for epoch in range(1, config.epochs + 1):
            window = np.arange(epoch - config.tau, epoch)  # source epochs, ascending
            src_pos = window - int(source_epochs[0])
            # Per-call shuffle of the returned array.
            shuffle_keys = rng.uniform(
                config.seed, user_ids[:, None], site_key, epoch,
                rng.TAG_SHUFFLE, np.arange(config.tau)[None, :],
            )
            perm = np.argsort(shuffle_keys, axis=1, kind="stable")
            topics[si, :, epoch - 1, :] = np.take_along_axis(
                t[:, src_pos], perm, axis=1
            )
            slot_sources[si, :, epoch - 1, :] = window[perm]

    return ObservationLog(
        config=config,
        user_ids=user_ids,
        topics=topics,
        slot_sources=slot_sources,
        truth_topics=truth_topics,
        truth_noisy=truth_noisy,
        source_epochs=source_epochs,
    )

