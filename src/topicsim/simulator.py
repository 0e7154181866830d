"""Interest-API state machine over a population.

Per (user, site, source epoch) a single pinned draw exists: noisy with
probability p (uniform over the taxonomy), genuine otherwise (uniform
over the user's stable top-T profile; T is the width of the population's
profile array, not a simulation setting). A call at epoch e returns the
draws for source epochs e-tau .. e-1 in shuffled order. Pinning and
call-order independence come from keying every draw on
(seed, user, site, source_epoch) -- there is no shared generator state.

Users are warm-started: profiles are assumed stable for at least tau
epochs before epoch 1, so every call returns exactly tau topics.

Ground-truth noise flags live in a separate truth channel never consumed
by adversary-side code; evaluation functions take it explicitly.

The log stores only the truth draws, (site, user, source epoch) arrays.
A call is formed when it is read (`SiteLog.call`): its window of tau
draws in the keyed shuffle's order, so nothing keeps the calls.

Log output: NDJSON, one record per call `{site, user, epoch, topics}`;
truth channel NDJSON `{site, user, source_epoch, topic, noisy}`. Both
are compact JSON in that key order, after an optional `{"header": ...}`
line. Records are formatted one site at a time, from that site's calls,
in blocks of `POPULATION_BLOCK_USERS` users; the bytes are those of
`json.dumps` per record.
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Union

import numpy as np

from . import rng
from .analytics import DEFAULT_P, DEFAULT_TAU
from .population import POPULATION_BLOCK_USERS, Profiles, UserProfile, write_header
from .taxonomy import Taxonomy


@dataclass(frozen=True)
class SimConfig:
    """Draw parameters of a scenario. The profile width T is the population's."""

    tau: int = DEFAULT_TAU
    p: float = DEFAULT_P
    epochs: int = 1
    sites: tuple[str, ...] = ()
    seed: int = 0

    def __post_init__(self):
        if not 0.0 <= self.p <= 1.0:
            raise ValueError(f"p must be in [0, 1], got {self.p}")
        if self.tau < 1:
            raise ValueError(f"tau must be >= 1, got {self.tau}")
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
        topic = 1 + int(u * taxonomy.omega)
    else:
        profile = user.top_profile
        topic = profile[int(u * len(profile))]
    return EpochDraw(topic=int(topic), noisy=noisy)


@dataclass(frozen=True, eq=False)
class ObservationLog:
    """The truth draws of every (site, user, source epoch), from which each call is formed.

    `topics` and `slot_sources` are every call and the source epoch of its
    every slot, `(site, user, epoch, tau)` int16; both are read-only, built
    in full when first read and then kept. An analysis reads one call per
    epoch through `site_view(site).call(epoch)` instead.
    """

    config: SimConfig
    user_ids: np.ndarray
    truth_topics: np.ndarray   # (site, user, source) int16
    truth_noisy: np.ndarray    # (site, user, source) bool
    source_epochs: np.ndarray  # (n_sources,) the source-epoch axis labels

    @property
    def sites(self) -> tuple[str, ...]:
        return self.config.sites

    @property
    def epochs(self) -> int:
        return self.config.epochs

    @functools.cached_property
    def topics(self) -> np.ndarray:
        return self._by_site("topics")

    @functools.cached_property
    def slot_sources(self) -> np.ndarray:
        return self._by_site("slot_sources")

    def _by_site(self, view: str) -> np.ndarray:
        out = np.empty((len(self.sites), len(self.user_ids), self.epochs, self.config.tau), dtype=np.int16)
        for s, site in enumerate(self.sites):
            out[s] = getattr(self.site_view(site), view)
        out.flags.writeable = False
        return out

    def noisy_slot_fraction(self) -> float:
        """Fraction of returned slots whose pinned draw was the noise branch.

        A draw fills one slot of every call whose window covers it: the
        calls of epochs s + 1 .. s + tau, up to the last epoch.
        """
        slots = len(self.sites) * len(self.user_ids) * self.epochs * self.config.tau
        if not slots:
            return 0.0
        s = self.source_epochs
        covering = np.minimum(s + self.config.tau, self.epochs) - np.maximum(s + 1, 1) + 1
        return int(np.count_nonzero(self.truth_noisy, axis=(0, 1)) @ covering) / slots

    def site_view(self, site: str) -> "SiteLog":
        s = self.sites.index(site)
        return SiteLog(
            site=site,
            config=self.config,
            user_ids=self.user_ids,
            truth_topics=self.truth_topics[s],
            truth_noisy=self.truth_noisy[s],
            source_epochs=self.source_epochs,
        )

    def write_ndjson(self, path: Union[str, Path], header: Optional[dict] = None) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            write_header(fh, header)
            for site in self.sites:
                head = f'{{"site":{json.dumps(site)},"user":'
                site_calls = self.site_view(site).topics
                for lo in range(0, len(self.user_ids), POPULATION_BLOCK_USERS):
                    hi = lo + POPULATION_BLOCK_USERS
                    users = self.user_ids[lo:hi].tolist()
                    calls = site_calls[lo:hi].tolist()
                    fh.write("".join(
                        f'{head}{uid},"epoch":{epoch},"topics":[{",".join(map(str, row))}]}}\n'
                        for uid, rows in zip(users, calls)
                        for epoch, row in enumerate(rows, 1)
                    ))

    def write_truth_ndjson(self, path: Union[str, Path], header: Optional[dict] = None) -> None:
        sources = self.source_epochs.tolist()
        with open(path, "w", encoding="utf-8") as fh:
            write_header(fh, header)
            for si, site in enumerate(self.sites):
                head = f'{{"site":{json.dumps(site)},"user":'
                for lo in range(0, len(self.user_ids), POPULATION_BLOCK_USERS):
                    hi = lo + POPULATION_BLOCK_USERS
                    users = self.user_ids[lo:hi].tolist()
                    topics = self.truth_topics[si, lo:hi].tolist()
                    noisy = self.truth_noisy[si, lo:hi].tolist()
                    fh.write("".join(
                        f'{head}{uid},"source_epoch":{src},"topic":{topic},'
                        f'"noisy":{"true" if flag else "false"}}}\n'
                        for uid, trow, nrow in zip(users, topics, noisy)
                        for src, topic, flag in zip(sources, trow, nrow)
                    ))


@dataclass
class SiteLog:
    """One site's slice of an ObservationLog: its truth draws and the calls formed from them.

    `topics` and `slot_sources` are every call and the source epoch of its
    every slot, `(user, epoch, tau)` int16, read-only and built in full
    when first read.
    """

    site: str
    config: SimConfig
    user_ids: np.ndarray
    truth_topics: np.ndarray  # (user, source)
    truth_noisy: np.ndarray   # (user, source)
    source_epochs: np.ndarray

    @property
    def n_users(self) -> int:
        return len(self.user_ids)

    @property
    def epochs(self) -> int:
        return self.config.epochs

    def call(self, epoch: int) -> np.ndarray:
        """Every user's call at `epoch`, `(user, tau)` int16: their window of draws in shuffled order."""
        return np.take_along_axis(self.truth_topics, self._slot_sources(epoch) - self.source_epochs[0], axis=1)

    def _slot_sources(self, epoch: int) -> np.ndarray:
        """The source epoch of each slot of every user's call at `epoch`, `(user, tau)`."""
        if not 1 <= epoch <= self.epochs:
            raise ValueError(f"epoch must be in 1..{self.epochs}, got {epoch}")
        tau = self.config.tau
        window = np.arange(epoch - tau, epoch)  # source epochs, ascending
        shuffle_keys = rng.uniform(
            self.config.seed, self.user_ids[:, None], rng.string_key(self.site), epoch,
            rng.TAG_SHUFFLE, np.arange(tau)[None, :],
        )
        return window[np.argsort(shuffle_keys, axis=1, kind="stable")]

    @functools.cached_property
    def topics(self) -> np.ndarray:
        return self._by_epoch(self.call)

    @functools.cached_property
    def slot_sources(self) -> np.ndarray:
        return self._by_epoch(self._slot_sources)

    def _by_epoch(self, per_epoch) -> np.ndarray:
        out = np.empty((self.n_users, self.epochs, self.config.tau), dtype=np.int16)
        for epoch in range(1, self.epochs + 1):
            out[:, epoch - 1] = per_epoch(epoch)
        out.flags.writeable = False
        return out


def _draws_for_site(
    site: str,
    user_ids: np.ndarray,
    profiles: np.ndarray,
    source_epochs: np.ndarray,
    config: SimConfig,
    taxonomy_ids: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Pinned draws for all (user, source_epoch) pairs on one site.

    A genuine draw picks uniformly among the `profiles.shape[1]` columns.
    """
    site_key = rng.string_key(site)
    uu = user_ids[:, None]
    ss = source_epochs[None, :]
    noisy = rng.uniform(config.seed, uu, site_key, ss, rng.TAG_NOISE_FLAG) < config.p
    u = rng.uniform(config.seed, uu, site_key, ss, rng.TAG_TOPIC_PICK)
    genuine_idx = (u * profiles.shape[1]).astype(np.int64)
    genuine_topic = profiles[np.arange(len(user_ids))[:, None], genuine_idx]
    noisy_topic = taxonomy_ids[(u * len(taxonomy_ids)).astype(np.int64)]
    topics = np.where(noisy, noisy_topic, genuine_topic).astype(np.int16)
    return topics, noisy


def run_scenario(
    population: Profiles,
    config: SimConfig,
    taxonomy: Taxonomy,
) -> ObservationLog:
    """Simulate every user visiting every site at every epoch.

    One API call per (site, user, epoch). Only the truth draws are made
    here, one block of `POPULATION_BLOCK_USERS` users at a time per site;
    the log forms each call when it is read. Draws are keyed rather than
    streamed, so the blocks change no value.
    """
    if not len(population):
        raise ValueError("population must be nonempty")
    user_ids, profiles = population.user_ids, population.profiles
    if not profiles.shape[1]:
        raise ValueError("profiles are empty: every user needs a top profile of T >= 1 topics")
    n = len(user_ids)
    source_epochs = np.arange(1 - config.tau, config.epochs, dtype=np.int64)
    taxonomy_ids = np.asarray(taxonomy.ids(), dtype=np.int16)

    truth_topics = np.zeros((len(config.sites), n, len(source_epochs)), dtype=np.int16)
    truth_noisy = np.zeros(truth_topics.shape, dtype=bool)
    for si, site in enumerate(config.sites):
        for lo in range(0, n, POPULATION_BLOCK_USERS):
            hi = lo + POPULATION_BLOCK_USERS
            truth_topics[si, lo:hi], truth_noisy[si, lo:hi] = _draws_for_site(
                site, user_ids[lo:hi], profiles[lo:hi], source_epochs, config, taxonomy_ids
            )

    return ObservationLog(
        config=config,
        user_ids=user_ids,
        truth_topics=truth_topics,
        truth_noisy=truth_noisy,
        source_epochs=source_epochs,
    )
