"""Interest-API state machine over a population.

Per (user, site, source epoch) a single pinned draw exists: noisy with
probability p (uniform over the taxonomy), genuine otherwise (uniform
over the user's stable top-T profile; T is the width of the population's
profile array, not a simulation setting). A call at epoch e returns the
draws for source epochs e-tau .. e-1 in shuffled order. Pinning and
call-order independence come from keying every draw on
(seed, user, site, source_epoch) -- there is no shared generator state.
One routine makes every draw, `_draws_for_site`: `run_scenario` calls
it per block of users, and `epoch_topic_draw` at one key.

Users are warm-started: profiles are assumed stable for at least tau
epochs before epoch 1, so every call returns exactly tau topics.

Ground-truth noise flags live in a separate truth channel never consumed
by adversary-side code; evaluation functions take it explicitly.

The log stores only the truth draws, (site, user, source epoch) arrays.
A call is formed when it is read, by one former for any array of epochs
(`SiteLog.calls`): its window of tau draws in the keyed shuffle's order,
so nothing keeps the calls.

Log output: NDJSON, one record per call `{site, user, epoch, topics}`;
truth channel NDJSON `{site, user, source_epoch, topic, noisy}`. Both
are compact JSON in that key order, after an optional `{"header": ...}`
line; the bytes are those of `json.dumps` per record. Records are
formatted one site and one block of `POPULATION_BLOCK_USERS` users at a
time, as the rows of a `(records, width)` uint8 matrix: the constant
JSON fragments are broadcast, and every number (user id, epoch, source
epoch, topic) and flag is gathered from a small zero-padded text table.
The zero fill is dropped with `bytes.replace`, and the block is written
as bytes. The log writer forms every call of each block at once through
`SiteLog.calls` on a view of that block's users.
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
from .population import POPULATION_BLOCK_USERS, Profiles, UserProfile, header_line
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
    """The pinned draw for (user, site, source_epoch): `_draws_for_site` at that one key.

    Pure function of (seed, user, site, source_epoch): every caller and
    every repeated call sees the same draw. Refuses what `run_scenario`
    refuses of a profile: none, or a topic outside the taxonomy.
    """
    if not user.top_profile:
        raise ValueError(f"user {user.user_id} has no top profile")
    user_ids = np.array([user.user_id], dtype=np.int64)
    profiles = np.array([user.top_profile], dtype=np.int64)
    _refuse_outside_taxonomy(user_ids, profiles, taxonomy)
    topics, noisy = _draws_for_site(site, user_ids, profiles, np.array([source_epoch], dtype=np.int64),
                                    config, np.asarray(taxonomy.ids(), dtype=np.int16))
    return EpochDraw(topic=int(topics[0, 0]), noisy=bool(noisy[0, 0]))


@dataclass(frozen=True, eq=False)
class ObservationLog:
    """The truth draws of every (site, user, source epoch), from which each call is formed.

    An analysis reads one call per epoch through `site_view(site).call(epoch)`,
    and the NDJSON writer reads the calls of one block of users at a time
    through `site_view(site, rows)`. `topics` is every call, `(site, user,
    epoch, tau)` int16, read-only, built in full when first read and then
    kept; nothing in the package reads it, only `tests/` and `perfbench/` do.
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
        out = np.array([self.site_view(site).topics for site in self.sites], dtype=np.int16)
        return _read_only(out.reshape(len(self.sites), len(self.user_ids), self.epochs, self.config.tau))

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

    def site_view(self, site: str, rows: slice = slice(None)) -> "SiteLog":
        """One site's log, of every user or of the users in `rows`; a call is keyed per user, so a
        view of some users forms those rows of the whole population's call."""
        s = self.sites.index(site)
        return SiteLog(
            site=site,
            config=self.config,
            user_ids=self.user_ids[rows],
            truth_topics=self.truth_topics[s, rows],
            truth_noisy=self.truth_noisy[s, rows],
            source_epochs=self.source_epochs,
        )

    def _topic_text(self) -> np.ndarray:
        """The text table of topic ids 0 up to the log's greatest: row t is topic t (ids are >= 1)."""
        return _text_table(np.arange(int(self.truth_topics.max(initial=0)) + 1))

    def write_ndjson(self, path: Union[str, Path], header: Optional[dict] = None) -> None:
        tau, epochs = self.config.tau, self.epochs
        epoch_text = _text_table(np.arange(1, epochs + 1))
        topic_text = self._topic_text()
        with open(path, "wb") as fh:
            fh.write(header_line(header).encode())
            for site in self.sites:
                head = f'{{"site":{json.dumps(site)},"user":'.encode()
                for lo in range(0, len(self.user_ids), POPULATION_BLOCK_USERS):
                    view = self.site_view(site, slice(lo, lo + POPULATION_BLOCK_USERS))
                    n = view.n_users
                    topics = view.calls(np.arange(1, epochs + 1)).reshape(n * epochs, tau)
                    fields = [head, (_text_table(view.user_ids), np.repeat(np.arange(n), epochs)),
                              b',"epoch":', (epoch_text, np.tile(np.arange(epochs), n)),
                              b',"topics":[', (topic_text, topics[:, 0])]
                    for k in range(1, tau):
                        fields += [b",", (topic_text, topics[:, k])]
                    fh.write(_records(n * epochs, fields + [b"]}\n"]))

    def write_truth_ndjson(self, path: Union[str, Path], header: Optional[dict] = None) -> None:
        n_sources = len(self.source_epochs)
        source_text = _text_table(self.source_epochs)
        topic_text = self._topic_text()
        with open(path, "wb") as fh:
            fh.write(header_line(header).encode())
            for site in self.sites:
                head = f'{{"site":{json.dumps(site)},"user":'.encode()
                for lo in range(0, len(self.user_ids), POPULATION_BLOCK_USERS):
                    view = self.site_view(site, slice(lo, lo + POPULATION_BLOCK_USERS))
                    n = view.n_users
                    fh.write(_records(n * n_sources, [
                        head, (_text_table(view.user_ids), np.repeat(np.arange(n), n_sources)),
                        b',"source_epoch":', (source_text, np.tile(np.arange(n_sources), n)),
                        b',"topic":', (topic_text, view.truth_topics.ravel()),
                        b',"noisy":', (_BOOL_TEXT, view.truth_noisy.ravel().view(np.uint8)),
                        b"}\n",
                    ]))


def _text_table(values: np.ndarray) -> np.ndarray:
    """`str` of each integer as one row of ASCII bytes, zero-padded to the longest: `(len(values), width)` uint8."""
    values = np.asarray(values, dtype=np.int64)
    width = max(len(str(values.min())), len(str(values.max()))) if values.size else 1
    return values.astype(f"S{width}").view(np.uint8).reshape(len(values), width)


_BOOL_TEXT = np.frombuffer(b"false" + b"true\0", dtype=np.uint8).reshape(2, 5)


def _records(n: int, fields: list) -> bytes:
    """`n` records as text, one per row of a `(n, width)` uint8 matrix filled field by field.

    A field is constant bytes, broadcast to every row, or a `(table, index)`
    pair, whose row i is `table[index[i]]`: text zero-padded to the table's
    width. JSON text holds no NUL byte, so dropping every zero byte drops
    only that fill (`bytes.replace` does it about twice as fast as a mask).
    """
    widths = [len(f) if isinstance(f, bytes) else f[0].shape[1] for f in fields]
    template = b"".join(f if isinstance(f, bytes) else bytes(w) for f, w in zip(fields, widths))
    out = np.empty((n, len(template)), dtype=np.uint8)
    out[:] = np.frombuffer(template, dtype=np.uint8)
    stop = 0
    for field, width in zip(fields, widths):
        start, stop = stop, stop + width
        if not isinstance(field, bytes):
            out[:, start:stop] = np.take(*field, axis=0)
    return out.tobytes().replace(b"\0", b"")


@dataclass
class SiteLog:
    """One site's slice of an ObservationLog, of all its users or of one block of them:
    their truth draws and the calls formed from them.

    `call(epoch)` and the views go through `calls`. The first call folds
    each user's `(seed, user, site)` shuffle-key prefix, and the view
    keeps it (8 bytes per user), so each epoch's keys fold only the
    epoch, the tag and the slot. `topics` and `slot_sources` are every
    call and the source epoch of its every slot, `(user, epoch, tau)`
    int16, read-only and built in full when first read; only `tests/`
    and `perfbench/` read them.
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
        """Every user's call at `epoch`, `(user, tau)` int16."""
        return self.calls(np.array([epoch]))[:, 0]

    def calls(self, epochs: np.ndarray) -> np.ndarray:
        """Every user's call at each of `epochs`, `(user, len(epochs), tau)` int16:
        their window of draws in shuffled order."""
        n, n_sources = self.truth_topics.shape
        # Where each user's draws start in the flat array, less the first source epoch, 1 - tau.
        starts = np.arange(n)[:, None, None] * n_sources + self.config.tau - 1
        return self.truth_topics.ravel()[starts + self._slot_sources(epochs)]

    def _slot_sources(self, epochs: np.ndarray) -> np.ndarray:
        """The source epoch of each slot of every user's call at each of `epochs`,
        `(user, len(epochs), tau)`: e - tau .. e - 1 in the order of one keyed shuffle.

        The shuffle sorts the window's draws by their keys' uniforms, ties
        kept in source order. The uniforms' 53-bit numerators, `hash >> 11`,
        order alike, so the keys are compared as those integers, finished
        from the view's folded `(seed, user, site)` prefix.
        """
        bad = epochs[(epochs < 1) | (epochs > self.epochs)]
        if bad.size:
            raise ValueError(f"epoch must be in 1..{self.epochs}, got {bad[0]}")
        tau = self.config.tau
        keys = self._shuffle_prefix.hash_u64(epochs[:, None], rng.TAG_SHUFFLE, np.arange(tau)) >> np.uint64(11)
        return epochs[:, None] - tau + _shuffle_order(keys)

    @functools.cached_property
    def _shuffle_prefix(self) -> rng.KeyPrefix:
        return rng.KeyPrefix(self.config.seed, self.user_ids[:, None, None], rng.string_key(self.site))

    @functools.cached_property
    def topics(self) -> np.ndarray:
        return _read_only(self.calls(np.arange(1, self.epochs + 1)))

    @functools.cached_property
    def slot_sources(self) -> np.ndarray:
        return _read_only(self._slot_sources(np.arange(1, self.epochs + 1)).astype(np.int16))


def _shuffle_order(keys: np.ndarray) -> np.ndarray:
    """`np.argsort(keys, axis=-1, kind="stable")` for a short last axis.

    Each slot is placed by its key's rank among its row's keys, ties
    broken by slot: the slots before it whose keys are no greater, and the
    slots after it whose keys are less. That is tau (tau - 1) / 2 comparisons and
    tau scatters, much cheaper than a sort at tau = 3.
    """
    tau = keys.shape[-1]
    cols = [keys[..., i] for i in range(tau)]
    # Where each row's slots start in the flat result, plus each slot's rank.
    at = [np.arange(0, keys.size, tau).reshape(keys.shape[:-1]) for _ in range(tau)]
    for i in range(tau):
        for l in range(i):
            before = cols[l] <= cols[i]
            at[i] += before
            at[l] += ~before
    order = np.empty(keys.shape, dtype=np.intp)
    flat = order.ravel()  # a view: `order` is contiguous
    for i in range(tau):
        flat[at[i]] = i
    return order


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


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
    key = rng.KeyPrefix(config.seed, user_ids[:, None], rng.string_key(site), source_epochs[None, :])
    noisy = key.uniform(rng.TAG_NOISE_FLAG) < config.p
    u = key.uniform(rng.TAG_TOPIC_PICK)
    genuine_idx = (u * profiles.shape[1]).astype(np.int64)
    genuine_topic = profiles[np.arange(len(user_ids))[:, None], genuine_idx]
    noisy_topic = taxonomy_ids[(u * len(taxonomy_ids)).astype(np.int64)]
    topics = np.where(noisy, noisy_topic, genuine_topic).astype(np.int16)
    return topics, noisy


def _refuse_outside_taxonomy(user_ids: np.ndarray, profiles: np.ndarray, taxonomy: Taxonomy) -> None:
    """Refuse a profile topic outside the taxonomy's 1..omega; the draws' int16 cast would wrap a large one."""
    outside = np.argwhere((profiles < 1) | (profiles > taxonomy.omega))
    if outside.size:
        i, j = outside[0]
        raise ValueError(f"user {user_ids[i]} has topic {profiles[i, j]} in its profile, "
                         f"outside the taxonomy's 1..{taxonomy.omega}")


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
    _refuse_outside_taxonomy(user_ids, profiles, taxonomy)
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
