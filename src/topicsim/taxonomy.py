"""Interest taxonomy: topic ids, slash-path names, parent relations.

The taxonomy file is two tab-separated columns (`id<TAB>name`) with a
header line, one topic per line, ids 1, 2, ..., omega in file order, so
per-topic arrays are omega + 1 long. Names are full slash paths
("/Arts & Entertainment/Comics"); the parent relation is derived
from the path rather than stored, so it cannot go out of sync.

The Unknown sentinel (id 0) is never a file row and never part of the
uniform sample space for noise draws.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from importlib import resources
from pathlib import Path
from typing import IO, Iterable, Optional, Union

UNKNOWN_TOPIC_ID = 0
UNKNOWN_TOPIC_NAME = "Unknown"

TAXONOMY_HEADER = "id\tname"


class TaxonomyError(ValueError):
    """Raised for malformed taxonomy files. Carries the offending row."""

    def __init__(self, message: str, row: Optional[int] = None):
        self.row = row
        if row is not None:
            message = f"row {row}: {message}"
        super().__init__(message)


@dataclass(frozen=True)
class Topic:
    id: int
    name: str
    parent_id: Optional[int]


UNKNOWN_TOPIC = Topic(UNKNOWN_TOPIC_ID, UNKNOWN_TOPIC_NAME, None)


class Taxonomy:
    """Validated, immutable topic hierarchy; topic i is `topics[i - 1]`."""

    def __init__(self, topics: Iterable[Topic]):
        self.topics: tuple[Topic, ...] = tuple(topics)
        for expected, t in enumerate(self.topics, start=1):
            if t.id != expected:
                raise TaxonomyError(f"topic ids must run 1, 2, ... in order: expected {expected}, got {t.id}")
        self._by_name = {t.name: t for t in self.topics}
        self.unknown = UNKNOWN_TOPIC

    @property
    def omega(self) -> int:
        """Number of real (non-Unknown) topics."""
        return len(self.topics)

    def __contains__(self, topic_id: int) -> bool:
        return UNKNOWN_TOPIC_ID <= topic_id <= self.omega

    def get(self, topic_id: int) -> Topic:
        if topic_id not in self:
            raise TaxonomyError(f"topic id {topic_id} not in taxonomy")
        return self.topics[topic_id - 1] if topic_id != UNKNOWN_TOPIC_ID else self.unknown

    def by_name(self, name: str) -> Topic:
        try:
            return self._by_name[name]
        except KeyError:
            raise TaxonomyError(f"topic name {name!r} not in taxonomy") from None

    def ids(self) -> tuple[int, ...]:
        return tuple(range(1, self.omega + 1))


def _parent_name(name: str) -> Optional[str]:
    head, _, _ = name.rpartition("/")
    return head or None


TextSource = Union[str, Path, IO[str]]


def read_lines(source: TextSource) -> list[str]:
    """The lines of a UTF-8 text file, given as a path or an open text file."""
    if hasattr(source, "read"):
        return source.read().splitlines()
    return Path(source).read_text(encoding="utf-8").splitlines()


def load_taxonomy(source: TextSource) -> Taxonomy:
    """Load and validate a taxonomy file.

    Raises TaxonomyError naming the offending row on malformed rows, an
    id other than the next in 1, 2, ..., a duplicate name, a dangling
    parent, or an empty file.
    """
    lines = read_lines(source)
    rows: list[tuple[int, str]] = []  # (lineno, name) of topic id len(rows) + 1
    start = 0
    if lines and lines[0].strip() == TAXONOMY_HEADER:
        start = 1
    for lineno, line in enumerate(lines[start:], start=start + 1):
        if not line.strip():
            continue
        parts = line.split("\t")
        if len(parts) != 2:
            raise TaxonomyError(f"expected 'id<TAB>name', got {line!r}", row=lineno)
        raw_id, name = parts
        try:
            tid = int(raw_id)
        except ValueError:
            raise TaxonomyError(f"non-integer id {raw_id!r}", row=lineno) from None
        expected = len(rows) + 1
        if tid != expected:
            raise TaxonomyError(f"ids must run 1, 2, ... in file order: expected {expected}, got {tid}", row=lineno)
        if not name.startswith("/") or name.endswith("/"):
            raise TaxonomyError(f"name must be a /-rooted path, got {name!r}", row=lineno)
        rows.append((lineno, name))

    if not rows:
        raise TaxonomyError("no topics in file")

    name_to_id: dict[str, int] = {}
    for tid, (lineno, name) in enumerate(rows, start=1):
        if name in name_to_id:
            first = rows[name_to_id[name] - 1][0]
            raise TaxonomyError(f"duplicate name {name!r} (first seen row {first})", row=lineno)
        name_to_id[name] = tid

    topics = []
    for tid, (lineno, name) in enumerate(rows, start=1):
        pname = _parent_name(name)
        pid = None
        if pname is not None:
            if pname not in name_to_id:
                raise TaxonomyError(f"dangling parent {pname!r} for {name!r}", row=lineno)
            pid = name_to_id[pname]
        topics.append(Topic(tid, name, pid))
    return Taxonomy(topics)


@functools.cache
def bundled_taxonomy() -> Taxonomy:
    """The bundled v1-style taxonomy (349 topics under 24 root categories)."""
    ref = resources.files("topicsim.data").joinpath("taxonomy_v1.tsv")
    with ref.open("r", encoding="utf-8") as fh:
        return load_taxonomy(fh)
