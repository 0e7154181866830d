"""Interest taxonomy: topic ids, slash-path names, parent relations.

The taxonomy file is two tab-separated columns (`id<TAB>name`) with a
header line, ids ascending, one topic per line. Names are full slash
paths ("/Arts & Entertainment/Comics"); the parent relation is derived
from the path rather than stored, so it cannot go out of sync.

The Unknown sentinel (id 0) is never a file row and never part of the
uniform sample space for noise draws.
"""

from __future__ import annotations

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
    """Validated, immutable topic hierarchy. Safe to share across workers."""

    def __init__(self, topics: Iterable[Topic]):
        self.topics: tuple[Topic, ...] = tuple(topics)
        self._by_id = {t.id: t for t in self.topics}
        self._by_name = {t.name: t for t in self.topics}
        self.unknown = UNKNOWN_TOPIC
        self.root_ids: tuple[int, ...] = tuple(t.id for t in self.topics if t.parent_id is None)

    @property
    def omega(self) -> int:
        """Number of real (non-Unknown) topics."""
        return len(self.topics)

    def __contains__(self, topic_id: int) -> bool:
        return topic_id in self._by_id or topic_id == UNKNOWN_TOPIC_ID

    def get(self, topic_id: int) -> Topic:
        if topic_id == UNKNOWN_TOPIC_ID:
            return self.unknown
        try:
            return self._by_id[topic_id]
        except KeyError:
            raise TaxonomyError(f"topic id {topic_id} not in taxonomy") from None

    def by_name(self, name: str) -> Topic:
        try:
            return self._by_name[name]
        except KeyError:
            raise TaxonomyError(f"topic name {name!r} not in taxonomy") from None

    def ids(self) -> tuple[int, ...]:
        return tuple(t.id for t in self.topics)

    def roots(self) -> tuple[Topic, ...]:
        return tuple(self._by_id[i] for i in self.root_ids)

    def subtree_size(self, root: Union[Topic, int]) -> int:
        """Number of topics in the subtree, including the root itself."""
        root = root if isinstance(root, Topic) else self.get(root)
        prefix = root.name + "/"
        return 1 + sum(1 for t in self.topics if t.name.startswith(prefix))


def parent_of(taxonomy: Taxonomy, topic: Union[Topic, int]) -> Optional[Topic]:
    """Immediate parent of a topic; None for root categories and Unknown."""
    tid = topic.id if isinstance(topic, Topic) else topic
    if tid == UNKNOWN_TOPIC_ID:
        return None
    t = taxonomy.get(tid)
    if isinstance(topic, Topic) and taxonomy.get(tid) != topic:
        raise TaxonomyError(f"topic {topic!r} does not belong to this taxonomy")
    if t.parent_id is None:
        return None
    return taxonomy.get(t.parent_id)


def _parent_name(name: str) -> Optional[str]:
    head, _, _ = name.rpartition("/")
    return head or None


def load_taxonomy(source: Union[str, Path, IO[str]]) -> Taxonomy:
    """Load and validate a taxonomy file.

    Raises TaxonomyError naming the offending row on malformed rows,
    duplicate ids, dangling parents, or an empty file.
    """
    if hasattr(source, "read"):
        lines = source.read().splitlines()
    else:
        lines = Path(source).read_text(encoding="utf-8").splitlines()

    rows: list[tuple[int, int, str]] = []  # (lineno, id, name)
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
        if tid <= 0:
            raise TaxonomyError(f"id must be >= 1 (0 is the Unknown sentinel), got {tid}", row=lineno)
        if not name.startswith("/") or name.endswith("/"):
            raise TaxonomyError(f"name must be a /-rooted path, got {name!r}", row=lineno)
        rows.append((lineno, tid, name))

    if not rows:
        raise TaxonomyError("no topics in file")

    seen_ids: dict[int, int] = {}
    seen_names: dict[str, int] = {}
    prev_id = 0
    for lineno, tid, name in rows:
        if tid in seen_ids:
            raise TaxonomyError(f"duplicate id {tid} (first seen row {seen_ids[tid]})", row=lineno)
        if name in seen_names:
            raise TaxonomyError(f"duplicate name {name!r} (first seen row {seen_names[name]})", row=lineno)
        if tid <= prev_id:
            raise TaxonomyError(f"ids must be ascending, got {tid} after {prev_id}", row=lineno)
        seen_ids[tid] = lineno
        seen_names[name] = lineno
        prev_id = tid

    name_to_id = {name: tid for _, tid, name in rows}
    topics = []
    for lineno, tid, name in rows:
        pname = _parent_name(name)
        pid = None
        if pname is not None:
            if pname not in name_to_id:
                raise TaxonomyError(f"dangling parent {pname!r} for {name!r}", row=lineno)
            pid = name_to_id[pname]
        topics.append(Topic(tid, name, pid))
    return Taxonomy(topics)


_BUNDLED: Optional[Taxonomy] = None


def bundled_taxonomy() -> Taxonomy:
    """The bundled v1-style taxonomy (349 topics under 24 root categories)."""
    global _BUNDLED
    if _BUNDLED is None:
        ref = resources.files("topicsim.data").joinpath("taxonomy_v1.tsv")
        with ref.open("r", encoding="utf-8") as fh:
            _BUNDLED = load_taxonomy(fh)
    return _BUNDLED
