"""Core data model: interaction triples, user histories, segments, summaries.

Everything downstream (synthesis, pruning, rollouts, streaming, benchmarks) is
built on these four immutable types and their JSONL wire format.
"""

import hashlib
import threading
from collections.abc import Mapping
from dataclasses import dataclass, replace
from typing import Iterator, TypeVar

from ._util import count_tokens, decode, encode, jsonl_object, numbered_jsonl
from .errors import ValidationError

T = TypeVar("T")


@dataclass(frozen=True)
class InteractionTriple:
    """One logged preference event.

    Attributes:
        index: Explicit position key within the user's history. Strictly increasing
            across a history, but stored explicitly so downstream stages can reorder
            or fuse storage without losing identity.
        context: Optional query/prompt the pair was shown under. Often absent.
        chosen: Text of the item the user picked. Never empty.
        rejected: Text of the item the user passed over. Optional; positive-only
            corpora drop it.
    """

    index: int
    chosen: str
    rejected: str | None = None
    context: str | None = None

    def __post_init__(self):
        if self.index < 0:
            raise ValidationError(f"triple index must be >= 0, got {self.index}")
        if not self.chosen:
            raise ValidationError("triple chosen item must be non-empty")
        if self.rejected is not None and self.rejected == self.chosen:
            raise ValidationError(f"triple {self.index}: rejected item equals chosen item")

    to_dict = encode


@dataclass(frozen=True)
class UserHistory:
    """A user's ordered interaction log.

    Attributes:
        user_id: Non-empty stable identifier.
        triples: Interaction triples ordered by strictly increasing ``index``.
        dataset_tag: Optional provenance label (source corpus, split, ...).
    """

    user_id: str
    triples: tuple[InteractionTriple, ...]
    dataset_tag: str | None = None

    def __post_init__(self):
        if not self.user_id:
            raise ValidationError("user_id must be non-empty")
        object.__setattr__(self, "triples", tuple(self.triples))
        last = -1
        for t in self.triples:
            if t.index <= last:
                raise ValidationError(
                    f"user {self.user_id}: triple indices must be strictly increasing "
                    f"({t.index} after {last})"
                )
            last = t.index

    def __len__(self) -> int:
        return len(self.triples)

    def position_of_index(self, index: int) -> int:
        """Map an explicit triple index to its position in ``triples``."""
        for pos, t in enumerate(self.triples):
            if t.index == index:
                return pos
        raise ValidationError(f"user {self.user_id}: no triple with index {index}")

    to_dict = encode


@dataclass(frozen=True)
class HistorySegment:
    """A half-open position range [start, end) over one history."""

    history: UserHistory
    start: int
    end: int

    def __post_init__(self):
        if not (0 <= self.start < self.end <= len(self.history)):
            raise ValidationError(
                f"segment [{self.start}, {self.end}) invalid for history of "
                f"length {len(self.history)}"
            )

    @property
    def triples(self) -> tuple[InteractionTriple, ...]:
        return self.history.triples[self.start : self.end]

    def __len__(self) -> int:
        return self.end - self.start


def _summary_id(text: str, reasoning: str | None, covers: tuple[int, int], parent_id: str | None) -> str:
    blob = "\x1f".join([text, reasoning or "", str(covers), parent_id or ""]).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()[:16]


@dataclass(frozen=True)
class PreferenceSummary:
    """A generated preference profile covering a slice of one user's history.

    Attributes:
        text: The summary body. Never empty.
        covers: Half-open position range of the history slice the summary drew on.
            For chained summaries this is the newest slice, not the union.
        reasoning: Optional chain-of-thought captured from the generator.
        parent_id: summary_id of the prior summary this one updated, if any.
        token_count: Size of ``text`` in ``count_tokens`` tokens.
        summary_id: Content hash; identical content yields an identical id, which
            keeps lineage byte-stable across reruns.
    """

    text: str
    covers: tuple[int, int]
    reasoning: str | None = None
    parent_id: str | None = None
    token_count: int = -1
    summary_id: str = ""

    def __post_init__(self):
        if not self.text:
            raise ValidationError("summary text must be non-empty")
        if not (0 <= self.covers[0] < self.covers[1]):
            raise ValidationError(f"summary covers {self.covers} is not a valid [start, end)")
        if self.token_count < 0:
            object.__setattr__(self, "token_count", count_tokens(self.text))
        if not self.summary_id:
            object.__setattr__(
                self, "summary_id", _summary_id(self.text, self.reasoning, self.covers, self.parent_id)
            )

    to_dict = encode


def segment(history: UserHistory, k: int) -> list[HistorySegment]:
    """Split a history into ``k`` contiguous segments that tile [0, n): the
    first ``k - 1`` hold ``n // k`` positions each and the last one also holds
    the remainder."""
    n = len(history)
    if k < 1:
        raise ValidationError(f"chunk count must be >= 1, got {k}")
    if n < k:
        raise ValidationError(f"a history of {n} steps cannot be split into {k} chunks")
    ends = [n // k * i for i in range(k)] + [n]
    return [HistorySegment(history, start, end) for start, end in zip(ends, ends[1:])]


def strip_negatives(history: UserHistory) -> UserHistory:
    """Return a copy with every rejected item removed. Idempotent; order, indices
    and contexts are untouched."""
    return replace(
        history,
        triples=tuple(replace(t, rejected=None) for t in history.triples),
    )


def read_by_user(path: str, cls: type[T], seen: set[str] | None = None) -> Iterator[tuple[str, T, int]]:
    """Each line of the per-user store ``path`` decoded as ``cls``, in file
    order, as ``(user_id, record, byte offset of the line)``; every line
    carries a ``user_id``. A line that does not decode raises first. Then a
    user_id read twice, or already in ``seen`` (the ids of a store read
    before this one), raises ValidationError naming ``path:line`` and the
    user, instead of the later record silently replacing the earlier one.
    Each id read is added to ``seen``."""
    seen = set() if seen is None else seen
    for line_no, offset, record in numbered_jsonl(path):
        where = f"{path}:{line_no}"
        value = decode(cls, record, where)
        user_id = decode(UserKey, record, where).user_id
        if user_id in seen:
            raise ValidationError(f"{where}: duplicate record for user {user_id!r}")
        seen.add(user_id)
        yield user_id, value, offset


@dataclass(frozen=True)
class UserKey:
    """The ``user_id`` that each line of a per-user store carries."""

    user_id: str


def iter_histories(path: str, seen: set[str] | None = None) -> Iterator[UserHistory]:
    """The histories in ``path``, one at a time in file order (see ``read_by_user``)."""
    return (h for _, h, _ in read_by_user(path, UserHistory, seen))


def load_histories(path: str) -> list[UserHistory]:
    """All of ``iter_histories(path)`` at once, for a caller that reads every
    history more than once (``build-transfer``'s multi-interest donors). A
    caller that looks users up takes a ``HistoryIndex``."""
    return list(iter_histories(path))


class HistoryIndex(Mapping[str, UserHistory]):
    """The histories of ``path`` by user_id, each decoded from its line when
    it is looked up: the index holds a byte offset per user, not the corpus.

    Opening makes one validating pass with ``read_by_user``, so a bad line
    or a repeated user raises here, naming ``path:line``, before any lookup.
    ``path`` is then open until ``close`` (or the end of the ``with``
    block). Lookups may come from several threads. A line that no longer
    holds the user indexed at its offset, because the file was rewritten
    after the pass, is a ValidationError that aborts the stage rather than
    a skipped item."""

    def __init__(self, path: str):
        self.path = path
        self._lock = threading.Lock()
        self._offsets = {user_id: offset for user_id, _, offset in read_by_user(path, UserHistory)}
        self._fh = open(path, "rb")

    def __getitem__(self, user_id: str) -> UserHistory:
        offset = self._offsets[user_id]
        with self._lock:
            self._fh.seek(offset)
            raw = self._fh.readline()
        where = f"{self.path}: changed after it was read: byte {offset}"
        try:
            history = decode(UserHistory, jsonl_object(raw, where) or {}, where)
            if history.user_id != user_id:
                raise ValidationError(f"{where} starts user {history.user_id!r}, not {user_id!r}")
        except ValidationError as exc:
            exc.per_item = False  # the input changed under the stage, not one item
            raise
        return history

    def __iter__(self) -> Iterator[str]:
        return iter(self._offsets)

    def __len__(self) -> int:
        return len(self._offsets)

    def close(self) -> None:
        self._fh.close()

    def __enter__(self) -> "HistoryIndex":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def load_summaries(path: str) -> dict[str, PreferenceSummary]:
    """Read a {user_id -> summary} JSONL store (records carry a ``user_id`` field)."""
    return {user_id: summary for user_id, summary, _ in read_by_user(path, PreferenceSummary)}


def summary_record(user_id: str, summary: PreferenceSummary) -> dict:
    """One line of a summary store."""
    return {"user_id": user_id, **summary.to_dict()}
