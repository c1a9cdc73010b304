"""Small shared helpers: stable seeds, token counting, JSONL io, config
loading, ordered fan-out, the per-item failure policy, counted skip reasons."""

import collections
import contextlib
import dataclasses
import functools
import hashlib
import itertools
import json
import logging
import math
import os
import re
import types
import typing
from concurrent.futures import Future, ThreadPoolExecutor
from typing import Any, Callable, Iterable, Iterator, Mapping, NamedTuple, TextIO, TypeVar

from .errors import ConfigError, ContractError, PipelineError, UserSkip, ValidationError

T = TypeVar("T")
R = TypeVar("R")
C = TypeVar("C")

_TOKEN_RE = re.compile(r"\S+")


def stable_hash(*parts: Any) -> int:
    """Deterministic 63-bit hash of the given parts. Independent of PYTHONHASHSEED."""
    blob = "\x1f".join(str(p) for p in parts).encode("utf-8")
    return int.from_bytes(hashlib.sha256(blob).digest()[:8], "big") >> 1


def derive_seed(root_seed: int, *scope: Any) -> int:
    """Derive a per-stage / per-user seed from a root seed and a scope path."""
    return stable_hash("seed", root_seed, *scope)


def count_tokens(text: str) -> int:
    """The one token rule, prompt budgets included: whitespace-delimited chunks."""
    return len(_TOKEN_RE.findall(text))


def left_truncate(text: str, max_tokens: int) -> tuple[str, int]:
    """Drop the earliest ``count_tokens`` tokens so that at most ``max_tokens`` remain.

    Returns (truncated_text, dropped_token_count). The cut lands on a
    whitespace boundary, so the surviving suffix is byte-identical to the
    original tail.
    """
    if max_tokens < 0:
        raise ValueError("max_tokens must be >= 0")
    if count_tokens(text) <= max_tokens:
        return text, 0
    spans = [m.span() for m in _TOKEN_RE.finditer(text)]
    drop = len(spans) - max_tokens
    if drop >= len(spans):
        return "", len(spans)
    return text[spans[drop][0] :], drop


_JSON_ENCODER = json.JSONEncoder(ensure_ascii=False, sort_keys=True, allow_nan=False)
_JSON_FILE_ENCODER = json.JSONEncoder(indent=2, sort_keys=True, allow_nan=False)


def json_dumps(obj: Any, where: str = "JSON output", encoder: json.JSONEncoder = _JSON_ENCODER) -> str:
    """Canonical JSON used for all on-disk records: UTF-8, stable key order,
    one encoder for every call. JSON has no NaN or ±inf: a non-finite float
    raises ContractError naming ``where``, the output it was meant for."""
    try:
        return encoder.encode(obj)
    except ValueError as exc:
        raise ContractError(f"{where}: {exc}") from exc


def write_json(path: str, obj: Any) -> None:
    """Atomically write ``obj`` as indented JSON, the form of manifests and reports."""
    atomic_write_text(path, json_dumps(obj, path, _JSON_FILE_ENCODER) + "\n")


def write_jsonl(path: str, records: Iterable[dict]) -> int:
    """Atomically write records as one JSON object per line. Returns the record count."""
    n = 0
    with jsonl_writer(path) as write:
        for rec in records:
            write(rec)
            n += 1
    return n


@contextlib.contextmanager
def jsonl_writer(path: str) -> Iterator[Callable[[dict], None]]:
    """``write_jsonl`` for a caller that produces records one at a time:
    yields a function that writes one record. ``path`` appears, complete,
    only when the block ends without an exception."""
    with _atomic_open(path) as fh:

        def write(rec: dict) -> None:
            fh.write(json_dumps(rec, path))
            fh.write("\n")

        yield write


def numbered_jsonl(path: str) -> Iterator[tuple[int, int, dict]]:
    """Each JSON object in ``path`` with its 1-based line number and the byte
    offset where its line starts. A line that is not UTF-8, not JSON or not a
    JSON object raises ValidationError naming ``path:line``. Lines end at
    ``\n``, as JSON Lines defines them."""
    with open(path, "rb") as fh:
        offset = 0
        for line_no, raw in enumerate(fh, 1):
            record = jsonl_object(raw, f"{path}:{line_no}")
            if record is not None:
                yield line_no, offset, record
            offset += len(raw)


def jsonl_object(raw: bytes, where: str) -> dict | None:
    """The JSON object on the raw line ``raw``, or None for a blank line. A
    line that is not UTF-8, not JSON or not a JSON object raises
    ValidationError naming ``where``."""
    try:
        line = raw.decode("utf-8").strip()
        if not line:
            return None
        record = json.loads(line)
    except ValueError as exc:  # UnicodeDecodeError or json.JSONDecodeError
        raise ValidationError(f"{where}: invalid JSON line: {exc}") from exc
    if not isinstance(record, dict):
        raise ValidationError(f"{where}: record is not a JSON object")
    return record


def sha256_file(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            h.update(chunk)
    return h.hexdigest()


def atomic_write_text(path: str, text: str) -> None:
    with _atomic_open(path) as fh:
        fh.write(text)


@contextlib.contextmanager
def _atomic_open(path: str) -> Iterator[TextIO]:
    """Open ``path + ".tmp"`` for writing and rename it over ``path`` on exit.

    Readers see either the old file or the complete new one. If the block
    raises, the tmp file is removed and ``path`` is left as it was.
    """
    tmp = path + ".tmp"
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        raise


def read_config(path: str) -> dict:
    """Read the mapping in config file ``path``: ``.json`` with json, any
    other extension as YAML. An empty YAML file is an empty mapping."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    if path.endswith(".json"):
        parse, parse_error = json.loads, ValueError
    else:
        import yaml  # only YAML configs pay for importing the parser

        parse, parse_error = yaml.safe_load, yaml.YAMLError
    try:
        data = parse(text)
    except parse_error as exc:
        raise ConfigError(f"cannot parse config {path}: {exc}") from exc
    if not isinstance(data, (dict, type(None))):
        raise ConfigError(f"config {path} must be a mapping")
    return data or {}


def build_config(cls: type[C], *layers: Any, what: str, sections: Iterable[str] = (), **fixed: Any) -> C:
    """Build the config dataclass ``cls`` from mappings, later layers winning.

    Each layer may hold only ``cls``'s fields and the named ``sections``
    (endpoint blocks, skipped here); ``fixed`` fields are set by the caller
    and are not config keys. A value must match its field's annotation by
    ``decode``'s rule, save that ±inf is a float here (``timeout: .inf``).
    Values are kept as given. Every failure is a ConfigError naming the key;
    range checks stay in ``cls.__post_init__``.
    """
    fields = {f.name: f for f in _fields_of(cls, finite=False) if f.name not in fixed}
    merged: dict[str, Any] = {}
    for layer in layers:
        if not isinstance(layer, Mapping):
            raise ConfigError(f"{what} config must be a mapping, got {type(layer).__name__}")
        unknown = set(layer) - set(fields) - set(sections)
        if unknown:
            raise ConfigError(f"unknown {what} config keys: {sorted(unknown, key=str)}")
        for key, value in layer.items():
            if key in fields:
                try:
                    merged[key] = fields[key].codec.decode(value)
                except _BadValue as exc:
                    raise ConfigError(f"{what} config key {key!r} {exc}") from None
    missing = [name for name, f in fields.items() if f.required and name not in merged]
    if missing:
        raise ConfigError(f"{what} needs an explicit {', '.join(missing)}")
    return cls(**merged, **fixed)


def decode(cls: type[C], record: Any, where: str = "record") -> C:
    """Build the dataclass ``cls`` from ``record``, data from outside the
    program, checking each value against its field's annotation (see
    ``_codec``). A field is read from its ``metadata["key"]``, else its
    name; unknown keys are ignored and a missing field takes its default. Any
    failure, ``cls``'s own checks included, is a ValidationError naming
    ``where`` and the field, e.g. ``f.jsonl:3: triples[2].chosen: must be str, got 5``."""
    try:
        return _codec(cls).decode(record)
    except _BadValue as exc:
        raise ValidationError(f"{where}: {exc.path.lstrip('.')}{': ' if exc.path else ''}{exc}") from exc


def encode(record: Any) -> dict:
    """The JSON object of the dataclass ``record``, which ``decode`` reads
    back: each field under its key, a nested record as its object, a tuple
    as a list. Record classes take it as their ``to_dict``."""
    return _codec(type(record)).encode(record)


def read_records(path: str, cls: type[C]) -> Iterator[C]:
    """Each line of ``path`` decoded as ``cls``; a bad line raises ValidationError naming ``path:line``."""
    return (decode(cls, record, f"{path}:{line_no}") for line_no, _, record in numbered_jsonl(path))


class _BadValue(Exception):
    path = ""  # where the value sits in the record, like ".triples[2].chosen"


class _Codec(NamedTuple):
    decode: Callable[[Any], Any]  # JSON -> value, or _BadValue
    encode: Callable[[Any], Any] | None  # value (not None) -> JSON; None: JSON holds it as it is


class _Field(NamedTuple):
    name: str
    key: str  # the record key: ``metadata["key"]``, else the name
    codec: _Codec
    required: bool


@functools.cache
def _fields_of(cls: type, finite: bool = True) -> tuple[_Field, ...]:
    """``cls``'s fields on the wire, built once per class (see ``_codec`` for ``finite``)."""
    hints = typing.get_type_hints(cls)
    return tuple(
        _Field(f.name, f.metadata.get("key", f.name), _codec(hints[f.name], finite),
               f.default is dataclasses.MISSING is f.default_factory)
        for f in dataclasses.fields(cls)
    )


@functools.cache
def _codec(annotation: Any, finite: bool = True) -> _Codec:
    """Both directions between JSON and a value that ``annotation`` holds.
    Decoding checks the value: a bool is not an int, an int is a float, NaN
    is not a float and neither is ±inf unless ``finite`` is False (configs
    only), ``X | None`` allows None, a ``tuple[X, ...]`` or ``tuple[X, Y]``
    is a list, built as a tuple, and a dataclass is an object. Encoding is
    the inverse: a record becomes an object and a tuple a list."""
    args = typing.get_args(annotation)
    if dataclasses.is_dataclass(annotation):
        fields = _fields_of(annotation, finite)
        readers = [(f.name, f.key, f.codec.decode, f.required) for f in fields]
        writers = [(f.name, f.key, f.codec.encode) for f in fields]

        def decode(value: Any) -> Any:
            if not isinstance(value, dict):
                raise _mismatch(value, annotation)
            kwargs = {}
            for name, key, convert, required in readers:
                if key in value:
                    try:
                        kwargs[name] = convert(value[key])
                    except _BadValue as exc:
                        exc.path = f".{key}{exc.path}"
                        raise
                elif required:
                    raise _BadValue(f"missing field {key!r}")
            try:
                return annotation(**kwargs)
            except ValidationError as exc:
                raise _BadValue(str(exc)) from exc

        def encode(record: Any) -> dict:
            return {
                key: value if convert is None or value is None else convert(value)
                for name, key, convert in writers
                for value in (getattr(record, name),)
            }

        return _Codec(decode, encode)
    if typing.get_origin(annotation) is tuple:
        decoders, encoders = zip(*[_codec(a, finite) for a in args if a is not Ellipsis])

        def decode(value: Any) -> Any:
            if not isinstance(value, list) or (Ellipsis not in args and len(value) != len(decoders)):
                raise _mismatch(value, annotation)
            out: list = []
            try:
                for convert, item in zip(itertools.cycle(decoders), value):
                    out.append(convert(item))
            except _BadValue as exc:
                exc.path = f"[{len(out)}]{exc.path}"
                raise
            return tuple(out)

        (item,) = set(encoders)  # a tuple of records has one item type
        return _Codec(decode, list if item is None else lambda value: [item(x) for x in value])
    if isinstance(annotation, types.UnionType):  # only ``X | None``; None is written as it is
        ((convert, encode),) = [_codec(a, finite) for a in args if a is not type(None)]
        return _Codec(lambda value: None if value is None else convert(value), encode)
    kinds = (int, float) if annotation is float else annotation
    refused = (math.inf, -math.inf) if finite and annotation is float else ()

    def decode(value: Any) -> Any:
        # value == value is False for NaN alone
        if (isinstance(value, kinds) and (annotation is bool or not isinstance(value, bool)) and value == value
                and value not in refused):
            return value
        raise _mismatch(value, annotation)

    return _Codec(decode, None)


def _mismatch(value: Any, annotation: Any) -> _BadValue:
    return _BadValue(f"must be {annotation.__name__ if isinstance(annotation, type) else annotation}, got {value!r}")


def ordered_map(fn: Callable[[T], R], items: Iterable[T], jobs: int) -> Iterator[R]:
    """Yield ``fn(x)`` for each of ``items``, with up to ``jobs`` calls running at once.

    Results come out in input order whatever the scheduling, so callers emit
    the same bytes at any ``jobs``; wrap the call in ``list(...)`` to collect
    them. Nothing runs until the first result is asked for. With ``jobs <= 1``
    or fewer than two items every call runs inline in the consumer's thread.
    Otherwise ``items`` is read lazily and at most ``2 * jobs`` calls are
    submitted ahead of the consumer. A call that raises stops, in its own
    thread, every call after it in input order that has not started, and no
    further item is read; the consumer closing the iterator cancels the calls
    not yet started. The first exception in input order is re-raised, the
    same one the inline loop would raise.
    """
    it = iter(items)
    head = list(itertools.islice(it, 2 if jobs > 1 else 0))
    if len(head) < 2:
        yield from map(fn, itertools.chain(head, it))
        return
    failed: list[int] = []  # the input positions of the calls that raised

    def call(pos: int, x: T) -> R | None:
        if failed and pos > min(failed):
            return None  # never yielded: the consumer raises at min(failed) first
        try:
            return fn(x)
        except BaseException:
            failed.append(pos)
            raise

    pending: collections.deque[Future] = collections.deque()
    with ThreadPoolExecutor(max_workers=jobs) as pool:
        try:
            for pos, x in enumerate(itertools.chain(head, it)):
                if failed:  # every item from here on comes after the failure
                    break
                pending.append(pool.submit(call, pos, x))
                if len(pending) >= 2 * jobs:
                    yield pending.popleft().result()
            while pending:
                yield pending.popleft().result()
        finally:
            for f in pending:
                f.cancel()


class Tally:
    """Items left out of a stage, counted by reason, each reason keeping its
    first item's detail as the example; ``log`` writes one line per reason."""

    def __init__(self) -> None:
        self._seen: dict[str, list] = {}  # reason -> [count, first detail]

    def add(self, reason: str, detail: str) -> None:
        self._seen.setdefault(reason, [0, detail])[0] += 1

    def merge(self, other: "Tally") -> None:
        """Count ``other``'s items after this tally's own."""
        for reason, (count, first) in other._seen.items():
            self._seen.setdefault(reason, [0, first])[0] += count

    def map(self, fn: Callable[[T], R], items: Iterable[T], jobs: int, name: Callable[[T], str]) -> Iterator[R | None]:
        """``ordered_map(fn, items, jobs)``, but an item whose call raises a
        per-item error yields None and is counted here under the error's
        reason (a UserSkip's own, else its class name), with the detail
        ``f"{name(item)}: {error}"``, in input order and in the consuming
        thread. Any other error propagates."""

        def call(item: T) -> tuple[R | None, tuple[str, str] | None]:
            try:
                return fn(item), None
            except PipelineError as exc:
                if not exc.per_item:
                    raise
                return None, (exc.reason if isinstance(exc, UserSkip) else type(exc).__name__, f"{name(item)}: {exc}")

        for result, skip in ordered_map(call, items, jobs):
            if skip is not None:
                self.add(*skip)
            yield result

    def counts(self) -> dict[str, int]:
        return {reason: seen[0] for reason, seen in sorted(self._seen.items())}

    def log(self, logger: logging.Logger, level: int, what: str) -> None:
        for reason, (count, first) in sorted(self._seen.items()):
            logger.log(level, "%d %s (%s), first: %s", count, what, reason, first)
