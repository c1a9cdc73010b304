import json
import logging
import math
import os
import threading
import time
from concurrent.futures import Future
from dataclasses import dataclass, field

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from prefpipe._util import (
    Tally,
    atomic_write_text,
    build_config,
    count_tokens,
    decode,
    derive_seed,
    encode,
    json_dumps,
    left_truncate,
    ordered_map,
    read_config,
    read_records,
    sha256_file,
    stable_hash,
    write_json,
    write_jsonl,
)
from prefpipe.core import InteractionTriple, PreferenceSummary, UserHistory
from prefpipe.curriculum import RlInstance, ScoreRecord
from prefpipe.errors import (
    BackendError,
    CapabilityError,
    ConfigError,
    ContractError,
    GenerationError,
    JudgeError,
    UserSkip,
    ValidationError,
)
from prefpipe.evalharness import EvalInstance, EvalReport
from prefpipe.rlengine import RewardedSummary, RolloutTree, TrainingRecord
from prefpipe.streamer import StreamState
from prefpipe.synthpipe import SynthRecord


def test_stable_hash_deterministic_and_scoped():
    assert stable_hash("a", 1) == stable_hash("a", 1)
    assert stable_hash("a", 1) != stable_hash("a", 2)
    assert stable_hash("a", 1) != stable_hash("a", "1", None)
    # fits in a non-negative 63-bit int
    assert 0 <= stable_hash("x") < 2**63


def test_derive_seed_varies_with_scope():
    seeds = {derive_seed(0, "stage", u) for u in range(50)}
    assert len(seeds) == 50
    assert derive_seed(0, "a") != derive_seed(1, "a")


def test_count_tokens():
    assert count_tokens("") == 0
    assert count_tokens("one") == 1
    assert count_tokens("a b\tc\nd") == 4
    assert count_tokens("  padded   words  ") == 2


def test_left_truncate_keeps_exact_tail():
    text = "alpha beta gamma delta epsilon"
    kept, dropped = left_truncate(text, 2)
    assert kept == "delta epsilon"
    assert dropped == 3
    assert text.endswith(kept)


def test_left_truncate_noop_within_budget():
    assert left_truncate("a b c", 3) == ("a b c", 0)
    assert left_truncate("a b c", 10) == ("a b c", 0)


def test_left_truncate_zero_budget():
    assert left_truncate("a b c", 0) == ("", 3)
    with pytest.raises(ValueError):
        left_truncate("a", -1)


def test_jsonl_round_trip(tmp_path):
    path = str(tmp_path / "recs.jsonl")
    records = [{"b": 2, "a": 1}, {"text": "uniçode ✓"}]
    assert write_jsonl(path, records) == 2
    assert list(read_records(path, dict)) == records
    # canonical dumps: sorted keys, raw unicode
    with open(path, encoding="utf-8") as fh:
        first = fh.readline().strip()
    assert first == '{"a": 1, "b": 2}'


def test_read_jsonl_reports_bad_line(tmp_path):
    path = str(tmp_path / "bad.jsonl")
    with open(path, "w") as fh:
        fh.write('{"ok": 1}\nnot json\n')
    with pytest.raises(ValidationError, match=":2:"):
        list(read_records(path, dict))


def test_read_jsonl_rejects_non_object_line(tmp_path):
    path = tmp_path / "list.jsonl"
    path.write_text('{"ok": 1}\n[1, 2]\n', encoding="utf-8")
    with pytest.raises(ValidationError, match=r"list\.jsonl:2: record is not a JSON object"):
        list(read_records(str(path), dict))


def test_read_jsonl_reports_undecodable_line(tmp_path):
    path = tmp_path / "latin1.jsonl"
    path.write_bytes(b'{"ok": 1}\n\n{"name": "caf\xe9"}\n')
    with pytest.raises(ValidationError, match=r"latin1\.jsonl:3: .*utf-8"):
        list(read_records(str(path), dict))


_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False, allow_infinity=False) | st.text(),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(), inner, max_size=4),
    max_leaves=12,
)


@settings(suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.lists(st.dictionaries(st.text(), _JSON_VALUES, max_size=5), max_size=6))
def test_jsonl_round_trip_property(tmp_path, records):
    path = str(tmp_path / "recs.jsonl")
    assert write_jsonl(path, records) == len(records)
    assert list(read_records(path, dict)) == records
    # the one shared encoder writes the bytes json.dumps would
    assert [json_dumps(r) for r in records] == [json.dumps(r, ensure_ascii=False, sort_keys=True) for r in records]


def test_json_dumps_stable_key_order():
    assert json_dumps({"z": 0, "a": 0}) == '{"a": 0, "z": 0}'


def test_write_json_writes_what_json_dumps_would(tmp_path):
    obj = {"z": [1, {"b": "é"}], "a": 0.5}
    write_json(str(tmp_path / "r.json"), obj)
    assert (tmp_path / "r.json").read_text(encoding="utf-8") == json.dumps(obj, indent=2, sort_keys=True) + "\n"


@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
def test_writers_refuse_non_finite_numbers(tmp_path, value):
    """JSON has no NaN or ±inf: every writer raises ContractError naming its
    output, and leaves no file behind."""
    records, report = tmp_path / "recs.jsonl", tmp_path / "report.json"
    with pytest.raises(ContractError, match=f"^{records}: Out of range float"):
        write_jsonl(str(records), [{"a": 1.0}, {"a": [0.5, value]}])
    with pytest.raises(ContractError, match=f"^{report}: Out of range float"):
        write_json(str(report), {"n": 1, "mean": value})
    with pytest.raises(ContractError, match="^loss-check output: Out of range float"):
        json_dumps({"loss": value}, "loss-check output")
    assert os.listdir(tmp_path) == []


def test_atomic_write_and_digest(tmp_path):
    path = str(tmp_path / "out.txt")
    atomic_write_text(path, "first")
    d1 = sha256_file(path)
    atomic_write_text(path, "second")
    assert (tmp_path / "out.txt").read_text() == "second"
    assert sha256_file(path) != d1
    assert not os.path.exists(path + ".tmp")
    atomic_write_text(path, "second")
    assert sha256_file(path) == sha256_file(path)


def test_write_jsonl_failure_keeps_previous_file(tmp_path):
    path = str(tmp_path / "recs.jsonl")
    write_jsonl(path, [{"a": 1}, {"a": 2}])
    before = (tmp_path / "recs.jsonl").read_bytes()

    def records():
        yield {"a": 3}
        raise RuntimeError("record source failed")

    with pytest.raises(RuntimeError, match="record source failed"):
        write_jsonl(path, records())
    assert (tmp_path / "recs.jsonl").read_bytes() == before
    assert not os.path.exists(path + ".tmp")


@dataclass(frozen=True)
class Knobs:
    rate: float
    count: int = 1
    limit: int | None = None
    on: bool = True
    name: str = "x"
    extra: dict = field(default_factory=dict)
    seed: int = 0


class TestBuildConfig:
    def test_later_layers_win_and_values_are_kept_as_given(self):
        cfg = build_config(Knobs, {"rate": 0.5, "name": "a"}, {"rate": 2}, {"name": "b"}, what="t", seed=9)
        assert cfg == Knobs(rate=2, name="b", seed=9)
        assert type(cfg.rate) is int

    @pytest.mark.parametrize(
        "data",
        [{"rate": 1.0, "limit": None}, {"rate": 1, "limit": 3}, {"rate": 1.0, "on": False}, {"rate": 1.0, "extra": {}},
         {"rate": math.inf}],
        ids=str,
    )
    def test_accepts_matching_types(self, data):
        build_config(Knobs, data, what="t")

    @pytest.mark.parametrize(
        "key, value",
        [("rate", "0.5"), ("rate", True), ("count", 2.5), ("count", True), ("count", None), ("limit", 1.0),
         ("on", 1), ("name", 3), ("extra", []), ("rate", math.nan)],
    )
    def test_rejects_wrong_type_naming_the_key(self, key, value):
        with pytest.raises(ConfigError, match=f"t config key '{key}' must be"):
            build_config(Knobs, {"rate": 1.0, key: value}, what="t")

    def test_rejects_unknown_keys_but_not_sections(self):
        build_config(Knobs, {"rate": 1.0, "judge": {"base_url": "mock:judge"}}, what="t", sections=("judge",))
        with pytest.raises(ConfigError, match=r"unknown t config keys: \['judge'\]"):
            build_config(Knobs, {"rate": 1.0, "judge": {}}, what="t")
        with pytest.raises(ConfigError, match=r"unknown t config keys: \['seed'\]"):
            build_config(Knobs, {"rate": 1.0, "seed": 3}, what="t", seed=0)

    def test_missing_required_field_and_non_mapping(self):
        with pytest.raises(ConfigError, match="t needs an explicit rate"):
            build_config(Knobs, {"count": 2}, what="t")
        with pytest.raises(ConfigError, match="must be a mapping"):
            build_config(Knobs, "rate: 1", what="t")


@dataclass(frozen=True)
class Inner:
    n: int
    label: str | None = None

    def __post_init__(self):
        if self.n < 0:
            raise ValidationError(f"n must be >= 0, got {self.n}")


@dataclass(frozen=True)
class Outer:
    name: str
    items: tuple[Inner, ...]
    pair: tuple[int, int] = (0, 1)
    weights: tuple[float, ...] = ()
    renamed: int = field(default=0, metadata={"key": "alias"})


class TestDecode:
    def test_builds_tuples_and_nested_dataclasses_and_ignores_unknown_keys(self):
        rec = {
            "name": "a", "items": [{"n": 1}, {"n": 2, "label": "x", "more": 1}], "pair": [3, 4],
            "weights": [1, 0.5, 1e308], "alias": 7, "renamed": "ignored", "other": [],
        }
        assert decode(Outer, rec) == Outer("a", (Inner(1), Inner(2, "x")), (3, 4), (1, 0.5, 1e308), 7)

    @pytest.mark.parametrize(
        "rec, message",
        [
            ({"items": []}, "missing field 'name'"),
            ({"name": "a", "items": [{"n": 1}, {"n": True}]}, r"items\[1\]\.n: must be int, got True"),
            ({"name": "a", "items": [{"n": 1}, 5]}, r"items\[1\]: must be Inner, got 5"),
            ({"name": "a", "items": [{}]}, r"items\[0\]: missing field 'n'"),
            ({"name": "a", "items": [{"n": -1}]}, r"items\[0\]: n must be >= 0, got -1"),
            ({"name": "a", "items": ({"n": 1},)}, r"items: must be tuple\[.*Inner, \.\.\.\], got \(\{'n': 1\},\)"),
            ({"name": "a", "items": [], "pair": [1, 2, 3]}, r"pair: must be tuple\[int, int\], got \[1, 2, 3\]"),
            ({"name": "a", "items": [], "weights": [0.5, math.nan]}, r"weights\[1\]: must be float, got nan"),
            ({"name": "a", "items": [], "weights": [-math.inf]}, r"weights\[0\]: must be float, got -inf"),
            ({"name": "a", "items": [], "weights": ["0.5"]}, r"weights\[0\]: must be float, got '0\.5'"),
            ({"name": "a", "items": [], "alias": 1.5}, "alias: must be int, got 1.5"),
            ({"name": None, "items": []}, "name: must be str, got None"),
        ],
    )
    def test_errors_begin_with_where_and_name_the_field(self, rec, message):
        with pytest.raises(ValidationError, match=f"^f.jsonl:4: {message}$"):
            decode(Outer, rec, "f.jsonl:4")


_TEXT = st.text(min_size=1, max_size=8)
_MAYBE_TEXT = st.none() | st.text(max_size=8)
_FLOATS = st.floats(allow_nan=False, allow_infinity=False)  # a writer refuses NaN and ±inf
_PROBS = st.floats(0.0, 1.0)


@st.composite
def _histories(draw):
    items = draw(st.lists(st.tuples(_TEXT, _MAYBE_TEXT, _MAYBE_TEXT), max_size=5))
    indices = sorted(draw(st.sets(st.integers(0, 10**6), min_size=len(items), max_size=len(items))))
    triples = tuple(
        InteractionTriple(index, chosen, None if rejected == chosen else rejected, context)
        for index, (chosen, rejected, context) in zip(indices, items)
    )
    return UserHistory(draw(_TEXT), triples, draw(_MAYBE_TEXT))


_SUMMARIES = st.builds(
    lambda text, start, width, reasoning, parent: PreferenceSummary(text, (start, start + width), reasoning, parent),
    _TEXT, st.integers(0, 10**6), st.integers(1, 10**6), _MAYBE_TEXT, _MAYBE_TEXT,
)


@st.composite
def _states(draw):
    summary = draw(_SUMMARIES)
    lineage = tuple(draw(st.lists(_TEXT, max_size=3))) + (summary.summary_id,)
    return StreamState(draw(_TEXT), summary, summary.covers[1], lineage)


_RECORDS = st.one_of(
    _histories().filter(len).map(lambda h: h.triples[0]),
    _histories(),
    _SUMMARIES,
    _states(),
    st.builds(TrainingRecord, _TEXT, _TEXT, _TEXT, _TEXT, _TEXT, st.lists(_FLOATS).map(tuple), _FLOATS, _FLOATS),
    st.builds(EvalInstance, _TEXT, _TEXT, _TEXT, st.sampled_from("AB"), _MAYBE_TEXT, _MAYBE_TEXT),
    st.builds(lambda user, k1, gap: RlInstance(user, k1, k1 + gap), _TEXT, st.integers(0, 10**6), st.integers(1, 99)),
    st.builds(ScoreRecord, _TEXT, st.integers(0, 10**6), _PROBS, _PROBS),
)


@given(_RECORDS)
def test_decode_inverts_to_dict_for_every_record_type(record):
    assert decode(type(record), json.loads(json_dumps(record.to_dict()))) == record


@dataclass(frozen=True)
class Wire:
    name: str
    count: int = field(metadata={"key": "n"})

    to_dict = encode


_SUMMARY = PreferenceSummary("likes x", (0, 3), "because", "p0")
_TRIPLES = (InteractionTriple(0, "a"), InteractionTriple(2, "x", "y", "ctx"))


@pytest.mark.parametrize(
    "record",
    [
        _TRIPLES[1],
        UserHistory("u1", _TRIPLES, "tag"),
        _SUMMARY,
        SynthRecord("u1", (0, 3), None, "why", "likes x", 0.75, (1, 2), 3),
        TrainingRecord("u1", "u1:1-4:initial", "initial", "prompt", "reply", (-0.5, -0.25), 0.5, 0.75),
        EvalInstance("u1", "a", "b", "B", "ctx", "cross-swap"),
        StreamState("u1", _SUMMARY, 3, ("p0", _SUMMARY.summary_id)),
        RlInstance("u1", 1, 4),
        ScoreRecord("u1", 2, 0.5, 0.25),
        RolloutTree(
            "u1", 1, 4, 0,
            (RewardedSummary("initial", 0, "prompt", "reply", _SUMMARY, (-0.5, -0.25), 0.5, 0.75, 1.0),),
            (RewardedSummary("updated", 0, "prompt 2", "reply 2", _SUMMARY, None, 0.25, 0.25, 0.0),),
        ),
        EvalReport("eval", 4, 3, 0.75, 1, 0),
        Wire("a", 3),
    ],
    ids=lambda record: type(record).__name__,
)
def test_every_wire_record_round_trips(record):
    assert decode(type(record), json.loads(json_dumps(record.to_dict()))) == record


def test_a_record_key_renames_its_field():
    assert Wire("a", 3).to_dict() == {"name": "a", "n": 3}
    assert decode(Wire, {"name": "a", "n": 3, "count": 9}) == Wire("a", 3)


def test_read_config_picks_parser_by_extension(tmp_path):
    (tmp_path / "c.json").write_text('{"a": 1}')
    (tmp_path / "c.yaml").write_text("a: 1\n")
    (tmp_path / "c.cfg").write_text("a: 1\n")
    (tmp_path / "empty.yaml").write_text("")
    assert [read_config(str(tmp_path / n)) for n in ("c.json", "c.yaml", "c.cfg", "empty.yaml")] == [
        {"a": 1}, {"a": 1}, {"a": 1}, {}
    ]
    (tmp_path / "yaml.json").write_text("a: 1\n")
    for name in ("yaml.json", "missing.yaml"):
        with pytest.raises(ConfigError, match=name):
            read_config(str(tmp_path / name))


class TestOrderedMap:
    def test_keeps_input_order(self):
        # later items finish first, so completion order is the reverse of input order
        def slow_square(x):
            time.sleep(0.002 * (8 - x))
            return x * x

        assert list(ordered_map(slow_square, range(8), jobs=4)) == [x * x for x in range(8)]

    def test_one_job_runs_in_calling_thread(self):
        caller = threading.get_ident()
        assert list(ordered_map(lambda _: threading.get_ident(), range(5), jobs=1)) == [caller] * 5
        assert list(ordered_map(lambda _: threading.get_ident(), [0], jobs=4)) == [caller]

    def test_several_jobs_use_worker_threads(self):
        caller = threading.get_ident()
        assert caller not in list(ordered_map(lambda _: threading.get_ident(), range(4), jobs=2))

    def test_exception_propagates_and_cancels_pending(self):
        started = []
        lock = threading.Lock()

        def work(x):
            with lock:
                started.append(x)
            if x == 0:
                raise ValueError("item 0")
            time.sleep(0.05)
            return x

        with pytest.raises(ValueError, match="item 0"):
            list(ordered_map(work, range(20), jobs=2))
        # item 0 fails at once; at most one more item per worker starts before
        # the rest are cancelled
        assert 0 in started
        assert len(started) <= 3

    def test_failure_stops_later_calls_before_the_consumer_reaches_it(self):
        started = []

        def work(x):
            started.append(x)
            if x == 0:
                time.sleep(0.3)  # the consumer waits on item 0 while item 1 fails
            if x == 1:
                raise ValueError("item 1")
            return x

        with pytest.raises(ValueError, match="item 1"):
            list(ordered_map(work, range(20), jobs=2))
        # the worker that ran item 1 starts neither item 2 nor item 3
        assert sorted(started) == [0, 1]

    def test_first_failure_in_input_order_wins(self):
        def work(x):
            time.sleep(0.01 * (4 - x))
            raise ValueError(f"item {x}")

        with pytest.raises(ValueError, match="item 0"):
            list(ordered_map(work, range(4), jobs=4))

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_first_result_comes_before_the_last_item_is_read(self, jobs):
        read = []

        def items():
            for x in range(50):
                read.append(x)
                yield x

        results = ordered_map(lambda x: x * x, items(), jobs=jobs)
        assert read == []  # nothing runs before the first result is asked for
        assert next(results) == 0
        assert len(read) <= 2 * jobs
        assert list(results) == [x * x for x in range(1, 50)]

    def test_stopping_early_cancels_pending_calls(self, monkeypatch):
        started, busy, gate = [], threading.Semaphore(0), threading.Event()

        def work(x):
            started.append(x)
            if x > 0:
                busy.release()
                gate.wait(timeout=5)  # keeps both workers busy, so item 3 waits in the queue
            return x

        real_cancel = Future.cancel

        def cancel(future):
            cancelled = real_cancel(future)
            if cancelled:  # item 3 is out of the queue: let the running calls finish
                gate.set()
            return cancelled

        monkeypatch.setattr(Future, "cancel", cancel)
        results = ordered_map(work, range(40), jobs=2)
        assert next(results) == 0
        busy.acquire()
        busy.acquire()  # items 1 and 2 hold both workers
        results.close()  # returns once the running calls have finished
        assert gate.is_set()
        assert sorted(started) == [0, 1, 2]

    def test_failure_stops_reading_items(self):
        read = []

        def items():
            for x in range(1000):
                read.append(x)
                yield x

        def work(x):
            if x == 3:
                raise ValueError("item 3")
            return x

        for jobs in (1, 3):
            read.clear()
            with pytest.raises(ValueError, match="item 3"):
                list(ordered_map(work, items(), jobs=jobs))
            assert len(read) <= 4 + 2 * jobs


class TestFailurePolicy:
    @pytest.mark.parametrize(
        "error, reason",
        [
            (ValidationError("bad record"), "ValidationError"),
            (GenerationError("empty summary"), "GenerationError"),
            (JudgeError("no verdict"), "JudgeError"),
            (BackendError("HTTP 400", retryable=False), "BackendError"),
            (UserSkip("too short"), "too short"),
        ],
        ids=lambda v: v if isinstance(v, str) else type(v).__name__,
    )
    def test_per_item_errors_become_markers(self, error, reason, caplog):
        """The marker is None in the item's place, and the tally counts it."""

        def fn(x):
            raise error

        tally = Tally()
        assert list(tally.map(fn, [7], 1, lambda x: f"item {x}")) == [None]
        assert tally.counts() == {reason: 1}
        with caplog.at_level(logging.WARNING, logger="t"):
            tally.log(logging.getLogger("t"), logging.WARNING, "skipped")
        assert [r.getMessage() for r in caplog.records] == [f"1 skipped ({reason}), first: item 7: {error}"]

    @pytest.mark.parametrize(
        "error",
        [
            ContractError("bug"),
            ConfigError("bad setup"),
            CapabilityError("cannot score"),
            BackendError("HTTP 503", retryable=True),  # the retries ran out
            KeyError("not a pipeline error"),
        ],
        ids=lambda e: type(e).__name__,
    )
    def test_other_errors_propagate(self, error):
        def fn(x):
            raise error

        tally = Tally()
        with pytest.raises(type(error)):
            list(tally.map(fn, [7], 1, str))
        assert tally.counts() == {}

    def test_results_pass_through(self):
        assert list(Tally().map(lambda x: x * 2, [4, 5], 2, str)) == [8, 10]

    def test_nothing_runs_until_the_first_result_is_asked_for(self):
        calls = []
        results = Tally().map(calls.append, range(3), 1, str)
        assert calls == []
        next(results)
        assert calls == [0]  # at one job each call runs when its result is asked for

    @pytest.mark.parametrize("jobs", [1, 3])
    def test_map_counts_skips_in_input_order(self, jobs, caplog):
        def fn(x):
            if x % 3 == 0:
                raise UserSkip("multiple of 3")
            if x % 5 == 0:
                raise GenerationError(f"no reply for {x}")
            return x

        tally = Tally()
        results = list(tally.map(fn, range(1, 16), jobs, lambda x: f"item {x}"))
        assert results == [None if x % 3 == 0 or x % 5 == 0 else x for x in range(1, 16)]
        assert tally.counts() == {"GenerationError": 2, "multiple of 3": 5}
        with caplog.at_level(logging.WARNING, logger="t"):
            tally.log(logging.getLogger("t"), logging.WARNING, "item(s) skipped")
        assert [r.getMessage() for r in caplog.records] == [
            "2 item(s) skipped (GenerationError), first: item 5: no reply for 5",
            "5 item(s) skipped (multiple of 3), first: item 3: multiple of 3",
        ]

    def test_merge_keeps_the_earlier_first_example(self, caplog):
        first, second = Tally(), Tally()
        first.add("a", "one")
        second.add("a", "two")
        second.add("b", "three")
        first.merge(second)
        assert first.counts() == {"a": 2, "b": 1}
        with caplog.at_level(logging.WARNING, logger="t"):
            first.log(logging.getLogger("t"), logging.WARNING, "skipped")
        assert [r.getMessage() for r in caplog.records] == ["2 skipped (a), first: one", "1 skipped (b), first: three"]
