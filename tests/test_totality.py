"""Whatever arrives from outside the program, a server's reply, a line of a
record file or a config mapping, ends in a value or a ``PipelineError``:
never a traceback that loses the whole corpus. Each property feeds generated
inputs, shaped like the real ones often enough to get past the first check,
through the code that maps them."""

import dataclasses
import json
import typing

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from prefpipe import core, curriculum, evalharness, rlengine, simlab, streamer, synthpipe
from prefpipe._util import build_config, read_records
from prefpipe.errors import PipelineError
from prefpipe.modelio import ModelClient, ModelEndpoint
from prefpipe.modelio.backends import HttpBackend

LEAVES = (
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6)
    | st.sampled_from(["NaN", "Infinity", "-Infinity", "A", "B", "Item A", "0.5", "<think>x</think>y"])
)
JSON = st.recursive(
    LEAVES, lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=8,
)


def shaped(annotation) -> st.SearchStrategy:
    """JSON values of ``annotation``'s shape (a dataclass as an object with
    any of its keys), each part replaced at times by any JSON value."""
    args = typing.get_args(annotation)
    if dataclasses.is_dataclass(annotation):
        hints = typing.get_type_hints(annotation)
        keys = {f.metadata.get("key", f.name): shaped(hints[f.name]) for f in dataclasses.fields(annotation)}
        own = st.fixed_dictionaries({}, optional=keys)
    elif typing.get_origin(annotation) is tuple:
        own = st.lists(shaped(args[0]), max_size=4)
    elif args:  # X | None
        own = shaped(args[0]) | st.none()
    else:
        own = st.from_type(annotation) if annotation in (bool, int, float) else st.text(max_size=6)
    return own | JSON


_LOGPROB = LEAVES | st.floats(max_value=0)
_TOKEN = st.fixed_dictionaries({"token": LEAVES, "logprob": _LOGPROB}, optional={
    "top_logprobs": st.lists(st.fixed_dictionaries({"token": LEAVES, "logprob": _LOGPROB}) | JSON, max_size=3) | JSON,
})
_CHOICE = st.fixed_dictionaries({"message": st.fixed_dictionaries({"content": LEAVES | JSON}) | JSON}, optional={
    "logprobs": st.fixed_dictionaries({"content": st.lists(_TOKEN | JSON, max_size=3)}) | JSON,
})
_EMBEDDING = st.fixed_dictionaries({"embedding": st.lists(LEAVES | st.floats(), max_size=4) | JSON})
REPLIES = (
    st.fixed_dictionaries({"choices": st.lists(_CHOICE | JSON, min_size=1, max_size=2) | JSON})
    | st.fixed_dictionaries({"data": st.lists(_EMBEDDING | JSON, min_size=1, max_size=2) | JSON})
    | JSON
)


@pytest.fixture(scope="module")
def http_client():
    client = ModelClient(ModelEndpoint(base_url="http://127.0.0.1:1", retry_limit=0, judge_samples=2))
    assert isinstance(client.backend, HttpBackend)
    yield client
    client.backend.session.close()


@given(reply=REPLIES)
@settings(max_examples=150, deadline=None)
def test_every_reply_ends_in_a_value_or_a_pipeline_error(http_client, reply):
    """Any JSON a chat or embeddings route returns, through the three client operations."""
    http_client.backend._post = lambda path, body: reply  # what HttpBackend._post returns: the decoded body
    for call in (
        lambda: http_client.generate_summary("prompt"),
        lambda: http_client.judge_pair("likes tea", None, "tea", "coffee"),
        lambda: http_client.embed("text"),
    ):
        try:
            call()
        except PipelineError:
            pass


def _lines(cls) -> st.SearchStrategy:
    """The lines of a record file of ``cls``: JSON (NaN included) of its
    shape, each object given one user, or any bytes, or a blank line."""
    record = shaped(cls).map(lambda r: {"user_id": "u", **r} if isinstance(r, dict) and r else r)
    line = record.map(lambda value: json.dumps(value).encode()) | st.binary(max_size=12) | st.just(b"  ")
    return st.lists(line, max_size=3).map(b"\n".join)


READERS = [
    (_lines(cls), read)
    for cls, read in [
        (core.UserHistory, core.load_histories),
        (core.PreferenceSummary, core.load_summaries),
        (streamer.StreamState, streamer.load_states),
        (simlab.TruthRecord, simlab.load_truth),
        (curriculum.ScoreRecord, curriculum.load_scores),
        (rlengine.TrainingRecord, rlengine.load_batch),
        *[(cls, lambda path, cls=cls: list(read_records(path, cls)))
          for cls in (curriculum.RlInstance, rlengine.LogprobsRow, evalharness.EvalInstance)],
    ]
]


@given(data=st.data())
@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_every_record_line_ends_in_a_value_or_a_pipeline_error(tmp_path, data):
    """Any lines (bytes that may not be UTF-8, JSON with NaN, missing or
    mistyped fields, repeated users) through every record reader."""
    path = tmp_path / "records.jsonl"
    for lines, read in READERS:
        path.write_bytes(data.draw(lines))
        try:
            read(str(path))
        except PipelineError:
            pass


def _mapping(cls) -> st.SearchStrategy:
    """Mappings with any of ``cls``'s fields, or any keys at all."""
    values = {name: shaped(annotation) for name, annotation in typing.get_type_hints(cls).items()}
    return st.fixed_dictionaries({}, optional=values) | st.dictionaries(st.text(max_size=4) | st.integers(), JSON, max_size=3)


ENDPOINTS = _mapping(ModelEndpoint)
STAGE_CONFIGS = [
    (_mapping(synthpipe.SynthConfig), synthpipe.SynthConfig, ("generator", "judge", "teacher"), {"seed": 0}),
    (_mapping(curriculum.PruneConfig), curriculum.PruneConfig, (), {}),
    (_mapping(rlengine.RolloutConfig), rlengine.RolloutConfig, ("policy", "judge"), {"seed": 0}),
]


@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_every_config_mapping_ends_in_a_value_or_a_pipeline_error(data):
    """Any mapping a YAML or JSON config file holds, through ``ModelEndpoint``
    and the three stage configs."""
    try:
        ModelEndpoint.from_dict(data.draw(ENDPOINTS))
    except PipelineError:
        pass
    for mappings, cls, sections, fixed in STAGE_CONFIGS:
        try:
            build_config(cls, data.draw(mappings), what="stage", sections=sections, **fixed)
        except PipelineError:
            pass
