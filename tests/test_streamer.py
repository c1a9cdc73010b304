import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from prefpipe._util import decode, json_dumps, write_jsonl
from prefpipe.core import HistorySegment, InteractionTriple, UserHistory
from prefpipe.errors import GenerationError, ValidationError
from prefpipe.modelio import ModelClient, ModelEndpoint, ScriptBackend
from prefpipe.simlab import ScriptedGeneratorBackend
from prefpipe.streamer import StreamState, infer_full, infer_streaming, load_states, update


def make_history(n, user_id="u1", tag="test"):
    triples = tuple(
        InteractionTriple(
            index=i,
            chosen=f"item-{user_id}-{i}-pos",
            rejected=f"item-{user_id}-{i}-neg",
            context=f"query {i}" if i % 2 == 0 else None,
        )
        for i in range(n)
    )
    return UserHistory(user_id=user_id, triples=triples, dataset_tag=tag)


def even_ends(n, k):
    """The chunk ends infer_streaming uses, computed here so the composition
    tests do not lean on the segmenter they check."""
    return [n // k * i for i in range(1, k)] + [n]


def mock_client(seed=0):
    return ModelClient(
        ModelEndpoint(base_url="mock:generator"), backend=ScriptedGeneratorBackend(seed=seed, quality=0.5), sleep=lambda s: None
    )


def counting_client(replies=None):
    calls = []

    def completer(prompt, ctx):
        calls.append({"prompt": prompt, "meta": ctx["meta"]})
        if replies is not None:
            return replies[len(calls) - 1]
        return f"<think>step {len(calls)}</think>\nprofile after call {len(calls)}"

    client = ModelClient(
        ModelEndpoint(base_url="mock:generator"), backend=ScriptBackend(completer=completer), sleep=lambda s: None
    )
    return client, calls


class TestInferFull:
    def test_single_call_covering_everything(self):
        history = make_history(7)
        client, calls = counting_client()
        state = infer_full(client, history)
        assert len(calls) == 1
        assert state.current.covers == (0, 7)
        assert state.consumed_until == 7
        assert state.lineage == (state.current.summary_id,)
        assert state.current.parent_id is None

    def test_matches_one_chunk_streaming(self):
        history = make_history(6)
        full = infer_full(mock_client(), history)
        chunked = infer_streaming(mock_client(), history, 1)
        assert json_dumps(full.to_dict()) == json_dumps(chunked.to_dict())

    def test_depends_only_on_rendered_history(self):
        a = infer_full(mock_client(), make_history(5, tag="alpha"))
        b = infer_full(mock_client(), make_history(5, tag="beta"))
        assert json_dumps(a.to_dict()) == json_dumps(b.to_dict())

    def test_empty_history_rejected(self):
        with pytest.raises(ValidationError):
            infer_full(mock_client(), UserHistory(user_id="u1", triples=()))


class TestUpdate:
    def test_fresh_update_equals_full_inference_over_prefix(self):
        history = make_history(9)
        prefix = UserHistory(user_id="u1", triples=history.triples[:4], dataset_tag="test")
        via_update = update(mock_client(), None, HistorySegment(history, 0, 4))
        via_full = infer_full(mock_client(), prefix)
        assert json_dumps(via_update.to_dict()) == json_dumps(via_full.to_dict())

    def test_two_updates_compose_to_two_chunk_streaming(self):
        history = make_history(9)
        mid = even_ends(9, 2)[0]
        s1 = update(mock_client(), None, HistorySegment(history, 0, mid))
        s2 = update(mock_client(), s1, HistorySegment(history, mid, 9))
        streamed = infer_streaming(mock_client(), history, 2)
        assert json_dumps(s2.to_dict()) == json_dumps(streamed.to_dict())

    def test_prior_summary_enters_the_prompt(self):
        history = make_history(8)
        client, calls = counting_client()
        s1 = update(client, None, HistorySegment(history, 0, 4))
        update(client, s1, HistorySegment(history, 4, 8))
        assert s1.current.text in calls[1]["prompt"]
        assert calls[1]["meta"] == {"user_id": "u1", "stage": "stream-update", "start": 4, "end": 8}
        # the second prompt re-renders only the new segment
        assert "item-u1-3-pos" not in calls[1]["prompt"]
        assert "item-u1-5-pos" in calls[1]["prompt"]

    def test_non_contiguous_segment_rejected(self):
        history = make_history(8)
        s1 = update(mock_client(), None, HistorySegment(history, 0, 4))
        with pytest.raises(ValidationError, match="not contiguous"):
            update(mock_client(), s1, HistorySegment(history, 5, 8))
        with pytest.raises(ValidationError, match="not contiguous"):
            update(mock_client(), s1, HistorySegment(history, 3, 8))
        with pytest.raises(ValidationError, match="not contiguous"):
            update(mock_client(), None, HistorySegment(history, 1, 4))

    def test_wrong_user_rejected(self):
        s1 = update(mock_client(), None, HistorySegment(make_history(4, "u1"), 0, 4))
        other = make_history(8, "u2")
        with pytest.raises(ValidationError, match="u2"):
            update(mock_client(), s1, HistorySegment(other, 4, 8))

    def test_generator_failure_propagates_as_itself(self):
        """A failed update raises the client's own error, first update or
        later, so a stage's failure policy sees its class."""
        history = make_history(8)
        client, _ = counting_client(replies=["", "fine summary", ""])
        with pytest.raises(GenerationError):
            update(client, None, HistorySegment(history, 0, 4))
        s1 = update(client, None, HistorySegment(history, 0, 4))
        with pytest.raises(GenerationError):
            update(client, s1, HistorySegment(history, 4, 8))


class TestStreaming:
    def test_lineage_tracks_chunks(self):
        history = make_history(12)
        for chunks in (1, 2, 3, 4):
            state = infer_streaming(mock_client(), history, chunks)
            assert len(state.lineage) == chunks
            assert state.consumed_until == 12
            assert state.lineage[-1] == state.current.summary_id

    def test_chunk_count_must_fit_history(self):
        history = make_history(3)
        with pytest.raises(ValidationError, match="a history of 3 steps cannot be split into 4 chunks"):
            infer_streaming(mock_client(), history, 4)
        with pytest.raises(ValidationError):
            infer_streaming(mock_client(), history, 0)

    def test_manual_fold_frontier_is_monotone(self):
        # random contiguous partitions, not just even ones
        rng = random.Random(99)
        client = mock_client()
        for trial in range(100):
            n = rng.randint(1, 12)
            history = make_history(n, user_id=f"u{trial}")
            cuts = sorted(rng.sample(range(1, n), min(rng.randint(0, 3), n - 1))) + [n]
            state = None
            prev = 0
            for end in cuts:
                state = update(client, state, HistorySegment(history, prev, end))
                assert state.consumed_until == end
                assert state.current.covers == (prev, end)
                prev = end
            assert state.consumed_until == n
            assert len(state.lineage) == len(cuts)

    def test_parent_chain_matches_lineage(self):
        history = make_history(9)
        client, calls = counting_client()
        mid1, mid2 = even_ends(9, 3)[:2]
        s1 = update(client, None, HistorySegment(history, 0, mid1))
        s2 = update(client, s1, HistorySegment(history, mid1, mid2))
        s3 = update(client, s2, HistorySegment(history, mid2, 9))
        assert s3.lineage == (s1.current.summary_id, s2.current.summary_id, s3.current.summary_id)
        assert s3.current.parent_id == s2.current.summary_id
        assert s2.current.parent_id == s1.current.summary_id


class TestStateStore:
    def test_round_trip(self, tmp_path):
        states = [
            infer_streaming(mock_client(), make_history(6, "u1"), 2),
            infer_full(mock_client(), make_history(4, "u2")),
        ]
        path = str(tmp_path / "states.jsonl")
        assert write_jsonl(path, (s.to_dict() for s in states)) == 2
        loaded = load_states(path)
        assert set(loaded) == {"u1", "u2"}
        for s in states:
            assert json_dumps(loaded[s.user_id].to_dict()) == json_dumps(s.to_dict())

    def test_duplicate_user_rejected(self, tmp_path):
        state = infer_full(mock_client(), make_history(3, "u1"))
        path = str(tmp_path / "states.jsonl")
        write_jsonl(path, [state.to_dict(), state.to_dict()])
        with pytest.raises(ValidationError, match=f"^{path}:2: duplicate record for user 'u1'$"):
            load_states(path)

    @pytest.mark.parametrize(
        "change, message",
        [
            ({"frontier": "2"}, "frontier: must be int, got '2'"),
            ({"lineage": "abc"}, "lineage: must be tuple"),
            ({"frontier": 2}, "frontier 2 disagrees with summary coverage"),
        ],
    )
    def test_bad_state_line_names_path_line_and_field(self, tmp_path, change, message):
        state = infer_full(mock_client(), make_history(3, "u1"))
        path = tmp_path / "states.jsonl"
        path.write_text(json_dumps(state.to_dict()) + "\n" + json_dumps({**state.to_dict(), **change}) + "\n")
        with pytest.raises(ValidationError, match=f"^{path}:2: {message}"):
            load_states(str(path))

    def test_state_invariants_enforced(self):
        state = infer_full(mock_client(), make_history(3))
        with pytest.raises(ValidationError):
            StreamState(
                user_id="u1", current=state.current, consumed_until=99, lineage=state.lineage
            )
        with pytest.raises(ValidationError):
            StreamState(
                user_id="u1", current=state.current, consumed_until=3, lineage=("bogus",)
            )
        with pytest.raises(ValidationError):
            decode(StreamState, {"user_id": "u1"})


@settings(max_examples=40, deadline=None)
@given(
    st.lists(
        st.tuples(st.text(alphabet="abcxyz", min_size=1, max_size=6), st.none() | st.text(alphabet="qrs ", max_size=6)),
        min_size=1,
        max_size=9,
    ),
    st.integers(0, 3),
)
def test_update_fold_equals_streaming_at_every_chunk_count(items, seed):
    history = UserHistory(
        user_id="u1",
        triples=tuple(
            InteractionTriple(index=2 * i, chosen=chosen, rejected=f"{chosen}-neg", context=context)
            for i, (chosen, context) in enumerate(items)
        ),
    )
    for chunks in range(1, len(history) + 1):
        state, start = None, 0
        for end in even_ends(len(history), chunks):
            # each step resumes from a stored state, as a restarted stream would
            stored = decode(StreamState, json.loads(json_dumps(state.to_dict()))) if state else None
            state = update(mock_client(seed), stored, HistorySegment(history, start, end))
            start = end
        streamed = infer_streaming(mock_client(seed), history, chunks)
        assert json_dumps(state.to_dict()) == json_dumps(streamed.to_dict())
