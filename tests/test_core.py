import random
import sys
import threading
from collections import Counter

import pytest
from hypothesis import given
from hypothesis import strategies as st

from prefpipe._util import decode, even_boundaries, write_jsonl
from prefpipe.core import (
    HistoryIndex,
    HistorySegment,
    InteractionTriple,
    PreferenceSummary,
    UserHistory,
    load_histories,
    load_summaries,
    segment,
    strip_negatives,
    summary_record,
)
from prefpipe.errors import ValidationError


def make_history(n=6, user_id="u1", with_rejected=True):
    triples = tuple(
        InteractionTriple(
            index=i,
            chosen=f"item-{i}-pos",
            rejected=f"item-{i}-neg" if with_rejected else None,
            context=f"query {i}" if i % 2 == 0 else None,
        )
        for i in range(n)
    )
    return UserHistory(user_id=user_id, triples=triples, dataset_tag="test")


class TestInteractionTriple:
    def test_rejects_negative_index(self):
        with pytest.raises(ValidationError):
            InteractionTriple(index=-1, chosen="a")

    def test_rejects_empty_chosen(self):
        with pytest.raises(ValidationError):
            InteractionTriple(index=0, chosen="")

    def test_rejects_chosen_equal_rejected(self):
        with pytest.raises(ValidationError):
            InteractionTriple(index=0, chosen="same", rejected="same")

    def test_from_dict_missing_field(self):
        with pytest.raises(ValidationError, match="missing field 'chosen'"):
            decode(InteractionTriple, {"index": 0})


class TestUserHistory:
    def test_requires_increasing_indices(self):
        t0 = InteractionTriple(index=1, chosen="a")
        t1 = InteractionTriple(index=1, chosen="b")
        with pytest.raises(ValidationError):
            UserHistory(user_id="u", triples=(t0, t1))

    def test_requires_user_id(self):
        with pytest.raises(ValidationError):
            UserHistory(user_id="", triples=())

    def test_len_and_position_lookup(self):
        triples = (InteractionTriple(index=2, chosen="a"), InteractionTriple(index=7, chosen="b"))
        h = UserHistory(user_id="u", triples=triples)
        assert len(h) == 2
        assert h.position_of_index(7) == 1
        with pytest.raises(ValidationError):
            h.position_of_index(3)


class TestHistorySegment:
    def test_bounds_checked(self):
        h = make_history(4)
        for start, end in ((0, 0), (2, 1), (-1, 2), (0, 5)):
            with pytest.raises(ValidationError):
                HistorySegment(h, start, end)

    def test_slices_positions(self):
        h = make_history(5)
        seg = HistorySegment(h, 1, 4)
        assert len(seg) == 3
        assert seg.triples == h.triples[1:4]


class TestPreferenceSummary:
    def test_token_count_auto(self):
        s = PreferenceSummary(text="three word summary", covers=(0, 2))
        assert s.token_count == 3

    def test_rejects_empty_text(self):
        with pytest.raises(ValidationError):
            PreferenceSummary(text="", covers=(0, 1))

    def test_rejects_bad_covers(self):
        with pytest.raises(ValidationError):
            PreferenceSummary(text="x", covers=(2, 2))

    def test_id_is_content_hash(self):
        a = PreferenceSummary(text="likes jazz", covers=(0, 3), reasoning="r")
        b = PreferenceSummary(text="likes jazz", covers=(0, 3), reasoning="r")
        assert a.summary_id == b.summary_id
        c = PreferenceSummary(text="likes jazz", covers=(0, 3), reasoning="other")
        assert c.summary_id != a.summary_id
        d = PreferenceSummary(text="likes jazz", covers=(0, 3), reasoning="r", parent_id=a.summary_id)
        assert d.summary_id != a.summary_id


class TestSegmentation:
    def test_single_boundary_is_identity_partition(self):
        h = make_history(6)
        segs = segment(h, [6])
        assert len(segs) == 1
        assert (segs[0].start, segs[0].end) == (0, 6)
        assert segs[0].triples == h.triples

    def test_concat_reconstructs_original(self):
        # round-trip over seeded random boundary choices
        h = make_history(20)
        rng = random.Random(99)
        for _ in range(100):
            k = rng.randint(1, 6)
            cuts = sorted(rng.sample(range(1, 20), k - 1)) + [20]
            segs = segment(h, cuts)
            flattened = tuple(t for s in segs for t in s.triples)
            assert flattened == h.triples

    def test_rejects_bad_boundaries(self):
        h = make_history(4)
        for cuts in ([], [0], [2, 2], [3, 1], [5]):
            with pytest.raises(ValidationError):
                segment(h, cuts)


@given(st.integers(min_value=1, max_value=60).flatmap(lambda n: st.tuples(st.just(n), st.integers(1, n))))
def test_even_segments_tile_the_history(n_k):
    n, k = n_k
    h = make_history(n)
    segs = segment(h, even_boundaries(n, k))
    assert len(segs) == k
    assert [s.start for s in segs] == [0] + [s.end for s in segs[:-1]]
    assert segs[-1].end == n
    assert [len(s) for s in segs] == [n // k] * (k - 1) + [n // k + n % k]


class TestStripNegatives:
    def test_removes_every_rejected(self):
        h = make_history(5)
        stripped = strip_negatives(h)
        assert all(t.rejected is None for t in stripped.triples)
        assert [t.index for t in stripped.triples] == [t.index for t in h.triples]
        assert [t.context for t in stripped.triples] == [t.context for t in h.triples]

    def test_idempotent(self):
        h = strip_negatives(make_history(5))
        assert strip_negatives(h) == h

    def test_chosen_multiset_preserved(self):
        h = make_history(8)
        before = Counter(t.chosen for t in h.triples)
        after = Counter(t.chosen for t in strip_negatives(h).triples)
        assert before == after


def test_history_store_round_trip(tmp_path):
    path = str(tmp_path / "h.jsonl")
    histories = [make_history(3, "a"), make_history(5, "b", with_rejected=False)]
    assert write_jsonl(path, (h.to_dict() for h in histories)) == 2
    assert load_histories(path) == histories


def test_history_store_rejects_garbage(tmp_path):
    path = str(tmp_path / "h.jsonl")
    with open(path, "w") as fh:
        fh.write("{broken\n")
    with pytest.raises(ValidationError):
        load_histories(path)


def test_history_index_reads_each_user_back_from_its_line(tmp_path):
    path = str(tmp_path / "h.jsonl")
    histories = [make_history(3, "a"), make_history(5, "b", with_rejected=False), make_history(1, "c")]
    write_jsonl(path, (h.to_dict() for h in histories))
    # a blank line holds no user, but its byte counts in every offset after it
    (tmp_path / "h.jsonl").write_text("\n" + (tmp_path / "h.jsonl").read_text())
    with HistoryIndex(path) as index:
        assert sorted(index) == ["a", "b", "c"] and len(index) == 3
        assert [index["c"], index.get("a"), index.get("b")] == [histories[2], histories[0], histories[1]]
        assert index.get("nobody") is None


def test_history_index_is_shared_safely_by_threads(tmp_path):
    """More threads than cores, switching as often as the interpreter allows:
    each lookup still gets its own user's line whole."""
    path = str(tmp_path / "h.jsonl")
    histories = {f"u{i}": make_history(1 + i % 7, f"u{i}") for i in range(40)}
    write_jsonl(path, (h.to_dict() for h in histories.values()))
    wrong, interval = [], sys.getswitchinterval()

    def lookups(seed):
        rng = random.Random(seed)
        for _ in range(300):
            user = rng.choice(list(histories))
            try:
                got = index[user]
            except ValidationError as exc:  # a line read from the middle
                got = exc
            if got != histories[user]:
                wrong.append(user)

    sys.setswitchinterval(1e-6)
    try:
        with HistoryIndex(path) as index:
            threads = [threading.Thread(target=lookups, args=(seed,)) for seed in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert wrong == []


def test_summary_store_round_trip(tmp_path):
    path = str(tmp_path / "s.jsonl")
    summaries = {
        "a": PreferenceSummary(text="likes jazz", covers=(0, 4)),
        "b": PreferenceSummary(text="likes rock", covers=(0, 2), reasoning="why"),
    }
    assert write_jsonl(path, (summary_record(uid, s) for uid, s in summaries.items())) == 2
    assert load_summaries(path) == summaries


def test_summary_store_requires_user_id(tmp_path):
    path = str(tmp_path / "s.jsonl")
    with open(path, "w") as fh:
        fh.write('{"text": "x", "covers": [0, 1]}\n')
    with pytest.raises(ValidationError):
        load_summaries(path)


def test_summary_store_rejects_duplicate_user(tmp_path):
    path = str(tmp_path / "s.jsonl")
    with open(path, "w") as fh:
        fh.write('{"user_id": "a", "text": "x", "covers": [0, 1]}\n')
        fh.write('{"user_id": "a", "text": "y", "covers": [0, 2]}\n')
    with pytest.raises(ValidationError, match=r"s\.jsonl.*'a'"):
        load_summaries(path)
