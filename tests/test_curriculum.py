import heapq
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from prefpipe._util import write_jsonl
from prefpipe.curriculum import (
    PRESET_CONFIGS,
    PruneConfig,
    RlInstance,
    SampleScore,
    build_rl_instances,
    load_instances,
    load_scores,
    pick_rl_instance,
    prune,
    save_instances,
    score_sample,
)
from prefpipe.errors import ValidationError


def sample(user_id, index, s_tract, s_learn=0.0):
    return SampleScore(user_id=user_id, index=index, s_tract=s_tract, s_learn=s_learn)


def random_scores(rng, n_users=50, n_points=40):
    # probabilities on a coarse grid so ties are common and tie-breaks matter
    grid = [i / 20 for i in range(1, 21)]
    scores = []
    for u in range(n_users):
        for i in range(n_points):
            s_tract, s_learn = score_sample(rng.choice(grid), rng.choice(grid))
            scores.append(SampleScore(f"u{u:03d}", i, s_tract, s_learn))
    return scores


def oracle_prune(scores, cfg):
    """Reference filter built on heapq selection instead of slice-of-sort."""
    survivors = heapq.nsmallest(
        math.ceil(cfg.alpha * len(scores)), scores, key=lambda s: (-s.s_learn, s.user_id, s.index)
    )
    survivors = [s for s in survivors if cfg.tract_low <= s.s_tract <= cfg.tract_high]
    if cfg.tail_fraction < 1.0:
        m = math.ceil(cfg.tail_fraction * len(survivors))
        if cfg.tail_side == "easiest":
            key = lambda s: (-s.s_tract, s.user_id, s.index)
        else:
            key = lambda s: (s.s_tract, s.user_id, s.index)
        survivors = heapq.nsmallest(m, survivors, key=key)
    return sorted(survivors, key=lambda s: (s.user_id, s.index))


class TestScoreSample:
    def test_hand_values(self):
        s_tract, s_learn = score_sample(0.9, 0.45)
        assert s_tract == 0.9
        assert s_learn == math.log(2.0)

    def test_equal_models_have_zero_headroom(self):
        assert score_sample(0.7, 0.7) == (0.7, 0.0)

    def test_weak_model_ahead_is_negative(self):
        assert score_sample(0.4, 0.8)[1] < 0.0

    def test_domain(self):
        with pytest.raises(ValidationError):
            score_sample(0.0, 0.5)
        with pytest.raises(ValidationError):
            score_sample(0.5, 0.0)
        with pytest.raises(ValidationError):
            score_sample(1.1, 0.5)
        with pytest.raises(ValidationError):
            score_sample(0.5, -0.2)
        score_sample(1.0, 1.0)  # closed at the top


class TestLoadScores:
    def write(self, tmp_path, records):
        path = str(tmp_path / "scores.jsonl")
        write_jsonl(path, records)
        return path

    def test_round_trip(self, tmp_path):
        path = self.write(
            tmp_path,
            [
                {"user_id": "u1", "index": 0, "strong_p": 0.9, "weak_p": 0.45},
                {"user_id": "u1", "index": 3, "strong_p": 0.5, "weak_p": 0.5},
            ],
        )
        scores = load_scores(path)
        assert scores[0] == SampleScore("u1", 0, 0.9, math.log(2.0))
        assert scores[1] == SampleScore("u1", 3, 0.5, 0.0)

    def test_zero_probabilities_are_floored(self, tmp_path):
        path = self.write(tmp_path, [{"user_id": "u1", "index": 0, "strong_p": 0.0, "weak_p": 0.0}])
        (score,) = load_scores(path)
        assert score.s_tract == 1e-6
        assert score.s_learn == 0.0

    def test_duplicate_point_rejected(self, tmp_path):
        rec = {"user_id": "u1", "index": 0, "strong_p": 0.5, "weak_p": 0.5}
        path = self.write(tmp_path, [rec, rec])
        with pytest.raises(ValidationError, match="duplicate"):
            load_scores(path)

    def test_malformed_record_rejected(self, tmp_path):
        path = self.write(tmp_path, [{"user_id": "u1", "index": 0, "strong_p": 0.5}])
        with pytest.raises(ValidationError):
            load_scores(path)


class TestPrune:
    def test_identity_config_keeps_everything(self):
        scores = random_scores(random.Random(1), n_users=5, n_points=8)
        kept = prune(scores, PruneConfig(alpha=1.0, tract_low=0.0, tract_high=1.0))
        assert kept == sorted(scores, key=lambda s: (s.user_id, s.index))

    def test_band_is_closed_on_both_ends(self):
        scores = [sample("u1", i, p) for i, p in enumerate([0.4, 0.5, 0.7, 0.9, 0.95])]
        kept = prune(scores, PruneConfig(alpha=1.0, tract_low=0.5, tract_high=0.9))
        assert [s.s_tract for s in kept] == [0.5, 0.7, 0.9]

    def test_learnability_step_keeps_top_ceil(self):
        # 5 points, alpha 0.5 -> ceil(2.5) = 3 highest s_learn
        scores = [sample("u1", i, 0.5, s_learn=l) for i, l in enumerate([0.1, 0.9, 0.3, 0.7, 0.5])]
        kept = prune(scores, PruneConfig(alpha=0.5, tract_low=0.0, tract_high=1.0))
        assert [s.index for s in kept] == [1, 3, 4]

    def test_learnability_ties_prefer_earlier_points(self):
        scores = [sample("u1", i, 0.5, s_learn=0.4) for i in range(4)]
        kept = prune(scores, PruneConfig(alpha=0.5, tract_low=0.0, tract_high=1.0))
        assert [s.index for s in kept] == [0, 1]

    def test_tail_sides(self):
        scores = [sample("u1", i, p) for i, p in enumerate([0.55, 0.6, 0.7, 0.8])]
        cfg = dict(alpha=1.0, tract_low=0.0, tract_high=1.0, tail_fraction=0.5)
        hardest = prune(scores, PruneConfig(**cfg, tail_side="hardest"))
        easiest = prune(scores, PruneConfig(**cfg, tail_side="easiest"))
        assert [s.s_tract for s in hardest] == [0.55, 0.6]
        assert [s.s_tract for s in easiest] == [0.7, 0.8]

    def test_matches_reference_filter(self):
        rng = random.Random(17)
        scores = random_scores(rng)
        for cfg in (
            PruneConfig(alpha=0.4, tract_low=0.50, tract_high=0.90),
            PruneConfig(alpha=0.1, tract_low=0.99, tract_high=1.00),
            PruneConfig(alpha=0.35, tract_low=0.3, tract_high=0.8, tail_fraction=0.25),
            PruneConfig(alpha=0.35, tract_low=0.3, tract_high=0.8, tail_fraction=0.25, tail_side="easiest"),
        ):
            assert prune(scores, cfg) == oracle_prune(scores, cfg)

    def test_input_order_never_matters(self):
        rng = random.Random(23)
        scores = random_scores(rng, n_users=10, n_points=10)
        cfg = PruneConfig(alpha=0.3, tract_low=0.2, tract_high=0.9, tail_fraction=0.5)
        baseline = prune(scores, cfg)
        for _ in range(5):
            shuffled = scores[:]
            rng.shuffle(shuffled)
            assert prune(shuffled, cfg) == baseline

    def test_empty_input(self):
        assert prune([], PruneConfig(alpha=0.5, tract_low=0.0, tract_high=1.0)) == []

    def test_presets(self):
        assert PRESET_CONFIGS["amazon"] == PruneConfig(alpha=0.4, tract_low=0.50, tract_high=0.90)
        assert PRESET_CONFIGS["mind"] == PruneConfig(alpha=0.1, tract_low=0.99, tract_high=1.00)
        assert PRESET_CONFIGS["alignx"] == PruneConfig(alpha=0.1, tract_low=0.98, tract_high=1.00)

    def test_config_validation(self):
        with pytest.raises(ValidationError):
            PruneConfig(alpha=0.0, tract_low=0.0, tract_high=1.0)
        with pytest.raises(ValidationError):
            PruneConfig(alpha=0.5, tract_low=0.9, tract_high=0.5)
        with pytest.raises(ValidationError):
            PruneConfig(alpha=0.5, tract_low=0.0, tract_high=1.0, tail_fraction=0.0)
        with pytest.raises(ValidationError):
            PruneConfig(alpha=0.5, tract_low=0.0, tract_high=1.0, tail_side="middle")


class TestPickRlInstance:
    def test_two_hardest_points_ordered_by_position(self):
        scores = [sample("u1", 12, 0.6), sample("u1", 4, 0.7), sample("u1", 20, 0.9)]
        inst = pick_rl_instance(scores)
        assert (inst.k1, inst.k2) == (4, 12)

    def test_tract_ties_prefer_earlier_index(self):
        scores = [sample("u1", 7, 0.6), sample("u1", 3, 0.6), sample("u1", 1, 0.9)]
        inst = pick_rl_instance(scores)
        assert (inst.k1, inst.k2) == (3, 7)

    def test_single_point_users_are_skipped(self):
        assert pick_rl_instance([sample("u1", 4, 0.5)]) is None
        assert pick_rl_instance([]) is None

    def test_mixed_users_rejected(self):
        with pytest.raises(ValidationError):
            pick_rl_instance([sample("u1", 0, 0.5), sample("u2", 1, 0.5)])


class TestBuildRlInstances:
    def test_one_instance_per_eligible_user_in_order(self):
        pruned = [
            sample("ub", 5, 0.4),
            sample("ub", 2, 0.6),
            sample("ua", 9, 0.7),
            sample("ua", 1, 0.8),
            sample("uc", 3, 0.5),  # one point only: not eligible
        ]
        instances = build_rl_instances(pruned)
        assert [(i.user_id, i.k1, i.k2) for i in instances] == [("ua", 1, 9), ("ub", 2, 5)]

    def test_empty(self):
        assert build_rl_instances([]) == []


class TestRlInstance:
    def test_ordering_validation(self):
        with pytest.raises(ValidationError):
            RlInstance(user_id="u1", k1=5, k2=5)
        with pytest.raises(ValidationError):
            RlInstance(user_id="u1", k1=7, k2=3)
        with pytest.raises(ValidationError):
            RlInstance(user_id="u1", k1=-1, k2=3)

    def test_store_round_trip(self, tmp_path):
        instances = [RlInstance("u1", 2, 6), RlInstance("u2", 0, 11)]
        path = str(tmp_path / "instances.jsonl")
        assert save_instances(path, instances) == 2
        assert load_instances(path) == instances


_TRACT_LEVELS = [0.0, 0.25, 0.5, 0.75, 1.0]  # the interval's ends are drawn from these too


@st.composite
def scored_points(draw):
    keys = draw(st.lists(st.tuples(st.sampled_from(["u1", "u2", "u3"]), st.integers(0, 20)), min_size=1, max_size=25, unique=True))
    # distinct learnabilities, so "the top ceil(alpha * N)" is one set whatever the tie-break
    learns = draw(st.lists(st.floats(-5, 5), min_size=len(keys), max_size=len(keys), unique=True))
    return [sample(u, i, draw(st.sampled_from(_TRACT_LEVELS)), learn) for (u, i), learn in zip(keys, learns)]


@settings(max_examples=200, deadline=None)
@given(
    scored_points(),
    st.floats(0.01, 1.0),
    st.sampled_from(_TRACT_LEVELS),
    st.sampled_from(_TRACT_LEVELS),
    st.just(1.0) | st.floats(0.01, 1.0),
    st.sampled_from(["hardest", "easiest"]),
    st.randoms(use_true_random=False),
)
def test_prune_follows_its_documented_order(scores, alpha, a, b, tail_fraction, tail_side, rng):
    config = PruneConfig(alpha, min(a, b), max(a, b), tail_fraction, tail_side)
    kept = prune(scores, config)
    shuffled = list(scores)
    rng.shuffle(shuffled)
    assert prune(shuffled, config) == kept
    assert kept == sorted(kept, key=lambda s: (s.user_id, s.index))
    top = sorted(scores, key=lambda s: -s.s_learn)[: math.ceil(alpha * len(scores))]
    band = {s for s in top if config.tract_low <= s.s_tract <= config.tract_high}
    assert set(kept) <= band
    assert len(kept) == math.ceil(tail_fraction * len(band))
    # the tail keeps the lowest (hardest) or highest (easiest) tractability, ties to (user_id, index)
    sign = 1 if tail_side == "hardest" else -1
    rank = lambda s: (sign * s.s_tract, s.user_id, s.index)  # noqa: E731
    assert all(rank(k) < rank(d) for k in kept for d in band - set(kept))
