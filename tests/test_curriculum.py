import heapq
import math
import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from prefpipe._util import read_records, write_jsonl
from prefpipe.curriculum import (
    PRESET_CONFIGS,
    PROB_FLOOR,
    PruneConfig,
    RlInstance,
    ScoreRecord,
    build_rl_instances,
    load_scores,
    pick_rl_instance,
    prune,
)
from prefpipe.errors import ValidationError


def sample(user_id, index, s_tract, s_learn=0.0):
    """The point whose tractability is ``s_tract`` and whose learnability is
    ``s_learn`` (to rounding), for ``s_tract * exp(-s_learn) <= 1``."""
    return ScoreRecord(user_id, index, strong_p=s_tract, weak_p=s_tract / math.exp(s_learn))


def random_scores(rng, n_users=50, n_points=40):
    # probabilities on a coarse grid so ties are common and tie-breaks matter
    grid = [i / 20 for i in range(1, 21)]
    scores = []
    for u in range(n_users):
        for i in range(n_points):
            scores.append(ScoreRecord(f"u{u:03d}", i, rng.choice(grid), rng.choice(grid)))
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


class TestScoreRecord:
    def test_hand_values(self):
        score = ScoreRecord("u1", 0, 0.9, 0.45)
        assert score.s_tract == 0.9
        assert score.s_learn == math.log(2.0)

    def test_equal_models_have_zero_headroom(self):
        score = ScoreRecord("u1", 0, 0.7, 0.7)
        assert (score.s_tract, score.s_learn) == (0.7, 0.0)

    def test_weak_model_ahead_is_negative(self):
        assert ScoreRecord("u1", 0, 0.4, 0.8).s_learn < 0.0

    def test_an_exact_zero_is_floored(self):
        assert ScoreRecord("u1", 0, 0.0, 0.5).s_tract == PROB_FLOOR
        assert ScoreRecord("u1", 0, 0.5, 0.0).s_learn == math.log(0.5 / PROB_FLOOR)

    @pytest.mark.parametrize(
        "strong_p, weak_p, message",
        [
            (1.1, 0.5, "strong_p must be in [0, 1], got 1.1"),
            (0.5, -0.2, "weak_p must be in [0, 1], got -0.2"),
            (math.nan, 0.5, "strong_p must be in [0, 1], got nan"),
            (0.5, math.inf, "weak_p must be in [0, 1], got inf"),
            (-math.inf, 0.5, "strong_p must be in [0, 1], got -inf"),
        ],
    )
    def test_domain(self, strong_p, weak_p, message):
        with pytest.raises(ValidationError) as info:
            ScoreRecord("u1", 0, strong_p, weak_p)
        assert str(info.value) == message

    def test_closed_at_both_ends(self):
        ScoreRecord("u1", 0, 1.0, 1.0)
        ScoreRecord("u1", 0, 0.0, 0.0)


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
        assert scores == [ScoreRecord("u1", 0, 0.9, 0.45), ScoreRecord("u1", 3, 0.5, 0.5)]
        assert [(s.s_tract, s.s_learn) for s in scores] == [(0.9, math.log(2.0)), (0.5, 0.0)]

    def test_zero_probabilities_are_floored(self, tmp_path):
        path = self.write(tmp_path, [{"user_id": "u1", "index": 0, "strong_p": 0.0, "weak_p": 0.0}])
        (score,) = load_scores(path)
        assert score.s_tract == 1e-6
        assert score.s_learn == 0.0

    def test_duplicate_point_rejected(self, tmp_path):
        rec = {"user_id": "u1", "index": 0, "strong_p": 0.5, "weak_p": 0.5}
        path = self.write(tmp_path, [rec, rec])
        with pytest.raises(ValidationError) as info:
            load_scores(path)
        assert str(info.value) == f"{path}:2: duplicate score for ('u1', 0)"

    def test_malformed_record_rejected(self, tmp_path):
        path = self.write(tmp_path, [{"user_id": "u1", "index": 0, "strong_p": 0.5}])
        with pytest.raises(ValidationError):
            load_scores(path)

    @pytest.mark.parametrize("field, value", [("strong_p", 1.5), ("weak_p", -0.2)])
    def test_probability_out_of_range_names_its_line(self, tmp_path, field, value):
        good = {"user_id": "u1", "index": 0, "strong_p": 0.9, "weak_p": 0.5}
        path = self.write(tmp_path, [good, {**good, "index": 1, field: value}])
        with pytest.raises(ValidationError) as info:
            load_scores(path)
        assert str(info.value) == f"{path}:2: {field} must be in [0, 1], got {value}"


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
        assert write_jsonl(path, (inst.to_dict() for inst in instances)) == 2
        assert list(read_records(path, RlInstance)) == instances


_TRACT_LEVELS = [0.0, 0.25, 0.5, 0.75, 1.0]  # the interval's ends are drawn from these too


@st.composite
def scored_points(draw):
    keys = draw(st.lists(st.tuples(st.sampled_from(["u1", "u2", "u3"]), st.integers(0, 20)), min_size=1, max_size=25, unique=True))
    weaks = draw(st.lists(st.floats(0.001, 1.0), min_size=len(keys), max_size=len(keys), unique=True))
    scores = [ScoreRecord(u, i, draw(st.sampled_from(_TRACT_LEVELS)), weak) for (u, i), weak in zip(keys, weaks)]
    # distinct learnabilities, so "the top ceil(alpha * N)" is one set whatever the tie-break
    assume(len({s.s_learn for s in scores}) == len(scores))
    return scores


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
