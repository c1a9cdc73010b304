import dataclasses
import logging
import math
import threading
import time

import numpy as np
import pytest

from prefpipe._util import Tally, json_dumps
from prefpipe.core import HistorySegment, InteractionTriple, PreferenceSummary, UserHistory
from prefpipe.curriculum import RlInstance, load_instances
from prefpipe.errors import ContractError, ValidationError
from prefpipe.modelio import ModelClient, ModelEndpoint, ScriptBackend
from prefpipe.prompts import render_judge_prompt
from prefpipe.rlengine import (
    RolloutConfig,
    TrainingRecord,
    advantages,
    cumulative_rewards,
    export_batch,
    immediate_reward,
    load_batch,
    rollout,
    run_rollouts,
    save_batch,
    surrogate_loss,
)
from prefpipe.simlab import (
    ScriptedGeneratorBackend,
    ScriptedJudgeBackend,
    gen_population,
    render_estimate,
    render_item,
)
from prefpipe.streamer import StreamState, update

LN2 = math.log(2.0)


def client_for(backend, **kw):
    return ModelClient(ModelEndpoint(base_url="mock:generator", **kw), backend=backend, sleep=lambda s: None)


def make_record(advantage, old=(0.0,), stage="initial"):
    return TrainingRecord(
        user_id="u1",
        group_id=f"u1:1-2:{stage}",
        stage=stage,
        prompt="p",
        response="r",
        old_token_logprobs=tuple(old),
        advantage=advantage,
        reward=0.5,
    )


class TestRolloutConfig:
    def test_gamma_bounds(self):
        RolloutConfig(gamma=0.0)
        RolloutConfig(gamma=1.0)
        with pytest.raises(ValidationError):
            RolloutConfig(gamma=-0.1)
        with pytest.raises(ValidationError):
            RolloutConfig(gamma=1.1)

    def test_other_fields(self):
        with pytest.raises(ValidationError):
            RolloutConfig(gamma=0.5, group_size=0)
        with pytest.raises(ValidationError):
            RolloutConfig(gamma=0.5, future_credit="none")


class TestCumulativeRewards:
    def test_hand_case(self):
        cum_init, cum_upd = cumulative_rewards([0.6, 0.3], [0.8, 0.4], selected_index=0, gamma=0.5)
        assert cum_init[0] == pytest.approx(0.9, abs=1e-12)  # 0.6 + 0.5 * mean(0.8, 0.4)
        assert cum_init[1] == 0.3  # unselected: no future credit
        assert cum_upd == [0.8, 0.4]

    def test_zero_gamma_is_identity(self):
        init, upd = [0.61, 0.27, 0.94], [0.5, 0.1]
        cum_init, cum_upd = cumulative_rewards(init, upd, selected_index=2, gamma=0.0)
        assert cum_init == init
        assert cum_upd == upd

    def test_future_credit_all(self):
        cum_init, _ = cumulative_rewards([0.6, 0.3], [0.8, 0.4], selected_index=0, gamma=0.5, future_credit="all")
        assert cum_init[0] == pytest.approx(0.9, abs=1e-12)
        assert cum_init[1] == pytest.approx(0.6, abs=1e-12)

    def test_full_gamma_passes_mean_through(self):
        cum_init, _ = cumulative_rewards([0.0], [1.0, 0.0, 0.5], selected_index=0, gamma=1.0)
        assert cum_init[0] == 0.5

    def test_errors(self):
        with pytest.raises(ContractError):
            cumulative_rewards([], [0.5], selected_index=0, gamma=0.5)
        with pytest.raises(ContractError):
            cumulative_rewards([0.5], [], selected_index=0, gamma=0.5)
        with pytest.raises(ContractError):
            cumulative_rewards([0.5], [0.5], selected_index=1, gamma=0.5)
        with pytest.raises(ValidationError):
            cumulative_rewards([0.5], [0.5], selected_index=0, gamma=1.5)
        with pytest.raises(ValidationError):
            cumulative_rewards([0.5], [0.5], selected_index=0, gamma=0.5, future_credit="some")


class TestAdvantages:
    def test_binary_rewards_map_to_unit_advantages_exactly(self):
        assert advantages([0.0, 1.0]).tolist() == [-1.0, 1.0]
        assert advantages([1.0, 0.0, 1.0, 0.0]).tolist() == [1.0, -1.0, 1.0, -1.0]

    def test_degenerate_sets_are_zeroed(self):
        assert advantages([0.7, 0.7, 0.7]).tolist() == [0.0, 0.0, 0.0]
        assert advantages([0.9]).tolist() == [0.0]
        assert advantages([0.5, 0.5 + 1e-12]).tolist() == [0.0, 0.0]

    def test_normalization_contract(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            rewards = rng.uniform(0.0, 1.0, size=rng.integers(2, 9))
            if rewards.std() <= 1e-8:
                continue
            adv = advantages(rewards)
            assert abs(adv.mean()) < 1e-9
            assert abs(adv.std() - 1.0) < 1e-9

    def test_shift_invariance(self):
        rewards = [0.2, 0.9, 0.4, 0.6]
        shifted = [r + 17.3 for r in rewards]
        assert np.allclose(advantages(rewards), advantages(shifted), atol=1e-9)

    def test_errors(self):
        with pytest.raises(ContractError):
            advantages([])
        with pytest.raises(ContractError):
            advantages([[0.5, 0.5]])


# ---------------------------------------------------------------------------
# Rollouts against the scripted lab
# ---------------------------------------------------------------------------


class CallLog:
    """Wraps a backend and appends one entry per call to a shared log: the
    sample's stage and index for a generation, the prompt for a judgment."""

    def __init__(self, backend, kind, log):
        self.backend = backend
        self.kind = kind
        self.log = log

    def complete(self, prompt, **kwargs):
        self.log.append((self.kind, kwargs["meta"]["stage"], kwargs["meta"]["sample"]))
        return self.backend.complete(prompt, **kwargs)

    def choice_logprobs(self, prompt, labels, **kwargs):
        self.log.append((self.kind, prompt))
        return self.backend.choice_logprobs(prompt, labels, **kwargs)


class PromptLog:
    """Wraps a generator backend and records each prompt it is sent."""

    def __init__(self, backend):
        self.backend = backend
        self.prompts = []

    def complete(self, prompt, **kwargs):
        self.prompts.append(prompt)
        return self.backend.complete(prompt, **kwargs)


class LabSetup:
    def setup_method(self):
        self.histories, self.truth = gen_population(seed=81, n_users=3, history_len=12)
        self.history = self.histories[0]
        self.hmap = {h.user_id: h for h in self.histories}
        self.instance = RlInstance(user_id=self.history.user_id, k1=4, k2=9)

    def policy(self, quality=1.0, seed=2, **kw):
        return client_for(ScriptedGeneratorBackend(seed=seed, quality=quality, truth=self.truth, **kw))

    def judge(self):
        return client_for(ScriptedJudgeBackend(kappa=8.0))


class TestRollout(LabSetup):
    def test_tree_structure(self):
        config = RolloutConfig(gamma=0.5, group_size=3, seed=7)
        tree = rollout(self.policy(), self.judge(), self.instance, self.history, config)
        assert len(tree.initial) == 3
        assert len(tree.updated) == 3
        assert 0 <= tree.selected_index < 3
        assert [rs.sample_index for rs in tree.initial] == [0, 1, 2]
        assert all(rs.stage == "initial" for rs in tree.initial)
        assert all(rs.stage == "updated" for rs in tree.updated)
        assert (tree.user_id, tree.k1, tree.k2) == (self.instance.user_id, self.instance.k1, self.instance.k2)

    def test_coverage_and_lineage(self):
        config = RolloutConfig(gamma=0.5, group_size=2, seed=7)
        tree = rollout(self.policy(), self.judge(), self.instance, self.history, config)
        selected = tree.initial[tree.selected_index]
        assert all(rs.summary.covers == (0, 4) for rs in tree.initial)
        assert all(rs.summary.covers == (4, 9) for rs in tree.updated)
        assert all(rs.summary.parent_id == selected.summary.summary_id for rs in tree.updated)
        assert all(rs.summary.parent_id is None for rs in tree.initial)

    def test_prompts_expose_only_their_stage_slice(self):
        config = RolloutConfig(gamma=0.5, group_size=2, seed=7)
        tree = rollout(self.policy(), self.judge(), self.instance, self.history, config)
        uid = self.history.user_id
        initial_prompt = tree.initial[0].prompt
        update_prompt = tree.updated[0].prompt
        for i in range(12):
            name = f"obj-{uid}-{i}-a"
            assert (name in initial_prompt) == (i < 4)
            assert (name in update_prompt) == (4 <= i < 9)
        assert tree.initial[tree.selected_index].summary.text in update_prompt

    def test_samples_send_the_prompts_a_stream_update_sends(self):
        """Rollouts and streaming share one summary step: for the same prior
        and segment, each sample's prompt is the one ``update`` sends."""
        config = RolloutConfig(gamma=0.5, group_size=2, seed=7)
        rolled = PromptLog(self.policy().backend)
        tree = rollout(client_for(rolled), self.judge(), self.instance, self.history, config)
        streamed = PromptLog(self.policy().backend)
        streaming = client_for(streamed)
        update(streaming, None, HistorySegment(self.history, 0, 4))
        selected = tree.initial[tree.selected_index].summary
        prior = StreamState(self.history.user_id, selected, 4, (selected.summary_id,))
        update(streaming, prior, HistorySegment(self.history, 4, 9))
        assert rolled.prompts == [streamed.prompts[0]] * 2 + [streamed.prompts[1]] * 2
        assert [rs.prompt for rs in tree.all_summaries()] == rolled.prompts

    def test_single_sample_group(self):
        config = RolloutConfig(gamma=0.5, group_size=1, seed=7)
        tree = rollout(self.policy(), self.judge(), self.instance, self.history, config)
        assert tree.selected_index == 0

    def test_fixed_seed_reproduces_tree(self):
        config = RolloutConfig(gamma=0.5, group_size=2, seed=7)
        t1 = rollout(self.policy(quality=0.3), self.judge(), self.instance, self.history, config)
        t2 = rollout(self.policy(quality=0.3), self.judge(), self.instance, self.history, config)
        config8 = RolloutConfig(gamma=0.5, group_size=2, seed=8)
        t3 = rollout(self.policy(quality=0.3), self.judge(), self.instance, self.history, config8)
        assert json_dumps(t1.to_dict()) == json_dumps(t2.to_dict())
        assert json_dumps(t1.to_dict()) != json_dumps(t3.to_dict())

    def test_prefixless_instance_rejected(self):
        inst = RlInstance(user_id=self.history.user_id, k1=0, k2=5)
        with pytest.raises(ValidationError, match="empty history prefix"):
            rollout(self.policy(), self.judge(), inst, self.history, RolloutConfig(gamma=0.5, seed=7))

    def test_fills_rewards_consistently(self):
        config = RolloutConfig(gamma=0.5, group_size=2, seed=7)
        tree = rollout(self.policy(), self.judge(), self.instance, self.history, config)
        for rs in tree.all_summaries():
            assert 0.0 <= rs.immediate <= 1.0
            assert rs.cumulative is not None
        expected_init, expected_upd = cumulative_rewards(
            [rs.immediate for rs in tree.initial],
            [rs.immediate for rs in tree.updated],
            tree.selected_index,
            config.gamma,
        )
        assert [rs.cumulative for rs in tree.initial] == expected_init
        assert [rs.cumulative for rs in tree.updated] == expected_upd

    @pytest.mark.parametrize(
        "user_id, k2, match",
        [("someone else", 9, "does not match history user"), (None, 99, "no triple with index 99")],
        ids=["wrong-user", "missing-index"],
    )
    def test_bad_instance_rejected_before_any_call(self, user_id, k2, match):
        log = []
        policy = client_for(CallLog(self.policy().backend, "generate", log))
        judge = client_for(CallLog(self.judge().backend, "judge", log))
        instance = RlInstance(user_id or self.history.user_id, 4, k2)
        with pytest.raises(ValidationError, match=match):
            rollout(policy, judge, instance, self.history, RolloutConfig(gamma=0.5, group_size=2, seed=7))
        assert log == []

    def test_targets_in_an_instances_file_are_ignored(self, tmp_path):
        made_up = InteractionTriple(index=99, chosen="made-up chosen", rejected="made-up rejected").to_dict()
        path = tmp_path / "instances.jsonl"
        line = {"user_id": self.history.user_id, "k1": 4, "k2": 9, "target1": made_up, "target2": made_up}
        path.write_text(json_dumps(line) + "\n")
        (inst,) = load_instances(str(path))
        log = []
        judge = client_for(CallLog(self.judge().backend, "judge", log))
        tree = rollout(self.policy(), judge, inst, self.history, RolloutConfig(gamma=0.5, group_size=2, seed=7))
        at = self.history.position_of_index
        targets = {"initial": self.history.triples[at(4)], "updated": self.history.triples[at(9)]}
        expected = []
        for rs in tree.all_summaries():
            t = targets[rs.stage]
            expected += [
                ("judge", render_judge_prompt(rs.summary.text, t.context, t.chosen, t.rejected)),
                ("judge", render_judge_prompt(rs.summary.text, t.context, t.rejected, t.chosen)),
            ]
        assert log == expected

    def test_each_sample_is_judged_before_the_next_is_generated(self):
        log = []
        policy = client_for(CallLog(self.policy().backend, "generate", log))
        judge = client_for(CallLog(self.judge().backend, "judge", log))
        config = RolloutConfig(gamma=0.5, group_size=2, seed=7)
        tree = rollout(policy, judge, self.instance, self.history, config, jobs=1)
        at = self.history.position_of_index
        targets = {"initial": self.history.triples[at(4)], "updated": self.history.triples[at(9)]}
        expected = []
        for rs in tree.all_summaries():
            t = targets[rs.stage]
            expected += [
                ("generate", rs.stage, rs.sample_index),
                ("judge", render_judge_prompt(rs.summary.text, t.context, t.chosen, t.rejected)),
                ("judge", render_judge_prompt(rs.summary.text, t.context, t.rejected, t.chosen)),
            ]
        assert log == expected


class TestImmediateReward(LabSetup):
    def test_indistinguishable_items_score_chance(self):
        summary = PreferenceSummary(text=render_estimate([1.0, 0.0]), covers=(0, 1))
        target = InteractionTriple(
            index=0, chosen=render_item("x", [1.0, 0.0]), rejected=render_item("y", [1.0, 0.0])
        )
        reward = immediate_reward(self.judge(), summary, target, RolloutConfig(gamma=0.5))
        assert reward == 0.5

    def test_true_preference_scores_high(self):
        uid = self.history.user_id
        summary = PreferenceSummary(text=render_estimate(self.truth[uid]), covers=(0, 4))
        reward = immediate_reward(self.judge(), summary, self.history.triples[4], RolloutConfig(gamma=0.5))
        assert reward > 0.98

    def test_pairless_target_rejected(self):
        summary = PreferenceSummary(text="profile", covers=(0, 1))
        bare = InteractionTriple(index=0, chosen="only item", rejected=None)
        with pytest.raises(ValidationError):
            immediate_reward(self.judge(), summary, bare, RolloutConfig(gamma=0.5))
        with pytest.raises(ValidationError):
            immediate_reward(self.judge(), summary, None, RolloutConfig(gamma=0.5))


class TestExportBatch(LabSetup):
    def scored_tree(self, config=None):
        config = config or RolloutConfig(gamma=0.5, group_size=4, seed=7)
        return rollout(self.policy(quality=0.6), self.judge(), self.instance, self.history, config)

    def test_record_shape(self):
        tree = self.scored_tree()
        records = export_batch([tree])
        assert len(records) == 8
        uid = self.history.user_id
        assert {r.group_id for r in records} == {f"{uid}:4-9:initial", f"{uid}:4-9:updated"}
        for r in records:
            assert r.response
            assert len(r.old_token_logprobs) > 0
            assert math.isfinite(r.advantage)

    def test_group_advantages_are_centered(self):
        records = export_batch([self.scored_tree()])
        for gid in {r.group_id for r in records}:
            group = [r.advantage for r in records if r.group_id == gid]
            assert abs(sum(group)) < 1e-9

    def test_export_leaves_each_tree_as_it_was_born(self):
        """A tree comes out of ``rollout`` frozen and complete, so exporting
        it only reads it: its dump, advantages included, does not change."""
        config = RolloutConfig(gamma=0.5, group_size=3, seed=7)
        uid = self.history.user_id
        trees = [
            rollout(self.policy(quality=0.6), self.judge(), RlInstance(uid, k1, k2), self.history, config)
            for k1, k2 in ((4, 9), (2, 6))
        ]
        before = [json_dumps(tree.to_dict()) for tree in trees]
        records = export_batch(trees)
        assert [json_dumps(tree.to_dict()) for tree in trees] == before
        summaries = [rs for tree in trees for rs in tree.all_summaries()]
        assert [r.advantage for r in records] == [rs.advantage for rs in summaries]
        assert [r.reward for r in records] == [rs.cumulative for rs in summaries]
        assert all(isinstance(rs.advantage, float) for rs in summaries)
        with pytest.raises(dataclasses.FrozenInstanceError):
            trees[0].initial[0].advantage = 0.0

    def test_missing_token_logprobs_rejected(self):
        config = RolloutConfig(gamma=0.5, group_size=2, seed=7, debias=False)
        latent = self.truth[self.history.user_id]
        backend = ScriptBackend(
            completer=lambda p, ctx: render_estimate(latent), token_logprob=None
        )
        tree = rollout(client_for(backend), self.judge(), self.instance, self.history, config)
        with pytest.raises(ContractError, match="logprobs"):
            export_batch([tree])


class TestSurrogateLoss:
    def test_unchanged_policy_on_centered_advantages_is_zero(self):
        records = [make_record(a, old=(-0.5, -0.2, -0.9)) for a in (-1.0, 1.0, -0.25, 0.25)]
        rows = [list(r.old_token_logprobs) for r in records]
        assert abs(surrogate_loss(records, rows)) < 1e-9

    def test_clip_caps_positive_advantage_exactly(self):
        # ratio 2 with A=+1 clips at 1 + eps: loss is exactly -1.2
        rec = make_record(1.0, old=(0.0,))
        assert surrogate_loss([rec], [[LN2]], clip_eps=0.2) == -1.2

    def test_clip_floors_negative_advantage_exactly(self):
        # ratio 0.5 with A=-1: min(-0.5, -0.8) = -0.8, loss exactly +0.8
        rec = make_record(-1.0, old=(0.0,))
        assert surrogate_loss([rec], [[-LN2]], clip_eps=0.2) == 0.8

    def test_infinite_eps_disables_clipping(self):
        rec = make_record(1.0, old=(0.0,))
        assert surrogate_loss([rec], [[LN2]], clip_eps=math.inf) == -2.0

    def test_token_terms_average_within_sequence(self):
        # one clipped token (ratio 2) and one at ratio 1: mean(1.2, 1.0) = 1.1
        rec = make_record(1.0, old=(0.0, 0.0))
        assert surrogate_loss([rec], [[LN2, 0.0]], clip_eps=0.2) == pytest.approx(-1.1, abs=1e-12)

    def test_sequences_average_across_batch(self):
        recs = [make_record(1.0, old=(0.0,)), make_record(-1.0, old=(0.0,))]
        loss = surrogate_loss(recs, [[LN2], [-LN2]], clip_eps=0.2)
        assert loss == pytest.approx(-(1.2 - 0.8) / 2, abs=1e-12)

    def test_errors(self):
        rec = make_record(1.0, old=(0.0,))
        with pytest.raises(ContractError, match="mismatch"):
            surrogate_loss([rec], [])
        with pytest.raises(ContractError, match="token count"):
            surrogate_loss([rec], [[0.0, 0.0]])
        with pytest.raises(ContractError, match="empty"):
            surrogate_loss([], [])
        with pytest.raises(ValidationError):
            surrogate_loss([rec], [[0.0]], clip_eps=0.0)


class TestBatchStore(LabSetup):
    def test_round_trip_preserves_loss(self, tmp_path):
        config = RolloutConfig(gamma=0.5, group_size=4, seed=7)
        tree = rollout(self.policy(quality=0.6), self.judge(), self.instance, self.history, config)
        records = export_batch([tree])
        path = str(tmp_path / "batch.jsonl")
        save_batch(path, records)
        loaded = load_batch(path)
        assert loaded == records
        rows = [list(r.old_token_logprobs) for r in records]
        assert abs(surrogate_loss(records, rows) - surrogate_loss(loaded, rows)) <= 1e-12


class LatencyProbe:
    """Wraps a backend: every call sleeps a little and the peak number of calls
    in flight at once is recorded."""

    def __init__(self, backend, latency=0.01):
        self.backend = backend
        self.latency = latency
        self.now = self.peak = 0
        self.lock = threading.Lock()

    def __getattr__(self, name):
        method = getattr(self.backend, name)

        def call(*args, **kwargs):
            with self.lock:
                self.now += 1
                self.peak = max(self.peak, self.now)
            try:
                time.sleep(self.latency)
                return method(*args, **kwargs)
            finally:
                with self.lock:
                    self.now -= 1

        return call


class TestConcurrentRollout(LabSetup):
    def test_samples_and_rewards_overlap_within_the_endpoint_limit(self):
        config = RolloutConfig(gamma=0.5, group_size=4, seed=7)
        policy_probe = LatencyProbe(ScriptedGeneratorBackend(seed=2, quality=1.0, truth=self.truth))
        judge_probe = LatencyProbe(ScriptedJudgeBackend(kappa=8.0))
        policy = client_for(policy_probe, max_in_flight=3)
        judge = client_for(judge_probe, max_in_flight=3)
        tree = rollout(policy, judge, self.instance, self.history, config, jobs=4)
        for probe in (policy_probe, judge_probe):
            assert 1 < probe.peak <= 3
        serial = rollout(self.policy(), self.judge(), self.instance, self.history, config)
        assert json_dumps(tree.to_dict()) == json_dumps(serial.to_dict())


class TestRunRollouts(LabSetup):
    def instances(self):
        return [RlInstance(user_id=h.user_id, k1=4, k2=9) for h in self.histories]

    def run(self, instances, jobs=1, histories=None, skipped=None):
        config = RolloutConfig(gamma=0.5, group_size=2, seed=11)
        return run_rollouts(
            self.policy(), self.judge(), instances, histories or self.hmap, config, jobs=jobs, skipped=skipped
        )

    def test_stats_and_rewards(self):
        skipped = Tally()
        trees, stats = self.run(self.instances(), skipped=skipped)
        assert stats["instances_in"] == 3
        assert stats["trees"] == 3
        assert skipped.counts() == {}
        assert 0.9 < stats["mean_immediate_reward"] <= 1.0

    def test_failing_instances_are_skipped(self):
        bad = [
            RlInstance(user_id="ghost", k1=4, k2=9),  # no history on file
            RlInstance(user_id=self.history.user_id, k1=0, k2=5),  # empty prefix
        ]
        skipped = Tally()
        trees, stats = self.run(self.instances() + bad, skipped=skipped)
        assert stats["instances_in"] == 5
        assert stats["trees"] == 3
        assert skipped.counts() == {"ValidationError": 1, "no history": 1}
        assert {t.user_id for t in trees} == {h.user_id for h in self.histories}

    def test_skips_are_summarized_per_reason(self, caplog):
        ghosts = [RlInstance(user_id=f"ghost{i}", k1=4, k2=9) for i in range(2)]
        empty_prefix = [RlInstance(user_id=h.user_id, k1=0, k2=5) for h in self.histories]
        skipped = Tally()
        _, stats = self.run(self.instances() + ghosts + empty_prefix, jobs=2, skipped=skipped)
        assert stats["trees"] == 3
        assert skipped.counts() == {"ValidationError": 3, "no history": 2}
        with caplog.at_level(logging.WARNING, logger="prefpipe.rlengine"):
            skipped.log(logging.getLogger("prefpipe.rlengine"), logging.WARNING, "item(s) skipped")
        assert [r.getMessage() for r in caplog.records if r.name == "prefpipe.rlengine"] == [
            f"3 item(s) skipped (ValidationError), first: instance {self.histories[0].user_id} (0, 5): "
            "instance (0, 5) has an empty history prefix",
            "2 item(s) skipped (no history), first: instance ghost0 (4, 9): no history",
        ]

    def test_parallel_matches_serial(self):
        serial, _ = self.run(self.instances(), jobs=1)
        parallel, _ = self.run(self.instances(), jobs=2)
        assert [json_dumps(t.to_dict()) for t in serial] == [json_dumps(t.to_dict()) for t in parallel]
