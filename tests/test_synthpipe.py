import logging
import random

import numpy as np
import pytest

from prefpipe._util import Tally
from prefpipe.core import HistorySegment, InteractionTriple, PreferenceSummary, UserHistory
from prefpipe.errors import JudgeError, UserSkip, ValidationError
from prefpipe.modelio import GenerationResult, ModelClient, ModelEndpoint, ScriptBackend
from prefpipe.prompts import EMPTY_SLOT
from prefpipe.simlab import (
    ScriptedGeneratorBackend,
    ScriptedJudgeBackend,
    gen_population,
    parse_estimate,
    render_estimate,
)
from prefpipe.synthpipe import (
    ProfileCandidate,
    SynthConfig,
    TargetSet,
    build_streaming_sft,
    generate_candidates,
    merge_profiles,
    run_corpus,
    select_targets,
    user_level_filter,
    validate_candidates,
)


def make_history(n=8, user_id="u1"):
    triples = tuple(
        InteractionTriple(
            index=i,
            chosen=f"item-{i}-pos",
            rejected=f"item-{i}-neg",
            context=f"query {i}" if i % 2 == 0 else None,
        )
        for i in range(n)
    )
    return UserHistory(user_id=user_id, triples=triples, dataset_tag="test")


def client_for(backend, **kw):
    return ModelClient(ModelEndpoint(base_url="mock:generator", **kw), backend=backend, sleep=lambda s: None)


def scripted_client(completer=None, chooser=None):
    return client_for(ScriptBackend(completer=completer, chooser=chooser), judge_samples=2)


def make_candidate(target, summary, reasoning=None):
    gen = GenerationResult(prompt="p", raw=summary, summary=summary, reasoning=reasoning, token_logprobs=None)
    return ProfileCandidate(target=target, generation=gen)


@pytest.mark.parametrize(
    "knobs",
    [
        {"num_segments": 0}, {"min_per_segment": 0}, {"max_targets": 0}, {"min_kept": 0}, {"min_subset": -1},
        {"tau_tract": -0.1}, {"tau_tract": 1.5}, {"accuracy_threshold": 1.01}, {"accuracy_threshold": float("nan")},
    ],
    ids=str,
)
def test_synth_config_rejects_out_of_range_knobs(knobs):
    with pytest.raises(ValidationError, match=next(iter(knobs))):
        SynthConfig(**knobs)


def test_synth_config_accepts_range_edges():
    SynthConfig(num_segments=1, min_per_segment=1, max_targets=1, min_kept=1, min_subset=0, tau_tract=0, accuracy_threshold=1)


ALWAYS_A = lambda prompt, labels, ctx: (0.0, -10.0)
ALWAYS_B = lambda prompt, labels, ctx: (-10.0, 0.0)


class TestSelectTargets:
    def test_small_tractable_segment_is_kept_whole(self):
        history = make_history(6)
        segment = HistorySegment(history, 0, 6)
        scores = {i: 1.0 for i in range(6)}
        ts = select_targets(segment, scores, SynthConfig(max_targets=10), random.Random(0))
        assert [t.index for t in ts.targets] == list(range(6))

    def test_subset_at_minimum_skips_user(self):
        history = make_history(6)
        segment = HistorySegment(history, 0, 6)
        scores = {0: 1.0, 1: 1.0, 2: 1.0}  # exactly min_subset, must exceed it
        with pytest.raises(UserSkip):
            select_targets(segment, scores, SynthConfig(min_subset=3), random.Random(0))

    def test_oversized_subset_is_sampled_in_history_order(self):
        history = make_history(10)
        segment = HistorySegment(history, 0, 10)
        scores = {i: 1.0 for i in range(10)}
        config = SynthConfig(max_targets=5)
        ts = select_targets(segment, scores, config, random.Random(3))
        indices = [t.index for t in ts.targets]
        assert len(indices) == 5
        assert indices == sorted(indices)
        assert set(indices) <= set(range(10))

    def test_threshold_and_missing_scores_gate_targets(self):
        history = make_history(8)
        segment = HistorySegment(history, 0, 8)
        scores = {0: 0.95, 1: 0.95, 2: 0.95, 3: 0.95, 4: 0.89, 5: 0.9}  # 6, 7 unscored
        ts = select_targets(segment, scores, SynthConfig(tau_tract=0.9), random.Random(0))
        assert [t.index for t in ts.targets] == [0, 1, 2, 3, 5]

    def test_pairless_triples_never_become_targets(self):
        triples = tuple(
            InteractionTriple(index=i, chosen=f"c{i}", rejected=f"r{i}" if i != 2 else None)
            for i in range(6)
        )
        history = UserHistory(user_id="u1", triples=triples)
        scores = {i: 1.0 for i in range(6)}
        ts = select_targets(HistorySegment(history, 0, 6), scores, SynthConfig(), random.Random(0))
        assert 2 not in [t.index for t in ts.targets]


class TestGenerateCandidates:
    def capture(self):
        seen = []

        def completer(prompt, ctx):
            seen.append({"prompt": prompt, "meta": ctx["meta"]})
            return "a generated profile"

        return scripted_client(completer=completer), seen

    def make_target_set(self, n=6, n_targets=3):
        history = make_history(n)
        segment = HistorySegment(history, 0, n)
        config = SynthConfig(max_targets=n_targets, min_subset=min(2, n_targets - 1))
        return select_targets(segment, {i: 1.0 for i in range(n)}, config, random.Random(1))

    def test_one_candidate_per_target(self):
        ts = self.make_target_set()
        client, seen = self.capture()
        candidates = generate_candidates(ts, None, client, random.Random(2))
        assert len(candidates) == len(ts.targets) == 3
        assert [c.target.index for c in candidates] == [t.index for t in ts.targets]
        assert all(s["meta"]["stage"] == "synth-generate" for s in seen)

    def test_no_prompt_labels_any_target(self):
        ts = self.make_target_set()
        client, seen = self.capture()
        generate_candidates(ts, None, client, random.Random(2))
        for s in seen:
            for t in ts.targets:
                assert f"Chosen: {t.chosen}" not in s["prompt"]
                assert f"Rejected: {t.rejected}" not in s["prompt"]

    def test_own_target_appears_unlabeled(self):
        ts = self.make_target_set()
        client, seen = self.capture()
        candidates = generate_candidates(ts, None, client, random.Random(2))
        for cand, s in zip(candidates, seen):
            assert cand.target.chosen in s["prompt"]
            assert cand.target.rejected in s["prompt"]
            assert "Candidate Item 1:" in s["prompt"]
            assert "Candidate Item 2:" in s["prompt"]

    def test_item_order_is_randomized(self):
        ts = self.make_target_set(n=4, n_targets=2)
        first_items = set()
        for seed in range(40):
            client, seen = self.capture()
            generate_candidates(ts, None, client, random.Random(seed))
            line = next(l for l in seen[0]["prompt"].splitlines() if l.startswith("Candidate Item 1: "))
            first_items.add(line.removeprefix("Candidate Item 1: "))
        assert first_items == {ts.targets[0].chosen, ts.targets[0].rejected}

    def test_prior_profile_enters_the_prompt(self):
        ts = self.make_target_set()
        prior = PreferenceSummary(text="the prior profile body", covers=(0, 3))
        client, seen = self.capture()
        generate_candidates(ts, prior, client, random.Random(2))
        assert all(prior.text in s["prompt"] for s in seen)
        no_prior_client, no_prior_seen = self.capture()
        generate_candidates(ts, None, no_prior_client, random.Random(2))
        assert all(f"=====Past Preference Summary=====\n{EMPTY_SLOT}" in s["prompt"] for s in no_prior_seen)

    def test_failed_generations_are_dropped(self):
        ts = self.make_target_set()
        doomed = ts.targets[1].index

        def completer(prompt, ctx):
            return "" if ctx["meta"]["target"] == doomed else "profile"

        candidates = generate_candidates(ts, None, scripted_client(completer=completer), random.Random(2))
        assert [c.target.index for c in candidates] == [t.index for t in ts.targets if t.index != doomed]

    def test_all_failures_skip_user(self):
        ts = self.make_target_set()
        with pytest.raises(UserSkip):
            generate_candidates(ts, None, scripted_client(completer=lambda p, c: ""), random.Random(2))


class TestValidateCandidates:
    def setup_method(self):
        self.histories, self.truth = gen_population(seed=51, n_users=1, history_len=8)
        self.history = self.histories[0]
        self.latent = self.truth[self.history.user_id]
        self.judge = client_for(ScriptedJudgeBackend(kappa=8.0))

    def candidates(self, estimate):
        return [make_candidate(t, render_estimate(estimate)) for t in self.history.triples[:5]]

    def test_truthful_candidates_all_survive(self):
        kept = validate_candidates(self.candidates(self.latent), self.judge, SynthConfig())
        assert len(kept) == 5

    def test_planted_wrong_candidates_all_fail(self):
        with pytest.raises(UserSkip):
            validate_candidates(self.candidates(-self.latent), self.judge, SynthConfig())

    def test_mixed_candidates_filtered_individually(self):
        good = self.candidates(self.latent)[:3]
        bad = [make_candidate(t, render_estimate(-self.latent)) for t in self.history.triples[5:7]]
        kept = validate_candidates(good + bad, self.judge, SynthConfig(min_kept=3))
        assert kept == good

    def test_judge_failures_count_as_rejections(self):
        failing = scripted_client(completer=lambda p, c: "not parseable")
        with pytest.raises(UserSkip):
            validate_candidates(self.candidates(self.latent), failing, SynthConfig())


class TestMergeProfiles:
    def test_merged_summary_fields(self):
        history = make_history(4)
        cands = [make_candidate(t, f"summary {t.index}", reasoning=f"why {t.index}") for t in history.triples]
        teacher = scripted_client(completer=lambda p, c: "<think>combined</think>\nthe merged profile")
        merged = merge_profiles(cands, teacher, covers=(0, 4), parent_id="abc123", user_id="u1")
        assert merged.text == "the merged profile"
        assert merged.reasoning == "combined"
        assert merged.covers == (0, 4)
        assert merged.parent_id == "abc123"

    def test_prompt_carries_every_candidate(self):
        history = make_history(3)
        cands = [make_candidate(t, f"summary {t.index}", reasoning=f"why {t.index}") for t in history.triples]
        seen = []
        teacher = scripted_client(completer=lambda p, c: seen.append(p) or "merged")
        merge_profiles(cands, teacher, covers=(0, 3), parent_id=None, user_id="u1")
        for c in cands:
            assert c.summary_text in seen[0]
            assert c.reasoning in seen[0]

    def test_estimate_candidates_merge_to_mean_direction(self):
        teacher = client_for(ScriptedGeneratorBackend(seed=1, quality=1.0, dim=2))
        history = make_history(2)
        cands = [
            make_candidate(history.triples[0], render_estimate([1.0, 0.0])),
            make_candidate(history.triples[1], render_estimate([0.0, 1.0])),
        ]
        merged = merge_profiles(cands, teacher, covers=(0, 2), parent_id=None, user_id="u1")
        est = parse_estimate(merged.text)
        assert np.allclose(est, [np.sqrt(0.5), np.sqrt(0.5)], atol=1e-12)


class TestUserLevelFilter:
    def make_target_set(self, n=5):
        history = make_history(n)
        return TargetSet(
            segment=HistorySegment(history, 0, n), targets=tuple(history.triples)
        )

    def merged(self):
        return PreferenceSummary(text="profile", covers=(0, 5))

    def filter_with_verdicts(self, good_indices, n=5):
        ts = self.make_target_set(n)
        good = set(good_indices)

        def chooser(prompt, labels, ctx):
            if ctx["meta"]["target"] in good:
                return (0.0, -10.0)  # picks the chosen item
            return (-10.0, 0.0)

        judge = scripted_client(chooser=chooser)
        return user_level_filter(self.merged(), ts, judge, SynthConfig(debias=False))

    def test_accuracy_at_threshold_is_accepted(self):
        # 4/5 = 0.8 meets the inclusive threshold exactly
        assert self.filter_with_verdicts([0, 1, 2, 3]) == 0.8

    def test_accuracy_below_threshold_skips(self):
        with pytest.raises(UserSkip):
            self.filter_with_verdicts([0, 1, 2])

    def test_perfect_profile(self):
        assert self.filter_with_verdicts([0, 1, 2, 3, 4]) == 1.0

    def test_judge_error_counts_as_incorrect(self):
        ts = self.make_target_set(5)

        def chooser(prompt, labels, ctx):
            if ctx["meta"]["target"] == 3:
                raise JudgeError("no verdict")
            return (0.0, -10.0)

        judge = scripted_client(chooser=chooser)
        assert user_level_filter(self.merged(), ts, judge, SynthConfig(debias=False)) == 0.8


class TestBuildStreamingSft:
    def setup_method(self):
        self.histories, self.truth = gen_population(seed=61, n_users=3, history_len=12)
        self.history = self.histories[0]
        self.scores = {i: 1.0 for i in range(12)}

    def clients(self, quality=1.0, invert=False):
        generator = client_for(ScriptedGeneratorBackend(seed=2, quality=quality, truth=self.truth, invert=invert))
        judge = client_for(ScriptedJudgeBackend(kappa=8.0))
        return generator, judge

    def test_chained_records_over_three_segments(self):
        generator, judge = self.clients()
        records = build_streaming_sft(self.history, self.scores, generator, judge, generator, SynthConfig(seed=5))
        assert [r.segment for r in records] == [(0, 4), (4, 8), (8, 12)]
        assert records[0].prior_text is None
        assert records[1].prior_text == records[0].summary
        assert records[2].prior_text == records[1].summary
        for r in records:
            assert r.accuracy == 1.0
            assert r.kept_count == 4
            assert all(r.segment[0] <= i < r.segment[1] for i in r.target_indices)

    def test_mid_chain_skip_keeps_earlier_records(self):
        generator, judge = self.clients()
        scores = dict(self.scores)
        for i in range(4, 8):
            scores[i] = 0.0  # second segment has no tractable subset
        records = build_streaming_sft(self.history, scores, generator, judge, generator, SynthConfig(seed=5))
        assert [r.segment for r in records] == [(0, 4)]

    def test_adversarial_generator_produces_nothing(self):
        generator, judge = self.clients(invert=True)
        records = build_streaming_sft(self.history, self.scores, generator, judge, generator, SynthConfig(seed=5))
        assert records == []

    def test_short_history_yields_no_records(self):
        short_histories, _ = gen_population(seed=62, n_users=1, history_len=8)
        generator, judge = self.clients()
        records = build_streaming_sft(
            short_histories[0], self.scores, generator, judge, generator, SynthConfig(seed=5)
        )
        assert records == []  # 8 // 3 < min_per_segment

    def test_fixed_seed_reproduces_records(self):
        generator, judge = self.clients()
        r1 = build_streaming_sft(self.history, self.scores, generator, judge, generator, SynthConfig(seed=5))
        r2 = build_streaming_sft(self.history, self.scores, generator, judge, generator, SynthConfig(seed=5))
        assert [a.to_dict() for a in r1] == [b.to_dict() for b in r2]


class TestRunCorpus:
    def setup_method(self):
        self.histories, self.truth = gen_population(seed=71, n_users=4, history_len=12)
        self.scores = {h.user_id: {i: 1.0 for i in range(12)} for h in self.histories}

    def run(self, jobs=1, scores=None):
        generator = client_for(ScriptedGeneratorBackend(seed=3, quality=1.0, truth=self.truth))
        judge = client_for(ScriptedJudgeBackend(kappa=8.0))
        return run_corpus(
            self.histories, scores if scores is not None else self.scores,
            generator, judge, generator, SynthConfig(seed=9), jobs=jobs,
        )

    def test_stats_and_order(self):
        records, stats = self.run()
        assert stats == {"users_in": 4, "users_with_records": 4, "records": 12}
        assert [r.user_id for r in records] == [h.user_id for h in self.histories for _ in range(3)]

    def test_parallel_run_matches_serial(self):
        serial, _ = self.run(jobs=1)
        parallel, _ = self.run(jobs=2)
        assert [r.to_dict() for r in serial] == [r.to_dict() for r in parallel]

    def test_unscored_user_is_skipped_but_counted(self):
        scores = dict(self.scores)
        del scores[self.histories[0].user_id]
        records, stats = self.run(scores=scores)
        assert stats["users_in"] == 4
        assert stats["users_with_records"] == 3
        assert self.histories[0].user_id not in {r.user_id for r in records}

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_skips_and_failed_calls_are_counted_per_reason(self, caplog, jobs):
        scores = dict(self.scores)
        del scores[self.histories[0].user_id]
        generator = client_for(ScriptedGeneratorBackend(seed=3, quality=1.0, truth=self.truth))
        judge = scripted_client(completer=lambda p, c: "not parseable")
        skipped = Tally()
        records, _ = run_corpus(
            self.histories, scores, generator, judge, generator, SynthConfig(seed=9), jobs=jobs, skipped=skipped
        )
        assert records == []
        assert judge.stats["attempts"] == 12 * (1 + 2)  # no early stop without a decided sample
        assert skipped.counts() == {
            "JudgeError": 12,  # 3 users x 4 targets
            "fewer than 3 candidate(s) validated": 3,
            "tractable subset of at most 3 triple(s)": 1,
        }
        first, second = (h.user_id for h in self.histories[:2])
        with caplog.at_level(logging.WARNING, logger="prefpipe.synthpipe"):
            skipped.log(logging.getLogger("prefpipe.synthpipe"), logging.WARNING, "item(s) skipped")
        assert [r.getMessage() for r in caplog.records if r.name == "prefpipe.synthpipe"] == [
            f"12 item(s) skipped (JudgeError), first: user {second} target 0: "
            "no judge sample produced a parseable selection",
            f"3 item(s) skipped (fewer than 3 candidate(s) validated), first: user {second} segment 0: "
            "fewer than 3 candidate(s) validated",
            f"1 item(s) skipped (tractable subset of at most 3 triple(s)), first: user {first} segment 0: "
            "tractable subset of at most 3 triple(s)",
        ]
