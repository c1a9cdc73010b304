"""Release gate: ten numbered checks over the whole pipeline.

Each check prints exactly one ``[PASS]``/``[FAIL]`` line with its runtime
against a wall-clock budget (run with ``pytest -s`` to see the checklist).
The checks use hand-derived numbers and independent brute-force oracles, never
the library's own intermediate results.
"""

import math
import os
import random
import tempfile
import time

import numpy as np

from prefpipe._util import derive_seed, json_dumps, write_jsonl
from prefpipe.core import (
    HistorySegment,
    InteractionTriple,
    PreferenceSummary,
    UserHistory,
)
from prefpipe.curriculum import (
    PRESET_CONFIGS,
    PruneConfig,
    build_rl_instances,
    load_scores,
    prune,
)
from prefpipe.errors import UserSkip
from prefpipe.evalharness import evaluate_selection, holdout_instances
from prefpipe.modelio import ModelClient, ModelEndpoint, ScriptBackend, label_probability
from prefpipe.rlengine import (
    RolloutConfig,
    TrainingRecord,
    advantages,
    cumulative_rewards,
    export_batch,
    load_batch,
    run_rollouts,
    save_batch,
    surrogate_loss,
)
from prefpipe.simlab import (
    ScriptedEmbedderBackend,
    ScriptedGeneratorBackend,
    ScriptedJudgeBackend,
    gen_population,
    score_corpus,
)
from prefpipe.streamer import infer_full, infer_streaming, update
from prefpipe.synthpipe import (
    SynthConfig,
    TargetSet,
    generate_candidates,
    select_targets,
    user_level_filter,
    validate_candidates,
)
from prefpipe.transferbench import (
    NoiseConfig,
    embed_history,
    inject_secondary,
    match_users,
    swap_targets,
)

LN2 = math.log(2.0)


def _check(name, budget, fn):
    """Run one gate check, print its single checklist line, then re-raise."""
    start = time.perf_counter()
    error = None
    try:
        fn()
    except BaseException as exc:
        error = exc
    elapsed = time.perf_counter() - start
    status = "PASS" if error is None and elapsed < budget else "FAIL"
    print(f"[{status}] {name} ({elapsed:.2f}s / {budget:.0f}s)")
    if error is not None:
        raise error
    assert elapsed < budget, f"{name} took {elapsed:.2f}s, budget {budget}s"


def _client(backend):
    return ModelClient(ModelEndpoint(base_url="mock:generator"), backend=backend, sleep=lambda s: None)


def _mini_history(user_id, n):
    return UserHistory(
        user_id=user_id,
        triples=tuple(
            InteractionTriple(
                index=i,
                chosen=f"pick-{user_id}-{i}",
                rejected=f"pass-{user_id}-{i}",
                context=f"ctx-{i}" if i % 2 == 0 else None,
            )
            for i in range(n)
        ),
    )


# -- 1 -----------------------------------------------------------------------


def test_cumulative_reward_hand_values():
    def body():
        cum_init, upd = cumulative_rewards([0.6, 0.3], [0.8, 0.4], selected_index=0, gamma=0.5)
        assert abs(cum_init[0] - 0.9) < 1e-12  # 0.6 + 0.5 * mean(0.8, 0.4)
        assert cum_init[1] == 0.3  # unselected initials keep their own reward
        assert upd == [0.8, 0.4]
        rng = random.Random(11)
        for _ in range(50):
            init = [rng.random() for _ in range(rng.randint(1, 6))]
            updated = [rng.random() for _ in range(rng.randint(1, 6))]
            zero, upd2 = cumulative_rewards(init, updated, 0, gamma=0.0)
            assert zero == init  # gamma 0 is the exact identity
            assert upd2 == updated

    _check("cumulative reward fold", 1, body)


# -- 2 -----------------------------------------------------------------------


def test_advantage_normalization_contract():
    def body():
        assert advantages([0.0, 1.0]).tolist() == [-1.0, 1.0]
        assert advantages([0.7, 0.7, 0.7]).tolist() == [0.0, 0.0, 0.0]
        rng = random.Random(22)
        for _ in range(1000):
            rewards = [rng.random() for _ in range(rng.randint(2, 9))]
            adv = advantages(rewards)
            assert abs(adv.mean()) < 1e-9
            if adv.any():
                assert abs(adv.std() - 1.0) < 1e-9
            shift = rng.uniform(-5.0, 5.0)
            assert np.allclose(adv, advantages([r + shift for r in rewards]), atol=1e-9)

    _check("advantage normalization", 1, body)


# -- 3 -----------------------------------------------------------------------


def test_clipped_loss_identities():
    def make_record(advantage, old):
        return TrainingRecord(
            user_id="u", group_id="g", stage="initial", prompt="p", response="r",
            old_token_logprobs=old, advantage=advantage, reward=0.0,
        )

    def body():
        # ratio-1 identity: new logprobs == old, centered advantages -> loss 0
        rng = random.Random(33)
        rewards = [rng.random() for _ in range(8)]
        adv = advantages(rewards)
        records = [make_record(float(a), (-0.3, -0.9)) for a in adv]
        same = [list(r.old_token_logprobs) for r in records]
        assert abs(surrogate_loss(records, same, clip_eps=0.2)) < 1e-9

        # single-token clip cases, exact: old logprob 0, new +/- ln 2 gives
        # ratio exactly 2.0 / 0.5, clip bounds exactly 1.2 / 0.8
        up = make_record(1.0, (0.0,))
        assert surrogate_loss([up], [[LN2]], clip_eps=0.2) == -1.2
        down = make_record(-1.0, (0.0,))
        assert surrogate_loss([down], [[-LN2]], clip_eps=0.2) == 0.8

        # finite-difference gradient on a two-token record, unclipped regime
        rec = make_record(0.7, (-0.2, -0.4))
        base = [-0.25, -0.35]
        h = 1e-5
        for t in range(2):
            bumped_up = list(base)
            bumped_dn = list(base)
            bumped_up[t] += h
            bumped_dn[t] -= h
            numeric = (
                surrogate_loss([rec], [bumped_up], clip_eps=0.2)
                - surrogate_loss([rec], [bumped_dn], clip_eps=0.2)
            ) / (2 * h)
            ratio_t = math.exp(base[t] - rec.old_token_logprobs[t])
            analytic = -0.5 * rec.advantage * ratio_t  # mean over the 2 tokens
            assert abs(numeric - analytic) < 1e-3

    _check("clipped surrogate loss", 5, body)


# -- 4 -----------------------------------------------------------------------


def test_prune_matches_brute_force():
    def brute_force(scores, config):
        """Sort-and-slice reference: three independent passes over plain lists."""
        m = math.ceil(config.alpha * len(scores))
        step1 = sorted(scores, key=lambda s: (-s.s_learn, s.user_id, s.index))[:m]
        step2 = [s for s in step1 if config.tract_low <= s.s_tract <= config.tract_high]
        k = math.ceil(config.tail_fraction * len(step2))
        direction = 1.0 if config.tail_side == "hardest" else -1.0
        step3 = sorted(step2, key=lambda s: (direction * s.s_tract, s.user_id, s.index))[:k]
        return {(s.user_id, s.index) for s in step3}

    def body():
        rng = random.Random(44)
        rows = []
        for u in range(200):
            for i in range(50):
                strong = rng.randint(1, 20) / 20.0  # quantized to force ties
                weak = rng.randint(1, 20) / 20.0
                rows.append({"user_id": f"u{u:03d}", "index": i, "strong_p": strong, "weak_p": weak})
        assert len(rows) == 10000
        with tempfile.TemporaryDirectory() as td:
            path = os.path.join(td, "scores.jsonl")
            write_jsonl(path, rows)
            scores = load_scores(path)
        configs = list(PRESET_CONFIGS.values()) + [
            PruneConfig(alpha=0.3, tract_low=0.2, tract_high=0.8, tail_fraction=0.5, tail_side="easiest"),
        ]
        for config in configs:
            kept = {(s.user_id, s.index) for s in prune(scores, config)}
            assert kept == brute_force(scores, config)

    _check("curriculum prune vs brute force", 10, body)


# -- 5 -----------------------------------------------------------------------


def test_synthesis_filters_separate_good_from_adversarial():
    SEED = 20250818

    def body():
        histories, truth = gen_population(seed=SEED, n_users=200, history_len=12)
        judge = _client(ScriptedJudgeBackend(kappa=8.0))
        good_gen = _client(ScriptedGeneratorBackend(seed=1, quality=1.0, truth=truth))
        bad_gen = _client(ScriptedGeneratorBackend(seed=1, quality=1.0, truth=truth, invert=True))
        config = SynthConfig()
        totals = {"good": [0, 0], "bad": [0, 0]}  # kept, generated
        for history in histories:
            segment = HistorySegment(history, 0, len(history))
            tract = {t.index: 1.0 for t in history.triples}
            for kind, generator in (("good", good_gen), ("bad", bad_gen)):
                rng = random.Random(derive_seed(SEED, "gate-synth", kind, history.user_id))
                target_set = select_targets(segment, tract, config, rng)
                candidates = generate_candidates(target_set, None, generator, rng)
                try:
                    kept = validate_candidates(candidates, judge, config, history.user_id)
                except UserSkip:
                    kept = []
                totals[kind][0] += len(kept)
                totals[kind][1] += len(candidates)
        assert totals["good"][1] == totals["bad"][1] == 1000
        assert totals["good"][0] / totals["good"][1] >= 0.90
        assert 1.0 - totals["bad"][0] / totals["bad"][1] >= 0.90

        # merged-profile gate is inclusive at 0.8: 4/5 targets passes, 3/5 skips
        history = _mini_history("gate", 5)
        target_set = TargetSet(segment=HistorySegment(history, 0, 5), targets=history.triples)
        merged = PreferenceSummary(text="merged profile", covers=(0, 5))
        filter_config = SynthConfig(debias=False, accuracy_threshold=0.8)

        def scripted_accuracy(good_targets):
            def chooser(prompt, labels, ctx):
                correct = ctx["meta"]["target"] in good_targets
                return (0.0, -10.0) if correct else (-10.0, 0.0)

            client = _client(ScriptBackend(chooser=chooser))
            return user_level_filter(merged, target_set, client, filter_config)

        assert scripted_accuracy({0, 1, 2, 3}) == 0.8
        try:
            scripted_accuracy({0, 1, 2})
            raise AssertionError("0.6 accuracy should not pass the 0.8 bar")
        except UserSkip:
            pass

    _check("synthesis validation filters", 60, body)


# -- 6 -----------------------------------------------------------------------


def test_generation_prompts_never_reveal_target_choices():
    SEED = 606

    def body():
        histories, _ = gen_population(seed=SEED, n_users=100, history_len=12)
        prompts = []
        recorder = _client(
            ScriptBackend(completer=lambda prompt, ctx: prompts.append(prompt) or "a profile")
        )
        config = SynthConfig()
        checked = 0
        for history in histories:
            prompts.clear()
            segment = HistorySegment(history, 0, len(history))
            tract = {t.index: 1.0 for t in history.triples}
            rng = random.Random(derive_seed(SEED, "gate-leak", history.user_id))
            target_set = select_targets(segment, tract, config, rng)
            candidates = generate_candidates(target_set, None, recorder, rng)
            assert len(prompts) == len(candidates) == 5
            for prompt in prompts:
                for target in target_set.targets:
                    assert f"Chosen: {target.chosen}" not in prompt
                    assert f"Rejected: {target.rejected}" not in prompt
                    checked += 2
            # sanity: the candidate's own target items do appear, unlabeled
            for prompt, cand in zip(prompts, candidates):
                assert cand.target.chosen in prompt
                assert cand.target.rejected in prompt
        assert checked == 100 * 5 * 5 * 2

    _check("no target leakage in generation prompts", 10, body)


# -- 7 -----------------------------------------------------------------------


def test_streaming_updates_compose_exactly():
    def body():
        generator = ModelClient(ModelEndpoint(base_url="mock:generator"))
        history = _mini_history("s1", 8)
        first = update(generator, None, HistorySegment(history, 0, 4))
        second = update(generator, first, HistorySegment(history, 4, 8))
        streamed = infer_streaming(generator, history, 2)
        assert json_dumps(second.to_dict()) == json_dumps(streamed.to_dict())

        for chunks in (1, 2, 3, 4):
            state = infer_streaming(generator, history, chunks)
            assert len(state.lineage) == chunks
            assert state.consumed_until == 8

        rng = random.Random(77)
        for _ in range(1000):
            n = rng.randint(1, 10)
            hist = _mini_history(f"f{n}", n)
            state = None
            pos = 0
            steps = 0
            while pos < n:
                end = rng.randint(pos + 1, n)
                state = update(generator, state, HistorySegment(hist, pos, end))
                steps += 1
                assert state.consumed_until == end  # strictly beyond the previous one
                assert len(state.lineage) == steps
                assert state.lineage[-1] == state.current.summary_id
                pos = end

    _check("streaming composition", 10, body)


# -- 8 -----------------------------------------------------------------------


def test_transfer_builders_are_exact():
    def body():
        corpus_a, _ = gen_population(seed=31, n_users=40, history_len=4, user_prefix="a")
        corpus_b, _ = gen_population(seed=32, n_users=25, history_len=4, user_prefix="b")
        trimmed_a, inst_a = holdout_instances(corpus_a)
        trimmed_b, inst_b = holdout_instances(corpus_b)
        embedder = _client(ScriptedEmbedderBackend())
        pairs = match_users(embedder, trimmed_a, trimmed_b, top_k=1000)
        assert len(pairs) == 1000  # every (a, b) combination survives
        targets = {
            i.user_id: InteractionTriple(index=0, chosen=i.item_a, rejected=i.item_b, context=i.context)
            for i in inst_a + inst_b
        }
        instances, stats = swap_targets(pairs, targets)
        assert len(instances) == 2000
        assert stats == {"pairs_in": 1000, "pairs_skipped": 0, "instances": 2000}

        # 3x3 case against exhaustive enumeration
        a3, b3 = trimmed_a[:3], trimmed_b[:3]
        expected = sorted(
            (
                (-float(np.dot(embed_history(embedder, ha), embed_history(embedder, hb))), ha.user_id, hb.user_id)
                for ha in a3
                for hb in b3
            ),
        )
        got = match_users(embedder, a3, b3, top_k=9)
        assert [(p.user_a, p.user_b) for p in got] == [(ua, ub) for _, ua, ub in expected]
        for pair, (neg_sim, _, _) in zip(got, expected):
            assert abs(pair.similarity - (-neg_sim)) < 1e-9

        # secondary-interest injection: order-preserving and exactly reversible
        rng = random.Random(88)
        for trial in range(1000):
            primary = _mini_history("p", rng.randint(1, 12))
            donor = _mini_history("d", rng.randint(1, 12))
            intensity = rng.choice([0.1, 0.25, 0.4, 0.6])
            result = inject_secondary(primary, donor, NoiseConfig(intensity=intensity, seed=trial))
            injected = set(result.injected_positions)
            kept_sources = [s for i, s in enumerate(result.source_indices) if i not in injected]
            donor_sources = [s for i, s in enumerate(result.source_indices) if i in injected]
            assert kept_sources == sorted(kept_sources)
            assert donor_sources == sorted(donor_sources)
            rebuilt = tuple(
                InteractionTriple(
                    index=result.source_indices[i],
                    chosen=t.chosen,
                    rejected=t.rejected,
                    context=t.context,
                )
                for i, t in enumerate(result.history.triples)
                if i not in injected
            )
            assert rebuilt == primary.triples

        untouched = inject_secondary(primary, donor, NoiseConfig(intensity=0.0, seed=1))
        assert untouched.history == primary
        assert untouched.injected_positions == ()

    _check("transfer benchmark builders", 30, body)


# -- 9 -----------------------------------------------------------------------


def test_judge_debias_is_symmetric():
    def biased(prompt, labels, ctx):  # a judge swayed by presentation order and wording alike
        rng = random.Random(prompt)
        return -rng.uniform(0.05, 3.0), -rng.uniform(0.05, 3.0)

    def body():
        judge = _client(ScriptBackend(chooser=biased))
        rng = random.Random(99)
        for i in range(50):
            summary = f"profile {i}"
            x, y = f"thing-{rng.random():.6f}", f"thing-{rng.random():.6f}"
            forward = judge.judge_pair(summary, "ctx", x, y).prob_first
            swapped = judge.judge_pair(summary, "ctx", y, x).prob_first
            assert abs(forward + swapped - 1.0) < 1e-12
        assert abs(label_probability(-0.1, -2.4) - 0.9089) < 1e-4

    _check("judge position debias", 1, body)


# -- 10 ----------------------------------------------------------------------


def test_reward_and_accuracy_track_generator_quality(tmp_path):
    SEED = 424242

    def body():
        histories, truth = gen_population(seed=SEED, n_users=60, history_len=12)
        rows = score_corpus(histories, truth, kappa=8.0, weak_quality=0.5, seed=SEED)
        scores_path = str(tmp_path / "scores.jsonl")
        write_jsonl(scores_path, rows)
        scores = load_scores(scores_path)
        kept = prune(scores, PruneConfig(alpha=0.6, tract_low=0.55, tract_high=0.98))
        instances = build_rl_instances(kept)
        assert len(instances) == 35
        by_user = {h.user_id: h for h in histories}
        judge = _client(ScriptedJudgeBackend(kappa=8.0))
        trimmed, eval_instances = holdout_instances(histories)
        results = []
        last_trees = None
        for quality in (0.0, 0.5, 1.0):
            policy = _client(ScriptedGeneratorBackend(seed=7, quality=quality, truth=truth))
            trees, stats = run_rollouts(
                policy, judge, instances, by_user, RolloutConfig(gamma=0.5, seed=11)
            )
            assert stats["trees"] == 35
            summaries = {h.user_id: infer_full(policy, h).current for h in trimmed}
            report, _ = evaluate_selection(judge, summaries, eval_instances, seed=5)
            results.append((stats["mean_immediate_reward"], report.accuracy))
            last_trees = trees
        (r0, a0), (r1, a1), (r2, a2) = results
        assert r0 < r1 < r2, f"rewards not increasing: {r0:.4f}, {r1:.4f}, {r2:.4f}"
        assert a0 < a1 < a2, f"accuracies not increasing: {a0:.4f}, {a1:.4f}, {a2:.4f}"

        # exported batch round-trips the loss through disk
        records = export_batch(last_trees)
        batch_path = str(tmp_path / "batch.jsonl")
        save_batch(batch_path, records)
        loaded = load_batch(batch_path)
        new_logprobs = [list(r.old_token_logprobs) for r in records]
        before = surrogate_loss(records, new_logprobs, clip_eps=0.2)
        after = surrogate_loss(loaded, [list(r.old_token_logprobs) for r in loaded], clip_eps=0.2)
        assert abs(before - after) <= 1e-9

    _check("learning signal tracks generator quality", 120, body)
