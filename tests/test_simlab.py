import math
import subprocess
import sys

import numpy as np
import pytest

from prefpipe._util import derive_seed, json_dumps, write_jsonl
from prefpipe.cli import main
from prefpipe.core import InteractionTriple, UserHistory
from prefpipe.errors import CapabilityError, ContractError, ValidationError
from prefpipe.modelio import ModelClient, ModelEndpoint, build_backend
from prefpipe.prompts import render_generation_prompt, render_history_block, render_judge_prompt, render_merge_prompt
from prefpipe.simlab import (
    ScriptedEmbedderBackend,
    ScriptedGeneratorBackend,
    ScriptedJudgeBackend,
    gen_population,
    load_truth,
    parse_estimate,
    parse_item_features,
    preference_direction,
    render_estimate,
    render_item,
    score_corpus,
    scripted_judge,
    sigmoid,
    truth_record,
)

SIG4 = 1.0 / (1.0 + math.exp(-4.0))  # oracle confidence at kappa=8, margin=0.5


def client_for(backend, base_url="mock:generator", **kw):
    return ModelClient(ModelEndpoint(base_url=base_url, **kw), backend=backend, sleep=lambda s: None)


# ---------------------------------------------------------------------------
# Vector rendering
# ---------------------------------------------------------------------------


class TestVectorText:
    def test_item_round_trip_is_exact(self):
        feats = [0.1, -2.5, 1e-17, 123456.789, -0.3333333333333333]
        text = render_item("obj-1", feats)
        assert text.startswith("obj-1 [feat ")
        parsed = parse_item_features(text)
        assert parsed.tolist() == feats  # repr floats survive the round trip exactly

    def test_estimate_round_trip_is_exact(self):
        vec = [0.7071067811865476, -0.7071067811865475]
        parsed = parse_estimate(render_estimate(vec))
        assert parsed.tolist() == vec

    def test_unparseable_text_is_none(self):
        assert parse_item_features("no feature block") is None
        assert parse_estimate("no estimate either") is None
        assert parse_item_features("bad [feat one two]") is None

    def test_preference_direction_is_unit_sum_of_differences(self):
        text = "\n".join([
            "Chosen: " + render_item("a", [2.0, 0.0]),
            "Rejected: " + render_item("b", [0.0, 0.0]),
            "Chosen: " + render_item("c", [0.0, 1.0]),
            "Rejected: " + render_item("d", [0.0, -1.0]),
        ])
        assert preference_direction(text).tolist() == [0.7071067811865475, 0.7071067811865475]
        assert preference_direction("Chosen: " + render_item("a", [1.0, 0.0])) is None
        cancelled = "\n".join([
            "Chosen: " + render_item("a", [1.0]), "Rejected: " + render_item("b", [0.0]),
            "Chosen: " + render_item("c", [0.0]), "Rejected: " + render_item("d", [1.0]),
        ])
        assert preference_direction(cancelled) is None


def test_sigmoid_basics():
    assert sigmoid(0.0) == 0.5
    assert abs(sigmoid(4.0) - SIG4) < 1e-15
    assert abs(sigmoid(2.0) + sigmoid(-2.0) - 1.0) < 1e-15
    assert sigmoid(-800.0) == pytest.approx(0.0)  # no overflow
    assert sigmoid(800.0) == 1.0


class TestScriptedJudge:
    def test_hand_value(self):
        # est . (pos - neg) = 0.5 at kappa 8 -> sigmoid(4)
        p = scripted_judge([1.0, 0.0], [0.5, 0.3], [0.0, 0.3], kappa=8.0)
        assert abs(p - SIG4) < 1e-15

    def test_orthogonal_difference_is_chance(self):
        assert scripted_judge([1.0, 0.0], [0.0, 1.0], [0.0, -1.0]) == 0.5

    def test_zero_sharpness_is_chance(self):
        assert scripted_judge([1.0, 0.0], [9.0, 0.0], [-9.0, 0.0], kappa=0.0) == 0.5

    def test_dimension_mismatch(self):
        with pytest.raises(ContractError):
            scripted_judge([1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 0.0])


# ---------------------------------------------------------------------------
# Population generation
# ---------------------------------------------------------------------------


class TestGenPopulation:
    def test_margin_invariant_holds_everywhere(self):
        histories, truth = gen_population(seed=11, n_users=6, dim=5, history_len=8, pair_margin=0.5)
        checked = 0
        for hist in histories:
            latent = truth[hist.user_id]
            for t in hist.triples:
                pos = parse_item_features(t.chosen)
                neg = parse_item_features(t.rejected)
                assert float(latent @ (pos - neg)) >= 0.5
                checked += 1
        assert checked == 48

    def test_true_user_oracle_is_confident_on_every_pair(self):
        histories, truth = gen_population(seed=3, n_users=5, history_len=6)
        for hist in histories:
            for t in hist.triples:
                p = scripted_judge(truth[hist.user_id], parse_item_features(t.chosen), parse_item_features(t.rejected))
                assert p >= SIG4

    def test_fixed_seed_reproduces_corpus(self):
        h1, t1 = gen_population(seed=7, n_users=4, history_len=5)
        h2, t2 = gen_population(seed=7, n_users=4, history_len=5)
        assert json_dumps([h.to_dict() for h in h1]) == json_dumps([h.to_dict() for h in h2])
        assert all(np.array_equal(t1[k], t2[k]) for k in t1)

    def test_users_are_independent_of_population_size(self):
        small, _ = gen_population(seed=9, n_users=2, history_len=4)
        large, _ = gen_population(seed=9, n_users=5, history_len=4)
        assert [h.to_dict() for h in small] == [h.to_dict() for h in large[:2]]

    def test_shape_and_naming(self):
        histories, truth = gen_population(seed=1, n_users=3, dim=4, history_len=5, dataset_tag="lab", user_prefix="x")
        assert [h.user_id for h in histories] == ["x0000", "x0001", "x0002"]
        assert all(h.dataset_tag == "lab" and len(h) == 5 for h in histories)
        assert all(abs(np.linalg.norm(v) - 1.0) < 1e-9 and v.shape == (4,) for v in truth.values())

    def test_context_rate_extremes(self):
        always, _ = gen_population(seed=2, n_users=2, history_len=6, context_rate=1.0)
        never, _ = gen_population(seed=2, n_users=2, history_len=6, context_rate=0.0)
        assert all(t.context for h in always for t in h.triples)
        assert all(t.context is None for h in never for t in h.triples)

    def test_validation(self):
        with pytest.raises(ValidationError):
            gen_population(seed=1, n_users=0)
        with pytest.raises(ValidationError):
            gen_population(seed=1, n_users=1, history_len=0)
        with pytest.raises(ValidationError):
            gen_population(seed=1, n_users=1, pair_margin=0.0)


class TestScoreCorpus:
    def test_first_interaction_scores_at_chance(self):
        histories, truth = gen_population(seed=5, n_users=5, history_len=6)
        for rec in score_corpus(histories, truth):
            if rec["index"] == 0:
                assert rec["strong_p"] == 0.5

    def test_probabilities_are_proper(self):
        histories, truth = gen_population(seed=5, n_users=5, history_len=6)
        for rec in score_corpus(histories, truth):
            assert 0.0 < rec["strong_p"] < 1.0
            assert 0.0 < rec["weak_p"] < 1.0

    def test_tractability_grows_with_evidence(self):
        histories, truth = gen_population(seed=5, n_users=10, history_len=10)
        records = score_corpus(histories, truth)
        early = np.mean([r["strong_p"] for r in records if r["index"] <= 1])
        late = np.mean([r["strong_p"] for r in records if r["index"] >= 6])
        assert late > 0.85
        assert late > early + 0.2

    def test_undegraded_weak_model_matches_strong(self):
        histories, truth = gen_population(seed=4, n_users=4, history_len=6)
        for rec in score_corpus(histories, truth, weak_quality=1.0):
            if rec["index"] >= 1:  # index 0 has no estimate for either model
                assert rec["weak_p"] == pytest.approx(rec["strong_p"], abs=1e-12)

    def test_degraded_weak_model_trails_strong(self):
        histories, truth = gen_population(seed=4, n_users=12, history_len=8)
        records = [r for r in score_corpus(histories, truth, weak_quality=0.5) if r["index"] >= 2]
        assert np.mean([r["strong_p"] for r in records]) > np.mean([r["weak_p"] for r in records]) + 0.05

    def test_uninformed_weak_model_is_near_chance_on_average(self):
        histories, truth = gen_population(seed=8, n_users=40, history_len=6)
        records = score_corpus(histories, truth, weak_quality=0.0)
        assert abs(np.mean([r["weak_p"] for r in records]) - 0.5) < 0.2


# ---------------------------------------------------------------------------
# simlab-gen against the per-triple reference
# ---------------------------------------------------------------------------


def _reference_item(name, vec):
    return f"{name} [feat " + " ".join(repr(float(x)) for x in vec) + "]"


def _reference_population(seed, n_users, dim, history_len, pair_margin, context_rate, dataset_tag, user_prefix):
    """Draws one triple at a time, each vector a fresh array."""
    histories, truth = [], {}
    for u in range(n_users):
        user_id = f"{user_prefix}{u:04d}"
        rng = np.random.default_rng(derive_seed(seed, "simlab-user", user_prefix, u))
        latent = rng.standard_normal(dim)
        latent /= np.linalg.norm(latent)
        triples = []
        for i in range(history_len):
            gap = pair_margin + 1e-9 + rng.uniform(0.0, 0.5)
            base = 0.5 * rng.standard_normal(dim)
            noise = 0.3 * rng.standard_normal(dim)
            noise -= (noise @ latent) * latent
            pos = base + 0.5 * gap * latent + noise
            neg = base - 0.5 * gap * latent - noise
            context = None
            if rng.uniform() < context_rate:
                context = f"Session {i}: pick the better match for this user."
            triples.append(
                InteractionTriple(
                    index=i,
                    chosen=_reference_item(f"obj-{user_id}-{i}-a", pos),
                    rejected=_reference_item(f"obj-{user_id}-{i}-b", neg),
                    context=context,
                )
            )
        histories.append(UserHistory(user_id=user_id, triples=tuple(triples), dataset_tag=dataset_tag))
        truth[user_id] = latent
    return histories, truth


def _reference_scores(histories, truth, kappa, weak_quality, seed):
    """Scores one triple at a time from the features parsed back out of its text."""
    records = []
    for hist in histories:
        dim = truth[hist.user_id].shape[0]
        rng = np.random.default_rng(derive_seed(seed, "simlab-weak", hist.user_id))
        noise = rng.standard_normal(dim)
        noise /= np.linalg.norm(noise)
        running = np.zeros(dim)
        for t in hist.triples:
            pos, neg = parse_item_features(t.chosen), parse_item_features(t.rejected)
            norm = np.linalg.norm(running)
            strong_est = running / norm if norm > 1e-9 else np.zeros(dim)
            weak_est = weak_quality * strong_est + (1.0 - weak_quality) * noise
            wnorm = np.linalg.norm(weak_est)
            weak_est = weak_est / wnorm if wnorm > 1e-9 else noise
            strong_p = scripted_judge(strong_est, pos, neg, kappa)
            weak_p = scripted_judge(weak_est, pos, neg, kappa)
            records.append({"user_id": hist.user_id, "index": t.index, "strong_p": strong_p, "weak_p": weak_p})
            running = running + (pos - neg)
    return records


def _lines(records) -> bytes:
    return "".join(json_dumps(r) + "\n" for r in records).encode()


class TestSimlabGenMatchesReference:
    SEED, USERS, HISTORY_LEN = 41, 6, 7

    @pytest.mark.parametrize(
        "flags",
        [
            [],
            # weak_quality 1 with no evidence yet takes the weak model's noise fallback
            ["--dim", "5", "--context-rate", "1.0", "--weak-quality", "1.0", "--margin", "0.8", "--kappa", "3"],
            ["--context-rate", "0.0", "--weak-quality", "0.0"],
        ],
    )
    def test_files_equal_the_reference_bytes(self, tmp_path, flags):
        argv = ["--users", str(self.USERS), "--history-len", str(self.HISTORY_LEN), *flags]
        assert main(["--seed", str(self.SEED), "simlab-gen", "--out-dir", str(tmp_path), *argv]) == 0
        opt = {"dim": 8, "margin": 0.5, "context_rate": 0.5, "kappa": 8.0, "weak_quality": 0.5}
        opt.update({flag[2:].replace("-", "_"): float(value) for flag, value in zip(flags[::2], flags[1::2])})
        seed = derive_seed(self.SEED, "simlab-gen")
        histories, truth = _reference_population(
            seed, self.USERS, int(opt["dim"]), self.HISTORY_LEN, opt["margin"], opt["context_rate"], "simlab", "u"
        )
        scores = _reference_scores(histories, truth, opt["kappa"], opt["weak_quality"], seed)
        expected = {
            "histories.jsonl": _lines(h.to_dict() for h in histories),
            "truth.jsonl": _lines({"user_id": uid, "latent": vec.tolist()} for uid, vec in truth.items()),
            "scores.jsonl": _lines(scores),
        }
        for name, data in expected.items():
            assert (tmp_path / name).read_bytes() == data, name

        # score_corpus parses the rendered features back and scores them the same way
        gen_args = (seed, self.USERS, int(opt["dim"]), self.HISTORY_LEN, opt["margin"], opt["context_rate"])
        rows = score_corpus(*gen_population(*gen_args), kappa=opt["kappa"], weak_quality=opt["weak_quality"], seed=seed)
        assert _lines(rows) == expected["scores.jsonl"]


def test_truth_round_trip(tmp_path):
    _, truth = gen_population(seed=6, n_users=3, dim=4, history_len=2)
    path = str(tmp_path / "truth.jsonl")
    assert write_jsonl(path, (truth_record(uid, vec) for uid, vec in truth.items())) == 3
    loaded = load_truth(path)
    assert set(loaded) == set(truth)
    assert all(np.array_equal(loaded[k], truth[k]) for k in truth)


def test_truth_rejects_a_repeated_user(tmp_path):
    path = tmp_path / "truth.jsonl"
    path.write_text('{"user_id": "u0", "latent": [1.0]}\n{"user_id": "u0", "latent": [0.5]}\n')
    with pytest.raises(ValidationError, match="duplicate record for user 'u0'"):
        load_truth(str(path))


# ---------------------------------------------------------------------------
# Scripted generator
# ---------------------------------------------------------------------------


class TestScriptedGenerator:
    def setup_method(self):
        self.histories, self.truth = gen_population(seed=21, n_users=3, dim=4, history_len=6)
        self.latent = self.truth["u0000"]

    def gen(self, **kw):
        args = {"seed": 13, "quality": 1.0, "truth": self.truth, "dim": 4}
        args.update(kw)
        return ScriptedGeneratorBackend(**args)

    def summary_estimate(self, backend, prompt, meta=None):
        client = client_for(backend)
        result = client.generate_summary(prompt, meta=meta)
        assert result.reasoning
        est = parse_estimate(result.summary)
        assert est is not None
        return est

    def test_perfect_quality_reproduces_latent(self):
        est = self.summary_estimate(self.gen(), "any prompt", meta={"user_id": "u0000"})
        assert np.allclose(est, self.latent, atol=1e-12)

    def test_invert_flips_direction(self):
        est = self.summary_estimate(self.gen(invert=True), "any prompt", meta={"user_id": "u0000"})
        assert np.allclose(est, -self.latent, atol=1e-12)

    def test_zero_quality_ignores_latent(self):
        a = self.summary_estimate(self.gen(quality=0.0), "prompt one", meta={"user_id": "u0000"})
        b = self.summary_estimate(self.gen(quality=0.0), "prompt two", meta={"user_id": "u0000"})
        assert abs(np.linalg.norm(a) - 1.0) < 1e-9
        assert not np.allclose(a, b)

    def test_deterministic_replies(self):
        p = "same prompt"
        r1 = self.gen(quality=0.3).complete(p, max_tokens=64, temperature=1.0, seed=5)
        r2 = self.gen(quality=0.3).complete(p, max_tokens=64, temperature=1.0, seed=5)
        r3 = self.gen(quality=0.3).complete(p, max_tokens=64, temperature=1.0, seed=6)
        assert r1 == r2
        assert r1.text != r3.text

    def test_falls_back_to_prompt_signal(self):
        # no truth, no meta: the estimate comes from the rendered feature diffs
        hist = self.histories[0]
        prompt = render_generation_prompt(render_history_block(hist.triples))
        est = self.summary_estimate(self.gen(truth=None), prompt)
        total = sum(
            (parse_item_features(t.chosen) - parse_item_features(t.rejected) for t in hist.triples),
            np.zeros(4),
        )
        assert np.allclose(est, total / np.linalg.norm(total), atol=1e-12)

    def test_merge_prompt_averages_candidate_estimates(self):
        merged = render_merge_prompt(
            [(None, render_estimate([1.0, 0.0])), ("r", render_estimate([0.0, 1.0]))]
        )
        est = self.summary_estimate(self.gen(), merged)
        assert np.allclose(est, [math.sqrt(0.5), math.sqrt(0.5)], atol=1e-12)

    def test_quality_bounds(self):
        with pytest.raises(ValidationError):
            ScriptedGeneratorBackend(seed=1, quality=1.5)
        with pytest.raises(ValidationError):
            ScriptedGeneratorBackend(seed=1, quality=-0.1)


# ---------------------------------------------------------------------------
# Scripted judge
# ---------------------------------------------------------------------------


class TestScriptedJudgeBackend:
    def judge_prompt(self, est_vec, a_feats, b_feats):
        return render_judge_prompt(
            render_estimate(est_vec), None, render_item("a", a_feats), render_item("b", b_feats)
        )

    def test_logprobs_encode_oracle_probability(self):
        backend = ScriptedJudgeBackend(kappa=8.0)
        prompt = self.judge_prompt([1.0, 0.0], [0.5, 0.3], [0.0, 0.3])
        lp_a, lp_b = backend.choice_logprobs(prompt, ("Item A", "Item B"))
        assert abs(math.exp(lp_a) - SIG4) < 1e-12
        assert abs(math.exp(lp_b) - (1.0 - SIG4)) < 1e-12

    def test_client_judge_matches_oracle(self):
        client = client_for(ScriptedJudgeBackend(kappa=8.0))
        verdict = client.judge_pair(
            render_estimate([1.0, 0.0]), None, render_item("a", [0.5, 0.3]), render_item("b", [0.0, 0.3])
        )
        assert client.stats["attempts"] == 2  # both orders, each from its label logprobs
        assert abs(verdict.prob_first - SIG4) < 1e-9

    def test_argmax_completion(self):
        backend = ScriptedJudgeBackend()
        win = backend.complete(self.judge_prompt([1.0, 0.0], [1.0, 0.0], [0.0, 0.0]), max_tokens=8, temperature=0.0)
        lose = backend.complete(self.judge_prompt([1.0, 0.0], [0.0, 0.0], [1.0, 0.0]), max_tokens=8, temperature=0.0)
        assert win.text == '{"selection": "Item A"}'
        assert lose.text == '{"selection": "Item B"}'

    def test_sample_only_forces_sampling_path(self):
        client = client_for(ScriptedJudgeBackend(logprob_support=False), judge_samples=4)
        verdict = client.judge_pair(
            render_estimate([1.0, 0.0]), None, render_item("a", [2.0, 0.0]), render_item("b", [-2.0, 0.0])
        )
        assert client.stats["attempts"] == 2 * (1 + 4)  # per order: no label logprobs, then k samples
        assert verdict.prob_first == 1.0  # argmax completions all agree

    def test_sample_mode_frequency_tracks_probability(self):
        backend = ScriptedJudgeBackend(seed=3, mode="sample")
        prompt = self.judge_prompt([1.0, 0.0], [0.05, 0.0], [-0.05, 0.0])  # p ~ sigmoid(0.8) ~ 0.69
        picks = [
            backend.complete(prompt, max_tokens=8, temperature=1.0, seed=i).text for i in range(300)
        ]
        freq = sum('"Item A"' in t for t in picks) / len(picks)
        assert abs(freq - sigmoid(0.8)) < 0.1

    def test_mode_validation(self):
        with pytest.raises(ValidationError):
            ScriptedJudgeBackend(mode="greedy")


# ---------------------------------------------------------------------------
# Scripted embedder
# ---------------------------------------------------------------------------


class TestScriptedEmbedder:
    def test_history_embedding_tracks_preference_direction(self):
        histories, truth = gen_population(seed=31, n_users=2, dim=6, history_len=8)
        backend = ScriptedEmbedderBackend(dim=6)
        for hist in histories:
            vec = np.array(backend.embed(render_history_block(hist.triples)))
            assert abs(np.linalg.norm(vec) - 1.0) < 1e-9
            assert float(vec @ truth[hist.user_id]) > 0.5

    def test_featureless_text_gets_stable_direction(self):
        backend = ScriptedEmbedderBackend(dim=5)
        v1, v2 = backend.embed("plain text"), backend.embed("plain text")
        assert v1 == v2
        assert abs(np.linalg.norm(v1) - 1.0) < 1e-9

    def test_rejects_text_operations(self):
        backend = ScriptedEmbedderBackend()
        with pytest.raises(CapabilityError):
            backend.complete("p", max_tokens=1, temperature=0.0)
        with pytest.raises(CapabilityError):
            backend.score("p", "r")


@pytest.mark.parametrize(
    "backend", [ScriptedGeneratorBackend(seed=0, quality=1.0), ScriptedJudgeBackend()], ids=["generator", "judge"]
)
def test_scripted_backends_score_no_text(backend):
    with pytest.raises(CapabilityError, match="does not score text"):
        backend.score("p", "r")


# ---------------------------------------------------------------------------
# Endpoint URL registration
# ---------------------------------------------------------------------------


class TestMockKinds:
    def test_generator_kind_with_truth_file(self, tmp_path):
        _, truth = gen_population(seed=41, n_users=2, dim=4, history_len=2)
        path = str(tmp_path / "truth.jsonl")
        write_jsonl(path, (truth_record(uid, vec) for uid, vec in truth.items()))
        backend = build_backend(ModelEndpoint(base_url=f"mock:generator?quality=1&seed=2&truth={path}&dim=4"))
        assert isinstance(backend, ScriptedGeneratorBackend)
        assert backend.quality == 1.0
        assert np.array_equal(backend.truth["u0000"], truth["u0000"])

    def test_judge_kind_params(self):
        backend = build_backend(ModelEndpoint(base_url="mock:judge?kappa=4&sample_only=1&mode=sample"))
        assert isinstance(backend, ScriptedJudgeBackend)
        assert backend.kappa == 4.0
        assert not backend.logprob_support
        assert backend.mode == "sample"

    def test_embedder_kind(self):
        backend = build_backend(ModelEndpoint(base_url="mock:embedder?dim=3"))
        assert isinstance(backend, ScriptedEmbedderBackend)
        assert len(backend.embed("x")) == 3

    def test_kinds_resolve_without_importing_simlab_first(self):
        code = (
            "import sys\n"
            "from prefpipe.modelio import ModelEndpoint, build_backend\n"
            "assert 'prefpipe.simlab' not in sys.modules\n"
            "print(type(build_backend(ModelEndpoint(base_url='mock:judge'))).__name__)\n"
        )
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "ScriptedJudgeBackend"
