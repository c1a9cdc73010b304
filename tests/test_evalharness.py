import json
import logging

import pytest

from prefpipe._util import Tally, read_records, sha256_file, write_jsonl
from prefpipe.core import InteractionTriple, PreferenceSummary, UserHistory, load_histories
from prefpipe.errors import BackendError, ValidationError
from prefpipe.evalharness import (
    EvalInstance,
    EvalReport,
    evaluate_selection,
    format_reports,
    holdout_instances,
    iter_holdout,
    rescore,
)
from prefpipe.modelio import ModelClient, ModelEndpoint, ScriptBackend
from prefpipe.simlab import ScriptedJudgeBackend, gen_population, render_estimate


def client_for(backend, **kw):
    return ModelClient(ModelEndpoint(base_url="mock:generator", **kw), backend=backend, sleep=lambda s: None)


def reply_client(fn):
    """Downstream client whose reply is fn(call_number, prompt)."""
    calls = {"n": 0}

    def completer(prompt, ctx):
        n = calls["n"]
        calls["n"] += 1
        return fn(n, prompt)

    return client_for(ScriptBackend(completer=completer))


class LabEval:
    def setup_method(self):
        self.histories, self.truth = gen_population(seed=91, n_users=8, history_len=6)
        self.trimmed, self.instances = holdout_instances(self.histories)
        self.summaries = {
            uid: PreferenceSummary(text=render_estimate(vec), covers=(0, 5)) for uid, vec in self.truth.items()
        }

    def oracle_judge(self):
        return client_for(ScriptedJudgeBackend(kappa=8.0))


class TestEvalInstance:
    def test_validation(self):
        with pytest.raises(ValidationError):
            EvalInstance(user_id="u1", item_a="x", item_b="y", truth="C")
        with pytest.raises(ValidationError):
            EvalInstance(user_id="u1", item_a="", item_b="y", truth="A")

    def test_round_trip(self, tmp_path):
        instances = [
            EvalInstance(user_id="u1", item_a="x", item_b="y", truth="B", context="q", origin="holdout"),
            EvalInstance(user_id="u2", item_a="p", item_b="q", truth="A"),
        ]
        path = str(tmp_path / "instances.jsonl")
        assert write_jsonl(path, (i.to_dict() for i in instances)) == 2
        assert list(read_records(path, EvalInstance)) == instances


class TestEvaluateSelection(LabEval):
    def test_omniscient_summaries_score_perfectly(self):
        report, outcomes = evaluate_selection(self.oracle_judge(), self.summaries, self.instances, seed=3)
        assert report.n == len(self.instances) == 8
        assert report.correct == 8
        assert report.accuracy == 1.0
        assert report.parse_failures == 0
        assert report.call_failures == 0
        assert all(o.correct and not o.failed for o in outcomes)

    def test_presentation_order_varies_and_is_label_free(self):
        _, outcomes = evaluate_selection(self.oracle_judge(), self.summaries, self.instances, seed=3, label="x")
        _, outcomes2 = evaluate_selection(self.oracle_judge(), self.summaries, self.instances, seed=3, label="y")
        assert {o.swapped for o in outcomes} == {True, False}
        assert outcomes == outcomes2
        _, outcomes3 = evaluate_selection(self.oracle_judge(), self.summaries, self.instances, seed=4)
        assert [o.swapped for o in outcomes] != [o.swapped for o in outcomes3]

    def test_swap_mapping_scores_against_stored_truth(self):
        # a judge that always says "Item A" is right exactly when no swap happened
        constant = reply_client(lambda n, p: '{"selection": "Item A"}')
        report, outcomes = evaluate_selection(constant, self.summaries, self.instances, seed=3)
        assert report.correct == sum(1 for o in outcomes if not o.swapped)
        for o in outcomes:
            assert o.parsed == "A"
            assert o.correct == (not o.swapped)

    def test_unparseable_replies_count_incorrect(self):
        noisy = reply_client(lambda n, p: "no idea" if n % 2 == 0 else '{"selection": "Item A"}')
        report, outcomes = evaluate_selection(noisy, self.summaries, self.instances, seed=3)
        assert report.n == 8
        assert report.parse_failures == 4
        assert all(not o.correct for o in outcomes if o.parsed is None)
        assert report.correct <= 4

    def test_call_failures_count_incorrect(self, caplog):
        def fn(n, prompt):
            if n < 3:
                raise BackendError("offline", retryable=False)
            return '{"selection": "Item A"}'

        skipped = Tally()
        report, outcomes = evaluate_selection(reply_client(fn), self.summaries, self.instances, seed=3, skipped=skipped)
        with caplog.at_level(logging.WARNING, logger="prefpipe.evalharness"):
            skipped.log(logging.getLogger("prefpipe.evalharness"), logging.WARNING, "item(s) skipped")
        assert [r.getMessage() for r in caplog.records if r.name == "prefpipe.evalharness"] == [
            f"3 item(s) skipped (BackendError), first: instance 0 ({self.instances[0].user_id}): offline"
        ]
        assert report.call_failures == 3
        assert sum(1 for o in outcomes if o.failed) == 3
        assert all(o.reply is None and not o.correct for o in outcomes if o.failed)
        assert report.parse_failures == 0  # failed calls are not parse failures

    def test_users_without_summaries_are_dropped(self):
        summaries = dict(self.summaries)
        dropped_user = self.instances[0].user_id
        del summaries[dropped_user]
        skipped = Tally()
        report, outcomes = evaluate_selection(self.oracle_judge(), summaries, self.instances, seed=3, skipped=skipped)
        assert report.n == 7
        assert skipped.counts() == {"no summary": 1}
        assert dropped_user not in {o.instance.user_id for o in outcomes}

    def test_strict_mode_rejects_noisy_json(self):
        noisy = reply_client(lambda n, p: 'sure: {"selection": "Item A"}')
        lax, _ = evaluate_selection(noisy, self.summaries, self.instances, seed=3)
        strict, _ = evaluate_selection(noisy, self.summaries, self.instances, seed=3, strict=True)
        assert lax.parse_failures == 0
        assert strict.parse_failures == 8
        assert strict.correct == 0


class TestRescore(LabEval):
    def test_rescore_reproduces_online_report(self):
        def fn(n, prompt):
            if n == 0:
                raise BackendError("down", retryable=False)
            if n == 1:
                return "garbled"
            return '{"selection": "Item A"}'

        report, outcomes = evaluate_selection(reply_client(fn), self.summaries, self.instances, seed=3)
        replayed = rescore(outcomes)
        assert replayed.label == "rescore"
        assert (replayed.n, replayed.correct) == (report.n, report.correct)
        assert replayed.parse_failures == report.parse_failures == 1
        assert replayed.call_failures == report.call_failures == 1

    def test_rescore_can_tighten_parsing(self):
        noisy = reply_client(lambda n, p: 'reply: {"selection": "Item B"}')
        _, outcomes = evaluate_selection(noisy, self.summaries, self.instances, seed=3)
        strict = rescore(outcomes, strict=True)
        assert strict.parse_failures == 8
        assert strict.correct == 0


class TestHoldout(LabEval):
    def test_splits_last_pair_from_each_history(self):
        assert len(self.trimmed) == len(self.instances) == 8
        for hist, trimmed, inst in zip(self.histories, self.trimmed, self.instances):
            last = hist.triples[-1]
            assert len(trimmed) == len(hist) - 1
            assert trimmed.triples == hist.triples[:-1]
            assert (inst.item_a, inst.item_b) == (last.chosen, last.rejected)
            assert inst.truth == "A"
            assert inst.origin == "holdout"
            assert inst.context == last.context

    def test_unusable_histories_are_dropped(self):
        single = UserHistory(user_id="short", triples=(InteractionTriple(index=0, chosen="c", rejected="r"),))
        pairless_last = UserHistory(
            user_id="bare",
            triples=(
                InteractionTriple(index=0, chosen="c0", rejected="r0"),
                InteractionTriple(index=1, chosen="c1", rejected=None),
            ),
        )
        trimmed, instances = holdout_instances([single, pairless_last, self.histories[0]])
        assert [h.user_id for h in trimmed] == [self.histories[0].user_id]
        assert len(instances) == 1

    def test_dropped_users_are_logged_once_per_reason(self, caplog):
        short = [UserHistory(user_id=f"short{i}", triples=(InteractionTriple(index=0, chosen="c", rejected="r"),))
                 for i in range(3)]
        bare = UserHistory(
            user_id="bare",
            triples=(InteractionTriple(index=0, chosen="c0", rejected="r0"), InteractionTriple(index=1, chosen="c1")),
        )
        skipped = Tally()
        with caplog.at_level(logging.DEBUG, logger="prefpipe"):
            held = list(iter_holdout([*short, bare, self.histories[0]], skipped))
            assert not caplog.records  # the stage that passed the tally logs it
            skipped.log(logging.getLogger("prefpipe.cli"), logging.WARNING, "item(s) skipped")
        assert [trimmed.user_id for trimmed, _ in held] == [self.histories[0].user_id]
        assert skipped.counts() == {"fewer than 2 interactions": 3, "last interaction has no rejected item": 1}
        assert [r.getMessage() for r in caplog.records] == [
            "3 item(s) skipped (fewer than 2 interactions), first: user short0",
            "1 item(s) skipped (last interaction has no rejected item), first: user bare",
        ]


def test_streamed_and_full_summaries_score_alike(tmp_path):
    """Comparing full-history with streamed inference is ``evaluate`` run on
    the summaries of ``stream-infer --chunks 1`` and ``--chunks k``: both
    runs ask the same questions in the same order, and a generator that
    reproduces each user's preference scores perfectly either way."""
    from prefpipe.cli import main

    lab = tmp_path / "lab"
    assert main(["simlab-gen", "--out-dir", str(lab), "--users", "8", "--history-len", "6"]) == 0
    trimmed, instances = holdout_instances(load_histories(str(lab / "histories.jsonl")))
    write_jsonl(str(tmp_path / "trimmed.jsonl"), (h.to_dict() for h in trimmed))
    write_jsonl(str(tmp_path / "instances.jsonl"), (i.to_dict() for i in instances))
    (tmp_path / "gen.json").write_text(json.dumps({"base_url": f"mock:generator?truth={lab / 'truth.jsonl'}&quality=1.0"}))
    (tmp_path / "judge.json").write_text(json.dumps({"base_url": "mock:judge?kappa=8"}))
    reports = {}
    for chunks, label in (("1", "full-history"), ("2", "streaming")):
        state_dir = tmp_path / f"chunks{chunks}"
        assert main([
            "stream-infer", "--histories", str(tmp_path / "trimmed.jsonl"), "--generator", str(tmp_path / "gen.json"),
            "--chunks", chunks, "--state-dir", str(state_dir),
        ]) == 0
        assert main([
            "evaluate", "--summaries", str(state_dir / "summaries.jsonl"), "--instances", str(tmp_path / "instances.jsonl"),
            "--downstream", str(tmp_path / "judge.json"), "--label", label,
            "--out", str(state_dir / "report.json"), "--outcomes", str(state_dir / "outcomes.jsonl"),
        ]) == 0
        reports[label] = json.loads((state_dir / "report.json").read_text())
    full, streaming = reports["full-history"], reports["streaming"]
    assert {**full, "label": "streaming"} == streaming
    assert full["n"] == 8 and full["accuracy"] == 1.0
    assert sha256_file(str(tmp_path / "chunks1" / "outcomes.jsonl")) == sha256_file(str(tmp_path / "chunks2" / "outcomes.jsonl"))


def test_format_reports_table():
    reports = [
        EvalReport(label="full-history", n=40, correct=36, accuracy=0.9, parse_failures=1, call_failures=0),
        EvalReport(label="streaming", n=40, correct=33, accuracy=0.825, parse_failures=2, call_failures=1),
    ]
    table = format_reports(reports)
    lines = table.splitlines()
    assert len(lines) == 4
    assert lines[0].split() == ["label", "n", "correct", "accuracy", "parse_fail", "call_fail"]
    assert "full-history" in lines[2] and "0.9000" in lines[2]
    assert "streaming" in lines[3] and "0.8250" in lines[3]
