import collections
import contextlib
import itertools
import json
import os
import shlex
import subprocess
import sys
import threading
import time
import weakref

import pytest
import yaml

from prefpipe import core
from prefpipe._util import json_dumps, read_records, sha256_file
from prefpipe.cli import build_parser, main


def run(*argv, seed=7):
    return main(["--seed", str(seed), *argv])


def write_yaml(path, data):
    with open(path, "w", encoding="utf-8") as fh:
        yaml.safe_dump(data, fh)
    return str(path)


def manifest_for(path):
    with open(f"{path}.manifest.json", encoding="utf-8") as fh:
        return json.load(fh)


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """One full CLI pass: corpus -> sft -> prune -> rollout, plus the transfer
    and evaluation stages on a pair of smaller corpora."""
    root = tmp_path_factory.mktemp("cli-chain")
    lab = root / "lab"
    paths = {
        "root": root,
        "lab": lab,
        "histories": str(lab / "histories.jsonl"),
        "truth": str(lab / "truth.jsonl"),
        "scores": str(lab / "scores.jsonl"),
        "sft": str(root / "sft.jsonl"),
        "instances": str(root / "instances.jsonl"),
        "batch": str(root / "batch.jsonl"),
        "batch2": str(root / "batch2.jsonl"),
        "cross": str(root / "cross.jsonl"),
        "combined": str(root / "combined.jsonl"),
        "fused": str(root / "fused.jsonl"),
        "provenance": str(root / "provenance.jsonl"),
        "positive": str(root / "positive.jsonl"),
        "report": str(root / "report.json"),
        "outcomes": str(root / "outcomes.jsonl"),
        "stream": str(root / "stream"),
    }
    assert run("simlab-gen", "--out-dir", str(lab), "--users", "12") == 0

    synth_cfg = write_yaml(root / "synth.yaml", {
        "generator": {"base_url": f"mock:generator?truth={paths['truth']}"},
        "judge": {"base_url": "mock:judge?kappa=8"},
    })
    # the default tractability cutoff is meant for long mature histories; the
    # 12-step corpus needs a looser one or every first segment is skipped
    assert run(
        "synthesize-sft", "--histories", paths["histories"], "--scores", paths["scores"],
        "--config", synth_cfg, "--out", paths["sft"], "--tau-tract", "0.3",
    ) == 0

    prune_cfg = write_yaml(root / "prune.yaml", {"alpha": 0.2, "tract_low": 0.55, "tract_high": 0.98})
    assert run(
        "prune", "--scores", paths["scores"], "--config", prune_cfg,
        "--alpha", "0.6", "--out", paths["instances"],
    ) == 0

    rollout_cfg = write_yaml(root / "rollout.yaml", {
        "policy": {"base_url": f"mock:generator?truth={paths['truth']}&quality=1.0"},
        "judge": {"base_url": "mock:judge?kappa=8"},
    })
    for out in (paths["batch"], paths["batch2"]):
        assert run(
            "rollout", "--instances", paths["instances"], "--histories", paths["histories"],
            "--config", rollout_cfg, "--gamma", "0.5", "--out", out,
        ) == 0

    lab_a, lab_b = root / "labA", root / "labB"
    for out_dir, prefix in ((lab_a, "ua"), (lab_b, "ub")):
        assert run(
            "simlab-gen", "--out-dir", str(out_dir), "--users", "6",
            "--history-len", "6", "--user-prefix", prefix, seed=11,
        ) == 0
    merged_truth = root / "truth-ab.jsonl"
    merged_truth.write_text(
        (lab_a / "truth.jsonl").read_text() + (lab_b / "truth.jsonl").read_text()
    )
    embedder = write_yaml(root / "embedder.yaml", {"base_url": "mock:embedder"})
    generator = write_yaml(root / "generator.yaml", {"base_url": f"mock:generator?truth={merged_truth}"})
    judge = write_yaml(root / "judge.yaml", {"base_url": "mock:judge?kappa=8"})

    assert run(
        "build-transfer", "--mode", "cross-domain",
        "--histories-a", str(lab_a / "histories.jsonl"), "--histories-b", str(lab_b / "histories.jsonl"),
        "--embedder", embedder, "--top-k", "4",
        "--out", paths["cross"], "--out-histories", paths["combined"],
    ) == 0
    assert run(
        "stream-infer", "--histories", paths["combined"], "--generator", generator,
        "--chunks", "2", "--state-dir", paths["stream"],
    ) == 0
    assert run(
        "build-transfer", "--mode", "multi-interest",
        "--histories", str(lab_a / "histories.jsonl"), "--donors", str(lab_b / "histories.jsonl"),
        "--intensity", "0.3", "--out", paths["fused"], "--provenance", paths["provenance"],
    ) == 0
    assert run(
        "build-transfer", "--mode", "positive-only",
        "--histories", str(lab_a / "histories.jsonl"), "--out", paths["positive"],
    ) == 0
    assert run(
        "evaluate", "--summaries", os.path.join(paths["stream"], "summaries.jsonl"),
        "--instances", paths["cross"], "--downstream", judge,
        "--out", paths["report"], "--outcomes", paths["outcomes"],
    ) == 0
    return paths


class TestPipelineChain:
    def test_corpus_manifest(self, pipeline):
        with open(pipeline["lab"] / "manifest.json", encoding="utf-8") as fh:
            manifest = json.load(fh)
        assert manifest["command"] == "simlab-gen"
        assert manifest["seed"] == 7
        assert manifest["stats"] == {"users": 12, "score_rows": 144, "skipped_by_reason": {}}
        assert set(manifest) >= {"config", "config_digest", "inputs", "outputs", "started_at", "finished_at"}
        for path, digest in manifest["outputs"].items():
            assert sha256_file(path) == digest

    def test_sft_records_written(self, pipeline):
        records = list(read_records(pipeline["sft"], dict))
        manifest = manifest_for(pipeline["sft"])
        assert manifest["stats"]["users_in"] == 12
        assert manifest["stats"]["records"] == len(records) > 0
        assert 0 < manifest["stats"]["users_with_records"] <= 12
        assert manifest["config"]["tau_tract"] == 0.3
        assert all(rec["accuracy"] >= 0.8 for rec in records)

    def test_teacher_defaults_to_the_generator_client(self, pipeline, tmp_path, monkeypatch):
        """Without a teacher section the generator's client merges too, so its
        endpoint sees at most one max_in_flight; the records are unchanged."""
        from prefpipe import synthpipe

        seen = {}
        real = synthpipe.run_corpus

        def spy(histories, tract, generator, judge, teacher, config, **kwargs):
            seen.update(generator=generator, teacher=teacher)
            return real(histories, tract, generator, judge, teacher, config, **kwargs)

        monkeypatch.setattr(synthpipe, "run_corpus", spy)
        out = str(tmp_path / "sft.jsonl")
        assert run(
            "synthesize-sft", "--histories", pipeline["histories"], "--scores", pipeline["scores"],
            "--config", str(pipeline["root"] / "synth.yaml"), "--out", out, "--tau-tract", "0.3",
        ) == 0
        assert seen["teacher"] is seen["generator"]
        assert sha256_file(out) == sha256_file(pipeline["sft"])
        assert sorted(manifest_for(out)["telemetry"]) == ["generator", "judge"]  # the one client counted once

    def test_prune_flag_overrides_config_file(self, pipeline):
        manifest = manifest_for(pipeline["instances"])
        assert manifest["config"]["alpha"] == 0.6
        assert manifest["config"]["tract_low"] == 0.55
        instances = list(read_records(pipeline["instances"], dict))
        assert manifest["stats"]["instances"] == len(instances) > 0
        assert all(inst["k1"] < inst["k2"] for inst in instances)

    def test_knob_precedence_flag_file_preset_default(self, pipeline, tmp_path):
        cfg = write_yaml(tmp_path / "prune.yaml", {"alpha": 0.3, "tract_high": 1})
        out = str(tmp_path / "instances.jsonl")
        assert run(
            "prune", "--scores", pipeline["scores"], "--preset", "amazon", "--config", cfg,
            "--alpha", "0.5", "--out", out,
        ) == 0
        config = manifest_for(out)["config"]
        assert config == {"alpha": 0.5, "tract_low": 0.5, "tract_high": 1, "tail_fraction": 1.0, "tail_side": "hardest"}
        assert type(config["tract_high"]) is int  # recorded as written

    def test_kept_scores_are_a_scores_input(self, pipeline, tmp_path):
        """``--keep-scores`` writes the kept points' sidecar lines, so pruning
        that file with a filter that keeps every point gives the same instances."""
        kept, again = str(tmp_path / "kept.jsonl"), str(tmp_path / "instances.jsonl")
        assert run(
            "prune", "--scores", pipeline["scores"], "--config", str(pipeline["root"] / "prune.yaml"),
            "--alpha", "0.6", "--out", str(tmp_path / "first.jsonl"), "--keep-scores", kept,
        ) == 0
        assert run("prune", "--scores", kept, "--alpha", "1", "--tract-low", "0", "--tract-high", "1", "--out", again) == 0
        assert sha256_file(again) == sha256_file(pipeline["instances"])
        assert manifest_for(again)["stats"]["scores_in"] == manifest_for(pipeline["instances"])["stats"]["kept"]

    def test_output_named_like_a_manifest_keeps_its_own_manifest(self, pipeline, tmp_path, capsys):
        out = str(tmp_path / "run.manifest.json")
        assert run(
            "prune", "--scores", pipeline["scores"], "--alpha", "0.6", "--tract-low", "0.55",
            "--tract-high", "0.98", "--out", out,
        ) == 0
        assert sha256_file(out) == sha256_file(pipeline["instances"])
        assert manifest_for(out)["outputs"] == {out: sha256_file(out)}
        assert sorted(os.listdir(tmp_path)) == ["run.manifest.json", "run.manifest.json.manifest.json"]

    def test_every_output_is_strict_json(self, pipeline, capsys):
        """No output, manifest or printed line of the chain holds NaN or
        ±inf, which JSON does not have; clipping off prints as null."""

        def strict(text):
            return json.loads(text, parse_constant=lambda name: pytest.fail(f"non-JSON constant {name}"))

        assert run("loss-check", "--batch", pipeline["batch"], "--self-check", "--clip-eps", "inf") == 0
        assert strict(capsys.readouterr().out.strip().splitlines()[-1])["clip_eps"] is None
        checked = []
        for folder, _, names in os.walk(pipeline["root"]):
            for name in names:
                if name.endswith((".json", ".jsonl")):
                    with open(os.path.join(folder, name), encoding="utf-8") as fh:
                        lines = [fh.read()] if name.endswith(".json") else fh.readlines()
                    checked += [strict(line) for line in lines]
        assert len(checked) > 100

    def test_rollout_is_reproducible(self, pipeline):
        assert sha256_file(pipeline["batch"]) == sha256_file(pipeline["batch2"])
        manifest = manifest_for(pipeline["batch"])
        assert manifest["stats"]["trees"] > 0
        assert manifest["stats"]["records"] == len(list(read_records(pipeline["batch"], dict)))

    def test_loss_check_self_ratio_is_zero(self, pipeline, capsys):
        assert run("loss-check", "--batch", pipeline["batch"], "--self-check") == 0
        out = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert abs(out["loss"]) < 1e-9
        assert out["records"] == len(list(read_records(pipeline["batch"], dict)))
        assert out["clip_eps"] == 0.2

    def test_cross_domain_instances(self, pipeline):
        instances = list(read_records(pipeline["cross"], dict))
        assert len(instances) == 8  # top 4 pairs, both swap directions
        assert {i["origin"] for i in instances} == {"cross-swap"}
        combined = core.load_histories(pipeline["combined"])
        assert len(combined) == 12
        assert all(len(h) == 5 for h in combined)  # holdout trims one pair

    def test_stream_outputs(self, pipeline):
        states = list(read_records(os.path.join(pipeline["stream"], "states.jsonl"), dict))
        assert len(states) == 12
        assert all(len(s["lineage"]) == 2 for s in states)
        summaries = core.load_summaries(os.path.join(pipeline["stream"], "summaries.jsonl"))
        assert len(summaries) == 12

    def test_multi_interest_injection(self, pipeline):
        fused = core.load_histories(pipeline["fused"])
        assert all(len(h) == 9 for h in fused)  # n=6 at intensity 0.3 adds 3
        for row in read_records(pipeline["provenance"], dict):
            assert len(row["injected_positions"]) == 3
            assert row["donor_user"].startswith("ub")

    def test_positive_only_strips_rejections(self, pipeline):
        for history in core.load_histories(pipeline["positive"]):
            assert all(t.rejected is None for t in history.triples)

    def test_evaluation_report(self, pipeline):
        with open(pipeline["report"], encoding="utf-8") as fh:
            report = json.load(fh)
        assert report["n"] == 8
        assert report["call_failures"] == 0
        assert report["parse_failures"] == 0
        outcomes = list(read_records(pipeline["outcomes"], dict))
        assert len(outcomes) == 8
        assert sum(o["correct"] for o in outcomes) == report["correct"]
        instances = list(read_records(pipeline["cross"], dict))
        assert len(instances) == 8
        assert manifest_for(pipeline["report"])["stats"] == {**report, "skipped_by_reason": {}}

    def test_sft_with_default_knobs_says_why_it_wrote_nothing(self, pipeline, tmp_path, caplog):
        out = str(tmp_path / "sft.jsonl")
        with caplog.at_level("WARNING", logger="prefpipe.cli"):
            assert run(
                "synthesize-sft", "--histories", pipeline["histories"], "--scores", pipeline["scores"],
                "--config", str(pipeline["root"] / "synth.yaml"), "--out", out,
            ) == 0
        stats = manifest_for(out)["stats"]
        assert stats["records"] == 0
        assert stats["skipped_by_reason"] == {"tractable subset of at most 3 triple(s)": 12}
        lines = [r.getMessage() for r in caplog.records if r.name == "prefpipe.cli"]
        assert lines == [
            "12 item(s) skipped (tractable subset of at most 3 triple(s)), "
            "first: user u0000 segment 0: tractable subset of at most 3 triple(s)"
        ]


class TestDeterminism:
    def test_fanned_out_stages_match_serial_bytes(self, pipeline, tmp_path):
        """stream-infer, cross-domain build-transfer and evaluate at --jobs 4
        write the bytes the fixture's --jobs 1 runs wrote."""
        root = pipeline["root"]
        out = {name: str(tmp_path / name) for name in ("cross.jsonl", "combined.jsonl", "report.json", "outcomes.jsonl")}
        stream = str(tmp_path / "stream")
        assert run(
            "--jobs", "4", "build-transfer", "--mode", "cross-domain",
            "--histories-a", str(root / "labA" / "histories.jsonl"),
            "--histories-b", str(root / "labB" / "histories.jsonl"),
            "--embedder", str(root / "embedder.yaml"), "--top-k", "4",
            "--out", out["cross.jsonl"], "--out-histories", out["combined.jsonl"],
        ) == 0
        assert run(
            "--jobs", "4", "stream-infer", "--histories", out["combined.jsonl"],
            "--generator", str(root / "generator.yaml"), "--chunks", "2", "--state-dir", stream,
        ) == 0
        assert run(
            "--jobs", "4", "evaluate", "--summaries", os.path.join(stream, "summaries.jsonl"),
            "--instances", out["cross.jsonl"], "--downstream", str(root / "judge.yaml"),
            "--out", out["report.json"], "--outcomes", out["outcomes.jsonl"],
        ) == 0
        pairs = [(out[name], pipeline[name.split(".")[0]]) for name in out]
        pairs += [(os.path.join(stream, name), os.path.join(pipeline["stream"], name))
                  for name in ("states.jsonl", "summaries.jsonl")]
        for parallel, serial in pairs:
            assert sha256_file(parallel) == sha256_file(serial), parallel

    def test_decision_only_judging_saves_requests_not_bytes(self, pipeline, tmp_path, monkeypatch):
        """On a judge without label logprobs, synthesize-sft stops sampling an
        order once its verdict is settled: at least 30% fewer judge requests
        than a probe and k samples per order, and the sft.jsonl of sampling
        all k, at --jobs 1 and 2."""
        from prefpipe.modelio import ModelClient

        config = write_yaml(tmp_path / "synth.yaml", {
            "generator": {"base_url": f"mock:generator?truth={pipeline['truth']}"},
            "judge": {"base_url": "mock:judge?sample_only=1", "judge_samples": 8},
        })
        judge_pair = ModelClient.judge_pair

        def synthesize(jobs, name):
            out = str(tmp_path / f"{name}-{jobs}.jsonl")
            assert run(
                "--jobs", str(jobs), "synthesize-sft", "--histories", pipeline["histories"],
                "--scores", pipeline["scores"], "--config", config, "--out", out, "--tau-tract", "0.3",
            ) == 0
            manifest = manifest_for(out)
            assert manifest["stats"]["records"] > 0
            return sha256_file(out), manifest["telemetry"]["judge"]

        digests = set()
        for jobs in (1, 2):
            digest, judge = synthesize(jobs, "early")
            full_k = judge["judge_calls"] * 2 * (1 + 8)
            assert judge["attempts"] <= 0.7 * full_k
            digests.add(digest)
            with monkeypatch.context() as patch:  # the stop rule patched out: every order samples all k
                patch.setattr(ModelClient, "judge_pair", lambda client, *a, decision_only=False, **kw: judge_pair(client, *a, **kw))
                digest, judge = synthesize(jobs, "full")
            assert judge["attempts"] == full_k
            digests.add(digest)
        assert len(digests) == 1

    def test_same_seed_same_corpus(self, tmp_path):
        for name in ("one", "two"):
            assert run("simlab-gen", "--out-dir", str(tmp_path / name), "--users", "4", seed=3) == 0
        digests = []
        for name in ("one", "two"):
            with open(tmp_path / name / "manifest.json", encoding="utf-8") as fh:
                outputs = json.load(fh)["outputs"]
            digests.append({os.path.basename(k): v for k, v in outputs.items()})
        assert digests[0] == digests[1]

    def test_different_seed_different_corpus(self, tmp_path):
        for name, seed in (("one", 3), ("two", 4)):
            assert run("simlab-gen", "--out-dir", str(tmp_path / name), "--users", "4", seed=seed) == 0
        assert sha256_file(str(tmp_path / "one" / "histories.jsonl")) != sha256_file(
            str(tmp_path / "two" / "histories.jsonl")
        )


class TestErrorHandling:
    def test_missing_required_flag_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            run("prune", "--scores", "somewhere.jsonl")
        assert exc.value.code == 2

    @pytest.mark.parametrize("jobs", ["0", "-3"])
    def test_jobs_below_one_is_usage_error(self, tmp_path, capsys, jobs):
        with pytest.raises(SystemExit) as exc:
            run("--jobs", jobs, "simlab-gen", "--out-dir", str(tmp_path / "lab"))
        assert exc.value.code == 2
        assert f"argument --jobs: must be >= 1, got {jobs}" in capsys.readouterr().err
        assert not os.path.exists(tmp_path / "lab")

    @pytest.mark.parametrize(
        "flag, value, problem",
        [
            ("--users", "0", "must be >= 1, got 0"),
            ("--dim", "0", "must be >= 1, got 0"),
            ("--history-len", "0", "must be >= 1, got 0"),
            ("--context-rate", "2", "must be in [0, 1], got 2.0"),
            ("--context-rate", "-0.5", "must be in [0, 1], got -0.5"),
            ("--weak-quality", "3", "must be in [0, 1], got 3.0"),
            ("--weak-quality", "nan", "must be in [0, 1], got nan"),
            ("--kappa", "nan", "must be finite, got nan"),
            ("--kappa", "inf", "must be finite, got inf"),
            ("--margin", "nan", "must be finite, got nan"),
            ("--margin", "0", "must be > 0, got 0.0"),
            ("--margin", "-1", "must be > 0, got -1.0"),
        ],
    )
    def test_simlab_gen_rejects_out_of_range_flags(self, tmp_path, capsys, flag, value, problem):
        assert run("simlab-gen", "--out-dir", str(tmp_path / "lab"), "--users", "2", flag, value) == 1
        err = capsys.readouterr().err
        assert f"error (ValidationError): {flag} {problem}" in err
        assert "Traceback" not in err
        assert not os.path.exists(tmp_path / "lab")

    def test_unknown_config_key(self, tmp_path, capsys):
        cfg = write_yaml(tmp_path / "bad.yaml", {"bogus": 1})
        rc = run(
            "rollout", "--instances", "x.jsonl", "--histories", "y.jsonl",
            "--config", cfg, "--gamma", "0.5", "--out", str(tmp_path / "o.jsonl"),
        )
        assert rc == 1
        err = capsys.readouterr().err
        assert "error (ConfigError)" in err and "bogus" in err

    def test_rollout_has_no_clip(self, tmp_path, capsys):
        """The ratio clip belongs to loss-check alone: rollout takes it
        neither as a flag nor as a config key."""
        argv = [
            "rollout", "--instances", "x.jsonl", "--histories", "y.jsonl",
            "--gamma", "0.5", "--out", str(tmp_path / "o.jsonl"),
        ]
        with pytest.raises(SystemExit) as exc:
            run(*argv, "--config", write_yaml(tmp_path / "ok.yaml", {}), "--clip-eps", "0.1")
        assert exc.value.code == 2
        assert run(*argv, "--config", write_yaml(tmp_path / "bad.yaml", {"clip_eps": 0.1})) == 1
        assert "error (ConfigError): unknown rollout config keys: ['clip_eps']" in capsys.readouterr().err

    def test_prune_without_thresholds(self, tmp_path, capsys):
        rc = run("prune", "--scores", "missing.jsonl", "--out", str(tmp_path / "o.jsonl"))
        assert rc == 1
        assert "prune needs" in capsys.readouterr().err

    def test_rollout_without_gamma(self, tmp_path, capsys):
        cfg = write_yaml(tmp_path / "cfg.yaml", {"policy": {"base_url": "mock:generator"}})
        rc = run(
            "rollout", "--instances", "x.jsonl", "--histories", "y.jsonl",
            "--config", cfg, "--out", str(tmp_path / "o.jsonl"),
        )
        assert rc == 1
        assert "explicit gamma" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command, key, value",
        [
            ("synthesize-sft", "num_segments", "3"),
            ("synthesize-sft", "debias", 1),
            ("prune", "alpha", "0.5"),
            ("rollout", "group_size", 2.5),
            ("rollout", "gamma", True),
        ],
    )
    def test_wrongly_typed_knob_is_config_error(self, pipeline, tmp_path, capsys, command, key, value):
        generator, judge = {"base_url": "mock:generator"}, {"base_url": "mock:judge"}
        out = str(tmp_path / "o.jsonl")
        argv = {
            "synthesize-sft": [
                "synthesize-sft", "--histories", pipeline["histories"], "--scores", pipeline["scores"],
                "--config", write_yaml(tmp_path / "synth.yaml", {"generator": generator, "judge": judge, key: value}),
            ],
            "prune": [
                "prune", "--scores", pipeline["scores"],
                "--config", write_yaml(tmp_path / "prune.yaml", {"tract_low": 0.5, "tract_high": 0.9, key: value}),
            ],
            "rollout": [
                "rollout", "--instances", pipeline["instances"], "--histories", pipeline["histories"],
                "--config", write_yaml(tmp_path / "rollout.yaml", {"policy": generator, "judge": judge, "gamma": 0.5, key: value}),
            ],
        }[command]
        assert run(*argv, "--out", out) == 1
        err = capsys.readouterr().err
        assert f"error (ConfigError): {command} config key '{key}' must be" in err
        assert "Traceback" not in err
        assert not os.path.exists(out)

    @pytest.mark.parametrize(
        "where, key, value",
        [("file", "max_in_flight", 2.5), ("file", "timeout", "abc"), ("section", "timeout", "abc")],
    )
    def test_wrongly_typed_endpoint_field_is_config_error(self, pipeline, tmp_path, capsys, where, key, value):
        endpoint = {"base_url": "mock:generator", key: value}
        if where == "file":
            argv = [
                "stream-infer", "--histories", pipeline["histories"],
                "--generator", write_yaml(tmp_path / "gen.yaml", endpoint), "--state-dir", str(tmp_path / "s"),
            ]
        else:
            argv = [
                "rollout", "--instances", pipeline["instances"], "--histories", pipeline["histories"], "--gamma", "0.5",
                "--config", write_yaml(tmp_path / "cfg.yaml", {"policy": endpoint, "judge": {"base_url": "mock:judge"}}),
                "--out", str(tmp_path / "o.jsonl"),
            ]
        assert run(*argv) == 1
        err = capsys.readouterr().err
        assert f"error (ConfigError): endpoint config key '{key}' must be" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "key, value, message",
        [("body", 5, "extra.body must be"),
         ("completions_echo", True, "unknown endpoint setting extra.completions_echo: extra holds only body"),
         ("top_p", 0.9, "unknown endpoint setting extra.top_p: extra holds only body"),
         # the body is posted as JSON, which has no NaN or ±inf
         ("body", {"top_p": float("nan")}, "extra.body must be strict JSON: "),
         ("body", {"stop": [{"after": float("-inf")}]}, "extra.body must be strict JSON: ")],
    )
    def test_mistyped_extra_field_is_config_error(self, pipeline, tmp_path, capsys, monkeypatch, key, value, message):
        answered = count_requests(monkeypatch)
        generator = write_yaml(tmp_path / "gen.yaml", {"base_url": "mock:generator", "extra": {key: value}})
        argv = ["stream-infer", "--histories", pipeline["histories"], "--generator", generator]
        assert run(*argv, "--state-dir", str(tmp_path / "s")) == 1
        err = capsys.readouterr().err
        assert f"error (ConfigError): {message}" in err
        assert "Traceback" not in err
        assert not answered  # refused before any request

    @pytest.mark.parametrize("command", ["synthesize-sft", "stream-infer"])
    def test_zero_segments_is_validation_error(self, pipeline, tmp_path, capsys, command):
        generator, judge = {"base_url": "mock:generator"}, {"base_url": "mock:judge"}
        argv = {
            "synthesize-sft": [
                "synthesize-sft", "--histories", pipeline["histories"], "--scores", pipeline["scores"],
                "--config", write_yaml(tmp_path / "cfg.yaml", {"generator": generator, "judge": judge}),
                "--num-segments", "0", "--out", str(tmp_path / "o.jsonl"),
            ],
            "stream-infer": [
                "stream-infer", "--histories", pipeline["histories"], "--chunks", "0",
                "--generator", write_yaml(tmp_path / "gen.yaml", generator), "--state-dir", str(tmp_path / "s"),
            ],
        }[command]
        assert run(*argv) == 1
        err = capsys.readouterr().err
        assert "error (ValidationError)" in err and "must be >= 1" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("url", ["mock:judge?kappa=abc", "mock:embedder?dim=x", "mock:judge?seed=1.5"])
    def test_bad_mock_url_parameter_is_config_error(self, pipeline, tmp_path, capsys, url):
        rc = run(
            "evaluate", "--summaries", os.path.join(pipeline["stream"], "summaries.jsonl"),
            "--instances", pipeline["cross"], "--downstream", write_yaml(tmp_path / "judge.yaml", {"base_url": url}),
            "--out", str(tmp_path / "report.json"),
        )
        assert rc == 1
        err = capsys.readouterr().err
        key, value = url.split("?")[1].split("=")
        assert f"error (ConfigError): mock URL parameter {key}={value!r}" in err
        assert "Traceback" not in err

    def test_too_many_chunks_names_the_user(self, pipeline, tmp_path, caplog):
        """A user too short for --chunks is skipped, named in the log and
        counted in the manifest; the full-length users are written."""
        with open(pipeline["histories"], encoding="utf-8") as fh:
            lines = fh.readlines()
        short = json.loads(lines[2])
        short["triples"] = short["triples"][:3]
        corpus = tmp_path / "histories.jsonl"
        corpus.write_text("".join(lines[:2] + [json.dumps(short) + "\n"] + lines[3:]), encoding="utf-8")
        state_dir = tmp_path / "s"
        with caplog.at_level("WARNING", logger="prefpipe.cli"):
            assert run(
                "stream-infer", "--histories", str(corpus), "--chunks", "4",
                "--generator", write_yaml(tmp_path / "gen.yaml", {"base_url": "mock:generator"}),
                "--state-dir", str(state_dir),
            ) == 0
        assert [r.getMessage() for r in caplog.records if r.name == "prefpipe.cli"] == [
            "1 item(s) skipped (ValidationError), first: user u0002: a history of 3 steps cannot be split into 4 chunks"
        ]
        with open(state_dir / "manifest.json", encoding="utf-8") as fh:
            assert json.load(fh)["stats"] == {"users": 11, "skipped_by_reason": {"ValidationError": 1}}
        written = [s["user_id"] for s in read_records(str(state_dir / "summaries.jsonl"), dict)]
        assert written == [f"u{i:04d}" for i in range(12) if i != 2]

    def test_truth_line_without_latent_is_validation_error(self, pipeline, tmp_path, capsys):
        truth = tmp_path / "truth.jsonl"
        truth.write_text('{"user_id": "u0000"}\n', encoding="utf-8")
        cfg = write_yaml(tmp_path / "cfg.yaml", {
            "generator": {"base_url": f"mock:generator?truth={truth}"}, "judge": {"base_url": "mock:judge"},
        })
        rc = run(
            "synthesize-sft", "--histories", pipeline["histories"], "--scores", pipeline["scores"],
            "--config", cfg, "--out", str(tmp_path / "o.jsonl"),
        )
        assert rc == 1
        err = capsys.readouterr().err
        assert f"error (ValidationError): {truth}:1: missing field 'latent'" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("field, value", [("weak_p", -0.2), ("strong_p", 1.5)])
    def test_probability_outside_unit_interval_names_its_line(self, pipeline, tmp_path, capsys, monkeypatch, field, value):
        """A score line whose probability is outside [0, 1] fails prune, and
        synthesize-sft before any model request, naming its line."""
        good = {"index": 0, "strong_p": 0.9, "user_id": "u1", "weak_p": 0.5}
        scores = tmp_path / "scores.jsonl"
        scores.write_text(json_dumps({**good, field: value}) + "\n" + json_dumps({**good, "index": 1}) + "\n", encoding="utf-8")
        answered = count_requests(monkeypatch)
        out = tmp_path / "out.jsonl"
        for argv in (
            ["prune", "--alpha", "1.0", "--tract-low", "0", "--tract-high", "1"],
            ["synthesize-sft", "--histories", pipeline["histories"], "--config", str(pipeline["root"] / "synth.yaml")],
        ):
            assert run(*argv, "--scores", str(scores), "--out", str(out)) == 1
            err = capsys.readouterr().err
            assert f"error (ValidationError): {scores}:1: {field} must be in [0, 1], got {value}\n" in err
            assert not out.exists()
        assert not answered

    def test_rollout_rejects_duplicate_histories(self, pipeline, tmp_path, capsys):
        with open(pipeline["histories"], encoding="utf-8") as fh:
            lines = fh.readlines()
        doubled = tmp_path / "doubled.jsonl"
        doubled.write_text("".join(lines + lines[:1]), encoding="utf-8")
        cfg = write_yaml(tmp_path / "cfg.yaml", {"policy": {"base_url": "mock:generator"}, "judge": {"base_url": "mock:judge"}})
        rc = run(
            "rollout", "--instances", pipeline["instances"], "--histories", str(doubled),
            "--config", cfg, "--gamma", "0.5", "--out", str(tmp_path / "o.jsonl"),
        )
        assert rc == 1
        repeat = f"{doubled}:{len(lines) + 1}"  # the repeat of line 1, appended
        assert f"error (ValidationError): {repeat}: duplicate record for user 'u0000'\n" in capsys.readouterr().err
        assert not os.path.exists(tmp_path / "o.jsonl")

    def test_new_logprobs_row_without_logprobs_is_validation_error(self, pipeline, tmp_path, capsys):
        rows = tmp_path / "new.jsonl"
        rows.write_text('{"x": 1}\n{"x": 1}\n', encoding="utf-8")
        assert run("loss-check", "--batch", pipeline["batch"], "--new-logprobs", str(rows)) == 1
        err = capsys.readouterr().err
        assert f"error (ValidationError): {rows}:1: missing field 'logprobs'" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "fields, message",
        [('"old_token_logprobs": [-0.5], "advantage": Infinity', "advantage: must be float, got inf"),
         ('"old_token_logprobs": [-Infinity], "advantage": 0.5', "old_token_logprobs[0]: must be float, got -inf")],
        ids=["infinite-advantage", "minus-infinity-logprob"],
    )
    def test_infinite_number_in_a_record_names_line_and_field(self, tmp_path, capsys, fields, message):
        """JSON has no ±inf, but json.loads reads Infinity; a record refuses it
        when decoded, rather than at the output that would carry it."""
        batch = tmp_path / "b.jsonl"
        batch.write_text(
            '{"user_id": "u1", "group_id": "g", "stage": "initial", "prompt": "p", "response": "r", '
            f'{fields}, "reward": 0.5}}\n',
            encoding="utf-8",
        )
        assert run("loss-check", "--batch", str(batch), "--self-check") == 1
        captured = capsys.readouterr()
        assert f"error (ValidationError): {batch}:1: {message}\n" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize(
        "command", ["synthesize-sft", "stream-infer", "multi-interest", "positive-only", "cross-domain"]
    )
    def test_corpus_stages_reject_duplicate_histories(self, pipeline, tmp_path, capsys, command):
        with open(pipeline["histories"], encoding="utf-8") as fh:
            lines = fh.readlines()
        doubled = tmp_path / "doubled.jsonl"
        doubled.write_text("".join(lines[:3] + lines[:1] + lines[3:]), encoding="utf-8")
        out = tmp_path / "out"
        argv = {
            "synthesize-sft": [
                "synthesize-sft", "--histories", str(doubled), "--scores", pipeline["scores"],
                "--config", str(pipeline["root"] / "synth.yaml"), "--out", str(out), "--tau-tract", "0.3",
            ],
            "stream-infer": [
                "stream-infer", "--histories", str(doubled), "--state-dir", str(out),
                "--generator", write_yaml(tmp_path / "gen.yaml", {"base_url": "mock:generator"}),
            ],
            "multi-interest": [
                "build-transfer", "--mode", "multi-interest", "--histories", str(doubled),
                "--donors", pipeline["histories"], "--out", str(out), "--provenance", str(tmp_path / "prov"),
            ],
            "positive-only": ["build-transfer", "--mode", "positive-only", "--histories", str(doubled), "--out", str(out)],
            "cross-domain": [
                "build-transfer", "--mode", "cross-domain", "--histories-a", str(doubled),
                "--histories-b", str(pipeline["lab"] / "histories.jsonl"),
                "--embedder", str(pipeline["root"] / "embedder.yaml"), "--top-k", "4",
                "--out", str(out), "--out-histories", str(tmp_path / "combined.jsonl"),
            ],
        }[command]
        assert run(*argv) == 1
        assert f"error (ValidationError): {doubled}:4: duplicate record for user 'u0000'\n" in capsys.readouterr().err
        written = os.listdir(out) if command == "stream-infer" else os.listdir(tmp_path)
        assert not [name for name in written if name not in ("doubled.jsonl", "gen.yaml")]

    def test_cross_domain_rejects_a_user_in_both_corpora(self, pipeline, tmp_path, capsys):
        corpus = str(pipeline["lab"] / "histories.jsonl")
        rc = run(
            "build-transfer", "--mode", "cross-domain", "--histories-a", corpus, "--histories-b", corpus,
            "--embedder", str(pipeline["root"] / "embedder.yaml"), "--top-k", "4",
            "--out", str(tmp_path / "cross.jsonl"), "--out-histories", str(tmp_path / "combined.jsonl"),
        )
        assert rc == 1
        assert f"error (ValidationError): {corpus}:1: duplicate record for user 'u0000'\n" in capsys.readouterr().err
        assert os.listdir(tmp_path) == []

    def test_cross_domain_top_k_beyond_every_pair_fails_before_embedding(self, tmp_path, monkeypatch, capsys):
        for lab, prefix in (("labA", "ua"), ("labB", "ub")):
            assert run("simlab-gen", "--out-dir", str(tmp_path / lab), "--users", "5", "--user-prefix", prefix) == 0
        requests = count_requests(monkeypatch)
        out = tmp_path / "cross.jsonl"
        rc = run(
            "build-transfer", "--mode", "cross-domain", "--histories-a", str(tmp_path / "labA" / "histories.jsonl"),
            "--histories-b", str(tmp_path / "labB" / "histories.jsonl"),
            "--embedder", write_yaml(tmp_path / "embedder.yaml", {"base_url": "mock:embedder"}), "--out", str(out),
        )
        assert rc == 1
        assert "error (ValidationError): top_k 1000 exceeds the 25 available pairs" in capsys.readouterr().err
        assert not requests
        assert not os.path.exists(out)

    @pytest.mark.parametrize("command", ["loss-check", "rollout", "evaluate"])
    def test_malformed_jsonl_is_validation_error(self, pipeline, tmp_path, capsys, command):
        bad = tmp_path / "bad.jsonl"
        bad.write_text("{broken\n", encoding="utf-8")
        generator, judge = {"base_url": "mock:generator"}, {"base_url": "mock:judge"}
        argv = {
            "loss-check": ["loss-check", "--self-check", "--batch", str(bad)],
            "rollout": [
                "rollout", "--instances", str(bad), "--histories", pipeline["histories"],
                "--config", write_yaml(tmp_path / "cfg.yaml", {"policy": generator, "judge": judge}),
                "--gamma", "0.5", "--out", str(tmp_path / "o.jsonl"),
            ],
            "evaluate": [
                "evaluate", "--summaries", os.path.join(pipeline["stream"], "summaries.jsonl"),
                "--instances", str(bad), "--downstream", write_yaml(tmp_path / "judge.yaml", judge),
                "--out", str(tmp_path / "report.json"),
            ],
        }[command]
        assert run(*argv) == 1
        err = capsys.readouterr().err
        assert f"error (ValidationError): {bad}:1: invalid JSON line" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "reader, line",
        [
            ("histories", "[1, 2]"),
            ("histories", '{"user_id": "u1", "triples": [{"index": "x", "chosen": "a"}]}'),
            ("histories", '{"user_id": "u1", "triples": [{"index": 1.5, "chosen": "a"}]}'),
            ("histories", '{"user_id": "u1", "triples": [[1, 2]]}'),
            ("eval-instances", "[1, 2]"),
            ("histories", '{"user_id": ["u1"], "triples": []}'),
            ("histories", '{"user_id": "u1", "triples": [{"index": 0, "chosen": 5}]}'),
            ("scores", '{"user_id": ["u1"], "index": 0, "strong_p": 0.5, "weak_p": 0.5}'),
            ("summaries", '{"user_id": ["u0000"], "text": "likes jazz", "covers": [0, 1]}'),
            ("summaries", '{"user_id": "u0000", "text": "likes jazz", "covers": [0, 1, 7]}'),
            ("eval-instances", '{"user_id": "u0000", "item_a": 5, "item_b": "b"}'),
            ("instances", '{"user_id": "u0000", "k1": 1.7, "k2": 5}'),
            ("batch", '{"user_id": "u0000", "group_id": "g", "stage": "initial", "prompt": "p", "response": "r", '
                      '"old_token_logprobs": [-0.5], "advantage": "nan", "reward": 0.5}'),
            ("truth", '{"user_id": "u0000", "latent": ["x"]}'),
        ],
        ids=[
            "list-line", "string-index", "float-index", "list-triple", "evaluate-list-line",
            "list-user-id", "int-chosen", "scores-list-user-id", "summaries-list-user-id", "three-covers",
            "int-item", "float-k1", "nan-string-advantage", "string-latent",
        ],
    )
    def test_malformed_record_is_validation_error(self, pipeline, tmp_path, capsys, reader, line):
        bad = tmp_path / "bad.jsonl"
        bad.write_text(line + "\n", encoding="utf-8")
        out = str(tmp_path / "out")
        judge = write_yaml(tmp_path / "judge.yaml", {"base_url": "mock:judge"})
        summaries = os.path.join(pipeline["stream"], "summaries.jsonl")
        argv = {
            "histories": ["build-transfer", "--mode", "positive-only", "--histories", str(bad), "--out", out],
            "eval-instances": [
                "evaluate", "--summaries", summaries, "--instances", str(bad), "--downstream", judge, "--out", out,
            ],
            "summaries": [
                "evaluate", "--summaries", str(bad), "--instances", pipeline["cross"], "--downstream", judge, "--out", out,
            ],
            "scores": ["prune", "--scores", str(bad), "--alpha", "0.5", "--tract-low", "0", "--tract-high", "1", "--out", out],
            "instances": [
                "rollout", "--instances", str(bad), "--histories", pipeline["histories"], "--gamma", "0.5", "--out", out,
                "--config", write_yaml(tmp_path / "rollout.yaml", {"policy": {"base_url": "mock:generator"}, "judge": {"base_url": "mock:judge"}}),
            ],
            "batch": ["loss-check", "--self-check", "--batch", str(bad)],
            "truth": [
                "synthesize-sft", "--histories", pipeline["histories"], "--scores", pipeline["scores"], "--out", out,
                "--config", write_yaml(tmp_path / "synth.yaml", {
                    "generator": {"base_url": f"mock:generator?truth={bad}"}, "judge": {"base_url": "mock:judge"},
                }),
            ],
        }[reader]
        assert run(*argv) == 1
        captured = capsys.readouterr()
        assert f"error (ValidationError): {bad}:1: " in captured.err
        assert "Traceback" not in captured.err
        assert captured.out == ""
        assert not os.path.exists(out)

    def test_unreadable_input_is_io_error(self, tmp_path, capsys):
        rc = run(
            "stream-infer", "--histories", str(tmp_path / "nope.jsonl"),
            "--generator", write_yaml(tmp_path / "gen.yaml", {"base_url": "mock:generator"}),
            "--state-dir", str(tmp_path / "s"),
        )
        assert rc == 1
        assert "error (" in capsys.readouterr().err

    @pytest.mark.parametrize("name", ["cfg.yaml", "cfg.json"])
    @pytest.mark.parametrize("role", ["stage", "endpoint"])
    def test_config_that_is_not_utf8_is_config_error(self, pipeline, tmp_path, capsys, name, role):
        cfg = tmp_path / name
        cfg.write_bytes(b'{"model_id": "caf\xe9"}' if name.endswith(".json") else b"model_id: caf\xe9\n")
        argv = {
            "stage": ["prune", "--scores", pipeline["scores"], "--config", str(cfg), "--out", str(tmp_path / "o.jsonl")],
            "endpoint": [
                "stream-infer", "--histories", pipeline["histories"], "--generator", str(cfg),
                "--state-dir", str(tmp_path / "s"),
            ],
        }[role]
        assert run(*argv) == 1
        err = capsys.readouterr().err
        assert f"error (ConfigError): cannot read config {cfg}: " in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("case", ["prune", "rollout", "multi-interest"])
    def test_two_output_flags_naming_one_file_is_usage_error(self, pipeline, tmp_path, capsys, case):
        out = str(tmp_path / "x.jsonl")
        same = os.path.join(str(tmp_path), ".", "x.jsonl")  # another spelling of the same file
        lab_a, lab_b = pipeline["root"] / "labA", pipeline["root"] / "labB"
        argv, flags = {
            "prune": (
                ["prune", "--scores", pipeline["scores"], "--alpha", "0.6", "--tract-low", "0.55",
                 "--tract-high", "0.98", "--out", out, "--keep-scores", same],
                "--out and --keep-scores",
            ),
            "rollout": (
                ["rollout", "--instances", pipeline["instances"], "--histories", pipeline["histories"],
                 "--config", str(pipeline["root"] / "rollout.yaml"), "--gamma", "0.5", "--out", out, "--trees", out],
                "--out and --trees",
            ),
            "multi-interest": (
                ["build-transfer", "--mode", "multi-interest", "--histories", str(lab_a / "histories.jsonl"),
                 "--donors", str(lab_b / "histories.jsonl"), "--out", out, "--provenance", out],
                "--out and --provenance",
            ),
        }[case]
        with pytest.raises(SystemExit) as exc:
            run(*argv)
        assert exc.value.code == 2
        assert f"arguments {flags} name the same file" in capsys.readouterr().err
        assert os.listdir(tmp_path) == []


def fail_for(monkeypatch, user, make_error):
    """Make every scripted-backend request made for ``user`` raise
    ``make_error()``; returns the list of the users whose requests failed."""
    from prefpipe import simlab

    failed = []
    for cls in (simlab.ScriptedGeneratorBackend, simlab.ScriptedJudgeBackend, simlab.ScriptedEmbedderBackend):
        for name in ("complete", "choice_logprobs", "embed"):

            def failing(self, *args, _real=getattr(cls, name), meta=None, **kwargs):
                if (meta or {}).get("user_id") == user:
                    failed.append(user)
                    raise make_error()
                return _real(self, *args, meta=meta, **kwargs)

            monkeypatch.setattr(cls, name, failing)
    return failed


def _warnings(caplog, *argv):
    """Run the CLI at exit 0; return every prefpipe logger's lines at WARNING
    and above, as ``"<logger> <level> <message>"``."""
    caplog.clear()
    with caplog.at_level("WARNING", logger="prefpipe"):
        assert run(*argv) == 0
    return [f"{r.name} {r.levelname} {r.getMessage()}" for r in caplog.records if r.name.startswith("prefpipe")]


def _first_user(path):
    with open(path, encoding="utf-8") as fh:
        return json.loads(fh.readline())["user_id"]


def _user_lines(path, drop=None):
    """The lines of JSONL ``path`` whose ``user_id`` is not ``drop``."""
    with open(path, encoding="utf-8") as fh:
        return [line for line in fh if json.loads(line)["user_id"] != drop]


def count_requests(monkeypatch):
    """Count every request a scripted backend answers, by backend class;
    returns the live Counter."""
    from prefpipe import simlab

    answered, lock = collections.Counter(), threading.Lock()
    for cls in (simlab.ScriptedGeneratorBackend, simlab.ScriptedJudgeBackend, simlab.ScriptedEmbedderBackend):
        for name in ("complete", "choice_logprobs", "score", "embed"):

            def counted(self, *args, _real=getattr(cls, name), **kwargs):
                with lock:
                    answered[type(self)] += 1
                return _real(self, *args, **kwargs)

            monkeypatch.setattr(cls, name, counted)
    return answered


def hold_indexes(monkeypatch):
    """Keep every ``core.HistoryIndex`` the run opens alive, so that only its
    own ``close`` releases its file; returns the list that holds them."""
    held, real_init = [], core.HistoryIndex.__init__

    def init(self, path):
        held.append(self)
        real_init(self, path)

    monkeypatch.setattr(core.HistoryIndex, "__init__", init)
    return held


def open_paths():
    """The real paths of the files this process holds open."""
    fd_dir = "/proc/self/fd"
    paths = set()
    for fd in os.listdir(fd_dir):
        with contextlib.suppress(OSError):
            paths.add(os.readlink(os.path.join(fd_dir, fd)))
    return paths


class TestOneBadUser:
    """In each model-bound stage a request that fails for one user, and would
    fail again, costs that user alone: the stage exits 0, counts the failure in
    its manifest and log, and writes for the others what a run without that
    user writes."""

    STAGES = ["synthesize-sft", "rollout", "stream-infer", "cross-domain", "evaluate"]

    @staticmethod
    def case(pipeline, tmp_path, stage):
        """(bad user, argv given a dir and a user to leave out of the input,
        the dir's outputs compared whole, those compared without the bad
        user's lines, the manifest)."""
        root = pipeline["root"]
        first_cross = _first_user(pipeline["cross"])
        if stage == "synthesize-sft":
            bad = _first_user(pipeline["sft"])
            source = pipeline["histories"]
        elif stage == "rollout":
            bad = _first_user(pipeline["instances"])
            source = pipeline["instances"]
        elif stage == "stream-infer":
            bad = first_cross
            source = pipeline["combined"]
        elif stage == "cross-domain":
            bad = first_cross
            source = str(root / "labA" / "histories.jsonl")
        else:
            bad = first_cross
            source = os.path.join(pipeline["stream"], "summaries.jsonl")

        def argv(out, leave_out=None):
            os.makedirs(out, exist_ok=True)
            given = os.path.join(out, "input.jsonl")
            with open(given, "w", encoding="utf-8") as fh:
                fh.writelines(_user_lines(source, leave_out))
            return {
                "synthesize-sft": [
                    "synthesize-sft", "--histories", given, "--scores", pipeline["scores"],
                    "--config", str(root / "synth.yaml"), "--out", os.path.join(out, "out.jsonl"), "--tau-tract", "0.3",
                ],
                "rollout": [
                    "rollout", "--instances", given, "--histories", pipeline["histories"],
                    "--config", str(root / "rollout.yaml"), "--gamma", "0.5", "--out", os.path.join(out, "out.jsonl"),
                ],
                "stream-infer": [
                    "stream-infer", "--histories", given, "--generator", str(root / "generator.yaml"),
                    "--chunks", "2", "--state-dir", out,
                ],
                "cross-domain": [
                    "build-transfer", "--mode", "cross-domain", "--histories-a", given,
                    "--histories-b", str(root / "labB" / "histories.jsonl"), "--embedder", str(root / "embedder.yaml"),
                    "--top-k", "4", "--out", os.path.join(out, "out.jsonl"),
                    "--out-histories", os.path.join(out, "combined.jsonl"),
                ],
                "evaluate": [
                    "evaluate", "--summaries", given, "--instances", pipeline["cross"],
                    "--downstream", str(root / "judge.yaml"), "--out", os.path.join(out, "report.json"),
                    "--outcomes", os.path.join(out, "out.jsonl"),
                ],
            }[stage]

        whole, filtered, manifest = {
            "synthesize-sft": (["out.jsonl"], [], "out.jsonl.manifest.json"),
            "rollout": (["out.jsonl"], [], "out.jsonl.manifest.json"),
            "stream-infer": (["states.jsonl", "summaries.jsonl"], [], "manifest.json"),
            "cross-domain": (["out.jsonl"], ["combined.jsonl"], "out.jsonl.manifest.json"),
            "evaluate": ([], ["out.jsonl"], "report.json.manifest.json"),
        }[stage]
        return bad, argv, whole, filtered, manifest

    @pytest.mark.parametrize("stage", STAGES)
    def test_one_failing_user_costs_that_user(self, pipeline, tmp_path, monkeypatch, caplog, stage):
        from prefpipe.errors import BackendError

        bad, argv, whole, filtered, manifest = self.case(pipeline, tmp_path, stage)
        without = str(tmp_path / "without")
        assert run(*argv(without, leave_out=bad)) == 0
        failed = fail_for(monkeypatch, bad, lambda: BackendError("HTTP 400: bad request", retryable=False))
        logs, skipped, gave_up = [], [], []
        for jobs in ("1", "2"):
            out = str(tmp_path / f"jobs{jobs}")
            failed.clear()
            logs.append(_warnings(caplog, "--jobs", jobs, *argv(out)))
            with open(os.path.join(out, manifest), encoding="utf-8") as fh:
                written = json.load(fh)
            skipped.append(written["stats"]["skipped_by_reason"])
            # the client counts each request it gave up on, however many were in flight
            assert failed
            assert sum(counts.get("give_ups.BackendError", 0) for counts in written["telemetry"].values()) == len(failed)
            gave_up.append(len(failed))
            for name in whole:
                assert sha256_file(os.path.join(out, name)) == sha256_file(os.path.join(without, name)), name
            for name in filtered:
                assert _user_lines(os.path.join(out, name), bad) == _user_lines(os.path.join(without, name)), name
        assert skipped[0] == skipped[1] and skipped[0]["BackendError"] >= 1
        assert logs[0] == logs[1]
        if stage == "rollout":
            # the failed sample stops its instance's queued samples at once:
            # at --jobs 2 only the sample already in flight beside it is spent
            assert gave_up[0] == 1 and gave_up[1] <= 2
        # one line per reason, all of them cli's: the client logs no failed request of its own
        assert len(logs[0]) == len(skipped[0])
        assert all(line.startswith("prefpipe.cli WARNING ") for line in logs[0])
        (line,) = [line for line in logs[0] if "(BackendError)" in line]
        assert line.startswith(f"prefpipe.cli WARNING {skipped[0]['BackendError']} item(s) skipped (BackendError)")
        assert bad in line and "HTTP 400: bad request" in line

    @pytest.mark.parametrize("stage", STAGES)
    def test_retries_used_up_abort_after_the_first_item(self, pipeline, tmp_path, monkeypatch, capsys, stage):
        """A retryable failure that outlasts its retries means the endpoint is
        down: the run stops at the first failing user with exit 1, and writes
        nothing."""
        from prefpipe.errors import BackendError
        from prefpipe.modelio import ModelClient

        bad, argv, _, _, _ = self.case(pipeline, tmp_path, stage)
        failed = fail_for(monkeypatch, bad, lambda: BackendError("HTTP 503", retryable=True))
        backoffs = []  # every client the stage builds sleeps here instead of time.sleep
        monkeypatch.setitem(ModelClient.__init__.__kwdefaults__, "sleep", backoffs.append)
        out = str(tmp_path / "out")
        assert run(*argv(out)) == 1
        err = capsys.readouterr().err
        assert "error (BackendError): HTTP 503" in err and "Traceback" not in err
        assert len(failed) == 4  # one request, and the endpoint's three retries
        assert backoffs == [0.5, 1.0, 2.0]
        assert sorted(os.listdir(out)) == ["input.jsonl"]

    @pytest.mark.parametrize("error", ["ContractError", "ConfigError", "CapabilityError"])
    @pytest.mark.parametrize("stage", STAGES)
    def test_a_bug_or_a_bad_setup_aborts(self, pipeline, tmp_path, monkeypatch, capsys, stage, error):
        from prefpipe import errors

        bad, argv, _, _, _ = self.case(pipeline, tmp_path, stage)
        fail_for(monkeypatch, bad, lambda: getattr(errors, error)("cannot go on"))
        out = str(tmp_path / "out")
        assert run(*argv(out)) == 1
        err = capsys.readouterr().err
        assert f"error ({error}): cannot go on" in err and "Traceback" not in err
        assert sorted(os.listdir(out)) == ["input.jsonl"]


class TestOneLinePerReason:
    """A stage counts each item it drops in its tally, and a client counts
    each request it gave up on or truncated; only cli logs them, one line per
    reason or per client, and the counts and lines are the same at any --jobs."""

    def test_three_failed_requests_log_one_line(self, pipeline, tmp_path, monkeypatch, caplog):
        from prefpipe.errors import BackendError

        bad = [json.loads(line)["user_id"] for line in _user_lines(pipeline["combined"])[:3]]
        failed = [fail_for(monkeypatch, user, lambda: BackendError("HTTP 400: bad request", retryable=False)) for user in bad]
        for jobs in ("1", "2"):
            out = tmp_path / f"jobs{jobs}"
            assert _warnings(
                caplog, "--jobs", jobs, "stream-infer", "--histories", pipeline["combined"],
                "--generator", str(pipeline["root"] / "generator.yaml"), "--state-dir", str(out),
            ) == [f"prefpipe.cli WARNING 3 item(s) skipped (BackendError), first: user {bad[0]}: HTTP 400: bad request"]
            manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
            assert manifest["stats"]["skipped_by_reason"] == {"BackendError": 3}
            assert manifest["telemetry"]["generator"]["give_ups.BackendError"] == 3
        assert [len(f) for f in failed] == [2, 2, 2]  # one request per user and run

    def test_truncated_prompts_log_one_line(self, tmp_path, caplog):
        lab = tmp_path / "lab"
        assert run("simlab-gen", "--out-dir", str(lab), "--users", "100", "--history-len", "4") == 0
        generator = write_yaml(
            tmp_path / "generator.yaml",
            {"base_url": f"mock:generator?truth={lab / 'truth.jsonl'}", "max_prompt_tokens": 40},
        )
        for jobs in ("1", "2"):
            out = tmp_path / f"jobs{jobs}"
            lines = _warnings(
                caplog, "--jobs", jobs, "stream-infer", "--histories", str(lab / "histories.jsonl"),
                "--generator", generator, "--chunks", "1", "--state-dir", str(out),
            )
            counts = json.loads((out / "manifest.json").read_text(encoding="utf-8"))["telemetry"]["generator"]
            assert counts["truncations"] == 100
            assert lines == [
                "prefpipe.cli WARNING generator: 100 prompt(s) truncated to 40 tokens, "
                f"{counts['truncated_tokens']} leading token(s) dropped"
            ]
        assert sha256_file(str(tmp_path / "jobs1" / "states.jsonl")) == sha256_file(str(tmp_path / "jobs2" / "states.jsonl"))

    def test_multi_interest_counts_capped_donors(self, pipeline, tmp_path, caplog):
        out = str(tmp_path / "fused.jsonl")
        assert _warnings(
            caplog, "build-transfer", "--mode", "multi-interest", "--histories", str(pipeline["root"] / "labA" / "histories.jsonl"),
            "--donors", str(pipeline["root"] / "labB" / "histories.jsonl"), "--intensity", "0.9", "--out", out,
        ) == ["prefpipe.cli WARNING 6 item(s) skipped (donor capped: too few triples), first: user ua0000: donor ub0004 has 6, wanted 54"]
        manifest = manifest_for(out)
        assert manifest["stats"] == {"users": 6, "skipped_by_reason": {"donor capped: too few triples": 6}}
        assert manifest["telemetry"] == {}

    @pytest.mark.parametrize("case", ["user with 1 interaction", "pair without a target"])
    def test_cross_domain_counts_what_it_drops(self, pipeline, tmp_path, monkeypatch, caplog, case):
        from prefpipe import transferbench

        root = pipeline["root"]
        histories_a = tmp_path / "a.jsonl"
        histories_a.write_text((root / "labA" / "histories.jsonl").read_text(encoding="utf-8"), encoding="utf-8")
        if case == "user with 1 interaction":
            with open(histories_a, "a", encoding="utf-8") as fh:
                fh.write(json.dumps({"user_id": "ushort", "triples": [{"index": 0, "chosen": "c", "rejected": "r"}]}) + "\n")
            expected, first = {"fewer than 2 interactions": 1}, "user ushort"
        else:
            real = transferbench.match_users
            monkeypatch.setattr(
                transferbench, "match_users",
                lambda *a, **kw: [*real(*a, **kw), transferbench.UserPair("ghost-a", "ghost-b", 0.0)],
            )
            expected, first = {"no target": 1}, "(ghost-a, ghost-b)"
        reason = next(iter(expected))
        for jobs in ("1", "2"):
            out = str(tmp_path / f"cross{jobs}.jsonl")
            assert _warnings(
                caplog, "--jobs", jobs, "build-transfer", "--mode", "cross-domain", "--histories-a", str(histories_a),
                "--histories-b", str(root / "labB" / "histories.jsonl"), "--embedder", str(root / "embedder.yaml"),
                "--top-k", "4", "--out", out,
            ) == [f"prefpipe.cli WARNING 1 item(s) skipped ({reason}), first: {first}"]
            assert manifest_for(out)["stats"]["skipped_by_reason"] == expected
            assert sha256_file(out) == sha256_file(pipeline["cross"])


class TestTelemetry:
    def test_attempts_equal_the_requests_each_backend_answered(self, pipeline, tmp_path, monkeypatch):
        """Across a synthesize-sft, rollout, cross-domain, stream-infer and
        evaluate chain, each manifest's ``telemetry[role]["attempts"]`` is the
        number of requests that role's scripted backend answered, at any --jobs."""
        from prefpipe import simlab

        generator, judge, embedder = simlab.ScriptedGeneratorBackend, simlab.ScriptedJudgeBackend, simlab.ScriptedEmbedderBackend
        answered = count_requests(monkeypatch)
        root = pipeline["root"]
        attempts = []
        for jobs in ("1", "2"):
            out = tmp_path / f"jobs{jobs}"
            cross, combined, stream = str(out / "cross.jsonl"), str(out / "combined.jsonl"), out / "stream"
            chain = [
                (["synthesize-sft", "--histories", pipeline["histories"], "--scores", pipeline["scores"],
                  "--config", str(root / "synth.yaml"), "--out", str(out / "sft.jsonl"), "--tau-tract", "0.3"],
                 out / "sft.jsonl.manifest.json", {"generator": generator, "judge": judge}),
                (["rollout", "--instances", pipeline["instances"], "--histories", pipeline["histories"],
                  "--config", str(root / "rollout.yaml"), "--gamma", "0.5", "--out", str(out / "batch.jsonl")],
                 out / "batch.jsonl.manifest.json", {"policy": generator, "judge": judge}),
                (["build-transfer", "--mode", "cross-domain", "--histories-a", str(root / "labA" / "histories.jsonl"),
                  "--histories-b", str(root / "labB" / "histories.jsonl"), "--embedder", str(root / "embedder.yaml"),
                  "--top-k", "4", "--out", cross, "--out-histories", combined],
                 out / "cross.jsonl.manifest.json", {"embedder": embedder}),
                (["stream-infer", "--histories", combined, "--generator", str(root / "generator.yaml"),
                  "--state-dir", str(stream)],
                 stream / "manifest.json", {"generator": generator}),
                (["evaluate", "--summaries", str(stream / "summaries.jsonl"), "--instances", cross,
                  "--downstream", str(root / "judge.yaml"), "--out", str(out / "report.json")],
                 out / "report.json.manifest.json", {"downstream": judge}),
            ]
            os.makedirs(out)
            for argv, manifest, roles in chain:
                answered.clear()
                assert run("--jobs", jobs, *argv) == 0
                telemetry = json.loads(manifest.read_text(encoding="utf-8"))["telemetry"]
                counted = {role: answered[cls] for role, cls in roles.items()}
                assert {role: counts["attempts"] for role, counts in telemetry.items()} == counted, argv[0]
                assert all(counted.values()), argv[0]
                attempts.append(counted)
        assert attempts[:5] == attempts[5:]


_STAGE_MODULES = {
    "prefpipe.synthpipe", "prefpipe.rlengine", "prefpipe.streamer",
    "prefpipe.transferbench", "prefpipe.evalharness", "prefpipe.simlab",
}


# a child interpreter imports the checkout's package, installed or not
_SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def _modules_loaded_by(code):
    """The ``sys.modules`` names a fresh interpreter holds after running ``code``."""
    code += "\nimport json, sys\nprint(json.dumps(sorted(sys.modules)))"
    proc = subprocess.run(
        [sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": _SRC}, capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    return set(json.loads(proc.stdout.splitlines()[-1]))


_FIXTURE_BATCH = [
    {"user_id": "u1", "group_id": "u1:1-3:initial", "stage": "initial", "prompt": "p1", "response": "r1",
     "old_token_logprobs": [-0.5, -1.25, -0.125], "advantage": 1.5, "reward": 0.75},
    {"user_id": "u1", "group_id": "u1:1-3:initial", "stage": "initial", "prompt": "p2", "response": "r2",
     "old_token_logprobs": [-2.0, -0.25], "advantage": -0.5, "reward": 0.25},
    {"user_id": "u2", "group_id": "u2:2-5:updated", "stage": "updated", "prompt": "p3", "response": "r3",
     "old_token_logprobs": [-0.75], "advantage": -1.0, "reward": 0.5},
]
_FIXTURE_NEW_LOGPROBS = [[-0.25, -1.5, 0.0], [-1.5, -0.75], [-1.125]]


class TestStreamingRollout:
    """rollout writes each tree as it finishes; loss-check folds its inputs line by line."""

    @staticmethod
    def many_instances(pipeline, tmp_path, n=40):
        with open(pipeline["instances"], encoding="utf-8") as fh:
            lines = fh.readlines()
        path = tmp_path / "many.jsonl"
        path.write_text("".join(itertools.islice(itertools.cycle(lines), n)), encoding="utf-8")
        return str(path)

    @staticmethod
    def rollout_argv(pipeline, tmp_path, instances):
        cfg = write_yaml(tmp_path / "rollout.yaml", {
            "policy": {"base_url": f"mock:generator?truth={pipeline['truth']}&quality=1.0"},
            "judge": {"base_url": "mock:judge?kappa=8"},
        })
        return [
            "rollout", "--instances", instances, "--histories", pipeline["histories"], "--config", cfg,
            "--gamma", "0.5", "--out", str(tmp_path / "batch.jsonl"), "--trees", str(tmp_path / "trees.jsonl"),
        ]

    @pytest.mark.parametrize("jobs", [1, 3])
    def test_live_trees_are_bounded_by_jobs(self, pipeline, tmp_path, monkeypatch, jobs):
        from prefpipe import rlengine

        # trees are unhashable dataclasses, so they are held as weak dict values
        live, ids, peak, lock = weakref.WeakValueDictionary(), itertools.count(), [0], threading.Lock()
        real_rollout = rlengine.rollout

        def counted(*args, **kwargs):
            tree = real_rollout(*args, **kwargs)
            with lock:
                live[next(ids)] = tree
                peak[0] = max(peak[0], len(live))
            return tree

        real_export = rlengine.export_batch

        def slow_export(trees):
            time.sleep(0.01)  # a slow writer: finished trees pile up unless submission waits for it
            return real_export(trees)

        monkeypatch.setattr(rlengine, "rollout", counted)
        monkeypatch.setattr(rlengine, "export_batch", slow_export)
        instances = self.many_instances(pipeline, tmp_path)
        assert run("--jobs", str(jobs), *self.rollout_argv(pipeline, tmp_path, instances)) == 0
        assert manifest_for(tmp_path / "batch.jsonl")["stats"]["trees"] >= 30
        # one tree per worker, one per finished result waiting its turn, one being written
        assert peak[0] <= 2 * jobs + 1

    @pytest.mark.parametrize("jobs", [1, 3])
    def test_crash_keeps_the_previous_outputs(self, pipeline, tmp_path, monkeypatch, jobs):
        from prefpipe import rlengine

        argv = self.rollout_argv(pipeline, tmp_path, self.many_instances(pipeline, tmp_path, n=20))
        assert run("--jobs", str(jobs), *argv) == 0
        outputs = [tmp_path / "batch.jsonl", tmp_path / "trees.jsonl"]
        before = [p.read_bytes() for p in outputs]
        real_rollout, calls, seen_tmp = rlengine.rollout, itertools.count(1), []

        def crashing(*args, **kwargs):
            if next(calls) == 15:
                seen_tmp.append(all(os.path.exists(f"{p}.tmp") for p in outputs))
                raise RuntimeError("worker died")
            return real_rollout(*args, **kwargs)

        monkeypatch.setattr(rlengine, "rollout", crashing)
        with pytest.raises(RuntimeError, match="worker died"):
            run("--jobs", str(jobs), *argv)
        assert seen_tmp == [True]  # the finished trees were already being written
        assert [p.read_bytes() for p in outputs] == before
        assert not [name for name in os.listdir(tmp_path) if name.endswith(".tmp")]

    def test_streamed_outputs_match_the_fixture_run(self, pipeline, tmp_path):
        argv = self.rollout_argv(pipeline, tmp_path, pipeline["instances"])
        assert run(*argv) == 0
        assert sha256_file(tmp_path / "batch.jsonl") == sha256_file(pipeline["batch"])
        trees = list(read_records(str(tmp_path / "trees.jsonl"), dict))
        assert len(trees) == manifest_for(pipeline["batch"])["stats"]["trees"]
        assert all(rs["advantage"] is not None for t in trees for rs in t["initial"] + t["updated"])

    def test_tree_dump_reads_back_as_rollout_trees(self, pipeline, tmp_path):
        """Each ``--trees`` line decodes as a ``RolloutTree`` and encodes back to its own bytes."""
        from prefpipe.rlengine import RolloutTree

        assert run(*self.rollout_argv(pipeline, tmp_path, pipeline["instances"])) == 0
        lines = (tmp_path / "trees.jsonl").read_text(encoding="utf-8").splitlines()
        trees = list(read_records(str(tmp_path / "trees.jsonl"), RolloutTree))
        assert len(trees) == len(lines) > 0
        assert [json_dumps(tree.to_dict()) for tree in trees] == lines

    @pytest.mark.parametrize(
        "extra, expected",
        [
            ([], '{"clip_eps": 0.2, "loss": -0.04793143346469453, "records": 3}'),
            (["--clip-eps", "0.05"], '{"clip_eps": 0.05, "loss": 0.05342664204644317, "records": 3}'),
            (["--self-check"], '{"clip_eps": 0.2, "loss": -0.0, "records": 3}'),
            (["--clip-eps", "inf"], '{"clip_eps": null, "loss": -0.11562835500627455, "records": 3}'),
        ],
    )
    def test_loss_check_bytes(self, tmp_path, capsys, extra, expected):
        batch = tmp_path / "batch.jsonl"
        batch.write_text("".join(json.dumps(r) + "\n" for r in _FIXTURE_BATCH), encoding="utf-8")
        new = tmp_path / "new.jsonl"
        new.write_text("".join(json.dumps({"logprobs": r}) + "\n" for r in _FIXTURE_NEW_LOGPROBS), encoding="utf-8")
        source = [] if "--self-check" in extra else ["--new-logprobs", str(new)]
        assert run("loss-check", "--batch", str(batch), *source, *extra) == 0
        assert capsys.readouterr().out == expected + "\n"

    def test_loss_check_clip_eps_default_is_the_rlengine_constant(self):
        import inspect

        from prefpipe import rlengine

        args = build_parser().parse_args(["loss-check", "--batch", "b.jsonl", "--self-check"])
        assert args.clip_eps is None
        assert rlengine.CLIP_EPS == 0.2
        assert inspect.signature(rlengine.surrogate_loss).parameters["clip_eps"].default == rlengine.CLIP_EPS


class TestStreamingCorpus:
    """synthesize-sft, stream-infer and cross-domain build-transfer read their
    histories one user at a time and write each user's output as it finishes."""

    USERS = 30

    @pytest.fixture(scope="class")
    def corpus(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("corpus")
        for lab, prefix in (("labA", "u"), ("labB", "v")):
            assert run("simlab-gen", "--out-dir", str(root / lab), "--users", str(self.USERS), "--user-prefix", prefix) == 0
        # one rollout instance for each user of A
        with open(root / "labA" / "histories.jsonl", encoding="utf-8") as fh:
            users = [json.loads(line)["user_id"] for line in fh]
        (root / "labA" / "instances.jsonl").write_text(
            "".join(json_dumps({"user_id": user, "k1": 4, "k2": 8}) + "\n" for user in users), encoding="utf-8"
        )
        return root

    @staticmethod
    def argv(corpus, tmp_path, stage):
        gen = {"base_url": f"mock:generator?truth={corpus / 'labA' / 'truth.jsonl'}"}
        histories = str(corpus / "labA" / "histories.jsonl")
        if stage == "synthesize-sft":
            cfg = write_yaml(tmp_path / "synth.yaml", {"generator": gen, "judge": {"base_url": "mock:judge?kappa=8"}})
            return (
                ["synthesize-sft", "--histories", histories, "--scores", str(corpus / "labA" / "scores.jsonl"),
                 "--config", cfg, "--out", str(tmp_path / "sft.jsonl"), "--tau-tract", "0.3"],
                [tmp_path / "sft.jsonl"],
            )
        if stage == "rollout":
            cfg = write_yaml(tmp_path / "rollout.yaml", {
                "policy": {"base_url": f"{gen['base_url']}&quality=1.0"}, "judge": {"base_url": "mock:judge?kappa=8"},
            })
            return (
                ["rollout", "--instances", str(corpus / "labA" / "instances.jsonl"), "--histories", histories,
                 "--config", cfg, "--gamma", "0.5", "--out", str(tmp_path / "batch.jsonl"),
                 "--trees", str(tmp_path / "trees.jsonl")],
                [tmp_path / "batch.jsonl", tmp_path / "trees.jsonl"],
            )
        if stage == "stream-infer":
            return (
                ["stream-infer", "--histories", histories, "--generator", write_yaml(tmp_path / "gen.yaml", gen),
                 "--state-dir", str(tmp_path)],
                [tmp_path / "states.jsonl", tmp_path / "summaries.jsonl"],
            )
        return (
            ["build-transfer", "--mode", "cross-domain", "--histories-a", histories,
             "--histories-b", str(corpus / "labB" / "histories.jsonl"),
             "--embedder", write_yaml(tmp_path / "embedder.yaml", {"base_url": "mock:embedder"}),
             "--top-k", "50", "--out", str(tmp_path / "cross.jsonl"), "--out-histories", str(tmp_path / "combined.jsonl")],
            [tmp_path / "cross.jsonl", tmp_path / "combined.jsonl"],
        )

    @pytest.mark.parametrize("jobs", [1, 3])
    @pytest.mark.parametrize("stage", ["synthesize-sft", "stream-infer", "cross-domain", "rollout"])
    def test_live_histories_are_bounded_by_jobs(self, corpus, tmp_path, monkeypatch, stage, jobs):
        live, ids, peak, lock = weakref.WeakValueDictionary(), itertools.count(), [0], threading.Lock()
        real_post_init = core.UserHistory.__post_init__

        def counted(history):
            real_post_init(history)
            with lock:
                live[next(ids)] = history
                peak[0] = max(peak[0], len(live))

        monkeypatch.setattr(core.UserHistory, "__post_init__", counted)
        argv, _ = self.argv(corpus, tmp_path, stage)
        assert run("--jobs", str(jobs), *argv) == 0
        assert next(ids) >= self.USERS
        # the 2 * jobs calls submitted ahead, the one being handed over, and
        # the user being read next to its trimmed copy
        assert peak[0] <= 2 * jobs + 3

    @pytest.mark.parametrize("jobs", [1, 3])
    @pytest.mark.parametrize("stage", ["synthesize-sft", "stream-infer", "cross-domain"])
    def test_crash_keeps_the_previous_outputs(self, corpus, tmp_path, monkeypatch, stage, jobs):
        from prefpipe import streamer, synthpipe, transferbench

        argv, outputs = self.argv(corpus, tmp_path, stage)
        assert run("--jobs", str(jobs), *argv) == 0
        before = [p.read_bytes() for p in outputs]
        module, name = {
            "synthesize-sft": (synthpipe, "build_streaming_sft"),
            "stream-infer": (streamer, "infer_streaming"),
            "cross-domain": (transferbench, "embed_history"),
        }[stage]
        real, calls, seen_tmp = getattr(module, name), itertools.count(1), []

        def crashing(*args, **kwargs):
            if next(calls) == 20:
                seen_tmp.append(all(os.path.exists(f"{p}.tmp") for p in outputs if p.name != "cross.jsonl"))
                raise RuntimeError("worker died")
            return real(*args, **kwargs)

        monkeypatch.setattr(module, name, crashing)
        with pytest.raises(RuntimeError, match="worker died"):
            run("--jobs", str(jobs), *argv)
        assert seen_tmp == [True]  # the finished users were already being written
        assert [p.read_bytes() for p in outputs] == before
        assert not [name for name in os.listdir(tmp_path) if name.endswith(".tmp")]

    def test_rollout_bytes_do_not_depend_on_jobs(self, corpus, tmp_path, monkeypatch):
        held, written = hold_indexes(monkeypatch), []
        for jobs in ("1", "3"):
            (tmp_path / jobs).mkdir()
            argv, outputs = self.argv(corpus, tmp_path / jobs, "rollout")
            assert run("--jobs", jobs, *argv) == 0
            written.append([p.read_bytes() for p in outputs] + [manifest_for(outputs[0])["stats"]])
        assert written[0] == written[1]
        assert written[0][-1]["trees"] == self.USERS
        assert len(held) == 2
        assert os.path.realpath(corpus / "labA" / "histories.jsonl") not in open_paths()

    @staticmethod
    def rollout_over(corpus, tmp_path, text):
        """The rollout argv over a copy of A's histories whose text is ``text``."""
        histories = tmp_path / "histories.jsonl"
        histories.write_text(text, encoding="utf-8")
        argv, outputs = TestStreamingCorpus.argv(corpus, tmp_path, "rollout")
        argv[argv.index("--histories") + 1] = str(histories)
        return histories, argv, outputs

    def test_rollout_checks_every_history_before_any_request(self, corpus, tmp_path, monkeypatch, capsys):
        lines = (corpus / "labA" / "histories.jsonl").read_text(encoding="utf-8").splitlines(keepends=True)
        # no instance names this user, so only the up-front pass reads its line
        bad = json_dumps({"user_id": "nobody", "triples": [{"index": 0, "chosen": 5}]}) + "\n"
        histories, argv, outputs = self.rollout_over(corpus, tmp_path, "".join(lines + [bad]))
        requests, held = count_requests(monkeypatch), hold_indexes(monkeypatch)
        assert run("--jobs", "3", *argv) == 1
        assert f"error (ValidationError): {histories}:{len(lines) + 1}: triples[0].chosen: " in capsys.readouterr().err
        assert not requests
        assert not [p for p in outputs if p.exists()]
        assert len(held) == 1
        assert os.path.realpath(histories) not in open_paths()

    @pytest.mark.parametrize("jobs", ["1", "3"])
    @pytest.mark.parametrize("rewrite", ["renamed users", "shifted lines", "truncated"])
    def test_rollout_refuses_histories_rewritten_after_the_check(
        self, corpus, tmp_path, monkeypatch, capsys, rewrite, jobs
    ):
        """A line read back must still hold the user indexed at its offset:
        the stage aborts naming the file, and no tree is built from another
        user's history."""
        from prefpipe import rlengine

        text = (corpus / "labA" / "histories.jsonl").read_text(encoding="utf-8")
        first = text[: text.index("\n") + 1]
        changed = {
            "renamed users": text.replace('"user_id": "u', '"user_id": "w'),  # same offsets, other users
            "shifted lines": " " * 7 + text,  # the second user's offset falls inside the first line
            "truncated": first,
        }[rewrite]
        histories, argv, outputs = self.rollout_over(corpus, tmp_path, text)
        real_run, real_rollout, rolled = rlengine.run_rollouts, rlengine.rollout, []

        def rewrite_then_run(*args, **kwargs):  # after the index pass, in place: the open file sees the new bytes
            histories.write_text(changed, encoding="utf-8")
            return real_run(*args, **kwargs)

        def checked(policy, judge, instance, history, *args, **kwargs):
            rolled.append((instance.user_id, history.user_id))
            return real_rollout(policy, judge, instance, history, *args, **kwargs)

        monkeypatch.setattr(rlengine, "run_rollouts", rewrite_then_run)
        monkeypatch.setattr(rlengine, "rollout", checked)
        held = hold_indexes(monkeypatch)
        assert run("--jobs", jobs, *argv) == 1
        err = capsys.readouterr().err
        assert f"error (ValidationError): {histories}: changed after it was read: byte " in err
        assert all(user == history_user for user, history_user in rolled)
        assert not [p for p in outputs if p.exists()]
        assert len(held) == 1
        assert os.path.realpath(histories) not in open_paths()


class TestStartup:
    def test_cli_import_loads_no_stage_transport_yaml_or_numpy(self):
        loaded = _modules_loaded_by("import prefpipe.cli")
        assert "prefpipe.cli" in loaded
        assert not loaded & {"requests", "yaml", "numpy", "prefpipe.modelio", *_STAGE_MODULES}

    def test_simlab_import_loads_no_transport_or_yaml(self):
        loaded = _modules_loaded_by("import prefpipe.simlab")
        assert "prefpipe.simlab" in loaded
        assert not loaded & {"requests", "yaml"}

    def test_prune_loads_no_numpy(self, pipeline, tmp_path):
        argv = [
            "prune", "--scores", pipeline["scores"], "--preset", "amazon",
            "--out", str(tmp_path / "instances.jsonl"),
        ]
        loaded = _modules_loaded_by(f"import prefpipe.cli\nassert prefpipe.cli.main({argv!r}) == 0")
        assert not loaded & {"requests", "yaml", "numpy", "prefpipe.modelio", *_STAGE_MODULES}


def test_readme_walkthrough(tmp_path, monkeypatch):
    """Every command of the README walkthrough, run in order in an empty
    directory: each exits 0, each output is non-empty, and evaluate scores at
    least one instance."""
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "README.md"), encoding="utf-8") as fh:
        readme = fh.read()
    section = readme[readme.index("### Walkthrough"):readme.index("### Start-up")]
    lines = iter(
        line for block in section.split("```")[1::2] for line in block.replace("\\\n", " ").splitlines() if line
    )
    monkeypatch.chdir(tmp_path)
    outputs = []
    for line in lines:
        argv = shlex.split(line)
        if argv[:2] == ["cat", ">"]:  # cat > FILE <<EOF, the body, EOF
            body = itertools.takewhile(lambda body_line: body_line != "EOF", lines)
            (tmp_path / argv[2]).write_text("".join(f"{b}\n" for b in body), encoding="utf-8")
        elif argv[0] == "echo":  # echo 'TEXT' > FILE
            assert argv[2] == ">", line
            (tmp_path / argv[3]).write_text(argv[1] + "\n", encoding="utf-8")
        else:
            assert argv[0] == "prefpipe", line
            assert main(argv[1:]) == 0, line
            outputs += [argv[i + 1] for i, arg in enumerate(argv) if arg.startswith("--out") or arg == "--state-dir"]
    assert len(outputs) == 13
    for out in outputs:
        for path in [os.path.join(out, f) for f in os.listdir(out)] if os.path.isdir(out) else [out]:
            assert os.path.getsize(path) > 0, path
    with open("report.json", encoding="utf-8") as fh:
        assert json.load(fh)["n"] >= 1


def test_console_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "prefpipe.cli", "--help"], env={**os.environ, "PYTHONPATH": _SRC},
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert "simlab-gen" in proc.stdout
