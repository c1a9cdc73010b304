"""The benchmark's tracer wraps prefpipe functions and methods by name from
outside (``perfbench/tracing.py``). A rename or a move in ``src/`` would make
``--trace 1`` fail at install time, or stop timing a layer without a word;
this test catches that in the ordinary test run."""

import importlib
import json
import os

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")


def _tracing(monkeypatch):
    monkeypatch.syspath_prepend(PERFBENCH)
    return importlib.import_module("tracing")


def test_every_traced_function_exists_on_its_module(monkeypatch):
    tracing = _tracing(monkeypatch)
    missing = [
        f"{module.__name__}.{name}"
        for module, name, _, _ in tracing.FUNCTIONS
        if not callable(vars(module).get(name))
    ]
    assert not missing


def test_every_traced_method_is_defined_on_its_class(monkeypatch):
    tracing = _tracing(monkeypatch)
    missing = [
        f"{cls.__qualname__}.{name}"
        for cls, name, _, _ in tracing.METHODS
        if not callable(cls.__dict__.get(name))
    ]
    assert not missing


def test_every_censused_operation_is_defined_on_the_client(monkeypatch):
    """``perfbench/worker.py`` wraps each ``OPERATIONS`` name on ModelClient at
    start-up, so a missing one would crash every benchmark run."""
    from prefpipe.modelio import ModelClient

    monkeypatch.syspath_prepend(PERFBENCH)
    worker = importlib.import_module("worker")
    assert [name for name in worker.OPERATIONS if not callable(ModelClient.__dict__.get(name))] == []


def test_traced_corpus_stages_run_and_count_their_pairs(monkeypatch, tmp_path):
    """The info hooks read the traced functions' arguments by position; a new
    call shape must not make ``--trace 1`` fail."""
    from prefpipe.cli import main

    tracing = _tracing(monkeypatch)
    for lab, prefix, users in (("labA", "u", 4), ("labB", "v", 3)):
        assert main(["simlab-gen", "--out-dir", str(tmp_path / lab), "--users", str(users), "--user-prefix", prefix]) == 0
    hist_a, hist_b = str(tmp_path / "labA" / "histories.jsonl"), str(tmp_path / "labB" / "histories.jsonl")
    generator = {"base_url": f"mock:generator?truth={tmp_path / 'labA' / 'truth.jsonl'}"}
    synth_cfg = tmp_path / "synth.json"
    synth_cfg.write_text(json.dumps({"generator": generator, "judge": {"base_url": "mock:judge"}}), encoding="utf-8")
    gen_cfg, emb_cfg = tmp_path / "gen.json", tmp_path / "emb.json"
    gen_cfg.write_text(json.dumps(generator), encoding="utf-8")
    emb_cfg.write_text(json.dumps({"base_url": "mock:embedder"}), encoding="utf-8")
    stages = [
        ["synthesize-sft", "--histories", hist_a, "--scores", str(tmp_path / "labA" / "scores.jsonl"),
         "--config", str(synth_cfg), "--out", str(tmp_path / "sft.jsonl"), "--tau-tract", "0.3"],
        ["stream-infer", "--histories", hist_a, "--generator", str(gen_cfg), "--state-dir", str(tmp_path / "stream")],
        ["build-transfer", "--mode", "cross-domain", "--histories-a", hist_a, "--histories-b", hist_b,
         "--embedder", str(emb_cfg), "--top-k", "5", "--out", str(tmp_path / "cross.jsonl"),
         "--out-histories", str(tmp_path / "combined.jsonl")],
    ]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for jobs in ("1", "2"):
            for argv in stages:
                assert main(["--jobs", jobs, *argv]) == 0, argv
    finally:
        tracer.uninstall()
    assert not [span for span in tracer.spans if span[7] is not None]
    assert [span[6] for span in tracer.spans if span[3] == "transferbench.match"] == [4 * 3, 4 * 3]
