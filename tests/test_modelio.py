import json
import random
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from prefpipe.errors import (
    BackendError,
    CapabilityError,
    ConfigError,
    GenerationError,
    JudgeError,
    ValidationError,
)
from prefpipe.modelio import (
    HttpBackend,
    ModelClient,
    ModelEndpoint,
    ScriptBackend,
    build_backend,
    label_probability,
    load_endpoint,
    parse_selection,
    split_reasoning,
)
from prefpipe.modelio.client import MAX_RETRY_AFTER_S
from prefpipe.simlab import ScriptedEmbedderBackend, ScriptedGeneratorBackend

def make_client(backend, **endpoint_overrides):
    ep_kwargs = {"base_url": "mock:generator", **endpoint_overrides}
    return ModelClient(ModelEndpoint(**ep_kwargs), backend=backend, sleep=lambda s: None)


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------


class TestSplitReasoning:
    def test_extracts_first_block(self):
        reasoning, summary = split_reasoning("<think>because</think>\nthe summary")
        assert reasoning == "because"
        assert summary == "the summary"

    def test_no_markers_is_all_summary(self):
        assert split_reasoning("plain text") == (None, "plain text")

    def test_unclosed_tag_is_all_summary(self):
        text = "<think>never closed... summary?"
        assert split_reasoning(text) == (None, text.strip())

    def test_text_around_block_is_joined(self):
        reasoning, summary = split_reasoning("before <think>r</think> after")
        assert reasoning == "r"
        assert summary == "before  after".strip()

    def test_empty_block_gives_no_reasoning(self):
        reasoning, summary = split_reasoning("<think>  </think>summary")
        assert reasoning is None
        assert summary == "summary"

    def test_custom_tags(self):
        reasoning, summary = split_reasoning("[r]why[/r] text", "[r]", "[/r]")
        assert (reasoning, summary) == ("why", "text")

    def test_synthetic_corpus(self):
        # parser oracle over generated completions with and without markers
        rng = random.Random(7)
        for i in range(50):
            reasoning = f"step {i} reasoning" if rng.random() < 0.5 else None
            summary = f"summary body {i}"
            if reasoning is None:
                text = summary
            else:
                text = f"<think>{reasoning}</think>\n{summary}"
            got_reasoning, got_summary = split_reasoning(text)
            assert got_reasoning == reasoning
            assert got_summary == summary


class TestParseSelection:
    def test_clean_json(self):
        assert parse_selection('{"selection": "Item A"}') == "A"
        assert parse_selection('{"selection": "Item B"}', strict=True) == "B"

    def test_fenced_json(self):
        assert parse_selection('```json\n{"selection": "Item B"}\n```') == "B"
        assert parse_selection('```\n{"selection": "Item A"}\n```', strict=True) == "A"

    def test_noisy_reply_recovered_by_default(self):
        text = 'Sure! {"selection": "Item A"} hope that helps'
        assert parse_selection(text) == "A"
        assert parse_selection(text, strict=True) is None

    def test_short_and_bracketed_labels(self):
        assert parse_selection('{"selection": "a"}') == "A"
        assert parse_selection('{"selection": "[Item B]"}') == "B"

    def test_unfilled_placeholder_is_no_choice(self):
        assert parse_selection('{"selection": "[Item A / Item B]"}') is None

    def test_garbage(self):
        assert parse_selection("no choice here") is None
        assert parse_selection('{"selection": 2}') is None
        assert parse_selection("") is None


def test_label_probability_hand_case():
    # ln p_A = -0.1, ln p_B = -2.4 under a two-way softmax
    assert abs(label_probability(-0.1, -2.4) - 0.9089) < 1e-4


def test_label_probability_symmetry():
    assert label_probability(-1.3, -1.3) == 0.5
    p = label_probability(-0.2, -1.7)
    q = label_probability(-1.7, -0.2)
    assert abs(p + q - 1.0) < 1e-12


def test_label_probability_survives_sentinel_logprobs():
    # -9999 is the usual server sentinel for a label outside the top-k
    assert label_probability(-9999.0, -0.1) == 0.0
    assert label_probability(-0.1, -9999.0) == 1.0


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
def test_label_probability_rejects_non_finite(bad):
    with pytest.raises(JudgeError):
        label_probability(bad, -0.5)
    with pytest.raises(JudgeError):
        label_probability(-0.5, bad)


_LOGPROBS = st.floats(min_value=-1e6, max_value=0.0, allow_nan=False)


@given(_LOGPROBS, _LOGPROBS)
def test_label_probability_is_a_two_way_distribution(a, b):
    p, q = label_probability(a, b), label_probability(b, a)
    assert 0.0 <= p <= 1.0
    assert abs(p + q - 1.0) <= 1e-12


# ---------------------------------------------------------------------------
# Endpoint configuration
# ---------------------------------------------------------------------------


class TestModelEndpoint:
    def test_from_dict_rejects_unknown_keys(self):
        with pytest.raises(ConfigError, match="unknown endpoint"):
            ModelEndpoint.from_dict({"base_url": "mock:generator", "tempreature": 0.1})

    def test_role_is_not_an_endpoint_key(self):
        with pytest.raises(ConfigError, match=r"unknown endpoint config keys: \['role'\]"):
            ModelEndpoint.from_dict({"base_url": "mock:generator", "role": "policy"})

    def test_nan_is_not_a_float_but_inf_is(self, tmp_path):
        path = tmp_path / "ep.yaml"
        path.write_text("base_url: mock:generator\nbackoff_base: .nan\n")
        with pytest.raises(ConfigError, match="endpoint config key 'backoff_base' must be float, got nan"):
            load_endpoint(str(path))
        path.write_text("base_url: http://127.0.0.1:1\ntimeout: .inf\n")
        endpoint = load_endpoint(str(path))
        assert endpoint.timeout == float("inf")
        assert HttpBackend(endpoint).timeout is None  # no timeout

    def test_validation(self):
        with pytest.raises(ConfigError):
            ModelEndpoint(base_url="")
        with pytest.raises(ConfigError):
            ModelEndpoint(base_url="mock:generator", retry_limit=-1)
        with pytest.raises(ConfigError):
            ModelEndpoint(base_url="mock:generator", max_prompt_tokens=0)
        with pytest.raises(ConfigError):
            ModelEndpoint(base_url="mock:generator", judge_samples=0)
        for field, value in [
            ("backoff_base", -1.0), ("backoff_base", float("inf")), ("timeout", 0.0), ("timeout", -5.0), ("max_output_tokens", 0),
            ("temperature", -1.0), ("temperature", float("inf")),
        ]:
            with pytest.raises(ConfigError, match=f"^{field} must be"):
                ModelEndpoint(base_url="mock:generator", **{field: value})
        # the least legal values
        ModelEndpoint(base_url="mock:generator", backoff_base=0.0, max_output_tokens=1, temperature=0.0)

    def test_load_yaml_and_json(self, tmp_path):
        y = tmp_path / "ep.yaml"
        y.write_text("base_url: mock:generator\ntemperature: 0.2\n")
        ep = load_endpoint(str(y))
        assert ep.base_url == "mock:generator"
        assert ep.temperature == 0.2

        j = tmp_path / "ep.json"
        j.write_text('{"base_url": "mock:generator", "model_id": "m"}')
        assert load_endpoint(str(j)).model_id == "m"

    def test_load_rejects_bad_files(self, tmp_path):
        with pytest.raises(ConfigError):
            load_endpoint(str(tmp_path / "missing.yaml"))
        bad = tmp_path / "ep.cfg"
        bad.write_text("x")
        with pytest.raises(ConfigError):
            load_endpoint(str(bad))
        notmap = tmp_path / "list.yaml"
        notmap.write_text("- 1\n- 2\n")
        with pytest.raises(ConfigError):
            load_endpoint(str(notmap))


def test_build_backend_dispatch():
    # each simlab kind resolves (tests/test_simlab.py::TestMockKinds); nothing else does
    for url in ("mock:nosuchkind", "mock:", "mock:hash"):
        with pytest.raises(ConfigError, match=r"unknown mock backend kind .*; known: \['embedder', 'generator', 'judge'\]"):
            build_backend(ModelEndpoint(base_url=url))
    with pytest.raises(ConfigError, match="scheme"):
        build_backend(ModelEndpoint(base_url="ftp://example"))


# ---------------------------------------------------------------------------
# Client behavior on scripted backends
# ---------------------------------------------------------------------------


class TestGenerateSummary:
    def test_mock_is_deterministic(self):
        a = make_client(ScriptedGeneratorBackend(seed=3, quality=0.5)).generate_summary("same prompt")
        b = make_client(ScriptedGeneratorBackend(seed=3, quality=0.5)).generate_summary("same prompt")
        assert a == b
        assert a.reasoning is not None
        assert a.summary
        assert a.raw.startswith("<think>")

    def test_empty_completion_raises(self):
        client = make_client(ScriptBackend(completer=lambda p, ctx: "  "))
        with pytest.raises(GenerationError):
            client.generate_summary("p")

    def test_sample_seed_reaches_backend(self):
        seen = []
        client = make_client(ScriptBackend(completer=lambda p, ctx: seen.append(ctx["seed"]) or "ok"))
        client.generate_summary("p", sample_seed=1234)
        assert seen == [1234]

    def test_logprob_length_matches_tokens(self):
        result = make_client(ScriptedGeneratorBackend(seed=0, quality=0.5)).generate_summary("p")
        assert len(result.token_logprobs) == len(result.raw.split())


class TestTruncation:
    def test_keeps_newest_tail(self):
        seen = []
        client = make_client(
            ScriptBackend(completer=lambda p, ctx: seen.append(p) or "ok"),
            max_prompt_tokens=4,
        )
        client.generate_summary("one two three four five six seven eight nine ten")
        assert seen == ["seven eight nine ten"]
        assert client.stats["truncations"] == 1
        assert client.stats["truncated_tokens"] == 6

    def test_noop_without_limit(self):
        seen = []
        client = make_client(ScriptBackend(completer=lambda p, ctx: seen.append(p) or "ok"))
        client.generate_summary("one two three")
        assert seen == ["one two three"]
        assert client.stats["truncations"] == 0


class TestRetries:
    def make_flaky(self, failures, retryable=True):
        calls = {"n": 0}

        def completer(prompt, ctx):
            calls["n"] += 1
            if calls["n"] <= failures:
                raise BackendError("boom", retryable=retryable)
            return "recovered"

        return ScriptBackend(completer=completer), calls

    def test_retries_then_succeeds(self):
        backend, calls = self.make_flaky(2)
        delays = []
        client = ModelClient(
            ModelEndpoint(base_url="mock:generator", retry_limit=3, backoff_base=0.5),
            backend=backend,
            sleep=delays.append,
        )
        result = client.generate_summary("p")
        assert result.summary == "recovered"
        assert calls["n"] == 3
        assert delays == [0.5, 1.0]  # exponential backoff
        assert client.stats["retries"] == 2

    def test_gives_up_after_budget(self):
        backend, calls = self.make_flaky(10)
        client = ModelClient(
            ModelEndpoint(base_url="mock:generator", retry_limit=2), backend=backend, sleep=lambda s: None
        )
        with pytest.raises(BackendError):
            client.generate_summary("p")
        assert calls["n"] == 3  # initial try + 2 retries

    def test_backoff_releases_the_in_flight_slot(self):
        backend, calls = self.make_flaky(2)
        free_while_sleeping = []

        def sleep(delay):
            got = client._sem.acquire(blocking=False)
            if got:
                client._sem.release()
            free_while_sleeping.append(got)

        client = ModelClient(
            ModelEndpoint(base_url="mock:generator", retry_limit=3, max_in_flight=1), backend=backend, sleep=sleep
        )
        assert client.generate_summary("p").summary == "recovered"
        assert free_while_sleeping == [True, True]
        assert client._sem.acquire(blocking=False)  # and released after success

    def test_non_retryable_fails_fast(self):
        backend, calls = self.make_flaky(10, retryable=False)
        delays = []
        client = ModelClient(
            ModelEndpoint(base_url="mock:generator", retry_limit=5), backend=backend, sleep=delays.append
        )
        with pytest.raises(BackendError):
            client.generate_summary("p")
        assert calls["n"] == 1
        assert delays == []


class TestJudgePair:
    def test_debias_order_invariance(self):
        def biased(prompt, labels, ctx):  # a judge swayed by presentation order and wording alike
            rng = random.Random(prompt)
            return -rng.uniform(0.05, 3.0), -rng.uniform(0.05, 3.0)

        client = make_client(ScriptBackend(chooser=biased))
        p = client.judge_pair("pref", "ctx", "item one", "item two").prob_first
        q = client.judge_pair("pref", "ctx", "item two", "item one").prob_first
        assert abs(p + q - 1.0) < 1e-12

    def test_input_validation(self):
        client = make_client(ScriptBackend())
        with pytest.raises(ValidationError):
            client.judge_pair("p", None, "", "b")
        with pytest.raises(ValidationError):
            client.judge_pair("p", None, "same", "same")

    def test_single_order_without_debias(self):
        chooser = lambda prompt, labels, ctx: (-0.1, -2.4)
        client = make_client(ScriptBackend(chooser=chooser))
        verdict = client.judge_pair("p", None, "a", "b", debias=False)
        assert client.stats["attempts"] == 1  # one order, read from its label logprobs
        assert abs(verdict.prob_first - label_probability(-0.1, -2.4)) < 1e-12

    def test_sampling_fallback_counts_selections(self):
        replies = iter(['{"selection": "Item A"}'] * 6 + ['{"selection": "Item B"}'] * 2)
        client = make_client(
            ScriptBackend(completer=lambda p, ctx: next(replies)), judge_samples=8
        )
        verdict = client.judge_pair("p", None, "a", "b", debias=False)
        assert client.stats["attempts"] == 1 + 8  # no label logprobs, then k samples
        assert verdict.prob_first == 6 / 8

    def test_sampling_skips_unparseable(self):
        replies = iter(["??"] * 4 + ['{"selection": "Item A"}'] * 3 + ['{"selection": "Item B"}'])
        client = make_client(
            ScriptBackend(completer=lambda p, ctx: next(replies)), judge_samples=8
        )
        verdict = client.judge_pair("p", None, "a", "b", debias=False)
        assert verdict.prob_first == 3 / 4  # the 4 unparseable samples count for neither label
        assert client.stats["attempts"] == 1 + 8

    def test_all_unparseable_raises(self):
        client = make_client(ScriptBackend(completer=lambda p, ctx: "??"), judge_samples=4)
        with pytest.raises(JudgeError):
            client.judge_pair("p", None, "a", "b", debias=False)


    def test_decision_only_stops_once_the_rest_cannot_flip_it(self):
        client = make_client(ScriptBackend(completer=lambda p, ctx: '{"selection": "Item A"}'), judge_samples=8)
        verdict = client.judge_pair("p", None, "a", "b", debias=False, decision_only=True)
        assert client.stats["attempts"] == 1 + 5  # after 5 of 8 "A"s, 3 "B"s would still leave 5/8 > 0.5
        assert verdict.prob_first == 1.0

    def test_decision_only_never_stops_without_a_decided_sample(self):
        client = make_client(ScriptBackend(completer=lambda p, ctx: "??"), judge_samples=4)
        with pytest.raises(JudgeError):
            client.judge_pair("p", None, "a", "b", decision_only=True)
        assert client.stats["attempts"] == 1 + 4

    @given(
        st.lists(st.sampled_from("AB?"), min_size=5, max_size=5),
        st.lists(st.sampled_from("AB?"), min_size=5, max_size=5),
        st.booleans(),
    )
    @example(list("BBBBB"), list("?AAAA"), True)  # answered "no" whatever p_rev is, yet still needs a decided sample
    def test_decision_only_keeps_the_full_k_decision(self, forward, reverse, debias):
        """Whatever the samples say, stopping early gives the decision all k
        samples give, or the same JudgeError, and never costs more requests."""
        replies = {"A": '{"selection": "Item A"}', "B": '{"selection": "Item B"}', "?": "??"}

        def judge(decision_only):
            orders, served = iter((forward, reverse)), {}  # the forward order's prompt comes first

            def completer(prompt, ctx):
                if prompt not in served:
                    served[prompt] = iter(next(orders))
                return replies[next(served[prompt])]

            client = make_client(ScriptBackend(completer=completer), judge_samples=5)
            try:
                verdict = client.judge_pair("p", None, "a", "b", debias=debias, decision_only=decision_only)
            except JudgeError:
                return None, client.stats["attempts"]
            return verdict.prob_first > 0.5, client.stats["attempts"]

        (full, full_attempts), (early, early_attempts) = judge(False), judge(True)
        assert early == full
        assert early_attempts <= full_attempts


def test_policy_logprobs_is_a_stub_that_calls_no_backend():
    client = make_client(ScriptBackend())  # no callables: any backend call would raise its own error
    with pytest.raises(CapabilityError, match="--new-logprobs"):
        client.policy_logprobs("prompt", "response")
    assert client.stats == {}


class TestEmbed:
    def test_deterministic_and_normalized(self):
        client = make_client(ScriptedEmbedderBackend(seed=1))
        v1 = client.embed("same text")
        v2 = client.embed("same text")
        assert np.array_equal(v1, v2)
        assert abs(np.linalg.norm(v1) - 1.0) < 1e-6
        assert abs(float(v1 @ v1) - 1.0) < 1e-6

    def test_normalizes_raw_vectors(self):
        client = make_client(ScriptBackend(embedder=lambda t: [3.0, 4.0]))
        assert np.allclose(client.embed("t"), [0.6, 0.8])

    def test_rejects_degenerate_vectors(self):
        for vector in ([0.0, 0.0], []):
            with pytest.raises(BackendError) as exc_info:
                make_client(ScriptBackend(embedder=lambda t: vector)).embed("t")
            assert exc_info.value.per_item

    @pytest.mark.filterwarnings("error")
    def test_norm_past_the_float_range_is_refused_without_a_warning(self):
        with pytest.raises(BackendError, match="finite, non-zero norm") as exc_info:
            make_client(ScriptBackend(embedder=lambda t: [1e308, 1e308])).embed("t")
        assert exc_info.value.per_item


# ---------------------------------------------------------------------------
# HTTP transport against a local server
# ---------------------------------------------------------------------------


class _ScriptedHandler(BaseHTTPRequestHandler):
    def log_message(self, *args):
        pass

    def do_POST(self):
        length = int(self.headers.get("Content-Length", 0))
        body = json.loads(self.rfile.read(length) or b"{}")
        self.server.requests.append({"path": self.path, "body": body, "headers": dict(self.headers)})
        headers = {}
        if self.server.queue:
            status, payload, *extra = self.server.queue.pop(0)
            headers = extra[0] if extra else {}
        else:
            status, payload = 200, self.server.default_payload(self.path, body)
        data = json.dumps(payload).encode()
        self.send_response(status)
        for name, value in headers.items():
            self.send_header(name, value)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)


class _ScriptedServer(ThreadingHTTPServer):
    def __init__(self):
        super().__init__(("127.0.0.1", 0), _ScriptedHandler)
        self.requests = []
        self.queue = []

    @property
    def url(self):
        return f"http://127.0.0.1:{self.server_address[1]}"

    @staticmethod
    def chat_payload(text="<think>why</think>\nan http summary", logprobs=(-0.5, -0.25)):
        return {
            "choices": [
                {
                    "message": {"content": text},
                    "logprobs": {"content": [{"token": f"t{i}", "logprob": lp} for i, lp in enumerate(logprobs)]},
                }
            ]
        }

    def default_payload(self, path, body):
        if path == "/chat/completions":
            return self.chat_payload()
        if path == "/embeddings":
            return {"data": [{"embedding": [3.0, 4.0]}]}
        return {}


@pytest.fixture()
def server():
    srv = _ScriptedServer()
    thread = threading.Thread(target=srv.serve_forever, kwargs={"poll_interval": 0.01}, daemon=True)
    thread.start()
    yield srv
    srv.shutdown()
    srv.server_close()
    thread.join(timeout=5)


def http_client(server, sleep=lambda s: None, **overrides):
    defaults = {"base_url": server.url, "retry_limit": 2, "backoff_base": 0.01, "timeout": 5.0}
    defaults.update(overrides)
    return ModelClient(ModelEndpoint(**defaults), sleep=sleep)


class TestHttpBackend:
    def test_complete_happy_path(self, server):
        result = http_client(server).generate_summary("hello")
        assert result.summary == "an http summary"
        assert result.reasoning == "why"
        assert result.token_logprobs == (-0.5, -0.25)
        body = server.requests[0]["body"]
        assert body["messages"] == [{"role": "user", "content": "hello"}]
        assert body["logprobs"] is True

    def test_api_key_header(self, server, monkeypatch):
        monkeypatch.setenv("TEST_MODEL_KEY", "sekrit")
        client = http_client(server, api_key_env="TEST_MODEL_KEY")
        monkeypatch.delenv("TEST_MODEL_KEY")  # the key was read when the client was built
        client.generate_summary("p")
        assert server.requests[0]["headers"]["Authorization"] == "Bearer sekrit"

    def test_api_key_wins_over_netrc(self, server, monkeypatch, tmp_path):
        (tmp_path / ".netrc").write_text("machine 127.0.0.1 login netrc-user password netrc-pass\n")
        (tmp_path / ".netrc").chmod(0o600)
        monkeypatch.setenv("HOME", str(tmp_path))
        monkeypatch.delenv("NETRC", raising=False)
        monkeypatch.setenv("TEST_MODEL_KEY", "sekrit")
        http_client(server, api_key_env="TEST_MODEL_KEY").generate_summary("p")
        http_client(server).generate_summary("p")  # without a key, no login is sent: .netrc is never read
        assert server.requests[0]["headers"]["Authorization"] == "Bearer sekrit"
        assert "Authorization" not in server.requests[1]["headers"]

    def test_redirect_is_refused_and_the_key_is_sent_once(self, server, monkeypatch, tmp_path, capsys):
        """A 3xx aborts the run before anything follows it: the one request
        sent carried the key, and the ``.netrc`` login for the same host is
        never read."""
        from prefpipe._util import write_jsonl
        from prefpipe.cli import main
        from prefpipe.core import InteractionTriple, UserHistory

        netrc = tmp_path / "netrc"
        netrc.write_text("machine 127.0.0.1 login netrc-user password netrc-pass\n")
        netrc.chmod(0o600)
        monkeypatch.setenv("NETRC", str(netrc))
        monkeypatch.setenv("TEST_MODEL_KEY", "sekrit")
        histories = str(tmp_path / "histories.jsonl")
        triples = tuple(InteractionTriple(index=i, chosen=f"a{i}", rejected=f"b{i}") for i in range(4))
        write_jsonl(histories, [UserHistory(user_id="u1", triples=triples).to_dict()])
        generator = tmp_path / "generator.json"
        generator.write_text(json.dumps({"base_url": server.url, "api_key_env": "TEST_MODEL_KEY"}))
        server.queue = [(307, {}, {"Location": f"{server.url}/v2/chat/completions"})]
        argv = ["stream-infer", "--histories", histories, "--generator", str(generator), "--state-dir", str(tmp_path / "s")]
        assert main(argv) == 1
        assert [r["path"] for r in server.requests] == ["/chat/completions"]
        assert server.requests[0]["headers"]["Authorization"] == "Bearer sekrit"
        err = capsys.readouterr().err
        assert "error (ConfigError)" in err and "HTTP 307" in err and "/v2/chat/completions" in err

    def test_missing_api_key_is_config_error(self, server, monkeypatch):
        monkeypatch.delenv("NOPE_KEY", raising=False)
        with pytest.raises(ConfigError, match="NOPE_KEY"):
            http_client(server, api_key_env="NOPE_KEY")
        assert server.requests == []

    @pytest.mark.parametrize("direct", [False, True], ids=["proxied", "no-proxy"])
    def test_proxy_from_the_environment(self, server, monkeypatch, direct):
        for name in ("http_proxy", "https_proxy", "all_proxy", "no_proxy", "ALL_PROXY", "HTTPS_PROXY", "NO_PROXY"):
            monkeypatch.delenv(name, raising=False)
        if direct:  # NO_PROXY bypasses a dead proxy: nothing listens on port 1
            monkeypatch.setenv("HTTP_PROXY", "http://127.0.0.1:1")
            monkeypatch.setenv("NO_PROXY", "127.0.0.1")
            base_url, target = server.url, "/chat/completions"
        else:  # the proxy gets the request in absolute form
            monkeypatch.setenv("HTTP_PROXY", server.url)
            base_url, target = "http://model.test/v1", "http://model.test/v1/chat/completions"
        server.queue = [(200, _ScriptedServer.chat_payload())]
        client = http_client(server, base_url=base_url, retry_limit=0)
        assert client.generate_summary("p").summary == "an http summary"
        assert [r["path"] for r in server.requests] == [target]

    def test_retries_on_server_errors(self, server):
        server.queue = [(500, {}), (429, {})]
        result = http_client(server).generate_summary("p")
        assert result.summary == "an http summary"
        assert len(server.requests) == 3

    @pytest.mark.parametrize(
        "status, retry_after, delay",
        [
            (503, "3", 3.0),  # longer than the 0.01 s backoff: the server's wait wins
            (429, "100", 5.0),  # capped at the endpoint's 5 s timeout
            (503, "0", 0.01),  # shorter than the backoff: the backoff wins
            (503, "Wed, 21 Oct 2026 07:28:00 GMT", 0.01),  # HTTP-date form is not parsed
            (500, "3", 0.01),  # only 429 and 503 carry a Retry-After
        ],
    )
    def test_retry_after_sets_the_backoff(self, server, status, retry_after, delay):
        server.queue = [(status, {}, {"Retry-After": retry_after})]
        delays = []
        assert http_client(server, sleep=delays.append).generate_summary("p").summary == "an http summary"
        assert delays == [delay]
        assert len(server.requests) == 2

    @pytest.mark.parametrize("timeout", [float("inf"), 1e30])
    def test_retry_after_beyond_any_timeout_is_capped(self, server, timeout):
        # uncapped, a 1e20 s wait overflows time.sleep
        server.queue = [(503, {}, {"Retry-After": "99999999999999999999"})]
        delays = []
        client = http_client(server, sleep=delays.append, timeout=timeout)
        assert client.generate_summary("p").summary == "an http summary"
        assert delays == [MAX_RETRY_AFTER_S]
        assert len(server.requests) == 2

    def test_client_error_fails_fast(self, server):
        server.queue = [(400, {"error": "bad request"})]
        with pytest.raises(BackendError) as exc_info:
            http_client(server).generate_summary("p")
        assert not exc_info.value.retryable
        assert len(server.requests) == 1

    def test_extra_body_merged(self, server):
        http_client(server, extra={"body": {"top_p": 0.9}}).generate_summary("p")
        assert server.requests[0]["body"]["top_p"] == 0.9

    def test_choice_logprobs_scans_label_position(self, server):
        server.queue = [
            (
                200,
                {
                    "choices": [
                        {
                            "message": {"content": '{"selection": "Item A"}'},
                            "logprobs": {
                                "content": [
                                    {"token": "{", "logprob": -0.01, "top_logprobs": []},
                                    {
                                        "token": "A",
                                        "logprob": -0.1,
                                        "top_logprobs": [
                                            {"token": "A", "logprob": -0.1},
                                            {"token": "B", "logprob": -2.4},
                                        ],
                                    },
                                ]
                            },
                        }
                    ]
                },
            )
        ]
        client = http_client(server)
        verdict = client.judge_pair("pref", None, "x", "y", debias=False)
        assert client.stats["attempts"] == 1
        assert abs(verdict.prob_first - label_probability(-0.1, -2.4)) < 1e-12

    def test_no_label_position_falls_back_to_sampling(self, server):
        # first call: logprobs present but never both labels; then 3 sampled picks
        sel = (200, _ScriptedServer.chat_payload(text='{"selection": "Item A"}', logprobs=(-0.1,)))
        server.queue = [_only_brace(), sel, sel, sel]
        client = http_client(server, judge_samples=3)
        verdict = client.judge_pair("pref", None, "x", "y", debias=False)
        assert client.stats["attempts"] == 1 + 3
        assert verdict.prob_first == 1.0

    def test_score_is_refused_without_a_request(self, server):
        with pytest.raises(CapabilityError, match="--new-logprobs"):
            http_client(server).policy_logprobs("prompt ", "response")
        assert server.requests == []

    @pytest.mark.parametrize("key", ["completions_echo", "top_p"])
    def test_extra_key_other_than_body_is_config_error(self, server, key):
        with pytest.raises(ConfigError, match=rf"^unknown endpoint setting extra\.{key}: extra holds only body$"):
            http_client(server, extra={"body": {}, key: True})
        assert server.requests == []

    def test_embed_route(self, server):
        vec = http_client(server).embed("text")
        assert np.allclose(vec, [0.6, 0.8])
        assert server.requests[0]["path"] == "/embeddings"

    def test_infinite_timeout_means_no_timeout(self, server):
        client = http_client(server, timeout=float("inf"))
        assert np.allclose(client.embed("text"), [0.6, 0.8])
        assert client.generate_summary("p").summary == "an http summary"

    @pytest.mark.parametrize("max_in_flight", [2, 16])
    def test_connection_pool_matches_in_flight_limit(self, max_in_flight):
        backend = HttpBackend(ModelEndpoint(base_url="http://127.0.0.1:1", max_in_flight=max_in_flight))
        for url in ("http://127.0.0.1:1/x", "https://example.invalid/x"):
            assert backend.session.get_adapter(url)._pool_maxsize == max_in_flight

    def test_malformed_response_is_not_retried(self, server):
        server.queue = [(200, {"nonsense": True})]
        with pytest.raises(BackendError) as exc_info:
            http_client(server).generate_summary("p")
        assert not exc_info.value.retryable

    @pytest.mark.parametrize(
        "operation, value",
        [("complete", "NaN"), ("complete", float("nan")), ("complete", float("inf")), ("embed", float("inf"))],
        ids=["complete-string-nan", "complete-json-nan", "complete-json-infinity", "embed-json-infinity"],
    )
    def test_non_finite_number_fails_only_that_request(self, server, operation, value):
        """json.dumps writes a float NaN as the bare token NaN and inf as
        Infinity, as some servers do; the string "NaN" parses to the same."""
        client = http_client(server)
        call, payload = {
            "complete": (lambda: client.generate_summary("p"), _ScriptedServer.chat_payload(logprobs=(value, -0.5))),
            "embed": (lambda: client.embed("text"), {"data": [{"embedding": [3.0, value]}]}),
        }[operation]
        server.queue = [(200, payload)]
        with pytest.raises(BackendError, match="finite") as exc_info:
            call()
        assert not exc_info.value.retryable and exc_info.value.per_item
        assert len(server.requests) == 1

    @pytest.mark.parametrize("operation", ["complete", "choice_logprobs"])
    @pytest.mark.parametrize(
        "value, reason",
        [(True, "malformed"), (" 1e3 ", "malformed"), (0.5, "above 0")],
        ids=["bool", "numeric-string", "positive"],
    )
    def test_logprob_that_is_no_log_probability_fails_only_that_request(self, server, operation, value, reason):
        """float() would read true as 1.0 and " 1e3 " as 1000.0, and a value
        above 0 is a probability above 1."""
        client = http_client(server)
        call, payload = {
            "complete": (lambda: client.generate_summary("p"), _ScriptedServer.chat_payload(logprobs=(value, -0.5))),
            "choice_logprobs": (lambda: client.judge_pair("pref", None, "x", "y", debias=False), _label_payload(value)),
        }[operation]
        server.queue = [(200, payload)]
        with pytest.raises(BackendError, match=reason) as exc_info:
            call()
        assert not exc_info.value.retryable and exc_info.value.per_item
        assert len(server.requests) == 1

    @pytest.mark.parametrize("value", [True, None, "0.5", "x"], ids=["bool", "null", "numeric-string", "word"])
    def test_label_logprob_or_embedding_that_is_no_number_fails_only_that_request(self, server, value):
        """float() would read true as 1.0 and "0.5" as 0.5; a null label
        logprob used to be passed over as if the label were absent."""
        client = http_client(server)
        for call, payload in [
            (lambda: client.judge_pair("pref", None, "x", "y", debias=False), _label_payload(value)),
            (lambda: client.embed("text"), {"data": [{"embedding": [value, 0.5, 1]}]}),
        ]:
            server.requests.clear()
            server.queue = [(200, payload)]
            with pytest.raises(BackendError, match="malformed") as exc_info:
                call()
            assert not exc_info.value.retryable and exc_info.value.per_item
            assert len(server.requests) == 1

    @pytest.mark.parametrize("content", [5, True, [1], {"a": 1}], ids=["number", "bool", "list", "object"])
    def test_message_content_that_is_no_string_fails_only_that_request(self, server, content):
        """Only a string or null is message content; anything else used to
        reach the reply parsers and end in an AttributeError."""
        client = http_client(server, judge_samples=3)
        for call, queue in [
            (lambda: client.generate_summary("p"), []),
            (lambda: client.judge_pair("pref", None, "x", "y", debias=False), [_only_brace()]),  # the sampling fallback
        ]:
            server.requests.clear()
            server.queue = [*queue, (200, _ScriptedServer.chat_payload(text=content))]
            with pytest.raises(BackendError, match="malformed message content") as exc_info:
                call()
            assert not exc_info.value.retryable and exc_info.value.per_item
            assert len(server.requests) == len(queue) + 1


def _label_payload(lp_a):
    """A judge reply whose label position gives "A" the logprob ``lp_a`` and "B" -0.7."""
    position = {"token": "A", "logprob": lp_a, "top_logprobs": [{"token": "B", "logprob": -0.7}]}
    return {"choices": [{"message": {"content": '{"selection": "Item A"}'}, "logprobs": {"content": [position]}}]}


def _only_brace():
    return (
        200,
        {
            "choices": [
                {
                    "message": {"content": "{"},
                    "logprobs": {"content": [{"token": "{", "logprob": -0.01, "top_logprobs": []}]},
                }
            ]
        },
    )


def test_concurrent_calls_respect_in_flight_limit():
    active = {"now": 0, "peak": 0}
    lock = threading.Lock()

    def completer(prompt, ctx):
        with lock:
            active["now"] += 1
            active["peak"] = max(active["peak"], active["now"])
        threading.Event().wait(0.01)
        with lock:
            active["now"] -= 1
        return "ok"

    client = make_client(ScriptBackend(completer=completer), max_in_flight=2)
    threads = [threading.Thread(target=client.generate_summary, args=(f"p{i}",)) for i in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert active["peak"] <= 2
    assert client.stats["generate_calls"] == 8


@pytest.mark.parametrize(
    "bad_token",
    [{"logprob": "NaN"}, {"logprob": "abc"}, {"logprob": None}, {}, {"logprob": True}, {"logprob": 0.5}],
    ids=["nan", "not-a-number", "null", "no-logprob-key", "bool", "positive"],
)
def test_rollout_skips_the_instance_whose_reply_has_a_bad_logprob(server, tmp_path, bad_token):
    """A NaN, non-numeric, null, missing, bool or positive token logprob from
    the server costs only its instance: rollout exits 0, counts it, and every line of
    batch.jsonl is JSON without NaN."""
    from prefpipe._util import write_jsonl
    from prefpipe.cli import main
    from prefpipe.core import InteractionTriple, UserHistory

    users = ("u1", "bad", "u3")
    histories = str(tmp_path / "histories.jsonl")
    write_jsonl(histories, [
        UserHistory(user_id=uid, triples=tuple(
            InteractionTriple(index=i, chosen=f"{uid}-item-{i}-a", rejected=f"{uid}-item-{i}-b") for i in range(6)
        )).to_dict()
        for uid in users
    ])
    instances = str(tmp_path / "instances.jsonl")
    write_jsonl(instances, [{"user_id": uid, "k1": 2, "k2": 4} for uid in users])

    def payload(path, body):
        reply = _ScriptedServer.chat_payload(logprobs=(-0.5, -0.25))
        if "bad-item" in body["messages"][0]["content"]:
            reply["choices"][0]["logprobs"]["content"][0] = {"token": "t0", **bad_token}
        return reply

    server.default_payload = payload
    config = tmp_path / "rollout.json"
    config.write_text(json.dumps({"policy": {"base_url": server.url, "retry_limit": 0}, "judge": {"base_url": "mock:judge"}}))
    batch = str(tmp_path / "batch.jsonl")
    assert main([
        "rollout", "--instances", instances, "--histories", histories, "--config", str(config),
        "--gamma", "0.5", "--group-size", "2", "--out", batch,
    ]) == 0

    def no_constant(token):
        raise ValueError(f"{token} is not JSON")

    with open(batch, encoding="utf-8") as fh:
        records = [json.loads(line, parse_constant=no_constant) for line in fh]
    assert {rec["user_id"] for rec in records} == {"u1", "u3"}
    assert len(records) == 2 * 2 * 2  # two instances, two stages, two samples
    with open(f"{batch}.manifest.json", encoding="utf-8") as fh:
        assert json.load(fh)["stats"]["skipped_by_reason"] == {"BackendError": 1}


def test_stream_infer_skips_the_user_whose_reply_content_is_no_string(server, tmp_path):
    """A message content that is a number costs only its user: stream-infer
    exits 0 and counts the user under its reason."""
    from prefpipe._util import write_jsonl
    from prefpipe.cli import main
    from prefpipe.core import InteractionTriple, UserHistory

    histories = str(tmp_path / "histories.jsonl")
    write_jsonl(histories, [
        UserHistory(user_id=uid, triples=tuple(
            InteractionTriple(index=i, chosen=f"{uid}-item-{i}-a", rejected=f"{uid}-item-{i}-b") for i in range(4)
        )).to_dict()
        for uid in ("u1", "bad", "u3")
    ])

    def payload(path, body):
        return _ScriptedServer.chat_payload(text=5 if "bad-item" in body["messages"][0]["content"] else "a summary")

    server.default_payload = payload
    generator = tmp_path / "generator.json"
    generator.write_text(json.dumps({"base_url": server.url, "retry_limit": 0}))
    state_dir = tmp_path / "stream"
    assert main([
        "stream-infer", "--histories", histories, "--generator", str(generator), "--state-dir", str(state_dir),
    ]) == 0
    with open(state_dir / "summaries.jsonl", encoding="utf-8") as fh:
        assert [json.loads(line)["user_id"] for line in fh] == ["u1", "u3"]
    with open(state_dir / "manifest.json", encoding="utf-8") as fh:
        assert json.load(fh)["stats"]["skipped_by_reason"] == {"BackendError": 1}
