"""Stub chat-completion server for the benchmark's HTTP workload.

Serves ``/<role>/chat/completions`` and ``/<role>/embeddings`` for the roles
``generator``, ``judge`` and ``embedder``; every reply comes from the simlab
scripted backends, so the pipeline sees the same kind of answers as with the
``mock:`` endpoints. It runs in its own process so that its CPU time never
holds the pipeline's interpreter lock.

Behaviour that the benchmark depends on:

- keep-alive HTTP/1.1 with TCP_NODELAY, so a request is not stalled by
  delayed ACKs and the benchmark times the program rather than the kernel;
- a fixed delay per request (``DELAY_S``) standing in for model latency;
- a 503 on the first attempt of every request whose body hash is divisible by
  ``FAIL_EVERY``. The choice depends on content only, so retry counts repeat
  exactly; the set of failed bodies is cleared at each pass boundary.

``GET /control/next-pass`` returns the counters (requests, 503s, connections
that carried a model request, bytes in and out, peak in-flight requests,
summed service and compute time), then resets the peak and the failed-body
set for the next pass. Control requests are not counted.

Run: ``python3 perfbench/stub.py``; it prints ``READY <port>`` once it
accepts connections.
"""

import hashlib
import json
import os
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

from prefpipe import simlab  # noqa: E402

# The wait stands in for model latency. It is long against the 5 to 10 ms
# that the client, the transport and the scripted reply cost per request, so
# host CPU speed, which drifts on a shared machine, moves a pass only a little.
DELAY_S = 0.040
FAIL_EVERY = 50  # about 2% of distinct request bodies get one 503


class StubServer(ThreadingHTTPServer):
    daemon_threads = True

    def __init__(self):
        super().__init__(("127.0.0.1", 0), Handler)
        self.backends = {
            "generator": simlab.ScriptedGeneratorBackend(seed=0, quality=1.0),
            "judge": simlab.ScriptedJudgeBackend(seed=0, kappa=8.0),
            "embedder": simlab.ScriptedEmbedderBackend(seed=0),
        }
        self.lock = threading.Lock()
        self.failed_bodies: set[bytes] = set()
        self.counts = dict.fromkeys(
            ("requests", "status_503", "connections", "bytes_in", "bytes_out", "peak_in_flight"), 0
        )
        self.counts.update(service_s=0.0, compute_s=0.0)
        self.in_flight = 0

    def next_pass(self) -> dict:
        with self.lock:
            snapshot = dict(self.counts)
            self.counts["peak_in_flight"] = self.in_flight
            self.failed_bodies.clear()
        return snapshot


def _token_entries(text: str, logprobs) -> list[dict]:
    return [{"token": t, "logprob": lp, "top_logprobs": []} for t, lp in zip(text.split(), logprobs)]


def _chat_reply(backend, role: str, body: dict) -> dict:
    prompt = body["messages"][-1]["content"]
    if role == "judge" and body.get("top_logprobs", 0) >= 2:
        lp_a, lp_b = backend.choice_logprobs(prompt, ("Item A", "Item B"))
        label, lp = ("A", lp_a) if lp_a >= lp_b else ("B", lp_b)
        text = f'{{"selection": "Item {label}"}}'
        alts = [{"token": "A", "logprob": lp_a}, {"token": "B", "logprob": lp_b}]
        content = [{"token": label, "logprob": lp, "top_logprobs": alts}]
    else:
        raw = backend.complete(
            prompt, max_tokens=body.get("max_tokens", 1024), temperature=body.get("temperature", 1.0),
            seed=body.get("seed"),
        )
        text, content = raw.text, _token_entries(raw.text, raw.token_logprobs)
    return {
        "object": "chat.completion",
        "choices": [{"index": 0, "message": {"role": "assistant", "content": text}, "logprobs": {"content": content}}],
    }


def _embedding_reply(backend, body: dict) -> dict:
    return {"object": "list", "data": [{"index": 0, "embedding": backend.embed(body["input"][0])}]}


class Handler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    disable_nagle_algorithm = True
    carried_model_request = False

    def log_message(self, format, *args):
        pass

    def _send(self, status: int, payload: dict, service_s: float | None = None) -> int:
        body = json.dumps(payload).encode()
        head = [f"HTTP/1.1 {status} {self.responses[status][0]}", "Content-Type: application/json",
                f"Content-Length: {len(body)}"]
        if service_s is not None:
            head.append(f"X-Service-Time: {service_s!r}")
        data = ("\r\n".join(head) + "\r\n\r\n").encode() + body
        self.wfile.write(data)
        return len(data)

    def do_GET(self):
        if self.path != "/control/next-pass":
            self._send(404, {"error": "unknown route"})
            return
        self._send(200, self.server.next_pass())

    def do_POST(self):
        start = time.perf_counter()
        srv: StubServer = self.server
        raw = self.rfile.read(int(self.headers.get("Content-Length", 0)))
        size_in = len(self.raw_requestline) + len(str(self.headers).replace("\n", "\r\n")) + len(raw)
        with srv.lock:
            srv.in_flight += 1
            srv.counts["peak_in_flight"] = max(srv.counts["peak_in_flight"], srv.in_flight)
            srv.counts["requests"] += 1
            srv.counts["bytes_in"] += size_in
            if not self.carried_model_request:
                self.carried_model_request = True
                srv.counts["connections"] += 1
            digest = hashlib.sha256(raw).digest()
            fail = int.from_bytes(digest[:8], "big") % FAIL_EVERY == 0 and digest not in srv.failed_bodies
            if fail:
                srv.failed_bodies.add(digest)
                srv.counts["status_503"] += 1
        try:
            time.sleep(DELAY_S)
            compute_start = time.perf_counter()
            if fail:
                status, payload = 503, {"error": "overloaded"}
            else:
                status, payload = self._route(raw)
            compute_s = time.perf_counter() - compute_start
            service_s = time.perf_counter() - start
            size_out = self._send(status, payload, service_s)
            with srv.lock:
                srv.counts["bytes_out"] += size_out
                srv.counts["service_s"] += service_s
                srv.counts["compute_s"] += compute_s
        finally:
            with srv.lock:
                srv.in_flight -= 1

    def _route(self, raw: bytes) -> tuple[int, dict]:
        _, role, *rest = self.path.split("/")
        route = "/".join(rest)
        backend = self.server.backends.get(role)
        if backend is None or route not in ("chat/completions", "embeddings"):
            return 404, {"error": f"unknown route {self.path}"}
        body = json.loads(raw)
        if route == "embeddings":
            return 200, _embedding_reply(backend, body)
        return 200, _chat_reply(backend, role, body)


def main() -> None:
    server = StubServer()
    print(f"READY {server.server_address[1]}", flush=True)
    try:
        server.serve_forever(poll_interval=0.1)
    finally:
        server.server_close()


if __name__ == "__main__":
    main()
