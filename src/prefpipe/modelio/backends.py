"""Backend implementations: the HTTP transport and the callable-driven test
backend, and ``build_backend``, which resolves an endpoint to its backend
(every ``mock:<kind>`` is one of ``simlab``'s scripted backends).

A backend is a thin, stateless adapter exposing four request shapes (complete,
choice_logprobs, score, embed). Retries, truncation, and telemetry live in the
client, not here.
"""

import math
import os
import urllib.parse
from dataclasses import dataclass
from typing import Callable, Protocol

from .._util import count_tokens
from ..errors import BackendError, CapabilityError, ConfigError
from .endpoints import ModelEndpoint


@dataclass(frozen=True)
class RawCompletion:
    """One raw model completion: the text plus per-token logprobs when the
    backend reports them (length equals the generated token count)."""

    text: str
    token_logprobs: tuple[float, ...] | None = None


class Backend(Protocol):
    def complete(
        self, prompt: str, *, max_tokens: int, temperature: float, seed: int | None = None, meta: dict | None = None
    ) -> RawCompletion: ...

    def choice_logprobs(
        self, prompt: str, labels: tuple[str, str], *, meta: dict | None = None
    ) -> tuple[float, float] | None: ...

    def score(self, prompt: str, response: str, *, meta: dict | None = None) -> list[float]: ...

    def embed(self, text: str, *, meta: dict | None = None) -> list[float]: ...


# ---------------------------------------------------------------------------
# HTTP backend (chat-completion compatible)
# ---------------------------------------------------------------------------

# An endpoint timeout this long (about 32 years) or longer, ``.inf`` included,
# means no timeout: a socket refuses one past about 9.2e9 s.
NO_TIMEOUT_FROM_S = 1e9


class HttpBackend:
    """Adapter for chat-completion compatible servers: it posts to
    ``/chat/completions`` and ``/embeddings`` and to no other route. A chat
    endpoint cannot score supplied text, so ``score`` raises CapabilityError
    without a request; ``loss-check`` reads new-policy logprobs from
    ``--new-logprobs``.

    The session is set up once, when the backend is built: the API key (a
    missing one is a ``ConfigError`` here), the proxy and the CA bundle are
    read from the environment then, and a request reads neither the
    environment nor ``~/.netrc``.

    Judge label logprobs use the label-token convention: scan generated positions
    for the first one whose top-logprob alternatives contain both discriminator
    tokens (the labels' final words, e.g. "A" and "B"); absence means no logprob
    support and the caller falls back to sampling.
    """

    def __init__(self, endpoint: ModelEndpoint):
        import requests  # only processes that talk HTTP pay for importing it

        self.endpoint = endpoint
        self.base_url = endpoint.base_url.rstrip("/")
        self.timeout = endpoint.timeout if endpoint.timeout < NO_TIMEOUT_FROM_S else None  # None: no timeout
        self.session = requests.Session()
        env = endpoint.api_key_env
        if env:
            key = os.environ.get(env)
            if not key:
                raise ConfigError(f"endpoint expects API key in ${env}, which is unset")
            self.session.headers["Authorization"] = f"Bearer {key}"
        # The host never changes, so neither do its proxies (NO_PROXY included)
        # nor its CA bundle: resolved here, they leave requests nothing to read.
        self.session.trust_env = False
        self.session.proxies = requests.utils.get_environ_proxies(self.base_url)
        self.session.verify = os.environ.get("REQUESTS_CA_BUNDLE") or os.environ.get("CURL_CA_BUNDLE") or True
        # The client lets max_in_flight requests run at once; a smaller
        # pool (requests' default is 10) would drop the extra connections.
        adapter = requests.adapters.HTTPAdapter(pool_maxsize=endpoint.max_in_flight)
        self.session.mount("http://", adapter)
        self.session.mount("https://", adapter)

    def _post(self, path: str, body: dict) -> dict:
        import requests

        url = self.base_url + path
        try:
            resp = self.session.post(url, json=body, timeout=self.timeout, allow_redirects=False)
        except requests.RequestException as exc:
            raise BackendError(f"POST {url} failed: {exc}", retryable=True) from exc
        if 300 <= resp.status_code < 400:
            raise ConfigError(
                f"POST {url} -> HTTP {resp.status_code} redirect to {resp.headers.get('Location')}; "
                "endpoints must not redirect, so set base_url to the URL that answers"
            )
        if resp.status_code == 429 or resp.status_code >= 500:
            retry_after = _retry_after(resp.headers) if resp.status_code in (429, 503) else None
            raise BackendError(f"POST {url} -> HTTP {resp.status_code}", retryable=True, retry_after=retry_after)
        if resp.status_code >= 400:
            raise BackendError(
                f"POST {url} -> HTTP {resp.status_code}: {resp.text[:200]}", retryable=False
            )
        try:
            return resp.json()
        except ValueError as exc:
            raise BackendError(f"POST {url} returned a non-JSON body", retryable=False) from exc

    def _chat(self, prompt: str, *, max_tokens: int, temperature: float, seed: int | None, top_logprobs: int) -> dict:
        body = {
            "model": self.endpoint.model_id,
            "messages": [{"role": "user", "content": prompt}],
            "max_tokens": max_tokens,
            "temperature": temperature,
            "logprobs": True,
            "top_logprobs": top_logprobs,
        }
        if seed is not None:
            body["seed"] = seed
        body.update(self.endpoint.extra.get("body", {}))
        return self._post("/chat/completions", body)

    @staticmethod
    def _choice(data: dict) -> dict:
        try:
            return data["choices"][0]
        except (KeyError, IndexError, TypeError) as exc:
            raise BackendError("malformed chat completion response", retryable=False) from exc

    def complete(self, prompt, *, max_tokens, temperature, seed=None, meta=None) -> RawCompletion:
        choice = self._choice(self._chat(prompt, max_tokens=max_tokens, temperature=temperature, seed=seed, top_logprobs=1))
        try:
            text = choice["message"]["content"] or ""
        except (KeyError, TypeError) as exc:
            raise BackendError("chat completion response lacks message content", retryable=False) from exc
        try:  # no logprobs at all means "not reported"; a malformed one costs this request
            content = (choice.get("logprobs") or {}).get("content")
            logprobs = tuple(_logprob(t["logprob"]) for t in content) if content else None
        except (AttributeError, KeyError, TypeError) as exc:
            raise BackendError("chat completion response has a malformed token logprob", retryable=False) from exc
        return RawCompletion(text, logprobs)

    def choice_logprobs(self, prompt, labels, *, meta=None):
        discriminators = [label.split()[-1] for label in labels]
        choice = self._choice(self._chat(prompt, max_tokens=16, temperature=0.0, seed=None, top_logprobs=20))
        try:  # only the labels' logprobs are read; a malformed one costs this request
            for position in (choice.get("logprobs") or {}).get("content") or []:
                alts: dict[str, dict] = {}
                for alt in [position, *(position.get("top_logprobs") or [])]:
                    alts.setdefault(str(alt.get("token", "")).strip().strip("\"'"), alt)
                if all(d in alts for d in discriminators):
                    return tuple(_logprob(alts[d]["logprob"]) for d in discriminators)
        except (AttributeError, KeyError, TypeError) as exc:
            raise BackendError("chat completion response has a malformed label logprob", retryable=False) from exc
        return None

    def score(self, prompt, response, *, meta=None) -> list[float]:
        raise CapabilityError(
            "chat endpoints cannot score supplied text; give loss-check the new policy's logprobs with --new-logprobs"
        )

    def embed(self, text, *, meta=None) -> list[float]:
        body = {"model": self.endpoint.model_id, "input": [text]}
        data = self._post("/embeddings", body)
        try:
            return [_number(x, "embedding component") for x in data["data"][0]["embedding"]]
        except (KeyError, IndexError, TypeError) as exc:
            raise BackendError("malformed embeddings response", retryable=False) from exc


def _number(value, what: str) -> float:
    """One number of a reply. A JSON number passes, and so do NaN and
    ±Infinity, bare or as strings, which the client refuses as non-finite.
    A bool, null or any other string is a malformed reply."""
    try:
        x = float(value) if isinstance(value, (int, float, str)) and not isinstance(value, bool) else None
    except (ValueError, OverflowError):  # a string that is no number; an integer beyond float
        x = None
    if x is None or (isinstance(value, str) and math.isfinite(x)):
        raise BackendError(f"malformed {what} {value!r}", retryable=False)
    return x


def _logprob(value) -> float:
    """One logprob of a reply, read by ``_number``'s rule; a finite value above 0 is malformed too."""
    lp = _number(value, "token logprob")
    if 0 < lp < math.inf:
        raise BackendError(f"token logprob {lp} is above 0, so not a log-probability", retryable=False)
    return lp


def _retry_after(headers) -> float | None:
    """Seconds of a delta-seconds ``Retry-After`` header; None when the header
    is absent or an HTTP-date."""
    value = headers.get("Retry-After", "").strip()
    return float(value) if value.isascii() and value.isdigit() else None


# ---------------------------------------------------------------------------
# Script backend
# ---------------------------------------------------------------------------


class ScriptBackend:
    """Test helper driven by plain callables; any capability left None raises.

    ``completer(prompt, ctx)`` returns the reply text (or a RawCompletion);
    ``chooser(prompt, labels, ctx)`` returns (logprob_a, logprob_b) or None;
    ``scorer(prompt, response)`` returns per-token logprobs;
    ``embedder(text)`` returns a vector.
    """

    def __init__(
        self,
        completer: Callable | None = None,
        chooser: Callable | None = None,
        scorer: Callable | None = None,
        embedder: Callable | None = None,
        token_logprob: float | None = -0.5,
    ):
        self.completer = completer
        self.chooser = chooser
        self.scorer = scorer
        self.embedder = embedder
        self.token_logprob = token_logprob

    def complete(self, prompt, *, max_tokens, temperature, seed=None, meta=None) -> RawCompletion:
        if self.completer is None:
            raise CapabilityError("script backend has no completer")
        out = self.completer(prompt, {"max_tokens": max_tokens, "temperature": temperature, "seed": seed, "meta": meta or {}})
        if isinstance(out, RawCompletion):
            return out
        lp = None
        if self.token_logprob is not None:
            lp = tuple([self.token_logprob] * count_tokens(out))
        return RawCompletion(out, lp)

    def choice_logprobs(self, prompt, labels, *, meta=None):
        if self.chooser is None:
            return None
        return self.chooser(prompt, labels, {"meta": meta or {}})

    def score(self, prompt, response, *, meta=None) -> list[float]:
        if self.scorer is None:
            raise CapabilityError("script backend has no scorer")
        return list(self.scorer(prompt, response))

    def embed(self, text, *, meta=None) -> list[float]:
        if self.embedder is None:
            raise CapabilityError("script backend has no embedder")
        return list(self.embedder(text))


# ---------------------------------------------------------------------------
# Backend construction from endpoint configs
# ---------------------------------------------------------------------------

def build_backend(endpoint: ModelEndpoint) -> Backend:
    url = endpoint.base_url
    if url.startswith("mock:"):
        from ..simlab import MOCK_KINDS  # simlab imports this module, so look its kinds up per call

        kind, _, query = url[len("mock:") :].partition("?")
        factory = MOCK_KINDS.get(kind)
        if factory is None:
            raise ConfigError(f"unknown mock backend kind {kind!r}; known: {sorted(MOCK_KINDS)}")
        return factory(dict(urllib.parse.parse_qsl(query, keep_blank_values=True)), endpoint)
    if url.startswith(("http://", "https://")):
        return HttpBackend(endpoint)
    raise ConfigError(f"unsupported base_url scheme: {url!r}")
