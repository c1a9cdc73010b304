"""The retrying, truncating, telemetry-counting client wrapped around a backend.

One client per endpoint. All pipeline stages go through the three operations
here (generate_summary, judge_pair, embed) so limits and accounting are enforced
in exactly one place.
"""

import logging
import math
import threading
import time
from collections import Counter
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .._util import left_truncate, stable_hash
from ..errors import BackendError, CapabilityError, GenerationError, JudgeError, ValidationError
from ..prompts import render_judge_prompt
from .backends import Backend, build_backend
from .endpoints import ModelEndpoint
from .parsing import parse_selection, split_reasoning

logger = logging.getLogger("prefpipe.modelio")

JUDGE_LABELS = ("Item A", "Item B")
# The longest a server's Retry-After can make the client wait, whatever the
# endpoint's timeout: with no timeout (or a huge one) an uncapped header such
# as 1e20 s would overflow ``time.sleep``.
MAX_RETRY_AFTER_S = 3600.0


def label_probability(lp_first: float, lp_second: float) -> float:
    """Probability of the first label under a two-way softmax of label logprobs.

    Servers report -9999-style sentinels for labels outside their top-k, so a
    gap too wide for ``exp`` falls back to e^-gap, which is what
    1 / (1 + e^gap) equals at double precision there. Non-finite logprobs
    carry no verdict and raise JudgeError.
    """
    if not (math.isfinite(lp_first) and math.isfinite(lp_second)):
        raise JudgeError(f"non-finite label logprobs ({lp_first}, {lp_second})")
    gap = lp_second - lp_first
    try:
        return 1.0 / (1.0 + math.exp(gap))
    except OverflowError:
        return math.exp(-gap)


@dataclass(frozen=True)
class GenerationResult:
    """One summary generation.

    ``prompt`` is the text actually sent (after any left truncation); ``raw`` the
    untouched completion; ``summary``/``reasoning`` the parsed halves;
    ``token_logprobs`` per generated token when the backend reports them.
    """

    prompt: str
    raw: str
    summary: str
    reasoning: str | None
    token_logprobs: tuple[float, ...] | None


@dataclass(frozen=True)
class JudgeVerdict:
    """Judge output for one ordered item pair: ``prob_first``, the probability
    that the first-passed item is preferred (the two-order average when
    debiased; a k-sample frequency when the backend exposes no label logprobs)."""

    prob_first: float


class ModelClient:
    def __init__(
        self,
        endpoint: ModelEndpoint,
        backend: Backend | None = None,
        *,
        sleep: Callable[[float], None] = time.sleep,
    ):
        self.endpoint = endpoint
        self.backend = backend if backend is not None else build_backend(endpoint)
        self.stats: Counter = Counter()
        self._sleep = sleep
        self._lock = threading.Lock()
        self._sem = threading.Semaphore(endpoint.max_in_flight)

    def _bump(self, key: str, n: int = 1) -> None:
        with self._lock:
            self.stats[key] += n

    def _with_retries(self, op: str, fn: Callable):
        """Run a backend call, retrying retryable transport failures with
        exponential backoff up to the endpoint's budget. A server's
        ``Retry-After`` lengthens the wait, up to the endpoint's timeout and
        at most ``MAX_RETRY_AFTER_S``. Each
        attempt holds one in-flight slot; a call sleeping in backoff holds none.
        Retries and give-ups, by error class, are counted in ``stats``."""
        attempt = 0
        while True:
            try:
                with self._sem:
                    self._bump("attempts")
                    return fn()
            except BackendError as exc:
                if not exc.retryable or attempt >= self.endpoint.retry_limit:
                    self._bump(f"give_ups.{type(exc).__name__}")
                    logger.debug("%s: giving up after %d attempt(s): %s", op, attempt + 1, exc)
                    raise
                delay = self.endpoint.backoff_base * (2**attempt)
                if exc.retry_after is not None:
                    delay = max(delay, min(exc.retry_after, self.endpoint.timeout, MAX_RETRY_AFTER_S))
                logger.debug("%s: retryable failure (%s); backing off %.2fs", op, exc, delay)
                self._bump("retries")
                self._sleep(delay)
                attempt += 1

    def prepare_prompt(self, text: str) -> str:
        """Left-truncate to the endpoint's budget of ``count_tokens`` tokens, keeping the newest tail."""
        limit = self.endpoint.max_prompt_tokens
        if limit is None:
            return text
        truncated, dropped = left_truncate(text, limit)
        if dropped:
            self._bump("truncations")
            self._bump("truncated_tokens", dropped)
            logger.debug("prompt truncated: dropped %d leading tokens (budget %d)", dropped, limit)
        return truncated

    # -- operations ---------------------------------------------------------

    def generate_summary(self, prompt: str, *, sample_seed: int | None = None, meta: dict | None = None) -> GenerationResult:
        """Send one summary-generation prompt and parse the reply.

        ``sample_seed`` distinguishes samples within a rollout group; None asks
        the backend for its default draw.
        """
        sent = self.prepare_prompt(prompt)
        self._bump("generate_calls")
        result = self._with_retries(
            "generate",
            lambda: self.backend.complete(
                sent,
                max_tokens=self.endpoint.max_output_tokens,
                temperature=self.endpoint.temperature,
                seed=sample_seed,
                meta=meta,
            ),
        )
        if not all(map(math.isfinite, result.token_logprobs or ())):  # one request's problem
            raise BackendError("backend sent a non-finite token logprob", retryable=False)
        reasoning, summary = split_reasoning(result.text, self.endpoint.think_open, self.endpoint.think_close)
        if not summary:
            raise GenerationError("backend returned an empty summary")
        return GenerationResult(
            prompt=sent,
            raw=result.text,
            summary=summary,
            reasoning=reasoning,
            token_logprobs=result.token_logprobs,
        )

    def _order_probability(
        self, preference: str, context: str | None, first: str, second: str, meta: dict | None,
        decides: Callable[[float], bool] | None = None,
    ) -> float:
        prompt = self.prepare_prompt(render_judge_prompt(preference, context, first, second))
        logprobs = self._with_retries(
            "judge", lambda: self.backend.choice_logprobs(prompt, JUDGE_LABELS, meta=meta)
        )
        if logprobs is not None:
            return label_probability(*logprobs)
        # No label logprobs: estimate by sampling k selections and counting;
        # an unparseable sample counts for neither label. With ``decides``,
        # sampling stops once it gives the same answer whether every remaining
        # sample says "B" or "A", so no remaining sample can change it.
        counts = Counter()
        k = self.endpoint.judge_samples
        for i in range(k):
            sample = self._with_retries(
                "judge_sample",
                lambda i=i: self.backend.complete(
                    prompt,
                    max_tokens=64,
                    temperature=self.endpoint.temperature,
                    seed=stable_hash("judge-sample", prompt, i) % (2**31),
                    meta=meta,
                ),
            )
            counts[parse_selection(sample.text)] += 1
            a, decided, rest = counts["A"], counts["A"] + counts["B"], k - 1 - i
            if decides and decided and rest and decides(a / (decided + rest)) == decides((a + rest) / (decided + rest)):
                break
        if decided == 0:  # judge_samples >= 1, so the loop ran
            raise JudgeError("no judge sample produced a parseable selection")
        return a / decided

    def judge_pair(
        self,
        preference: str,
        context: str | None,
        item_first: str,
        item_second: str,
        *,
        debias: bool = True,
        decision_only: bool = False,
        meta: dict | None = None,
    ) -> JudgeVerdict:
        """Probability that the user described by ``preference`` picks
        ``item_first`` over ``item_second`` in ``context``.

        With ``debias`` the items are judged in both presentation orders and the
        probabilities averaged, which cancels position bias by construction.
        With ``decision_only`` the caller reads only ``prob_first > 0.5``: a
        sampled order (the reverse one when debiased) stops once its remaining
        samples cannot change that answer, so ``prob_first`` may rest on fewer
        than k samples while ``prob_first > 0.5`` is what all k would give.
        """
        if not item_first or not item_second:
            raise ValidationError("judged items must be non-empty")
        if item_first == item_second:
            raise ValidationError("judged items must be distinct")
        self._bump("judge_calls")
        if not debias:
            return JudgeVerdict(self._order_probability(
                preference, context, item_first, item_second, meta, (lambda p: p > 0.5) if decision_only else None
            ))
        p_fwd = self._order_probability(preference, context, item_first, item_second, meta)

        def debiased(p_rev: float) -> float:  # the stop rule must decide by this very float expression
            return 0.5 * (p_fwd + (1.0 - p_rev))

        p_rev = self._order_probability(
            preference, context, item_second, item_first, meta, (lambda p: debiased(p) > 0.5) if decision_only else None
        )
        return JudgeVerdict(debiased(p_rev))

    def policy_logprobs(self, prompt: str, response: str, *, meta: dict | None = None) -> list[float]:
        """No backend scores supplied text: ``loss-check`` takes the new
        policy's logprobs from ``--new-logprobs``. The name stays only because
        the benchmark's census (``perfbench/worker.py``) patches it."""
        raise CapabilityError("no backend scores supplied text; give loss-check the new policy's logprobs with --new-logprobs")

    def embed(self, text: str, *, meta: dict | None = None) -> np.ndarray:
        """Embed ``text`` and return a unit-norm float64 vector."""
        self._bump("embed_calls")
        raw = self._with_retries("embed", lambda: self.backend.embed(text, meta=meta))
        vec = np.asarray(raw, dtype=np.float64)
        with np.errstate(over="ignore"):  # a norm past the float range is inf, refused below
            norm = float(np.linalg.norm(vec))
        if vec.ndim != 1 or not math.isfinite(norm) or norm == 0.0:  # an empty vector's norm is 0
            raise BackendError("embedding is not a 1-d vector with a finite, non-zero norm", retryable=False)
        return vec / norm
