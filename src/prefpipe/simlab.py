"""Synthetic-user laboratory.

Builds corpora with known ground truth (each user is a latent unit vector; each
item a feature vector rendered into machine-readable text) plus scripted model
backends whose behavior is an exact function of that ground truth. Every
verification that needs "a model" runs against these, so expected outcomes are
computable in closed form.

The scripted backends are the ``mock:generator``, ``mock:judge`` and
``mock:embedder`` endpoint kinds: ``build_backend`` looks them up in
``MOCK_KINDS`` when an endpoint names one.
"""

import math
import random
import re
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, TypeVar

import numpy as np

from ._util import count_tokens, derive_seed, encode, read_records, stable_hash, write_jsonl
from .core import InteractionTriple, UserHistory, by_user
from .curriculum import ScoreRecord
from .errors import CapabilityError, ConfigError, ContractError, ValidationError
from .modelio.backends import RawCompletion

_FEAT_RE = re.compile(r"\[feat ([^\]]+)\]")
_EST_RE = re.compile(r"\[est ([^\]]+)\]")
T = TypeVar("T")


def sigmoid(x: float) -> float:
    if x >= 0:
        return 1.0 / (1.0 + math.exp(-x))
    e = math.exp(x)
    return e / (1.0 + e)


def _render_vector(tag: str, vec) -> str:
    return f"[{tag} " + " ".join(map(repr, np.asarray(vec, dtype=np.float64).tolist())) + "]"


def _parse_vector(pattern: re.Pattern, text: str) -> np.ndarray | None:
    m = pattern.search(text)
    if m is None:
        return None
    try:
        return np.array([float(x) for x in m.group(1).split()], dtype=np.float64)
    except ValueError:
        return None


def render_item(name: str, features) -> str:
    return f"{name} {_render_vector('feat', features)}"


def parse_item_features(text: str) -> np.ndarray | None:
    return _parse_vector(_FEAT_RE, text)


def preference_direction(text: str) -> np.ndarray | None:
    """Unit sum of the (chosen - rejected) feature differences rendered in
    ``text``, one pair per ``Chosen: `` line followed by a ``Rejected: `` line.
    None when the text holds no such pair or the differences cancel out."""
    total = None
    last_chosen = None
    for line in text.splitlines():
        if line.startswith("Chosen: "):
            last_chosen = parse_item_features(line)
        elif line.startswith("Rejected: ") and last_chosen is not None:
            neg = parse_item_features(line)
            if neg is not None and neg.shape == last_chosen.shape:
                diff = last_chosen - neg
                total = diff if total is None else total + diff
            last_chosen = None
    if total is None:
        return None
    norm = np.linalg.norm(total)
    return total / norm if norm > 1e-9 else None


def render_estimate(vec) -> str:
    return (
        f"User preference estimate: {_render_vector('est', vec)}. "
        "The user consistently favors items aligned with this direction."
    )


def parse_estimate(text: str) -> np.ndarray | None:
    return _parse_vector(_EST_RE, text)


def _hash_unit_vector(dim: int, *scope) -> np.ndarray:
    gen = np.random.default_rng(stable_hash("simlab-fallback", *scope))
    v = gen.standard_normal(dim)
    return v / np.linalg.norm(v)


def scripted_judge(estimate, positive, negative, kappa: float = 8.0) -> float:
    """Oracle probability that ``positive`` beats ``negative`` for a user whose
    direction is ``estimate``: sigmoid(kappa * estimate . (positive - negative))."""
    est = np.asarray(estimate, dtype=np.float64)
    pos = np.asarray(positive, dtype=np.float64)
    neg = np.asarray(negative, dtype=np.float64)
    if not (est.shape == pos.shape == neg.shape):
        raise ContractError(
            f"dimension mismatch: estimate {est.shape}, positive {pos.shape}, negative {neg.shape}"
        )
    return sigmoid(kappa * float(est @ (pos - neg)))


def gen_users(
    seed: int,
    n_users: int,
    dim: int,
    history_len: int,
    pair_margin: float,
    context_rate: float,
    dataset_tag: str,
    user_prefix: str,
) -> Iterator[tuple[UserHistory, np.ndarray, np.ndarray]]:
    """Draw a corpus with known latent directions, one user at a time: each
    user's history, its unit latent, and the (chosen - rejected) feature
    difference of every triple, one row per triple, which ``score_user``
    scores without parsing the rendered items back.

    Every pair satisfies latent . (chosen - rejected) >= pair_margin, so the
    ground-truth user always prefers the chosen item and an oracle judge at
    kappa * margin is confidently correct. Item differences also carry a
    component orthogonal to the latent, so imperfect preference estimates pay a
    measurable penalty. A user's draws depend only on ``seed``,
    ``user_prefix`` and its number, not on the population size.
    """
    if n_users < 1 or history_len < 1:
        raise ValidationError("population needs at least one user and one interaction")
    if pair_margin <= 0:
        raise ValidationError("pair_margin must be positive")
    return (
        _draw_user(seed, u, dim, history_len, pair_margin, context_rate, dataset_tag, user_prefix)
        for u in range(n_users)
    )


def _draw_user(
    seed, u, dim, history_len, pair_margin, context_rate, dataset_tag, user_prefix
) -> tuple[UserHistory, np.ndarray, np.ndarray]:
    user_id = f"{user_prefix}{u:04d}"
    rng = np.random.default_rng(derive_seed(seed, "simlab-user", user_prefix, u))
    latent = rng.standard_normal(dim)
    latent /= np.linalg.norm(latent)
    # The corpus bytes fix the order of the draws: triple by triple, its gap,
    # base, noise and context coin.
    gaps, coins = np.empty(history_len), np.empty(history_len)
    base, noise = np.empty((history_len, dim)), np.empty((history_len, dim))
    for i in range(history_len):
        gaps[i] = rng.random()
        rng.standard_normal(out=base[i])
        rng.standard_normal(out=noise[i])
        coins[i] = rng.random()
    half_gap = 0.5 * (pair_margin + 1e-9 + 0.5 * gaps)[:, None]
    base *= 0.5
    noise *= 0.3
    noise -= np.array([row.dot(latent) for row in noise])[:, None] * latent  # keep the gap along latent exact
    pos = base + half_gap * latent + noise
    neg = base - half_gap * latent - noise
    triples = tuple(
        InteractionTriple(
            index=i,
            chosen=render_item(f"obj-{user_id}-{i}-a", chosen),
            rejected=render_item(f"obj-{user_id}-{i}-b", rejected),
            context=f"Session {i}: pick the better match for this user." if coin < context_rate else None,
        )
        for i, (chosen, rejected, coin) in enumerate(zip(pos, neg, coins.tolist()))
    )
    return UserHistory(user_id=user_id, triples=triples, dataset_tag=dataset_tag), latent, pos - neg


def gen_population(
    seed: int,
    n_users: int,
    dim: int = 8,
    history_len: int = 12,
    pair_margin: float = 0.5,
    context_rate: float = 0.5,
    dataset_tag: str = "simlab",
    user_prefix: str = "u",
) -> tuple[list[UserHistory], dict[str, np.ndarray]]:
    """The histories and latents (by user_id) that ``gen_users`` draws."""
    histories = []
    truth: dict[str, np.ndarray] = {}
    users = gen_users(seed, n_users, dim, history_len, pair_margin, context_rate, dataset_tag, user_prefix)
    for hist, latent, _ in users:
        histories.append(hist)
        truth[hist.user_id] = latent
    return histories, truth


def score_user(
    user_id: str,
    indices: Iterable[int],
    diffs: np.ndarray,
    kappa: float,
    weak_quality: float,
    seed: int,
) -> list[dict]:
    """``ScoreRecord`` rows for one user's triples, given their ``indices``
    and their (chosen - rejected) feature ``diffs``, one row per triple.

    Each point is scored given only the history *before* it, matching how the
    scores are consumed: the strong model's estimate is the normalized running
    sum of earlier differences (no earlier evidence means a chance-level 0.5),
    the weak model's the same estimate degraded toward a per-user noise
    direction. Early points therefore score near chance and tractability grows
    as evidence accumulates.
    """
    n, dim = diffs.shape
    rng = np.random.default_rng(derive_seed(seed, "simlab-weak", user_id))
    noise = rng.standard_normal(dim)
    noise /= np.linalg.norm(noise)
    # running[t] is 0 + diffs[0] + ... + diffs[t - 1], added in that order
    running = np.zeros((n, dim))
    running[1:] = diffs[:-1]
    np.cumsum(running, axis=0, out=running)
    # One 1-D dot per norm and per judge score, as in scripted_judge: a batched
    # product can round differently in the last bit.
    norms = np.array([math.sqrt(row.dot(row)) for row in running])
    strong = np.divide(running, norms[:, None], out=np.zeros((n, dim)), where=norms[:, None] > 1e-9)
    weak = weak_quality * strong + (1.0 - weak_quality) * noise
    for row in weak:
        wnorm = math.sqrt(row.dot(row))
        if wnorm > 1e-9:
            row /= wnorm
        else:
            row[:] = noise
    return [
        encode(ScoreRecord(user_id, index, sigmoid(kappa * float(s.dot(d))), sigmoid(kappa * float(w.dot(d)))))
        for index, s, w, d in zip(indices, strong, weak, diffs)
    ]


def score_corpus(
    histories: list[UserHistory],
    truth: dict[str, np.ndarray],
    kappa: float = 8.0,
    weak_quality: float = 0.5,
    seed: int = 0,
) -> list[dict]:
    """``score_user`` over every history, its differences parsed from the
    feature vectors rendered in its items."""
    records = []
    for hist in histories:
        dim = truth[hist.user_id].shape[0]
        diffs = np.empty((len(hist), dim))
        for diff, t in zip(diffs, hist.triples):
            pos, neg = parse_item_features(t.chosen), parse_item_features(t.rejected or "")
            if pos is None or neg is None:
                raise ValidationError(f"user {hist.user_id} triple {t.index} lacks parseable features")
            if not pos.shape == neg.shape == diff.shape:
                raise ContractError(
                    f"dimension mismatch: estimate {diff.shape}, positive {pos.shape}, negative {neg.shape}"
                )
            np.subtract(pos, neg, out=diff)
        records += score_user(hist.user_id, [t.index for t in hist.triples], diffs, kappa, weak_quality, seed)
    return records


def truth_record(user_id: str, latent) -> dict:
    """The ``TruthRecord`` line of one user's latent."""
    return encode(TruthRecord(user_id, tuple(float(x) for x in latent)))


def save_truth(path: str, truth: dict[str, np.ndarray]) -> int:
    return write_jsonl(path, (truth_record(uid, vec) for uid, vec in truth.items()))


@dataclass(frozen=True)
class TruthRecord:
    """One line of a ground-truth file: a user's latent preference vector."""

    user_id: str
    latent: tuple[float, ...]


def load_truth(path: str) -> dict[str, np.ndarray]:
    latents = ((rec.user_id, np.array(rec.latent, dtype=np.float64)) for rec in read_records(path, TruthRecord))
    return dict(by_user(path, latents))


# ---------------------------------------------------------------------------
# Scripted backends
# ---------------------------------------------------------------------------


class ScriptedGeneratorBackend:
    """Summary generator with a quality dial.

    Emits summaries embedding an estimate vector: normalize(quality * latent +
    (1 - quality) * noise), where noise is a fresh unit vector drawn from the
    request content. quality 1 reproduces the latent exactly; quality 0 is a
    random direction. ``invert`` flips the sign (the planted-wrong adversary).

    The ground-truth latent is looked up from request metadata (user_id); when
    unavailable it is re-estimated from the feature vectors rendered in the
    prompt. Merge-style prompts (numbered candidate sections) are answered with
    the renormalized mean of the candidates' estimates instead.
    """

    def __init__(
        self,
        seed: int,
        quality: float,
        truth: dict[str, np.ndarray] | None = None,
        invert: bool = False,
        dim: int = 8,
        think_tags: tuple[str, str] = ("<think>", "</think>"),
    ):
        if not (0.0 <= quality <= 1.0):
            raise ValidationError(f"quality must be in [0, 1], got {quality}")
        self.seed = seed
        self.quality = quality
        self.truth = truth or {}
        self.invert = invert
        self.dim = dim
        self.think_tags = think_tags

    def _estimate(self, prompt: str, seed: int | None, meta: dict | None) -> np.ndarray:
        if "=====Candidate " in prompt:
            blocks = _EST_RE.findall(prompt)
            if blocks:
                vecs = [np.array([float(x) for x in b.split()]) for b in blocks]
                mean = np.mean(vecs, axis=0)
                norm = np.linalg.norm(mean)
                if norm > 1e-9:
                    return mean / norm
        latent = None
        uid = (meta or {}).get("user_id")
        if uid is not None and uid in self.truth:
            latent = self.truth[uid]
        if latent is None:
            latent = preference_direction(prompt)
        if latent is None:
            latent = _hash_unit_vector(self.dim, "gen-latent", self.seed, prompt)
        gen = np.random.default_rng(
            stable_hash(self.seed, "gen-noise", prompt, seed, sorted((meta or {}).items()))
        )
        noise = gen.standard_normal(latent.shape[0])
        noise /= np.linalg.norm(noise)
        est = self.quality * latent + (1.0 - self.quality) * noise
        norm = np.linalg.norm(est)
        est = est / norm if norm > 1e-9 else noise
        return -est if self.invert else est

    def complete(self, prompt, *, max_tokens, temperature, seed=None, meta=None) -> RawCompletion:
        est = self._estimate(prompt, seed, meta)
        head, tail = self.think_tags
        reasoning = "The recent interactions point to a consistent direction in item space."
        text = f"{head}{reasoning}{tail}\n{render_estimate(est)}"
        rng = random.Random(stable_hash(self.seed, "gen-lp", prompt, seed, sorted((meta or {}).items())))
        n = count_tokens(text)
        return RawCompletion(text, tuple(-rng.uniform(0.05, 2.0) for _ in range(n)))

    def choice_logprobs(self, prompt, labels, *, meta=None):
        return None

    def score(self, prompt, response, *, meta=None) -> list[float]:
        rng = random.Random(stable_hash(self.seed, "gen-score", prompt, response))
        return [-rng.uniform(0.05, 2.0) for _ in range(count_tokens(response))]

    def embed(self, text, *, meta=None) -> list[float]:
        return _hash_unit_vector(self.dim, "gen-embed", self.seed, text).tolist()


_BLOCK_RES = {
    "preference": re.compile(r"<Preference>\n(.*?)\n</Preference>", re.DOTALL),
    "item_a": re.compile(r"<Item A>\n(.*?)\n</Item A>", re.DOTALL),
    "item_b": re.compile(r"<Item B>\n(.*?)\n</Item B>", re.DOTALL),
}


class ScriptedJudgeBackend:
    """Pairwise judge that recovers the estimate and item features from the
    rendered judge prompt and answers with the oracle probability.

    With ``logprob_support`` it exposes label logprobs (ln p, ln(1-p)); without,
    ``complete`` must be sampled instead. ``mode`` controls completions:
    "argmax" replies with the higher-probability item, "sample" draws from p.
    """

    def __init__(self, seed: int = 0, kappa: float = 8.0, dim: int = 8, logprob_support: bool = True, mode: str = "argmax"):
        if mode not in ("argmax", "sample"):
            raise ValidationError(f"unknown judge mode {mode!r}")
        self.seed = seed
        self.kappa = kappa
        self.dim = dim
        self.logprob_support = logprob_support
        self.mode = mode

    def _prob_item_a(self, prompt: str) -> float:
        blocks = {}
        for key, pattern in _BLOCK_RES.items():
            m = pattern.search(prompt)
            blocks[key] = m.group(1) if m else ""
        est = parse_estimate(blocks["preference"])
        feat_a = parse_item_features(blocks["item_a"])
        feat_b = parse_item_features(blocks["item_b"])
        dim = est.shape[0] if est is not None else (feat_a.shape[0] if feat_a is not None else self.dim)
        if est is None:
            est = _hash_unit_vector(dim, "judge-est", blocks["preference"])
        if feat_a is None:
            feat_a = _hash_unit_vector(dim, "judge-item", blocks["item_a"])
        if feat_b is None:
            feat_b = _hash_unit_vector(dim, "judge-item", blocks["item_b"])
        return scripted_judge(est, feat_a, feat_b, self.kappa)

    def choice_logprobs(self, prompt, labels, *, meta=None):
        if not self.logprob_support:
            return None
        p = min(max(self._prob_item_a(prompt), 1e-300), 1.0 - 1e-16)
        return math.log(p), math.log(1.0 - p)

    def complete(self, prompt, *, max_tokens, temperature, seed=None, meta=None) -> RawCompletion:
        p = self._prob_item_a(prompt)
        if self.mode == "sample":
            rng = random.Random(stable_hash(self.seed, "judge-sample", prompt, seed))
            label = "Item A" if rng.random() < p else "Item B"
        else:
            label = "Item A" if p >= 0.5 else "Item B"
        text = f'{{"selection": "{label}"}}'
        return RawCompletion(text, (-0.1,) * len(text.split()))

    def score(self, prompt, response, *, meta=None) -> list[float]:
        rng = random.Random(stable_hash(self.seed, "judge-score", prompt, response))
        return [-rng.uniform(0.05, 2.0) for _ in range(count_tokens(response))]

    def embed(self, text, *, meta=None) -> list[float]:
        return _hash_unit_vector(self.dim, "judge-embed", self.seed, text).tolist()


class ScriptedEmbedderBackend:
    """History embedder: averages the (chosen - rejected) feature differences
    rendered in the text, so users with similar latents land close together.
    Text without feature vectors gets a deterministic hash direction."""

    def __init__(self, seed: int = 0, dim: int = 8):
        self.seed = seed
        self.dim = dim

    def embed(self, text, *, meta=None) -> list[float]:
        direction = preference_direction(text)
        if direction is None:
            direction = _hash_unit_vector(self.dim, "embed", self.seed, text)
        return direction.tolist()

    def complete(self, prompt, *, max_tokens, temperature, seed=None, meta=None) -> RawCompletion:
        raise CapabilityError("embedder backend does not generate text")

    def choice_logprobs(self, prompt, labels, *, meta=None):
        return None

    def score(self, prompt, response, *, meta=None) -> list[float]:
        raise CapabilityError("embedder backend does not score text")


def mock_param(params: dict, key: str, convert: Callable[[str], T], default: T) -> T:
    """Mock URL parameter ``key`` converted by ``convert``, or ``default``
    when absent. A value that does not convert is a ConfigError naming it."""
    if key not in params:
        return default
    try:
        return convert(params[key])
    except ValueError as exc:
        raise ConfigError(f"mock URL parameter {key}={params[key]!r} is not a valid {convert.__name__}") from exc


def _truthy(value: str) -> bool:
    return value.lower() in ("1", "true", "yes")


def _generator_factory(params: dict, endpoint) -> ScriptedGeneratorBackend:
    truth = load_truth(params["truth"]) if "truth" in params else {}
    return ScriptedGeneratorBackend(
        seed=mock_param(params, "seed", int, 0),
        quality=mock_param(params, "quality", float, 1.0),
        truth=truth,
        invert=_truthy(params.get("invert", "0")),
        dim=mock_param(params, "dim", int, 8),
        think_tags=(endpoint.think_open, endpoint.think_close),
    )


def _judge_factory(params: dict, endpoint) -> ScriptedJudgeBackend:
    return ScriptedJudgeBackend(
        seed=mock_param(params, "seed", int, 0),
        kappa=mock_param(params, "kappa", float, 8.0),
        dim=mock_param(params, "dim", int, 8),
        logprob_support=not _truthy(params.get("sample_only", "0")),
        mode=params.get("mode", "argmax"),
    )


def _embedder_factory(params: dict, endpoint) -> ScriptedEmbedderBackend:
    return ScriptedEmbedderBackend(seed=mock_param(params, "seed", int, 0), dim=mock_param(params, "dim", int, 8))


# The ``mock:<kind>`` endpoint kinds that ``build_backend`` resolves here.
MOCK_KINDS = {"generator": _generator_factory, "judge": _judge_factory, "embedder": _embedder_factory}
