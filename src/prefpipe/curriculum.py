"""Curriculum pruning: score every (history-prefix, target) point by how
tractable it is for a strong model and how much headroom it offers over a weak
one, filter to a difficulty band, and pick per-user training instances."""

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

from ._util import encode, read_records, write_jsonl
from .errors import ValidationError

PROB_FLOOR = 1e-6


@dataclass(frozen=True)
class SampleScore:
    """Difficulty scores for one interaction point.

    ``s_tract`` is the strong model's probability of the true choice given the
    preceding history; ``s_learn`` the log-ratio of strong over weak probability
    (how much the stronger reasoning actually buys at this point).
    """

    user_id: str
    index: int
    s_tract: float
    s_learn: float


@dataclass(frozen=True)
class PruneConfig:
    """Three-step filter settings.

    alpha: fraction of points kept by learnability (top ceil(alpha * N)).
    tract_low/tract_high: closed tractability interval kept in step 2.
    tail_fraction: fraction of step-2 survivors kept from ``tail_side``
        ("hardest" = lowest tractability first, "easiest" = highest). 1.0 keeps
        everything.
    """

    alpha: float
    tract_low: float
    tract_high: float
    tail_fraction: float = 1.0
    tail_side: str = "hardest"

    def __post_init__(self):
        if not (0.0 < self.alpha <= 1.0):
            raise ValidationError(f"alpha must be in (0, 1], got {self.alpha}")
        if not (0.0 <= self.tract_low <= self.tract_high <= 1.0):
            raise ValidationError(
                f"tractability interval [{self.tract_low}, {self.tract_high}] is invalid"
            )
        if not (0.0 < self.tail_fraction <= 1.0):
            raise ValidationError(f"tail_fraction must be in (0, 1], got {self.tail_fraction}")
        if self.tail_side not in ("hardest", "easiest"):
            raise ValidationError(f"tail_side must be 'hardest' or 'easiest', got {self.tail_side!r}")


# Per-corpus settings used in the reference experiments.
PRESET_CONFIGS = {
    "amazon": PruneConfig(alpha=0.4, tract_low=0.50, tract_high=0.90),
    "mind": PruneConfig(alpha=0.1, tract_low=0.99, tract_high=1.00),
    "alignx": PruneConfig(alpha=0.1, tract_low=0.98, tract_high=1.00),
}


def score_sample(strong_p: float, weak_p: float) -> tuple[float, float]:
    """Compute (s_tract, s_learn) from the two model probabilities.

    Both must lie in (0, 1]; zeros are a domain error (callers floor upstream,
    see PROB_FLOOR)."""
    for name, p in (("strong_p", strong_p), ("weak_p", weak_p)):
        if not (0.0 < p <= 1.0):
            raise ValidationError(f"{name} must be in (0, 1], got {p}")
    return strong_p, math.log(strong_p / weak_p)


@dataclass(frozen=True)
class ScoreRecord:
    """One score sidecar line: each model's probability of the true choice at one point."""

    user_id: str
    index: int
    strong_p: float
    weak_p: float

    to_dict = encode


def load_scores(path: str) -> list[SampleScore]:
    """Read a score sidecar (``ScoreRecord`` JSONL).

    Probabilities are floored at PROB_FLOOR before the log so judge outputs of
    exactly zero stay in-domain. Duplicate (user_id, index) keys are an error.
    """
    scores = []
    seen: set[tuple[str, int]] = set()
    for rec in read_records(path, ScoreRecord):
        key = (rec.user_id, rec.index)
        if key in seen:
            raise ValidationError(f"{path}: duplicate score for {key}")
        seen.add(key)
        s_tract, s_learn = score_sample(max(rec.strong_p, PROB_FLOOR), max(rec.weak_p, PROB_FLOOR))
        scores.append(SampleScore(user_id=rec.user_id, index=rec.index, s_tract=s_tract, s_learn=s_learn))
    return scores


def prune(scores: Sequence[SampleScore], config: PruneConfig) -> list[SampleScore]:
    """Apply the three-step curriculum filter.

    1. Keep the top ceil(alpha * N) points by s_learn.
    2. Keep points with tract_low <= s_tract <= tract_high (closed interval).
    3. Keep ceil(tail_fraction * M) survivors from the configured tail of the
       s_tract ordering.

    All sorts tie-break on (user_id, index), so the result is a pure function of
    the score multiset; input order never matters. Output is in canonical
    (user_id, index) order.
    """
    n = len(scores)
    keep1 = math.ceil(config.alpha * n)
    step1 = sorted(scores, key=lambda s: (-s.s_learn, s.user_id, s.index))[:keep1]
    step2 = [s for s in step1 if config.tract_low <= s.s_tract <= config.tract_high]
    if config.tail_fraction >= 1.0:
        step3 = step2
    else:
        keep3 = math.ceil(config.tail_fraction * len(step2))
        if config.tail_side == "hardest":
            ordered = sorted(step2, key=lambda s: (s.s_tract, s.user_id, s.index))
        else:
            ordered = sorted(step2, key=lambda s: (-s.s_tract, s.user_id, s.index))
        step3 = ordered[:keep3]
    return sorted(step3, key=lambda s: (s.user_id, s.index))


@dataclass(frozen=True)
class RlInstance:
    """One two-stage training instance: summarize up to k1, then update through
    k2. ``rollout`` takes the target triples at k1 and k2 from the user's
    history, so an instances line holds only user_id, k1 and k2."""

    user_id: str
    k1: int
    k2: int

    def __post_init__(self):
        if not (0 <= self.k1 < self.k2):
            raise ValidationError(f"instance requires 0 <= k1 < k2, got ({self.k1}, {self.k2})")

    to_dict = encode


def pick_rl_instance(user_scores: Sequence[SampleScore]) -> RlInstance | None:
    """Pick a user's two hardest surviving points (lowest s_tract, ties to the
    earlier index) and order them by history position. Users with fewer than
    two surviving points are skipped."""
    if len(user_scores) < 2:
        return None
    user_ids = {s.user_id for s in user_scores}
    if len(user_ids) != 1:
        raise ValidationError(f"pick_rl_instance got scores for several users: {sorted(user_ids)}")
    hardest = sorted(user_scores, key=lambda s: (s.s_tract, s.index))[:2]
    k1, k2 = sorted(s.index for s in hardest)
    return RlInstance(user_id=hardest[0].user_id, k1=k1, k2=k2)


def build_rl_instances(pruned: Sequence[SampleScore]) -> list[RlInstance]:
    """Group pruned scores by user and pick one instance per eligible user,
    in user_id order."""
    by_user: dict[str, list[SampleScore]] = {}
    for s in pruned:
        by_user.setdefault(s.user_id, []).append(s)
    instances = []
    for user_id in sorted(by_user):
        inst = pick_rl_instance(by_user[user_id])
        if inst is not None:
            instances.append(inst)
    return instances


def save_instances(path: str, instances: Iterable[RlInstance]) -> int:
    return write_jsonl(path, (inst.to_dict() for inst in instances))


def load_instances(path: str) -> list[RlInstance]:
    return list(read_records(path, RlInstance))
