"""Curriculum pruning: a ``ScoreRecord`` scores each (history-prefix, target)
point by how tractable it is for a strong model and how much headroom it
offers over a weak one; ``prune`` filters the records to a difficulty band and
``build_rl_instances`` picks per-user training instances."""

import math
from dataclasses import dataclass
from typing import Sequence

from ._util import decode, encode, numbered_jsonl, read_records
from .errors import ValidationError

PROB_FLOOR = 1e-6


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


@dataclass(frozen=True)
class ScoreRecord:
    """One score sidecar line: each model's probability of the true choice at
    one point, given the history before it. ``s_tract`` is the strong model's
    probability, ``s_learn`` the log-ratio of strong over weak (how much the
    stronger reasoning buys at this point); both floor an exact 0 at
    PROB_FLOOR, so the log stays in-domain."""

    user_id: str
    index: int
    strong_p: float
    weak_p: float

    def __post_init__(self):
        for name, p in (("strong_p", self.strong_p), ("weak_p", self.weak_p)):
            if not (0.0 <= p <= 1.0):  # NaN fails too
                raise ValidationError(f"{name} must be in [0, 1], got {p}")

    @property
    def s_tract(self) -> float:
        return max(self.strong_p, PROB_FLOOR)

    @property
    def s_learn(self) -> float:
        return math.log(self.s_tract / max(self.weak_p, PROB_FLOOR))

    to_dict = encode


def load_scores(path: str) -> list[ScoreRecord]:
    """Read a score sidecar (``ScoreRecord`` JSONL). A bad line raises
    ValidationError naming ``path:line``; duplicate (user_id, index) keys are
    an error too."""
    scores = []
    seen: set[tuple[str, int]] = set()
    for line_no, record in numbered_jsonl(path):
        rec = decode(ScoreRecord, record, f"{path}:{line_no}")
        key = (rec.user_id, rec.index)
        if key in seen:
            raise ValidationError(f"{path}:{line_no}: duplicate score for {key}")
        seen.add(key)
        scores.append(rec)
    return scores


def prune(scores: Sequence[ScoreRecord], config: PruneConfig) -> list[ScoreRecord]:
    """Apply the three-step curriculum filter.

    1. Keep the top ceil(alpha * N) points by s_learn.
    2. Keep points with tract_low <= s_tract <= tract_high (closed interval).
    3. Keep ceil(tail_fraction * M) survivors from the configured tail of the
       s_tract ordering.

    All sorts tie-break on (user_id, index), so the result is a pure function of
    the score multiset; input order never matters. Output is in canonical
    (user_id, index) order.
    """
    step1 = sorted(scores, key=lambda s: (-s.s_learn, s.user_id, s.index))[: math.ceil(config.alpha * len(scores))]
    kept = [s for s in step1 if config.tract_low <= s.s_tract <= config.tract_high]
    if config.tail_fraction < 1.0:  # step 3: "hardest" keeps the lowest s_tract
        sign = 1 if config.tail_side == "hardest" else -1
        ordered = sorted(kept, key=lambda s: (sign * s.s_tract, s.user_id, s.index))
        kept = ordered[: math.ceil(config.tail_fraction * len(kept))]
    return sorted(kept, key=lambda s: (s.user_id, s.index))


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


def pick_rl_instance(user_scores: Sequence[ScoreRecord]) -> RlInstance | None:
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


def build_rl_instances(pruned: Sequence[ScoreRecord]) -> list[RlInstance]:
    """Group pruned scores by user and pick one instance per eligible user,
    in user_id order."""
    by_user: dict[str, list[ScoreRecord]] = {}
    for s in pruned:
        by_user.setdefault(s.user_id, []).append(s)
    instances = []
    for user_id in sorted(by_user):
        inst = pick_rl_instance(by_user[user_id])
        if inst is not None:
            instances.append(inst)
    return instances


def load_instances(path: str) -> list[RlInstance]:
    return list(read_records(path, RlInstance))
