"""Two-stage rollout engine with judge-derived rewards and a clipped
surrogate loss.

``rollout`` is the one sampling-and-reward primitive. For an instance (k1, k2)
it samples G summaries from the history prefix before k1, picks one uniformly,
and samples G updated summaries from (picked summary, the interactions from k1
up to k2), each through ``streamer.summarize``, the step streaming inference
takes. Each summary earns its immediate reward (the judged probability of the
true choice at its stage's target) as soon as it is sampled; the picked
initial additionally earns the discounted mean of its children's rewards.
Advantages normalize cumulative rewards within each G-sized rollout set. A
tree is born with all three, so ``export_batch`` only flattens trees into
records; the record codec writes it, so a ``--trees`` dump reads back as
``RolloutTree``. The loss is the token-level clipped surrogate averaged per
sequence, then per batch.
"""

import itertools
import math
import random
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Mapping, Sequence

import numpy as np

from ._util import Tally, derive_seed, encode, ordered_map, read_records, write_jsonl
from .core import HistorySegment, InteractionTriple, PreferenceSummary, UserHistory
from .curriculum import RlInstance
from .errors import ContractError, PipelineError, UserSkip, ValidationError
from .modelio import ModelClient
from .streamer import summarize

EPS_STD = 1e-8
CLIP_EPS = 0.2  # surrogate_loss's ratio clip, and loss-check's default
_MISSING = object()  # zip_longest's filler past the end of the shorter input


@dataclass(frozen=True)
class RolloutConfig:
    """Rollout settings. ``gamma`` has no default on purpose: the discount is
    an experiment-level choice the caller must state."""

    gamma: float
    group_size: int = 4
    future_credit: str = "selected"
    debias: bool = True
    seed: int = 0

    def __post_init__(self):
        if not (0.0 <= self.gamma <= 1.0):
            raise ValidationError(f"gamma must be in [0, 1], got {self.gamma}")
        if self.group_size < 1:
            raise ValidationError(f"group_size must be >= 1, got {self.group_size}")
        if self.future_credit not in ("selected", "all"):
            raise ValidationError(f"future_credit must be 'selected' or 'all', got {self.future_credit!r}")


@dataclass(frozen=True)
class RewardedSummary:
    """One sample: the prompt sent, the raw reply and its token logprobs (None
    if the backend reports none), the parsed summary, its immediate and
    cumulative rewards, and its advantage within its group."""

    stage: str
    sample_index: int
    prompt: str
    raw: str
    summary: PreferenceSummary
    token_logprobs: tuple[float, ...] | None
    immediate: float
    cumulative: float
    advantage: float


@dataclass(frozen=True)
class RolloutTree:
    """One instance's two-stage rollout: G initials, the selected one's index,
    G updated; a ``--trees`` line, read back by ``read_records``."""

    user_id: str
    k1: int
    k2: int
    selected_index: int
    initial: tuple[RewardedSummary, ...]
    updated: tuple[RewardedSummary, ...]

    def all_summaries(self) -> list[RewardedSummary]:
        return [*self.initial, *self.updated]

    to_dict = encode


def rollout(
    policy: ModelClient,
    judge: ModelClient,
    instance: RlInstance,
    history: UserHistory,
    config: RolloutConfig,
    jobs: int = 1,
) -> RolloutTree:
    """Sample and score the two-stage tree for one instance.

    Each of the G samples of a group is judged against its stage's target as
    soon as it is generated, up to ``jobs`` samples at once; the updated group
    starts once the initial group is complete, and the tree is returned with
    every cumulative reward and advantage. Sampling is deterministic in
    (config.seed, user, k1, k2, stage, sample) for seed-honoring backends."""
    if history.user_id != instance.user_id:
        raise ValidationError(f"instance user {instance.user_id} does not match history user {history.user_id}")
    pos1 = history.position_of_index(instance.k1)
    pos2 = history.position_of_index(instance.k2)
    if pos1 < 1:
        raise ValidationError(f"instance ({instance.k1}, {instance.k2}) has an empty history prefix")
    if pos2 <= pos1:
        raise ValidationError(f"instance ({instance.k1}, {instance.k2}) has an empty update segment")

    def group(segment: HistorySegment, prior: PreferenceSummary | None, stage: str) -> list[tuple]:
        """(summary, generation, immediate reward) of each sample; the target follows the segment."""
        target = history.triples[segment.end]

        def one(i: int) -> tuple:
            seed = derive_seed(config.seed, "rollout", instance.user_id, instance.k1, instance.k2, stage, i)
            meta = {"user_id": instance.user_id, "stage": stage, "sample": i}
            summary, gen = summarize(policy, segment, prior, meta=meta, sample_seed=seed % (2**31))
            return summary, gen, immediate_reward(judge, summary, target, config)

        return list(ordered_map(one, range(config.group_size), jobs))

    initial = group(HistorySegment(history, 0, pos1), None, "initial")
    rng = random.Random(derive_seed(config.seed, "rollout-select", instance.user_id, instance.k1, instance.k2))
    selected_index = rng.randrange(config.group_size)
    updated = group(HistorySegment(history, pos1, pos2), initial[selected_index][0], "updated")

    def finish(stage: str, samples: list[tuple], cums: list[float]) -> tuple[RewardedSummary, ...]:
        return tuple(
            RewardedSummary(stage, i, gen.prompt, gen.raw, summary, gen.token_logprobs, reward, cum, float(adv))
            for i, ((summary, gen, reward), cum, adv) in enumerate(zip(samples, cums, advantages(cums)))
        )

    cum_init, cum_upd = cumulative_rewards(
        [r for *_, r in initial], [r for *_, r in updated], selected_index, config.gamma, config.future_credit
    )
    return RolloutTree(
        instance.user_id, instance.k1, instance.k2, selected_index,
        finish("initial", initial, cum_init), finish("updated", updated, cum_upd),
    )


def immediate_reward(judge: ModelClient, summary: PreferenceSummary, target: InteractionTriple, config: RolloutConfig) -> float:
    """Debiased judge probability of the target's true choice under ``summary``."""
    if target is None or target.rejected is None:
        raise ValidationError("reward target must be a full preference pair")
    verdict = judge.judge_pair(
        summary.text, target.context, target.chosen, target.rejected, debias=config.debias
    )
    return verdict.prob_first


def cumulative_rewards(
    initial_rewards: Sequence[float],
    updated_rewards: Sequence[float],
    selected_index: int,
    gamma: float,
    future_credit: str = "selected",
) -> tuple[list[float], list[float]]:
    """Fold stage-2 rewards back into stage 1.

    Updated summaries keep their immediate reward. The selected initial gets
    r + gamma * mean(updated rewards); the other initials keep r alone (their
    continuations were never sampled) unless ``future_credit="all"`` grants the
    same bonus to the whole group. gamma = 0 reduces every cumulative reward to
    its immediate reward exactly.
    """
    init = [float(r) for r in initial_rewards]
    upd = [float(r) for r in updated_rewards]
    if not init or not upd:
        raise ContractError("both reward groups must be non-empty")
    if not (0 <= selected_index < len(init)):
        raise ContractError(f"selected_index {selected_index} out of range for {len(init)} initials")
    if not (0.0 <= gamma <= 1.0):
        raise ValidationError(f"gamma must be in [0, 1], got {gamma}")
    if future_credit not in ("selected", "all"):
        raise ValidationError(f"future_credit must be 'selected' or 'all', got {future_credit!r}")
    future = gamma * (sum(upd) / len(upd))
    cum_init = [
        r + (future if (future_credit == "all" or i == selected_index) else 0.0)
        for i, r in enumerate(init)
    ]
    return cum_init, upd


def advantages(rewards: Sequence[float]) -> np.ndarray:
    """Normalize one rollout set's rewards: (r - mean) / population std.
    Sets whose std is at most EPS_STD get all-zero advantages."""
    arr = np.asarray(rewards, dtype=np.float64)
    if arr.ndim != 1 or arr.size == 0:
        raise ContractError("advantages need a non-empty 1-d reward set")
    std = float(arr.std())
    if std <= EPS_STD:
        return np.zeros_like(arr)
    return (arr - arr.mean()) / std


@dataclass(frozen=True)
class TrainingRecord:
    """One exported training sequence with everything the optimizer needs."""

    user_id: str
    group_id: str
    stage: str
    prompt: str
    response: str
    old_token_logprobs: tuple[float, ...]
    advantage: float
    reward: float

    to_dict = encode


def export_batch(trees: Iterable[RolloutTree]) -> list[TrainingRecord]:
    """Flatten rollout trees into training records, one group_id per rollout
    set (a tree's initials share one, its updates another)."""
    records = []
    for tree in trees:
        for stage, group in (("initial", tree.initial), ("updated", tree.updated)):
            group_id = f"{tree.user_id}:{tree.k1}-{tree.k2}:{stage}"
            for rs in group:
                if rs.token_logprobs is None:
                    raise ContractError(f"{group_id}: backend reported no token logprobs; cannot export")
                if len(rs.token_logprobs) == 0:
                    raise ContractError(f"{group_id}: empty token logprobs")
                records.append(
                    TrainingRecord(
                        user_id=tree.user_id,
                        group_id=group_id,
                        stage=stage,
                        prompt=rs.prompt,
                        response=rs.raw,
                        old_token_logprobs=tuple(rs.token_logprobs),
                        advantage=rs.advantage,
                        reward=rs.cumulative,
                    )
                )
    return records


@dataclass(frozen=True)
class LogprobsRow:
    """A row of new token logprobs for one training record, as ``loss-check`` reads it."""

    logprobs: tuple[float, ...]


def surrogate_loss(
    records: Iterable[TrainingRecord],
    new_token_logprobs: Iterable[Sequence[float]],
    clip_eps: float = CLIP_EPS,
) -> float:
    """Clipped surrogate objective, in one pass over both iterables.

    Per token: min(ratio * A, clip(ratio, 1 - eps, 1 + eps) * A) with
    ratio = exp(new - old) and the sequence advantage broadcast to tokens.
    Token terms are averaged within a sequence, sequence terms across the batch,
    and the result negated (it is a loss). clip_eps = math.inf disables
    clipping. Checks report in this order: batch size mismatch, empty batch,
    clip_eps, then the first row whose token count disagrees.
    """
    error: PipelineError | None = None
    if not (clip_eps > 0.0):
        error = ValidationError(f"clip_eps must be positive, got {clip_eps}")
    n_records = n_rows = 0
    total = 0.0
    for rec, new_row in itertools.zip_longest(records, new_token_logprobs, fillvalue=_MISSING):
        n_records += rec is not _MISSING
        n_rows += new_row is not _MISSING
        if error is not None or rec is _MISSING or new_row is _MISSING:
            continue
        old = np.asarray(rec.old_token_logprobs, dtype=np.float64)
        new = np.asarray(new_row, dtype=np.float64)
        if old.shape != new.shape:
            error = ContractError(
                f"record {rec.group_id}[{rec.stage}]: token count mismatch {old.shape} vs {new.shape}"
            )
            continue
        ratio = np.exp(new - old)
        if math.isinf(clip_eps):
            terms = ratio * rec.advantage
        else:
            clipped = np.clip(ratio, 1.0 - clip_eps, 1.0 + clip_eps)
            terms = np.minimum(ratio * rec.advantage, clipped * rec.advantage)
        total += float(terms.mean())
    if n_records != n_rows:
        raise ContractError(f"batch size mismatch: {n_records} records vs {n_rows} logprob rows")
    if not n_records:
        raise ContractError("cannot compute a loss over an empty batch")
    if error is not None:
        raise error
    return -total / n_records


def save_batch(path: str, records: Iterable[TrainingRecord]) -> int:
    return write_jsonl(path, (r.to_dict() for r in records))


def iter_batch(path: str) -> Iterator[TrainingRecord]:
    """The training records of ``path``, one line at a time."""
    return read_records(path, TrainingRecord)


def load_batch(path: str) -> list[TrainingRecord]:
    return list(iter_batch(path))


def run_rollouts(
    policy: ModelClient,
    judge: ModelClient,
    instances: Sequence[RlInstance],
    histories: Mapping[str, UserHistory],
    config: RolloutConfig,
    jobs: int = 1,
    sink: Callable[[RolloutTree], None] | None = None,
    skipped: Tally | None = None,
) -> tuple[list[RolloutTree], dict]:
    """Roll out every instance, up to ``jobs`` at once, each fanning its own
    samples out up to ``jobs`` wide. ``histories`` is read only through its
    ``get``, one instance's user at a time (a ``core.HistoryIndex`` decodes
    each one as it is asked for). A per-item failure skips the instance
    and is counted by reason ("no history" or the error's class) in
    ``skipped``.

    Each finished tree goes to ``sink`` in input order, regardless of
    scheduling, as soon as every tree before it has gone; then only about
    ``2 * jobs`` trees are held at once and the returned list is empty.
    Without a sink the trees are collected and returned."""

    def one(inst: RlInstance) -> RolloutTree:
        history = histories.get(inst.user_id)
        if history is None:
            raise UserSkip("no history")
        return rollout(policy, judge, inst, history, config, jobs=jobs)

    calls = (skipped or Tally()).map(
        one, instances, jobs, lambda inst: f"instance {inst.user_id} ({inst.k1}, {inst.k2})"
    )
    trees: list[RolloutTree] = []
    emit = sink or trees.append
    n_trees = 0
    rewards: list[float] = []
    for tree in calls:
        if tree is not None:
            n_trees += 1
            rewards.extend(rs.immediate for rs in tree.all_summaries())
            emit(tree)
    stats = {
        "instances_in": len(instances),
        "trees": n_trees,
        "mean_immediate_reward": (sum(rewards) / len(rewards)) if rewards else None,
    }
    return trees, stats
