"""SFT data synthesis: generate candidate profiles against held-out targets,
validate them with a judge, merge survivors, and keep only users whose merged
profile predicts their choices accurately.

Run per history segment with the prior segment's merged summary chained in, the
pipeline emits incremental training records (prior + new segment -> updated
profile)."""

import logging
import random
from dataclasses import dataclass
from typing import Callable, Iterable, Mapping, TypeVar

from ._util import Tally, derive_seed, even_boundaries, ordered_map
from .core import HistorySegment, InteractionTriple, PreferenceSummary, UserHistory, segment
from .errors import GenerationError, JudgeError, UserSkip, ValidationError
from .modelio import GenerationResult, ModelClient
from .prompts import render_generation_prompt, render_history_block, render_merge_prompt, render_target_block

logger = logging.getLogger("prefpipe.synthpipe")

T = TypeVar("T")
Skips = list[tuple[str, str]]  # (reason, detail) pairs, in the order they happened


@dataclass(frozen=True)
class SynthConfig:
    """Knobs for the synthesis pipeline.

    Attributes:
        num_segments: How many near-equal history slices to chain through.
        min_per_segment: Users whose slices would fall below this are skipped.
        tau_tract: Tractability threshold; only triples the strong judge gets
            right with at least this probability can become targets.
        min_subset: A user's tractable subset must exceed this size to proceed.
        max_targets: Sample this many targets when the subset is larger.
        min_kept: Minimum validated candidates needed to attempt a merge.
        accuracy_threshold: User-level acceptance bar on merged-profile accuracy
            over all sampled targets (inclusive).
    """

    num_segments: int = 3
    min_per_segment: int = 3
    tau_tract: float = 0.9
    min_subset: int = 3
    max_targets: int = 5
    min_kept: int = 3
    accuracy_threshold: float = 0.8
    debias: bool = True
    seed: int = 0

    def __post_init__(self):
        lower_bounds = {"num_segments": 1, "min_per_segment": 1, "max_targets": 1, "min_kept": 1, "min_subset": 0}
        for name, low in lower_bounds.items():
            if getattr(self, name) < low:
                raise ValidationError(f"{name} must be >= {low}, got {getattr(self, name)}")
        for name in ("tau_tract", "accuracy_threshold"):
            if not (0.0 <= getattr(self, name) <= 1.0):
                raise ValidationError(f"{name} must be in [0, 1], got {getattr(self, name)}")


@dataclass(frozen=True)
class TargetSet:
    """Targets sampled from one segment's tractable subset, history order."""

    segment: HistorySegment
    targets: tuple[InteractionTriple, ...]


@dataclass(frozen=True)
class ProfileCandidate:
    """One generated profile anchored to one target."""

    target: InteractionTriple
    generation: GenerationResult

    @property
    def summary_text(self) -> str:
        return self.generation.summary

    @property
    def reasoning(self) -> str | None:
        return self.generation.reasoning


@dataclass(frozen=True)
class SynthRecord:
    """One training example: (prior profile, new segment) -> merged profile."""

    user_id: str
    segment: tuple[int, int]
    prior_text: str | None
    reasoning: str | None
    summary: str
    accuracy: float
    target_indices: tuple[int, ...]
    kept_count: int

    def to_dict(self) -> dict:
        return {
            "user_id": self.user_id,
            "segment": list(self.segment),
            "prior_text": self.prior_text,
            "reasoning": self.reasoning,
            "summary": self.summary,
            "accuracy": self.accuracy,
            "target_indices": list(self.target_indices),
            "kept_count": self.kept_count,
        }


def select_targets(
    segment: HistorySegment, tract_scores: Mapping[int, float], config: SynthConfig, rng: random.Random
) -> TargetSet:
    """Pick validation targets from the segment's tractable subset.

    A triple qualifies when it still has both items and the strong judge finds
    it tractable (score >= tau_tract; unscored triples count as intractable).
    Subsets of at most ``min_subset`` skip the user; larger-than-``max_targets``
    subsets are sampled down, keeping history order.
    """
    subset = [
        t
        for t in segment.triples
        if t.rejected is not None and tract_scores.get(t.index, 0.0) >= config.tau_tract
    ]
    if len(subset) <= config.min_subset:
        raise UserSkip(f"tractable subset of at most {config.min_subset} triple(s)")
    if len(subset) > config.max_targets:
        subset = sorted(rng.sample(subset, config.max_targets), key=lambda t: t.index)
    return TargetSet(segment=segment, targets=tuple(subset))


def generate_candidates(
    target_set: TargetSet,
    prior: PreferenceSummary | None,
    generator: ModelClient,
    rng: random.Random,
    jobs: int = 1,
    skipped: Skips | None = None,
) -> list[ProfileCandidate]:
    """Generate one profile candidate per target, up to ``jobs`` at once.

    The rendered interaction history is the segment minus every sampled target;
    the candidate's own target is appended unlabeled, its two items in random
    order, so no prompt reveals any target's true choice. Failed generations are
    dropped, and appended to ``skipped``; losing all of them skips the user.
    """
    user_id = target_set.segment.history.user_id
    target_indices = {t.index for t in target_set.targets}
    context_triples = [t for t in target_set.segment.triples if t.index not in target_indices]
    history_text = render_history_block(context_triples)
    # Every order is drawn before any call, in target order, so the rng stream
    # does not depend on scheduling.
    firsts = [rng.choice((t.chosen, t.rejected)) for t in target_set.targets]

    def one(target_first: tuple[InteractionTriple, str]) -> ProfileCandidate | tuple[str, str]:
        target, first = target_first
        prompt = render_generation_prompt(
            history_text,
            past_text=prior.text if prior else None,
            target_text=render_target_block(target, first),
        )
        try:
            gen = generator.generate_summary(
                prompt, meta={"user_id": user_id, "stage": "synth-generate", "target": target.index}
            )
        except GenerationError as exc:
            return type(exc).__name__, f"user {user_id} target {target.index}: {exc}"
        return ProfileCandidate(target=target, generation=gen)

    candidates = [c for c in _settle(ordered_map(one, zip(target_set.targets, firsts), jobs), skipped) if c]
    if not candidates:
        raise UserSkip("all candidate generations failed")
    return candidates


def _predicts_choice(
    judge: ModelClient, summary_text: str, target: InteractionTriple, debias: bool, user_id: str
) -> bool | tuple[str, str]:
    """True when the judge, reading the summary, picks the actually-chosen item.
    A judge failure is returned as its (reason, detail)."""
    try:
        verdict = judge.judge_pair(
            summary_text,
            target.context,
            target.chosen,
            target.rejected,
            debias=debias,
            meta={"user_id": user_id, "target": target.index},
        )
    except JudgeError as exc:
        return type(exc).__name__, f"user {user_id} target {target.index}: {exc}"
    return verdict.prob_first > 0.5


def _settle(results: Iterable[T | tuple[str, str]], skipped: Skips | None) -> list[T | None]:
    """One step's call results in order, each failed call's (reason, detail)
    moved to ``skipped`` and left as None."""
    results = list(results)
    if skipped is not None:
        skipped.extend(r for r in results if isinstance(r, tuple))
    return [None if isinstance(r, tuple) else r for r in results]


def validate_candidates(
    candidates: list[ProfileCandidate], judge: ModelClient, config: SynthConfig, user_id: str = "", jobs: int = 1,
    skipped: Skips | None = None,
) -> list[ProfileCandidate]:
    """Keep candidates whose profile lets the judge predict the target's true
    choice, judging up to ``jobs`` at once. Judge failures count as failed
    validation and are appended to ``skipped``. Fewer than ``min_kept``
    survivors skip the user."""
    passed = _settle(ordered_map(
        lambda cand: _predicts_choice(judge, cand.summary_text, cand.target, config.debias, user_id), candidates, jobs
    ), skipped)
    kept = [cand for cand, ok in zip(candidates, passed) if ok]
    if len(kept) < config.min_kept:
        raise UserSkip(f"fewer than {config.min_kept} candidate(s) validated")
    return kept


def merge_profiles(
    kept: list[ProfileCandidate],
    teacher: ModelClient,
    covers: tuple[int, int],
    parent_id: str | None,
    user_id: str,
) -> PreferenceSummary:
    """Merge validated candidates (with their reasonings) into one profile."""
    prompt = render_merge_prompt([(c.reasoning, c.summary_text) for c in kept])
    gen = teacher.generate_summary(prompt, meta={"user_id": user_id, "stage": "synth-merge"})
    return PreferenceSummary(
        text=gen.summary, reasoning=gen.reasoning, covers=covers, parent_id=parent_id
    )


def user_level_filter(
    merged: PreferenceSummary, target_set: TargetSet, judge: ModelClient, config: SynthConfig, jobs: int = 1,
    skipped: Skips | None = None,
) -> float:
    """Score the merged profile over every sampled target, up to ``jobs`` at
    once; accept iff the accuracy reaches the threshold (inclusive). Returns
    the accuracy. Judge failures count as wrong and are appended to ``skipped``."""
    user_id = target_set.segment.history.user_id
    correct = _settle(ordered_map(
        lambda target: _predicts_choice(judge, merged.text, target, config.debias, user_id), target_set.targets, jobs
    ), skipped)
    accuracy = correct.count(True) / len(target_set.targets)
    if accuracy < config.accuracy_threshold:
        raise UserSkip(f"merged profile accuracy below {config.accuracy_threshold}")
    return accuracy


def build_streaming_sft(
    history: UserHistory,
    tract_scores: Mapping[int, float],
    generator: ModelClient,
    judge: ModelClient,
    teacher: ModelClient,
    config: SynthConfig,
    jobs: int = 1,
    skipped: Skips | None = None,
) -> list[SynthRecord]:
    """Run the full pipeline per segment, chaining each merged profile into the
    next segment's prompt. A skip in segment j keeps the records from earlier
    segments but aborts j and everything after (the chain's prior is gone).
    ``jobs`` bounds the calls that run at once within one step. Each skip, a
    failed model call's or the segment's, is appended to ``skipped``."""
    skipped = [] if skipped is None else skipped
    if len(history) // config.num_segments < config.min_per_segment:
        reason = f"fewer than {config.min_per_segment} interactions per segment"
        skipped.append((reason, f"user {history.user_id}: {len(history)} interactions, {config.num_segments} segments"))
        return []
    segments = segment(history, even_boundaries(len(history), config.num_segments))
    records: list[SynthRecord] = []
    prior: PreferenceSummary | None = None
    for j, seg in enumerate(segments):
        rng = random.Random(derive_seed(config.seed, "synth", history.user_id, j))
        try:
            target_set = select_targets(seg, tract_scores, config, rng)
            candidates = generate_candidates(target_set, prior, generator, rng, jobs=jobs, skipped=skipped)
            kept = validate_candidates(candidates, judge, config, user_id=history.user_id, jobs=jobs, skipped=skipped)
            merged = merge_profiles(
                kept, teacher, covers=(seg.start, seg.end),
                parent_id=prior.summary_id if prior else None, user_id=history.user_id,
            )
            accuracy = user_level_filter(merged, target_set, judge, config, jobs=jobs, skipped=skipped)
        except UserSkip as exc:
            skipped.append((exc.reason, f"user {history.user_id} segment {j}"))
            break
        records.append(
            SynthRecord(
                user_id=history.user_id,
                segment=(seg.start, seg.end),
                prior_text=prior.text if prior else None,
                reasoning=merged.reasoning,
                summary=merged.text,
                accuracy=accuracy,
                target_indices=tuple(t.index for t in target_set.targets),
                kept_count=len(kept),
            )
        )
        prior = merged
    return records


def run_corpus(
    histories: Iterable[UserHistory],
    tract_scores: Mapping[str, Mapping[int, float]],
    generator: ModelClient,
    judge: ModelClient,
    teacher: ModelClient,
    config: SynthConfig,
    jobs: int = 1,
    sink: Callable[[SynthRecord], None] | None = None,
) -> tuple[list[SynthRecord], dict]:
    """Drive the pipeline over a corpus. Users are independent, and up to
    ``jobs`` run at once, each fanning its own calls out up to ``jobs`` wide;
    results are emitted in input order regardless of scheduling, so reruns are
    byte-identical at any ``jobs``.

    ``histories`` is read lazily. Each user's records go to ``sink`` as soon
    as that user and every user before it are done; then only about
    ``2 * jobs`` users are held at once and the returned list is empty.
    Without a sink the records are collected and returned.

    Skipped segments and failed model calls are counted by reason ("too few
    candidates validated", "JudgeError", ...) in the stats and logged as one
    line per reason."""

    def one(history: UserHistory) -> tuple[list[SynthRecord], Skips]:
        skipped: Skips = []
        scores = tract_scores.get(history.user_id, {})
        return build_streaming_sft(history, scores, generator, judge, teacher, config, jobs, skipped), skipped

    records: list[SynthRecord] = []
    emit = sink or records.append
    stats = {"users_in": 0, "users_with_records": 0, "records": 0}
    skips = Tally()  # counted here, in the consumer's thread
    for recs, skipped in ordered_map(one, histories, jobs):
        stats["users_in"] += 1
        stats["users_with_records"] += bool(recs)
        stats["records"] += len(recs)
        for rec in recs:
            emit(rec)
        for reason, detail in skipped:
            skips.add(reason, detail)
    skips.log(logger, logging.WARNING, "synthesis step(s) skipped")
    stats["skipped_by_reason"] = skips.counts()
    return records, stats
