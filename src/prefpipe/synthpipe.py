"""SFT data synthesis: generate candidate profiles against held-out targets,
validate them with a judge, merge survivors, and keep only users whose merged
profile predicts their choices accurately.

Run per history segment with the prior segment's merged summary chained in, the
pipeline emits incremental training records (prior + new segment -> updated
profile)."""

import random
from dataclasses import dataclass
from typing import Callable, Iterable, Mapping

from ._util import Tally, derive_seed, encode, ordered_map
from .core import HistorySegment, InteractionTriple, PreferenceSummary, UserHistory, segment
from .errors import UserSkip, ValidationError
from .modelio import GenerationResult, ModelClient
from .prompts import render_generation_prompt, render_history_block, render_merge_prompt, render_target_block


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

    to_dict = encode


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
    skipped: Tally | None = None,
) -> list[ProfileCandidate]:
    """Generate one profile candidate per target, up to ``jobs`` at once.

    The rendered interaction history is the segment minus every sampled target;
    the candidate's own target is appended unlabeled, its two items in random
    order, so no prompt reveals any target's true choice. A failed generation
    is dropped and counted in ``skipped``; losing all of them skips the user.
    """
    user_id = target_set.segment.history.user_id
    target_indices = {t.index for t in target_set.targets}
    context_triples = [t for t in target_set.segment.triples if t.index not in target_indices]
    history_text = render_history_block(context_triples)
    # Every order is drawn before any call, in target order, so the rng stream
    # does not depend on scheduling.
    firsts = [rng.choice((t.chosen, t.rejected)) for t in target_set.targets]

    def one(target_first: tuple[InteractionTriple, str]) -> ProfileCandidate:
        target, first = target_first
        prompt = render_generation_prompt(
            history_text,
            past_text=prior.text if prior else None,
            target_text=render_target_block(target, first),
        )
        gen = generator.generate_summary(
            prompt, meta={"user_id": user_id, "stage": "synth-generate", "target": target.index}
        )
        return ProfileCandidate(target=target, generation=gen)

    calls = (skipped or Tally()).map(
        one, zip(target_set.targets, firsts), jobs, lambda tf: f"user {user_id} target {tf[0].index}"
    )
    candidates = [c for c in calls if c]
    if not candidates:
        raise UserSkip("all candidate generations failed")
    return candidates


def _predicts_choice(
    judge: ModelClient, summary_text: str, target: InteractionTriple, debias: bool, user_id: str
) -> bool:
    """True when the judge, reading the summary, picks the actually-chosen item."""
    verdict = judge.judge_pair(
        summary_text, target.context, target.chosen, target.rejected,
        debias=debias, decision_only=True, meta={"user_id": user_id, "target": target.index},
    )
    return verdict.prob_first > 0.5


def validate_candidates(
    candidates: list[ProfileCandidate], judge: ModelClient, config: SynthConfig, user_id: str = "", jobs: int = 1,
    skipped: Tally | None = None,
) -> list[ProfileCandidate]:
    """Keep candidates whose profile lets the judge predict the target's true
    choice, judging up to ``jobs`` at once. A failed judgment counts as failed
    validation and is counted in ``skipped``. Fewer than ``min_kept``
    survivors skip the user."""
    passed = list((skipped or Tally()).map(
        lambda cand: _predicts_choice(judge, cand.summary_text, cand.target, config.debias, user_id),
        candidates, jobs, lambda cand: f"user {user_id} target {cand.target.index}",
    ))
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
    skipped: Tally | None = None,
) -> float:
    """Score the merged profile over every sampled target, up to ``jobs`` at
    once; accept iff the accuracy reaches the threshold (inclusive). Returns
    the accuracy. A failed judgment counts as wrong and is counted in ``skipped``."""
    user_id = target_set.segment.history.user_id
    correct = list((skipped or Tally()).map(
        lambda target: _predicts_choice(judge, merged.text, target, config.debias, user_id),
        target_set.targets, jobs, lambda target: f"user {user_id} target {target.index}",
    ))
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
    skipped: Tally | None = None,
) -> list[SynthRecord]:
    """Run the full pipeline per segment, chaining each merged profile into the
    next segment's prompt. A segment that a filter or a failed merge skips
    keeps the records from earlier segments but ends the chain (its prior is
    gone). ``jobs`` bounds the calls that run at once within one step. Each
    skip, a failed model call's or the segment's, is counted in ``skipped``."""
    skipped = skipped or Tally()
    if len(history) // config.num_segments < config.min_per_segment:
        reason = f"fewer than {config.min_per_segment} interactions per segment"
        skipped.add(reason, f"user {history.user_id}: {len(history)} interactions, {config.num_segments} segments")
        return []
    segments = segment(history, config.num_segments)
    prior: PreferenceSummary | None = None

    def synthesize(j_seg: tuple[int, HistorySegment]) -> tuple[SynthRecord, PreferenceSummary]:
        j, seg = j_seg
        rng = random.Random(derive_seed(config.seed, "synth", history.user_id, j))
        target_set = select_targets(seg, tract_scores, config, rng)
        candidates = generate_candidates(target_set, prior, generator, rng, jobs=jobs, skipped=skipped)
        kept = validate_candidates(candidates, judge, config, user_id=history.user_id, jobs=jobs, skipped=skipped)
        merged = merge_profiles(
            kept, teacher, covers=(seg.start, seg.end),
            parent_id=prior.summary_id if prior else None, user_id=history.user_id,
        )
        accuracy = user_level_filter(merged, target_set, judge, config, jobs=jobs, skipped=skipped)
        record = SynthRecord(
            user_id=history.user_id, segment=(seg.start, seg.end), prior_text=prior.text if prior else None,
            reasoning=merged.reasoning, summary=merged.text, accuracy=accuracy,
            target_indices=tuple(t.index for t in target_set.targets), kept_count=len(kept),
        )
        return record, merged

    records: list[SynthRecord] = []
    # one at a time, inline: each segment runs with the prior the one before it merged
    for result in skipped.map(
        synthesize, enumerate(segments), 1, lambda j_seg: f"user {history.user_id} segment {j_seg[0]}"
    ):
        if result is None:
            break
        record, prior = result
        records.append(record)
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
    skipped: Tally | None = None,
) -> tuple[list[SynthRecord], dict]:
    """Drive the pipeline over a corpus. Users are independent, and up to
    ``jobs`` run at once, each fanning its own calls out up to ``jobs`` wide;
    results are emitted in input order regardless of scheduling, so reruns are
    byte-identical at any ``jobs``.

    ``histories`` is read lazily. Each user's records go to ``sink`` as soon
    as that user and every user before it are done; then only about
    ``2 * jobs`` users are held at once and the returned list is empty.
    Without a sink the records are collected and returned.

    Skipped segments and failed model calls are counted by reason ("fewer
    than 3 candidate(s) validated", "JudgeError", ...) in ``skipped``: each
    user fills its own tally, merged here in input order."""

    def one(history: UserHistory) -> tuple[list[SynthRecord], Tally]:
        user_skips = Tally()
        scores = tract_scores.get(history.user_id, {})
        return build_streaming_sft(history, scores, generator, judge, teacher, config, jobs, user_skips), user_skips

    skipped = skipped or Tally()
    records: list[SynthRecord] = []
    emit = sink or records.append
    stats = {"users_in": 0, "users_with_records": 0, "records": 0}
    for recs, user_skips in ordered_map(one, histories, jobs):
        stats["users_in"] += 1
        stats["users_with_records"] += bool(recs)
        stats["records"] += len(recs)
        for rec in recs:
            emit(rec)
        skipped.merge(user_skips)
    return records, stats
