"""Streaming preference inference: maintain a per-user summary that is updated
from contiguous history segments instead of re-reading the full log.

The update is the only primitive; full-history inference is one update over
[0, n), and chunked inference is a fold of updates. An update is its
contiguity checks around ``summarize``, the one summary step, which rollouts
sample through too. That shared code path is what makes composition exact:
updating in two steps and inferring with two chunks build byte-identical
prompts and summaries on a deterministic backend.
"""

from dataclasses import dataclass, field

from ._util import encode, even_boundaries
from .core import HistorySegment, PreferenceSummary, UserHistory, read_by_user, segment
from .errors import ValidationError
from .modelio import GenerationResult, ModelClient
from .prompts import render_generation_prompt, render_history_block


@dataclass(frozen=True)
class StreamState:
    """A user's inference frontier.

    ``consumed_until`` is the number of history positions already folded in;
    ``lineage`` the summary ids oldest-to-newest, ending with ``current``.
    """

    user_id: str
    current: PreferenceSummary = field(metadata={"key": "summary"})
    consumed_until: int = field(metadata={"key": "frontier"})
    lineage: tuple[str, ...]

    def __post_init__(self):
        if self.consumed_until != self.current.covers[1]:
            raise ValidationError(
                f"frontier {self.consumed_until} disagrees with summary coverage {self.current.covers}"
            )
        if not self.lineage or self.lineage[-1] != self.current.summary_id:
            raise ValidationError("lineage must be non-empty and end at the current summary")

    to_dict = encode


def summarize(
    generator: ModelClient,
    segment: HistorySegment,
    prior: PreferenceSummary | None,
    *,
    meta: dict,
    sample_seed: int | None = None,
) -> tuple[PreferenceSummary, GenerationResult]:
    """The one summary step: ``prior`` (None for a first summary) updated with
    ``segment``'s interactions. Streaming updates and rollout samples both
    take it, so the same prior and segment always send the same prompt."""
    prompt = render_generation_prompt(
        render_history_block(segment.triples), past_text=prior.text if prior else None
    )
    gen = generator.generate_summary(prompt, sample_seed=sample_seed, meta=meta)
    summary = PreferenceSummary(
        text=gen.summary,
        reasoning=gen.reasoning,
        covers=(segment.start, segment.end),
        parent_id=prior.summary_id if prior else None,
    )
    return summary, gen


def update(generator: ModelClient, state: StreamState | None, segment: HistorySegment) -> StreamState:
    """Fold one new contiguous segment into a user's state.

    With ``state=None`` the segment must start at 0 and the result equals a
    from-scratch inference over the segment. Otherwise the segment must start
    exactly at the state's frontier.
    """
    start_required = 0 if state is None else state.consumed_until
    if segment.start != start_required:
        raise ValidationError(
            f"segment [{segment.start}, {segment.end}) is not contiguous with frontier {start_required}"
        )
    if state is not None and segment.history.user_id != state.user_id:
        raise ValidationError(
            f"segment belongs to {segment.history.user_id}, state to {state.user_id}"
        )
    meta = {"user_id": segment.history.user_id, "stage": "stream-update", "start": segment.start, "end": segment.end}
    summary, _ = summarize(generator, segment, state.current if state else None, meta=meta)
    lineage = (state.lineage if state else ()) + (summary.summary_id,)
    return StreamState(user_id=segment.history.user_id, current=summary, consumed_until=segment.end, lineage=lineage)


def infer_streaming(generator: ModelClient, history: UserHistory, num_chunks: int) -> StreamState:
    """Infer over the whole history in ``num_chunks`` near-equal contiguous
    segments (the division remainder goes to the last chunk)."""
    if len(history) == 0:
        raise ValidationError("cannot infer over an empty history")
    if len(history) < num_chunks:
        raise ValidationError(f"a history of {len(history)} steps cannot be split into {num_chunks} chunks")
    state: StreamState | None = None
    for seg in segment(history, even_boundaries(len(history), num_chunks)):
        state = update(generator, state, seg)
    assert state is not None
    return state


def infer_full(generator: ModelClient, history: UserHistory) -> StreamState:
    """Single-pass inference over the whole history (one chunk)."""
    return infer_streaming(generator, history, 1)


def load_states(path: str) -> dict[str, StreamState]:
    return {user_id: state for user_id, state, _ in read_by_user(path, StreamState)}
