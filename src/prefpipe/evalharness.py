"""Selection-style evaluation: show the downstream model a summary and a target
pair (in seeded random A/B order), parse its JSON selection, and score accuracy.

Raw replies are kept per instance so any report can be reproduced offline by
re-parsing them (rescore)."""

from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping, Sequence

from ._util import Tally, derive_seed, encode, read_records
from .core import PreferenceSummary, UserHistory
from .errors import ValidationError
from .modelio import ModelClient, parse_selection
from .prompts import render_judge_prompt


@dataclass(frozen=True)
class EvalInstance:
    """One scored question: given a user's summary, which item did they pick?
    ``truth`` names the preferred side of (item_a, item_b) as stored, before
    any presentation shuffle."""

    user_id: str
    item_a: str
    item_b: str
    truth: str = "A"
    context: str | None = None
    origin: str | None = None

    def __post_init__(self):
        if self.truth not in ("A", "B"):
            raise ValidationError(f"truth must be 'A' or 'B', got {self.truth!r}")
        if not self.item_a or not self.item_b:
            raise ValidationError("both items must be non-empty")

    to_dict = encode


@dataclass(frozen=True)
class EvalOutcome:
    """One judged instance with everything needed to re-derive its verdict."""

    instance: EvalInstance
    swapped: bool
    reply: str | None
    parsed: str | None
    correct: bool
    failed: bool


@dataclass(frozen=True)
class EvalReport:
    """One evaluation's counts, as ``rescore`` derives them from outcomes;
    ``accuracy`` is ``correct / n``, or 0.0 when ``n`` is 0."""

    label: str
    n: int
    correct: int
    accuracy: float
    parse_failures: int
    call_failures: int

    to_dict = encode


def _judge_outcome(outcome_reply: str | None, swapped: bool, truth: str, strict: bool) -> tuple[str | None, bool]:
    if outcome_reply is None:
        return None, False
    parsed = parse_selection(outcome_reply, strict=strict)
    if parsed is None:
        return None, False
    mapped = parsed if not swapped else ("B" if parsed == "A" else "A")
    return parsed, mapped == truth


def evaluate_selection(
    downstream: ModelClient,
    summaries: Mapping[str, PreferenceSummary],
    instances: Sequence[EvalInstance],
    *,
    seed: int = 0,
    strict: bool = False,
    label: str = "eval",
    jobs: int = 1,
    skipped: Tally | None = None,
) -> tuple[EvalReport, list[EvalOutcome]]:
    """Judge every instance once, up to ``jobs`` at once.

    Presentation order is randomized per instance from (seed, label, user, slot)
    so reruns are reproducible. Unparseable replies and failed calls both count
    as incorrect; failed calls are also counted by error class in ``skipped``.
    Instances whose user has no summary are dropped and counted there as "no
    summary" (they are not failures of the summary under test). Outcomes keep
    slot order regardless of scheduling.
    """
    skipped = skipped or Tally()
    kept = []  # (slot, instance, swapped)
    for slot, inst in enumerate(instances):
        if summaries.get(inst.user_id) is None:
            skipped.add("no summary", f"instance {slot} ({inst.user_id})")
        else:
            # The shuffle depends on (seed, user, slot) only, never the label, so
            # protocol comparisons ask byte-identical questions.
            kept.append((slot, inst, derive_seed(seed, "eval-order", inst.user_id, slot) % 2 == 1))

    def ask(item: tuple[int, EvalInstance, bool]) -> str:
        slot, inst, swapped = item
        first, second = (inst.item_b, inst.item_a) if swapped else (inst.item_a, inst.item_b)
        return downstream.generate_summary(
            render_judge_prompt(summaries[inst.user_id].text, inst.context, first, second),
            sample_seed=derive_seed(seed, "eval-sample", inst.user_id, slot) % (2**31),
            meta={"user_id": inst.user_id, "stage": "evaluate"},
        ).summary

    replies = skipped.map(ask, kept, jobs, lambda item: f"instance {item[0]} ({item[1].user_id})")
    outcomes = []
    for reply, (_, inst, swapped) in zip(replies, kept):
        parsed, ok = _judge_outcome(reply, swapped, inst.truth, strict)
        outcomes.append(
            EvalOutcome(instance=inst, swapped=swapped, reply=reply, parsed=parsed, correct=ok, failed=reply is None)
        )
    return rescore(outcomes, label=label, strict=strict), outcomes


def rescore(outcomes: Sequence[EvalOutcome], *, label: str = "rescore", strict: bool = False) -> EvalReport:
    """Rebuild a report from stored outcomes without any model calls."""
    correct = parse_failures = call_failures = 0
    for out in outcomes:
        if out.failed:
            call_failures += 1
        parsed, ok = _judge_outcome(out.reply, out.swapped, out.instance.truth, strict)
        if out.reply is not None and parsed is None:
            parse_failures += 1
        if ok:
            correct += 1
    n = len(outcomes)
    return EvalReport(label, n, correct, correct / n if n else 0.0, parse_failures, call_failures)


def iter_holdout(
    histories: Iterable[UserHistory], skipped: Tally | None = None
) -> Iterator[tuple[UserHistory, EvalInstance]]:
    """Default evaluation protocol, one user at a time: hold out each user's
    final full pair as the question and yield it with everything before it.
    Users too short to split or whose last triple lacks a rejected item are
    dropped, and counted by reason in ``skipped``."""
    skipped = skipped or Tally()
    for hist in histories:
        if len(hist) < 2:
            skipped.add("fewer than 2 interactions", f"user {hist.user_id}")
            continue
        last = hist.triples[-1]
        if last.rejected is None:
            skipped.add("last interaction has no rejected item", f"user {hist.user_id}")
            continue
        trimmed = UserHistory(user_id=hist.user_id, triples=hist.triples[:-1], dataset_tag=hist.dataset_tag)
        yield trimmed, EvalInstance(
            user_id=hist.user_id,
            item_a=last.chosen,
            item_b=last.rejected,
            truth="A",
            context=last.context,
            origin="holdout",
        )


def holdout_instances(histories: Iterable[UserHistory]) -> tuple[list[UserHistory], list[EvalInstance]]:
    """``iter_holdout`` collected: the trimmed histories and their instances."""
    held = list(iter_holdout(histories))
    return [trimmed for trimmed, _ in held], [inst for _, inst in held]


def format_reports(reports: Sequence[EvalReport]) -> str:
    """Fixed-width table over report rows."""
    header = f"{'label':<16} {'n':>6} {'correct':>8} {'accuracy':>9} {'parse_fail':>11} {'call_fail':>10}"
    lines = [header, "-" * len(header)]
    for r in reports:
        lines.append(
            f"{r.label:<16} {r.n:>6} {r.correct:>8} {r.accuracy:>9.4f} {r.parse_failures:>11} {r.call_failures:>10}"
        )
    return "\n".join(lines)


def load_eval_instances(path: str) -> list[EvalInstance]:
    return list(read_records(path, EvalInstance))
