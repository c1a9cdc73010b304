"""Transfer-benchmark construction.

Three corpus transforms probe how well preference summaries carry across
contexts: cross-corpus matching (embed histories, pair the most similar users,
swap their evaluation targets), secondary-interest injection (dilute a primary
history with another user's interactions at a controlled intensity), and
positive-only reduction (drop every rejected item).
"""

import random
from dataclasses import dataclass, replace
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

from ._util import Tally, derive_seed
from .core import InteractionTriple, UserHistory
from .errors import ContractError, ValidationError
from .modelio import ModelClient
from .prompts import render_history_block


Embedded = tuple[str, np.ndarray]  # (user_id, unit embedding of the user's history)
_BLOCK_PAIRS = 1 << 14  # similarities per block of match_users' ranking walk
_UNIT_TOL = 1e-6  # how far a caller's embedding norm may stray from 1


@dataclass(frozen=True)
class UserPair:
    user_a: str
    user_b: str
    similarity: float


@dataclass(frozen=True)
class NoiseConfig:
    """Secondary-interest injection settings. ``intensity`` is the fraction of
    the fused history that comes from the donor."""

    intensity: float
    seed: int = 0

    def __post_init__(self):
        if not (0.0 <= self.intensity < 1.0):
            raise ValidationError(f"intensity must be in [0, 1), got {self.intensity}")


@dataclass(frozen=True)
class InjectionResult:
    """A fused history plus the provenance needed to reverse the injection.

    ``injected_positions`` are the fused positions holding donor triples;
    ``source_indices`` the original index of every fused triple in its source
    history (primary or donor).
    """

    history: UserHistory
    donor_user: str
    injected_positions: tuple[int, ...]
    source_indices: tuple[int, ...]


def embed_history(client: ModelClient, history: UserHistory) -> np.ndarray:
    """Embed the labeled interaction-history rendering of a full history."""
    return client.embed(render_history_block(history.triples), meta={"user_id": history.user_id})


def match_users(
    client: ModelClient,
    corpus_a: Sequence[UserHistory | Embedded],
    corpus_b: Sequence[UserHistory | Embedded],
    top_k: int,
) -> list[UserPair]:
    """Pair users across two corpora by embedding similarity.

    Each corpus entry is a history, embedded here one at a time, or a
    ``(user_id, vector)`` pair its caller embedded already, so a caller that
    reads its corpora one user at a time need keep only those. A vector that
    is not a finite unit vector is a ContractError naming its user. Computes
    the |A| x |B| similarities (inner products of the unit embeddings) in
    one matrix product and returns the top_k pairs in descending similarity,
    ties broken on user ids. A user may appear in several pairs; callers who
    care can detect that from the result.

    Memory: the product (8 bytes a pair) plus O(top_k + _BLOCK_PAIRS). The
    ranking walks the product in blocks of views, keeps the best values seen
    so far, and then collects the pairs at or above the k-th best; it holds
    no index or mask with one entry per pair.

    A pair's similarity is exact only for the call shape that computed it: the
    BLAS kernel depends on the matrix shapes, so when |A| or |B| changes (or
    the product is taken in row blocks) the same pair can differ in the last
    bit. The one product over all pairs is what keeps the bytes of a ranking
    fixed for fixed corpora.
    """
    if top_k < 1:
        raise ValidationError(f"top_k must be >= 1, got {top_k}")
    if not corpus_a or not corpus_b:
        raise ValidationError("both corpora must be non-empty")
    total = len(corpus_a) * len(corpus_b)
    if top_k > total:
        raise ValidationError(f"top_k {top_k} exceeds the {total} available pairs")

    def embedded(entry: UserHistory | Embedded) -> Embedded:
        return (entry.user_id, embed_history(client, entry)) if isinstance(entry, UserHistory) else entry

    n_a = len(corpus_a)
    ids, vectors = zip(*map(embedded, [*corpus_a, *corpus_b]))
    emb_a, emb_b = np.stack(vectors[:n_a]), np.stack(vectors[n_a:])
    if emb_a.shape[1] != emb_b.shape[1]:
        raise ContractError(
            f"embedding dimension mismatch: {emb_a.shape[1]} vs {emb_b.shape[1]}"
        )
    for first, emb in ((0, emb_a), (n_a, emb_b)):
        with np.errstate(over="ignore"):  # a huge vector's norm overflows to inf; inf and NaN both fail
            bad = np.flatnonzero(~(np.abs(np.linalg.norm(emb, axis=1) - 1.0) <= _UNIT_TOL))
        if bad.size:
            raise ContractError(f"user {ids[first + bad[0]]} has an embedding that is not a finite unit vector")
    width = len(corpus_b)
    sims = (emb_a @ emb_b.T).ravel()  # a view: the product is C-contiguous
    kth_best = _kth_largest(sims, top_k)
    # Only pairs at least as similar as the k-th best can rank; keeping every
    # pair tied with it leaves the exact tie-break to the sort below.
    ranked = [
        (float(sims[flat]), ids[flat // width], ids[n_a + flat % width])
        for start in range(0, sims.size, _BLOCK_PAIRS)
        for flat in (np.flatnonzero(sims[start : start + _BLOCK_PAIRS] >= kth_best) + start).tolist()
    ]
    ranked.sort(key=lambda t: (-t[0], t[1], t[2]))
    return [UserPair(user_a=a, user_b=b, similarity=s) for s, a, b in ranked[:top_k]]


def _kth_largest(values: np.ndarray, k: int) -> float:
    """The k-th largest of a 1-d array, holding O(k + _BLOCK_PAIRS) extra.

    Blocks of ``values`` are views, held until they and the best k so far
    exceed 2k values; those are then merged and cut back to the best k with
    an in-place quickselect. A cut takes in more than k new values and copies
    at most 3k + _BLOCK_PAIRS, so each value is copied a bounded number of
    times whatever k is.
    """

    def cut() -> np.ndarray:  # the best k of best and pending, as a view of their merge
        merged = np.concatenate([best, *pending])
        pending.clear()
        merged.partition(merged.size - k)
        return merged[merged.size - k :]

    best, pending, held = values[:0], [], 0
    for start in range(0, values.size, _BLOCK_PAIRS):
        pending.append(values[start : start + _BLOCK_PAIRS])
        held += pending[-1].size
        if held > 2 * k:
            best, held = cut().copy(), k  # a copy, so the merge is freed
    return float(cut()[0])


def swap_targets(
    pairs: Sequence[UserPair], targets: Mapping[str, InteractionTriple], skipped: Tally | None = None
) -> tuple[list[dict], dict]:
    """Emit cross-evaluation instances: each pair yields (history A, target B)
    and (history B, target A). Pairs missing a usable target (absent, or a
    positive-only triple) are skipped and counted by reason in ``skipped``."""
    instances = []
    skipped = skipped or Tally()
    for pair in pairs:
        t_a, t_b = targets.get(pair.user_a), targets.get(pair.user_b)
        if t_a is None or t_b is None:
            skipped.add("no target", f"({pair.user_a}, {pair.user_b})")
            continue
        if t_a.rejected is None or t_b.rejected is None:
            skipped.add("pairless target", f"({pair.user_a}, {pair.user_b})")
            continue
        for history_user, target_user, triple in (
            (pair.user_a, pair.user_b, t_b),
            (pair.user_b, pair.user_a, t_a),
        ):
            instances.append(
                {
                    "user_id": history_user,
                    "target_user": target_user,
                    "context": triple.context,
                    "item_a": triple.chosen,
                    "item_b": triple.rejected,
                    "truth": "A",
                    "origin": "cross-swap",
                    "similarity": pair.similarity,
                }
            )
    n_skipped = len(pairs) - len(instances) // 2
    return instances, {"pairs_in": len(pairs), "pairs_skipped": n_skipped, "instances": len(instances)}


def pick_donors(
    primaries: Iterable[UserHistory], donors: Sequence[UserHistory], rng: random.Random
) -> Iterator[tuple[UserHistory, UserHistory]]:
    """Yield each primary, as it is read, with one donor drawn uniformly among
    the donors with another user_id, or among all donors when every entry is
    the primary's own.

    Each draw is one ``rng.randrange`` over that pool's size, mapped past the
    primary's own entries without building the pool, so a primary costs
    O(own entries) rather than O(len(donors)).
    """
    own: dict[str, list[int]] = {}
    for pos, donor in enumerate(donors):
        own.setdefault(donor.user_id, []).append(pos)
    for primary in primaries:
        skip = own.get(primary.user_id, [])
        if len(skip) == len(donors):
            skip = []
        pos = rng.randrange(len(donors) - len(skip))
        for s in skip:  # ascending, so pos ends on the pos-th donor not skipped
            if s > pos:
                break
            pos += 1
        yield primary, donors[pos]


def inject_corpus(
    primaries: Iterable[UserHistory],
    donors: Sequence[UserHistory],
    config: NoiseConfig,
    rng: random.Random,
    skipped: Tally | None = None,
) -> Iterator[InjectionResult]:
    """``inject_secondary`` over a corpus read one primary at a time, each
    with the donor ``pick_donors`` draws for it. A primary whose donor is too
    short for the intensity still gets every donor triple, and is counted in
    ``skipped``."""
    skipped = skipped or Tally()
    for primary, donor in pick_donors(primaries, donors, rng):
        wanted = _donor_count(len(primary), config.intensity)
        if wanted > len(donor):
            detail = f"user {primary.user_id}: donor {donor.user_id} has {len(donor)}, wanted {wanted}"
            skipped.add("donor capped: too few triples", detail)
        yield inject_secondary(primary, donor, config)


def _donor_count(n: int, intensity: float) -> int:
    """The m that solves m / (n + m) = intensity, rounded half-up."""
    return int(intensity * n / (1.0 - intensity) + 0.5)


def inject_secondary(primary: UserHistory, donor: UserHistory, config: NoiseConfig) -> InjectionResult:
    """Dilute ``primary`` with donor triples at the configured intensity.

    The donor count m solves m / (n + m) = intensity, rounded half-up, and is
    capped at the donor's length (``inject_corpus`` counts the caps). Donor
    triples are sampled without replacement and spliced at uniformly random
    positions; both source orders are preserved. Fused indices are renumbered
    0..n+m-1; the original index of every triple is recorded so the primary can
    be reconstructed exactly.
    """
    n = len(primary)
    if n == 0:
        raise ValidationError(f"primary history {primary.user_id} is empty")
    m = _donor_count(n, config.intensity)
    if m == 0:
        return InjectionResult(
            history=primary,
            donor_user=donor.user_id,
            injected_positions=(),
            source_indices=tuple(t.index for t in primary.triples),
        )
    m = min(m, len(donor))
    rng = random.Random(derive_seed(config.seed, "inject", primary.user_id, donor.user_id))
    donor_picks = [donor.triples[i] for i in sorted(rng.sample(range(len(donor)), m))]
    donor_slots = set(rng.sample(range(n + m), m))
    fused: list[InteractionTriple] = []
    sources: list[int] = []
    positions: list[int] = []
    it_primary = iter(primary.triples)
    it_donor = iter(donor_picks)
    for slot in range(n + m):
        src = next(it_donor) if slot in donor_slots else next(it_primary)
        if slot in donor_slots:
            positions.append(slot)
        fused.append(replace(src, index=slot))
        sources.append(src.index)
    return InjectionResult(
        history=UserHistory(
            user_id=primary.user_id, triples=tuple(fused), dataset_tag=primary.dataset_tag
        ),
        donor_user=donor.user_id,
        injected_positions=tuple(positions),
        source_indices=tuple(sources),
    )
